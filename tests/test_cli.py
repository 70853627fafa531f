import contextlib
import io
import json
import signal
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcorr import character, cli, corrsum, quadfield, selfcheck
from quadcorr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out.strip() else None, err


def test_constant(capsys):
    code, payload, _ = run_json(capsys, "constant", "--d", "7")
    assert code == 0
    assert payload == {"d": 7, "c": "1"}


def test_constant_fractional(capsys):
    code, payload, _ = run_json(capsys, "constant", "--d", "6")
    assert code == 0
    assert payload["c"] == "4/3"


def test_index(capsys):
    code, payload, _ = run_json(capsys, "index", "--d", "13")
    assert code == 0
    assert payload == {"d": 13, "index": 15}


def test_correlate(capsys):
    code, payload, _ = run_json(capsys, "correlate", "--d", "2", "--v1", "3", "--v2", "3")
    assert code == 0
    assert payload["n_value"] == 100
    assert payload["c_constant_num"] == 8
    assert payload["c_constant_den"] == 1
    assert set(payload) >= {"d", "v1", "v2", "n_value", "deviation"}


def test_correlate_with_oracle(capsys):
    code, payload, _ = run_json(
        capsys, "correlate", "--d", "5", "--v1", "4", "--v2", "4", "--oracle", "group")
    assert code == 0
    assert payload["oracle_matches"] is True
    assert payload["oracle_n_value"] == payload["n_value"]


def test_correlate_rational_arguments(capsys):
    code, payload, _ = run_json(
        capsys, "correlate", "--d", "2", "--v1", "2.5", "--v2", "5/2")
    assert code == 0
    assert payload["v1"] == "5/2"
    assert payload["v2"] == "5/2"


def test_correlate_dump_table(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "correlate", "--d", "2", "--v1", "3", "--v2", "3",
                     "--dump-table", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# D=2 doubled=0"
    assert lines[1] == "x,y,r"


@pytest.mark.parametrize("path", ["/nonexistent/x.csv", "."])
def test_dump_table_path_refused_before_any_table(capsys, monkeypatch, path):
    def table_built(self, walk=None):
        raise AssertionError("a table was built before the dump path was checked")

    monkeypatch.setattr(corrsum.RepTable, "_build", table_built)
    for oracle in ([], ["--oracle", "group"]):
        code, out, err = run(capsys, "correlate", "--d", "2", "--v1", "2", "--v2", "2",
                             "--dump-table", path, *oracle)
        assert code == 2
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


def test_dump_table_write_error_exit_code(tmp_path, capsys, monkeypatch):
    def disk_full(self, stream):
        raise OSError("No space left on device")

    monkeypatch.setattr(corrsum.RepTable, "write_csv", disk_full)
    code, out, err = run(capsys, "correlate", "--d", "2", "--v1", "3", "--v2", "3",
                         "--dump-table", str(tmp_path / "table.csv"))
    assert code == 2
    assert out == "" and err == "error: No space left on device\n"


def test_chi_single_value(capsys):
    code, payload, _ = run_json(capsys, "chi", "--d", "2", "--n", "3")
    assert code == 0
    assert payload["chi"] == -1


def test_cosets(capsys):
    code, payload, _ = run_json(capsys, "cosets", "--d", "17")
    assert code == 0
    assert payload["index_formula"] == 9
    assert payload["bfs_count"] == 9
    assert payload["closed"] is True
    assert payload["conditional"] is False
    assert len(payload["representatives"]) == 9
    assert all(len(m) == 4 and all(len(e) == 2 for e in m)
               for m in payload["representatives"])


def test_volume(capsys):
    code, payload, _ = run_json(capsys, "volume", "--d", "5")
    assert code == 0
    spread = payload["max_relative_spread"]
    assert spread <= payload["l2_truncation_error"] + 1e-9


def test_rcount(capsys):
    code, payload, _ = run_json(capsys, "rcount", "--d", "2", "--x", "2")
    assert code == 0
    assert payload["r_brute"] == payload["r_sym"] == 8


def test_table_c_golden(capsys):
    code, payload, _ = run_json(capsys, "table-c")
    assert code == 0
    got = {row["d"]: row["c"] for row in payload["rows"]}
    assert got == {
        2: "8", 3: "4", 5: "8", 6: "4/3", 7: "1",
        101: "8/95", 1001: "2/753", 10001: "1/11616",
        100001: "4/1462371", 1000001: "1/11832936",
    }


def test_table_g_small(capsys):
    code, payload, _ = run_json(capsys, "table-g", "--d", "2", "--v", "100")
    assert code == 0
    row = payload["rows"][0]
    assert row["v"] == "100"
    assert row["n_value"] >= 0


@pytest.mark.parametrize("vs", [["20000", "1"], ["1", "100"], ["0"]])
def test_table_g_checks_every_v_before_the_first_table(capsys, monkeypatch, vs):
    def table_built(self):
        raise AssertionError("a table was built before every --v was checked")

    monkeypatch.setattr(corrsum.RepTable, "_compute_rows", table_built)
    code, out, err = run(capsys, "table-g", "--d", "2", "--v", *vs)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_table_f_small(capsys):
    code, payload, _ = run_json(capsys, "table-f", "--d", "2", "--xmax", "50",
                                "--checkpoints", "25", "50")
    assert code == 0
    assert [row["x"] for row in payload["rows"]] == [25, 50]


def test_table_f_default_checkpoints_cost_nothing_before_the_guard(capsys):
    # 2e5 default checkpoints, but the table is refused before any is listed
    main(["table-f", "--d", "2", "--xmax", "30"])  # warm up lazily built state
    capsys.readouterr()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "table-f", "--d", "2", "--xmax", "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == "" and err.startswith("error: ")
    assert peak < 1 << 20


def test_chi_limit_refused_before_any_value(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = run(capsys, "chi", "--d", "2", "--limit", "100000000000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == "" and err.startswith("error: ")
    monkeypatch.setattr(cli, "CHI_LIMIT", 5)
    assert run(capsys, "chi", "--d", "2", "--limit", "5")[1].count("chi(") == 5
    assert run(capsys, "chi", "--d", "2", "--limit", "6")[0] == 3


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "constant", "--d", "12")
    assert code == 2
    assert "squarefree" in err or "divisible" in err


def test_guard_exit_code(capsys):
    code, _, err = run(capsys, "correlate", "--d", "2", "--v1", "4000", "--v2", "4000",
                       "--memory-budget", "1000")
    assert code == 3


def test_thin_box_refused_before_row_geometry(capsys, monkeypatch):
    # about 5e7 rows: the guard must fire before any edge is computed
    def edge_routine_ran(*args, **kwargs):
        raise AssertionError("the edge routine ran before the row guard")

    monkeypatch.setattr(corrsum, "_max_j", edge_routine_ran)
    code, out, err = run(capsys, "correlate", "--d", "2", "--v1", "100000000", "--v2", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_edge_reach_refused_under_a_huge_budget(capsys, monkeypatch):
    # 2^29 rows fit the budget, but their int64 edges could wrap: refused first
    def rows_computed(self):
        raise AssertionError("the rows were computed past the reach guard")

    monkeypatch.setattr(corrsum.RepTable, "_compute_rows", rows_computed)
    code, out, err = run(capsys, "correlate", "--d", "2", "--v1", str(2**30), "--v2", "1",
                         "--memory-budget", "1000000000000000000")
    assert code == 3 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "int64 edge limit" in lines[0]


def test_oracle_guard_exit_code(capsys):
    code, _, err = run(capsys, "correlate", "--d", "2", "--v1", "99999", "--v2", "99999",
                       "--oracle", "group", "--memory-budget", str(8 << 30))
    assert code == 3


@pytest.mark.parametrize("v1, v2", [("1e400", "1"), ("1", "1e400")])
def test_oracle_guard_past_float_range(capsys, v1, v2):
    # the work estimate must not go through float(bound), which overflows here
    code, out, err = run(capsys, "correlate", "--d", "2", "--v1", v1, "--v2", v2,
                         "--oracle", "group")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _fail(what):
    def ran(*args, **kwargs):
        raise AssertionError(f"{what} ran before the refusal")
    return ran


def test_oracle_guard_and_table_guard_before_either_route(capsys, monkeypatch):
    # the oracle passes its own guard on this box, the table exceeds its budget
    monkeypatch.setattr(cli, "correlation_group_oracle", _fail("the oracle"))
    code, out, err = run(capsys, "correlate", "--d", "2", "--v1", "1900", "--v2", "1900",
                         "--oracle", "group", "--memory-budget", "1000")
    assert code == 3 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]


@pytest.mark.parametrize("oracle", [(), ("--oracle", "group")])
def test_nonpositive_bound_refused_before_either_route(capsys, monkeypatch, oracle):
    monkeypatch.setattr(corrsum.RepTable, "_compute_rows", _fail("the row pass"))
    monkeypatch.setattr(cli, "correlation_group_oracle", _fail("the oracle"))
    code, out, err = run(capsys, "correlate", "--d", "2", "--v1", "0", "--v2", "1", *oracle)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0] == "error: box bounds must be positive"


# every subcommand without a CSV form
@pytest.mark.parametrize("argv", [
    ("constant", "--d", "5"),
    ("volume", "--d", "2"),
    ("index", "--d", "13"),
    ("cosets", "--d", "2"),
    ("rcount", "--d", "2", "--x", "3"),
    ("correlate", "--d", "2", "--v1", "2", "--v2", "2"),
    ("verify",),
])
def test_csv_refused_by_the_parser_before_any_work(monkeypatch, argv):
    # the first step of each command's work
    monkeypatch.setattr(cli, "field_new", _fail("field_new"))
    monkeypatch.setattr(cli, "run_verification", _fail("the battery"))
    code, out, err = _call((*argv, "--format", "csv"))
    assert code == 2 and out == ""
    assert "invalid choice: 'csv'" in err


def test_csv_format(capsys):
    code, out, _ = run(capsys, "table-c", "--d", "2", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["d,c", "2,8", "3,4"]


def test_verify_quick(capsys):
    code, payload, _ = run_json(capsys, "verify", "--dmax", "30", "--box", "5",
                                "--corr-limit", "3", "--samples", "40")
    assert code == 0
    assert payload["all_passed"] is True


def test_verify_tables_honour_the_memory_budget(capsys):
    # the battery's first table (d = 2, box 5) is refused on its 7 rows alone
    code, out, err = run(capsys, "verify", "--dmax", "2", "--box", "5", "--corr-limit", "1",
                         "--samples", "2", "--memory-budget", "1000")
    assert code == 3
    assert out == "" and err.startswith("error: table needs") and len(err.splitlines()) == 1


# a depth limit below 1 is invalid (2); a search that does not close is refused (3)
@pytest.mark.parametrize("depth, want", [("0", 2), ("-2", 2), ("1", 3)])
def test_cosets_depth_limit_exit_codes(capsys, depth, want):
    code, out, err = run(capsys, "cosets", "--d", "5", "--depth-limit", depth)
    assert code == want
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("flag, value", [
    ("--box", "0"), ("--corr-limit", "0"), ("--samples", "0"), ("--samples", "1"),
    ("--dmax", "1"),
])
def test_verify_validates_before_any_check(capsys, monkeypatch, flag, value):
    def first_check_ran(*args, **kwargs):
        raise AssertionError("a check ran before the arguments were validated")

    monkeypatch.setattr(selfcheck, "field_new", first_check_ran)
    code, out, err = run(capsys, "verify", flag, value)
    assert code == 2
    assert out == "" and err.startswith("error: ")


# past quadfield.MAX_DELTA: a prime, a square (refused, not reported as not
# squarefree), and a d = 3 mod 4 below the limit whose Delta = 4d is above it
@pytest.mark.parametrize("d", ["1000000000039", "4000000000000", "30000003"])
def test_oversized_field_refused_before_factoring(capsys, monkeypatch, d):
    def factored(d):
        raise AssertionError("d was factored before the Delta guard")

    monkeypatch.setattr(quadfield, "check_squarefree", factored)
    assert (int(d) if int(d) % 4 == 1 else 4 * int(d)) > quadfield.MAX_DELTA
    code, out, err = run(capsys, "constant", "--d", d)
    assert code == 3
    assert out == "" and err.startswith("error: ")


def test_rcount_scale_guard(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "rcount", "--d", "2", "--x", "1000000000")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("table-f", "--d", "3", "--xmax", "100000"),
    ("correlate", "--d", "2", "--v1", "100000", "--v2", "100000"),
])
def test_capacity_refusal_before_row_pass(capsys, monkeypatch, argv):
    # the cells alone exceed the default budget, so no row is computed, and the
    # strip's estimate of its pairs refuses it before any of its arrays
    def row_pass_ran(self):
        raise AssertionError("the row pass ran before the capacity refusal")

    monkeypatch.setattr(corrsum.RepTable, "_compute_rows", row_pass_ran)
    monkeypatch.setattr(corrsum, "_strip", _fail("the strip"))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 3
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, line", [
    (("table-g", "--d", "2", "--v", "10000000000"), "V=10000000000: N = 829732, G = 1.037165"),
    (("table-g", "--d", "2", "--v", "30000000"), "V=30000000: N = 46180, G = 1.053909"),
    (("correlate", "--d", "3", "--v1", "1/1000000", "--v2", "1000000000000"),
     "N_3(1/1000000, 1000000000000) = 4064932"),
])
def test_thin_boxes_past_the_table_run_on_the_strip(capsys, argv, line):
    # the table refuses each of these on its rows alone
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.splitlines()[0] == line


def _call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_reuse_is_stateless():
    first = ("correlate", "--d", "5", "--v1", "7/2", "--v2", "3", "--format", "json")
    sequence = [
        first,
        ("table-f", "--d", "2", "--xmax", "30", "--checkpoints", "10", "30"),
        ("table-f", "--d", "2", "--xmax", "30"),
        ("correlate", "--d", "2", "--v1"),  # argparse error
        ("--help",),
        first,
    ]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(_call(argv)[:2])
    cli.build_parser.cache_clear()
    reused = [_call(argv)[:2] for argv in sequence]
    assert cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 0, 2, 0, 0]


_GARBAGE = ("", "x", "1/0", "-", "nan", "1e1", "7/2", "-1/3", "--d", "0x10", "1e400", "1e-400")


def _mostly(values):
    """values nine times in ten, else a garbage token."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(_GARBAGE) if k == 0 else values)


_SMALL = _mostly(st.integers(-3, 40).map(str))
_D = _mostly(st.integers(-2, 45).map(str) | st.just("1000000000039"))
_FLAGS = {
    "constant": {"--d": _D},
    "chi": {"--d": _D, "--n": _SMALL, "--limit": _SMALL},
    "volume": {"--d": _D, "--terms": _SMALL},
    "index": {"--d": _D},
    "cosets": {"--d": _D, "--depth-limit": _SMALL},
    "rcount": {"--d": _D, "--x": _SMALL, "--y": _SMALL},
    "correlate": {"--d": _D, "--v1": _SMALL, "--v2": _SMALL, "--oracle": st.just("group"),
                  "--exclude-lambda-zero": st.none(),
                  "--dump-table": st.sampled_from(("/nonexistent/x.csv", "."))},
    "table-f": {"--d": _D, "--xmax": _SMALL, "--checkpoints": st.lists(_SMALL, max_size=3),
                "--exclude-lambda-zero": st.none()},
    # an empty --v list means the full default table
    "table-g": {"--d": _D, "--v": st.lists(_SMALL, min_size=1, max_size=2),
                "--exclude-lambda-zero": st.none()},
    "table-c": {"--d": st.lists(_D, max_size=3)},
    # a valid verify runs the whole battery (about 0.4 s), which the acceptance
    # tests cover; here each call carries at least one garbage value
    "verify": {"--dmax": st.sampled_from(_GARBAGE[:5]), "--box": _SMALL,
               "--corr-limit": _SMALL, "--samples": _SMALL},
}
# the required flags, and verify's garbage --dmax
_ALWAYS = {"--d", "--x", "--v1", "--v2", "--xmax", "--dmax"}
_COMMON = {"--format": _mostly(st.sampled_from(("text", "json", "csv"))),
           "--memory-budget": _mostly(st.sampled_from(("-1", "0", "100", "100000000")))}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in {**_FLAGS[command], **_COMMON}.items():
        if flag in _ALWAYS or draw(st.booleans()):
            value = draw(values)
            if value is None:  # a switch
                argv.append(flag)
            else:
                argv += [flag] + (value if isinstance(value, list) else [value])
    return argv


@given(_argv())
@settings(max_examples=300, deadline=None)
@example(["correlate", "--d", "2", "--v1", "2", "--v2", "2", "--dump-table", "/nonexistent/x.csv"])
# thin shapes whose route estimates must stay in exact integers past float range
@example(["table-g", "--d", "2", "--v", "1" + "0" * 400])
@example(["correlate", "--d", "3", "--v1", "7/2", "--v2", "1e-400"])
@example(["correlate", "--d", "5", "--v1", "1e400", "--v2", "1/3", "--exclude-lambda-zero"])
def test_cli_fuzz_exit_codes(argv):
    code, _, err = _call(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv


# a quick valid call of each command; each of its flags is in turn given a huge value
_HUGE_BASE = {
    "constant": {"--d": "2"},
    "chi": {"--d": "5", "--n": "3", "--limit": "4"},
    "volume": {"--d": "2", "--terms": "1000000"},
    "index": {"--d": "13"},
    "cosets": {"--d": "2", "--depth-limit": "8"},
    "rcount": {"--d": "2", "--x": "3", "--y": "1"},
    "correlate": {"--d": "2", "--v1": "3", "--v2": "5/2", "--oracle": "group",
                  "--memory-budget": "100000000"},
    "table-f": {"--d": "2", "--xmax": "10", "--checkpoints": "5",
                "--memory-budget": "100000000"},
    "table-g": {"--d": "5", "--v": "20", "--memory-budget": "100000000"},
    "table-c": {"--d": "7"},
    "verify": {"--dmax": "200", "--box": "10", "--corr-limit": "6", "--samples": "300"},
}
_NON_NUMERIC = {"--oracle"}


def _huge_values():
    """10^k, 10^-k, 1ek and 1e-k for k up to 5,000, about the 1,000-digit
    limit of rational arguments and past the 4,300 digits of int()."""
    for k in (20, 400, 999, 1000, 5000):
        zeros = "0" * k
        yield from (f"1{zeros}", f"1/1{zeros}", f"1e{k}", f"1e-{k}")


class _RunsOn(Exception):
    pass


def _alarm(_signum, _frame):
    raise _RunsOn


@pytest.mark.parametrize("command", sorted(_HUGE_BASE))
def test_cli_huge_magnitudes_end_in_one_error_line(command):
    """Every numeric flag given a huge magnitude ends within a few seconds in
    an exit code of 0 to 3, and a failure in exactly one error: line."""
    base = _HUGE_BASE[command]
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for flag in sorted(base.keys() - _NON_NUMERIC):
            for value in _huge_values():
                argv = [command]
                for f, v in base.items():
                    argv += [f, value if f == flag else v]
                shown = [a if len(a) < 30 else a[:12] + f"...({len(a)} chars)" for a in argv]
                signal.alarm(5)
                try:
                    code, _, err = _call(argv)
                except _RunsOn:
                    pytest.fail(f"still running after 5 s: {shown}")
                finally:
                    signal.alarm(0)
                assert code in (0, 1, 2, 3), (shown, code)
                assert "Traceback" not in err, shown
                if code in (2, 3):
                    lines = err.strip().splitlines()
                    assert "error:" in lines[-1], (shown, err[-300:])
                    assert sum("error:" in line for line in lines) == 1, (shown, err[-300:])
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv", [
    ("correlate", "--d", "2", "--v1", "1e5000", "--v2", "1"),
    ("correlate", "--d", "2", "--v1", "3", "--v2", "1e-5000"),
    ("rcount", "--d", "2", "--x", "1e5000", "--y", "0"),
    ("rcount", "--d", "2", "--x", "1/" + "1" * 1001, "--y", "0"),
    ("correlate", "--d", "2", "--v1", "0e999999999", "--v2", "1"),
])
def test_rationals_past_the_digit_limit_exit_2_at_once(argv):
    start = time.perf_counter()
    code, out, err = _call(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert f"more than {cli.FRACTION_DIGITS} digits" in lines[-1]
    assert sum("error:" in line for line in lines) == 1


def test_rationals_at_the_digit_limit_reach_the_guards():
    """A 1,000-digit numerator passes the argument check; the table's budget
    then refuses the box, printing its counts through Decimal."""
    code, _, err = _call(["correlate", "--d", "2", "--v1", "9" * 1000, "--v2", "1"])
    assert code == 3 and "e+" in err
    code, out, _ = _call(["correlate", "--d", "2", "--v1", "3", "--v2", "1/" + "1" * 999])
    assert code == 0 and out.startswith("N_2(3, 1/111")


@pytest.mark.parametrize("argv", [
    ("volume", "--d", "2", "--terms", "1000000000000"),
    ("verify", "--dmax", "1000000000"),
    ("verify", "--box", str(selfcheck.VERIFY_MAX["box"] + 1)),
    ("verify", "--corr-limit", str(selfcheck.VERIFY_MAX["corr_limit"] + 1)),
    ("verify", "--samples", str(selfcheck.VERIFY_MAX["samples"] + 1)),
])
def test_volume_and_verify_work_is_refused_first(argv):
    start = time.perf_counter()
    code, _, err = _call(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and err.startswith("error:")


def test_default_work_passes_the_guards():
    # every field's default --terms, max(Delta, 10^6), and verify's default dmax
    assert max(quadfield.MAX_DELTA, 10**6) <= character.L_TERMS_LIMIT
    assert 2 * 200 * 201 <= selfcheck.VERIFY_CHI_LIMIT
    assert cli.build_parser().parse_args(["verify"]).dmax == 200
    # the largest dmax the guard admits
    dmax = 11179
    assert 2 * dmax * (dmax + 1) <= selfcheck.VERIFY_CHI_LIMIT < 2 * (dmax + 1) * (dmax + 2)
