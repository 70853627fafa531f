"""Command-line surface. Every computation in the library is reachable here,
with text, JSON and CSV output. Exit codes: 0 success, 2 validation error,
3 capacity or scale guard."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .character import c_constant, covolume, index_gamma
from .corrsum import (RepTable, correlation, correlation_group_oracle, f_deviation, g_ratio,
                      oracle_guard)
from .errors import (
    CapacityExceeded,
    DepthExceeded,
    OutOfRange,
    QuadcorrError,
    ScaleGuard,
    count_text,
)
from .hilbertgroup import coset_bfs
from .quadfield import field_new
from .repcount import RCOUNT_STEP_LIMIT, enumeration_steps, r_brute, r_sym
from .selfcheck import run_verification

C_TABLE_DS = [2, 3, 5, 6, 7, 101, 1001, 10001, 100001, 1000001]
G_TABLE_VS = [10000, 20000, 30000, 40000, 50000]
# largest chi --limit: each listed value costs about 360 bytes across the output forms
CHI_LIMIT = 10**6
# most decimal digits in the numerator or the denominator of a rational argument
FRACTION_DIGITS = 1000
_FRACTION_CAP = 10**FRACTION_DIGITS

_GUARD_ERRORS = (CapacityExceeded, ScaleGuard, DepthExceeded)


def _fraction(text: str) -> Fraction:
    """A rational argument of at most FRACTION_DIGITS digits in its numerator
    and in its denominator. Fraction raises 10 to a decimal exponent first, so
    an exponent past what the mantissa's digits can cancel is refused before
    that, even on a zero mantissa."""
    mantissa, e, exponent = text.lower().partition("e")
    try:
        shift = int(exponent) if e else 0
        value = None if abs(shift) > len(mantissa) + FRACTION_DIGITS else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text[:40]!r}") from exc
    if value is None or max(abs(value.numerator), value.denominator) >= _FRACTION_CAP:
        raise argparse.ArgumentTypeError(
            f"more than {FRACTION_DIGITS} digits in a numerator or denominator: {text[:40]!r}")
    return value


def _emit(args, payload: dict, text_lines: list[str], csv_rows=None) -> None:
    """Print the payload in the form --format names; the parser offers csv only
    to the subcommands that pass csv_rows."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        import csv as _csv

        writer = _csv.writer(sys.stdout)
        for row in csv_rows:
            writer.writerow(row)
    else:
        for line in text_lines:
            print(line)


def _cmd_constant(args) -> int:
    field = field_new(args.d)
    c = c_constant(field)
    payload = {"d": args.d, "c": str(c)}
    _emit(args, payload, [f"C_{args.d} = {c}"])
    return 0


def _cmd_chi(args) -> int:
    field = field_new(args.d)
    if args.n is not None:
        value = field.chi(args.n)
        payload = {"d": args.d, "delta": field.delta, "n": args.n, "chi": value}
        _emit(args, payload, [f"chi({args.n}) = {value}"], [["n", "chi"], [args.n, value]])
        return 0
    limit = args.limit if args.limit is not None else min(field.delta, 100)
    if limit > CHI_LIMIT:
        raise ScaleGuard(f"--limit {limit} exceeds {CHI_LIMIT}")
    values = {n: field.chi(n) for n in range(1, limit + 1)}
    payload = {"d": args.d, "delta": field.delta,
               "values": {str(n): v for n, v in values.items()}}
    lines = [f"d={args.d} delta={field.delta}"]
    lines += [f"chi({n}) = {v}" for n, v in values.items()]
    rows = [["n", "chi"]] + [[n, v] for n, v in values.items()]
    _emit(args, payload, lines, rows)
    return 0


def _cmd_volume(args) -> int:
    field = field_new(args.d)
    report = covolume(field, terms=args.terms)
    payload = {
        "d": args.d,
        "closed_form": report.closed_form,
        "siegel_form": report.siegel_form,
        "bernoulli_form": report.bernoulli_form,
        "l2_truncation_error": report.l2_truncation_error,
        "max_relative_spread": report.max_relative_spread(),
    }
    lines = [
        f"closed form     : {report.closed_form!r}",
        f"siegel route    : {report.siegel_form!r}",
        f"bernoulli route : {report.bernoulli_form!r}",
        f"relative spread : {report.max_relative_spread():.3e} "
        f"(allowed {report.l2_truncation_error + 1e-9:.3e})",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_index(args) -> int:
    field = field_new(args.d)
    payload = {"d": args.d, "index": index_gamma(field)}
    _emit(args, payload, [f"index = {payload['index']}"])
    return 0


def _cmd_cosets(args) -> int:
    field = field_new(args.d)
    graph = coset_bfs(field, depth_limit=args.depth_limit)
    reps = [
        [[e.p, e.q] for e in m.entries()]
        for m in graph.representatives
    ]
    payload = {
        "d": args.d,
        "index_formula": index_gamma(field),
        "bfs_count": graph.count,
        "closed": graph.closed,
        "conditional": graph.conditional,
        "representatives": reps,
    }
    lines = [
        f"index by character formula : {payload['index_formula']}",
        f"cosets found by search     : {graph.count} (closed={graph.closed})",
    ]
    if graph.conditional:
        lines.append("note: closure is conditional on {S, T_1, T_sqrt(d)} generating the full group")
    _emit(args, payload, lines)
    return 0


def _cmd_rcount(args) -> int:
    field = field_new(args.d)
    x, y = args.x, args.y
    p, q = 2 * x, 2 * y
    if p.denominator != 1 or q.denominator != 1:
        raise OutOfRange("coordinates must be integers or half-integers")
    lam = field.element(int(p), int(q))
    steps = enumeration_steps(field, lam)
    if steps > RCOUNT_STEP_LIMIT:
        raise ScaleGuard(f"estimated enumeration {count_text(steps)} exceeds {RCOUNT_STEP_LIMIT} steps")
    brute = r_brute(field, lam)
    sym = r_sym(field, lam)
    payload = {"d": args.d, "x": str(x), "y": str(y), "r_brute": brute, "r_sym": sym,
               "agree": brute == sym}
    _emit(args, payload, [f"r({x} + {y}*sqrt({args.d})) = {brute} (brute) / {sym} (symmetry)"])
    return 0 if brute == sym else 1


def _cmd_correlate(args) -> int:
    field = field_new(args.d)
    path = args.dump_table
    # before any table: a path open() would refuse only after the whole build
    if path and (os.path.isdir(path) or not os.access(os.path.dirname(path) or ".", os.W_OK)):
        raise OutOfRange(f"cannot write the table to {path!r}")
    include = not args.exclude_lambda_zero
    if args.oracle == "group":  # both routes' guards before either route's work
        oracle_guard(field, args.v1, args.v2)
    table = None
    if path:  # the whole table for the dump; the walk then builds it again band by band
        table = RepTable(field, args.v1, args.v2, memory_budget=args.memory_budget)
        with open(path, "w", encoding="utf-8") as fh:
            table.write_csv(fh)
    res = correlation(field, args.v1, args.v2, table=table, include_lambda_zero=include,
                      memory_budget=args.memory_budget)
    payload = res.to_json_dict()
    lines = [
        f"N_{args.d}({args.v1}, {args.v2}) = {res.n_value}",
        f"main term C_D*V1*V2 = {res.main_term!r}",
        f"deviation = {res.deviation!r}",
    ]
    if args.oracle == "group":
        oracle = correlation_group_oracle(field, args.v1, args.v2, include_lambda_zero=include)
        payload["oracle_n_value"] = oracle
        payload["oracle_matches"] = oracle == res.n_value
        lines.append(f"group-sum oracle = {oracle} ({'match' if oracle == res.n_value else 'MISMATCH'})")
    if path:
        lines.append(f"table written to {path}")
    _emit(args, payload, lines)
    if args.oracle == "group" and not payload["oracle_matches"]:
        return 1
    return 0


def _cmd_table_f(args) -> int:
    field = field_new(args.d)
    include = not args.exclude_lambda_zero
    points = f_deviation(field, args.xmax, args.checkpoints, include_lambda_zero=include,
                         memory_budget=args.memory_budget)
    rows = [["x", "F", "F_inclusive"]]
    body = []
    lines = []
    for pt in points:
        rows.append([pt.x, str(pt.f_strict), str(pt.f_inclusive)])
        body.append({"x": pt.x, "f": str(pt.f_strict), "f_inclusive": str(pt.f_inclusive)})
        note = "" if pt.f_strict == pt.f_inclusive else "   (conventions differ)"
        lines.append(f"F({pt.x}) = {pt.f_strict}{note}")
    payload = {"d": args.d, "xmax": args.xmax, "include_lambda_zero": include, "rows": body}
    _emit(args, payload, lines, rows)
    return 0


def _cmd_table_g(args) -> int:
    field = field_new(args.d)
    vs = args.v if args.v else G_TABLE_VS
    if any(v <= 1 for v in vs):  # before the first table is built
        raise OutOfRange("g_ratio needs v > 1")
    include = not args.exclude_lambda_zero
    body = []
    lines = []
    rows = [["v", "n_value", "g"]]
    for v in vs:
        n, g = g_ratio(field, v, include_lambda_zero=include, memory_budget=args.memory_budget)
        body.append({"v": str(v), "n_value": n, "g": g})
        rows.append([v, n, f"{g:.6f}"])
        lines.append(f"V={v}: N = {n}, G = {g:.6f}")
    payload = {"d": args.d, "include_lambda_zero": include, "rows": body}
    _emit(args, payload, lines, rows)
    return 0


def _cmd_table_c(args) -> int:
    ds = args.d if args.d else C_TABLE_DS
    body = []
    lines = []
    rows = [["d", "c"]]
    for d in ds:
        c = c_constant(field_new(d))
        body.append({"d": d, "c": str(c)})
        rows.append([d, str(c)])
        lines.append(f"C_{d} = {c}")
    payload = {"rows": body}
    _emit(args, payload, lines, rows)
    return 0


def _cmd_verify(args) -> int:
    checks = run_verification(dmax=args.dmax, box=args.box, corr_limit=args.corr_limit,
                              samples=args.samples, memory_budget=args.memory_budget)
    all_passed = all(c.passed for c in checks)
    payload = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "all_passed": all_passed,
    }
    lines = [
        f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in checks
    ]
    lines.append(f"{'all checks passed' if all_passed else 'SOME CHECKS FAILED'}")
    _emit(args, payload, lines)
    return 0 if all_passed else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    so every call of main reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--memory-budget", type=int, default=None,
                        help="table memory budget in bytes")

    parser = argparse.ArgumentParser(
        prog="quadcorr",
        description="Exact representation counts and correlation sums for sums of "
                    "two squares in real quadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, csv: bool = False):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("--format", default="text",
                       choices=("text", "json", "csv") if csv else ("text", "json"))
        return p

    def add_d(p):
        p.add_argument("--d", type=int, required=True, help="squarefree d > 1")

    p = add("constant", "exact correlation constant C_D")
    add_d(p)
    p.set_defaults(func=_cmd_constant)

    p = add("chi", "Kronecker character values", csv=True)
    add_d(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_chi)

    p = add("volume", "covolume, three independent routes")
    add_d(p)
    p.add_argument("--terms", type=int, default=None, help="L-series truncation")
    p.set_defaults(func=_cmd_volume)

    p = add("index", "index of the even subgroup")
    add_d(p)
    p.set_defaults(func=_cmd_index)

    p = add("cosets", "coset search and representative check")
    add_d(p)
    p.add_argument("--depth-limit", type=int, default=8)
    p.set_defaults(func=_cmd_cosets)

    p = add("rcount", "r(lambda) by both methods")
    add_d(p)
    p.add_argument("--x", type=_fraction, required=True,
                   help="rational part (may be half-integral)")
    p.add_argument("--y", type=_fraction, default="0", help="sqrt(d) coefficient")
    p.set_defaults(func=_cmd_rcount)

    p = add("correlate", "N_D(V1, V2)")
    add_d(p)
    p.add_argument("--v1", type=_fraction, required=True)
    p.add_argument("--v2", type=_fraction, required=True)
    p.add_argument("--oracle", choices=("group",), default=None)
    p.add_argument("--exclude-lambda-zero", action="store_true")
    p.add_argument("--dump-table", type=str, default=None, help="write the r-table as CSV")
    p.set_defaults(func=_cmd_correlate)

    p = add("table-f", "deviation suprema F on the integer grid", csv=True)
    add_d(p)
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--checkpoints", type=int, nargs="*", default=None)
    p.add_argument("--exclude-lambda-zero", action="store_true")
    p.set_defaults(func=_cmd_table_f)

    p = add("table-g", "unbalanced-box values N(V, V**-1/2) and G(V)", csv=True)
    add_d(p)
    p.add_argument("--v", type=int, nargs="*", default=None)
    p.add_argument("--exclude-lambda-zero", action="store_true")
    p.set_defaults(func=_cmd_table_g)

    p = add("table-c", "the constant C_D for a list of d", csv=True)
    p.add_argument("--d", type=int, nargs="*", default=None)
    p.set_defaults(func=_cmd_table_c)

    p = add("verify", "run the full invariant battery")
    p.add_argument("--dmax", type=int, default=200)
    p.add_argument("--box", type=int, default=10)
    p.add_argument("--corr-limit", type=int, default=6)
    p.add_argument("--samples", type=int, default=300)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _GUARD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QuadcorrError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
