"""Compare the CLI's exit codes and stdout between this checkout and another.

    python3 scripts/same_output.py BASE

BASE is the root of another checkout of this repository, for example the
parent commit unpacked with `git archive`. The argv run are every op of the
benchmark's workloads (`perfbench/workloads.py`, imported read-only) for
seeds 1 and 2, and a few calls that the workloads leave out: text, CSV and
rational forms, large denominators, whose row edges take an inexact
bracket, tables of several column bands (`corrsum._BAND_CELLS`), an int32
table and axis cells for the product walk, a full and a symmetric table's
`--dump-table`, and refusals of a missing CSV form, a nonpositive bound and
a box that one route's guard refuses after the other's passes; covolumes
whose L(2, chi) sums wrap past Delta, long chi listings and a prime-Delta chi
table; representation counts on the axis of each ring class, the coset sets
of d = 2 and 3 (mod 4), thin boxes, among them boxes that the strip route
takes, and F at x = 1. Each checkout runs them
all through `quadcorr.cli.main` in its own process, with its own `src` on the
path; a `--dump-table` file is read back and its SHA-256 added to the stdout.
The script prints each argv whose exit code or stdout differ, and exits 1 if
any do.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXTRA = [
    ["table-c"],
    ["table-c", "--format", "csv"],
    ["table-c", "--d", "2", "13", "--format", "json"],
    ["verify", "--format", "json"],
    ["constant", "--d", "99999973"],
    ["constant", "--d", "5", "--format", "csv"],
    ["constant", "--d", "5", "--format", "json"],
    ["chi", "--d", "5"],
    ["chi", "--d", "13", "--limit", "60", "--format", "json"],
    ["correlate", "--d", "5", "--v1", "7/2", "--v2", "10/3"],
    ["correlate", "--d", "2", "--v1", "2.5", "--v2", "3", "--oracle", "group", "--format", "json"],
    ["table-f", "--d", "2", "--xmax", "10000", "--format", "csv"],
    ["table-f", "--d", "3", "--xmax", "5000"],
    ["table-g", "--d", "2", "--format", "csv"],
    ["table-g", "--d", "5", "--v", "3000", "8000"],
    ["correlate", "--d", "2", "--v1", "1000000", "--v2", "1/1000000007"],
    ["correlate", "--d", "2", "--v1", "1000000", "--v2", "1/1000000007", "--format", "json"],
    ["correlate", "--d", "5", "--v1", "1000000",
     "--v2", "1000000000000000000000000000001/1000000000000000000000000000000000"],
    ["correlate", "--d", "5", "--v1", "1000000000001/1000000", "--v2", "1/1000"],
    ["verify", "--format", "csv"],
    ["correlate", "--d", "2", "--v1", "2", "--v2", "2", "--format", "csv"],
    ["correlate", "--d", "2", "--v1", "0", "--v2", "1"],
    ["correlate", "--d", "5", "--v1", "3", "--v2=-1/2", "--oracle", "group"],
    ["correlate", "--d", "2", "--v1", "1900", "--v2", "1900", "--oracle", "group",
     "--memory-budget", "1000"],
    # tables of 2-3 bands: symmetric, full storage with integer bounds, the F grid
    ["correlate", "--d", "5", "--v1", "3000", "--v2", "3000", "--exclude-lambda-zero"],
    ["correlate", "--d", "13", "--v1", "4000", "--v2", "2500"],
    ["table-f", "--d", "2", "--xmax", "6000", "--exclude-lambda-zero", "--format", "csv"],
    ["correlate", "--d", "2", "--v1", "3000", "--v2", "2000",
     "--dump-table", "/tmp/quadcorr-same-output-table.csv"],
    # a symmetric table's dump, with its mirror cells, then a walk after the whole table
    ["correlate", "--d", "5", "--v1", "300", "--v2", "300",
     "--dump-table", "/tmp/quadcorr-same-output-table.csv"],
    # the product walk: an int32 table, whose dot chunks follow its largest cell, a
    # full-storage box whose integer bounds put an edge cell on the axis, and the F grid
    ["correlate", "--d", "2", "--v1", "20000", "--v2", "20000"],
    ["correlate", "--d", "13", "--v1", "4000", "--v2", "2500", "--exclude-lambda-zero"],
    ["table-f", "--d", "5", "--xmax", "3000", "--exclude-lambda-zero", "--format", "csv"],
    # L(2, chi): a period shorter than a summation block, a block wrapping past
    # Delta with a partial last chunk, and one term past the first chunk
    ["volume", "--d", "5", "--format", "json"],
    ["volume", "--d", "1000001", "--terms", "3000017", "--format", "json"],
    ["volume", "--d", "2", "--terms", "1048577"],
    # chi tables of an even d and a d = 3 (mod 4), each with several odd primes
    ["chi", "--d", "4000070", "--limit", "300000", "--format", "csv"],
    ["chi", "--d", "4000035", "--limit", "300000", "--format", "json"],
    # r_brute and r_sym on the axis of each ring class, eta of both classes d != 1 (mod 4)
    ["rcount", "--d", "2", "--x", "8"],
    ["rcount", "--d", "3", "--x", "12"],
    ["rcount", "--d", "5", "--x", "5"],
    ["rcount", "--d", "6", "--x", "6"],
    ["cosets", "--d", "3", "--format", "json"],
    ["cosets", "--d", "6", "--format", "json"],
    # inverse-square-root edges with fix-ups, F's strict value at x = 1, a prime-Delta chi
    ["table-g", "--d", "13", "--v", "3000", "7777", "--format", "json"],
    ["table-f", "--d", "5", "--xmax", "3000", "--checkpoints", "1", "2", "3000"],
    ["constant", "--d", "29999989"],
    # thin and small boxes on the strip route
    ["table-g", "--d", "2", "--v", "10000000"],
    ["table-g", "--d", "5", "--v", "1000000", "4000000", "--format", "json"],
    ["correlate", "--d", "17", "--v1", "23/2", "--v2", "7", "--exclude-lambda-zero",
     "--format", "json"],
    ["correlate", "--d", "3", "--v1", "1/2", "--v2", "40"],
]

# Runs in the child: argv lists on stdin, one [exit code, stdout] per argv on
# stdout. A crash is recorded by its exception type in place of the code.
RUNNER = r"""
import contextlib, hashlib, io, json, os, sys
import quadcorr.cli
src = os.path.realpath("src")
if not os.path.realpath(quadcorr.cli.__file__).startswith(src + os.sep):
    sys.exit(f"quadcorr was imported from {quadcorr.cli.__file__}, not {src}")
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = quadcorr.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = type(exc).__name__
    if "--dump-table" in argv and os.path.isfile(path := argv[argv.index("--dump-table") + 1]):
        with open(path, "rb") as fh:
            out.write(hashlib.sha256(fh.read()).hexdigest())
        os.remove(path)
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def _argvs() -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    seen, argvs = set(), []
    ops = [list(op.argv) for name in workloads.WORKLOADS for seed in (1, 2)
           for op in workloads.build(name, seed).ops]
    for argv in ops + EXTRA:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            argvs.append(argv)
    return argvs


def _run(checkout: str, argvs: list[list[str]]) -> list[list]:
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=checkout, env=env)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: runner failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="root of the checkout to compare against")
    args = parser.parse_args()
    argvs = _argvs()
    ours, theirs = _run(ROOT, argvs), _run(os.path.abspath(args.base), argvs)
    differ = 0
    for argv, (code, out), (base_code, base_out) in zip(argvs, ours, theirs):
        if code != base_code or out != base_out:
            differ += 1
            what = f"exit {base_code} -> {code}" if code != base_code else "stdout differs"
            print(f"{what}: {' '.join(argv)}")
    print(f"{len(argvs)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
