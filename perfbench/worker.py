"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]

Run from the root of a checkout, with `src` on PYTHONPATH (run.py does
both). Imports `quadcorr.cli`, sets up the workload's fields, then calls
`quadcorr.cli.main(argv)` for each op, checks each result, and prints one
JSON line: monotonic clock stamps, per-op latencies, failures, peak RSS and,
when traced, the per-layer values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _run_op(main, argv) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejecting the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    wl = workloads.build(args.workload, args.seed)

    import quadcorr.cli
    import numpy

    src = os.path.realpath("src")
    if not os.path.realpath(quadcorr.cli.__file__).startswith(src + os.sep):
        print(f"quadcorr was imported from {quadcorr.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    field_new = quadcorr.cli.field_new  # traced, if tracing is on
    for d in wl.ds:
        field_new(d)
    ready = time.monotonic()

    op_s: list[float] = []
    failures: list[dict] = []
    refuse_s: list[float] = []
    self_before = tracer.self_seconds() if tracer else 0.0
    start = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        rc, out, err = _run_op(quadcorr.cli.main, op.argv)
        elapsed = time.perf_counter() - t0
        op_s.append(elapsed)
        if op.refusal:
            refuse_s.append(elapsed)
        try:
            why = workloads.check(op, rc, out)
        except (KeyError, TypeError, ValueError) as exc:
            why = f"unexpected output: {exc!r}"
        if why is not None:
            failures.append({"argv": list(op.argv), "why": why, "stderr": err[-2000:]})
    run_s = time.perf_counter() - start

    result = {
        "ready": ready,
        "run_s": run_s,
        "op_s": op_s,
        "refuse_s": refuse_s,
        "attempted": len(wl.ops),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "workload": wl.describe(),
    }
    if tracer is not None:
        result["layers"] = tracer.report()
        result["self_s"] = tracer.self_seconds() - self_before  # spans inside run_s
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
