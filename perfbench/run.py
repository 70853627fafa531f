"""Benchmark of the `quadcorr` CLI on the workloads in workloads.py.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 60 --trace 0

Run from the root of a checkout: the library is imported from ./src and the
metric names and units come from ./BENCHMARK.json. Each pass runs the whole
workload in a fresh single-threaded process (worker.py).

--trace 0 repeats passes for about --seconds (at least three) and prints the
median of each end-to-end metric over the passes. --trace 1 makes one
untraced and two traced passes and prints the per-layer metrics; it checks
that the two traced passes count exactly the same and that the layers' self
times fit inside the traced run time.

The last line of output is {"correct", "attempted", "failed", "metrics"};
the line before it gives quartiles, sample counts, the environment and the
workload definition. Exits non-zero without that line if the benchmark
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
MIN_PASSES = 3
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QUADCORR_MEM_BUDGET", None)  # the CLI's default budget
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _pass(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_worker_env(),
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took over {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # from before the interpreter starts to the first op
    result["setup_s"] = result["ready"] - spawned
    return result


def _end_to_end(p: dict) -> dict[str, float]:
    op_ms = [s * 1000.0 for s in p["op_s"]]
    return {
        "setup_s": p["setup_s"],
        "run_s": p["run_s"],
        "peak_rss_mb": p["peak_rss_mb"],
        "refuse_s": statistics.median(p["refuse_s"]),
        "op_p50_ms": statistics.median(op_ms),
        "op_p99_ms": statistics.quantiles(op_ms, n=100, method="inclusive")[98],
    }


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def measure(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict]:
    passes = []
    begin = time.monotonic()
    while True:
        passes.append(_pass(workload, seed, trace=False))
        elapsed = time.monotonic() - begin
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    per_pass = [_end_to_end(p) for p in passes]
    return passes, {k: _summary([m[k] for m in per_pass]) for k in per_pass[0]}


def trace(workload: str, seed: int) -> tuple[list[dict], dict, list[str]]:
    """Per-layer values from two traced passes, and the self-check's findings."""
    plain = _pass(workload, seed, trace=False)
    traced = [_pass(workload, seed, trace=True) for _ in range(2)]
    problems = []
    a, b = (t["layers"] for t in traced)
    counts = {k for k in a if not k.endswith(".busy_s")}
    differ = sorted(k for k in counts if a.get(k) != b.get(k))
    if differ:
        problems.append(f"counts differ between two traced passes: {differ}")
    for t in traced:
        negative = [k for k, v in t["layers"].items() if k.endswith(".busy_s") and v < -1e-9]
        if negative:
            problems.append(f"negative self time: {negative}")
        if t["self_s"] > t["run_s"] + 1e-6:
            problems.append(f"self times {t['self_s']:.6f} s exceed run_s {t['run_s']:.6f} s")
    values = {}
    for key in a:
        both = [a[key], b.get(key, a[key])]
        values[key] = _summary(both) if key.endswith(".busy_s") else _summary(both[:1])
    run_s = [t["run_s"] for t in traced]
    values["trace.run_s"] = _summary(run_s)
    values["trace.overhead_s"] = _summary([r - plain["run_s"] for r in run_s])
    values["trace.remainder_s"] = _summary([t["run_s"] - t["self_s"] for t in traced])
    return [plain] + traced, values, problems


def _commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    try:
        proc = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
    }


def main(argv: list[str] | None = None) -> int:
    if not (os.path.isfile("BENCHMARK.json")
            and os.path.isfile(os.path.join("src", "quadcorr", "cli.py"))):
        print("error: run from the root of a quadcorr checkout (no BENCHMARK.json or "
              "src/quadcorr here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.trace:
            passes, values, problems = trace(args.workload, args.seed)
            wanted = spec["per_layer"]
        else:
            passes, values = measure(args.workload, args.seed, args.seconds)
            problems = []
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics, detail, absent = {}, {}, []
    for m in wanted:
        if m["name"] not in values:
            absent.append(m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]]["median"], "unit": m["unit"]}
        detail[m["name"]] = dict(values[m["name"]], unit=m["unit"])
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    for failure in failures[:5]:
        print(f"failed op: {json.dumps(failure)}", file=sys.stderr)

    print(json.dumps({
        "workload": passes[0]["workload"],
        "trace": args.trace,
        "passes": len(passes),
        "environment": environment(passes[0]["numpy"]),
        "fail_frac": len(failures) / attempted,
        "metrics": detail,
        "absent_metrics": absent,
        "absent_hooks": passes[-1].get("absent", []),
        "self_check": problems if args.trace else None,
    }))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
