"""The benchmark's tracer finds every layer it reports, run as the benchmark
worker runs it: in its own process, after `import quadcorr.cli`. A renamed
or moved target would otherwise leave its per-layer metrics absent without
failing anything."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import quadcorr.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
quadcorr.cli.main(sys.argv[1:])
print(json.dumps(tracer.report()))
"""


def _traced(*argv):
    """The report of a fresh tracer over one CLI call, in a process of its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_reports_every_per_layer_metric():
    report = _traced("correlate", "--d", "5", "--v1", "100", "--v2", "100")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # run.py adds the trace.* metrics from the traced and plain passes
    wanted = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    assert [name for name in wanted if name not in report] == []
    # the counts read from the table stages, after one table build: the box is
    # one that correlation routes to the table
    for name in ("corrsum.rows.count", "corrsum.squares.count", "corrsum.cells",
                 "corrsum.table.bytes"):
        assert report[name] > 0, name
    # the table's row edges and the exact bound tests behind them still run
    for name in ("corrsum.edge.calls", "corrsum.allows.calls"):
        assert report[name] > 0, name


def test_tracer_bills_the_strip_to_correlation():
    """A box that correlation routes to the strip: the strip's time is the self
    time of the one corrsum.correlation span, its exact bound tests are counted,
    and no table stage runs."""
    report = _traced("correlate", "--d", "5", "--v1", "20", "--v2", "20")
    assert report["corrsum.correlation.calls"] == 1
    assert report["corrsum.allows.calls"] > 0
    assert report["corrsum.rows.count"] == report["corrsum.cells"] == 0
