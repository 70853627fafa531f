"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public entry points of each `quadcorr` layer,
and the private `RepTable` stages, in place. A span hook adds the call's
self time (its duration minus the time of the span hooks it called) to
`<layer>.busy_s` and counts `<layer>.calls`; a counter hook only counts, for
functions called millions of times. Each function is re-bound in every
`quadcorr` module that imported it, so calls through `from .corrsum import
correlation` are traced too. A target that no longer exists is recorded as
absent and its metrics are left out; nothing else fails.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (layer, module, attribute): spans, self time and call count.
SPANS = (
    ("quadfield.field_new", "quadcorr.quadfield", "field_new"),
    ("character.c_constant", "quadcorr.character", "c_constant"),
    ("character.covolume", "quadcorr.character", "covolume"),
    ("corrsum.rows", "quadcorr.corrsum", "RepTable._compute_rows"),
    ("corrsum.budget", "quadcorr.corrsum", "RepTable._check_budget"),
    ("corrsum.squares", "quadcorr.corrsum", "RepTable._square_points"),
    # self time of _build is the pair accumulation: _square_points is its child
    ("corrsum.accumulate", "quadcorr.corrsum", "RepTable._build"),
    ("corrsum.strict_rows", "quadcorr.corrsum", "_strict_row_range"),
    ("corrsum.correlation", "quadcorr.corrsum", "correlation"),
    ("corrsum.grid", "quadcorr.corrsum", "correlation_grid"),
    ("corrsum.f_post", "quadcorr.corrsum", "f_deviation"),
    ("corrsum.oracle", "quadcorr.corrsum", "correlation_group_oracle"),
    ("repcount.r_brute", "quadcorr.repcount", "r_brute"),
    ("repcount.r_sym", "quadcorr.repcount", "r_sym"),
    ("selfcheck.run_verification", "quadcorr.selfcheck", "run_verification"),
    ("hilbertgroup.coset_bfs", "quadcorr.hilbertgroup", "coset_bfs"),
    ("cli.main", "quadcorr.cli", "main"),
)

# (counter, module, attribute): call counts only. Calls made while another
# function of the same counter is running are not counted again, so
# OffsetBound.allows delegating to its inner bound counts once.
COUNTERS = (
    ("quadfield.field_new.built", "quadcorr.quadfield", "FieldData.__init__"),
    ("corrsum.edge.calls", "quadcorr.corrsum", "_max_j"),
    ("corrsum.edge.calls", "quadcorr.corrsum", "_min_j"),
    ("corrsum.allows.calls", "quadcorr.corrsum", "RationalBound.allows"),
    ("corrsum.allows.calls", "quadcorr.corrsum", "InvSqrtBound.allows"),
    ("corrsum.allows.calls", "quadcorr.corrsum", "OffsetBound.allows"),
)


def _rows_done(table, _result, values):
    values["corrsum.rows.count"] += table.imax + 1


def _squares_done(_table, result, values):
    n = len(result[0])
    values["corrsum.squares.count"] += n
    values["corrsum.pairs.candidate"] += n * (n + 1) // 2  # upper-triangle sweep


def _build_done(table, _result, values):
    values["corrsum.cells"] += table.cells
    values["corrsum.table.bytes"] = max(values["corrsum.table.bytes"], table.flat.nbytes)


# Counts read from a span's first argument and result when it returns.
AFTER = {
    "corrsum.rows": (("corrsum.rows.count",), _rows_done),
    "corrsum.squares": (("corrsum.squares.count", "corrsum.pairs.candidate"), _squares_done),
    "corrsum.accumulate": (("corrsum.cells", "corrsum.table.bytes"), _build_done),
}
# Spans whose raising of this exception counts as a refusal.
REFUSALS = {"corrsum.budget": ("corrsum.budget.refusals", "quadcorr.errors", "CapacityExceeded")}


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        target = owner.__dict__.get(attr)  # defined on the class itself
    else:
        target = getattr(owner, attr, None)
    if not callable(target):
        return None
    return owner, attr, target


def _rebind(owner, attr: str, orig, wrapper) -> None:
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return  # methods are looked up through the class
    for name, module in list(sys.modules.items()):
        if name == "quadcorr" or name.startswith("quadcorr."):
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)


class Tracer:
    """Span and counter hooks for one process. Only the calling thread's
    spans nest correctly; the traced entry points all run on it."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.absent: list[str] = []
        self._open: list[float] = []  # per open span: time its child spans took

    def install(self) -> None:
        for layer, module, path in SPANS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, orig = found
            self.values[f"{layer}.busy_s"] = 0.0
            self.values[f"{layer}.calls"] = 0
            after = AFTER.get(layer)
            if after:
                for key in after[0]:
                    self.values[key] = 0
            refusal = None
            if layer in REFUSALS:
                key, err_module, err_name = REFUSALS[layer]
                err = getattr(importlib.import_module(err_module), err_name, None)
                if err is not None:
                    self.values[key] = 0
                    refusal = (key, err)
            _rebind(owner, attr, orig, self._span(layer, orig, after, refusal))
        depth: dict[str, list[int]] = {}
        for counter, module, path in COUNTERS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, orig = found
            self.values.setdefault(counter, 0)
            _rebind(owner, attr, orig,
                    self._counter(counter, orig, depth.setdefault(counter, [0])))

    def _span(self, layer, fn, after, refusal):
        values, open_spans = self.values, self._open
        busy_key, calls_key = f"{layer}.busy_s", f"{layer}.calls"

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if refusal is not None and isinstance(exc, refusal[1]):
                    values[refusal[0]] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                values[busy_key] += elapsed - open_spans.pop()
                values[calls_key] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after[1](args[0], result, values)
            return result

        return span

    def _counter(self, key, fn, depth):
        values = self.values

        def counter(*args, **kwargs):
            if not depth[0]:
                values[key] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counter

    def report(self) -> dict[str, float]:
        """Every recorded value, plus the derived edge waste ratio."""
        out = dict(self.values)
        if "corrsum.edge.calls" in out and "corrsum.allows.calls" in out:
            out["corrsum.edge.steps_per_edge"] = (
                out["corrsum.allows.calls"] / out["corrsum.edge.calls"]
                if out["corrsum.edge.calls"] else 0.0
            )
        return out

    def self_seconds(self) -> float:
        return sum(v for k, v in self.values.items() if k.endswith(".busy_s"))
