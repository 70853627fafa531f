"""The benchmark's workloads: the `quadcorr` CLI calls each one makes from a
seed, and the check each call's output must pass.

Every op runs with the CLI defaults (no --threads, no --memory-budget).
The seed only picks among inputs whose exact answers are known: the golden
tables of the paper, values recorded from the library at commit 5f33b1f,
or, for the small oracle boxes, the independent group-sum oracle that the
CLI runs next to the table route.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("tables", "oracle")

# Golden values from the paper's tables (also asserted by the acceptance tests).
GOLDEN_F_D2 = {5000: 124508, 10000: 383780}
GOLDEN_G_N_D2 = {10000: 836, 20000: 1220, 30000: 1476, 40000: 1540, 50000: 1924}

# Exact values recorded from the library at commit 5f33b1f.
F_D5 = {5000: 211524, 10000: 269692}
# N_d(10^4, 10^4) for the seeded balanced correlations.
N_BALANCED = {
    19: 21080356, 23: 20147860, 31: 10065956,                   # d = 3 mod 4
    57: 19087668, 65: 16782820, 73: 12150868, 89: 10329812,     # d = 1 mod 8
}

# The seeded pools hold fields of nearly equal cost at these box sizes, so a
# new seed changes the inputs but not the amount of work.
BALANCED_D3_POOL = (19, 23, 31)
BALANCED_D1_POOL = (57, 65, 73, 89)
ORACLE_DS = (2, 3, 5, 17)  # one field per class mod 8

# Capacity refusals: each table needs more than the 2 GiB default budget
# (table-f at d=3: 2.9 GB for the symmetric grid; correlate at d=2: 3.5 GB).
REFUSAL_V = 100000

# Oracle workload shape: ops per field, and box / lambda size limits.
ORACLE_BOXES_PER_D = 150
ORACLE_RCOUNTS_PER_D = 100
ORACLE_REFUSALS_PER_D = 3
ORACLE_SIDE_MAX = 40
ORACLE_RCOUNT_XMAX = 200


@dataclass(frozen=True)
class Op:
    """One CLI call. `check` names the output check; `expect` holds its data."""

    argv: tuple[str, ...]
    check: str
    expect: object = None

    @property
    def refusal(self) -> bool:
        return self.check == "refusal"


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ds: tuple[int, ...]   # fields set up before the first op
    ops: tuple[Op, ...]
    choices: dict         # what the seed picked

    def describe(self) -> dict:
        argvs = [list(op.argv) for op in self.ops]
        kinds = Counter(f"{op.argv[0]}:{op.check}" for op in self.ops)
        return {
            "name": self.name,
            "seed": self.seed,
            "fields": list(self.ds),
            "choices": self.choices,
            "ops": len(self.ops),
            "op_kinds": dict(kinds),
            "ops_sha256": hashlib.sha256(json.dumps(argvs).encode()).hexdigest(),
        }


def _json(*argv: object) -> tuple[str, ...]:
    return tuple(str(a) for a in argv) + ("--format", "json")


def _tables(rng: random.Random) -> tuple[tuple[int, ...], list[Op], dict]:
    d3 = rng.choice(BALANCED_D3_POOL)
    d1 = rng.choice(BALANCED_D1_POOL)
    ops = [
        Op(_json("table-f", "--d", 2, "--xmax", 10000, "--checkpoints", 5000, 10000),
           "f_table", GOLDEN_F_D2),
        Op(_json("table-f", "--d", 5, "--xmax", 10000), "f_table", F_D5),
    ]
    for d in (d3, d1):
        ops.append(Op(_json("correlate", "--d", d, "--v1", 10000, "--v2", 10000),
                      "n_value", N_BALANCED[d]))
    ops.append(Op(_json("table-g", "--d", 2), "g_table", GOLDEN_G_N_D2))
    # the capacity guard on the F route, and on a correlate call, where it
    # fires only after the table's rows are computed
    ops.append(Op(("table-f", "--d", "3", "--xmax", str(REFUSAL_V)), "refusal"))
    ops.append(Op(("correlate", "--d", "2", "--v1", str(REFUSAL_V), "--v2", str(REFUSAL_V)),
                  "refusal"))
    return (2, 5, d3, d1, 3), ops, {"d_3mod4": d3, "d_1mod8": d1}


def _stratified(rng: random.Random, n: int, step: int = 1) -> list[float]:
    """n draws from [0, 1), the k-th in stratum k * step mod n (step coprime
    to n): the seed moves each draw inside its stratum, so the spread of
    sizes, and so the work, barely depends on it."""
    return [((k * step) % n + rng.random()) / n for k in range(n)]


def _side(u: float, rng: random.Random) -> str:
    # squaring skews the sides to small boxes; half of them are half-integers
    den = rng.choice((1, 2))
    num = max(1, math.ceil(ORACLE_SIDE_MAX * den * u * u))
    return str(Fraction(num, den))


def _lambda(field_d: int, u: float, rng: random.Random) -> tuple[str, str]:
    """A totally positive lambda = x + y sqrt(d) of the ring of integers."""
    half = field_d % 4 == 1  # (p + q sqrt d)/2 with p = q mod 2
    scale = 2 if half else 1
    p = max(1, math.ceil(ORACLE_RCOUNT_XMAX * scale * u))
    qmax = math.isqrt((p * p - 1) // field_d)  # |q| sqrt(d) < p
    q = rng.randint(-qmax, qmax)
    if half and (p - q) % 2:
        p += 1  # keeps |q| sqrt(d) < p
    return str(Fraction(p, scale)), str(Fraction(q, scale))


def _oracle(rng: random.Random) -> tuple[tuple[int, ...], list[Op], dict]:
    ops = [Op(_json("verify"), "verify")]
    for d in ORACLE_DS:
        # a fixed pairing of the two sides' strata fixes the mix of box shapes
        u1 = _stratified(rng, ORACLE_BOXES_PER_D)
        u2 = _stratified(rng, ORACLE_BOXES_PER_D, step=37)
        for a, b in zip(u1, u2):
            ops.append(Op(_json("correlate", "--d", d, "--v1", _side(a, rng),
                                "--v2", _side(b, rng), "--oracle", "group"),
                          "oracle_match"))
        for u in _stratified(rng, ORACLE_RCOUNTS_PER_D):
            x, y = _lambda(d, u, rng)
            # "--y=" form: argparse would read a value such as -3/2 as a flag
            ops.append(Op(_json("rcount", "--d", d, "--x", x, f"--y={y}"), "rcount"))
        # the group oracle's own scale guard, which fires before any table
        for _ in range(ORACLE_REFUSALS_PER_D):
            v = rng.randint(4000, 8000)
            ops.append(Op(("correlate", "--d", str(d), "--v1", str(v), "--v2", str(v),
                           "--oracle", "group"), "refusal"))
    rng.shuffle(ops)
    return ORACLE_DS, ops, {}


def build(name: str, seed: int) -> Workload:
    makers = {"tables": _tables, "oracle": _oracle}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    ds, ops, choices = makers[name](rng)
    return Workload(name, seed, tuple(ds), tuple(ops), choices)


def check(op: Op, rc: int | None, stdout: str) -> str | None:
    """None if the op's result is right, otherwise why it is wrong."""
    want_rc = 3 if op.refusal else 0
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if op.refusal:
        return None
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if op.check == "f_table":
        got = {row["x"]: row["f"] for row in out["rows"]}
        want = {x: str(f) for x, f in op.expect.items()}
        return None if got == want else f"F {got} != {want}"
    if op.check == "g_table":
        got = {int(row["v"]): row["n_value"] for row in out["rows"]}
        return None if got == op.expect else f"N {got} != {op.expect}"
    if op.check == "n_value":
        return None if out["n_value"] == op.expect else f"N {out['n_value']} != {op.expect}"
    if op.check == "oracle_match":
        ok = out["oracle_matches"] is True and out["oracle_n_value"] == out["n_value"]
        return None if ok else f"table N {out['n_value']} != oracle {out['oracle_n_value']}"
    if op.check == "rcount":
        ok = out["agree"] is True and out["r_brute"] == out["r_sym"]
        return None if ok else f"r_brute {out['r_brute']} != r_sym {out['r_sym']}"
    if op.check == "verify":
        return None if out["all_passed"] is True else "verify reported a failed check"
    raise ValueError(f"unknown check {op.check!r}")
