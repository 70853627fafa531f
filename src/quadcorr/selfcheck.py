"""The invariant battery behind the `verify` CLI subcommand: every cross-check
the library promises, at a configurable (small) scale."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .character import c_constant, covolume, index_gamma, kronecker
from .corrsum import (DEFAULT_MEMORY_BUDGET, InvSqrtBound, RepTable, correlation,
                      correlation_group_oracle, make_bound)
from .errors import NotSquarefree, OutOfRange, ScaleGuard, count_text
from .hilbertgroup import (
    coset_bfs,
    equivalent,
    random_m_elements,
    representatives,
    u_exact,
    u_numeric,
    verify_conjugation,
)
from .quadfield import field_new
from .repcount import r_brute, r_sym
from .strip import _strip


# Most chi-table entries the battery's field loop builds: the fields d <= dmax
# have Delta <= 4 d, at most 2 dmax (dmax + 1) entries in all; about 1.8 s at
# the limit, dmax = 11179 (2-vCPU Xeon).
VERIFY_CHI_LIMIT = 250_000_000
# Largest box, corr_limit and samples: the battery takes about 5, 3.5 and 4 s
# at each (2-vCPU Xeon).
VERIFY_MAX = {"box": 100, "corr_limit": 40, "samples": 20_000}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _lattice_points(field, box: int):
    """All lambda with 0 <= lambda < box, 0 <= conj < box."""
    sigma = 2 if field.d % 4 == 1 else 1
    for i in range(0, box * sigma + 1):
        for j in range(-(box * sigma), box * sigma + 1):
            if sigma == 2 and (i - j) % 2:
                continue
            lam = field.element(i, j) if sigma == 2 else field.from_xy(i, j)
            if lam.sign() < 0 or lam.conj().sign() < 0:
                continue
            if lam.cmp(box) >= 0 or lam.conj().cmp(box) >= 0:
                continue
            yield lam


def run_verification(*, dmax: int = 200, box: int = 10, corr_limit: int = 6,
                     samples: int = 300, memory_budget: int | None = None) -> list[CheckResult]:
    # a smaller value would leave a check with nothing to cover
    for name, value, least in (("dmax", dmax, 2), ("box", box, 1),
                               ("corr_limit", corr_limit, 1), ("samples", samples, 2)):
        if value < least:
            raise OutOfRange(f"{name} must be >= {least}")
        if name in VERIFY_MAX and value > VERIFY_MAX[name]:
            raise ScaleGuard(f"{name} = {count_text(value)} exceeds {VERIFY_MAX[name]}")
    entries = 2 * dmax * (dmax + 1)
    if entries > VERIFY_CHI_LIMIT:
        raise ScaleGuard(f"dmax = {count_text(dmax)} could build {count_text(entries)} "
                         f"chi-table entries, over {VERIFY_CHI_LIMIT}")
    results: list[CheckResult] = []
    fields = (2, 3, 5, 13, 17)  # of the representation-count and coset checks

    def add(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name=name, passed=passed, detail=detail))

    # character sums and the C_D bounds
    bad = []
    for d in range(2, dmax + 1):
        try:
            f = field_new(d)
        except NotSquarefree:
            continue
        c = c_constant(f)
        delta = f.delta
        if not (Fraction(192, 5) ** 2 < c * c * delta**3 and c * c * delta**3 < 240**2):
            bad.append(d)
        if f.chi(2) != 0 and f.chi(4) != f.chi(2) ** 2:
            bad.append(d)
        if index_gamma(f) not in (6, 9, 15):
            bad.append(d)
    add("character-sums-and-bounds", not bad,
        f"squarefree d <= {dmax}; offenders: {bad[:5]}")

    # chi table versus the scalar Kronecker routine
    bad = []
    for d in range(2, 41):
        try:
            f = field_new(d)
        except NotSquarefree:
            continue
        for n in range(1, f.delta + 1):
            if f.chi(n) != kronecker(f.delta, n):
                bad.append((d, n))
    add("chi-table-vs-kronecker", not bad, f"first offenders: {bad[:5]}")

    # three-way covolume identity
    bad = []
    for d in (2, 3, 5, 6, 7, 13, 17):
        try:
            covolume(field_new(d))
        except ArithmeticError:
            bad.append(d)
    add("covolume-three-way", not bad, f"offenders: {bad}")

    # representation count: the two routes agree
    bad = 0
    checked = 0
    for d in fields:
        f = field_new(d)
        for lam in _lattice_points(f, box):
            checked += 1
            if r_brute(f, lam) != r_sym(f, lam):
                bad += 1
    add("r-sym-vs-brute", bad == 0, f"{checked} lambdas over d in {fields}, {bad} mismatches")

    # table versus per-lambda brute force
    bad = 0
    for d in (2, 5):
        f = field_new(d)
        table = RepTable(f, box, box, symmetric=False, memory_budget=memory_budget)
        for lam in _lattice_points(f, box):
            if table.value(lam) != r_brute(f, lam):
                bad += 1
    add("table-vs-brute", bad == 0, f"{bad} mismatches")

    # the table route versus the quadruple-enumeration oracle, and the strip route
    # versus the table on the same boxes and on thin ones
    bad, off = [], []
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    for d in (2, 5):
        f = field_new(d)
        boxes = [(v1, v2) for v1 in range(1, corr_limit + 1) for v2 in range(1, corr_limit + 1)]
        for v1, v2 in boxes + [(v, InvSqrtBound(d, Fraction(v))) for v in (10, 1000)]:
            table = RepTable(f, v1, v2, memory_budget=memory_budget)
            a = correlation(f, v1, v2, table=table).n_value
            if isinstance(v2, int):
                b = correlation_group_oracle(f, v1, v2)
                if a != b:
                    bad.append((d, v1, v2, a, b))
            b = _strip(f, make_bound(f, v1), make_bound(f, v2), True, budget)
            if a != b:
                off.append((d, v1, v2, a, b))
    add("correlation-vs-oracle", not bad, f"first offenders: {bad[:3]}")
    add("strip-vs-table", not off,
        f"{2 * len(boxes) + 4} boxes over d in (2, 5); first offenders: {off[:3]}")

    # coset structure
    bad = []
    for d in fields:
        f = field_new(d)
        reps = representatives(f)
        graph = coset_bfs(f)
        expected = index_gamma(f)
        pairwise = all(
            not equivalent(reps[i], reps[j])
            for i in range(len(reps))
            for j in range(i + 1, len(reps))
        )
        if not (len(reps) == expected == graph.count and graph.closed and pairwise):
            bad.append(d)
    add("coset-index", not bad, f"offenders: {bad}")

    # u-identity on random elements of M
    worst = 0.0
    for d in (2, 5):
        f = field_new(d)
        for m in random_m_elements(f, samples // 2, seed=7):
            exact = [float(v) for v in u_exact(m).embed_exact()]
            numeric = u_numeric(m)
            for e, n in zip(exact, numeric):
                scale = max(1.0, abs(e))
                worst = max(worst, abs(e - n) / scale)
    add("u-identity", worst < 1e-9, f"worst relative error {worst:.3e}")

    # conjugation identity where it applies
    bad = []
    for d in (2, 3, 17):
        rep = verify_conjugation(field_new(d), samples=50)
        if not rep.all_passed:
            bad.append(d)
    add("gamma0-conjugation", not bad, f"offenders: {bad}")

    # the symmetric table layout against full storage
    f2 = field_new(2)
    base = correlation(f2, 300, 300,
                       table=RepTable(f2, 300, 300, memory_budget=memory_budget)).n_value
    alt = correlation(f2, 300, 300, table=RepTable(f2, 300, 300, symmetric=False,
                                                   memory_budget=memory_budget)).n_value
    add("storage-determinism", base == alt, f"symmetric {base} vs full {alt}")

    return results
