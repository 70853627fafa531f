"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. Scales and tolerances are fixed here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from quadcorr import (
    InvSqrtBound,
    c_constant,
    correlation,
    correlation_grid,
    correlation_group_oracle,
    coset_bfs,
    covolume,
    equivalent,
    f_deviation,
    field_new,
    r_brute,
    r_sym,
    random_m_elements,
    representatives,
    u_exact,
    u_numeric,
)

C_TABLE = {
    2: Fraction(8),
    3: Fraction(4),
    5: Fraction(8),
    6: Fraction(4, 3),
    7: Fraction(1),
    101: Fraction(8, 95),
    1001: Fraction(2, 753),
    10001: Fraction(1, 11616),
    100001: Fraction(4, 1462371),
    1000001: Fraction(1, 11832936),
}

F_TABLE = {5000: 124508, 10000: 383780}

G_TABLE = {10000: 836, 20000: 1220, 30000: 1476, 40000: 1540, 50000: 1924}


def report(number, name, elapsed, detail=""):
    print(f"PASS criterion {number} ({name}) in {elapsed:.2f}s {detail}")


def box_lambdas(field, box):
    sigma = field.sigma
    for i in range(0, box * sigma + 1):
        for j in range(-box * sigma, box * sigma + 1):
            if sigma == 2:
                if (i - j) % 2:
                    continue
                lam = field.element(i, j)
            else:
                lam = field.from_xy(i, j)
            if lam.sign() < 0 or lam.conj().sign() < 0:
                continue
            if lam.cmp(box) >= 0 or lam.conj().cmp(box) >= 0:
                continue
            yield lam


def test_criterion_1_c_table_exact():
    start = time.time()
    for d, expected in C_TABLE.items():
        assert c_constant(field_new(d)) == expected, d
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, "C_D golden table", elapsed, f"{len(C_TABLE)} exact entries")


def test_criterion_2_coset_index():
    start = time.time()
    expected = {2: 6, 3: 6, 17: 9, 5: 15, 13: 15}
    for d, count in expected.items():
        t0 = time.time()
        field = field_new(d)
        graph = coset_bfs(field)
        assert graph.closed and graph.count == count, d
        reps = representatives(field)
        assert len(reps) == count
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not equivalent(reps[i], reps[j]), (d, i, j)
        assert time.time() - t0 < 1.0, d
    report(2, "index verification", time.time() - start, str(expected))


def test_criterion_3_volume_three_way():
    start = time.time()
    for d in (2, 3, 5, 6, 7, 13, 17):
        rep = covolume(field_new(d))
        assert rep.max_relative_spread() <= rep.l2_truncation_error + 1e-9, d
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(3, "volume three-way identity", elapsed)


def test_criterion_4_r_oracle_box_50():
    start = time.time()
    total = 0
    for d in (2, 3, 5, 13, 17):
        field = field_new(d)
        for lam in box_lambdas(field, 50):
            assert r_sym(field, lam) == r_brute(field, lam), (d, lam.p, lam.q)
            total += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, "r-oracle equivalence", elapsed, f"{total} lambdas")


def test_criterion_5_group_sum_oracle():
    start = time.time()
    checked = 0
    for d in (2, 5):
        field = field_new(d)
        for v1 in range(1, 21):
            for v2 in range(1, 21):
                a = correlation(field, v1, v2).n_value
                b = correlation_group_oracle(field, v1, v2)
                assert a == b, (d, v1, v2, a, b)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(5, "group-sum oracle", elapsed, f"{checked} boxes")


def test_criterion_6_f_table():
    start = time.time()
    field = field_new(2)
    points = f_deviation(field, 10000, checkpoints=sorted(F_TABLE))
    for pt in points:
        expected = F_TABLE[pt.x]
        detail = (f"F({pt.x}): strict={pt.f_strict} inclusive={pt.f_inclusive} "
                  f"expected={expected}")
        assert pt.f_strict == expected, detail
        assert pt.f_inclusive == expected, detail
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(6, "F-table reproduction", elapsed, str(F_TABLE))


def test_criterion_7_g_table():
    start = time.time()
    field = field_new(2)
    g_expected = {10000: 1.045000, 40000: 0.962500, 50000: 1.075548}
    for v, expected in G_TABLE.items():
        res = correlation(field, v, InvSqrtBound(2, Fraction(v)))
        assert res.n_value == expected, (v, res.n_value)
        if v in g_expected:
            g = res.n_value / (8.0 * math.sqrt(v))
            assert abs(g - g_expected[v]) <= 1e-6, (v, g)
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(7, "G-table reproduction", elapsed, str(G_TABLE))


def test_criterion_8_c_bounds_to_ten_thousand():
    start = time.time()
    count = 0
    for d in range(2, 10001):
        if any(d % (k * k) == 0 for k in range(2, math.isqrt(d) + 1)):
            continue
        field = field_new(d)
        c = c_constant(field)
        delta = field.delta
        # squared form of 192/(5 Delta^1.5) < C_D < 240/Delta^1.5
        assert Fraction(192, 5) ** 2 < c * c * delta**3 < 240**2, d
        count += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(8, "C_D bounds", elapsed, f"{count} squarefree d")


@pytest.mark.parametrize("d", [2, 3, 5, 17])  # one field per class mod 8
def test_criterion_9_asymptotic_sanity(d):
    start = time.time()
    field = field_new(d)
    c = c_constant(field)
    grid = correlation_grid(field, 5000)
    vs = np.arange(1, 5001, dtype=np.int64)
    # |N - C_d V^2| from exact integers, N den - num V^2 well inside int64
    dev = np.abs(grid[1:] * c.denominator - c.numerator * vs * vs) / c.denominator
    scaled = dev / vs.astype(np.float64) ** 1.5
    assert scaled.max() <= 10.0
    ratio = grid[2000:] * c.denominator / (
        c.numerator * np.arange(2000, 5001, dtype=np.float64) ** 2)
    assert 0.9 <= ratio.min() and ratio.max() <= 1.1
    elapsed = time.time() - start
    report(9, f"asymptotic sanity, d = {d}", elapsed,
           f"max scaled dev {scaled.max():.3f}, ratio in "
           f"[{ratio.min():.4f}, {ratio.max():.4f}]")


def test_criterion_10_u_identity():
    start = time.time()
    total = 0
    worst = 0.0
    for d in (2, 5):
        field = field_new(d)
        for m in random_m_elements(field, 5000, seed=12345):
            exact = u_exact(m).embed_exact()
            numeric = u_numeric(m)
            for e, n in zip((float(x) for x in exact), numeric):
                err = abs(e - n) / max(1.0, abs(e))
                worst = max(worst, err)
                assert err <= 1e-9
            total += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(10, "u-identity", elapsed, f"{total} matrices, worst rel err {worst:.2e}")
