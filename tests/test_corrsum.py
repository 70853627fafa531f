import contextlib
import io
import math
import sys
import tracemalloc
import types
from fractions import Fraction
from math import isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcorr import corrsum, selfcheck, strip
from quadcorr import (
    CapacityExceeded,
    InvSqrtBound,
    OutOfRange,
    ScaleGuard,
    c_constant,
    correlation,
    correlation_grid,
    correlation_group_oracle,
    f_deviation,
    field_new,
    g_ratio,
    r_brute,
    run_verification,
)
from quadcorr.corrsum import (
    RationalBound,
    RepTable,
    _doubled,
    _max_j,
    _min_cells,
    _table_correlation,
    make_bound,
)
from quadcorr.quadfield import sign_quad
from test_repcount import box_lambdas

# one field per class: d = 2, 6 (2 mod 4), 3, 7 (3 mod 4), 5, 13 (5 mod 8), 17, 41 (1 mod 8)
RING_DS = [2, 6, 3, 7, 5, 13, 17, 41]


def _sigma(d):
    return field_new(d).sigma


def _convention(n, include_lambda_zero):
    """A route's N, which counts lambda = 0, as correlation reports it: less
    r(0) r(1) when lambda = 0 is excluded."""
    return n if include_lambda_zero else n - corrsum._R0_R1


def _table_n(field, v1, v2, include_lambda_zero=True, **kwargs):
    """N from the table of the box, whichever route correlation would take."""
    return _convention(_table_correlation(RepTable(field, v1, v2, **kwargs)), include_lambda_zero)


def test_table_example_d2():
    f2 = field_new(2)
    table = RepTable(f2, 3, 3)
    assert [table.lookup(i, 0) for i in range(5)] == [1, 4, 8, 8, 8]


def test_table_tiny_box():
    f2 = field_new(2)
    table = RepTable(f2, 1, 1)
    assert table.lookup(0, 0) == 1
    assert table.lookup(1, 0) == 4  # the lambda + 1 neighbour of 0


@pytest.mark.parametrize("d,box", [(2, 8), (5, 6), (13, 5)])
@pytest.mark.parametrize("symmetric", [False, True])
def test_table_matches_brute_force(d, box, symmetric):
    field = field_new(d)
    table = RepTable(field, box, box, symmetric=symmetric)
    checked = 0
    for lam in box_lambdas(field, box + 1):
        assert table.value(lam) == r_brute(field, lam), (d, lam.p, lam.q)
        checked += 1
    assert checked > 0


def test_correlation_example():
    f2 = field_new(2)
    res = correlation(f2, 3, 3)
    assert res.n_value == 100
    assert res.main_term == pytest.approx(72.0)
    assert res.deviation == pytest.approx(28.0)
    assert res.lambda_zero_included


def test_correlation_rational_bounds():
    f2 = field_new(2)
    # fractional box edges must be honored exactly
    a = correlation(f2, Fraction(5, 2), Fraction(5, 2)).n_value
    b = correlation(f2, 2, 2).n_value
    c = correlation(f2, 3, 3).n_value
    assert b <= a <= c
    # 0 <= lambda < 5/2 over the rationals means lambda in {0, 1, 2}
    assert a == c


def test_exclude_lambda_zero():
    f2 = field_new(2)
    incl = correlation(f2, 3, 3, include_lambda_zero=True).n_value
    excl = correlation(f2, 3, 3, include_lambda_zero=False).n_value
    assert incl - excl == r_brute(f2, f2.zero()) * r_brute(f2, f2.one())


@pytest.mark.parametrize("d", [2, 3, 5])
def test_oracle_equivalence_small(d):
    field = field_new(d)
    for v1 in range(1, 7):
        for v2 in range(1, 7):
            a = _table_n(field, v1, v2)
            b = correlation_group_oracle(field, v1, v2)
            assert a == b, (d, v1, v2)


def test_oracle_examples():
    f2 = field_new(2)
    assert correlation_group_oracle(f2, 3, 3) == 100
    assert correlation_group_oracle(f2, 1, 1) == 4
    f5 = field_new(5)
    assert correlation_group_oracle(f5, 2, 2) == _table_n(f5, 2, 2)



def test_group_oracle_shares_no_code_with_the_strip():
    """The oracle checks both routes only while it shares none of their code: no
    global or closure name used by its code, or by the code of the quadcorr
    functions and classes that it reaches, resolves to the strip module or to an
    object defined in it."""
    shared, seen, todo = [], set(), [correlation_group_oracle]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or not str(getattr(obj, "__module__", "")).startswith("quadcorr"):
            continue
        seen.add(id(obj))
        if isinstance(obj, type):
            todo.extend(getattr(v, "__func__", getattr(v, "fget", v)) for v in vars(obj).values())
            continue
        if not isinstance(obj, types.FunctionType):
            continue
        names = dict(obj.__globals__)
        cells = (c.cell_contents for c in obj.__closure__ or ())
        names.update(zip(obj.__code__.co_freevars, cells))
        codes = [obj.__code__]
        while codes:
            code = codes.pop()
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            for name in code.co_names + code.co_freevars:
                target = names.get(name)
                if target is strip or getattr(target, "__module__", None) == strip.__name__:
                    shared.append((code.co_qualname, name))
                todo.append(target)
    assert {id(f) for f in (corrsum.oracle_guard, make_bound, RationalBound.allows)} <= seen
    assert shared == []

@pytest.mark.parametrize("value", [0, Fraction(-1, 2)])
def test_rational_bound_must_be_positive(value):
    with pytest.raises(OutOfRange, match="box bounds must be positive"):
        RationalBound(2, value)


def test_oracle_scale_guard():
    with pytest.raises(ScaleGuard):
        correlation_group_oracle(field_new(2), 10**6, 10**6)


@pytest.mark.parametrize("d", [2, 3, 5, 17])
def test_oracle_guard_boundary_matches_the_float_estimate(monkeypatch, d):
    """The exact guard refuses the same boxes as the float work estimate it
    replaced, 100 + 4.935 smax^2 / (d p), on both sides of the limit."""
    limit = 2000
    monkeypatch.setattr(corrsum, "ORACLE_QUADRUPLE_LIMIT", limit)
    field = field_new(d)
    p = 16.0 / field.sigma**2
    sides = [Fraction(k, 2) for k in range(1, 400)]
    refused = []
    for v in sides:
        smax = 2 * (2 * math.ceil(v)) + 4
        float_refuses = 100.0 + (9.87 / 2.0) * smax * smax / (d * p) > limit
        try:
            correlation_group_oracle(field, v, v)
        except ScaleGuard:
            refused.append(v)
            assert float_refuses, v
        else:
            assert not float_refuses, v
    assert sides[0] < refused[0] < sides[-1]


def test_monotonicity():
    f2 = field_new(2)
    values = {}
    for v1 in (2, 4, 6):
        for v2 in (2, 4, 6):
            values[(v1, v2)] = correlation(f2, v1, v2).n_value
    for v1 in (2, 4):
        for v2 in (2, 4):
            assert values[(v1 + 2, v2)] >= values[(v1, v2)]
            assert values[(v1, v2 + 2)] >= values[(v1, v2)]


@pytest.mark.parametrize("d", [2, 5])
def test_symmetric_storage_equals_full(d):
    field = field_new(d)
    for v in (5, 9, 14):
        a = _table_n(field, v, v)
        b = _table_n(field, v, v, symmetric=False)
        assert a == b, (d, v)


def test_supplied_table_must_match_field_and_bounds():
    f2, f3 = field_new(2), field_new(3)
    assert correlation(f3, 10, 10).n_value == 484 != correlation(f2, 10, 10).n_value


def test_symmetric_requires_equal_bounds():
    with pytest.raises(OutOfRange):
        RepTable(field_new(2), 3, 4, symmetric=True)


@pytest.mark.parametrize("d", [2, 5])
def test_grid_matches_pointwise_correlation(d):
    field = field_new(d)
    grid = correlation_grid(field, 15)
    for v in range(1, 16):
        assert grid[v] == _table_n(field, v, v), (d, v)


def test_grid_excluding_lambda_zero():
    f2 = field_new(2)
    grid_in = correlation_grid(f2, 10)
    grid_ex = correlation_grid(f2, 10, include_lambda_zero=False)
    shift = r_brute(f2, f2.zero()) * r_brute(f2, f2.one())
    assert ((grid_in[1:] - grid_ex[1:]) == shift).all()


@pytest.mark.parametrize("xmax", [0, -1])
def test_grid_and_f_refuse_xmax_below_one(xmax):
    for run in (correlation_grid, f_deviation):
        with pytest.raises(OutOfRange, match="xmax must be >= 1"):
            run(field_new(2), xmax)


@pytest.mark.parametrize("budget", [0, -5])
def test_nonpositive_memory_budget_is_out_of_range(budget, monkeypatch):
    """A budget of no bytes is invalid input, refused before any work: every box
    here is past any budget, so a check after the first guard would refuse it as
    capacity, and the battery of run_verification does not start."""
    f2 = field_new(2)
    calls = [
        lambda: RepTable(f2, 10**9, 10**9, memory_budget=budget),
        lambda: correlation(f2, 10**9, 10**9, memory_budget=budget),
        lambda: correlation_grid(f2, 10**9, memory_budget=budget),
        lambda: f_deviation(f2, 10**9, memory_budget=budget),
        lambda: g_ratio(f2, 10**30, memory_budget=budget),
        lambda: run_verification(memory_budget=budget),
    ]
    monkeypatch.setattr(selfcheck, "field_new", mock.Mock(side_effect=AssertionError))
    for call in calls:
        with pytest.raises(OutOfRange, match="memory budget must be a positive"):
            call()


def test_f_deviation_small_values():
    f2 = field_new(2)
    pts = f_deviation(f2, 12, checkpoints=[1, 6, 12])
    grid = correlation_grid(f2, 12)
    devs = [abs(int(grid[v]) - 8 * v * v) for v in range(1, 13)]
    by_x = {p.x: p for p in pts}
    assert by_x[1].f_strict == 0  # empty grid below 1
    assert by_x[6].f_strict == max(devs[:5])
    assert by_x[6].f_inclusive == max(devs[:6])
    assert by_x[12].f_inclusive == max(devs)


def test_f_deviation_default_checkpoints():
    f2 = field_new(2)
    assert [p.x for p in f_deviation(f2, 12)] == [12]
    assert f_deviation(f2, 12, []) == f_deviation(f2, 12, [12])


def test_f_deviation_validates_checkpoints():
    with pytest.raises(OutOfRange):
        f_deviation(field_new(2), 10, checkpoints=[11])


def test_g_ratio_consistency():
    f2 = field_new(2)
    v = 500
    res = correlation(f2, v, InvSqrtBound(2, Fraction(v)))
    n, g = g_ratio(f2, v)
    assert n == res.n_value and g == pytest.approx(n / (8.0 * math.sqrt(v)), rel=1e-12)
    with pytest.raises(OutOfRange):
        g_ratio(f2, 1)


def test_invsqrt_bound_matches_float():
    f2 = field_new(2)
    bound = InvSqrtBound(2, Fraction(1000))
    edge = 1000 ** -0.5
    for i in range(0, 12):
        for j in range(-8, 9):
            lam = f2.from_xy(i, j)
            approx = lam.embed()[0]
            if abs(approx - edge) > 1e-6:
                assert bound.allows(lam.p, lam.q, True) == (approx < edge), (i, j)


def _inv_sqrt_allows_squared(d, v, p, q, strict):
    """InvSqrtBound.allows as it compared lambda^2 v against 1 in one sign test,
    before it went through a RationalBound at 2/v."""
    s_lam = sign_quad(p, q, d)
    if s_lam < 0:
        return True
    if s_lam == 0:
        return True  # bound is strictly positive
    # lambda > 0: compare lambda^2 * v against 1 exactly
    nv, dv = v.numerator, v.denominator
    a = (p * p + d * q * q) * nv - 4 * dv
    b = 2 * p * q * nv
    s = sign_quad(a, b, d)
    return s < 0 if strict else s <= 0


def _p_near_inv_sqrt(d, v, q, k):
    """The p of row q whose (p + q sqrt d)/2 lies about k/2 from v^(-1/2)."""
    scale = 10**40
    two_root = isqrt(4 * v.denominator * scale * scale // v.numerator)  # 2 v^(-1/2), scaled
    return (two_root - q * isqrt(d * scale * scale)) // scale + k


_big = st.integers(1, 10**30)


@given(st.sampled_from(RING_DS), _big, _big, st.integers(-10**6, 10**6), st.booleans(),
       st.integers(-10**20, 10**20))
@settings(max_examples=600, deadline=None)
@example(2, 4, 49, 0, False, 7)  # lambda = 7/2 = v^(-1/2): allowed, not strictly
@example(5, 4, 81, 0, False, 9)  # the same on a mixed row of sigma = 2
@example(3, 1, 1, 0, False, 0)  # lambda = 0
@example(13, 10**30, 1, 5, False, -20)  # lambda < 0
@example(2, 1, 10**30, 3, True, 0)  # v^(-1/2) = 10^15
def test_inv_sqrt_allows_matches_the_squared_comparison(d, num, den, q, near, k):
    v = Fraction(num, den)
    p = _p_near_inv_sqrt(d, v, q, k % 7 - 3) if near else k
    bound = InvSqrtBound(d, v)
    for strict in (False, True):
        assert bound.allows(p, q, strict) == _inv_sqrt_allows_squared(d, v, p, q, strict)


def test_capacity_guard():
    with pytest.raises(CapacityExceeded):
        RepTable(field_new(2), 4000, 4000, memory_budget=10_000)


def test_csv_export_roundtrip():
    f5 = field_new(5)
    table = RepTable(f5, 4, 4, symmetric=True)
    buf = io.StringIO()
    table.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# D=5 doubled=1"
    assert lines[1] == "x,y,r"
    seen = {}
    for row in lines[2:]:
        i, j, r = (int(t) for t in row.split(","))
        seen[(i, j)] = r
    # negative-j cells are present via mirroring and agree with brute force
    for (i, j), r in seen.items():
        assert r == r_brute(f5, f5.element(i, j)), (i, j)
    assert any(j < 0 for (_, j) in seen)


@pytest.mark.parametrize("d", RING_DS)
def test_csv_dump_lists_the_window_in_order(d):
    """write_csv lists every lattice cell of the window of the stored parity,
    mirrored cells included, in (x, then y) ascending order, each with r_brute."""
    field, sigma = field_new(d), _sigma(d)
    boxes = [(Fraction(9, 2), Fraction(9, 2), True), (Fraction(7, 2), Fraction(10, 3), False),
             (Fraction(9, 2), InvSqrtBound(d, Fraction(1, 3)), False)]
    for v1, v2, symmetric in boxes:
        table = RepTable(field, v1, v2, symmetric=symmetric)
        buf = io.StringIO()
        table.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[:2] == [f"# D={d} doubled={int(sigma == 2)}", "x,y,r"]
        rows = [tuple(int(t) for t in line.split(",")) for line in lines[2:]]
        want = sorted((i, j) for i, j in _window_cells(table) if (j - (i & (sigma - 1))) % 2 == 0)
        assert [(i, j) for i, j, _ in rows] == want, (v1, v2)
        for i, j, r in rows:
            lam = field.element(i, j) if sigma == 2 else field.from_xy(i, j)
            assert r == r_brute(field, lam), (v1, v2, i, j)


def test_symmetric_storage_footprint():
    # balanced case, d not 1 mod 4: about V^2 / (8 sqrt d) stored counters
    f2 = field_new(2)
    v = 1000
    table = RepTable(f2, v, v, symmetric=True)
    predicted = v * v / (8 * math.sqrt(2))
    assert abs(table.cells - predicted) / predicted < 0.05


def test_result_json_schema():
    res = correlation(field_new(2), 3, 3)
    payload = res.to_json_dict()
    assert set(payload) == {
        "d", "v1", "v2", "n_value", "c_constant_num", "c_constant_den", "deviation",
    }
    assert payload["n_value"] == 100
    assert payload["c_constant_num"] == 8
    assert payload["c_constant_den"] == 1


@given(st.sampled_from([2, 5]), st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=25, deadline=None)
def test_correlation_is_sum_of_products(d, v1, v2):
    field = field_new(d)
    expected = 0
    for lam in box_lambdas(field, max(v1, v2) + 1):
        if lam.cmp(v1) < 0 and lam.conj().cmp(v2) < 0:
            expected += r_brute(field, lam) * r_brute(field, lam + field.one())
    assert _table_n(field, v1, v2) == expected


@st.composite
def edge_bounds(draw, d):
    """A box bound of each kind the table uses, with the hard cases: huge
    denominators, and V^(-1/2) equal to a lattice point (d V a rational square)."""
    kind = draw(st.sampled_from(("rational", "narrowed", "inv_sqrt", "on_lattice")))
    if kind == "rational":
        return RationalBound(d, Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 97))))
    if kind == "narrowed":
        den = draw(st.integers(10**9, 10**13))
        return RationalBound(d, Fraction(draw(st.integers(1, 10**4 * den)), den))
    if kind == "on_lattice":  # V^(-1/2) = t sqrt(d) / sigma is a lattice point
        v = Fraction(_sigma(d) ** 2, d * draw(st.integers(1, 60)) ** 2)
    else:
        v = draw(st.sampled_from([Fraction(20000), Fraction(1, 2)]) | st.fractions(
            Fraction(1, 100), 10**6, max_denominator=100))
    return InvSqrtBound(d, v)


def _edge_rows(draw, bound, sigma):
    # the table's window asks for rows down to -sigma; the rows just under the
    # table's cap (|i| + sigma * ceil(bound) + 2 < 2^30) take the scale-1 bracket
    top = 2**30 - sigma * bound.ceil() - 64
    start = draw(st.integers(-8, 0) | st.integers(0, 10**5) | st.integers(2**29, top))
    return np.arange(start, start + draw(st.integers(1, 40)), dtype=np.int64)


def _check_edges(d, k, bound, rows):
    """The edges of bound + k, as the window takes them: the edges of bound
    on the rows shifted down by k sigma, since lambda - k is (i - k sigma, j)."""
    sigma = _sigma(d)

    def ok(i, j):  # bound + k >= (i + j sqrt d)/sigma
        p, q = _doubled(i, j, sigma)
        return bound.allows(p - 2 * k, q, False)

    c = bound.ceil()  # the row cap rests on it: bound <= c < bound + 1
    assert not bound.allows(2 * c, 0, True) and bound.allows(2 * c - 2, 0, True)

    shifted = rows - k * sigma
    for i, hi, lo in zip(rows.tolist(), _max_j(bound, shifted, sigma).tolist(),
                         (-_max_j(bound, shifted, sigma)).tolist()):
        assert ok(i, hi) and not ok(i, hi + 1), (i, hi)
        assert ok(i, -lo) and not ok(i, -(lo - 1)), (i, lo)


@given(st.sampled_from(RING_DS), st.integers(0, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_edges_match_definition(d, k, data):
    bound = data.draw(edge_bounds(d))
    _check_edges(d, k, bound, _edge_rows(data.draw, bound, _sigma(d)))


@pytest.mark.parametrize("start", [10**5, 2**30 - 100])
def test_edges_of_a_denominator_twice_the_scale(start):
    """A sigma = 2 rational n/(2 scale) with n odd is narrowed to the bracket
    n/scale of 2 n/(2 scale), which is exact; at start = 2^30 - 100 the scale is 1."""
    d, sigma, c = 5, 2, 4
    rows = np.arange(start, start + 40, dtype=np.int64)
    scale = max(1, 2**31 // ((start + 39 + sigma * c + 2) * (isqrt(d) + 1)))
    n = next(n for n in range(7 * scale, 8 * scale) if math.gcd(n, 2 * scale) == 1)
    bound = RationalBound(d, Fraction(n, 2 * scale))
    assert bound.ceil() == c and bound.value.denominator == 2 * scale
    assert corrsum._edge_plan(bound, start + 39, sigma) == (n, scale, True)
    _check_edges(d, 0, bound, rows)


def test_int64_isqrt_near_squares():
    # above 2^52 the float seed of the integer square root can land one off
    k = np.array([2**26 + 1, 10**9 + 7, 2**31 - 1], dtype=np.int64)
    x = np.concatenate([k * k - 1, k * k, k * k + 2 * k])
    assert corrsum._isqrt(x).tolist() == [math.isqrt(v) for v in x.tolist()]


@pytest.mark.parametrize("d", RING_DS)
def test_strict_and_closed_edges_differ_on_lattice_bound(d):
    # V^(-1/2) = sqrt(d)/sigma is the lattice point (0, 1), and 1 + V^(-1/2) is
    # (sigma, 1), which the window's closed edges find on row sigma shifted by
    # sigma; only the strict test leaves that edge cell out
    sigma = _sigma(d)
    bound = InvSqrtBound(d, Fraction(sigma**2, d))
    for row, shift in ((0, 0), (sigma, sigma)):
        rows = np.array([row], dtype=np.int64) - shift
        assert _max_j(bound, rows, sigma)[0] == 1
        p, q = _doubled(row - shift, 1, sigma)
        assert bound.allows(p, q, False) and not bound.allows(p, q, True)


@given(st.sampled_from(RING_DS), st.data())
@settings(max_examples=20, deadline=None)
@example(d=2, data=None)
def test_conjugation_swap(d, data):
    """N(V1, V2) = N(V2, V1): r(lambda^sigma) = r(lambda) and (lambda + 1)^sigma
    = lambda^sigma + 1, so conjugation maps one box onto the other."""
    field = field_new(d)
    if data is None:  # table scale, with V^(-1/2) in the first slot
        v1, v2 = InvSqrtBound(d, Fraction(20000)), Fraction(20000)
    else:
        v1 = data.draw(st.fractions(Fraction(1, 3), 300, max_denominator=7))
        v2 = data.draw(st.fractions(Fraction(1, 3), 40, max_denominator=7)
                       | st.builds(lambda v: InvSqrtBound(d, v), st.integers(1, 2000)))
    n = [_table_n(field, a, b) for a, b in ((v1, v2), (v2, v1))]
    assert n[0] == n[1]


def test_cell_overflow_guard(monkeypatch):
    # each square point adds at most 8 to a cell, so 8 * points bounds every counter
    field = field_new(2)
    table = RepTable(field, 60, 60)
    n_pts = len(table._square_points()[0])
    assert int(table._cells().max()) <= 8 * n_pts
    monkeypatch.setattr(corrsum, "_CELL_LIMIT", 8 * n_pts)
    RepTable(field, 60, 60)
    monkeypatch.setattr(corrsum, "_CELL_LIMIT", 8 * n_pts - 1)
    with pytest.raises(CapacityExceeded):
        RepTable(field, 60, 60)


def _narrow_points(table):
    """m, the square points with 2 i <= imax: no cell passes 8 m."""
    return int(np.count_nonzero(2 * table._square_points()[0] <= table.imax))


@given(st.sampled_from(RING_DS), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
@example(d=5, symmetric=True, data=None)
def test_cell_width_follows_the_proven_bound(d, symmetric, data):
    field = field_new(d)
    if data is None:  # table scale
        v1 = v2 = Fraction(3001, 2)
    elif symmetric:
        v1 = v2 = data.draw(st.fractions(Fraction(1, 3), 60, max_denominator=7))
    else:
        v1, v2 = data.draw(_box_bound(d)), data.draw(_box_bound(d))
    table = RepTable(field, v1, v2, symmetric=symmetric)
    m = _narrow_points(table)
    assert int(table._cells().max()) <= 8 * m
    narrow = 8 * m <= corrsum._NARROW_CELL_LIMIT
    assert table._cells().dtype == (np.uint16 if narrow else np.int32)


def test_narrow_cell_limit_picks_the_width(monkeypatch):
    # uint16 exactly when 8 m fits under the limit; both widths hold the same table
    field = field_new(5)
    m = _narrow_points(RepTable(field, 60, 60))
    built = {}
    for limit, dtype in ((8 * m, np.uint16), (8 * m - 1, np.int32)):
        monkeypatch.setattr(corrsum, "_NARROW_CELL_LIMIT", limit)
        table = RepTable(field, 60, 60)
        assert table._cells().dtype == dtype
        built[dtype] = (table._cells(), _table_correlation(table),
                        correlation_grid(field, 60))
    (flat_a, n_a, grid_a), (flat_b, n_b, grid_b) = built.values()
    assert (flat_a == flat_b).all() and n_a == n_b and (grid_a == grid_b).all()


def test_narrowed_edge_rows_charged_before_the_work():
    # a large denominator is narrowed to an inexact int64 bracket, whose rows are
    # settled one by one; _ROW_BYTES must cover that build before any row exists
    field = field_new(2)
    v1, v2 = Fraction(1, 10**9 + 7), Fraction(30000)
    _table_n(field, v1, v2)  # warm up lazily built state
    tracemalloc.start()
    try:
        _table_n(field, v1, v2)
        need = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with pytest.raises(CapacityExceeded):
        RepTable(field, v1, v2, memory_budget=need - 1)
    RepTable(field, v1, v2, memory_budget=2 * need)


def _reference_flat(table):
    """The accumulation the table kernel replaced: per square point, np.add.at
    over every partner s >= t that lands on a stored cell, placed by the
    cell location lookup reads through."""
    si, sj, sw = table._square_points()
    flat = np.zeros(table.cells, dtype=np.int32)
    for t in range(len(si)):
        ii, jj = si[t] + si[t:], sj[t] + sj[t:]
        ww = 2 * sw[t] * sw[t:]
        ww[0] //= 2
        stored, k = table._locate(ii, jj)
        np.add.at(flat, k[stored], ww[stored])
    return flat


def _box_bound(d):
    """A non-integer rational bound or a V^(-1/2) bound."""
    return (st.fractions(Fraction(1, 3), 60, max_denominator=7)
            | st.builds(lambda v: InvSqrtBound(d, v), st.integers(1, 3000)))


# an @example's stand-in for drawn sides: the thin box (3000, 3000^(-1/2)),
# where most columns of the table hold one or two cells
THIN = "thin"


def _sides(d, symmetric, data):
    """The sides of a drawn box; of the table-scale box when data is None,
    of the thin box for THIN, and data itself when it is a pair of sides."""
    if data is None:
        return Fraction(3001, 2), Fraction(3001, 2)
    if data == THIN:
        return Fraction(3000), InvSqrtBound(d, Fraction(3000))
    if isinstance(data, tuple):
        return data
    if symmetric:
        v = data.draw(st.fractions(Fraction(1, 3), 60, max_denominator=7))
        return v, v
    return data.draw(_box_bound(d)), data.draw(_box_bound(d))


@given(st.sampled_from(RING_DS), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
@example(d=2, symmetric=True, data=None)
@example(d=2, symmetric=False, data=THIN)
@example(d=5, symmetric=False, data=THIN)
# s = t adds to 2 xi^2 apart from the other pairs: here such a cell is the last
# of its column, one lies past its column's last row, and (symmetric) one has j < 0
@example(d=17, symmetric=False, data=(Fraction(7), Fraction(14)))
@example(d=3, symmetric=False, data=(Fraction(13), Fraction(27, 2)))
@example(d=2, symmetric=True, data=(Fraction(15), Fraction(15)))
# _build packs a pair's row into the low 32 bits of its key: here swept pairs land
# on stored rows past 2^16 (imax = 70,000, and 70,001 on d = 5 with sigma = 2), on
# columns j >= 0 and, for d = 3, on columns down to j0 = -40,414
@example(d=2, symmetric=False, data=(Fraction(140000), InvSqrtBound(2, Fraction(140000))))
@example(d=5, symmetric=False, data=(Fraction(70000), InvSqrtBound(5, Fraction(70000))))
@example(d=3, symmetric=False, data=(Fraction(1, 3), Fraction(140000)))
def test_build_matches_reference_accumulation(d, symmetric, data):
    field = field_new(d)
    v1, v2 = _sides(d, symmetric, data)
    table = RepTable(field, v1, v2, symmetric=symmetric)
    assert (table._cells() == _reference_flat(table)).all()


@pytest.mark.parametrize("d", RING_DS)
@pytest.mark.parametrize("symmetric", [False, True])
def test_pair_sums_never_precede_their_column(d, symmetric):
    """_build tests a swept pair's row ii against its column's last row only:
    xi_t^2 + xi_s^2 is totally nonnegative, so ii >= i0[c]. Checked here on
    every pair of square points whose sum lands on a stored column."""
    field = field_new(d)
    if symmetric:
        boxes = [(Fraction(40), Fraction(40)), (Fraction(121, 3), Fraction(121, 3))]
    else:
        boxes = [(Fraction(81, 2), Fraction(40)), (Fraction(40), InvSqrtBound(d, Fraction(40))),
                 (InvSqrtBound(d, Fraction(1, 1000)), Fraction(55, 3))]
    for v1, v2 in boxes:
        table = RepTable(field, v1, v2, symmetric=symmetric)
        si, sj, _ = table._square_points()
        ii, jj = si[:, None] + si, sj[:, None] + sj
        c = (jj - table.j0) >> (2 - table.sigma)
        on = (c >= 0) & (c < len(table.i0))
        assert on.sum() > len(si)
        assert (ii[on] >= table.i0[c[on]]).all(), (v1, v2)


def _brute_elements(field, b1, b2):
    """(c1, c2) of every ring element g = (c1 + c2 sqrt d)/2 with g^2 <= b1 + 1 and
    (g^sigma)^2 <= b2 + 1, one of each +-g (c2 > 0, or c2 = 0 and c1 >= 0), from the
    whole rectangle |c1|, |c2| sqrt d <= |g| + |g^sigma|: a loose float test, then the
    bounds' exact one on g^2 - 1 = (p - 2 + q sqrt d)/2 and on its conjugate."""
    d, step = field.d, 3 - field.sigma
    r = math.sqrt(float(b1) + 1) + math.sqrt(float(b2) + 1) + 1
    c1, c2 = np.meshgrid(np.arange(-int(r), int(r) + 1),
                         np.arange(0, int(r / math.sqrt(d)) + 1, step))
    c1, c2 = c1.ravel(), c2.ravel()
    g, conj = (c1 + c2 * math.sqrt(d)) / 2, (c1 - c2 * math.sqrt(d)) / 2
    near = (((c1 - c2) % 2 == 0) & ((c2 > 0) | (c1 >= 0))
            & (g * g <= (float(b1) + 1) * 1.001) & (conj * conj <= (float(b2) + 1) * 1.001))
    out = []
    for a, b in zip(c1[near].tolist(), c2[near].tolist()):
        p, q = (a * a + d * b * b) // 2, a * b
        if b1.allows(p - 2, q, False) and b2.allows(p - 2, -q, False):
            out.append((a, b))
    return out


@given(st.sampled_from([2, 3, 5, 17]), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
# the thinner side first: with the lower edge u - f2 alone the list would hold 20,222
# elements, where the box has 251 over 109 rows
@example(d=3, symmetric=False, data=(Fraction(1, 3), Fraction(140000)))
@example(d=5, symmetric=False, data=(InvSqrtBound(5, Fraction(1, 5000)), Fraction(40)))
def test_ring_rows_list_the_box_elements(d, symmetric, data):
    """strip._ring_rows, the one list of a box's ring elements, against its definition
    in either order of the sides: each +-g once, g = 0 first, every element of the
    box and at most two more per row; and the table's square points are the squares
    of the box's elements, each of multiplicity 2 but g = 0, in symmetric and full
    storage."""
    field = field_new(d)
    if isinstance(data, tuple):
        v1, v2 = data
    elif symmetric:
        v1 = v2 = data.draw(st.fractions(Fraction(1, 3), 300, max_denominator=7))
    else:
        side = (st.fractions(Fraction(1, 1000), 300, max_denominator=1000)
                | st.builds(lambda v: InvSqrtBound(d, v),
                            st.fractions(Fraction(1, 7), 3000, max_denominator=7)))
        v1, v2 = data.draw(side), data.draw(side)
    sigma = field.sigma
    for a, b in ((v1, v2), (v2, v1)):
        b1, b2 = make_bound(field, a), make_bound(field, b)
        c2, lo, n = strip._ring_rows(field, *strip._sides(field, b1, b2))
        c1 = (np.repeat(lo - 2 * (np.cumsum(n) - n), n) + 2 * np.arange(int(n.sum()))).tolist()
        c2 = np.repeat(c2, n).tolist()
        listed = list(zip(c1, c2))
        assert listed[0] == (0, 0) and len(set(listed)) == len(listed)
        assert all((x - y) % 2 == 0 and y % (3 - sigma) == 0 and (y > 0 or x >= 0)
                   for x, y in listed)
        box = _brute_elements(field, b1, b2)
        assert set(box) <= set(listed), (a, b)
        assert len(listed) <= len(box) + 2 * len(n), (a, b, len(listed), len(box), len(n))
        si, sj, sw = RepTable(field, a, b, symmetric=symmetric)._square_points()
        want = sorted((sigma * (x * x + d * y * y) // 4, sigma * x * y // 2, 2 if x or y else 1)
                      for x, y in box)
        assert sorted(zip(si.tolist(), sj.tolist(), sw.tolist())) == want, (a, b)


def _window_cells(table):
    """Every integer cell (i, j) of the window on rows 0..imax, from the
    closed edges of the bounds on rows i - sigma (lambda - 1 is the cell
    (i - sigma, j)), not from the table's own row record."""
    sigma = table.sigma
    rows = np.arange(table.imax + 1, dtype=np.int64)
    top = corrsum._floor_div_sqrt(rows, 1, table.field.d)
    hi = np.minimum(top, _max_j(table.v1, rows - sigma, sigma))
    lo = np.maximum(-top, -_max_j(table.v2, rows - sigma, sigma))
    return [(i, j) for i in rows.tolist() for j in range(int(lo[i]), int(hi[i]) + 1)]


@pytest.mark.parametrize("d", RING_DS)
def test_table_matches_brute_force_per_cell(d):
    # every window cell of a small full table, against a direct count
    field = field_new(d)
    table = RepTable(field, Fraction(9, 2), InvSqrtBound(d, Fraction(1, 3)), symmetric=False)
    sigma = _sigma(d)
    for i, j in _window_cells(table):
        if (i - j) % 2 and sigma == 2:
            continue
        lam = field.element(i, j) if sigma == 2 else field.from_xy(i, j)
        assert table.lookup(i, j) == r_brute(field, lam), (i, j)


@given(st.sampled_from(RING_DS), st.integers(1, 40), st.booleans())
@settings(max_examples=40, deadline=None)
@example(d=5, xmax=150, include_zero=False)
def test_grid_matches_pointwise_on_every_ring_class(d, xmax, include_zero):
    field = field_new(d)
    grid = correlation_grid(field, xmax, include_lambda_zero=include_zero)
    for v in range(1, xmax + 1):
        assert grid[v] == _table_n(field, v, v, include_zero), (d, v)


@contextlib.contextmanager
def _walked_as(f):
    """A patch of RepTable._build under which each band reaches the walk as
    f(band), the cells a table of other values would hand it; it fails when no
    band reached a walk."""
    build = RepTable._build
    bands = []

    def patched(table, walk=None):
        build(table, walk and (lambda k0, cells: bands.append(k0) or walk(k0, f(cells))))

    with mock.patch.object(RepTable, "_build", patched):
        yield
    assert bands, "no band reached the walk"


def test_grid_exact_past_float_precision():
    # scaling every cell by an odd c multiplies every product by c^2; the
    # products then reach about 2^60, where float64 sums drop low bits
    field = field_new(5)
    plain = correlation_grid(field, 20)
    c = 2**25 + 1
    assert int(RepTable(field, 20, 20)._cells().max()) * c < 2**31
    assert int(plain[-1]) * c * c < 2**63
    with _walked_as(lambda cells: cells.astype(np.int32) * c):  # a wide table's scale
        assert (correlation_grid(field, 20) == plain * (c * c)).all()


def _read_cells(table, i, j):
    """r at the cells (i, j) of the stored parity, read as lookup reads them:
    a symmetric table answers a negative j from its mirror cell."""
    stored, k = table._locate(i, np.abs(j) if table.symmetric else j)
    assert stored.all()
    return table._cells()[k].astype(np.int64)


def _reference_correlation(table, include_lambda_zero):
    """The correlation sum from the half-open box's own edges: on every row,
    the cells of the row's parity between them, each with its lambda + 1, the
    cell (i + sigma, j), read cell by cell."""
    # the half-open box's edges per row: the closed edges, each moved one step
    # inward where the edge cell lies on the bound itself
    sigma = table.sigma
    rows = np.arange(table.imax + 1, dtype=np.int64)
    top = corrsum._floor_div_sqrt(rows, 1, table.field.d)
    hi = np.minimum(top, _max_j(table.v1, rows, sigma)).astype(np.int64)
    lo = np.maximum(-top, -_max_j(table.v2, rows, sigma)).astype(np.int64)
    for i in rows.tolist():
        p, q = _doubled(i, int(hi[i]), sigma)
        hi[i] -= not table.v1.allows(p, q, True)
        p, q = _doubled(i, int(lo[i]), sigma)
        lo[i] += not table.v2.allows(p, -q, True)
    par = rows & (sigma - 1)  # snap both edges inward to the row's parity
    lo, hi = lo + (lo - par) % 2, hi - (hi - par) % 2
    if not include_lambda_zero:
        hi[0] = lo[0] - 2  # row 0 holds lambda = 0 alone
    n = np.maximum((hi - lo) // 2 + 1, 0)
    i = np.repeat(rows, n)
    j = np.repeat(lo, n) + 2 * (np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n))
    return int(np.dot(_read_cells(table, i, j), _read_cells(table, i + sigma, j)))


@given(st.sampled_from(RING_DS), st.booleans(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
@example(d=2, symmetric=True, include_zero=True, data=None)
@example(d=2, symmetric=False, include_zero=False, data=None)
@example(d=2, symmetric=False, include_zero=True, data=THIN)
@example(d=2, symmetric=False, include_zero=False, data=THIN)
@example(d=5, symmetric=False, include_zero=True, data=THIN)
@example(d=5, symmetric=False, include_zero=False, data=THIN)
def test_correlation_matches_reference_route(d, symmetric, include_zero, data):
    field = field_new(d)
    v1, v2 = _sides(d, symmetric, data)
    table = RepTable(field, v1, v2, symmetric=symmetric)
    assert _convention(_table_correlation(table), include_zero) == _reference_correlation(
        table, include_zero)


def test_correlation_exact_past_int64():
    # with every nonzero cell at 2^31 - 1 each product is about 2^62 (2^63
    # doubled), so the products of one band sum far past 2^63
    field = field_new(2)
    with _walked_as(lambda cells: (cells > 0).astype(np.int32)):  # a wide table's cells
        ones = _table_n(field, 40, 40)
    with _walked_as(lambda cells: (cells > 0).astype(np.int32) * (2**31 - 1)):
        big = _table_n(field, 40, 40)
    assert ones > 2 and big == ones * (2**31 - 1) ** 2


@pytest.mark.parametrize("d", RING_DS)
def test_walk_exact_at_the_largest_cells(d):
    """Every cell at 2^31 - 1 makes each product about 2^62, so the chunk rule
    allows (2^63 - 1) // (2^31 - 1)^2 = 2 products a dot, whose sum stays below
    2^63; a third product, or a doubled bound, wraps. With every cell c, N is
    c^2 times N on cells of 1, on symmetric and on full storage, whose axis
    holds lambda = 0 and the edge cell of the integer bounds."""
    field = field_new(d)
    for v1, v2 in ((12, 12), (12, 7), (Fraction(23, 2), 9)):
        n = {}
        for c in (1, 2**31 - 1):
            with _walked_as(lambda cells: np.full(len(cells), c, dtype=np.int32)):
                n[c] = _table_n(field, v1, v2)
        assert n[1] > 2 and n[2**31 - 1] == n[1] * (2**31 - 1) ** 2, (v1, v2)


@given(st.sampled_from(RING_DS), st.booleans(), st.booleans(), st.sampled_from([1, 7]),
       st.sampled_from([1, 3]), st.sampled_from([1, 2, 3]), st.data())
@settings(max_examples=60, deadline=None)
@example(d=2, symmetric=False, include_zero=True, band=1, batch=3, walk=1, data=THIN)
@example(d=5, symmetric=False, include_zero=False, band=7, batch=1, walk=2, data=THIN)
@example(d=17, symmetric=False, include_zero=True, band=1, batch=1, walk=3,
         data=(Fraction(7), Fraction(14)))
# an edge cell (9, 0) off the ring, whose row is odd in doubled coordinates
@example(d=17, symmetric=False, include_zero=False, band=7, batch=3, walk=1,
         data=(Fraction(9, 2), Fraction(11)))
@example(d=3, symmetric=True, include_zero=False, band=7, batch=3, walk=2,
         data=(Fraction(12), Fraction(12)))
@example(d=6, symmetric=True, include_zero=True, band=1 << 20, batch=3, walk=3,
         data=(Fraction(12), Fraction(12)))
@example(d=13, symmetric=False, include_zero=False, band=1 << 20, batch=1, walk=2,
         data=(Fraction(11), Fraction(6)))
def test_bands_match_the_whole_table(d, symmetric, include_zero, band, batch, walk, data):
    """A walk band by band, in bands of one column (band = 1 cell), of a few
    cells, which still take whole columns, or of the whole table, scatters of 1
    or 3 pairs, and walk chunks of 1, 2 or 3 products, gives the N and the F
    grid of the whole table and of the reference routes. Chunk seams then fall
    on column ends, on the mirror seam col_start[1], on lambda = 0 and on the
    closed box's edge cell, which integer bounds put on the axis."""
    field = field_new(d)
    if isinstance(data, (str, tuple)):
        v1, v2 = _sides(d, symmetric, data)
        xmax = 9
    else:
        side = st.integers(1, 30) | st.fractions(Fraction(1, 3), 30, max_denominator=7)
        thin = st.builds(lambda v: InvSqrtBound(d, v), st.integers(1, 3000))
        v1 = data.draw(side) if symmetric else data.draw(side | thin)
        v2 = v1 if symmetric else data.draw(side | thin)
        xmax = data.draw(st.integers(1, 9))
    with mock.patch.object(corrsum, "_BAND_CELLS", band), \
            mock.patch.object(corrsum, "_BATCH_PAIRS", batch), \
            mock.patch.object(corrsum, "_WALK_CELLS", walk):
        streamed = RepTable(field, v1, v2, symmetric=symmetric)
        n = _table_correlation(streamed)
        # the walk held one band: at most `band` cells, or one column; a read after
        # it builds the whole table
        assert len(streamed.flat) <= max(band, int(np.diff(streamed.col_start).max()))
        assert (streamed._cells() == _reference_flat(streamed)).all()
        read = RepTable(field, v1, v2, symmetric=symmetric)
        assert (read._cells() == _reference_flat(read)).all()
        walked = _table_correlation(read)
        grid = correlation_grid(field, xmax, include_lambda_zero=include_zero)
    assert n == walked == _table_correlation(read)
    assert _convention(n, include_zero) == _reference_correlation(read, include_zero)
    assert (grid == correlation_grid(field, xmax, include_lambda_zero=include_zero)).all()
    for v in range(1, xmax + 1):
        box = RepTable(field, v, v)
        assert grid[v] == _reference_correlation(box, include_zero), v


def test_walk_memory_follows_the_band_size():
    """d=5, xmax=3000 stores about 2.0M cells, 4 MB of uint16: walked in bands
    of 2^16 cells, the grid peaks under a quarter of the one-band walk."""
    field = field_new(5)
    correlation_grid(field, 50)  # warm up lazily built state
    peaks, grids = [], []
    for cells in (1 << 30, 1 << 16):
        with mock.patch.object(corrsum, "_BAND_CELLS", cells):
            tracemalloc.start()
            try:
                grids.append(correlation_grid(field, 3000))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert (grids[0] == grids[1]).all()
    assert peaks[1] < peaks[0] / 4, peaks


@given(st.sampled_from(RING_DS), st.data())
@settings(max_examples=60, deadline=None)
def test_monotone_in_each_bound(d, data):
    """Products are non-negative, so N grows with either bound while the
    other stays fixed; a window edge that drops a cell breaks this."""
    field = field_new(d)
    side = st.fractions(Fraction(1, 3), 25, max_denominator=7).filter(lambda v: v.denominator > 1)
    v1, v2 = data.draw(side), data.draw(side)
    w = v1 + data.draw(st.fractions(0, 6, max_denominator=5))
    include_zero = data.draw(st.booleans())

    def n(a, b):
        return correlation(field, a, b, include_lambda_zero=include_zero).n_value

    assert n(w, v2) >= n(v1, v2) and n(v2, w) >= n(v2, v1)


def _reference_oracle(field, v1, v2, *, include_lambda_zero=True):
    """The group-sum oracle's loop before the per-lambda weights: the box
    test and r(lambda + 1) decided again for every quadruple."""
    b1 = make_bound(field, v1)
    b2 = make_bound(field, v2)
    d = field.d
    one = field.sigma == 2
    smax = int(2 * (float(b1) + float(b2))) + 4
    cache = {}
    total = 0

    def bump(P, Q):
        lam_next = field.element(P + 2, Q)
        key = (P + 2, Q)
        r = cache.get(key)
        if r is None:
            r = r_brute(field, lam_next)
            cache[key] = r
        return r

    m1 = isqrt(smax)
    c1_range = range(-m1, m1 + 1) if one else range(-(m1 - m1 % 2), m1 + 1, 2)
    for c1 in c1_range:
        s1 = smax - c1 * c1
        if s1 < 0:
            continue
        m2 = isqrt(s1 // d)
        c2_start = (c1 & 1) if one else 0
        for c2 in range(-(m2 - ((m2 - c2_start) % 2)), m2 + 1, 2):
            s2 = s1 - d * c2 * c2
            if s2 < 0:
                continue
            m3 = isqrt(s2)
            e1_range = range(-m3, m3 + 1) if one else range(-(m3 - m3 % 2), m3 + 1, 2)
            for e1 in e1_range:
                s3 = s2 - e1 * e1
                if s3 < 0:
                    continue
                m4 = isqrt(s3 // d)
                e2_start = (e1 & 1) if one else 0
                for e2 in range(-(m4 - ((m4 - e2_start) % 2)), m4 + 1, 2):
                    P = (c1 * c1 + d * c2 * c2 + e1 * e1 + d * e2 * e2) // 2
                    Q = c1 * c2 + e1 * e2
                    if not include_lambda_zero and P == 0 and Q == 0:
                        continue
                    if not b1.allows(P, Q, True):
                        continue
                    if not b2.allows(P, -Q, True):
                        continue
                    total += bump(P, Q)
    return total


def _oracle_bound(d):
    """A non-integer rational bound or a V^(-1/2) bound, small enough for the oracle."""
    return (st.fractions(Fraction(1, 3), 12, max_denominator=7).filter(lambda v: v.denominator > 1)
            | st.builds(lambda n, m: InvSqrtBound(d, Fraction(n, m)),
                        st.integers(1, 40), st.integers(1, 150)))


@given(st.sampled_from(RING_DS), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
@example(d=2, include_zero=False, data=None)
def test_oracle_matches_reference_loop(d, include_zero, data):
    field = field_new(d)
    if data is None:
        v1, v2 = Fraction(21, 2), InvSqrtBound(d, Fraction(1, 40))
    else:
        v1, v2 = data.draw(_oracle_bound(d)), data.draw(_oracle_bound(d))
    got = correlation_group_oracle(field, v1, v2, include_lambda_zero=include_zero)
    assert got == _reference_oracle(field, v1, v2, include_lambda_zero=include_zero)
    assert got == _table_n(field, v1, v2, include_zero)


@given(st.sampled_from(RING_DS), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
@example(d=2, include_zero=False, data=None)
@example(d=5, include_zero=True, data=None)
def test_oracle_bands_split_lambda_from_lambda_plus_one(d, include_zero, data):
    """With bands of at most two pairs, every band holds one P, so each lambda
    and its lambda + 1 lie in different bands' own ranges; only the overlap of
    two P that each band builds past its end keeps the sum exact."""
    field = field_new(d)
    if data is None:
        v1, v2 = Fraction(21, 2), InvSqrtBound(d, Fraction(1, 40))
    else:
        v1, v2 = data.draw(_oracle_bound(d)), data.draw(_oracle_bound(d))
    with mock.patch.object(corrsum, "_ORACLE_BAND_PAIRS", 2):
        got = correlation_group_oracle(field, v1, v2, include_lambda_zero=include_zero)
    assert got == _reference_oracle(field, v1, v2, include_lambda_zero=include_zero)
    assert got == _table_n(field, v1, v2, include_zero)


def test_oracle_memory_follows_the_band_cap():
    """d=2, V=150 has about 56,000 ordered pairs: in bands of 4096 pairs the
    peak stays under 64 bytes a pair of the cap and a quarter of the one-band
    peak."""
    field = field_new(2)
    peaks, sums = [], []
    for cap in (1 << 18, 1 << 12):
        with mock.patch.object(corrsum, "_ORACLE_BAND_PAIRS", cap):
            tracemalloc.start()
            try:
                sums.append(correlation_group_oracle(field, 150, 150))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert sums[0] == sums[1] == _table_n(field, 150, 150)
    assert peaks[1] < min(64 * (1 << 12), peaks[0] / 4), peaks


def test_capacity_refusal_of_a_huge_box_prints_its_counts():
    """str() refuses integers past 4,300 digits; the refusal prints through Decimal."""
    with pytest.raises(CapacityExceeded, match=r"about 8\.00e\+5001 bytes"):
        RepTable(field_new(2), 10**5000, 1)


def test_oracle_guard_refuses_before_any_array():
    field = field_new(2)
    tracemalloc.start()
    try:
        with pytest.raises(ScaleGuard):
            correlation_group_oracle(field, 3000, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000, peak


@pytest.mark.parametrize("d", RING_DS)
@pytest.mark.parametrize("include_zero", [True, False])
def test_inv_sqrt_bound_on_a_row_matches_oracle(d, include_zero):
    """1**(-1/2) = 1 and (1/9)**(-1/2) = 3 put a V^(-1/2) edge on the cell
    (sigma V, 0), alone or tied with the rational side, in either slot."""
    field = field_new(d)
    for w in (Fraction(1), Fraction(1, 9)):
        for q in (Fraction(3), Fraction(7, 2)):
            for v1, v2 in ((InvSqrtBound(d, w), q), (q, InvSqrtBound(d, w))):
                got = _table_n(field, v1, v2, include_zero)
                assert got == correlation_group_oracle(
                    field, v1, v2, include_lambda_zero=include_zero), (w, q)


@pytest.mark.parametrize("d", RING_DS)
def test_closed_and_half_open_boxes_differ_in_one_axis_cell(d):
    """correlation sums the closed box and subtracts one cell: every window
    cell in the closed box but not the half-open one is (i*, 0), with i* the
    last row whose axis cell is in the closed box, i* = floor(sigma min(V1, V2))."""
    field, sigma = field_new(d), _sigma(d)
    bounds = [Fraction(3), Fraction(7, 2), Fraction(10, 3), InvSqrtBound(d, Fraction(1)),
              InvSqrtBound(d, Fraction(1, 9)), InvSqrtBound(d, Fraction(1, 5)),
              InvSqrtBound(d, Fraction(sigma**2, d))]  # the last is the cell (0, 1)
    on_edge = 0
    for v1 in bounds:
        for v2 in bounds:
            table = RepTable(field, v1, v2)

            def inside(i, j, strict):
                p, q = _doubled(i, j, sigma)
                return table.v1.allows(p, q, strict) and table.v2.allows(p, -q, strict)

            i_star = max(i for i in range(table.imax + 1) if inside(i, 0, False))
            edge = [(i, j) for i, j in _window_cells(table)
                    if (j - i) % sigma == 0 and inside(i, j, False)
                    and not inside(i, j, True)]
            assert edge in ([], [(i_star, 0)]), (v1, v2, edge)
            want = None if inside(i_star, 0, True) else i_star
            assert corrsum._strict_row_range(table) == want, (v1, v2)
            on_edge += want is not None
    assert on_edge >= 9


@given(st.sampled_from(RING_DS), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_min_cells_is_a_lower_bound_that_refuses_early(d, symmetric, data):
    field = field_new(d)
    v1 = data.draw(st.fractions(Fraction(1, 3), 400, max_denominator=7))
    if symmetric:
        v2 = v1
    else:
        v2 = data.draw(st.fractions(Fraction(1, 3), 400, max_denominator=7)
                       | st.builds(lambda n, m: InvSqrtBound(d, Fraction(n, m)),
                                   st.integers(1, 100), st.integers(1, 500)))
        if data.draw(st.booleans()):
            v1, v2 = v2, v1
    table = RepTable(field, v1, v2, symmetric=symmetric)
    low = _min_cells(table.v1, table.v2, table.sigma, symmetric)
    assert 0 <= low <= table.cells
    if low:
        # one byte short of the cells alone: refused before any row is computed
        with mock.patch.object(RepTable, "_compute_rows", side_effect=AssertionError):
            with pytest.raises(CapacityExceeded):
                RepTable(field, v1, v2, symmetric=symmetric, memory_budget=4 * low - 1)


def test_edge_reach_refused_before_any_row():
    # past a reach of 2^30 the int64 edges could wrap: a budget that admits the
    # 2^29 rows must not let the row pass start
    with mock.patch.object(RepTable, "_compute_rows", side_effect=AssertionError):
        with pytest.raises(CapacityExceeded, match="int64 edge limit"):
            RepTable(field_new(2), 2**30, 1, memory_budget=10**18)


def test_min_cells_is_tight_on_large_boxes():
    # the refusals it exists for sit well above the budget, but not by 2x
    for d, symmetric in ((2, True), (5, False), (41, True)):
        table = RepTable(field_new(d), 600, 600, symmetric=symmetric)
        low = _min_cells(table.v1, table.v2, table.sigma, symmetric)
        assert 0.9 * table.cells <= low <= table.cells, (d, low, table.cells)


@pytest.mark.parametrize("d", RING_DS)
def test_row_record_matches_window_definition(d):
    """Each column's stored i, i0[c], i0[c] + sigma, ..., ihi[c], are the rows
    whose window cell (i, j) has j's parity and lambda, lambda^sigma >= 0 and
    lambda - 1, (lambda - 1)^sigma allowed by v1, v2; the columns cover every
    stored j; and lookup reads each row's window as stated."""
    field, sigma = field_new(d), _sigma(d)
    step = 3 - sigma
    rational = [Fraction(9, 2), Fraction(7), Fraction(10, 3)]
    inv_sqrt = [InvSqrtBound(d, Fraction(1, 9)), InvSqrtBound(d, Fraction(1, 20)),
                InvSqrtBound(d, Fraction(sigma**2, d))]
    boxes = [(v1, v2, False) for v1 in rational + inv_sqrt for v2 in rational + inv_sqrt]
    boxes += [(v, v, True) for v in rational + [Fraction(40)]]
    mirrored = 0
    for v1, v2, symmetric in boxes:
        table = RepTable(field, v1, v2, symmetric=symmetric)
        b1, b2 = table.v1, table.v2

        def window(i):  # every integer j of the window in row i
            reach = isqrt(i * i // d) + 1 if i > 0 else 0
            cells = []
            for j in range(-reach, reach + 1):
                p, q = _doubled(i, j, sigma)
                if (sign_quad(p, q, d) >= 0 and sign_quad(p, -q, d) >= 0
                        and b1.allows(p - 2, q, False) and b2.allows(p - 2, -q, False)):
                    cells.append(j)
            return cells

        lattice = {i: [j for j in window(i) if (j - (i & (sigma - 1))) % 2 == 0]
                   for i in range(table.imax + 1)}
        stored_j = {j for cells in lattice.values() for j in cells if j >= 0 or not symmetric}
        n_cols = len(table.i0)
        assert table.col_start[0] == 0 and table.col_start[n_cols] == table.cells
        assert stored_j <= set(range(table.j0, table.j0 + step * n_cols, step)), (v1, v2)
        for c in range(n_cols):
            j = table.j0 + step * c
            i0, ihi = int(table.i0[c]), int(table.ihi[c])
            rows = [i for i in lattice if j in lattice[i]]
            assert list(range(i0, ihi + 1, sigma)) == rows and ihi >= i0 - sigma, (v1, v2, j)
            assert table.col_start[c + 1] - table.col_start[c] == len(rows)

        for i in range(table.imax + 1):
            par = i & (sigma - 1)  # the parity of the row's stored j
            lo, yhi = (lattice[i][0], lattice[i][-1]) if lattice[i] else (par, par - 2)
            if lattice[i]:  # one lattice step past either edge
                for j in (lo - 2, yhi + 2):
                    with pytest.raises(OutOfRange):
                        table.lookup(i, j)
            for j in (lo - 1, yhi + 1, yhi + 41):  # off parity, in the window or not
                assert table.lookup(i, j) == 0, (v1, v2, i, j)
            for j in lattice[i]:
                if symmetric and j < 0:
                    assert table.lookup(i, j) == table.lookup(i, -j)
                    mirrored += table.lookup(i, j) > 0
        # no window cell of either parity past the last row
        assert not any(window(i) for i in range(table.imax + 1, table.imax + 4)), (v1, v2)
        for i in (-1, table.imax + 1):
            with pytest.raises(OutOfRange):
                table.lookup(i, i & (sigma - 1))
    assert mirrored > 0


@pytest.mark.parametrize("d", RING_DS)
@pytest.mark.parametrize("symmetric", [False, True])
def test_min_cells_equals_its_exact_formula(d, symmetric):
    """_min_cells restated in Fractions at b = v + 1, with sqrt(d) bracketed
    by s/2^32 <= sqrt(d) < (s + 1)/2^32: equal for rational bounds, whose
    bracket is exact, and at most the formula at the upper end of a V^(-1/2)
    bracket, which must itself hold sigma V^(-1/2)."""
    sigma, scale = _sigma(d), corrsum._SQRT_SCALE
    s = isqrt(d * scale * scale)

    def formula(sb1, sb2, c):  # sb = sigma b, c = ceil(b1) + ceil(b2)
        half_area = math.floor(sb1 * sb2 / (4 * Fraction(s + 1, scale)))
        half_peak = math.ceil(sigma * c / (4 * Fraction(s, scale)))
        full = max(half_area - half_peak - (sigma * c // 2 + 1), 0)
        return full // 2 if symmetric else full

    def upper(bound):  # (sigma b, ceil(b)) at the top of the bound's bracket
        if isinstance(bound, RationalBound):
            return sigma * (bound.value + 1), math.ceil(bound.value) + 1
        a, m, exact = bound.bracket(sigma, scale)
        assert not exact and Fraction(a, m) ** 2 <= sigma**2 / bound.v < Fraction(a + 1, m) ** 2
        return Fraction(a + 1, m) + sigma, bound.ceil() + 1

    rational = [RationalBound(d, Fraction(v)) for v in (Fraction(7, 2), 40, Fraction(355, 3), 600)]
    inv_sqrt = [InvSqrtBound(d, Fraction(1, v)) for v in (50, 3000, 10**5)]
    pairs = [(b, b) for b in rational] if symmetric else [
        (b1, b2) for b1 in rational + inv_sqrt for b2 in rational + inv_sqrt]
    positive = 0
    for b1, b2 in pairs:
        (sb1, c1), (sb2, c2) = upper(b1), upper(b2)
        got = _min_cells(b1, b2, sigma, symmetric)
        want = formula(sb1, sb2, c1 + c2)
        if isinstance(b1, RationalBound) and isinstance(b2, RationalBound):
            assert got == want, (b1.describe(), b2.describe())
        else:
            assert got <= want, (b1.describe(), b2.describe())
        positive += got > 0
    assert positive >= len(pairs) // 2


def _strip_n(field, v1, v2, include_lambda_zero=True, budget=corrsum.DEFAULT_MEMORY_BUDGET):
    n = corrsum._strip(field, make_bound(field, v1), make_bound(field, v2), budget)
    return _convention(n, include_lambda_zero)


@st.composite
def _strip_box(draw, d):
    """A box up to 10^5: a side of denominator 2 to 7 and a thin one, V^(-1/2)
    or a rational below 1, or a rational above 1 on a box small enough for the
    strip's pair sweep; the thin side in either slot."""
    def up_to_ten_to(k):  # at least 1, 10, ..., 10^(k-1) alike
        return st.integers(0, k - 1).flatmap(lambda e: st.integers(10**e, 10**k))

    big = Fraction(draw(up_to_ten_to(5)), draw(st.integers(2, 7)))
    kind = draw(st.sampled_from(("inv_sqrt", "below", "above")))
    if kind == "inv_sqrt":
        small = InvSqrtBound(d, Fraction(draw(up_to_ten_to(5)), draw(st.integers(1, 3))))
    elif kind == "below":
        small = Fraction(draw(st.integers(1, 99)), draw(st.integers(100, 10**6)))
    else:
        small = Fraction(draw(st.integers(101, 4000)), 100)
        big = min(big, Fraction(draw(st.integers(1, 3000)), 7))
    return (small, big) if draw(st.booleans()) else (big, small)


@given(st.sampled_from(RING_DS), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
@example(d=2, include_zero=True, data=(Fraction(10**5), InvSqrtBound(2, Fraction(10**5))))
@example(d=5, include_zero=False, data=(InvSqrtBound(5, Fraction(3000)), Fraction(3000)))
# V^(-1/2) on a lattice point, sqrt(d)/sigma, in the strip's sort side and in the other
@example(d=13, include_zero=True, data=(Fraction(9, 2), InvSqrtBound(13, Fraction(4, 13))))
@example(d=3, include_zero=False, data=(InvSqrtBound(3, Fraction(1, 3)), Fraction(1, 10)))
@example(d=17, include_zero=True, data=(Fraction(7), Fraction(14)))
@example(d=6, include_zero=True, data=(Fraction(1, 10**9 + 7), Fraction(30000)))
# V2 10^-30 above lambda^sigma = 3 - 2 sqrt 2 of lambda = (1 + sqrt 2)^2, far inside
# one float rounding: only the window's slack keeps the pair (1 + sqrt 2, 0)
@example(d=2, include_zero=True,
         data=(Fraction(10), Fraction(3 * 10**40 - isqrt(8 * 10**80) + 10**10, 10**40)))
def test_strip_matches_table_and_oracle(d, include_zero, data):
    """The strip, the table and, on boxes small enough for it, the group oracle
    give the same N."""
    field = field_new(d)
    v1, v2 = data if isinstance(data, tuple) else data.draw(_strip_box(d))
    got = _strip_n(field, v1, v2, include_zero)
    assert got == _table_n(field, v1, v2, include_zero), (v1, v2)
    if max(make_bound(field, v).ceil() for v in (v1, v2)) <= 40:
        assert got == correlation_group_oracle(field, v1, v2, include_lambda_zero=include_zero)


@given(st.sampled_from(RING_DS), st.data())
@settings(max_examples=40, deadline=None)
@example(d=2, data=(Fraction(21, 2), InvSqrtBound(2, Fraction(1, 40)), 8))
@example(d=5, data=(InvSqrtBound(5, Fraction(1, 9)), Fraction(7, 2), 1))
def test_excluded_n_of_every_route_matches_the_oracle(d, data):
    """Without lambda = 0, the table's and the strip's N less r(0) r(1), correlation's
    N and the F grid give the count of the group oracle, which leaves lambda = 0 out
    by its own per-lambda rule, on rational and V^(-1/2) bounds and on the grid's
    integer ones."""
    field = field_new(d)
    if isinstance(data, tuple):
        v1, v2, xmax = data
    else:
        v1, v2 = data.draw(_oracle_bound(d)), data.draw(_oracle_bound(d))
        xmax = data.draw(st.integers(1, 8))
    want = correlation_group_oracle(field, v1, v2, include_lambda_zero=False)
    assert _table_n(field, v1, v2, False) == _strip_n(field, v1, v2, False) == want, (v1, v2)
    assert correlation(field, v1, v2, include_lambda_zero=False).n_value == want
    grid = correlation_grid(field, xmax, include_lambda_zero=False)
    assert grid.tolist() == [0] + [correlation_group_oracle(field, v, v, include_lambda_zero=False)
                                   for v in range(1, xmax + 1)]


@pytest.mark.parametrize("d, v, n", [(2, 10**10, 829_732), (2, 10**7, 27_684),
                                     (5, 10**6, 9_284), (5, 4 * 10**6, 19_172)])
def test_strip_thin_boxes_past_the_table(d, v, n):
    """Thin boxes whose tables cost O(V) rows (V = 10^7: 2 s and 480 MB) or are
    refused (V = 10^10). At V = 10^10 a key P M + Q with M above 2 |Q| would
    pass 2^63 and wrap."""
    field = field_new(d)
    assert correlation(field, v, InvSqrtBound(d, Fraction(v))).n_value == n


def test_strip_refuses_its_pairs_before_any_pair_array():
    field = field_new(5)
    v1, v2 = Fraction(2000), Fraction(2000)  # 1811 elements, 1,274,226 pairs
    _strip_n(field, 7, 7)  # warm up lazily built state
    with mock.patch.object(strip, "_STRIP_PAIR_LIMIT", 1_274_225):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded, match="1274226 pairs"):
                _strip_n(field, v1, v2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2_000_000, peak  # the pairs would take 50 MB


@pytest.mark.parametrize("d, v1, v2", [(2, 10**7, "inv"), (5, 500, 500), (3, 3000, Fraction(1, 3))])
def test_strip_charges_its_peak_to_the_budget(d, v1, v2):
    """The strip's charge covers its traced peak: a budget under the peak is
    refused, and one of twice the peak is not."""
    field = field_new(d)
    v2 = InvSqrtBound(d, Fraction(v1)) if v2 == "inv" else v2
    want = _strip_n(field, v1, v2)
    tracemalloc.start()
    try:
        _strip_n(field, v1, v2)
        need = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with pytest.raises(CapacityExceeded, match="strip needs"):
        _strip_n(field, v1, v2, budget=need - 1)
    assert _strip_n(field, v1, v2, budget=2 * need) == want


def test_route_refuses_a_strip_over_budget_before_it_starts():
    """The strip of the thin box of V = 4 10^13 (table-g --d 2) makes 2.2 million
    rows of c2 beside its 6.9 million estimated elements: the route charges both,
    as _strip does, and refuses the box, which the table refuses too, before the
    strip makes any array. The one CapacityExceeded names both refusals, the
    table's first, which needs far more than the strip."""
    f2, v = field_new(2), Fraction(4 * 10**13)
    with mock.patch.object(corrsum, "_strip", side_effect=AssertionError("the strip started")):
        with pytest.raises(CapacityExceeded) as refused:
            correlation(f2, v, InvSqrtBound(2, v))
    table, strip = str(refused.value).split("; ")
    assert table.startswith("table needs about ") and strip.startswith("strip needs about ")
    assert int(table.split()[3]) > 10**6 * int(strip.split()[3])


class _Took(Exception):
    pass


def _route_taken(field, v1, v2):
    """'strip' or 'table': the route correlation starts."""
    with mock.patch.object(corrsum, "_strip", side_effect=_Took("strip")), \
            mock.patch.object(corrsum, "RepTable", side_effect=_Took("table")):
        with pytest.raises(_Took) as took:
            correlation(field, v1, v2)
    return took.value.args[0]


def test_route_of_the_benchmark_shapes():
    """Thin boxes and small ones go to the strip; balanced V = 10^4 boxes, and
    boxes where the strip's estimate is over the table's, stay on the table."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    boxes = [(int(op.argv[2]), Fraction(op.argv[4]), Fraction(op.argv[6]))
             for op in workloads.build("oracle", 1).ops if op.check == "oracle_match"]
    assert len(boxes) == 600
    assert [_route_taken(field_new(d), v1, v2) for d, v1, v2 in boxes] == ["strip"] * 600
    f2 = field_new(2)
    for v in (10000, 20000, 30000, 40000, 50000):  # table-g --d 2
        assert _route_taken(f2, v, InvSqrtBound(2, Fraction(v))) == "strip"
    for d in (19, 57):
        assert _route_taken(field_new(d), 10000, 10000) == "table"
    # a box the table takes, under a budget that refuses the table's rows and not the strip
    assert _route_taken(f2, 5000, 1) == "table"
    with pytest.raises(CapacityExceeded):
        RepTable(f2, 5000, 1, memory_budget=300_000)
    assert correlation(f2, 5000, 1, memory_budget=300_000).n_value == 38692
    f5 = field_new(5)
    assert _route_taken(f5, 100, 100) == "table"
    assert _route_taken(f5, 20, 20) == _route_taken(f5, 3, 4) == "strip"
