import io
import math
import tracemalloc
from fractions import Fraction
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcorr import corrsum
from quadcorr import (
    CapacityExceeded,
    InvSqrtBound,
    OutOfRange,
    ScaleGuard,
    build_rep_table,
    c_constant,
    correlation,
    correlation_grid,
    correlation_group_oracle,
    f_deviation,
    field_new,
    g_ratio,
    r_brute,
)
from quadcorr.corrsum import (
    RationalBound,
    RepTable,
    _doubled,
    _max_j,
    _min_cells,
    _min_j,
    make_bound,
)
from quadcorr.quadfield import RingClass, sign_quad
from test_repcount import box_lambdas

# one field per class: d = 2, 6 (2 mod 4), 3, 7 (3 mod 4), 5, 13 (5 mod 8), 17, 41 (1 mod 8)
RING_DS = [2, 6, 3, 7, 5, 13, 17, 41]


def _sigma(d):
    return 2 if d % 4 == 1 else 1


def test_table_example_d2():
    f2 = field_new(2)
    table = build_rep_table(f2, 3, 3)
    assert [table.lookup(i, 0) for i in range(5)] == [1, 4, 8, 8, 8]


def test_table_tiny_box():
    f2 = field_new(2)
    table = build_rep_table(f2, 1, 1)
    assert table.lookup(0, 0) == 1
    assert table.lookup(1, 0) == 4  # the lambda + 1 neighbour of 0


@pytest.mark.parametrize("d,box", [(2, 8), (5, 6), (13, 5)])
@pytest.mark.parametrize("symmetric", [False, True])
def test_table_matches_brute_force(d, box, symmetric):
    field = field_new(d)
    table = build_rep_table(field, box, box, symmetric=symmetric)
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
            a = correlation(field, v1, v2).n_value
            b = correlation_group_oracle(field, v1, v2)
            assert a == b, (d, v1, v2)


def test_oracle_examples():
    f2 = field_new(2)
    assert correlation_group_oracle(f2, 3, 3) == 100
    assert correlation_group_oracle(f2, 1, 1) == 4
    f5 = field_new(5)
    assert correlation_group_oracle(f5, 2, 2) == correlation(f5, 2, 2).n_value


def test_oracle_scale_guard():
    with pytest.raises(ScaleGuard):
        correlation_group_oracle(field_new(2), 10**6, 10**6)


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
        a = correlation(field, v, v, symmetric=True).n_value
        b = correlation(field, v, v, symmetric=False).n_value
        assert a == b, (d, v)


def test_symmetric_requires_equal_bounds():
    with pytest.raises(OutOfRange):
        build_rep_table(field_new(2), 3, 4, symmetric=True)


@pytest.mark.parametrize("d", [2, 5])
def test_grid_matches_pointwise_correlation(d):
    field = field_new(d)
    grid = correlation_grid(field, 15)
    for v in range(1, 16):
        assert grid[v] == correlation(field, v, v).n_value, (d, v)
    # and the non-symmetric table gives the same grid
    full = correlation_grid(field, 15, symmetric=False)
    assert (grid == full).all()


def test_grid_excluding_lambda_zero():
    f2 = field_new(2)
    grid_in = correlation_grid(f2, 10)
    grid_ex = correlation_grid(f2, 10, include_lambda_zero=False)
    shift = r_brute(f2, f2.zero()) * r_brute(f2, f2.one())
    assert ((grid_in[1:] - grid_ex[1:]) == shift).all()


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


def test_f_deviation_validates_checkpoints():
    with pytest.raises(OutOfRange):
        f_deviation(field_new(2), 10, checkpoints=[11])


def test_g_ratio_consistency():
    f2 = field_new(2)
    v = 500
    res = correlation(f2, v, InvSqrtBound(2, Fraction(v)))
    expected = res.n_value / (8.0 * math.sqrt(v))
    assert g_ratio(f2, v) == pytest.approx(expected, rel=1e-12)
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


def test_capacity_guard():
    with pytest.raises(CapacityExceeded):
        build_rep_table(field_new(2), 4000, 4000, memory_budget=10_000)


def test_csv_export_roundtrip():
    f5 = field_new(5)
    table = build_rep_table(f5, 4, 4, symmetric=True)
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


def test_symmetric_storage_footprint():
    # balanced case, d not 1 mod 4: about V^2 / (8 sqrt d) stored counters
    f2 = field_new(2)
    v = 1000
    table = build_rep_table(f2, v, v, symmetric=True)
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
    assert correlation(field, v1, v2).n_value == expected


@st.composite
def edge_bounds(draw, d):
    """A box bound of each kind the table uses, with the hard cases: huge
    denominators, and V^(-1/2) equal to a lattice point (d V a rational square)."""
    kind = draw(st.sampled_from(("rational", "wide", "inv_sqrt", "on_lattice")))
    if kind == "rational":
        return RationalBound(d, Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 97))))
    if kind == "wide":
        den = draw(st.integers(10**9, 10**13))
        return RationalBound(d, Fraction(draw(st.integers(1, 10**4 * den)), den))
    if kind == "on_lattice":  # V^(-1/2) = t sqrt(d) / sigma is a lattice point
        v = Fraction(_sigma(d) ** 2, d * draw(st.integers(1, 60)) ** 2)
    else:
        v = draw(st.sampled_from([Fraction(20000), Fraction(1, 2)]) | st.fractions(
            Fraction(1, 100), 10**6, max_denominator=100))
    return InvSqrtBound(d, v)


def _edge_rows(draw):
    # the table's window asks for rows down to -sigma; past 2^53: Python ints
    start = draw(st.integers(-8, 0) | st.integers(0, 10**5) | st.integers(2**53, 2**60))
    return np.arange(start, start + draw(st.integers(1, 40)), dtype=np.int64)


@given(st.sampled_from(RING_DS), st.integers(0, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_edges_match_definition(d, k, data):
    """The edges of bound + k, as the window takes them: the edges of bound
    on the rows shifted down by k sigma, since lambda - k is (i - k sigma, j)."""
    sigma = _sigma(d)
    bound = data.draw(edge_bounds(d))
    rows = _edge_rows(data.draw)

    def ok(i, j):  # bound + k >= (i + j sqrt d)/sigma
        p, q = _doubled(i, j, sigma)
        return bound.allows(p - 2 * k, q, False)

    c = bound.ceil()  # the row cap rests on it: bound <= c < bound + 1
    assert not bound.allows(2 * c, 0, True) and bound.allows(2 * c - 2, 0, True)

    shifted = rows - k * sigma
    for i, hi, lo in zip(rows.tolist(), _max_j(bound, shifted, sigma).tolist(),
                         _min_j(bound, shifted, sigma).tolist()):
        assert ok(i, hi) and not ok(i, hi + 1), (i, hi)
        assert ok(i, -lo) and not ok(i, -(lo - 1)), (i, lo)


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
    assert correlation(field, v1, v2).n_value == correlation(field, v2, v1).n_value


def test_cell_overflow_guard(monkeypatch):
    # each square point adds at most 8 to a cell, so 8 * points bounds every counter
    field = field_new(2)
    table = build_rep_table(field, 60, 60)
    n_pts = len(table._square_points()[0])
    assert int(table.flat.max()) <= 8 * n_pts
    monkeypatch.setattr(corrsum, "_CELL_LIMIT", 8 * n_pts)
    build_rep_table(field, 60, 60)
    monkeypatch.setattr(corrsum, "_CELL_LIMIT", 8 * n_pts - 1)
    with pytest.raises(CapacityExceeded):
        build_rep_table(field, 60, 60)


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
    table = build_rep_table(field, v1, v2, symmetric=symmetric)
    m = _narrow_points(table)
    assert int(table.flat.max()) <= 8 * m
    narrow = 8 * m <= corrsum._NARROW_CELL_LIMIT
    assert table.flat.dtype == (np.uint16 if narrow else np.int32)


def test_narrow_cell_limit_picks_the_width(monkeypatch):
    # uint16 exactly when 8 m fits under the limit; both widths hold the same table
    field = field_new(5)
    m = _narrow_points(build_rep_table(field, 60, 60))
    built = {}
    for limit, dtype in ((8 * m, np.uint16), (8 * m - 1, np.int32)):
        monkeypatch.setattr(corrsum, "_NARROW_CELL_LIMIT", limit)
        table = build_rep_table(field, 60, 60)
        assert table.flat.dtype == dtype
        built[dtype] = (table.flat, correlation(field, 60, 60, table=table).n_value,
                        correlation_grid(field, 60, table=table))
    (flat_a, n_a, grid_a), (flat_b, n_b, grid_b) = built.values()
    assert (flat_a == flat_b).all() and n_a == n_b and (grid_a == grid_b).all()


def test_wide_edge_rows_charged_before_the_work():
    # a large denominator puts the row edges on Python ints, which cost more
    # per row than the int64 path; the guard must charge that before any row exists
    field = field_new(2)
    v1, v2 = Fraction(1, 10**9 + 7), Fraction(30000)
    correlation(field, v1, v2)  # warm up lazily built state
    tracemalloc.start()
    try:
        correlation(field, v1, v2)
        need = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with pytest.raises(CapacityExceeded):
        build_rep_table(field, v1, v2, memory_budget=need - 1)
    build_rep_table(field, v1, v2, memory_budget=2 * need)


def _reference_flat(table):
    """The accumulation the table kernel replaced: per square point, masks
    and np.add.at over every partner s >= t."""
    si, sj, sw = table._square_points()
    flat = np.zeros(table.cells, dtype=np.int32)
    for t in range(len(si)):
        ii, jj = si[t] + si[t:], sj[t] + sj[t:]
        ww = 2 * sw[t] * sw[t:]
        ww[0] //= 2
        keep = ii <= table.imax
        ii, jj, ww = ii[keep], jj[keep], ww[keep]
        keep = (jj >= table.y0[ii]) & (jj <= table.yhi[ii])
        ii, jj, ww = ii[keep], jj[keep], ww[keep]
        np.add.at(flat, table.row_start[ii] + ((jj - table.y0[ii]) >> 1), ww)
    return flat


def _box_bound(d):
    """A non-integer rational bound or a V^(-1/2) bound."""
    return (st.fractions(Fraction(1, 3), 60, max_denominator=7)
            | st.builds(lambda v: InvSqrtBound(d, v), st.integers(1, 3000)))


@given(st.sampled_from(RING_DS), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
@example(d=2, symmetric=True, data=None)
def test_build_matches_reference_accumulation(d, symmetric, data):
    field = field_new(d)
    if data is None:  # table scale
        v1 = v2 = Fraction(3001, 2)
    elif symmetric:
        v1 = v2 = data.draw(st.fractions(Fraction(1, 3), 60, max_denominator=7))
    else:
        v1, v2 = data.draw(_box_bound(d)), data.draw(_box_bound(d))
    table = build_rep_table(field, v1, v2, symmetric=symmetric)
    assert (table.flat == _reference_flat(table)).all()


def _window_cells(table):
    """Every integer cell (i, j) of the window on rows 0..imax, from the
    closed edges of the bounds on rows i - sigma (lambda - 1 is the cell
    (i - sigma, j)), not from the table's own row record."""
    sigma = table.sigma
    rows = np.arange(table.imax + 1, dtype=np.int64)
    top = corrsum._floor_div_sqrt(rows, 1, table.field.d)
    hi = np.minimum(top, _max_j(table.v1, rows - sigma, sigma))
    lo = np.maximum(-top, _min_j(table.v2, rows - sigma, sigma))
    return [(i, j) for i in rows.tolist() for j in range(int(lo[i]), int(hi[i]) + 1)]


@pytest.mark.parametrize("d", RING_DS)
def test_table_matches_brute_force_per_cell(d):
    # every window cell of a small full table, against a direct count
    field = field_new(d)
    table = build_rep_table(field, Fraction(9, 2), InvSqrtBound(d, Fraction(1, 3)),
                            symmetric=False)
    sigma = _sigma(d)
    for i, j in _window_cells(table):
        if (i - j) % 2 and sigma == 2:
            continue
        lam = field.element(i, j) if sigma == 2 else field.from_xy(i, j)
        assert table.lookup(i, j) == r_brute(field, lam), (i, j)


@given(st.sampled_from(RING_DS), st.integers(1, 40), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
@example(d=5, xmax=150, symmetric=True, include_zero=False)
def test_grid_matches_pointwise_on_every_ring_class(d, xmax, symmetric,
                                                    include_zero):
    field = field_new(d)
    grid = correlation_grid(field, xmax, include_lambda_zero=include_zero,
                            symmetric=symmetric)
    for v in range(1, xmax + 1):
        res = correlation(field, v, v, include_lambda_zero=include_zero)
        assert grid[v] == res.n_value, (d, v)


def test_grid_exact_past_float_precision():
    # scaling every cell by an odd c multiplies every product by c^2; the
    # products then reach about 2^60, where float64 sums drop low bits
    field = field_new(5)
    table = build_rep_table(field, 20, 20)
    plain = correlation_grid(field, 20, table=table)
    c = 2**25 + 1
    assert int(table.flat.max()) * c < 2**31 and int(plain[-1]) * c * c < 2**63
    table.flat = table.flat.astype(np.int32) * c  # cells at a wide table's scale
    assert (correlation_grid(field, 20, table=table) == plain * (c * c)).all()


def _reference_correlation(table, include_lambda_zero):
    """The correlation sum the product walk replaced: per-row dot products
    over runs of cells snapped to the row's parity, with a symmetric table
    folded onto j >= 0 (each j > 0 twice, the axis j = 0 once)."""

    def run_dot(rows, lo, hi):
        ln = (hi - lo) // 2 + 1
        used = ln > 0
        rows, lo, ln = rows[used], lo[used], ln[used]
        rows2 = rows + table.sigma
        a0 = table.row_start[rows] + ((lo - table.y0[rows]) >> 1)
        b0 = table.row_start[rows2] + ((lo - table.y0[rows2]) >> 1)
        flat = table.flat.astype(np.int64)
        return sum(int(np.dot(flat[a:a + n], flat[b:b + n]))
                   for a, b, n in zip(a0.tolist(), b0.tolist(), ln.tolist()))

    # the half-open box's edges per row: the closed edges, each moved one step
    # inward where the edge cell lies on the bound itself
    sigma = table.sigma
    rows = np.arange(table.imax + 1, dtype=np.int64)
    top = corrsum._floor_div_sqrt(rows, 1, table.field.d)
    hi = np.minimum(top, _max_j(table.v1, rows, sigma))
    lo = np.maximum(-top, _min_j(table.v2, rows, sigma))
    for i in rows.tolist():
        p, q = _doubled(i, int(hi[i]), sigma)
        hi[i] -= not table.v1.allows(p, q, True)
        p, q = _doubled(i, int(lo[i]), sigma)
        lo[i] += not table.v2.allows(p, -q, True)
    par = table._parity(rows)
    lo = corrsum._snap_up(lo, par)
    hi = corrsum._snap_down(hi, par)
    if not include_lambda_zero:
        hi[0] = lo[0] - 2  # row 0 holds lambda = 0 alone
    if not table.symmetric:
        return run_dot(rows, lo, hi)
    on_axis = (par == 0) & (lo <= 0) & (hi >= 0)
    axis = np.zeros(int(on_axis.sum()), dtype=np.int64)
    return 2 * run_dot(rows, 2 - par, hi) + run_dot(rows[on_axis], axis, axis)


@given(st.sampled_from(RING_DS), st.booleans(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
@example(d=2, symmetric=True, include_zero=True, data=None)
@example(d=2, symmetric=False, include_zero=False, data=None)
def test_correlation_matches_reference_route(d, symmetric, include_zero, data):
    field = field_new(d)
    if data is None:  # table scale
        v1 = v2 = Fraction(3001, 2)
    elif symmetric:
        v1 = v2 = data.draw(st.fractions(Fraction(1, 3), 60, max_denominator=7))
    else:
        v1, v2 = data.draw(_box_bound(d)), data.draw(_box_bound(d))
    table = build_rep_table(field, v1, v2, symmetric=symmetric)
    got = correlation(field, v1, v2, table=table, include_lambda_zero=include_zero)
    assert got.n_value == _reference_correlation(table, include_zero)


def test_correlation_exact_past_int64():
    # with every nonzero cell at 2^31 - 1 each product is about 2^62 (2^63
    # doubled), so the products of one band sum far past 2^63
    field = field_new(2)
    table = build_rep_table(field, 40, 40)
    table.flat = (table.flat > 0).astype(np.int32)  # a wide table's cells
    ones = correlation(field, 40, 40, table=table).n_value
    table.flat *= 2**31 - 1
    big = correlation(field, 40, 40, table=table).n_value
    assert ones > 2 and big == ones * (2**31 - 1) ** 2


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


@pytest.mark.parametrize("d", [2, 5])
def test_grid_from_a_larger_table(d):
    # cells of a table built for a larger box fall past the grid and are left out
    field = field_new(d)
    table = build_rep_table(field, 30, 30)
    assert (correlation_grid(field, 12, table=table) == correlation_grid(field, 12)).all()


# a table short of xmax on either side, or with an irrational side, lacks cells
# the grid needs: from (10, 10), N(15, 15) would read 964, not 1924
@pytest.mark.parametrize("v1, v2, xmax", [
    (10, 10, 15), (30, 10, 15), (10, 30, 15), (30, InvSqrtBound(2, Fraction(1, 900)), 12),
])
def test_grid_refuses_a_table_short_of_xmax(v1, v2, xmax):
    field = field_new(2)
    assert correlation(field, 15, 15).n_value == 1924
    table = build_rep_table(field, v1, v2)
    with pytest.raises(OutOfRange):
        correlation_grid(field, xmax, table=table)


def _reference_oracle(field, v1, v2, *, include_lambda_zero=True):
    """The group-sum oracle's loop before the per-lambda weights: the box
    test and r(lambda + 1) decided again for every quadruple."""
    b1 = make_bound(field, v1)
    b2 = make_bound(field, v2)
    d = field.d
    one = field.ring_class is RingClass.ONE_MOD_FOUR
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
    assert got == correlation(field, v1, v2, include_lambda_zero=include_zero).n_value


@pytest.mark.parametrize("d", RING_DS)
@pytest.mark.parametrize("include_zero", [True, False])
def test_inv_sqrt_bound_on_a_row_matches_oracle(d, include_zero):
    """1**(-1/2) = 1 and (1/9)**(-1/2) = 3 put a V^(-1/2) edge on the cell
    (sigma V, 0), alone or tied with the rational side, in either slot."""
    field = field_new(d)
    for w in (Fraction(1), Fraction(1, 9)):
        for q in (Fraction(3), Fraction(7, 2)):
            for v1, v2 in ((InvSqrtBound(d, w), q), (q, InvSqrtBound(d, w))):
                got = correlation(field, v1, v2, include_lambda_zero=include_zero).n_value
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
            table = build_rep_table(field, v1, v2)

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
    table = build_rep_table(field, v1, v2, symmetric=symmetric)
    low = _min_cells(table.v1, table.v2, table.sigma, symmetric)
    assert 0 <= low <= table.cells
    if low:
        # one byte short of the cells alone: refused before any row is computed
        with mock.patch.object(RepTable, "_compute_rows", side_effect=AssertionError):
            with pytest.raises(CapacityExceeded):
                build_rep_table(field, v1, v2, symmetric=symmetric, memory_budget=4 * low - 1)


def test_min_cells_is_tight_on_large_boxes():
    # the refusals it exists for sit well above the budget, but not by 2x
    for d, symmetric in ((2, True), (5, False), (41, True)):
        table = build_rep_table(field_new(d), 600, 600, symmetric=symmetric)
        low = _min_cells(table.v1, table.v2, table.sigma, symmetric)
        assert 0.9 * table.cells <= low <= table.cells, (d, low, table.cells)


@pytest.mark.parametrize("d", RING_DS)
def test_row_record_matches_window_definition(d):
    """Each row's stored j, and its window cells _window_lo(i)..yhi[i], are
    the cells of the row's parity with lambda, lambda^sigma >= 0 and lambda - 1,
    (lambda - 1)^sigma allowed by v1, v2; and lookup reads them as stated."""
    field, sigma = field_new(d), _sigma(d)
    rational = [Fraction(9, 2), Fraction(7), Fraction(10, 3)]
    inv_sqrt = [InvSqrtBound(d, Fraction(1, 9)), InvSqrtBound(d, Fraction(1, 20)),
                InvSqrtBound(d, Fraction(sigma**2, d))]
    boxes = [(v1, v2, False) for v1 in rational + inv_sqrt for v2 in rational + inv_sqrt]
    boxes += [(v, v, True) for v in rational + [Fraction(40)]]
    mirrored = 0
    for v1, v2, symmetric in boxes:
        table = build_rep_table(field, v1, v2, symmetric=symmetric)
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

        for i in range(table.imax + 1):
            par = table._parity(i)
            lattice = [j for j in window(i) if (j - par) % 2 == 0]
            y0, yhi = int(table.y0[i]), int(table.yhi[i])
            stored = [j for j in lattice if j >= 0] if symmetric else lattice
            assert list(range(y0, yhi + 1, 2)) == stored and yhi >= y0 - 2, (v1, v2, i)
            assert table.row_start[i + 1] - table.row_start[i] == len(stored)
            lo = int(table._window_lo(i))
            assert list(range(lo, yhi + 1, 2)) == lattice, (v1, v2, i)
            if lattice:  # one lattice step past either edge
                for j in (lo - 2, yhi + 2):
                    with pytest.raises(OutOfRange):
                        table.lookup(i, j)
            for j in (lo - 1, yhi + 1, yhi + 41):  # off parity, in the window or not
                assert table.lookup(i, j) == 0, (v1, v2, i, j)
            for j in lattice:
                if symmetric and j < 0:
                    assert table.lookup(i, j) == table.lookup(i, -j)
                    mirrored += table.lookup(i, j) > 0
        # no window cell of either parity past the last row
        assert not any(window(i) for i in range(table.imax + 1, table.imax + 4)), (v1, v2)
        for i in (-1, table.imax + 1):
            with pytest.raises(OutOfRange):
                table.lookup(i, table._parity(i))
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
