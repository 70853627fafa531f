"""Correlation sums over a box: the r-value accumulation table, the shifted
correlation N_D(V1, V2) = sum r(lambda) r(lambda+1), its deviation diagnostics
F and G, and a small-scale quadruple-enumeration oracle. correlation takes N
from the table or from the strip route of the strip module, whichever its cost
estimates favour; F always comes from the table.

Geometry and conventions
------------------------
A table cell is a lattice point (i, j) meaning lambda = (i + j*sqrt(d))/sigma
with sigma = 2 when d = 1 (mod 4) (doubled coordinates) and sigma = 1
otherwise. The stored window for box bounds (V1, V2) is the closed region

    lambda >= 0,  lambda^sigma >= 0,  lambda <= V1 + 1,  lambda^sigma <= V2 + 1,

so every lambda + 1 needed by the correlation is present; as lambda - 1 is
the cell (i - sigma, j), the upper edges are the box's own, sigma rows down.
N and the integer grid behind F take the products r(lambda) r(lambda + 1)
from one walk over the table, built band by band and stored by columns of
fixed j so that lambda + 1 is the cell after lambda's: the closed box
0 <= lambda <= V1, 0 <= lambda^sigma <= V2. The correlation's box is
half-open (lambda < V1, lambda^sigma < V2), so N's walk leaves out at most
one cell on j = 0, decided by exact integer sign tests; lambda = 0 is
included by default.

All bookkeeping is integer-exact. The window edges of every trace row come
from one closed form, the largest j with j m sqrt(d) <= R, which is
isqrt(R^2 // (m^2 d)) with its sign restored, evaluated over all rows at once
as int64 numpy arrays, and each column's rows are cut from them by binary
search. Each bound is bracketed between two rationals a/m and (a+1)/m, with m
small enough for int64 (an exact a/m for most rationals); the rare rows where
the two ends disagree are settled by the exact predicate. Floats only seed
the integer square root.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import isqrt, sqrt

import numpy as np

from .character import c_constant
from .errors import CapacityExceeded, OutOfRange, ScaleGuard, count_text
from .quadfield import FieldData, QuadInt, RingClass, _isqrt, sign_quad
from .strip import _strip, _strip_charge, _strip_estimate, _tally

DEFAULT_MEMORY_BUDGET = 2 << 30
ORACLE_QUADRUPLE_LIMIT = 10_000_000
# spacing of F's default checkpoints
F_CHECKPOINT_STEP = 5000
# largest value of an int32 table cell, and of a uint16 one
_CELL_LIMIT = 2**31 - 1
_NARROW_CELL_LIMIT = 2**16 - 1
# bytes per row: the peak of the int64 edge pass over all rows and of the column
# record cut from it, beyond the cells, under tracemalloc: at most 97 on d in {2, 3,
# 5}, 86-99 with denominators 10^9 to 10^33 (d in {2, 5, 1000003}); kept at 160
_ROW_BYTES = 160
# cells per band of the build, at most unless one column has more: 2 MiB of uint16
_BAND_CELLS = 1 << 20
# swept pairs per scatter of the build, at least unless a band has fewer
_BATCH_PAIRS = 1 << 14
# products per chunk of the product walk, at most
_WALK_CELLS = 1 << 14


# ---------------------------------------------------------------------------
# Exact box bounds. allows(p, q, strict) answers "bound >= (p + q sqrt d)/2"
# (or strictly greater), with (p, q) doubled coordinates.
# ---------------------------------------------------------------------------


class RationalBound:
    """An exact positive rational box bound."""

    __slots__ = ("d", "value", "_num", "_den")

    def __init__(self, d: int, value: Fraction):
        value = Fraction(value)
        if value <= 0:
            raise OutOfRange("box bounds must be positive")
        self.d = d
        self.value = value
        # Fraction's numerator and denominator are properties, read on every test
        self._num, self._den = value.numerator, value.denominator

    def allows(self, p: int, q: int, strict: bool) -> bool:
        den = self._den
        s = sign_quad(p * den - 2 * self._num, q * den, self.d)
        return s < 0 if strict else s <= 0

    def bracket(self, sigma: int, scale: int) -> tuple[int, int, bool]:
        """(a, m, exact) with a/m <= sigma*bound < (a+1)/m, and a/m equal to
        sigma*bound when exact; scale is the wanted m of an inexact bracket."""
        return sigma * self._num, self._den, True

    def ceil(self) -> int:
        return -(-self._num // self._den)

    def __float__(self) -> float:
        return float(self.value)

    def describe(self) -> str:
        return str(self.value)


class InvSqrtBound:
    """The bound v**(-1/2) for a positive rational v, kept exact by squaring."""

    __slots__ = ("d", "v", "_twice")

    def __init__(self, d: int, v: Fraction):
        v = Fraction(v)
        if v <= 0:
            raise OutOfRange("inverse-square-root bound needs v > 0")
        self.d = d
        self.v = v
        self._twice = RationalBound(d, 2 / v)

    def allows(self, p: int, q: int, strict: bool) -> bool:
        # lambda <= v^(-1/2) iff lambda <= 0 or 2 lambda^2 <= 2/v, and 2 lambda^2 has
        # the doubled coordinates (p^2 + d q^2, 2 p q), p^2 + d q^2 odd on mixed rows
        return (sign_quad(p, q, self.d) <= 0
                or self._twice.allows(p * p + self.d * q * q, 2 * p * q, strict))

    def bracket(self, sigma: int, scale: int) -> tuple[int, int, bool]:
        nv, dv = self.v.numerator, self.v.denominator
        return isqrt(sigma * sigma * dv * scale * scale // nv), scale, False

    def ceil(self) -> int:
        # smallest c with c^2 >= 1/v
        return isqrt(-(-self.v.denominator // self.v.numerator) - 1) + 1

    def __float__(self) -> float:
        return float(self.v.denominator / self.v.numerator) ** 0.5

    def describe(self) -> str:
        return f"{Fraction(self.v)}**(-1/2)"


Bound = RationalBound | InvSqrtBound


def make_bound(field: FieldData, value) -> Bound:
    if isinstance(value, (RationalBound, InvSqrtBound)):
        if value.d != field.d:
            raise OutOfRange("bound belongs to a different field")
        return value
    return RationalBound(field.d, Fraction(value))


# ---------------------------------------------------------------------------
# Window edges in closed form, for all rows at once.
# ---------------------------------------------------------------------------

# Every |R| and m * (isqrt(d) + 1) stay within this (_edge_plan), so R^2, m^2 d
# and the square-root corrections stay below 2^63.
_I64_ROOT = 1 << 31


def _doubled(i: int, j: int, sigma: int) -> tuple[int, int]:
    return (i, j) if sigma == 2 else (2 * i, 2 * j)


def _floor_div_sqrt(r: np.ndarray, m: int, d: int) -> np.ndarray:
    """Largest j with j m sqrt(d) <= r, elementwise. For r != 0 the ratio
    r / (m sqrt d) is irrational, so the floor of a negative one is -q - 1."""
    q = _isqrt(r * r // (m * m * d))
    return np.where(r >= 0, q, -q - 1)


def _edge_plan(bound: Bound, imax: int, sigma: int) -> tuple[int, int, bool]:
    """(a, m, exact) with a/m <= sigma*bound < (a+1)/m, equal when exact, for the
    int64 edges of rows |i| <= imax: bound.bracket at scale = max(1, 2^31 //
    (reach root)), root = isqrt(d) + 1, narrowed to the scale when m passes it.
    Every |R| <= |a| + 1 + m reach and m root stay within 2^31: |a| < reach m as
    reach > sigma bound, and m <= scale, so m reach <= 2^31 / root <= 2^30 when
    scale > 1 (root >= 2); at scale = 1, m = 1 and reach < 2^30, or it refuses."""
    root = isqrt(bound.d) + 1
    reach = imax + sigma * abs(bound.ceil()) + 2
    if reach >= 1 << 30:
        raise CapacityExceeded(f"rows reaching {count_text(reach)} pass the int64 edge limit 2^30")
    scale = max(1, _I64_ROOT // (reach * root))
    a, m, exact = bound.bracket(sigma, scale)
    if m > scale:
        a, m, exact = a * scale // m, scale, a * scale % m == 0
    return a, m, exact


def _max_j(bound: Bound, i: np.ndarray, sigma: int) -> np.ndarray:
    """Largest j with bound >= (i + j sqrt d)/sigma, for every row of the
    integer array i at once."""
    d = bound.d
    a, m, exact = _edge_plan(bound, int(np.abs(i).max(initial=0)), sigma)
    # j m sqrt(d) <= R with R = a - m i, at the lower end of the bracket
    r = a - m * i.astype(np.int64)
    j = _floor_div_sqrt(r, m, d)
    if not exact:
        upper = _floor_div_sqrt(r + 1, m, d)
        for row in np.flatnonzero(upper != j):  # they differ by one at most
            p, q = _doubled(int(i[row]), int(upper[row]), sigma)
            if bound.allows(p, q, False):
                j[row] = upper[row]
    return j


# sqrt(d) is bracketed as s/_SQRT_SCALE <= sqrt(d) < (s + 1)/_SQRT_SCALE
_SQRT_SCALE = 1 << 32


def _min_cells(v1: Bound, v2: Bound, sigma: int, symmetric: bool) -> int:
    """A lower bound, in exact integers, on the cells of the stored window of
    the box (v1, v2), whose closed edges are b1 = v1 + 1 and b2 = v2 + 1,
    from its area and before any row is computed.

    In the trace coordinates (i, j) the window is a parallelogram of area
    (sigma b1)(sigma b2) / (2 sqrt d), and row i holds the j of one parity
    in an interval of length l(i), so at least l(i)/2 - 1 cells. l is
    concave, so its sum over the rows falls short of the area by at most
    its maximum, sigma (b1 + b2) / (2 sqrt d). Symmetric storage keeps at
    least half of the cells.
    """
    s = isqrt(v1.d * _SQRT_SCALE * _SQRT_SCALE)
    a1, m1, _ = v1.bracket(sigma, _SQRT_SCALE)
    a2, m2, _ = v2.bracket(sigma, _SQRT_SCALE)
    # a/m brackets sigma v, so (a + sigma m)/m brackets sigma b
    a1, a2 = a1 + sigma * m1, a2 + sigma * m2
    c = v1.ceil() + v2.ceil() + 2  # ceil(b1) + ceil(b2)
    # half the area rounded down, half the peak rounded up, one per row
    half_area = a1 * a2 * _SQRT_SCALE // (4 * m1 * m2 * (s + 1))
    half_peak = -(-sigma * c * _SQRT_SCALE // (4 * s))
    rows = sigma * c // 2 + 1
    full = max(half_area - half_peak - rows, 0)
    return full // 2 if symmetric else full


def _equal_rationals(v1: Bound, v2: Bound) -> bool:
    """Whether the box is (V, V) for a rational V, which a table stores by halves."""
    return isinstance(v1, RationalBound) and isinstance(v2, RationalBound) and v1.value == v2.value


def _row_cap(v1: Bound, v2: Bound, sigma: int) -> int:
    """The last row a table of the box (v1, v2) may fill: 2i/sigma = lambda +
    lambda^sigma <= v1 + v2 + 2."""
    return sigma * (v1.ceil() + v2.ceil() + 2) // 2


# ---------------------------------------------------------------------------
# The accumulation table.
# ---------------------------------------------------------------------------


class RepTable:
    """Dense ragged table of r-values over the closed extended window.

    One record per column c of fixed j = j0 + c (sigma = 2) or j0 + 2c (odd j
    hold no sums of two squares when sigma = 1): its stored rows are i0[c],
    i0[c] + sigma, ..., ihi[c] (none when ihi[c] = i0[c] - sigma), and their
    counts, lambda + 1 right after lambda, are the slice flat[col_start[c]:
    col_start[c + 1]] of one flat array, uint16 when the square points prove
    every count fits and int32 otherwise. In symmetric mode (only for V1 = V2)
    just the j >= 0 half is stored and negative j is answered through r(lam) =
    r(lam^sigma).

    _build makes the cells in bands of whole columns into one buffer, flat: the
    whole table as one band for reads by position (_cells: lookup, value,
    write_csv), and one band at a time for the product walk (_walk).
    """

    def __init__(self, field: FieldData, v1, v2, *, symmetric: bool | None = None,
                 memory_budget: int | None = None):
        self.field = field
        self.sigma = 2 if field.ring_class is RingClass.ONE_MOD_FOUR else 1
        self.v1 = make_bound(field, v1)
        self.v2 = make_bound(field, v2)

        same = _equal_rationals(self.v1, self.v2)
        if symmetric is None:
            symmetric = same
        if symmetric and not same:
            raise OutOfRange("symmetric storage requires equal rational bounds")
        self.symmetric = symmetric

        # bound the rows before any row array exists; _compute_rows trims it to the
        # last filled row
        self.imax = _row_cap(self.v1, self.v2, self.sigma)
        self.cells = 0
        budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
        self._check_budget(budget)
        # the row cap bounds |i| and |i - sigma| in every later edge pass, so
        # _edge_plan refuses here, before any row exists, all that it would refuse there
        for v in (self.v1, self.v2):
            _edge_plan(v, self.imax, self.sigma)
        # a refusal the cells alone force needs no row pass
        self._check_budget(budget, _min_cells(self.v1, self.v2, self.sigma, symmetric))
        self._compute_rows()
        self._check_budget(budget)
        self._points = self._square_points()
        n_pts = len(self._points[0])
        # for a fixed t the partners hit distinct cells, adding at most 8 to each
        if 8 * n_pts > _CELL_LIMIT:
            raise CapacityExceeded(f"{n_pts} square points could overflow 32-bit cell counters")
        # a pair {t, s} on a cell of row i <= imax has a member t with 2 i_t <= imax,
        # and t fixes s; each pair adds at most 8, so no cell passes 8 m, m the
        # points with 2 i <= imax
        narrow = 8 * int(np.count_nonzero(2 * self._points[0] <= self.imax)) <= _NARROW_CELL_LIMIT
        self.dtype = np.uint16 if narrow else np.int32
        self.flat = None

    # -- geometry ---------------------------------------------------------

    def _compute_rows(self) -> None:
        d = self.field.d
        sigma = self.sigma
        i = np.arange(self.imax + 1, dtype=np.int64)
        top = _floor_div_sqrt(i, 1, d)  # lambda, lambda^sigma >= 0
        # lambda - 1 is the cell (i - sigma, j): lambda <= v1 + 1 is lambda - 1 <= v1
        mx = _max_j(self.v1, i - sigma, sigma)
        mn = -_max_j(self.v2, i - sigma, sigma)  # the smallest j with v2 + 1 >= lambda^sigma
        hi, lo = np.minimum(top, mx), np.maximum(-top, mn)
        # row 0 holds lambda = 0, as both bounds are positive: mx[0] >= 0 >= mn[0]
        self.imax = int(np.flatnonzero(hi >= lo)[-1])
        n = self.imax + 1
        # row i holds max(-top, mn) <= j <= min(top, mx), and top and mn rise while mx
        # falls: column j runs from the first row with top >= |j| to the last with
        # mx >= j and mn <= j. Stored: j >= 0 in symmetric storage, even j if sigma = 1
        step, jmin = 3 - sigma, 0 if self.symmetric else int(lo[:n].min())
        j = np.arange(jmin + jmin % step, int(hi[:n].max()) + 1, step)
        first = np.searchsorted(top, np.abs(j))
        last = np.minimum(np.searchsorted(-mx, -j, side="right"),
                          np.searchsorted(mn, j, side="right")) - 1
        if sigma == 2:  # a column's rows have i = j (mod 2)
            first, last = first + (first - j) % 2, last - (last - j) % 2
        self.j0 = int(j[0])
        self.i0 = first
        self.ihi = np.maximum(last, first - sigma)
        self.col_start = np.zeros(len(j) + 1, dtype=np.int64)
        np.cumsum((self.ihi - self.i0) // sigma + 1, out=self.col_start[1:])
        self.cells = int(self.col_start[-1])

    def _check_budget(self, budget: int, min_cells: int | None = None) -> None:
        """Refuse when the rows and cells known so far, or min_cells cells
        alone when given, need more than the budget in bytes. A cell is charged
        the 4 bytes of int32, an upper bound for a uint16 table or one band."""
        if min_cells is not None:
            need = min_cells * 4
            what = f"at least {count_text(need)} bytes (at least {count_text(min_cells)} cells)"
        else:
            rows = self.imax + 1
            need = self.cells * 4 + rows * _ROW_BYTES
            what = f"about {count_text(need)} bytes ({count_text(rows)} rows, {self.cells} cells)"
        if need > budget:
            raise CapacityExceeded(f"table needs {what} against a budget of {budget}")

    # -- population -------------------------------------------------------

    def _square_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct squares xi^2 inside the window as (i, j, multiplicity),
        one representative per {xi, -xi} pair."""
        d, sigma = self.field.d, self.sigma
        # xi = (A + B sqrt d)/2 with A = B (mod 2), both even unless sigma = 2,
        # has xi^2 in the cell (sigma (A^2 + d B^2)/4, sigma A B/2), row <= imax;
        # when A, B > 0 its twin (A - B sqrt d)/2 follows it with -j
        reach = 4 * self.imax // sigma
        A, B = np.meshgrid(np.arange(0, isqrt(reach) + 1, 3 - sigma),
                           np.arange(isqrt(reach // d) + 1), indexing="ij")
        keep = ((A - B) % 2 == 0) & (A * A + d * B * B <= reach)
        A, B = A[keep], B[keep]
        twin = (A > 0) & (B > 0)
        si = np.repeat(sigma * (A * A + d * B * B) // 4, 1 + twin)
        sj = np.repeat(sigma * A * B // 2, 1 + twin)
        sj[np.cumsum(1 + twin)[twin] - 1] *= -1
        sw = np.where(si > 0, 2, 1)
        # the window is mirror-symmetric in symmetric storage
        inside, _ = self._locate(si, np.abs(sj) if self.symmetric else sj)
        return si[inside], sj[inside], sw[inside]

    def _build(self, walk=None) -> None:
        """Accumulate the cells one band of whole columns at a time into one buffer,
        flat: without walk the whole table is one band, with walk each band is handed
        to walk(k0, cells) as the table's cells k0, k0 + 1, ..."""
        si, sj, sw = self._points
        dtype, sigma, start = self.dtype, self.sigma, self.col_start
        # a pair {t, s} adds 2 sw_t sw_s = 8 unless s = t, which adds sw_t^2 to
        # 2 xi_t^2 (a cell that can leave the window), or t is the zero point, which
        # adds 2 sw_s to xi_s^2; each pass hits distinct cells, so a plain scatter-add is exact
        nz = si > 0
        single = []
        for ii, jj, w in ((2 * si, 2 * sj, sw * sw), (si[nz], sj[nz], 2 * sw[nz])):
            stored, k = self._locate(ii, jj)
            single.append((k[stored], w[stored].astype(dtype)))
        order = np.lexsort((si[nz], sj[nz]))
        si, sj = si[nz][order], sj[nz][order]
        # xi_t^2 + xi_s^2 is on column c = u[t] + u[s] - u0, at (off[c] + i) >> (sigma - 1)
        u, u0, after = sj >> (2 - sigma), self.j0 >> (2 - sigma), np.arange(1, len(si) + 1)
        # a band's cells at most, unless one column has more: the whole table, or for a walk
        # _BAND_CELLS; a band takes the whole columns from a on that fit, at least one
        band = self.cells if walk is None else _BAND_CELLS
        buf = np.zeros(min(max(band, int(np.diff(start).max())), self.cells), dtype=dtype)
        eight = dtype(8)  # a Python 8 would take np.add.at's slow generic path
        a = 0
        while a < len(self.i0):
            b = max(a + 1, int(np.searchsorted(start, start[a] + band, side="right")) - 1)
            k0, k1 = int(start[a]), int(start[b])
            cells = buf[:k1 - k0]
            cells[:] = 0
            for k, w in single:
                at = (k >= k0) & (k < k1)
                cells[k[at] - k0] += w[at]
            # the partners of t on the band's columns: s in [lo[t], lo[t] + n[t]), s > t
            lo = np.maximum(np.searchsorted(u, a + u0 - u), after)
            n = np.maximum(np.searchsorted(u, b + u0 - u) - lo, 0)
            ends, off = np.cumsum(n), sigma * (start[:-1] - k0) - self.i0
            t0 = done = 0
            while t0 < len(n) and done < ends[-1]:
                # the points from t0 on with at least _BATCH_PAIRS pairs, their partners s
                # in one ragged arange; np.add.at adds a repeated cell each time. In place,
                # so that at most three arrays of pairs are alive at once
                t1 = min(int(np.searchsorted(ends, done + _BATCH_PAIRS)) + 1, len(n))
                m = n[t0:t1]
                s = np.repeat(lo[t0:t1] + m - (ends[t0:t1] - done), m)
                s += np.arange(len(s))
                c = u[s]
                c += np.repeat(u[t0:t1] - u0, m)
                s = si[s]  # the pair's row ii, then its cell
                s += np.repeat(si[t0:t1], m)
                # ii >= i0[c] needs no test: a sum of two squares is totally nonnegative,
                # so row ii has top = floor(ii / sqrt d) >= |jj|, and i0[c] is the first
                # row of jj's parity with top >= |jj| (_compute_rows)
                keep = s <= self.ihi[c]
                s += off[c]
                s >>= sigma - 1
                np.add.at(cells, s[keep], eight)
                t0, done = t1, int(ends[t1 - 1])
            s = c = keep = None  # the last batch's arrays go before the walk
            if walk is not None:
                walk(k0, cells)
            a = b
        self.flat = buf

    def _cells(self) -> np.ndarray:
        """The whole table's cells, built now unless the last build was one band."""
        if self.flat is None or len(self.flat) < self.cells:
            self._build()
        return self.flat

    # -- access -----------------------------------------------------------

    def _locate(self, i, j):
        """(stored, k) for cells (i, j) of the stored parity, int64 arrays:
        whether each is a stored cell, and if so its place flat[k]."""
        c = (j - self.j0) >> (2 - self.sigma)
        cc = c % len(self.i0)  # c itself when c names a column
        i0 = self.i0[cc]
        stored = (c == cc) & (i0 <= i) & (i <= self.ihi[cc])
        return stored, self.col_start[cc] + ((i - i0) >> (self.sigma - 1))

    def lookup(self, i: int, j: int) -> int:
        """r(lambda) for the cell (i, j) of a row 0..imax: 0 off the stored
        parity, where lambda is no ring element (sigma = 2) or has an odd sqrt(d)
        part (sigma = 1); OutOfRange for any other cell outside the window."""
        if not 0 <= i <= self.imax:
            raise OutOfRange(f"row {i} lies outside the stored window")
        if (j - (i & (self.sigma - 1))) % 2 != 0:  # j = i (mod 2) when sigma = 2, else even
            return 0
        stored, k = self._locate(i, abs(j) if self.symmetric else j)
        if not stored:
            raise OutOfRange(f"cell ({i}, {j}) lies outside the stored window")
        return self._cells().item(k)

    def value(self, lam: QuadInt) -> int:
        """r(lambda) for a ring element inside the window."""
        if lam.field.d != self.field.d:
            raise OutOfRange("element from another field")
        p, q = lam.p, lam.q
        if self.sigma == 2:
            return self.lookup(p, q)
        return self.lookup(p // 2, q // 2)  # QuadInt keeps p and q even when sigma = 1

    def write_csv(self, stream) -> None:
        """Full window as CSV: metadata line, header, one row per cell in
        (x, then y) order."""
        doubled = 1 if self.sigma == 2 else 0
        stream.write(f"# D={self.field.d} doubled={doubled}\n")
        writer = csv.writer(stream)
        writer.writerow(["x", "y", "r"])
        c = np.repeat(np.arange(len(self.i0)), np.diff(self.col_start))
        i = self.i0[c] + self.sigma * (np.arange(self.cells) - self.col_start[c])
        j = self.j0 + (3 - self.sigma) * c
        r = self._cells()
        if self.symmetric:  # the mirror cells (i, -j) of the columns j > 0
            m = j > 0
            i, j, r = (np.concatenate((x, y[m])) for x, y in ((i, i), (j, -j), (r, r)))
        order = np.lexsort((j, i))
        writer.writerows(zip(i[order].tolist(), j[order].tolist(), r[order].tolist()))


# ---------------------------------------------------------------------------
# Correlation over the half-open box.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationResult:
    d: int
    v1_label: str
    v2_label: str
    n_value: int
    main_term: float
    deviation: float
    lambda_zero_included: bool
    c_num: int
    c_den: int

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "v1": self.v1_label,
            "v2": self.v2_label,
            "n_value": self.n_value,
            "c_constant_num": self.c_num,
            "c_constant_den": self.c_den,
            "deviation": self.deviation,
        }


def _walk(table: RepTable, axis: list[int], visit) -> None:
    """Hand the products r(lambda) r(lambda + 1) to visit(k0, x, w, skip) band by
    band, x the cells k0, k0 + 1, ... of whole columns: the product of x[k] is
    x[k] x[k + 1], lambda + 1 being the next cell of the column, and counts w times,
    but not at a column's last cell (x[-1] is one), whose lambda + 1 is outside the
    window, nor at the positions skip, an int64 array, of the cells (i, 0) of the
    distinct rows i in axis. A symmetric table's cells with j > 0 stand for their
    mirrors -j too: from col_start[1] on, after the column j = 0, w = 2. The bands are
    _build's, handed on as it makes them, also when the whole table was built before."""
    start, sigma = table.col_start, table.sigma
    c0 = -table.j0 >> (2 - sigma)  # the column j = 0, whose row 0 is lambda = 0
    zero, last = int(start[c0]), int(start[c0 + 1]) - 1
    # j = 0 needs i = j (mod sigma); the column's last cell has no product to leave out
    skip = np.array([k for i in axis if i % sigma == 0 and (k := zero + i // sigma) < last],
                    dtype=np.int64)
    seam = int(start[1]) if table.symmetric else 0

    def band(k0: int, cells: np.ndarray) -> None:
        k1 = k0 + len(cells)
        for a, b, w in ((k0, min(k1, seam), 1), (max(k0, seam), k1, 1 + table.symmetric)):
            if b > a:
                visit(a, cells[a - k0:b - k0], w, skip[(a <= skip) & (skip < b)] - a)

    table._build(band)


def _strict_row_range(table: RepTable) -> int | None:
    """Row i of the one cell (i, 0) of the closed box outside the half-open
    box, or None. Off j = 0 no window cell meets an edge, and on j = 0 both
    embeddings are i/sigma, so only i = floor(sigma min(V1, V2)) can."""
    i = min(a // m for a, m, _ in (b.bracket(table.sigma, 1) for b in (table.v1, table.v2)))
    p, q = _doubled(i, 0, table.sigma)
    return None if table.v1.allows(p, q, True) and table.v2.allows(p, q, True) else i


def correlation(field: FieldData, v1, v2, *, table: RepTable | None = None,
                include_lambda_zero: bool = True,
                memory_budget: int | None = None) -> CorrelationResult:
    """N_D(v1, v2) = sum of r(lambda) r(lambda + 1) over the half-open box: from
    the given table of that box, or else by the route _route picks."""
    b1, b2 = make_bound(field, v1), make_bound(field, v2)
    if table is not None:
        if table.field.d != field.d:
            raise OutOfRange("supplied table was built for a different field")
        if table.v1.describe() != b1.describe() or table.v2.describe() != b2.describe():
            raise OutOfRange("supplied table was built for different bounds")
        n = _table_correlation(table, include_lambda_zero)
    else:
        n = _route(field, b1, b2, include_lambda_zero, memory_budget)
    c = c_constant(field)
    main = float(c) * float(b1) * float(b2)
    return CorrelationResult(
        d=field.d,
        v1_label=b1.describe(),
        v2_label=b2.describe(),
        n_value=n,
        main_term=main,
        deviation=n - main,
        lambda_zero_included=include_lambda_zero,
        c_num=c.numerator,
        c_den=c.denominator,
    )


def _table_correlation(table: RepTable, include_lambda_zero: bool) -> int:
    """N over the half-open box of the table's bounds, from the table's walk."""
    axis = [] if include_lambda_zero else [0]
    edge = _strict_row_range(table)
    if edge is not None:  # the closed box's cell on an edge of the half-open one
        axis.append(edge)
    ends = table.col_start[1:][table.ihi >= table.i0] - 1  # each nonempty column's last cell
    total = 0

    def add(k0: int, x: np.ndarray, w: int, skip: np.ndarray) -> None:
        nonlocal total
        # n products a dot, each at most m^2 for the largest cell m, keep every int64
        # partial sum within n m^2 < 2^63, so no dot wraps; a uint16 cell allows _WALK_CELLS
        m = _NARROW_CELL_LIMIT if x.dtype == np.uint16 else int(x.max())
        n = min(_WALK_CELLS, (2**63 - 1) // max(1, m * m))
        s = 0
        for a in range(0, len(x) - 1, n):
            y = x[a:a + n + 1].astype(np.int64)
            s += int(np.dot(y[:-1], y[1:]))
        # less the products at the column ends and at the axis cells, one gathered dot
        e = np.append(ends[ends.searchsorted(k0):ends.searchsorted(k0 + len(x) - 1)] - k0, skip)
        y, z = x.take(e).astype(np.int64), x[1:].take(e)
        for a in range(0, len(e), n):
            s -= int(np.dot(y[a:a + n], z[a:a + n]))
        total += w * s

    _walk(table, axis, add)
    return total


# the routes' cost estimates in ns: fixed, per table row and cell, per strip
# element and pair, fitted to both routes' in-process times (best of 8) over the
# 600 seed-1 boxes of the benchmark's oracle workload and 84 thin, balanced and
# mixed boxes up to V = 2 10^5 (median error 5% and 3%; 2-vCPU Xeon)
_TABLE_COST = (260_000, 120, 8)
_STRIP_COST = (105_000, 220, 195)
# the strip is taken where its estimate is under the table's over this factor:
# where the two are close the box stays on the table, the route whose stages the
# benchmark's per-layer tracer reads
_STRIP_MARGIN = 2


def _route(field: FieldData, b1: Bound, b2: Bound, include_lambda_zero: bool,
           memory_budget: int | None) -> int:
    """N by the strip where its estimate is under the table's by _STRIP_MARGIN,
    or where the table refuses the box and the strip does not; else by the
    table. The estimates are exact integers made before any array: the strip's
    elements and pairs, and the table's row cap and _min_cells."""
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    try:
        n, pairs = _strip_estimate(field, b1, b2)
        _strip_charge(n, pairs, budget)
    except CapacityExceeded:
        strip = None
    else:
        s0, s1, s2 = _STRIP_COST
        strip = s0 + s1 * n + s2 * pairs
    sigma = 2 if field.ring_class is RingClass.ONE_MOD_FOUR else 1
    t0, t1, t2 = _TABLE_COST
    rows, cells = _row_cap(b1, b2, sigma) + 1, _min_cells(b1, b2, sigma, _equal_rationals(b1, b2))
    if strip is None or t0 + t1 * rows + t2 * cells <= _STRIP_MARGIN * strip:
        try:
            table = RepTable(field, b1, b2, memory_budget=memory_budget)
        except CapacityExceeded:
            if strip is None:
                raise
        else:
            return _table_correlation(table, include_lambda_zero)
    return _strip(field, b1, b2, include_lambda_zero, budget)


# ---------------------------------------------------------------------------
# Integer-grid N(V, V) for the deviation diagnostics.
# ---------------------------------------------------------------------------


def correlation_grid(field: FieldData, xmax: int, *, include_lambda_zero: bool = True,
                     memory_budget: int | None = None) -> np.ndarray:
    """N_D(V, V) for every integer V = 0..xmax, xmax >= 1, as one int64 array,
    from the table of the box (xmax, xmax), which stores the columns j >= 0 alone.

    The products of _walk are bucketed by the first integer V whose box
    contains their cell, which is floor(max(lambda, lambda^sigma)) + 1, and
    the buckets are prefix-summed.
    """
    if xmax < 1:
        raise OutOfRange("xmax must be >= 1")
    table = RepTable(field, xmax, xmax, memory_budget=memory_budget)
    buckets = np.zeros((2, xmax + 1), dtype=np.int64)  # the products counted once, twice

    # max(lambda, lambda^sigma) = (i + floor(j sqrt d)) / sigma rises by one per
    # cell of a column, so the bucket of the cell k of column c is k + shift[c]
    # (a column's |j| sqrt d is at most imax, so j^2 d <= imax^2 < 2^60)
    j = table.j0 + (3 - table.sigma) * np.arange(len(table.i0))
    fl = _isqrt(j * j * field.d)
    shift = ((table.i0 + fl) // table.sigma + 1 - table.col_start[:-1]).tolist()
    starts = table.col_start.tolist()

    def bucket(k0: int, x: np.ndarray, w: int, skip: np.ndarray) -> None:
        out = buckets[w - 1]
        # a slice per column, short of its last cell; none past the grid
        for c in range(bisect_left(starts, k0), bisect_left(starts, k0 + len(x))):
            lo, hi = starts[c], min(starts[c + 1] - 1, xmax + 1 - shift[c])
            if hi > lo:
                p = x[lo - k0:hi - k0].astype(np.int64)
                p *= x[lo - k0 + 1:hi - k0 + 1]
                out[lo + shift[c]:hi + shift[c]] += p
        for k in skip:  # the axis cells' products leave their buckets, if on the grid
            v = k0 + k + shift[bisect_right(starts, k0 + k) - 1]
            out[v:v + 1] -= x.item(k) * x.item(k + 1)

    _walk(table, [] if include_lambda_zero else [0], bucket)
    return np.cumsum(buckets[0] + 2 * buckets[1])


@dataclass(frozen=True)
class FCheckpoint:
    """F at one checkpoint: the running maximum of |N(V,V) - C_D V^2| over
    the integer grid, both for V < x (strict) and V <= x (inclusive)."""

    x: int
    f_strict: Fraction
    f_inclusive: Fraction


def f_deviation(field: FieldData, xmax: int, checkpoints: list[int] | None = None,
                *, include_lambda_zero: bool = True,
                memory_budget: int | None = None) -> list[FCheckpoint]:
    """Deviation suprema on the integer grid V in {1, ..., xmax}, at the given
    checkpoints; by default (None or empty) at every multiple of
    F_CHECKPOINT_STEP up to xmax, or at xmax alone below the first."""
    if xmax < 1:
        raise OutOfRange("xmax must be >= 1")
    if not checkpoints:  # a lazy range: nothing is spent on it before the table's guards
        checkpoints = range(F_CHECKPOINT_STEP, xmax + 1, F_CHECKPOINT_STEP) or [xmax]
    elif any(c < 1 or c > xmax for c in checkpoints):
        raise OutOfRange("checkpoints must lie in [1, xmax]")
    grid = correlation_grid(field, xmax, include_lambda_zero=include_lambda_zero,
                            memory_budget=memory_budget)
    c = c_constant(field)
    num, den = c.numerator, c.denominator
    running = [0] * (xmax + 1)
    for v in range(1, xmax + 1):
        running[v] = max(running[v - 1], abs(int(grid[v]) * den - num * v * v))
    out = []
    for cpt in sorted(set(checkpoints)):
        out.append(FCheckpoint(
            x=cpt,
            f_strict=Fraction(running[cpt - 1], den),  # running[0] = 0
            f_inclusive=Fraction(running[cpt], den),
        ))
    return out


def g_ratio(field: FieldData, v, *, include_lambda_zero: bool = True,
            memory_budget: int | None = None) -> tuple[int, float]:
    """(N, G) for rational v > 1: N = N_D(v, v**(-1/2)) and the thin ratio
    G = N / (C_D sqrt(v))."""
    v = Fraction(v)
    if v <= 1:
        raise OutOfRange("g_ratio needs v > 1")
    res = correlation(field, v, InvSqrtBound(field.d, v),
                      include_lambda_zero=include_lambda_zero, memory_budget=memory_budget)
    return res.n_value, res.n_value / (float(Fraction(res.c_num, res.c_den)) * sqrt(v))


# ---------------------------------------------------------------------------
# Quadruple-enumeration oracle (independent of the table route).
# ---------------------------------------------------------------------------

# ordered pairs a band of the oracle's tally holds, unless one P alone has more
_ORACLE_BAND_PAIRS = 1 << 18


def oracle_guard(field: FieldData, v1, v2) -> tuple[Bound, Bound, int]:
    """(b1, b2, smax) of the group oracle on the box (v1, v2): its two bounds and
    the largest doubled norm of its pairs. Raises ScaleGuard, before any array
    exists, when the work would pass roughly ORACLE_QUADRUPLE_LIMIT quadruples.
    A caller that also builds the box's table calls this first, so neither
    route's work starts before both routes' guards have passed."""
    b1 = make_bound(field, v1)
    b2 = make_bound(field, v2)
    # the pair ((c1 + c2 sqrt d)/2, (e1 + e2 sqrt d)/2) reaches lambda =
    # (P + Q sqrt d)/2 with c1^2 + d c2^2 + e1^2 + d e2^2 = 2 P. A lambda in
    # the box has P < v1 + v2 <= ceil(v1) + ceil(v2), so all pairs of
    # lambda + 1 (2 P + 4) are within smax: count[lambda + 1] = r(lambda + 1)
    smax = 2 * (b1.ceil() + b2.ceil()) + 4
    # the work estimate 100 + 4.935 smax^2 / (d p) from the same bound, p = 4 when
    # d = 1 mod 4 and 16 otherwise, compared in exact integers at any magnitude
    dp = field.d * (4 if field.ring_class is RingClass.ONE_MOD_FOUR else 16)
    work = 20000 * dp + 987 * smax * smax  # the estimate times 200 d p
    if work > 200 * dp * ORACLE_QUADRUPLE_LIMIT:
        est = Decimal(work) / (200 * dp)
        raise ScaleGuard(f"estimated work {est:.3g} exceeds {ORACLE_QUADRUPLE_LIMIT}")
    return b1, b2, smax


def correlation_group_oracle(field: FieldData, v1, v2, *,
                             include_lambda_zero: bool = True) -> int:
    """Count quadruples (g1, g2, g3, g4) in O^4 with g1^2 + g2^2 =
    g3^2 + g4^2 + 1 and g3^2 + g4^2 in the half-open box.

    This enumerates the matrix set behind the correlation identity, so it
    must return exactly correlation(...).n_value. Every ordered pair (g, g')
    reaches lambda = g^2 + g'^2 = (P + Q sqrt d)/2; the sum is taken over the
    distinct lambdas in the box, each count of pairs times the count of
    lambda + 1 = (P + 2 + Q sqrt d)/2. The pairs are built and tallied with
    numpy in bands of P: the band [P0, P1) builds the pairs with
    P0 <= P < P1 + 2, so it holds its own lambdas and their lambda + 1, and
    the band totals add up. A pair's key (P - P0)(2w + 1) + Q + w, with
    w = smax // 2 + 1 > |Q|, orders the band by (P, Q), and lambda + 1 is
    the key 2(2w + 1) further on. The keys stay below (smax/2 + 1)(smax + 3),
    which oracle_guard keeps under 2^50 (smax^2 <= 2.1e6 d p, and d p = 4 Delta
    <= 4 MAX_DELTA); that they stay below 2^62 is asserted. Only usable on small
    boxes: oracle_guard refuses the rest before any array exists.
    """
    b1, b2, smax = oracle_guard(field, v1, v2)
    d = field.d
    one = field.ring_class is RingClass.ONE_MOD_FOUR
    # (g, g') reaches P = (n + n')/2 and Q = pq + pq', with n = c1^2 + d c2^2 and
    # pq = c1 c2 for g = (c1 + c2 sqrt d)/2. A lambda whose lambda + 1 is reached
    # has P + 2 <= smax/2, so P < pend; |Q| <= (n + n')/(2 sqrt d) < w
    pend, w = smax // 2 - 1, smax // 2 + 1
    row = 2 * w + 1
    assert (pend + 2) * row < 1 << 62

    # the elements with n <= smax, c1 = c2 (mod 2) when d = 1 mod 4 and both even
    # otherwise, so that n is even; sorted by h = n/2, each with e = h row + pq, so
    # that a pair's key is e + e' - P0 row + w
    step = 1 if one else 2
    m1, m2 = isqrt(smax), isqrt(smax // d)
    c1 = np.arange(m1 % step - m1, m1 + 1, step)
    c2 = np.arange(m2 % step - m2, m2 + 1, step)[:, None]
    n = c1 * c1 + d * c2 * c2
    keep = (n <= smax) & ((c1 - c2) % 2 == 0)
    h = n[keep] >> 1
    order = h.argsort()
    h, e = h[order], (h * row + (c1 * c2)[keep])[order]

    def below(p: int) -> int:  # ordered pairs with P < p
        return int(h.searchsorted(p - h).sum())

    pairs = below(pend + 2)
    total = 0
    p0 = 0
    while p0 < pend:
        lo = h.searchsorted(p0 - h)
        # the largest P1 <= pend whose band holds at most _ORACLE_BAND_PAIRS pairs,
        # and at least P0 + 1
        cap = int(lo.sum()) + _ORACLE_BAND_PAIRS
        p1 = pend
        if pairs > cap:
            p1 = p0 + max(1, bisect_right(range(p0 + 1, pend), cap,
                                          key=lambda p: below(p + 2)))
        # the partners of the t-th element are h[lo[t]:lo[t] + cnt[t]], one ragged arange
        cnt = h.searchsorted(p1 + 2 - h) - lo
        part = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        key = np.repeat(e, cnt) + e[part] + (w - p0 * row)
        del part
        key.sort()

        def decode(keys, p0=p0):
            high, low = np.divmod(keys, row)  # P - P0 and Q + w
            return high + p0, low - w

        total += _tally(key, None, 2 * row, (p1 - p0) * row, decode, b1, b2,
                        include_lambda_zero)
        p0 = p1
    return total
