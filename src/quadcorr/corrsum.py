"""Correlation sums over a box: the r-value accumulation table, the shifted
correlation N_D(V1, V2) = sum r(lambda) r(lambda+1), its deviation diagnostics
F and G, and a small-scale quadruple-enumeration oracle.

Geometry and conventions
------------------------
A table cell is a lattice point (i, j) meaning lambda = (i + j*sqrt(d))/sigma
with sigma = 2 when d = 1 (mod 4) (doubled coordinates) and sigma = 1
otherwise. The stored window for box bounds (V1, V2) is the closed region

    lambda >= 0,  lambda^sigma >= 0,  lambda <= V1 + 1,  lambda^sigma <= V2 + 1,

so every lambda + 1 needed by the correlation is present; as lambda - 1 is
the cell (i - sigma, j), the upper edges are the box's own, sigma rows down.
N and the integer grid behind F take the products r(lambda) r(lambda + 1)
from one banded walk over the stored cells: the closed box 0 <= lambda <= V1,
0 <= lambda^sigma <= V2. The correlation's box is half-open (lambda < V1,
lambda^sigma < V2), so N is the walk's sum minus at most one cell on j = 0,
decided by exact integer sign tests; lambda = 0 is included by default.

All bookkeeping is integer-exact. The window edges of every trace row come
from one closed form, the largest j with j m sqrt(d) <= R, which is
isqrt(R^2 // (m^2 d)) with its sign restored, evaluated over all rows at once
as numpy arrays (int64 where the magnitudes provably fit, Python ints
otherwise). An irrational bound such as V^(-1/2) is bracketed between two
rationals a/m and (a+1)/m; the rare rows where the two ends disagree are
settled by the exact predicate. Floats only seed the integer square root and
carry integer sums kept below 2^53, where they are exact.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt

import numpy as np

from .character import c_constant
from .errors import CapacityExceeded, OutOfRange, ScaleGuard
from .quadfield import FieldData, QuadInt, RingClass, sign_quad

DEFAULT_MEMORY_BUDGET = 2 << 30
MEMORY_BUDGET_ENV = "QUADCORR_MEM_BUDGET"
ORACLE_QUADRUPLE_LIMIT = 10_000_000
# largest value of an int32 table cell, and of a uint16 one
_CELL_LIMIT = 2**31 - 1
_NARROW_CELL_LIMIT = 2**16 - 1
# bytes per row: the row record (24) plus the peak of an int64 edge pass
# over all rows (measured at most 96); kept at 160 as an upper bound, so that
# no refusal point moves
_ROW_BYTES = 160
# bytes per row when the edges need Python ints: the peak of the table build
# and of the strict edge pass it once had, at most 214 plus 12 per 30-bit digit
# of the largest |R| under tracemalloc (d in {2, 3, 5, 7, 13, 17}, denominators
# 10^9 to 10^400); kept as an upper bound, so that no refusal point moves
_WIDE_ROW_BYTES = 240
_DIGIT_BYTES = 12
# cells per band of the product walk
_BAND_CELLS = 1 << 14


# ---------------------------------------------------------------------------
# Exact box bounds. allows(p, q, strict) answers "bound >= (p + q sqrt d)/2"
# (or strictly greater), with (p, q) doubled coordinates.
# ---------------------------------------------------------------------------


class RationalBound:
    """An exact rational box bound."""

    __slots__ = ("d", "value")

    def __init__(self, d: int, value: Fraction):
        self.d = d
        self.value = Fraction(value)

    def allows(self, p: int, q: int, strict: bool) -> bool:
        num, den = self.value.numerator, self.value.denominator
        s = sign_quad(p * den - 2 * num, q * den, self.d)
        return s < 0 if strict else s <= 0

    def bracket(self, sigma: int, scale: int) -> tuple[int, int, bool]:
        """(a, m, exact) with a/m <= sigma*bound < (a+1)/m, and a/m equal to
        sigma*bound when exact; scale is the wanted m of an inexact bracket."""
        return sigma * self.value.numerator, self.value.denominator, True

    def ceil(self) -> int:
        return -(-self.value.numerator // self.value.denominator)

    def is_positive(self) -> bool:
        return self.value > 0

    def __float__(self) -> float:
        return float(self.value)

    def describe(self) -> str:
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class InvSqrtBound:
    """The bound v**(-1/2) for a positive rational v, kept exact by squaring."""

    __slots__ = ("d", "v")

    def __init__(self, d: int, v: Fraction):
        v = Fraction(v)
        if v <= 0:
            raise OutOfRange("inverse-square-root bound needs v > 0")
        self.d = d
        self.v = v

    def allows(self, p: int, q: int, strict: bool) -> bool:
        s_lam = sign_quad(p, q, self.d)
        if s_lam < 0:
            return True
        if s_lam == 0:
            return True  # bound is strictly positive
        # lambda > 0: compare lambda^2 * v against 1 exactly
        nv, dv = self.v.numerator, self.v.denominator
        a = (p * p + self.d * q * q) * nv - 4 * dv
        b = 2 * p * q * nv
        s = sign_quad(a, b, self.d)
        return s < 0 if strict else s <= 0

    def bracket(self, sigma: int, scale: int) -> tuple[int, int, bool]:
        nv, dv = self.v.numerator, self.v.denominator
        return isqrt(sigma * sigma * dv * scale * scale // nv), scale, False

    def ceil(self) -> int:
        # smallest c with c^2 >= 1/v
        return isqrt(-(-self.v.denominator // self.v.numerator) - 1) + 1

    def is_positive(self) -> bool:
        return True

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

# The int64 path is taken when every |R| and m * (isqrt(d) + 1) stay within
# this, so R^2, m^2 d and the square-root corrections stay below 2^63.
_I64_ROOT = 1 << 31
# bracket scale on the Python-int path: ends disagree on about 1 row in 2^64
_WIDE_SCALE = 1 << 64


def _doubled(i: int, j: int, sigma: int) -> tuple[int, int]:
    return (i, j) if sigma == 2 else (2 * i, 2 * j)


def _isqrt(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) elementwise, for int64 x below 2^62 or object x >= 0."""
    if x.dtype == object:
        return np.frompyfunc(isqrt, 1, 1)(x)
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)  # off by at most one
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _floor_div_sqrt(r: np.ndarray, m: int, d: int) -> np.ndarray:
    """Largest j with j m sqrt(d) <= r, elementwise. For r != 0 the ratio
    r / (m sqrt d) is irrational, so the floor of a negative one is -q - 1."""
    q = _isqrt(r * r // (m * m * d))
    return np.where(r >= 0, q, -q - 1)


def _edge_plan(bound: Bound, imax: int, sigma: int) -> tuple[int, int, bool, int]:
    """(a, m, exact, digits) for the edges of rows |i| <= imax: the bracket a/m
    of sigma*bound from bound.bracket, and digits 0 when the edges fit int64,
    else the 30-bit digits of the largest |R| that Python ints must hold."""
    root = isqrt(bound.d) + 1
    reach = imax + sigma * abs(bound.ceil()) + 2
    a, m, exact = bound.bracket(sigma, _I64_ROOT // (reach * root) or _WIDE_SCALE)
    top = abs(a) + 1 + m * reach
    wide = top > _I64_ROOT or m * root > _I64_ROOT
    return a, m, exact, top.bit_length() // 30 + 1 if wide else 0


def _max_j(bound: Bound, i: np.ndarray, sigma: int) -> np.ndarray:
    """Largest j with bound >= (i + j sqrt d)/sigma, for every row of the
    integer array i at once."""
    d = bound.d
    a, m, exact, digits = _edge_plan(bound, int(np.abs(i).max(initial=0)), sigma)
    # j m sqrt(d) <= R with R = a - m i, at the lower end of the bracket
    r = a - m * i.astype(object if digits else np.int64)
    j = _floor_div_sqrt(r, m, d)
    if not exact:
        upper = _floor_div_sqrt(r + 1, m, d)
        for row in np.flatnonzero(upper != j):  # they differ by one at most
            p, q = _doubled(int(i[row]), int(upper[row]), sigma)
            if bound.allows(p, q, False):
                j[row] = upper[row]
    return j


def _min_j(bound: Bound, i: np.ndarray, sigma: int) -> np.ndarray:
    """Smallest j with bound >= (i - j sqrt d)/sigma, per row."""
    return -_max_j(bound, i, sigma)


def _snap_up(j: int, parity: int) -> int:
    return j + ((parity - j) % 2)


def _snap_down(j: int, parity: int) -> int:
    return j - ((j - parity) % 2)


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


def _memory_budget(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(MEMORY_BUDGET_ENV)
    if env:
        return int(env)
    return DEFAULT_MEMORY_BUDGET


# ---------------------------------------------------------------------------
# The accumulation table.
# ---------------------------------------------------------------------------


class RepTable:
    """Dense ragged table of r-values over the closed extended window.

    One record per row i: the stored j are y0[i], y0[i] + 2, ..., yhi[i]
    (none when yhi[i] = y0[i] - 2), and their counts are the slice
    flat[row_start[i]:row_start[i + 1]] of one flat array, uint16 when
    _build proves every count fits and int32 otherwise. In symmetric mode
    (only for V1 = V2) just the j >= 0 half is stored and negative j is
    answered through r(lam) = r(lam^sigma). The window's cells of the
    stored parity in row i are _window_lo(i), ..., yhi[i].
    """

    def __init__(self, field: FieldData, v1, v2, *, symmetric: bool | None = None,
                 memory_budget: int | None = None):
        self.field = field
        self.sigma = 2 if field.ring_class is RingClass.ONE_MOD_FOUR else 1
        self.v1 = make_bound(field, v1)
        self.v2 = make_bound(field, v2)
        if not (self.v1.is_positive() and self.v2.is_positive()):
            raise OutOfRange("box bounds must be positive")

        same = (
            isinstance(self.v1, RationalBound)
            and isinstance(self.v2, RationalBound)
            and self.v1.value == self.v2.value
        )
        if symmetric is None:
            symmetric = same
        if symmetric and not same:
            raise OutOfRange("symmetric storage requires equal rational bounds")
        self.symmetric = symmetric

        # bound the rows before any row array exists: 2i/sigma = lambda +
        # lambda^sigma <= v1 + v2 + 2; _compute_rows trims it to the last filled row
        self.imax = self.sigma * (self.v1.ceil() + self.v2.ceil() + 2) // 2
        # the row cap bounds |i| and |i - sigma| in every later edge pass, so
        # it also fixes their path
        digits = max(_edge_plan(v, self.imax, self.sigma)[3] for v in (self.v1, self.v2))
        self.row_bytes = _WIDE_ROW_BYTES + _DIGIT_BYTES * digits if digits else _ROW_BYTES
        self.cells = 0
        self._check_budget(memory_budget)
        # a refusal the cells alone force needs no row pass
        self._check_budget(memory_budget, _min_cells(self.v1, self.v2, self.sigma, symmetric))
        self._compute_rows()
        self._check_budget(memory_budget)
        self._build()

    # -- geometry ---------------------------------------------------------

    def _parity(self, i):
        """Parity of the stored j in row i (an int or an int64 array): i mod 2
        in doubled coordinates, else 0."""
        return i & (self.sigma - 1)

    def _compute_rows(self) -> None:
        d = self.field.d
        sigma = self.sigma
        i = np.arange(self.imax + 1, dtype=np.int64)
        top = _floor_div_sqrt(i, 1, d)  # lambda, lambda^sigma >= 0
        # lambda - 1 is the cell (i - sigma, j): lambda <= v1 + 1 is lambda - 1 <= v1
        hi = np.minimum(top, _max_j(self.v1, i - sigma, sigma))
        lo = np.maximum(-top, _min_j(self.v2, i - sigma, sigma))
        filled = np.flatnonzero(hi >= lo)
        if not len(filled):
            raise OutOfRange("empty window")
        n = int(filled[-1]) + 1
        self.imax = n - 1
        # the window is convex and holds (0, 0), so lo <= hi + 1 and yhi >= y0 - 2;
        # symmetric storage keeps only j >= 0, the mirror half follows from conjugation
        par = self._parity(i[:n])
        self.y0 = _snap_up(par if self.symmetric else lo[:n].astype(np.int64), par)
        self.yhi = _snap_down(hi[:n].astype(np.int64), par)
        self.row_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum((self.yhi - self.y0) // 2 + 1, out=self.row_start[1:])
        self.cells = int(self.row_start[-1])

    def _check_budget(self, memory_budget: int | None, min_cells: int | None = None) -> None:
        """Refuse when the rows and cells known so far, or min_cells cells
        alone when given, need more than the budget. A cell is charged the
        4 bytes of int32, an upper bound for a table _build makes uint16."""
        budget = _memory_budget(memory_budget)
        if min_cells is not None:
            need = min_cells * 4
            what = f"at least {need} bytes (at least {min_cells} cells)"
        else:
            rows = self.imax + 1
            need = self.cells * 4 + rows * self.row_bytes
            what = f"about {need} bytes ({rows} rows, {self.cells} cells)"
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
        inside = (self._window_lo(si) <= sj) & (sj <= self.yhi[si])
        return si[inside], sj[inside], sw[inside]

    def _build(self) -> None:
        si, sj, sw = self._square_points()
        n_pts = len(si)
        # for a fixed t the partners hit distinct cells, adding at most 8 to each
        if 8 * n_pts > _CELL_LIMIT:
            raise CapacityExceeded(f"{n_pts} square points could overflow 32-bit cell counters")
        # a pair {t, s} on a cell of row i <= imax has a member t with 2 i_t <= imax,
        # and t fixes s; each pair adds at most 8, so no cell passes 8 m, m the
        # points with 2 i <= imax
        narrow = 8 * int(np.count_nonzero(2 * si <= self.imax)) <= _NARROW_CELL_LIMIT
        dtype = np.uint16 if narrow else np.int32
        order = np.lexsort((sj, si))
        si, sj, sw = si[order], sj[order], sw[order].astype(dtype)
        # the partners s >= t of t that stay within row imax are s in [t, cut[t]);
        # cut falls as t rises, so the t with any partner come first
        cut = np.searchsorted(si, self.imax - si, side="right")
        y0, yhi, off = self.y0, self.yhi, self._offsets()
        flat = np.zeros(self.cells, dtype=dtype)
        for t in range(int(np.count_nonzero(cut > np.arange(n_pts)))):
            c = int(cut[t])
            ii = si[t:c] + si[t]
            jj = sj[t:c] + sj[t]
            keep = np.flatnonzero((jj >= y0[ii]) & (jj <= yhi[ii]))
            ww = sw[t:c][keep] * (2 * sw[t])
            if len(keep) and keep[0] == 0:
                ww[0] //= 2  # s = t is one ordered pair, not two
            # s -> xi_t^2 + xi_s^2 is a translation and the xi_s^2 are distinct,
            # so the cells of one t are distinct and a plain scatter-add is exact
            flat[(off[ii[keep]] + jj[keep]) >> 1] += ww
        self.flat = flat

    # -- access -----------------------------------------------------------

    def _offsets(self) -> np.ndarray:
        """off with the cell (i, j) of a stored row i at flat[(off[i] + j) >> 1]."""
        return 2 * self.row_start[:-1] - self.y0

    def _window_lo(self, i):
        """The lowest window cell of the stored parity in row i (an int or an
        int64 array); in symmetric storage the window is mirror-symmetric."""
        return -self.yhi[i] if self.symmetric else self.y0[i]

    def lookup(self, i: int, j: int) -> int:
        """r(lambda) for the cell (i, j) of a row 0..imax: 0 off the stored
        parity, where lambda is no ring element (sigma = 2) or has an odd sqrt(d)
        part (sigma = 1); OutOfRange for any other cell outside the window."""
        if not 0 <= i <= self.imax:
            raise OutOfRange(f"row {i} lies outside the stored window")
        if (j - self._parity(i)) % 2 != 0:
            return 0
        if not self._window_lo(i) <= j <= self.yhi[i]:
            raise OutOfRange(f"cell ({i}, {j}) lies outside the stored window")
        if self.symmetric:
            j = abs(j)
        return int(self.flat[self.row_start[i] + ((j - self.y0[i]) >> 1)])

    def value(self, lam: QuadInt) -> int:
        """r(lambda) for a ring element inside the window."""
        if lam.field.d != self.field.d:
            raise OutOfRange("element from another field")
        p, q = lam.p, lam.q
        if self.sigma == 2:
            return self.lookup(p, q)
        if p % 2 or q % 2:
            raise OutOfRange("non-integral coordinates")
        return self.lookup(p // 2, q // 2)

    def write_csv(self, stream) -> None:
        """Full window as CSV: metadata line, header, one row per cell."""
        doubled = 1 if self.sigma == 2 else 0
        stream.write(f"# D={self.field.d} doubled={doubled}\n")
        writer = csv.writer(stream)
        writer.writerow(["x", "y", "r"])
        for i in range(self.imax + 1):
            for j in range(int(self._window_lo(i)), int(self.yhi[i]) + 1, 2):
                writer.writerow([i, j, self.lookup(i, j)])


def build_rep_table(field: FieldData, v1, v2, *, symmetric: bool | None = None,
                    memory_budget: int | None = None) -> RepTable:
    """Populate the r-value table for the extended box (v1+1, v2+1)."""
    return RepTable(field, v1, v2, symmetric=symmetric, memory_budget=memory_budget)


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


def _products(table: RepTable, include_lambda_zero: bool):
    """Walk the table in bands of _BAND_CELLS cells, yielding per band the
    arrays (i, j, r(lambda) r(lambda + 1)) over its nonzero cells (i, j)
    whose lambda + 1, the cell (i + sigma, j), is stored. In symmetric
    storage a cell with j > 0 also stands for its mirror -j, so its product
    is doubled. The bands keep the temporaries small next to the table."""
    sigma = table.sigma
    flat, y0, yhi, row_start = table.flat, table.y0, table.yhi, table.row_start
    off = table._offsets()
    # row 0 holds lambda = 0 alone; rows past imax - sigma have no lambda + 1 row
    start = int(row_start[0 if include_lambda_zero else 1])
    stop = int(row_start[max(table.imax - sigma + 1, 0)])
    for a in range(start, stop, _BAND_CELLS):
        b = min(a + _BAND_CELLS, stop)
        k = a + np.flatnonzero(flat[a:b])
        # the band's rows are r..r_end - 1; find each cell's row among them
        r = int(np.searchsorted(row_start, a, side="right")) - 1
        r_end = int(np.searchsorted(row_start, b - 1, side="right"))
        i = r - 1 + np.searchsorted(row_start[r:r_end], k, side="right")
        j = 2 * k - off[i]
        i2 = i + sigma
        keep = np.flatnonzero((j >= y0[i2]) & (j <= yhi[i2]))
        k, i, i2, j = k[keep], i[keep], i2[keep], j[keep]
        prods = flat[k].astype(np.int64) * flat[(off[i2] + j) >> 1]
        if table.symmetric:
            prods <<= j > 0
        yield i, j, prods


def _strict_row_range(table: RepTable) -> int | None:
    """Row i of the one cell (i, 0) of the closed box outside the half-open
    box, or None. Off j = 0 no window cell meets an edge, and on j = 0 both
    embeddings are i/sigma, so only i = floor(sigma min(V1, V2)) can."""
    i = min(a // m for a, m, _ in (b.bracket(table.sigma, 1) for b in (table.v1, table.v2)))
    p, q = _doubled(i, 0, table.sigma)
    return None if table.v1.allows(p, q, True) and table.v2.allows(p, q, True) else i


def correlation(field: FieldData, v1, v2, *, table: RepTable | None = None,
                include_lambda_zero: bool = True, symmetric: bool | None = None,
                memory_budget: int | None = None) -> CorrelationResult:
    """N_D(v1, v2) = sum of r(lambda) r(lambda + 1) over the half-open box."""
    if table is None:
        table = build_rep_table(field, v1, v2, symmetric=symmetric,
                                memory_budget=memory_budget)
    else:
        want1 = make_bound(field, v1).describe()
        want2 = make_bound(field, v2).describe()
        if table.v1.describe() != want1 or table.v2.describe() != want2:
            raise OutOfRange("supplied table was built for different bounds")
    total = 0
    for _, _, p in _products(table, include_lambda_zero):
        # exact in int64: a product is below 2^63, so each part is below 2^32,
        # summed over at most 2^14 cells
        total += int((p & ((1 << 31) - 1)).sum()) + (int((p >> 31).sum()) << 31)
    edge = _strict_row_range(table)
    if edge is not None:  # the closed box's cell on an edge of the half-open one
        total -= table.lookup(edge, 0) * table.lookup(edge + table.sigma, 0)

    c = c_constant(field)
    main = float(c) * float(table.v1) * float(table.v2)
    return CorrelationResult(
        d=field.d,
        v1_label=table.v1.describe(),
        v2_label=table.v2.describe(),
        n_value=total,
        main_term=main,
        deviation=total - main,
        lambda_zero_included=include_lambda_zero,
        c_num=c.numerator,
        c_den=c.denominator,
    )


# ---------------------------------------------------------------------------
# Integer-grid N(V, V) for the deviation diagnostics.
# ---------------------------------------------------------------------------


def correlation_grid(field: FieldData, xmax: int, *, include_lambda_zero: bool = True,
                     symmetric: bool | None = True, memory_budget: int | None = None,
                     table: RepTable | None = None) -> np.ndarray:
    """N_D(V, V) for every integer V = 0..xmax, as one int64 array.

    The products of _products are bucketed by the first integer V whose box
    contains their cell, which is floor(max(lambda, lambda^sigma)) + 1, and
    the buckets are prefix-summed. A given table must have rational bounds
    of at least xmax, else OutOfRange.
    """
    if xmax < 0:
        raise OutOfRange("xmax must be >= 0")
    if table is None:
        table = build_rep_table(field, xmax, xmax, symmetric=symmetric,
                                memory_budget=memory_budget)
    elif not all(isinstance(b, RationalBound) and b.value >= xmax for b in (table.v1, table.v2)):
        raise OutOfRange(f"the table's bounds do not cover V = {xmax}")
    sigma, y0, yhi = table.sigma, table.y0, table.yhi
    buckets = np.zeros(xmax + 2, dtype=np.int64)

    # fl[|j|] = floor(|j| sqrt d), so max(lambda, lambda^sigma) = (i + fl[|j|]) / sigma
    jabs_max = int(max(int(yhi.max(initial=0)), -int(y0.min(initial=0))))
    wide = jabs_max * jabs_max * field.d >= 1 << 62
    jabs = np.arange(jabs_max + 1, dtype=object if wide else np.int64)
    fl = _isqrt(jabs * jabs * field.d).astype(np.int64)

    for i, j, prods in _products(table, include_lambda_zero):
        if not len(prods):
            continue
        # cells past the grid go to bucket xmax + 1, which the result leaves out
        v = np.minimum((i + fl[np.abs(j)]) // sigma + 1, xmax + 1)
        # bincount sums in float64, exact below 2^53: split each product at
        # bit 26, so each part summed over at most 2^14 cells stays below 2^51
        v0 = int(v.min())
        lo = np.bincount(v - v0, weights=prods & ((1 << 26) - 1)).astype(np.int64)
        hi = np.bincount(v - v0, weights=prods >> 26).astype(np.int64)
        buckets[v0:v0 + len(lo)] += lo + (hi << 26)

    return np.cumsum(buckets)[: xmax + 1]


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
    """Deviation suprema on the integer grid V in {1, ..., xmax}."""
    if xmax < 1:
        raise OutOfRange("xmax must be >= 1")
    if checkpoints is None:
        checkpoints = [xmax]
    if any(c < 1 or c > xmax for c in checkpoints):
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
        strict = running[cpt - 1] if cpt >= 2 else 0
        out.append(FCheckpoint(
            x=cpt,
            f_strict=Fraction(strict, den),
            f_inclusive=Fraction(running[cpt], den),
        ))
    return out


def g_value(res: CorrelationResult, v) -> float:
    """G(v) = N_D(v, v**(-1/2)) / (C_D sqrt(v)) from the correlation result
    for that box; its callers check v > 1 before the box is built."""
    c = Fraction(res.c_num, res.c_den)
    return res.n_value / (float(c) * sqrt(Fraction(v)))


def g_ratio(field: FieldData, v, *, include_lambda_zero: bool = True,
            memory_budget: int | None = None) -> float:
    """N_D(v, v**(-1/2)) / (C_D sqrt(v)) for rational v > 1."""
    v = Fraction(v)
    if v <= 1:
        raise OutOfRange("g_ratio needs v > 1")
    res = correlation(field, v, InvSqrtBound(field.d, v),
                      include_lambda_zero=include_lambda_zero, memory_budget=memory_budget)
    return g_value(res, v)


# ---------------------------------------------------------------------------
# Quadruple-enumeration oracle (independent of the table route).
# ---------------------------------------------------------------------------


def correlation_group_oracle(field: FieldData, v1, v2, *,
                             include_lambda_zero: bool = True) -> int:
    """Count quadruples (g1, g2, g3, g4) in O^4 with g1^2 + g2^2 =
    g3^2 + g4^2 + 1 and g3^2 + g4^2 in the half-open box.

    This enumerates the matrix set behind the correlation identity, so it
    must return exactly correlation(...).n_value. One pass over the pairs
    (g, g') counts every value lambda = g^2 + g'^2 it reaches; the sum is
    then taken over the lambdas in the box, each count times the count of
    lambda + 1, which the same pass reached. Only usable on small boxes;
    raises ScaleGuard beyond roughly 1e7 quadruples worth of work.
    """
    b1 = make_bound(field, v1)
    b2 = make_bound(field, v2)
    if not (b1.is_positive() and b2.is_positive()):
        raise OutOfRange("box bounds must be positive")

    d = field.d
    one = field.ring_class is RingClass.ONE_MOD_FOUR
    # the pair ((c1 + c2 sqrt d)/2, (e1 + e2 sqrt d)/2) reaches lambda =
    # (P + Q sqrt d)/2 with c1^2 + d c2^2 + e1^2 + d e2^2 = 2 P. A lambda in
    # the box has P < v1 + v2 <= ceil(v1) + ceil(v2), so all pairs of
    # lambda + 1 (2 P + 4) are within smax: count[lambda + 1] = r(lambda + 1)
    smax = 2 * (b1.ceil() + b2.ceil()) + 4
    # the work estimate from the same bound; past float range it is infinite
    parity_factor = 4.0 if one else 16.0
    try:
        est = 100.0 + (9.87 / 2.0) * smax * smax / (d * parity_factor)
    except OverflowError:
        est = float("inf")
    if est > ORACLE_QUADRUPLE_LIMIT:
        raise ScaleGuard(f"estimated work {est:.3g} exceeds {ORACLE_QUADRUPLE_LIMIT}")

    count: dict[tuple[int, int], int] = {}
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
                    key = ((c1 * c1 + d * c2 * c2 + e1 * e1 + d * e2 * e2) // 2,
                           c1 * c2 + e1 * e2)
                    count[key] = count.get(key, 0) + 1

    total = 0
    for (P, Q), n in count.items():
        n_next = count.get((P + 2, Q))
        if n_next is None or (not include_lambda_zero and P == 0 and Q == 0):
            continue
        # box: lambda >= 0 (automatic), strict upper bounds
        if b1.allows(P, Q, True) and b2.allows(P, -Q, True):
            total += n * n_next
    return total
