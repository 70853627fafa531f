"""Exact arithmetic in the ring of integers O of a real quadratic field, and
the field data every other module builds on: the discriminant, the prime
divisors of d and the table of the Kronecker character chi(n) = (Delta/n).

Elements are stored in doubled coordinates (p, q) meaning (p + q*sqrt(d))/2,
which gives one code path for both ring shapes, told apart by FieldData.sigma:

* d = 1 (mod 4), sigma = 2:  O = Z[(1+sqrt(d))/2], so p and q share a parity;
* otherwise, sigma = 1:      O = Z[sqrt(d)], so p and q are both even.

All comparisons against rational bounds are decided by integer sign
analysis, never by floating point.

A field is refused with CapacityExceeded when Delta passes MAX_DELTA, before
d is factored or any table allocated; below it, trial division is fast.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import total_ordering
from fractions import Fraction
from math import isqrt, sqrt

import numpy as np

from .errors import (
    CapacityExceeded,
    FieldMismatch,
    InvalidElement,
    NotSquarefree,
    OutOfRange,
    count_text,
)

# Building the chi table peaks under tracemalloc at 2.7 bytes per residue at
# d = 9999973, 1.56 at d = 29999989 and 1.17 at d = 99999989, primes with
# Delta = d: the Legendre table of d, which is the chi table itself, and the
# int64 squares of a chunk of 2^20 residues. MAX_DELTA keeps the value it took
# when the build peaked at 19 bytes per residue, the largest Delta whose build
# then stayed under corrsum's default 2 GiB memory budget, so that no field's
# refusal moves.
MAX_DELTA = (2 << 30) // 19
# field_new keeps the fields whose chi tables fit in one table at the limit
# together, so a walk over many large fields holds one such table, not dozens
_FIELD_CACHE_BYTES = MAX_DELTA


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def sign_quad(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and squarefree d > 1."""
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    sa, sb = _sign(a), _sign(b)
    if sa == sb:
        return sa
    aa = a * a
    bb = b * b * d
    if aa == bb:
        # would force sqrt(d) rational; unreachable for squarefree d > 1
        return 0
    return sa if aa > bb else sb


def _isqrt(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) elementwise, for int64 x below 2^62."""
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)  # off by at most one
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def check_squarefree(d: int) -> list[int]:
    """The sorted prime divisors of d > 1, raising NotSquarefree if a square
    divides d. Trial division by 2, then by odd p while p^2 <= the cofactor."""
    primes = []
    rest = d
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                raise NotSquarefree(f"{d} is divisible by {p}^2")
            primes.append(p)
        p += 1 if p == 2 else 2
    if rest > 1:
        primes.append(rest)
    return primes


def _legendre_table(p: int) -> np.ndarray:
    """(n/p) for the odd prime p, indexed by n mod p."""
    tbl = np.full(p, -1, dtype=np.int8)
    tbl[0] = 0
    half = (p + 1) // 2  # k and p - k have one square: mark those of k < p/2
    for lo in range(1, half, 1 << 20):
        k = np.arange(lo, min(lo + (1 << 20), half), dtype=np.int64)
        k *= k
        k %= p
        tbl[k] = 1
    return tbl


def chi_table(d: int, delta: int, prime_divisors: list[int]) -> np.ndarray:
    """Length-Delta int8 table with table[n % Delta] = (Delta/n).

    Delta is a product of prime discriminants: (-1)^((p-1)/2) p for each odd
    p | d, whose character is the Legendre symbol mod p, and -4, 8 or -8 when
    Delta is even. chi is the product of their characters.
    """
    parts = [_legendre_table(p) for p in prime_divisors if p != 2]
    if d % 2 == 0:  # 8 or -8, by n mod 8
        parts.append(np.array([0, 1, 0, -1, 0, -1, 0, 1] if d // 2 % 4 == 1
                              else [0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8))
    elif d % 4 == 3:  # -4, by n mod 4
        parts.append(np.array([0, 1, 0, -1], dtype=np.int8))
    # d > 1 has an odd prime divisor or is even, so there is a first part; a Delta-long
    # one (prime Delta) is the table itself
    first = parts[0]
    tbl = first if len(first) == delta else np.tile(first, delta // len(first))
    for part in parts[1:]:  # its period divides Delta: one row of tbl per period
        rows = tbl.reshape(-1, len(part))
        rows *= part
    return tbl


class FieldData:
    """A real quadratic field Q(sqrt(d)) with its ring data and character table.

    Immutable, but for _c_constant, which holds C_D once character.c_constant
    has computed it (a thread that computes it again stores the same value);
    instances are shareable across threads.
    """

    __slots__ = ("d", "sigma", "delta", "_chi", "_c_constant")

    def __init__(self, d: int):
        if d <= 1:
            raise OutOfRange(f"d must be > 1, got {d}")
        sigma = 2 if d % 4 == 1 else 1
        delta = d if sigma == 2 else 4 * d
        if delta > MAX_DELTA:
            raise CapacityExceeded(f"Delta = {count_text(delta)} exceeds the chi-table limit {MAX_DELTA}")
        primes = check_squarefree(d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "_chi", chi_table(d, delta, primes))
        object.__setattr__(self, "_c_constant", None)
        self._chi.setflags(write=False)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("FieldData is immutable")

    def chi(self, n: int) -> int:
        """Kronecker character (Delta/n), periodic mod Delta."""
        return int(self._chi[n % self.delta])

    @property
    def chi_values(self) -> np.ndarray:
        """Read-only int8 table, chi_values[n % delta] = chi(n)."""
        return self._chi

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldData) and other.d == self.d

    def __hash__(self) -> int:
        return hash(("FieldData", self.d))

    def __repr__(self) -> str:
        return f"FieldData(d={self.d}, delta={self.delta})"

    # element constructors

    def element(self, p: int, q: int) -> QuadInt:
        """(p + q*sqrt(d))/2 from doubled coordinates."""
        return QuadInt(self, p, q)

    def from_xy(self, x: int, y: int) -> QuadInt:
        """x + y*sqrt(d) from integer lattice coordinates."""
        return QuadInt(self, 2 * x, 2 * y)

    def from_int(self, n: int) -> QuadInt:
        return QuadInt(self, 2 * n, 0)

    def zero(self) -> QuadInt:
        return QuadInt(self, 0, 0)

    def one(self) -> QuadInt:
        return QuadInt(self, 2, 0)

    def sqrt_d(self) -> QuadInt:
        return QuadInt(self, 0, 2)

    def omega(self) -> QuadInt:
        """(1 + sqrt(d))/2; only an integer of the field when d = 1 (mod 4)."""
        return QuadInt(self, 1, 1)

    def omega_bar(self) -> QuadInt:
        """(1 - sqrt(d))/2; only an integer of the field when d = 1 (mod 4)."""
        return QuadInt(self, 1, -1)


_fields: OrderedDict[int, FieldData] = OrderedDict()  # least recently used first
_fields_bytes = 0  # the bytes of their chi tables


def field_new(d: int) -> FieldData:
    """Validated field data for squarefree d > 1, with the full character table.

    Fields are cached; once their chi tables pass _FIELD_CACHE_BYTES together,
    the least recently used are dropped until they fit or one is left.
    """
    global _fields_bytes
    field = _fields.pop(d, None)
    if field is None:
        field = FieldData(d)
        _fields_bytes += field.chi_values.nbytes
    _fields[d] = field
    while _fields_bytes > _FIELD_CACHE_BYTES and len(_fields) > 1:
        _fields_bytes -= _fields.popitem(last=False)[1].chi_values.nbytes
    return field


@total_ordering
class QuadInt:
    """An element (p + q*sqrt(d))/2 of the ring of integers, immutable; ordered
    by its first embedding lambda, <=, > and >= derived from < and ==."""

    __slots__ = ("field", "p", "q")

    def __init__(self, field: FieldData, p: int, q: int):
        if field.sigma == 2:
            if (p - q) % 2 != 0:
                raise InvalidElement(f"(p={p}, q={q}) needs p = q (mod 2) for d = {field.d}")
        else:
            if p % 2 != 0 or q % 2 != 0:
                raise InvalidElement(f"(p={p}, q={q}) needs even p, q for d = {field.d}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("QuadInt is immutable")

    def _check_field(self, other: QuadInt) -> None:
        if self.field.d != other.field.d:
            raise FieldMismatch(f"d={self.field.d} vs d={other.field.d}")

    # ring operations

    def __add__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            other = self.field.from_int(other)
        self._check_field(other)
        return QuadInt(self.field, self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        return self + (-other)

    def __rsub__(self, other: int) -> QuadInt:
        return (-self) + other

    def __neg__(self) -> QuadInt:
        return QuadInt(self.field, -self.p, -self.q)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(self.field, self.p * other, self.q * other)
        self._check_field(other)
        d = self.field.d
        pp = self.p * other.p + d * self.q * other.q
        qq = self.p * other.q + self.q * other.p
        if pp % 2 != 0 or qq % 2 != 0:
            raise InvalidElement("product left the ring; invalid operands")
        return QuadInt(self.field, pp // 2, qq // 2)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadInt:
        if n < 0:
            raise OutOfRange("negative powers are not ring elements in general")
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.p == 2 * other and self.q == 0
        return (
            isinstance(other, QuadInt)
            and self.field.d == other.field.d
            and self.p == other.p
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.field.d, self.p, self.q))

    # conjugation, embeddings, norms

    def conj(self) -> QuadInt:
        """Image under sqrt(d) -> -sqrt(d); an involution."""
        return QuadInt(self.field, self.p, -self.q)

    def embed(self) -> tuple[float, float]:
        """(lambda, lambda^sigma) as floats; use cmp() for exact box tests."""
        r = self.q * sqrt(self.field.d)
        return ((self.p + r) / 2.0, (self.p - r) / 2.0)

    def embed_exact(self, digits: int = 40) -> tuple[Fraction, Fraction]:
        """Both embeddings as rationals correct to ~digits decimal places.

        Plain embed() loses precision to cancellation when p is close to
        q*sqrt(d); here sqrt(d) is replaced by an integer square root at a
        fixed scale, so the error stays below |q| * 10**-digits."""
        scale = 10**digits
        root = Fraction(isqrt(self.field.d * scale * scale), scale)
        p_half = Fraction(self.p, 2)
        q_half = Fraction(self.q, 2)
        return (p_half + q_half * root, p_half - q_half * root)

    def trace(self) -> int:
        """lambda + lambda^sigma, always a rational integer."""
        return self.p

    def norm(self) -> int:
        """lambda * lambda^sigma, always a rational integer."""
        return (self.p * self.p - self.field.d * self.q * self.q) // 4

    # exact comparisons

    def cmp(self, bound: Fraction | int) -> int:
        """Exact sign of (lambda - bound) for a rational bound, by integer
        sign analysis of (p*den - 2*num) + q*den*sqrt(d)."""
        frac = Fraction(bound)
        a = self.p * frac.denominator - 2 * frac.numerator
        b = self.q * frac.denominator
        return sign_quad(a, b, self.field.d)

    def sign(self) -> int:
        return sign_quad(self.p, self.q, self.field.d)

    def __lt__(self, other: QuadInt | int) -> bool:
        return (self - other).sign() < 0

    # divisibility

    def in_two_o(self) -> bool:
        """True iff lambda/2 is again a ring integer."""
        if self.p % 2 != 0 or self.q % 2 != 0:
            return False
        if self.field.sigma == 2:
            return (self.p - self.q) % 4 == 0
        return self.p % 4 == 0 and self.q % 4 == 0

    def half(self) -> QuadInt:
        """lambda/2, valid only when in_two_o()."""
        if not self.in_two_o():
            raise InvalidElement("element is not divisible by 2 in the ring")
        return QuadInt(self.field, self.p // 2, self.q // 2)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __repr__(self) -> str:
        return f"QuadInt(d={self.field.d}, ({self.p}{self.q:+}*sqrt{self.field.d})/2)"

    def __str__(self) -> str:
        if self.p % 2 == 0 and self.q % 2 == 0:
            return f"{self.p // 2}{self.q // 2:+}*sqrt({self.field.d})"
        return f"({self.p}{self.q:+}*sqrt({self.field.d}))/2"
