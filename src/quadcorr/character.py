"""Kronecker character machinery for a real quadratic field: the scalar
Kronecker symbol, exact weighted character sums over the chi table that
quadfield builds, the correlation constant C_D, the subgroup index, and three
independent routes to the covolume of the corresponding quotient.

C_D is always an exact rational (fractions.Fraction), for every Delta the
field accepts; only the covolume cross-checks use floating point, and those
carry rigorous truncation bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfRange, ScaleGuard, count_text
from .quadfield import FieldData

__all__ = [
    "kronecker",
    "weighted_char_sums",
    "c_constant",
    "index_gamma",
    "l_value_2",
    "covolume",
    "VolumeReport",
]

# most terms of L(2, chi) the covolume sums: about 0.75 s at the limit (2-vCPU
# Xeon); every field's default max(Delta, 10^6) is below it, as MAX_DELTA is
L_TERMS_LIMIT = 1 << 27


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) by the standard reduction: extract powers of 2
    with the (a/2) rule, then flip via quadratic reciprocity."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _power_sums(chi: np.ndarray) -> tuple[int, int, int]:
    """Exact (s0, s1, s2) with s_k = sum over n = 0..len(chi)-1 of n^k chi[n].

    Each chunk of 2^18 residues from lo is summed in int64 over the offsets
    m = n - lo, so |sum m^2 chi| < 2^54; the chunk sums are shifted back to n
    in Python ints, which grow as far as the totals need.
    """
    chunk = 1 << 18
    m = np.arange(min(chunk, len(chi)), dtype=np.int64)
    m2 = m * m
    s0 = s1 = s2 = 0
    for lo in range(0, len(chi), chunk):
        c = chi[lo:lo + chunk].astype(np.int64)
        t0 = int(c.sum())
        t1 = int(np.dot(m[:len(c)], c))
        t2 = int(np.dot(m2[:len(c)], c))
        s0 += t0
        s1 += t1 + lo * t0
        s2 += t2 + 2 * lo * t1 + lo * lo * t0
    return s0, s1, s2


def weighted_char_sums(field: FieldData) -> tuple[int, int, int]:
    """Exact s_k = sum_{n=1}^{Delta} n^k chi(n) for k = 0, 1, 2.

    n = Delta contributes chi(0) = 0, so the sums run over the residues
    0..Delta-1 of the table. The character is even and primitive, so
    s0 = s1 = 0; both are computed and checked rather than assumed.
    """
    s0, s1, s2 = _power_sums(field.chi_values)
    if s0 != 0 or s1 != 0:
        raise ArithmeticError(
            f"character sums violate s0 = s1 = 0 for d={field.d}: s0={s0}, s1={s1}"
        )
    if s2 <= 0:
        raise ArithmeticError(f"s2 must be positive, got {s2} for d={field.d}")
    return s0, s1, s2


def _chi_factor(field: FieldData) -> int:
    """2 - chi(2) + 2*chi(4), the local factor at 2."""
    return 2 - field.chi(2) + 2 * field.chi(4)


def c_constant(field: FieldData) -> Fraction:
    """The correlation constant C_D = 32*Delta / ((2 - chi(2) + 2 chi(4)) * s2),
    exact; computed once per field and kept on it."""
    if field._c_constant is None:
        _, _, s2 = weighted_char_sums(field)
        c = Fraction(32 * field.delta, _chi_factor(field) * s2)
        object.__setattr__(field, "_c_constant", c)
    return field._c_constant


def index_gamma(field: FieldData) -> int:
    """Index 6 - 3 chi(2) + 6 chi(4) of the even-trace/antitrace subgroup in
    the full Hilbert modular group: 6, 9 or 15."""
    return 6 - 3 * field.chi(2) + 6 * field.chi(4)


def l_value_2(field: FieldData, terms: int) -> tuple[float, float]:
    """Truncated Dirichlet series L(2, chi) = sum chi(n)/n^2 over n <= terms.

    Returns (value, error_bound). Summation by parts with partial character
    sums bounded by Delta gives |tail| <= Delta / terms^2, well inside the
    Delta/terms envelope the callers rely on. A small cushion covers float
    accumulation.
    """
    if terms < field.delta:
        raise OutOfRange(f"terms={terms} must be >= Delta={field.delta}")
    if terms > L_TERMS_LIMIT:
        raise ScaleGuard(f"terms={count_text(terms)} exceeds {L_TERMS_LIMIT}")
    # Each 2^20-term chunk is one np.sum, which fixes its pairwise order. Its
    # quotients fill one buffer block by block; a block's chi(n) is one or two
    # slices of chi_values, repeated to a block's length when Delta is shorter.
    chunk, block = 1 << 20, 1 << 16
    period = field.chi_values
    if field.delta < block:
        period = np.tile(period, -(-block // field.delta))
    steps = np.arange(min(block, terms), dtype=np.float64)
    buf = np.empty(min(chunk, terms))
    total = 0.0
    for lo in range(1, terms + 1, chunk):
        hi = min(lo + chunk, terms + 1)
        for start in range(lo, hi, block):
            q = buf[start - lo:min(start + block, hi) - lo]
            np.add(steps[:len(q)], start, out=q)
            np.multiply(q, q, out=q)
            r = start % len(period)
            k = min(len(q), len(period) - r)
            np.divide(period[r:r + k], q[:k], out=q[:k])
            np.divide(period[:len(q) - k], q[k:], out=q[k:])
        total += float(np.sum(buf[:hi - lo]))
    bound = field.delta / terms**2 + 1e-12
    return total, bound


@dataclass(frozen=True)
class VolumeReport:
    """Three evaluations of the covolume of the subgroup quotient.

    closed_form   : (2 - chi(2) + 2 chi(4)) * (pi^2/Delta) * s2
    siegel_form   : index * (2/pi^2) * Delta^(3/2) * zeta(2) * L(2, chi)
    bernoulli_form: -2 pi^2 (2 - chi(2) + 2 chi(4)) * L(-1, chi), with
                    L(-1, chi) evaluated through the full B2(n/Delta) sum
    l2_truncation_error: relative slack contributed by truncating L(2, chi)
    """

    closed_form: float
    siegel_form: float
    bernoulli_form: float
    l2_truncation_error: float

    def max_relative_spread(self) -> float:
        ref = abs(self.closed_form)
        return max(
            abs(self.siegel_form - self.closed_form),
            abs(self.bernoulli_form - self.closed_form),
        ) / ref


def covolume(field: FieldData, terms: int | None = None) -> VolumeReport:
    """Evaluate the covolume three ways and assert their agreement.

    Raises ArithmeticError if the spreads exceed the truncation bound plus
    1e-9 relative, which would indicate an implementation fault.
    """
    s0, s1, s2 = weighted_char_sums(field)
    factor = _chi_factor(field)
    delta = field.delta
    pi2 = math.pi**2

    closed = factor * (pi2 / delta) * s2

    if terms is None:
        terms = max(delta, 1_000_000)
    lval, lerr = l_value_2(field, terms)
    index = index_gamma(field)
    # index * (2/pi^2) * Delta^(3/2) * (pi^2/6) * L(2,chi)
    siegel = index * delta * math.sqrt(delta) * lval / 3.0
    siegel_abs_err = index * delta * math.sqrt(delta) * lerr / 3.0

    # L(-1, chi) = -(Delta/2) * sum chi(n) B2(n/Delta), B2(x) = x^2 - x + 1/6,
    # kept as an exact rational before the final float multiply.
    b2_sum = Fraction(s2, delta**2) - Fraction(s1, delta) + Fraction(s0, 6)
    l_minus_one = -Fraction(delta, 2) * b2_sum
    bernoulli = -2.0 * pi2 * factor * float(l_minus_one)

    rel_err = siegel_abs_err / abs(closed)
    report = VolumeReport(
        closed_form=closed,
        siegel_form=siegel,
        bernoulli_form=bernoulli,
        l2_truncation_error=rel_err,
    )
    if report.max_relative_spread() > rel_err + 1e-9:
        raise ArithmeticError(
            f"covolume routes disagree for d={field.d}: {report}"
        )
    return report
