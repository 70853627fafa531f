import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcorr import (
    OutOfRange,
    c_constant,
    covolume,
    field_new,
    index_gamma,
    kronecker,
    l_value_2,
    weighted_char_sums,
)
from quadcorr.character import _power_sums


def squarefree_up_to(limit):
    out = []
    for d in range(2, limit + 1):
        if all(d % (k * k) for k in range(2, int(math.isqrt(d)) + 1)):
            out.append(d)
    return out


def test_kronecker_examples():
    assert kronecker(8, 3) == -1
    assert kronecker(5, 4) == 1
    assert kronecker(8, 2) == 0


@given(st.sampled_from(squarefree_up_to(60)),
       st.integers(min_value=1, max_value=500),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=100, deadline=None)
def test_kronecker_multiplicative_and_periodic(d, m, n):
    delta = field_new(d).delta
    assert kronecker(delta, m * n) == kronecker(delta, m) * kronecker(delta, n)
    assert kronecker(delta, n + delta) == kronecker(delta, n)
    assert (kronecker(delta, n) == 0) == (math.gcd(n, delta) > 1)


def test_chi_table_matches_kronecker_everywhere():
    for d in squarefree_up_to(60):
        field = field_new(d)
        for n in range(1, field.delta + 1):
            assert field.chi(n) == kronecker(field.delta, n), (d, n)


def test_chi_table_spot_checks_large():
    for d in (1001, 10001, 100001):
        field = field_new(d)
        for n in (1, 2, 3, 97, 12345, field.delta - 1, field.delta):
            assert field.chi(n) == kronecker(field.delta, n), (d, n)


def test_weighted_sum_examples():
    assert weighted_char_sums(field_new(2)) == (0, 0, 16)
    assert weighted_char_sums(field_new(5)) == (0, 0, 4)
    assert weighted_char_sums(field_new(3)) == (0, 0, 48)


def test_power_sums_exact_past_int64():
    # sum n^2 over n < 2^24 is about 2^70; int64 sums over n itself wrap
    length = 1 << 24
    assert _power_sums(np.ones(length, dtype=np.int8)) == (
        length,
        (length - 1) * length // 2,
        (length - 1) * length * (2 * length - 1) // 6,
    )


def test_weighted_sums_vanish_broadly():
    for d in squarefree_up_to(300):
        s0, s1, s2 = weighted_char_sums(field_new(d))
        assert s0 == 0
        assert s1 == 0
        assert s2 > 0


def test_c_constant_examples():
    assert c_constant(field_new(2)) == 8
    assert c_constant(field_new(6)) == Fraction(4, 3)
    assert c_constant(field_new(1001)) == Fraction(2, 753)
    assert c_constant(field_new(7)) == 1


def test_index_examples():
    assert index_gamma(field_new(2)) == 6
    assert index_gamma(field_new(17)) == 9
    assert index_gamma(field_new(13)) == 15


def test_chi4_is_chi2_squared():
    for d in squarefree_up_to(200):
        field = field_new(d)
        if field.chi(2) != 0:
            assert field.chi(4) == field.chi(2) ** 2
        else:
            assert field.chi(4) == 0


def test_l_value_examples():
    f5 = field_new(5)
    value, bound = l_value_2(f5, 10**6)
    assert bound <= 5 / 10**6
    assert value == pytest.approx(4 * math.pi**2 / (25 * math.sqrt(5)), abs=2 * bound + 1e-11)

    f2 = field_new(2)
    value, bound = l_value_2(f2, 10**6)
    assert value == pytest.approx(math.pi**2 * 8 ** (-2.5) * 16, abs=2 * bound + 1e-11)


def test_l_value_identity_for_many_fields():
    for d in (2, 3, 5, 6, 7, 13, 17, 21, 29):
        field = field_new(d)
        _, _, s2 = weighted_char_sums(field)
        value, bound = l_value_2(field, 500_000)
        target = math.pi**2 * field.delta ** (-2.5) * s2
        assert abs(value - target) <= bound + 1e-11, d


def _reference_l_value_2(field, terms):
    """L(2, chi) by a direct gather: an int64 n and n % Delta per 2^20-term
    chunk, whose quotients are one np.sum."""
    chi = field.chi_values
    total = 0.0
    chunk = 1 << 20
    for lo in range(1, terms + 1, chunk):
        hi = min(lo + chunk, terms + 1)
        n = np.arange(lo, hi, dtype=np.int64)
        c = chi[n % field.delta].astype(np.float64)
        total += float(np.sum(c / (n.astype(np.float64) ** 2)))
    return total, field.delta / terms**2 + 1e-12


@pytest.mark.parametrize("d", [2, 5, 13, 1000001])
def test_l_value_matches_reference_bit_for_bit(d):
    # Delta = 8, 5 and 13 are shorter than a 2^16-term block; Delta = 1,000,001
    # has a block wrapping past it, and 3,000,017 terms end in a partial chunk
    field = field_new(d)
    for terms in (field.delta, field.delta + 1, 1 << 20, (1 << 20) + 1, 3_000_017):
        assert l_value_2(field, terms) == _reference_l_value_2(field, terms), (d, terms)


@pytest.mark.parametrize("d", [5, 9999973])
def test_l_value_working_set(d):
    # the reference peaks at 30.5 MiB at d = 5: int64 and float64 temporaries
    # per chunk; at Delta = 9,999,973 a copy of the chi table would pass the bound
    field = field_new(d)
    tracemalloc.start()
    try:
        l_value_2(field, max(field.delta, 3_000_017))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20, (d, peak)


def test_l_value_requires_full_period():
    with pytest.raises(OutOfRange):
        l_value_2(field_new(101), 50)


def test_covolume_examples():
    rep2 = covolume(field_new(2))
    assert rep2.closed_form == pytest.approx(4 * math.pi**2, rel=1e-12)
    rep5 = covolume(field_new(5))
    assert rep5.closed_form == pytest.approx(4 * math.pi**2, rel=1e-12)
    for d in (2, 3, 5, 6, 7, 13, 17):
        rep = covolume(field_new(d))
        assert rep.max_relative_spread() <= rep.l2_truncation_error + 1e-9
        assert rep.siegel_form / rep.closed_form == pytest.approx(1.0, abs=1e-6)


def test_c_bounds_small_range():
    for d in squarefree_up_to(500):
        field = field_new(d)
        c = c_constant(field)
        delta = field.delta
        assert Fraction(192, 5) ** 2 < c * c * delta**3 < 240**2, d


def test_one_mod_eight_lower_limit():
    # fields with d = 1 (mod 8) sit above the limiting constant 64
    for d in (17, 41, 73, 89, 97, 113):
        field = field_new(d)
        c = c_constant(field)
        assert c * c * field.delta**3 > 64**2, d
