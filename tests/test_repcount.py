from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcorr import field_new, r_brute, r_sym, two_square_solutions
from quadcorr.quadfield import RingClass
from quadcorr.repcount import enumeration_steps


def box_lambdas(field, box):
    """All lambda with 0 <= lambda < box and 0 <= conj(lambda) < box."""
    sigma = 2 if field.ring_class is RingClass.ONE_MOD_FOUR else 1
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


def test_r_brute_examples():
    f2 = field_new(2)
    assert r_brute(f2, f2.zero()) == 1
    assert r_brute(f2, f2.from_int(1)) == 4
    assert r_brute(f2, f2.from_int(2)) == 8


def test_r_sym_examples():
    f2 = field_new(2)
    assert r_sym(f2, f2.from_int(2)) == 8
    assert r_sym(f2, f2.zero()) == 1
    f3 = field_new(3)
    lam = f3.from_xy(4, 2)  # (1 + sqrt3)^2, so the count is positive
    assert r_brute(f3, lam) > 0
    assert r_sym(f3, lam) == r_brute(f3, lam)


@pytest.mark.parametrize("d", [2, 3, 5, 13, 17])
def test_sym_equals_brute_small_box(d):
    field = field_new(d)
    for lam in box_lambdas(field, 14):
        assert r_sym(field, lam) == r_brute(field, lam), (d, lam.p, lam.q)


@pytest.mark.parametrize("d", [2, 5])
def test_r_is_conjugation_invariant(d):
    field = field_new(d)
    for lam in box_lambdas(field, 12):
        assert r_brute(field, lam) == r_brute(field, lam.conj())


def test_r_vanishes_off_the_positive_cone():
    f2 = field_new(2)
    assert r_brute(f2, f2.from_int(-1)) == 0
    assert r_sym(f2, f2.from_int(-3)) == 0
    lam = f2.from_xy(1, 1)  # conjugate negative
    assert r_brute(f2, lam) == 0
    assert r_sym(f2, lam) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_r_vanishes_for_odd_sqrt_coefficient(d):
    field = field_new(d)
    for x in range(0, 12):
        for y in (-3, -1, 1, 3):
            lam = field.from_xy(x, y)
            assert r_brute(field, lam) == 0, (x, y)


def test_r_vanishes_when_sqrt_part_dominates():
    # a nonzero representation forces |y| < 4x
    for d in (2, 5):
        field = field_new(d)
        for x in range(0, 8):
            for y in (4 * x, 4 * x + 2, -(4 * x), -(4 * x + 2)):
                if x == 0 and y == 0:
                    continue
                lam = field.from_xy(x, y)
                assert r_brute(field, lam) == 0, (d, x, y)
                assert r_sym(field, lam) == 0, (d, x, y)


@pytest.mark.parametrize("d", [2, 5, 13])
def test_solution_listing_matches_count_and_verifies(d):
    field = field_new(d)
    for lam in box_lambdas(field, 10):
        sols = two_square_solutions(field, lam)
        assert len(sols) == r_brute(field, lam)
        for xi, eta in sols:
            assert xi * xi + eta * eta == lam


@given(st.sampled_from([2, 3, 5]), st.integers(0, 25))
@settings(max_examples=40, deadline=None)
def test_rational_integers_agree(d, n):
    field = field_new(d)
    lam = field.from_int(n)
    assert r_sym(field, lam) == r_brute(field, lam)


def _ellipsoid_triples(field, S):
    """The (A, B, C) that r_brute visits: A^2 + d B^2 + C^2 <= S, all even,
    or with A = B (mod 2) when half coordinates exist."""
    one = field.ring_class is RingClass.ONE_MOD_FOUR
    step = 1 if one else 2
    count = 0
    for A in range(-(isqrt(S) // step) * step, isqrt(S) + 1, step):
        for B in range(-isqrt(S // field.d) - 1, isqrt(S // field.d) + 2):
            if (B - A) % 2 or field.d * B * B > S - A * A:
                continue
            count += 2 * (isqrt(S - A * A - field.d * B * B) // step) + 1
    return count


@pytest.mark.parametrize("d", [2, 6, 3, 7, 5, 13, 17, 41])
def test_enumeration_steps_tracks_r_brute(d):
    field = field_new(d)
    for x in (300, 2000):
        lam = field.element(2 * x, 0)
        ratio = enumeration_steps(field, lam) / _ellipsoid_triples(field, 2 * lam.p)
        assert 0.9 < ratio < 1.2, (x, ratio)
    assert enumeration_steps(field, field.from_int(-5)) == 0
