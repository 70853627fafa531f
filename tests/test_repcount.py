from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcorr import field_new, r_brute, r_sym, two_square_solutions
from quadcorr.repcount import _signed_range, enumeration_steps


def box_lambdas(field, box):
    """All lambda with 0 <= lambda < box and 0 <= conj(lambda) < box."""
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


def test_signed_range_is_one_parity_class():
    for m in range(-1, 61):
        for p in (0, 1):
            assert list(_signed_range(m, p)) == [x for x in range(-m, m + 1) if (x - p) % 2 == 0]


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
    step = 3 - field.sigma
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


def _reference_solutions(field, lam):
    """r_brute's enumeration before eta was solved in closed form: every
    (A, B, C) of the ellipsoid, with E read off the sqrt(d) component."""
    if lam.sign() < 0 or lam.conj().sign() < 0:
        return []
    d = field.d
    one = field.sigma == 2
    S, Q = 2 * lam.p, lam.q

    def signed(m, parity):
        # the integers in [-m, m] of one parity, or all of them (parity None)
        return [v for v in range(-m, m + 1) if parity is None or (v - parity) % 2 == 0]

    out = []
    for A in signed(isqrt(S), None if one else 0):
        SA = S - A * A
        for B in signed(isqrt(SA // d), A & 1 if one else 0):
            SB = SA - d * B * B
            qrem = Q - A * B
            for C in signed(isqrt(SB), None if one else 0):
                rem = SB - C * C
                if C != 0:
                    if qrem % C == 0:
                        E = qrem // C
                        if d * E * E == rem and (E - C) % 2 == 0:
                            out.append((A, B, C, E))
                elif qrem == 0:
                    if rem == 0:
                        out.append((A, B, 0, 0))
                    elif rem % d == 0:
                        e = isqrt(rem // d)
                        if d * e * e == rem and e % 2 == 0:
                            out += [(A, B, 0, e), (A, B, 0, -e)]
    return [(field.element(a, b), field.element(c, e)) for a, b, c, e in out]


def _solution_keys(solutions):
    return [(xi.p, xi.q, eta.p, eta.q) for xi, eta in solutions]


def _assert_matches_reference(field, lam):
    """The same solutions in the same order: random_cayley_quadruples picks
    one by its index."""
    got = _solution_keys(two_square_solutions(field, lam))
    assert got == _solution_keys(_reference_solutions(field, lam)), (field.d, lam.p, lam.q)
    assert r_brute(field, lam) == len(got)
    return sorted(got)


@given(st.sampled_from([2, 6, 3, 7, 5, 13, 17, 41]), st.data())
@settings(max_examples=300, deadline=None)
def test_solutions_match_reference_enumeration(d, data):
    field = field_new(d)
    sigma = field.sigma
    # lambda = (i + j sqrt d)/sigma, mostly near the totally positive cone
    i = data.draw(st.integers(-4, 90 * sigma))
    j = data.draw(st.integers(-(abs(i) // isqrt(d) + 2), abs(i) // isqrt(d) + 2))
    if sigma == 2 and (i - j) % 2:
        i += 1
    lam = field.element(i, j) if sigma == 2 else field.from_xy(i, j)
    _assert_matches_reference(field, lam)


@pytest.mark.parametrize("d", [2, 6, 3, 7, 5, 13, 17, 41])
def test_solutions_match_reference_on_edge_cases(d):
    field = field_new(d)
    # lambda = 0: only xi = eta = 0
    assert _assert_matches_reference(field, field.zero()) == [(0, 0, 0, 0)]
    # not totally positive: no solution
    assert _assert_matches_reference(field, field.from_xy(1, 1)) == []
    assert _assert_matches_reference(field, field.from_int(-4)) == []
    # Q = 0, where one of C, E can vanish: rational integers
    for n in (1, 2, 5, 25, 2 * d, d * d + 1):
        assert _assert_matches_reference(field, field.from_int(n))
    # lambda = 2 xi^2: xi = eta
    xi = field.from_xy(3, 1)
    assert (xi.p, xi.q) * 2 in _assert_matches_reference(field, xi * xi * 2)
    # lambda = d * square, and 1 + d * square: eta = 2 sqrt(d), the C = 0 root
    assert (0, 0, 0, 4) in _assert_matches_reference(field, field.from_int(4 * d))
    assert (2, 0, 0, -4) in _assert_matches_reference(field, field.from_int(4 * d + 1))


@pytest.mark.parametrize("d", [2, 3, 5, 17])
def test_r_at_zero_and_one(d):
    """r(0) = 1 and r(1) = 4 in every ring class: the product r(0) r(1) = 4 that
    correlation subtracts to leave lambda = 0 out."""
    field = field_new(d)
    assert r_brute(field, field.zero()) == 1
    assert r_brute(field, field.one()) == 4
