import tracemalloc
from collections import OrderedDict
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcorr import (
    FieldMismatch,
    InvalidElement,
    NotSquarefree,
    OutOfRange,
    field_new,
)
from quadcorr import quadfield
from quadcorr.quadfield import check_squarefree, chi_table


def make_elem(field, p, q):
    """Snap (p, q) to the nearest valid doubled coordinates."""
    if field.sigma == 2:
        if (p - q) % 2:
            p += 1
        return field.element(p, q)
    return field.element(2 * p, 2 * q)


small_ints = st.integers(min_value=-40, max_value=40)
field_ds = st.sampled_from([2, 3, 5, 6, 7, 13, 17])


def test_field_new_examples():
    assert field_new(2).delta == 8
    assert field_new(5).delta == 5
    with pytest.raises(NotSquarefree):
        field_new(12)
    with pytest.raises(OutOfRange):
        field_new(1)
    with pytest.raises(OutOfRange):
        field_new(0)


# two squarefree d of each class mod 8: 1, 2, 3, 5, 6, 7
@pytest.mark.parametrize("d", [17, 10001, 2, 10, 3, 10003, 5, 13, 6, 14, 7, 23])
def test_sigma_fixes_the_ring(d):
    """sigma = 2 exactly when d = 1 (mod 4): then O = Z[(1 + sqrt d)/2] holds
    (1 + sqrt d)/2 and Delta = d, else O = Z[sqrt d] and Delta = 4d."""
    field = field_new(d)
    assert field.sigma == (2 if d % 4 == 1 else 1)
    if field.sigma == 2:
        assert field.element(1, 1).p == 1
        assert field.delta == d
    else:
        with pytest.raises(InvalidElement):
            field.element(1, 1)
        assert field.delta == 4 * d


def _reference_prime_divisors(d):
    """The prime divisors of d by a sieve: divide by each prime up to
    isqrt(d), then check that no exponent passes 1."""
    sieve = np.ones(isqrt(d) + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(isqrt(d)) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    factors = []
    rest = d
    for p in np.flatnonzero(sieve).tolist():
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    if rest > 1:
        factors.append((rest, 1))
    for p, e in factors:
        if e > 1:
            raise NotSquarefree(f"{d} is divisible by {p}^2")
    return [p for p, _ in factors]


# p^2, 2 p^2 and p q for the primes 9973 and 10007, and the largest prime
# below MAX_DELTA
@given(st.integers(min_value=2, max_value=10**8))
@example(9973**2)
@example(2 * 9973**2)
@example(9973 * 10007)
@example(113025431)
@settings(max_examples=200, deadline=None)
def test_trial_division_matches_sieve(d):
    try:
        want = _reference_prime_divisors(d)
    except NotSquarefree:
        with pytest.raises(NotSquarefree):
            check_squarefree(d)
    else:
        assert check_squarefree(d) == want


def _reference_chi_table(d, delta, prime_divisors):
    """The chi table by direct indexing: each Legendre table from the squares
    of all of 1..p-1, each part gathered by an int64 n % period over Delta."""
    parts = []
    for p in prime_divisors:
        if p != 2:
            legendre = np.full(p, -1, dtype=np.int8)
            legendre[0] = 0
            legendre[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
            parts.append(legendre)
    if d % 2 == 0:
        parts.append(np.array([0, 1, 0, -1, 0, -1, 0, 1] if d // 2 % 4 == 1
                              else [0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8))
    elif d % 4 == 3:
        parts.append(np.array([0, 1, 0, -1], dtype=np.int8))
    idx = np.arange(delta, dtype=np.int64)
    tbl = np.ones(delta, dtype=np.int8)
    for part in parts:
        tbl *= part[idx % len(part)]
    return tbl


def _assert_chi_table_matches_reference(d):
    primes = check_squarefree(d)
    delta = d if d % 4 == 1 else 4 * d
    got = chi_table(d, delta, primes)
    assert got.dtype == np.int8
    assert np.array_equal(got, _reference_chi_table(d, delta, primes)), d


def test_chi_table_matches_reference_below_2000():
    for d in range(2, 2000):
        try:
            _assert_chi_table_matches_reference(d)
        except NotSquarefree:
            pass


# d = 4 m + r is 1 or 3 (mod 4) for r = 1 or 3, and even for r = 2
@given(st.integers(min_value=25_000, max_value=250_000), st.sampled_from([1, 2, 3]))
@example(1_000_008, 3)  # 4000035 = 3 * 5 * 13 * 73 * 281
@example(1_000_017, 2)  # 4000070 = 2 * 5 * 19 * 37 * 569
@example(2_499_993, 1)  # 9999973, a prime
@settings(max_examples=12, deadline=None)
def test_chi_table_matches_reference_on_large_fields(m, r):
    try:
        _assert_chi_table_matches_reference(4 * m + r)
    except NotSquarefree:
        pass


def test_chi_table_working_set():
    # a prime d = 1 (mod 4), so Delta = d and its Legendre table is Delta long;
    # the reference peaks at 19 bytes per residue
    d = 9999973
    primes = check_squarefree(d)
    tracemalloc.start()
    try:
        chi_table(d, d, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * d, peak


def test_chi_table_of_a_prime_delta_is_its_legendre_table():
    # Delta = d = 29999989 is prime, so its Legendre table is the chi table: the
    # build holds one Delta-byte table beside its chunk of squares (1.56 bytes per
    # residue), where multiplying it into a table of ones held two (2.0)
    d = 29999989
    primes = check_squarefree(d)
    assert primes == [d] and d % 4 == 1
    tracemalloc.start()
    try:
        chi_table(d, d, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * d, peak / d


def test_ring_op_examples():
    f2 = field_new(2)
    assert f2.from_xy(1, 0) + f2.from_xy(0, 1) == f2.from_xy(1, 1)
    assert f2.from_xy(1, 1) * f2.from_xy(1, -1) == f2.from_int(-1)
    f5 = field_new(5)
    assert f5.omega() * f5.omega_bar() == f5.from_int(-1)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        field_new(2).one() + field_new(3).one()
    with pytest.raises(FieldMismatch):
        field_new(2).one() * field_new(3).one()


def test_parity_enforced_at_construction():
    f5 = field_new(5)
    f5.element(1, 1)
    f5.element(3, -1)
    with pytest.raises(InvalidElement):
        f5.element(1, 0)
    f2 = field_new(2)
    f2.element(2, 0)
    with pytest.raises(InvalidElement):
        f2.element(1, 1)
    with pytest.raises(InvalidElement):
        f2.element(2, 1)


@given(field_ds, small_ints, small_ints)
@settings(max_examples=100, deadline=None)
def test_parity_invariant_random(d, p, q):
    field = field_new(d)
    try:
        elem = field.element(p, q)
    except InvalidElement:
        if field.sigma == 2:
            assert (p - q) % 2 == 1
        else:
            assert p % 2 or q % 2
    else:
        assert elem.p == p and elem.q == q


def test_conj_examples():
    f2 = field_new(2)
    assert f2.from_xy(3, 2).conj() == f2.from_xy(3, -2)
    assert f2.from_int(5).conj() == f2.from_int(5)
    f5 = field_new(5)
    assert f5.omega().conj() == f5.omega_bar()


@given(field_ds, small_ints, small_ints, small_ints, small_ints)
@settings(max_examples=100, deadline=None)
def test_conj_is_ring_involution(d, p1, q1, p2, q2):
    field = field_new(d)
    a = make_elem(field, p1, q1)
    b = make_elem(field, p2, q2)
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


def test_embed_examples():
    f2 = field_new(2)
    lam, sig = f2.from_xy(1, 1).embed()
    assert lam == pytest.approx(2.41421356, abs=1e-8)
    assert sig == pytest.approx(-0.41421356, abs=1e-8)
    assert f2.zero().embed() == (0.0, 0.0)
    f5 = field_new(5)
    lam, sig = f5.omega().embed()
    assert lam == pytest.approx(1.6180339887, abs=1e-9)
    assert sig == pytest.approx(-0.6180339887, abs=1e-9)


@given(field_ds, small_ints, small_ints)
@settings(max_examples=100, deadline=None)
def test_embed_trace_and_norm(d, p, q):
    field = field_new(d)
    a = make_elem(field, p, q)
    lam, sig = a.embed()
    assert lam + sig == pytest.approx(a.trace(), rel=1e-12, abs=1e-12)
    expected = a.norm()
    assert lam * sig == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_cmp_examples():
    f2 = field_new(2)
    assert f2.from_xy(1, 1).cmp(Fraction(5, 2)) < 0
    assert f2.from_xy(3, -2).cmp(0) > 0
    assert f2.zero().cmp(0) == 0


@given(field_ds, small_ints, small_ints,
       st.fractions(min_value=-60, max_value=60, max_denominator=16))
@settings(max_examples=100, deadline=None)
def test_cmp_matches_float(d, p, q, bound):
    field = field_new(d)
    a = make_elem(field, p, q)
    margin = a.embed()[0] - float(bound)
    if abs(margin) > 1e-6:
        assert a.cmp(bound) == (1 if margin > 0 else -1)


def test_in_two_o_examples():
    f2 = field_new(2)
    assert f2.from_xy(2, 2).in_two_o()
    assert not f2.from_xy(1, 1).in_two_o()
    f5 = field_new(5)
    assert f5.from_xy(1, 1).in_two_o()  # 1 + sqrt5 = 2 * (1+sqrt5)/2
    assert not f5.omega().in_two_o()


@given(field_ds, small_ints, small_ints)
@settings(max_examples=100, deadline=None)
def test_in_two_o_matches_halving(d, p, q):
    field = field_new(d)
    a = make_elem(field, p, q)
    doubled = a * 2
    assert doubled.in_two_o()
    assert doubled.half() == a


def test_embed_exact_handles_cancellation():
    # 8119/5741 is a continued-fraction convergent of sqrt(2): p - q*sqrt(2)
    # is tiny, which is where plain float embedding goes bad.
    f2 = field_new(2)
    a = f2.element(2 * 8119, -2 * 5741)
    hi = a.embed_exact(digits=50)
    assert float(hi[0]) == pytest.approx(a.norm() / float(hi[1]), rel=1e-12)


def test_ordering_operators():
    f2 = field_new(2)
    assert f2.from_xy(1, 1) > f2.from_xy(2, 0)
    assert f2.from_xy(0, 1) < f2.from_xy(2, 0)
    assert f2.from_xy(1, 0) <= f2.from_xy(1, 0)


@given(field_ds, small_ints, small_ints, small_ints, small_ints, st.booleans())
@settings(max_examples=300, deadline=None)
@example(2, 2, 2, 2, 2, False)  # 2 + 2 sqrt 2 against an equal element and against 2
@example(5, 4, 0, 2, 0, False)  # 2 against 1 and against 2
def test_ordering_matches_sign_of_difference(d, p1, q1, p2, q2, same):
    field = field_new(d)
    a = make_elem(field, p1, q1)
    b = a if same else make_elem(field, p2, q2)
    n = a.p // 2 if same and a.q == 0 and a.p % 2 == 0 else p2  # an equal int too
    for other in (b, field.element(b.p, b.q), n):
        s = (a - other).sign()
        assert (a < other) == (s < 0) and (a <= other) == (s <= 0)
        assert (a > other) == (s > 0) and (a >= other) == (s >= 0)
        assert (a == other) == (s == 0) and (a != other) == (s != 0)
        assert (other < a) == (s > 0) and (other <= a) == (s >= 0)
        assert (other > a) == (s < 0) and (other >= a) == (s <= 0)
        assert (other == a) == (s == 0) and (other != a) == (s != 0)


def test_pow():
    f2 = field_new(2)
    u = f2.from_xy(1, 1)
    assert u ** 0 == f2.one()
    assert u ** 3 == u * u * u


def test_field_cache_drops_least_recently_used(monkeypatch):
    # Delta = 8, 5, 12, 13, 44 for d = 2, 5, 3, 13, 11
    monkeypatch.setattr(quadfield, "_fields", OrderedDict())
    monkeypatch.setattr(quadfield, "_fields_bytes", 0)
    monkeypatch.setattr(quadfield, "_FIELD_CACHE_BYTES", 30)
    f2, f5, _ = field_new(2), field_new(5), field_new(3)
    assert field_new(2) is f2  # a hit makes d = 2 the most recent
    field_new(13)  # 38 bytes: drops 5, then 3
    assert list(quadfield._fields) == [2, 13] and quadfield._fields_bytes == 21
    assert field_new(5) is not f5 and field_new(5) == f5  # rebuilt
    with pytest.raises(NotSquarefree):
        field_new(12)
    assert list(quadfield._fields) == [2, 13, 5]
    field_new(11)  # alone past the cap, it is kept alone
    assert list(quadfield._fields) == [11] and quadfield._fields_bytes == 44
