import hashlib
import random

import pytest

from quadcorr import (
    DepthExceeded,
    InvalidElement,
    MatO,
    NotInM,
    WrongCongruenceClass,
    cayley,
    coset_bfs,
    equivalent,
    field_new,
    in_gamma,
    in_gamma0_2,
    index_gamma,
    random_cayley_quadruples,
    random_m_elements,
    representatives,
    u_exact,
    u_numeric,
    verify_conjugation,
)
from quadcorr import hilbertgroup
from quadcorr.hilbertgroup import _random_element


def random_word(field, rng, length=5, span=4):
    """A random element of the full group as a word in S and translations."""
    m = MatO.identity(field)
    s = MatO.s_matrix(field)
    for _ in range(length):
        if rng.random() < 0.4:
            m = m * s
        else:
            m = m * MatO.translation(_random_element(rng, field, span))
    return m


def test_matrix_examples():
    f2 = field_new(2)
    s = MatO.s_matrix(f2)
    ident = MatO.identity(f2)
    assert s * s == ident
    tu = MatO.translation(f2.from_xy(2, 1))
    tv = MatO.translation(f2.from_xy(-1, 3))
    assert tu * tv == MatO.translation(f2.from_xy(1, 4))
    m = s * tu
    assert m * m.inverse() == ident


def test_determinant_enforced():
    f2 = field_new(2)
    two = f2.from_int(2)
    with pytest.raises(InvalidElement):
        MatO(two, f2.zero(), f2.zero(), f2.one())


def test_determinant_error_prints_the_determinant():
    f5 = field_new(5)
    a = f5.element(3, 1)  # (3 + sqrt 5)/2, of norm 1: det = a^2 = (7 + 3 sqrt 5)/2
    with pytest.raises(InvalidElement, match=r"determinant must be 1, got .*") as err:
        MatO(a, f5.zero(), f5.zero(), a)
    assert str(a * a) in str(err.value)


def test_entries_outside_the_ring_are_refused_as_products_are():
    """An entry whose (p, q) breaks the ring's parity, built past QuadInt's own
    check, fails the product's parity test in MatO as in QuadInt.__mul__."""
    f2 = field_new(2)
    odd = object.__new__(type(f2.one()))
    for name, value in (("field", f2), ("p", 1), ("q", 0)):
        object.__setattr__(odd, name, value)
    with pytest.raises(InvalidElement, match="left the ring"):
        odd * odd
    with pytest.raises(InvalidElement, match="left the ring"):
        MatO(odd, f2.zero(), f2.zero(), odd)


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_product_matches_ring_arithmetic(d):
    """Each entry x y + z w of a product equals QuadInt arithmetic, and the
    product keeps the +-Id normalization of the constructor."""
    field, rng = field_new(d), random.Random(d)
    for _ in range(30):
        m, n = random_word(field, rng), random_word(field, rng)
        want = MatO(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                    m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)
        got = m * n
        assert got.entries() == want.entries()
        first = next(x for e in got.entries() for x in (e.p, e.q) if x)
        assert first > 0


def test_sign_normalization():
    f2 = field_new(2)
    m = MatO.translation(f2.from_int(3))
    neg = MatO(-m.a, -m.b, -m.c, -m.d)
    assert m == neg
    assert hash(m) == hash(neg)


def test_in_gamma_examples():
    f2 = field_new(2)
    assert in_gamma(MatO.identity(f2))
    assert in_gamma(MatO.s_matrix(f2))
    assert not in_gamma(MatO.translation(f2.one()))


def test_in_gamma0_examples():
    f2 = field_new(2)
    assert in_gamma0_2(MatO.identity(f2))
    assert not in_gamma0_2(MatO.s_matrix(f2))
    assert in_gamma0_2(MatO.lower_translation(f2.from_int(2)))


def test_equivalent_examples():
    f2 = field_new(2)
    ident = MatO.identity(f2)
    t1 = MatO.translation(f2.one())
    assert not equivalent(t1, ident)
    g = MatO.s_matrix(f2) * t1
    gamma_elem = MatO.translation(f2.from_int(2))
    assert in_gamma(gamma_elem)
    assert equivalent(g * gamma_elem, g)


def test_equivalent_is_equivalence_relation():
    rng = random.Random(11)
    for d in (2, 5):
        field = field_new(d)
        for _ in range(25):
            g1 = random_word(field, rng)
            g2 = random_word(field, rng)
            g3 = random_word(field, rng)
            assert equivalent(g1, g1)
            assert equivalent(g1, g2) == equivalent(g2, g1)
            if equivalent(g1, g2) and equivalent(g2, g3):
                assert equivalent(g1, g3)


def test_representatives_d2_exact_set():
    f2 = field_new(2)
    t = MatO.translation
    s = MatO.s_matrix(f2)
    expected = [
        MatO.identity(f2),
        t(f2.one()),
        t(f2.sqrt_d()),
        t(f2.from_xy(1, 1)),
        s * t(f2.one()),
        s * t(f2.from_xy(1, 1)),
    ]
    assert representatives(f2) == expected


@pytest.mark.parametrize("d,count", [(2, 6), (3, 6), (17, 9), (5, 15), (13, 15)])
def test_representative_counts_and_inequivalence(d, count):
    field = field_new(d)
    reps = representatives(field)
    assert len(reps) == count == index_gamma(field)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not equivalent(reps[i], reps[j]), (d, i, j)


@pytest.mark.parametrize("d,count", [(2, 6), (3, 6), (17, 9), (5, 15), (13, 15)])
def test_coset_bfs_counts(d, count):
    field = field_new(d)
    graph = coset_bfs(field)
    assert graph.closed
    assert graph.count == count
    assert graph.conditional == (d % 4 != 1)
    # the edge map is total over cosets x generators
    assert set(graph.edges) == {
        (ci, gi)
        for ci in range(graph.count)
        for gi in range(len(graph.generators))
    }
    # every representative from the closed-form list lands in a distinct class
    classes = []
    for rep in representatives(field):
        matches = [k for k, r in enumerate(graph.representatives) if equivalent(rep, r)]
        assert len(matches) == 1
        classes.append(matches[0])
    assert len(set(classes)) == count


def test_coset_bfs_depth_guard():
    with pytest.raises(DepthExceeded):
        coset_bfs(field_new(5), depth_limit=1)


def test_cayley_examples():
    f2 = field_new(2)
    quad = cayley(MatO.identity(f2))
    assert (quad.qa, quad.qb, quad.qc, quad.qd) == (
        f2.one(), f2.zero(), f2.zero(), f2.zero())
    quad = cayley(MatO.s_matrix(f2))
    assert (quad.qa, quad.qb, quad.qc, quad.qd) == (
        f2.zero(), f2.one(), f2.zero(), f2.zero())
    with pytest.raises(NotInM):
        cayley(MatO.translation(f2.one()))


def test_cayley_roundtrip_and_identity():
    for d in (2, 5):
        field = field_new(d)
        for m in random_m_elements(field, 60, seed=3):
            quad = cayley(m)
            assert quad.to_matrix() == m
            lhs = quad.qa * quad.qa + quad.qb * quad.qb
            rhs = quad.qc * quad.qc + quad.qd * quad.qd + field.one()
            assert lhs == rhs


def test_random_quadruples_satisfy_membership():
    for d in (2, 5):
        field = field_new(d)
        for quad in random_cayley_quadruples(field, 25, seed=5):
            m = quad.to_matrix()
            assert in_gamma(m)


def test_u_examples():
    f2 = field_new(2)
    assert u_exact(MatO.identity(f2)).is_zero()
    assert u_exact(MatO.s_matrix(f2)).is_zero()
    assert u_numeric(MatO.identity(f2)) == (0.0, 0.0)
    assert u_numeric(MatO.translation(f2.one())) == (
        pytest.approx(0.25), pytest.approx(0.25))


@pytest.mark.parametrize("d", [2, 5, 17])
def test_u_exact_matches_numeric(d):
    field = field_new(d)
    for m in random_m_elements(field, 200, seed=99):
        exact = [float(v) for v in u_exact(m).embed_exact()]
        numeric = u_numeric(m)
        for e, n in zip(exact, numeric):
            assert abs(e - n) <= 1e-9 * max(1.0, abs(e)), (d, m)


@pytest.mark.parametrize("d", [2, 3, 17])
def test_verify_conjugation_passes(d):
    report = verify_conjugation(field_new(d), samples=100)
    assert report.all_passed
    assert report.samples == 100


def _digest(matrices):
    entries = [tuple((e.p, e.q) for e in m.entries()) for m in matrices]
    return hashlib.sha256(repr(entries).encode()).hexdigest()


def test_sampled_words_are_pinned(monkeypatch):
    """The seeded samplers draw the same words as when they were recorded:
    the generator factories and their order fix the rng calls."""
    ms = random_m_elements(field_new(2), 20, seed=7)
    assert [(e.p, e.q) for e in ms[0].entries()] == [(6, 0), (4, -10), (4, -2), (10, -8)]
    assert _digest(ms) == "f8c19ba26e3fece7bdd22d41212ccf9aa81f0ebcbbe9091396f907ff03fdc22e"

    words = []
    draw = hilbertgroup._random_word

    def recorded(*args):
        words.append(draw(*args))
        return words[-1]

    monkeypatch.setattr(hilbertgroup, "_random_word", recorded)
    report = verify_conjugation(field_new(3), samples=50)
    assert (report.into_gamma_ok, report.into_gamma0_ok) == (50, 50) and len(words) == 100
    assert _digest(words) == "7da83a2eb8807d272817fd8d74140421daeb92942d1bdd63d16ed875caf531c7"


def test_verify_conjugation_rejects_5_mod_8():
    with pytest.raises(WrongCongruenceClass):
        verify_conjugation(field_new(5), samples=2)
    with pytest.raises(WrongCongruenceClass):
        verify_conjugation(field_new(13), samples=2)


def test_translation_relation_in_gamma():
    # T_{-1} S T_u S T_1 always lands in the even subgroup
    rng = random.Random(4)
    for d in (2, 3, 5, 17):
        field = field_new(d)
        s = MatO.s_matrix(field)
        t = MatO.translation
        for _ in range(20):
            u = _random_element(rng, field, 6)
            m = t(-field.one()) * s * t(u) * s * t(field.one())
            assert in_gamma(m), (d, u.p, u.q)


@pytest.mark.parametrize("d", [5, 13])
def test_word_reduction_relation_5_mod_8(d):
    field = field_new(d)
    s = MatO.s_matrix(field)
    t = MatO.translation
    w = s * t(field.omega()) * s * t(field.omega())
    rng = random.Random(8)
    for _ in range(20):
        u = _random_element(rng, field, 6)
        assert in_gamma(w.inverse() * t(u) * w)


def test_word_reduction_relation_1_mod_8():
    field = field_new(17)
    s = MatO.s_matrix(field)
    t = MatO.translation
    lhs = t(field.one()) * s * t(field.omega_bar())
    rhs = s * t(field.one()) * s * t(field.omega())
    assert equivalent(rhs, lhs)


def test_length_four_words_distinct_for_5_mod_8():
    field = field_new(5)
    s = MatO.s_matrix(field)
    t = MatO.translation
    w1 = s * t(field.omega()) * s * t(field.omega())
    w2 = s * t(field.omega_bar()) * s * t(field.omega_bar())
    assert not equivalent(w1, w2)


def test_gamma0_coset_criterion():
    # same Gamma_0(2O) coset iff the determinant of the two first columns
    # lies in 2O
    rng = random.Random(21)
    field = field_new(2)
    for _ in range(40):
        g1 = random_word(field, rng)
        g2 = random_word(field, rng)
        same = in_gamma0_2(g2.inverse() * g1)
        det = g1.a * g2.c - g2.a * g1.c
        assert same == det.in_two_o()


def test_conj_pairs_with_matrix():
    f5 = field_new(5)
    rng = random.Random(2)
    m = random_word(f5, rng)
    mc = m.conj()
    assert mc.a == m.a.conj()
    assert (m * m).conj() == mc * mc
