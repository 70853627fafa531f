"""Exact 2x2 unimodular matrices over the ring, the even-trace/antitrace
subgroup Gamma, coset representatives and their breadth-first verification,
and the quadruple parametrization linking matrices to the point-pair
invariant u.

Matrices live in SL2(O) modulo +-Id: a canonical sign is chosen by making
the first lexicographically nonzero entry positive, so equality and hashing
are well defined on the quotient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    DepthExceeded,
    FieldMismatch,
    InvalidElement,
    NotInM,
    OutOfRange,
    WrongCongruenceClass,
)
from .quadfield import FieldData, QuadInt


def _two_products(x: QuadInt, y: QuadInt, z: QuadInt, w: QuadInt,
                  d: int) -> tuple[int, int, int, int]:
    """The doubled coordinates of x y and of z w, each doubled again, after
    QuadInt.__mul__'s test that both products lie in the ring."""
    p1 = x.p * y.p + d * x.q * y.q
    q1 = x.p * y.q + x.q * y.p
    p2 = z.p * w.p + d * z.q * w.q
    q2 = z.p * w.q + z.q * w.p
    if (p1 | q1 | p2 | q2) & 1:
        raise InvalidElement("product left the ring; invalid operands")
    return p1, q1, p2, q2


class MatO:
    """[[a, b], [c, d]] with ring-integer entries and determinant one,
    normalized to the +-Id quotient."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: QuadInt, b: QuadInt, c: QuadInt, d: QuadInt):
        field = a.field
        for e in (b, c, d):
            if e.field.d != field.d:
                raise FieldMismatch("matrix entries from different fields")
        # the determinant a d - b c, doubled twice, from the entries' (p, q)
        p1, q1, p2, q2 = _two_products(a, d, b, c, field.d)
        if p1 - p2 != 4 or q1 != q2:
            det = field.element((p1 - p2) >> 1, (q1 - q2) >> 1)
            raise InvalidElement(f"determinant must be 1, got {det}")
        # of M and -M keep the one whose first nonzero coordinate is positive
        for x in (a.p, a.q, b.p, b.q, c.p, c.q, d.p, d.q):
            if x:
                break
        if x < 0:
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("MatO is immutable")

    @property
    def field(self) -> FieldData:
        return self.a.field

    # group structure

    def __mul__(self, other: MatO) -> MatO:
        if self.field.d != other.field.d:
            raise FieldMismatch("matrices over different fields")
        field = self.field

        def entry(x, y, z, w):  # x y + z w
            p1, q1, p2, q2 = _two_products(x, y, z, w, field.d)
            return QuadInt(field, (p1 + p2) >> 1, (q1 + q2) >> 1)

        return MatO(
            entry(self.a, other.a, self.b, other.c),
            entry(self.a, other.b, self.b, other.d),
            entry(self.c, other.a, self.d, other.c),
            entry(self.c, other.b, self.d, other.d),
        )

    def inverse(self) -> MatO:
        return MatO(self.d, -self.b, -self.c, self.a)

    def trace(self) -> QuadInt:
        return self.a + self.d

    def antitrace(self) -> QuadInt:
        return self.b + self.c

    def conj(self) -> MatO:
        """Entrywise Galois conjugate; the second half of the pair action."""
        return MatO(self.a.conj(), self.b.conj(), self.c.conj(), self.d.conj())

    def entries(self) -> tuple[QuadInt, QuadInt, QuadInt, QuadInt]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatO)
            and self.field.d == other.field.d
            and all(x == y for x, y in zip(self.entries(), other.entries()))
        )

    def __hash__(self) -> int:
        return hash(tuple((e.p, e.q) for e in self.entries()))

    def __repr__(self) -> str:
        return f"MatO[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    # constructors

    @staticmethod
    def identity(field: FieldData) -> MatO:
        one, zero = field.one(), field.zero()
        return MatO(one, zero, zero, one)

    @staticmethod
    def s_matrix(field: FieldData) -> MatO:
        one, zero = field.one(), field.zero()
        return MatO(zero, one, -one, zero)

    @staticmethod
    def translation(u: QuadInt) -> MatO:
        field = u.field
        return MatO(field.one(), u, field.zero(), field.one())

    @staticmethod
    def lower_translation(u: QuadInt) -> MatO:
        field = u.field
        return MatO(field.one(), field.zero(), u, field.one())


def in_gamma(m: MatO) -> bool:
    """Membership in Gamma: trace and antitrace both in 2O."""
    return m.trace().in_two_o() and m.antitrace().in_two_o()


def in_gamma0_2(m: MatO) -> bool:
    """Membership in Gamma_0(2O): lower-left entry in 2O."""
    return m.c.in_two_o()


def equivalent(g1: MatO, g2: MatO) -> bool:
    """Same left coset of Gamma: g2^-1 g1 in Gamma."""
    if g1.field.d != g2.field.d:
        raise FieldMismatch("matrices over different fields")
    return in_gamma(g2.inverse() * g1)


# ---------------------------------------------------------------------------
# Cayley quadruples and the point-pair invariant.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CayleyQuadruple:
    """(qa, qb, qc, qd) with qa^2 + qb^2 = qc^2 + qd^2 + 1, parametrizing the
    matrix [[qa+qc, qb+qd], [qd-qb, qa-qc]]."""

    qa: QuadInt
    qb: QuadInt
    qc: QuadInt
    qd: QuadInt

    def to_matrix(self) -> MatO:
        return MatO(
            self.qa + self.qc,
            self.qb + self.qd,
            self.qd - self.qb,
            self.qa - self.qc,
        )


def cayley(m: MatO) -> CayleyQuadruple:
    """Quadruple for a matrix in M; raises NotInM when the half-entries do
    not all lie in the ring."""
    sums = (m.a + m.d, m.a - m.d, m.b + m.c, m.b - m.c)
    if not all(s.in_two_o() for s in sums):
        raise NotInM("matrix trace/antitrace are not both in 2O")
    qa, qc, qd, qb = (s.half() for s in sums)
    quad = CayleyQuadruple(qa=qa, qb=qb, qc=qc, qd=qd)
    lhs = quad.qa * quad.qa + quad.qb * quad.qb
    rhs = quad.qc * quad.qc + quad.qd * quad.qd + m.field.one()
    if lhs != rhs:
        raise InvalidElement("quadruple identity failed; matrix is not unimodular")
    return quad


def u_exact(m: MatO) -> QuadInt:
    """u(m(i), i) as an exact ring element, via the quadruple identity."""
    quad = cayley(m)
    return quad.qc * quad.qc + quad.qd * quad.qd


def u_numeric(m: MatO) -> tuple[float, float]:
    """u(m(i), i) in both real embeddings by Moebius action in floats.

    z = (a i + b)/(c i + d) is evaluated through Re z = (ac + bd)/(c^2+d^2)
    and Im z = 1/(c^2+d^2); the latter avoids forming a d - b c in floats,
    which would cancel catastrophically for large entries."""
    out = []
    for k in (0, 1):
        a = m.a.embed()[k]
        b = m.b.embed()[k]
        c = m.c.embed()[k]
        d = m.d.embed()[k]
        den = c * c + d * d
        re = (a * c + b * d) / den
        im = 1.0 / den
        out.append((re * re + (im - 1.0) ** 2) / (4.0 * im))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Coset representatives and breadth-first verification.
# ---------------------------------------------------------------------------


def representatives(field: FieldData) -> list[MatO]:
    """The complete left-coset representative set for Gamma in the full
    group: 6 matrices when 4 does not divide d-1, 9 when 8 | d-1, and 15
    when 8 | d-5."""
    ident = MatO.identity(field)
    s = MatO.s_matrix(field)
    t = MatO.translation
    one = field.one()

    if field.sigma == 1:  # squarefree, so d = 2 or 3 (mod 4)
        eta = field.from_xy(1, 1) if field.d % 4 == 3 else field.sqrt_d()
        return [
            ident,
            t(one),
            t(eta),
            t(eta + one),
            s * t(one),
            s * t(eta + one),
        ]

    omega = field.omega()
    omega_bar = field.omega_bar()
    big = [one, omega, omega_bar]
    starred = [omega, omega_bar]
    c1 = [ident] + [t(u) for u in big]
    c2 = [s * t(u) for u in big]
    if field.d % 8 == 1:
        extra = [t(one) * s * t(omega), t(one) * s * t(omega_bar)]
        return c1 + c2 + extra
    c3 = [t(u) * s * t(v) for u in big for v in starred]
    c4 = [s * t(v) * s * t(v) for v in starred]
    return c1 + c2 + c3 + c4


@dataclass
class CosetGraph:
    """Schreier-type graph of left cosets under left multiplication by the
    generators. conditional marks the cases where closure of the search is
    only an index verification modulo the generating-set assumption."""

    representatives: list[MatO]
    edges: dict[tuple[int, int], int]
    closed: bool
    generators: list[MatO]
    conditional: bool

    @property
    def count(self) -> int:
        return len(self.representatives)


def default_generators(field: FieldData) -> list[MatO]:
    """S, T_1 and T_mu with mu = (1+sqrt d)/2 or sqrt d, closed under
    inverses so the coset orbit is the full coset space; the five are
    distinct, as mu != 0."""
    one = field.one()
    mu = field.omega() if field.sigma == 2 else field.sqrt_d()
    return [
        MatO.s_matrix(field),
        MatO.translation(one),
        MatO.translation(mu),
        MatO.translation(-one),
        MatO.translation(-mu),
    ]


def coset_bfs(field: FieldData, depth_limit: int = 8) -> CosetGraph:
    """Breadth-first closure of the coset space from the identity coset.

    Cosets are identified by linear scan with `equivalent`; the index is at
    most 15, so no canonical form is needed.
    """
    if depth_limit < 1:
        raise OutOfRange("depth_limit must be >= 1")
    gens = default_generators(field)
    reps: list[MatO] = [MatO.identity(field)]
    edges: dict[tuple[int, int], int] = {}
    frontier = [0]
    depth = 0
    while frontier:
        if depth >= depth_limit:
            raise DepthExceeded(
                f"coset search still open after {depth_limit} levels"
            )
        next_frontier: list[int] = []
        for ci in frontier:
            base = reps[ci]
            for gi, g in enumerate(gens):
                cand = g * base
                target = None
                for ri, r in enumerate(reps):
                    if equivalent(cand, r):
                        target = ri
                        break
                if target is None:
                    reps.append(cand)
                    target = len(reps) - 1
                    next_frontier.append(target)
                edges[(ci, gi)] = target
        frontier = next_frontier
        depth += 1
    return CosetGraph(
        representatives=reps,
        edges=edges,
        closed=True,
        generators=gens,
        conditional=field.sigma == 1,
    )


# ---------------------------------------------------------------------------
# Conjugation check Gamma = C^-1 Gamma_0(2O) C for 8 not dividing d - 5.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugationReport:
    samples: int
    into_gamma_ok: int
    into_gamma0_ok: int

    @property
    def all_passed(self) -> bool:
        return self.into_gamma_ok == self.samples and self.into_gamma0_ok == self.samples


def _random_element(rng: random.Random, field: FieldData, span: int) -> QuadInt:
    if field.sigma == 2:
        p = rng.randint(-span, span)
        q = rng.randint(-span, span)
        if (p - q) % 2 != 0:
            p += 1
        return field.element(p, q)
    return field.from_xy(rng.randint(-span, span), rng.randint(-span, span))


def _random_word(rng: random.Random, field: FieldData, factories, length: int) -> MatO:
    m = MatO.identity(field)
    for _ in range(length):
        m = m * rng.choice(factories)(rng)
    return m


def _gamma_factories(field: FieldData, span: int) -> list:
    """Random Gamma generators T_{2u}, the lower translation by 2u, and S,
    with u drawn by _random_element over span, in the order words draw them."""

    def rnd_t2(r: random.Random) -> MatO:
        return MatO.translation(_random_element(r, field, span) * 2)

    def rnd_l2(r: random.Random) -> MatO:
        return MatO.lower_translation(_random_element(r, field, span) * 2)

    def rnd_s(r: random.Random) -> MatO:
        return MatO.s_matrix(field)

    return [rnd_t2, rnd_l2, rnd_s]


def verify_conjugation(field: FieldData, samples: int = 100,
                       seed: int = 0) -> ConjugationReport:
    """Sample random words of Gamma_0(2O) and Gamma and check both inclusions
    of the conjugation identity with C = S T_1."""
    if field.d % 8 == 5:
        raise WrongCongruenceClass(
            f"d={field.d} is 5 mod 8; the conjugation identity does not apply"
        )
    rng = random.Random(seed)
    c = MatO.s_matrix(field) * MatO.translation(field.one())
    c_inv = c.inverse()

    def rnd_t(r: random.Random) -> MatO:
        return MatO.translation(_random_element(r, field, 3))

    gamma_factories = _gamma_factories(field, 3)
    gamma0_factories = [rnd_t, gamma_factories[1]]

    into_gamma = 0
    into_gamma0 = 0
    for _ in range(samples):
        g = _random_word(rng, field, gamma0_factories, rng.randint(1, 5))
        if not in_gamma0_2(g):
            raise InvalidElement("sampled word left Gamma_0(2O)")
        if in_gamma(c_inv * g * c):
            into_gamma += 1

        h = _random_word(rng, field, gamma_factories, rng.randint(1, 5))
        if not in_gamma(h):
            raise InvalidElement("sampled word left Gamma")
        if in_gamma0_2(c * h * c_inv):
            into_gamma0 += 1
    return ConjugationReport(
        samples=samples,
        into_gamma_ok=into_gamma,
        into_gamma0_ok=into_gamma0,
    )


# ---------------------------------------------------------------------------
# Random sampling of M, both through quadruples and through group words.
# ---------------------------------------------------------------------------


def random_cayley_quadruples(field: FieldData, count: int,
                             seed: int = 0) -> list[CayleyQuadruple]:
    """Random quadruples: draw (qc, qd) over span 4, then solve qa^2 + qb^2 =
    qc^2 + qd^2 + 1 by enumeration and pick one solution; resample when there
    is none."""
    from .repcount import two_square_solutions

    rng = random.Random(seed)
    out: list[CayleyQuadruple] = []
    while len(out) < count:
        qc = _random_element(rng, field, 4)
        qd = _random_element(rng, field, 4)
        target = qc * qc + qd * qd + field.one()
        sols = two_square_solutions(field, target)
        if not sols:
            continue
        qa, qb = rng.choice(sols)
        out.append(CayleyQuadruple(qa=qa, qb=qb, qc=qc, qd=qd))
    return out


def random_m_elements(field: FieldData, count: int, seed: int = 0) -> list[MatO]:
    """Random elements of M: a share of 0.3 built from random Cayley
    quadruples and the rest as short words in Gamma generators (M is closed
    under products up to sign, so every word stays in M)."""
    rng = random.Random(seed)
    n_quad = int(count * 0.3)
    out = [q.to_matrix() for q in
           random_cayley_quadruples(field, n_quad, seed=rng.randrange(1 << 30))]

    factories = _gamma_factories(field, 2)
    while len(out) < count:
        m = _random_word(rng, field, factories, rng.randint(1, 6))
        if max(abs(e.p) for e in m.entries()) > 1 << 40:
            continue  # keep float cross-checks inside double precision
        out.append(m)
    return out
