"""Counting representations lambda = xi^2 + eta^2 with xi, eta ring integers.

Two independent routes:

* r_brute: direct enumeration of xi, with eta solved in closed form from
  the defining equations (C^2 is a root of a quadratic);
* r_sym:   enumeration restricted to six mutually exclusive orbit
  representative classes, recombined as 8*(M1+M2+M3+M4) + 2*(M1*+M2*).

Each serves as the oracle for the other. Everything runs on doubled
coordinates: lambda = (P + Q sqrt(d))/2, xi = (A + B sqrt(d))/2,
eta = (C + E sqrt(d))/2, with

    A^2 + d B^2 + C^2 + d E^2 = 2 P      and      A B + C E = Q.
"""

from __future__ import annotations

from math import isqrt

from .quadfield import FieldData, QuadInt, sign_quad

# largest enumeration_steps the rcount command runs: at the limit r_sym takes
# about 0.3 s and r_brute 0.03 s (2-vCPU Xeon, d in {2, 3, 5, 17})
RCOUNT_STEP_LIMIT = 10_000_000


def _signed_range(maxabs: int, parity: int):
    """The integers x in [-maxabs, maxabs] with x = parity (mod 2)."""
    return range(-maxabs + (maxabs + parity) % 2, maxabs + 1, 2)


def _totally_nonnegative(lam: QuadInt) -> bool:
    d = lam.field.d
    return sign_quad(lam.p, lam.q, d) >= 0 and sign_quad(lam.p, -lam.q, d) >= 0


def _solutions_doubled(field: FieldData, lam: QuadInt) -> list[tuple[int, int, int, int]]:
    """All doubled quadruples (A, B, C, E) with xi = (A+B sqrt d)/2,
    eta = (C+E sqrt d)/2 and xi^2 + eta^2 = lam, ordered by (A, B, C).

    For each xi, eta solves C^2 + d E^2 = R and C E = q, so C^2 and d E^2
    are the two roots of x^2 - R x + d q^2: eta is found in closed form
    from integer square roots of the discriminant and of C^2."""
    if not _totally_nonnegative(lam):
        return []
    d = field.d
    S = 2 * lam.p
    Q = lam.q
    out: list[tuple[int, int, int, int]] = []
    amax, step = isqrt(S), 3 - field.sigma
    for A in range(amax % step - amax, amax + 1, step):
        SA = S - A * A
        # B = A (mod 2): A is even unless half coordinates exist
        for B in _signed_range(isqrt(SA // d), A & 1):
            R = SA - d * B * B
            q = Q - A * B
            if q == 0 and R % d == 0:
                # the root 0 of q = 0: C = 0 and d E^2 = R, with E even; then
                # R is no nonzero square, so the other root R gives no C
                e = isqrt(R // d)
                if d * e * e == R and e % 2 == 0:
                    out += [(A, B, 0, e), (A, B, 0, -e)] if e else [(A, B, 0, 0)]
                    continue
            disc = R * R - 4 * d * q * q
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            # s = R (mod 2). A nonzero q makes the product d q^2 of the roots
            # positive and no square (d is squarefree): at most one root is
            # C^2, and C^2 | d q^2 makes C divide q.
            for c2 in ((R - s) // 2, (R + s) // 2):
                c = isqrt(c2)
                if c and c * c == c2:
                    E = q // c
                    if (E - c) % 2 == 0 and c % step == 0:
                        out.append((A, B, -c, -E))
                        out.append((A, B, c, E))
    return out


def enumeration_steps(field: FieldData, lam: QuadInt) -> int:
    """About how many steps r_sym's costliest loop, the (A, C, B) sweep of its
    class M1, takes for lam, in exact integers: the lattice points of the
    ellipsoid A^2 + d B^2 + C^2 <= S (volume 4 pi/3 S^(3/2) / sqrt(d)),
    counted as 4 (isqrt(S) + 1)^3 / sqrt(d) and divided by the parity
    classes, 2 when half coordinates exist, else 8. M1 keeps only
    0 < C < A, an eighth of them; r_brute walks just the (A, B) pairs."""
    if not _totally_nonnegative(lam):
        return 0
    root = isqrt(2 * lam.p) + 1
    classes = 8 // field.sigma**2
    return isqrt(16 * root**6 // field.d) // classes


def two_square_solutions(field: FieldData, lam: QuadInt) -> list[tuple[QuadInt, QuadInt]]:
    """All ordered pairs (xi, eta) in O^2 with xi^2 + eta^2 = lam."""
    return [
        (field.element(a, b), field.element(c, e))
        for a, b, c, e in _solutions_doubled(field, lam)
    ]


def r_brute(field: FieldData, lam: QuadInt) -> int:
    """Exact number of ordered pairs (xi, eta) in O^2 with xi^2 + eta^2 = lam."""
    return len(_solutions_doubled(field, lam))


def _parity_ok(value: int, anchor: int) -> bool:
    """Ring membership parity: value = anchor (mod 2). Without half
    coordinates every anchor is even, so this asks that value be even."""
    return (value - anchor) % 2 == 0


def r_sym(field: FieldData, lam: QuadInt) -> int:
    """r(lam) via the eight-fold symmetry classes; equals r_brute everywhere.

    The all-zero solution satisfies two fixed-point condition sets at once,
    so lam = 0 is answered directly instead of through the class count.
    """
    if lam.is_zero():
        return 1
    if not _totally_nonnegative(lam):
        return 0
    d = field.d
    # A and C run over one parity class: all integers with half coordinates, else even
    step = 3 - field.sigma
    S = 2 * lam.p
    Q = lam.q

    m1 = m2 = m3 = m4 = 0
    m1s = m2s = 0

    amax = isqrt(S)

    # M1: 0 < C < A, B free, E solved from the sqrt(d) component.
    for A in range(step, amax + 1, step):
        SA = S - A * A
        for C in range(step, A, step):
            SAC = SA - C * C
            if SAC < 0:
                break
            for B in _signed_range(isqrt(SAC // d), A & 1):
                rem = SAC - d * B * B
                qrem = Q - A * B
                if qrem % C == 0:
                    E = qrem // C
                    if d * E * E == rem and _parity_ok(E, C):
                        m1 += 1

    # M2: C = 0 < A, E > 0; B is forced by A B = Q.
    for A in range(step, amax + 1, step):
        if Q % A != 0:
            continue
        B = Q // A
        if not _parity_ok(B, A):
            continue
        rem = S - A * A - d * B * B
        if rem <= 0 or rem % d != 0:
            continue
        e2 = rem // d
        e = isqrt(e2)
        if e * e == e2 and e % 2 == 0:
            m2 += 1

    # M3: 0 < C = A, E < B; B + E and B^2 + E^2 are both forced.
    a_top = isqrt(S // 2)
    for A in range(step, a_top + 1, step):
        if Q % A != 0:
            continue
        total = Q // A  # B + E
        R = S - 2 * A * A
        if R % d != 0:
            continue
        m2sum = R // d  # B^2 + E^2
        disc = 2 * m2sum - total * total  # (B - E)^2
        if disc <= 0:
            continue
        t = isqrt(disc)
        if t * t != disc or (total + t) % 2 != 0:
            continue
        B = (total + t) // 2
        E = (total - t) // 2
        if _parity_ok(B, A) and _parity_ok(E, A):
            m3 += 1

    # M4: A = C = 0, 0 < E < B; possible only when the sqrt(d) part vanishes.
    if Q == 0 and S % d == 0:
        m2sum = S // d
        E = 2
        while 2 * E * E < m2sum:
            b2 = m2sum - E * E
            b = isqrt(b2)
            if b * b == b2 and b % 2 == 0:
                m4 += 1
            E += 2

    # M1*: A = B = 0, i.e. eta^2 = lam, all sign combinations.
    for C in range(amax % step - amax, amax + 1, step):
        rem = S - C * C
        if C != 0:
            if Q % C == 0:
                E = Q // C
                if d * E * E == rem and _parity_ok(E, C):
                    m1s += 1
        else:
            # rem = S > 0 here, as lam = 0 was answered first
            if Q != 0:
                continue
            if rem % d == 0:
                e2 = rem // d
                e = isqrt(e2)
                if e * e == e2 and e % 2 == 0:
                    m1s += 2

    # M2*: A = C, B = E, i.e. lam = 2 xi^2.
    pa = lam.p  # lam + lam^sigma = p >= 0, as lam is totally nonnegative
    if Q % 2 == 0:
        amax2 = isqrt(pa)
        for A in range(amax2 % step - amax2, amax2 + 1, step):
            if A != 0:
                if (Q // 2) % A != 0:
                    continue
                B = Q // 2 // A
                if A * A + d * B * B == pa and _parity_ok(B, A):
                    m2s += 1
            else:
                if Q != 0:
                    continue
                if pa % d == 0:
                    b2 = pa // d
                    b = isqrt(b2)
                    if b > 0 and b * b == b2 and _parity_ok(b, 0):
                        m2s += 2

    return 8 * (m1 + m2 + m3 + m4) + 2 * (m1s + m2s)
