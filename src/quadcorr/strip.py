"""The strip route of the correlation sum N_D(V1, V2).

The strip lists the ring elements g with g^2 <= V1 + 1 and (g^sigma)^2 <= V2 + 1,
which hold every pair of squares summing to a lambda of the box or to its
lambda + 1, sorts them by (g^sigma)^2, and pairs each with the elements of two
windows: the pairs whose lambda^sigma lies below V2, and those whose (lambda +
1)^sigma does. Its work follows the elements and the pairs, not the rows of the
box, so a thin box such as (V, V^(-1/2)) costs about sqrt(V) elements where the
r-table of corrsum costs V rows. The bounds are corrsum's; each distinct lambda
is decided by their exact strict test.
"""

from __future__ import annotations

from math import isqrt, sqrt
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityExceeded, count_text
from .quadfield import FieldData, _isqrt

if TYPE_CHECKING:
    from .corrsum import Bound

# f = floor(2 sqrt(V + 1)) of each side stays below this: c1, c2 and the pair
# sums P, Q of _strip stay below 2^51 and its keys below 2^62
_STRIP_REACH = 1 << 24
# bytes the strip charges to the budget: fixed, per element (or row of c2) and per
# swept pair; its peak under tracemalloc was at most 8 KB fixed, 100 per element and
# 44 per pair, thin and balanced, d in {2, 3, 5, 13, 17}
_STRIP_BYTES = (1 << 14, 128, 48)
# most pairs one strip sweeps: about 7 s at 200 ns a pair
_STRIP_PAIR_LIMIT = 1 << 25


def _strip_charge(elements: int, pairs: int, budget: int) -> None:
    """Refuse a strip of so many elements (with the rows of c2) and swept pairs
    past the pair limit or the budget."""
    if pairs > _STRIP_PAIR_LIMIT:
        raise CapacityExceeded(f"strip sweeps {pairs} pairs, over {_STRIP_PAIR_LIMIT}")
    fixed, per_element, per_pair = _STRIP_BYTES
    need = fixed + elements * per_element + pairs * per_pair
    if need > budget:
        raise CapacityExceeded(f"strip needs about {count_text(need)} bytes ({elements} "
                               f"elements, {pairs} pairs) against a budget of {budget}")


def _strip_sides(field: FieldData, b1: Bound, b2: Bound) -> tuple[Bound, Bound, int, int, range]:
    """(b1, b2, f1, f2, rows): the sides, the thinner second, as the strip sorts by
    it (N(V1, V2) = N(V2, V1), as conjugation maps one box onto the other), f =
    floor(2 sqrt(b + 1)) of each, and the strip's rows c2 >= 0, even unless sigma =
    2: |c2| sqrt d = |g - g^sigma| < (f1 + f2 + 2)/2. floor(4 b) comes exactly from
    the bracket at scale 1, and floor(sqrt(x)) = isqrt(floor(x)). Refuses a box past
    the strip's reach, where its int64 coordinates and keys could wrap."""
    f1, f2 = (isqrt(4 + a // m) for a, m, _ in (b.bracket(4, 1) for b in (b1, b2)))
    if f1 < f2:
        b1, b2, f1, f2 = b2, b1, f2, f1
    # |c1 c2| sqrt d = |g^2 - (g^sigma)^2|, so |Q| <= ((f1 + 2)^2 + (f2 + 2)^2) / 2, and
    # the key's inner part stays below M = (f2 + 1)^2 // 2 + 11 (_strip)
    keys = ((f1 + 2) ** 2 + (f2 + 2) ** 2 + 2) * ((f2 + 1) ** 2 // 2 + 11)
    if f1 >= _STRIP_REACH or keys >= 1 << 62 or (f1 + f2 + 4) * (f2 + 4) > 1 << 46:
        raise CapacityExceeded(f"the strip's reach ends before a box side of {count_text(f1)}")
    rows = range(0, isqrt((f1 + f2 + 2) ** 2 // (4 * field.d)) + 1, 3 - field.sigma)
    return b1, b2, f1, f2, rows


def _strip_estimate(field: FieldData, b1: Bound, b2: Bound, budget: int) -> tuple[int, int]:
    """(elements, pairs) the strip of the box is expected to hold and sweep, in
    exact integers and before any array; CapacityExceeded past its reach, or
    where _strip_charge refuses them with the rows of c2 that _strip makes."""
    b1, b2, f1, f2, rows = _strip_sides(field, b1, b2)
    # the rows c2 >= 0 of the strip's parallelogram |c1 + c2 sqrt d| <= f1 + 1/2,
    # |c1 - c2 sqrt d| <= f2 + 1/2 hold about its area over 2, times the density of
    # (c1, c2), sigma/4, and half a point more each on its edges
    n = (2 * f1 + 1) * (2 * f2 + 1) // isqrt(256 // field.sigma**2 * field.d) + len(rows) // 2
    # the windows take (g_t^sigma, g_s^sigma) from a disc of area pi V2 and a ring of
    # area pi min(V2, 1), out of the square of side f2 + 1/2 the elements fill
    a, m, exact = b2.bracket(1, 1 << 20)
    v = a if exact else a + 1  # V2 <= v / m
    sweep = 44 * n * n * (v + min(v, m)) // (7 * m * (2 * f2 + 1) ** 2)
    pairs = min(sweep, n * (n + 1) // 2)
    _strip_charge(n + len(rows), pairs, budget)
    return n, pairs


def _strip(field: FieldData, b1: Bound, b2: Bound, budget: int) -> int:
    """N over the half-open box of (b1, b2), lambda = 0 included, from the pairs
    of ring elements g = (c1 + c2 sqrt d)/2 (c1 = c2 mod 2 when d = 1 mod 4, both
    even otherwise) with g^2 <= B1 = b1 + 1 and (g^sigma)^2 <= B2 = b2 + 1: every
    pair of squares summing to a lambda of the box or to its lambda + 1 is made of them.

    Elements. With f = floor(2 sqrt B) and u = floor(c2 sqrt d), the row c2 >= 0
    holds the c1 with |c1 + c2 sqrt d| <= 2 sqrt B1 and |c1 - c2 sqrt d| <= 2 sqrt B2,
    all within [u - f2, min(f1 - u, f2 + u + 1)]; the extra ones only add pairs
    whose sums the box test rejects. One of each +-g is kept (c2 > 0,
    or c2 = 0 and c1 >= 0), and a pair of distinct elements counts 8, a pair
    {g, g} 4, and g = 0 with another 4 (with itself 1), as in RepTable._build.

    Windows. The elements are sorted by c = (g^sigma)^2 in floats, and the pairs
    s >= t swept are those with c_s + c_t < V2 (lambda) or in [1, 1 + V2) (lambda +
    1), each side widened by delta = 2^-46 (f1 + f2 + 4)(f2 + 4) <= 1. Every float
    here stands within delta / 8 of the exact value: c1, c2 are exact, g^sigma =
    (c1 - c2 sqrt d)/2 is off by at most 2^-52 (f1 + f2 + 4), as |c2 sqrt d| <= (f1 +
    f2 + 4)/2, so c by at most 2^-51 (f1 + f2 + 4)(f2 + 4) as |g^sigma| <= (f2 + 2)/2,
    and V2 and the roundings of the window ends by 2^-52 (f2 + 4)^2 at most.

    Keys. lambda = (P + Q sqrt d)/2 with P = h_t + h_s, h = (c1^2 + d c2^2)/2, and
    Q = c1 c2 summed alike; its key is (Q - Qmin) M + P - floor(fl(Q sqrt d)) + 1,
    M = (f2 + 1)^2 // 2 + 11 > 2 V2 + 12. With |Q| sqrt d < 2^51 the float floor is
    within 2 of Q sqrt d, so the inner part lies in (2 lambda^sigma, 2 lambda^sigma
    + 3), and a swept pair has lambda^sigma < 1 + V2 + 2 delta: the part stays in
    [1, M - 2), distinct lambdas get distinct keys and lambda + 1 is the key 2
    further on. _strip_sides keeps |Q| and the keys within range.
    """
    d = field.d
    b1, b2, f1, f2, rows = _strip_sides(field, b1, b2)
    c2 = np.arange(rows.start, rows.stop, rows.step)
    u = _isqrt(c2 * c2 * d)
    lo = u - f2
    hi = np.minimum(f1 - u, f2 + u + 1)
    lo[0] = max(int(lo[0]), 0)  # c2 = 0: c1 >= 0
    lo += (lo - c2) % 2  # c1 = c2 (mod 2), and c2 is even when c1 must be
    n = np.maximum((hi - lo) // 2 + 1, 0)
    size = int(n.sum())
    _strip_charge(size + len(n), 0, budget)
    c1 = np.repeat(lo - 2 * (np.cumsum(n) - n), n) + 2 * np.arange(size)
    c2 = np.repeat(c2, n)
    del u, lo, hi
    root = sqrt(d)
    c = c2 * -root  # then (g^sigma)^2 = ((c1 - c2 sqrt d)/2)^2
    c += c1
    c *= c
    c /= 4
    order = c.argsort()
    c = c[order]
    h = c1 * c1
    h += d * c2 * c2
    h >>= 1
    h = h[order]
    q = (c1 * c2)[order]
    w = np.full(size, 2, dtype=np.int8)
    w[0] = 1  # the first element is g = 0
    w = w[order]
    del c1, c2, order
    delta = 2.0**-46 * (f1 + f2 + 4) * (f2 + 4)
    v2 = float(b2)
    t = np.arange(size)
    hi_a = np.maximum(c.searchsorted(v2 + delta - c), t)  # lambda: [t, hi_a)
    lo_b = np.maximum(c.searchsorted(1 - delta - c, side="right"), hi_a)
    hi_b = np.maximum(c.searchsorted(1 + v2 + delta - c), lo_b)  # lambda + 1: [lo_b, hi_b)
    cnt = np.concatenate((hi_a - t, hi_b - lo_b))
    pairs = int(cnt.sum())
    _strip_charge(size + len(n), pairs, budget)
    first = np.concatenate((t, lo_b))
    s = np.repeat(first - np.cumsum(cnt) + cnt, cnt) + np.arange(pairs)
    owner = np.repeat(np.concatenate((t, t)), cnt)
    weight = w[owner] * w[s]
    weight[owner != s] *= 2
    key = q[owner] + q[s]  # Q
    p = h[owner] + h[s]  # P
    del s, owner
    qmin, mod = int(key.min(initial=0)), (f2 + 1) ** 2 // 2 + 11

    def base(qq):  # floor(fl(Q sqrt d)), the same float for the same Q
        return np.floor(qq * root).astype(np.int64)

    p += 1 - base(key)
    key -= qmin
    key *= mod
    key += p
    del p
    order = key.argsort()
    key, weight = key[order], weight[order]
    del order
    # each distinct key's count of pairs, and the lambdas whose lambda + 1 is reached
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    key, count = key[start], np.add.reduceat(weight, start, dtype=np.int64)
    at = np.minimum(key.searchsorted(key + 2), len(key) - 1)
    hit = np.flatnonzero(key[at] == key + 2)
    qs, ps = np.divmod(key[hit], mod)
    qs += qmin
    ps += base(qs) - 1
    total = 0
    for p, q, a, b in zip(ps.tolist(), qs.tolist(), count[hit].tolist(), count[at[hit]].tolist()):
        # lambda >= 0 holds for a sum of squares; the box's upper bounds are strict
        if b1.allows(p, q, True) and b2.allows(p, -q, True):
            total += a * b
    return total
