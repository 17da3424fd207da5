"""Closed-form invariants of Gamma0(n) and the certified exact m.

The classical formulas: the index of Gamma0(n) in PSL(2,Z) is
n·∏_{p|n}(1+1/p); the cusp count is v∞(n) = Σ_{d|n} φ(gcd(d, n/d)); the
order-2 and order-3 fixed point counts v2, v3 are multiplicative with the
usual local factors; the genus comes out of Riemann-Hurwitz.  u(n) =
(index − v3)/3 is the number of ideal triangles in any maximal polygon,
equivalently its cusp count minus 2.

m(Gamma0(n)) is the smallest possible value of the largest cusp denominator
over all maximal polygons.  ``m_exact_search`` certifies it as one ladder:
floor → witness → orbit check → gap search.  The floor is a lower bound.
It starts at ⌊√n⌋ and rises to the cusp divisor bound: Γ₀(n) preserves
gcd(y, n) for a cusp x/y and every cusp class is a vertex of every maximal
polygon, so the class with gcd(y, n) = n/p, p the least prime of n, gives
d(n) = n/p ≤ m.  The witness is an upper bound: ``triples._witness`` builds
the optimal, twin or smallest-mediant polygon, which its builder checks to
be maximal with u(n) + 2 cusps, so its largest denominator w is admissible.
The ladder keeps only w and the peak sides, the sides (a, b) under the
witness's cusps of denominator w; it never holds the polygon.  The orbit
check lifts the floor to w.  Its proof is a count: a maximal polygon holds
one Farey triangle from each of the u(n) orbits with trivial stabiliser,
and each triangle but the base one has its largest denominator at its
mediant.  So if the orbit of the triangle over a peak side has no lift of
mediant < w, no polygon with denominators < w is maximal, and m = w.  That
orbit is three P¹(Z/nZ) points, and a point (1 : t) is hit at x only by
y ≡ t·x, so the check costs O(w).  At a prime or prime square the hull of
F*_⌊√n⌋ projects injectively and every piece outside it is a cone or a
single triangle, so the triangles the witness puts on the triple heads are
orbits a smaller polygon can miss.  Last, the exhaustive gap search tries
the bounds still between the floor and w; outside the ladder it serves the
tests as an oracle.  Where w meets d(n), as at most composite levels, the
ladder costs one witness build.  Of every level to 2·10⁴ and every prime,
prime square and twin level to 10⁵, only n = 30 reaches the gap search.
The orbit check and the gap search name triangles by the P¹(Z/nZ) pairing
key of ``polygon`` (``_key_function``, defined here), which
``test_pairing_key_is_the_gluing_congruence`` checks against the raw
congruence n | ac + bd.

The lower bound ⌊√n⌋ is attained iff u(n) = Φ(⌊√n⌋).  Φ comes from one
cumulative totient table in plain ints, grown on demand by
``totient_summatory``.  ``equality_list`` reads it only up to ⌊√limit⌋: it
skips the blocks of equal ⌊√n⌋ where a bound on u(n) rules equality out, and
asks ``m_bounds`` about the levels of the rest.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, inf, isqrt


class SearchExhausted(RuntimeError):
    """m_exact_search ran out of its denominator budget before succeeding."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fine at the scales used here)."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _key_function(n: int):
    """The pairing key at level n: key(a, b) names the point (a : b) of P¹(Z/nZ).

    (a, b) must share no prime factor of n.  Modulo each prime power q = p^e
    of n the point has one normalised coordinate: b·a⁻¹ mod q when p ∤ a
    (the point (1 : b/a)), else q + a·b⁻¹ mod q (the point (a/b : 1)).  The
    coordinates are packed in mixed radix 2q, so two pairs get the same key
    exactly when they are the same point.  Side (c, d) glues to side (a, b)
    iff ``key(c, d) == key(-b, a)``.  n is factorised once per closure, and
    each closure inverts a residue once: a dict per prime power keeps the
    inverses it has computed, for as long as the closure lives.  The optimal
    and twin polygons have denominators ≤ ⌊√(4n/3)⌋, so their keys need
    O(√n) inversions instead of two per side.
    """
    powers = tuple((p, p**e, {}) for p, e in factorize(n).items())

    def key(a: int, b: int) -> int:
        out = 0
        for p, q, inverses in powers:
            x = a % q
            y = b % q
            if x % p:
                r = inverses.get(x)
                if r is None:
                    r = inverses[x] = pow(x, -1, q)
                c = y * r % q
            else:
                r = inverses.get(y)
                if r is None:
                    r = inverses[y] = pow(y, -1, q)
                c = q + x * r % q
            out = out * 2 * q + c
        return out

    return key


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def prime_or_prime_square(n: int) -> bool:
    fac = factorize(n)
    return len(fac) == 1 and next(iter(fac.values())) <= 2


def twin_factors(n: int) -> tuple[int, int] | None:
    """(p, q) if n = pq with p < q odd primes and √q − √p < √2, else None."""
    fac = factorize(n)
    if len(fac) != 2 or set(fac.values()) != {1}:
        return None
    p, q = sorted(fac)
    if p == 2:
        return None
    # √q − √p < √2  ⇔  (q − p − 2)² < 8p   (q ≥ p + 2 here)
    if (q - p - 2) ** 2 >= 8 * p:
        return None
    return p, q


@dataclass(frozen=True)
class GroupInvariants:
    index: int
    v_inf: int
    v2: int
    v3: int
    genus: int
    u: int

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "v_inf": self.v_inf,
            "v2": self.v2,
            "v3": self.v3,
            "genus": self.genus,
            "u": self.u,
        }


def group_invariants(n: int) -> GroupInvariants:
    """All six closed-form invariants; genus is cross-checked for integrality."""
    if n < 2:
        raise ValueError("level must be at least 2")
    fac = factorize(n)
    index = n
    for p in fac:
        index = index // p * (p + 1)
    v_inf = sum(euler_phi(gcd(d, n // d)) for d in divisors(n))

    if n % 4 == 0:
        v2 = 0
    else:
        v2 = 1
        for p in fac:
            if p % 4 == 3:
                v2 = 0
                break
            if p % 4 == 1:
                v2 *= 2
    if n % 9 == 0:
        v3 = 0
    else:
        v3 = 1
        for p in fac:
            if p % 3 == 2:
                v3 = 0
                break
            if p % 3 == 1:
                v3 *= 2

    twelve_genus = index + 12 - 6 * v_inf - 4 * v3 - 3 * v2
    if twelve_genus % 12 != 0 or twelve_genus < 0:
        raise RuntimeError(f"Riemann-Hurwitz gave a non-integral genus at n={n}")
    if (index - v3) % 3 != 0:
        raise RuntimeError(f"triangle count (index - v3)/3 not integral at n={n}")
    return GroupInvariants(index, v_inf, v2, v3, twelve_genus // 12, (index - v3) // 3)


_PHI_CUMSUM = [0]  # Φ(0), Φ(1), …: the one cumulative totient table, grown on demand


def totient_summatory(k: int) -> int:
    """Φ(k) = Σ_{i≤k} φ(i), via a shared sieve that grows on demand."""
    global _PHI_CUMSUM
    if k < 1:
        raise ValueError("totient_summatory needs k >= 1")
    if k >= len(_PHI_CUMSUM):
        size = max(2 * k, 1024)
        phi = list(range(size + 1))
        for p in range(2, size + 1):
            if phi[p] == p:  # p is prime
                phi[p::p] = [x - x // p for x in phi[p::p]]
        _PHI_CUMSUM = list(accumulate(phi))
    return _PHI_CUMSUM[k]


def equality_list(limit: int) -> list[int]:
    """All n ≤ limit with u(n) = Φ(⌊√n⌋), the levels ``m_bounds`` reports exact.

    These are exactly the levels where the hull of the Farey sequence F*_⌊√n⌋
    is already a maximal polygon, so the lower bound ⌊√n⌋ for m(Gamma0(n)) is
    attained.  Few blocks r² ≤ n < (r+1)² can hold one: 3u(n) = ψ(n) − v3(n)
    with ψ(n) ≥ n + 1 and v3(n) ≤ 2^ω(n) ≤ d(n) ≤ 2√n, so 3u(n) ≥ (√n − 1)²
    ≥ (r − 1)², and a block with (r − 1)² > 3Φ(r) is skipped whole.  The
    levels of every other block are tested one by one.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    out = []
    for r in range(1, isqrt(limit) + 1):
        if (r - 1) ** 2 <= 3 * totient_summatory(r):
            block = range(max(r * r, 2), min((r + 1) ** 2, limit + 1))
            out += [n for n in block if m_bounds(n)[1]]
    return out


def m_bounds(n: int) -> tuple[int, bool, int | None]:
    """(lower, lower_is_exact, upper) for m(Gamma0(n)).

    The lower bound ⌊√n⌋ always holds and is attained iff u(n) = Φ(⌊√n⌋).
    An upper bound is known when n is a prime or a prime square
    (⌊√(4n/3)⌋, from the triple construction) or an eligible product of two
    close odd primes (max(⌊√(4n/3)⌋, q)); otherwise None is returned.
    """
    lower, _, lower_is_exact = _lower_bound(n, group_invariants(n).u)
    return lower, lower_is_exact, _upper_bound(n)


def _lower_bound(n: int, u: int) -> tuple[int, int, bool]:
    """(⌊√n⌋, Φ(⌊√n⌋), whether u = u(n) equals it): the lower bound of ``m_bounds``."""
    lower = isqrt(n)
    phi = totient_summatory(lower)
    return lower, phi, u == phi


def _upper_bound(n: int) -> int | None:
    """The upper bound of ``m_bounds``, which needs no invariant of the group."""
    ceiling = isqrt(4 * n // 3)
    if prime_or_prime_square(n):
        return ceiling
    if (tw := twin_factors(n)) is not None:
        return max(ceiling, tw[1])
    return None


def _triangle_keys(key, a: int, b: int) -> tuple[int, int, int]:
    """The keys of the triangle over side (a, b): the R-orbit naming its Γ₀(n)-orbit.

    The triangle over side (a, b), mediant s = a + b, has the edges (a, b),
    (−b, s), (−s, a) under R, so its three P¹(Z/nZ) points form one R-orbit,
    and two triangles lie in one Γ₀(n)-orbit iff their keys meet.
    """
    s = a + b
    return key(a, b), key(-b, s), key(-s, a)


def _cusp_divisor_bound(n: int) -> int:
    """d(n) = n/p ≤ m(n), with p the least prime factor of n.

    Γ₀(n) preserves gcd(y, n) for a cusp x/y: the image has denominator
    cx + dy with n | c and d a unit mod n.  Every cusp class is a vertex of
    every maximal polygon, and the cusps with gcd(y, n) = n/p have
    denominators that are positive multiples of n/p.
    """
    return n // min(factorize(n))


def _orbit_met_below(n: int, a: int, b: int) -> bool:
    """Does the base triangle or one of mediant < a + b lie in the orbit over (a, b)?

    The triangle over (x, y) lies in it iff key(x, y) is one of the three
    keys of ``_triangle_keys``.  For gcd(x, n) = 1 that key is the point
    (x : y) = (1 : y/x), so a target (a', b') with a' a unit mod n is hit
    only by y ≡ x·b'/a' (mod n): one product per target and x, so the whole
    check costs O(a + b) where naming every triangle below a + b costs
    O((a + b)²).
    The x that share a prime with n, such as x = p at n = p², have their
    keys compared one y at a time.  So when this returns False for a
    triangle of a maximal polygon, which lies in one of the u(n) orbits with
    trivial stabiliser, the triangles of mediant < a + b miss that orbit, so
    no polygon with denominators < a + b is maximal.
    """
    key = _key_function(n)
    w = a + b
    targets = _triangle_keys(key, a, b)
    if not set(targets).isdisjoint(_triangle_keys(key, 0, 1)):
        return True
    slopes = [y * pow(x, -1, n) % n for x, y in ((a, b), (-b, w), (-w, a)) if gcd(x, n) == 1]
    for x in range(1, w - 1):
        if gcd(x, n) == 1:
            hit = any(gcd(x, y) == 1 for t in slopes for y in range(t * x % n or n, w - x, n))
        else:
            hit = any(gcd(x, y) == 1 and key(x, y) in targets for y in range(1, w - x))
        if hit:
            return True
    return False


# Sides the gap search may visit at one bound.  n = 40 at bound 19, the
# largest search the tests run, visits about 2.5·10⁵ in 0.4 s; the memo grows
# with the visits, at about 100 bytes each.
_GAP_SEARCH_NODES = 2_000_000
# Failed branch states the gap search memoises at one bound.  n = 40 at bound
# 19 keeps 8.4·10⁴ of them (25 MB at its peak, about 300 bytes a state); past
# the cap the memo stops growing, so memory stays near 75 MB however long
# the search runs.  A state left out is searched again if met again, which
# changes no answer, and the node cap still ends the search.
_GAP_SEARCH_MEMO = 250_000


def _admits_bound(n: int, bound: int) -> bool:
    """Is there a maximal Gamma0(n)-polygon with all denominators ≤ bound?

    Left-to-right decision search.  The pending stack holds boundary sides
    not yet swept past; the open set holds sides that were swept past
    unresolved, betting that a later side will glue onto them.  Even/odd
    resolution and gluing onto a coexisting partner are forced moves (a side
    that satisfies the gluing relation with another boundary side can never
    be expanded, and the final gluing is an involution).  Branching happens
    only at genuinely free sides: expand (if the mediant fits the bound) or
    defer to the open set (if some within-bound side could ever glue onto it).

    An open side is never expanded again, so only its P¹(Z/nZ) point
    matters: the open set is the sorted tuple of the open sides' keys, and
    gluing is a lookup of the partner key there (any open side with that key
    will do).  The search runs on an explicit stack with one frame per
    genuine branch, and the memo of failed states holds those branch states
    keyed on (pending stack, open keys), so equivalent states merge; the
    forced moves between two branches are replayed, not stored.

    ``record[(a, b)]`` is (closed, own key, partner key) for every coprime
    pair with a, b ≤ bound, closed meaning even or odd, and ``present``
    holds the keys of those sides: a side can be deferred only when some
    side within the bound could glue onto it.

    Every visit to a pending side counts as a node; past
    ``_GAP_SEARCH_NODES`` of them the search raises SearchExhausted.  The
    memo keeps at most ``_GAP_SEARCH_MEMO`` failed states.
    """
    key = _key_function(n)
    record: dict[tuple[int, int], tuple[bool, int, int]] = {}
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            if gcd(a, b) == 1:
                closed = (a * a + b * b) % n == 0 or (a * a + a * b + b * b) % n == 0
                record[a, b] = (closed, key(a, b), key(-b, a))
    present = {own for _, own, _ in record.values()}

    failed: set[tuple] = set()
    frames: list[tuple] = []  # (branch state, its deferral, or None once tried)
    pending, keys, open_keys = ((1, 1),), (record[1, 1][1],), ()
    nodes = 0
    while True:
        while pending:
            nodes += 1
            if nodes > _GAP_SEARCH_NODES:
                raise SearchExhausted(
                    f"the search for n={n} at bound {bound} passed {_GAP_SEARCH_NODES} nodes"
                )
            s = pending[-1]
            rest = pending[:-1]
            rest_keys = keys[:-1]
            closed, k, p = record[s]
            if closed:
                pending, keys = rest, rest_keys
                continue
            i = bisect_left(open_keys, p)
            if i < len(open_keys) and open_keys[i] == p:
                pending, keys = rest, rest_keys
                open_keys = open_keys[:i] + open_keys[i + 1 :]
                continue
            waits = p in rest_keys  # its partner is still pending
            if waits or p in present:
                i = bisect_left(open_keys, k)
                deferral = (rest, rest_keys, open_keys[:i] + (k,) + open_keys[i:])
            else:
                deferral = None
            a, b = s
            if waits or a + b > bound:
                if deferral is None:
                    break
                pending, keys, open_keys = deferral
                continue
            if deferral is not None:
                state = (pending, open_keys)
                if state in failed:
                    break
                frames.append((state, deferral))
            left = (a, a + b)
            right = (a + b, b)
            pending = rest + (right, left)
            keys = rest_keys + (record[right][1], record[left][1])
        else:
            if not open_keys:
                return True
        while frames:
            state, deferral = frames.pop()
            if deferral is not None:
                frames.append((state, None))
                pending, keys, open_keys = deferral
                break
            if len(failed) < _GAP_SEARCH_MEMO:
                failed.add(state)
        else:
            return False


def m_exact_search(n: int, max_bound: int | None = None, min_bound: int | None = None) -> int:
    """Exact m(Gamma0(n)): the first admissible denominator bound ≥ min_bound.

    One floor climbs to one checked witness.  The floor starts at
    lo = max(min_bound, d(n)), where min_bound defaults to ⌊√n⌋ (pass
    min_bound=1 to prove the lower bound from d, the orbit check and the gap
    search alone).  Within the budget, ``triples._witness`` gives w and its
    peak sides; if lo < w and the orbit of the triangle over some peak side
    has no lift below w (``_orbit_met_below``, O(w)), lo rises to w, even
    past the budget.  Then ``_admits_bound`` tries lo … w − 1; the first
    bound it admits is the answer, else max(lo, w).  The budget is
    max_bound, which must not be negative: nothing is built once lo exceeds
    it, the gap search stops at it, and any answer past it raises
    SearchExhausted.  So does a search of one bound in the gap that passes
    its node cap; that message names the gap (c, w), with c the floor.
    """
    if n < 2:
        raise ValueError("level must be at least 2")
    lo = isqrt(n) if min_bound is None else min_bound
    if lo < 1:
        raise ValueError("min_bound must be positive")
    if max_bound is not None and max_bound < 0:
        raise ValueError("max_bound must not be negative")
    lo = max(lo, _cusp_divisor_bound(n))
    budget = inf if max_bound is None else max_bound
    if lo <= budget:
        from .triples import _witness

        w, peaks = _witness(n)
        if lo < w and not all(_orbit_met_below(n, a, b) for a, b in peaks):
            lo = w
        for bound in range(lo, min(w, budget + 1)):
            try:
                admitted = _admits_bound(n, bound)
            except SearchExhausted as exc:
                raise SearchExhausted(f"{exc}; m is left in the gap (c, w) = ({lo}, {w})") from None
            if admitted:
                return bound
        if max(lo, w) <= budget:
            return max(lo, w)
    raise SearchExhausted(f"no maximal polygon for n={n} with denominators <= {max_bound}")
