"""Closed-form invariants of Gamma0(n) and the exact search oracle for m.

The classicial formulas: the index of Gamma0(n) in PSL(2,Z) is
n·∏_{p|n}(1+1/p); the cusp count is v∞(n) = Σ_{d|n} φ(gcd(d, n/d)); the
order-2 and order-3 fixed point counts v2, v3 are multiplicative with the
usual local factors; the genus comes out of Riemann-Hurwitz.  u(n) =
(index − v3)/3 is the number of ideal triangles in any maximal polygon,
equivalently its cusp count minus 2.

m(Gamma0(n)) is the smallest possible value of the largest cusp denominator
over all maximal polygons.  ``m_exact_search`` computes it by exhaustive
bounded growth — it shares no code with the closed-form bound machinery,
which is the point: it is the independent oracle the bounds are tested
against.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt

import numpy as np


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


_PHI_CUMSUM = None  # lazily grown cumulative totient table


def totient_summatory(k: int) -> int:
    """Φ(k) = Σ_{i≤k} φ(i), via a shared sieve that grows on demand."""
    global _PHI_CUMSUM
    if k < 1:
        raise ValueError("totient_summatory needs k >= 1")
    if _PHI_CUMSUM is None or k >= len(_PHI_CUMSUM):
        size = max(2 * k, 1024)
        phi = np.arange(size + 1, dtype=np.int64)
        for p in range(2, size + 1):
            if phi[p] == p:  # p is prime
                phi[p::p] -= phi[p::p] // p
        _PHI_CUMSUM = np.cumsum(phi)
    return int(_PHI_CUMSUM[k])


def equality_list(limit: int) -> list[int]:
    """All n ≤ limit with u(n) = Φ(⌊√n⌋), by flat numpy sieves.

    These are exactly the levels where the hull of the Farey sequence F*_⌊√n⌋
    is already a maximal polygon, so the lower bound ⌊√n⌋ for m(Gamma0(n)) is
    attained.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    sieve = np.ones(limit + 1, bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)

    # 3u(n) = psi(n) - v3(n), psi multiplicative with psi(p^e) = p^e (1 + 1/p)
    psi = np.arange(limit + 1, dtype=np.int64)
    v3 = np.ones(limit + 1, dtype=np.int64)
    if limit >= 9:
        v3[9::9] = 0
    for p in primes:
        psi[p::p] = psi[p::p] // p * (p + 1)
        if p % 3 == 2:
            v3[p::p] = 0
        elif p % 3 == 1:
            v3[p::p] *= 2
    three_u = psi - v3
    assert (three_u[2:] % 3 == 0).all()

    root = isqrt(limit)
    phi = np.arange(root + 1, dtype=np.int64)
    for p in primes[primes <= root]:
        phi[p::p] -= phi[p::p] // p
    phi_cum = np.cumsum(phi)

    ns = np.arange(2, limit + 1, dtype=np.int64)
    r = np.sqrt(ns.astype(np.float64)).astype(np.int64)
    r[(r + 1) * (r + 1) <= ns] += 1  # float sqrt may round either way
    r[r * r > ns] -= 1
    hits = three_u[2:] == 3 * phi_cum[r]
    return [int(x) for x in ns[hits]]


def m_bounds(n: int) -> tuple[int, bool, int | None]:
    """(lower, lower_is_exact, upper) for m(Gamma0(n)).

    The lower bound ⌊√n⌋ always holds and is attained iff u(n) = Φ(⌊√n⌋).
    An upper bound is known when n is a prime or a prime square
    (⌊√(4n/3)⌋, from the triple construction) or an eligible product of two
    close odd primes (max(⌊√(4n/3)⌋, q)); otherwise None is returned.
    """
    inv = group_invariants(n)
    lower = isqrt(n)
    lower_is_exact = inv.u == totient_summatory(lower)
    upper: int | None = None
    if prime_or_prime_square(n):
        upper = isqrt(4 * n // 3)
    else:
        tw = twin_factors(n)
        if tw is not None:
            upper = max(isqrt(4 * n // 3), tw[1])
    return lower, lower_is_exact, upper


def _admits_bound(n: int, bound: int) -> bool:
    """Is there a maximal Gamma0(n)-polygon with all denominators ≤ bound?

    Left-to-right decision search.  The pending stack holds boundary sides
    not yet swept past; ``open_set`` holds sides that were swept past
    unresolved, betting that a later side will glue onto them.  Even/odd
    resolution and gluing onto a coexisting partner are forced moves (a side
    that satisfies the gluing relation with another boundary side can never
    be expanded, and the final gluing is an involution).  Branching happens
    only at genuinely free sides: expand (if the mediant fits the bound) or
    defer to the open set (if some within-bound side could ever glue onto it).
    """
    pairable: dict[tuple[int, int], bool] = {}

    def may_pair(a: int, b: int) -> bool:
        hit = pairable.get((a, b))
        if hit is None:
            hit = False
            g = gcd(b, n)
            step = n // g
            inv_b = pow(b // g, -1, step) if step > 1 else 0
            for x in range(1, bound + 1):
                rhs = (-a * x) % n
                if rhs % g:
                    continue
                y = (rhs // g) * inv_b % step if step > 1 else 1
                if y == 0:
                    y = step
                while y <= bound:
                    if gcd(x, y) == 1:
                        hit = True
                        break
                    y += step
                if hit:
                    break
            pairable[(a, b)] = hit
        return hit

    failed: set[tuple] = set()

    def dfs(pending: tuple, open_set: frozenset) -> bool:
        if not pending:
            return not open_set
        key = (pending, open_set)
        if key in failed:
            return False
        a, b = pending[-1]
        rest = pending[:-1]
        if (a * a + b * b) % n == 0 or (a * a + a * b + b * b) % n == 0:
            ok = dfs(rest, open_set)
        else:
            partners = [s for s in open_set if (a * s[0] + b * s[1]) % n == 0]
            if partners:
                # Candidates are interchangeable (their cross-determinant is
                # 0 mod n), so gluing onto any one loses no completions.
                ok = dfs(rest, open_set - {min(partners)})
            elif any((a * x + b * y) % n == 0 for x, y in rest):
                # Its partner is still pending; this side must wait for it.
                ok = dfs(rest, open_set | {(a, b)})
            else:
                ok = False
                if a + b <= bound:
                    ok = dfs(rest + ((a + b, b), (a, a + b)), open_set)
                if not ok and may_pair(a, b):
                    ok = dfs(rest, open_set | {(a, b)})
        if not ok:
            failed.add(key)
        return ok

    return dfs(((1, 1),), frozenset())


def m_exact_search(n: int, max_bound: int | None = None, min_bound: int | None = None) -> int:
    """Exact m(Gamma0(n)) by iterative deepening over the denominator bound.

    Deepening starts at ⌊√n⌋ by default (pass min_bound=1 to re-prove the
    lower bound for a given n instead of assuming it) and gives up past
    max_bound.  With no max_bound the deepening is unbounded: it stops at the
    first admissible bound, and one always exists (every maximal polygon
    admits its own largest denominator).
    """
    if n < 2:
        raise ValueError("level must be at least 2")
    lo = isqrt(n) if min_bound is None else min_bound
    if lo < 1:
        raise ValueError("min_bound must be positive")
    if max_bound is None:
        bounds = count(lo)
    elif max_bound < lo:
        # A budget below the smallest admissible bound is just exhaustion.
        raise SearchExhausted(f"no maximal polygon for n={n} with denominators <= {max_bound}")
    else:
        bounds = range(lo, max_bound + 1)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 40 * n + 1000))
    try:
        for bound in bounds:
            if _admits_bound(n, bound):
                return bound
    finally:
        sys.setrecursionlimit(old_limit)
    raise SearchExhausted(f"no maximal polygon for n={n} with denominators <= {max_bound}")
