"""Reference implementations of the exact m search, kept for the tests.

The first is the recursive search over raw sides: the open set holds the
sides themselves, and gluing partners are found by scanning the open set and
the pending stack with the congruence n | ac + bd.  ``gamma0.invariants``
keys the same search by P¹(Z/nZ) points instead; the tests check that both
give the same answers.

The second is the cover bound c(n), the lower bound that the orbit check and
the cusp divisor bound of ``gamma0.invariants`` are compared against.  It
names every Farey triangle by its orbit, O(c(n)²) of them.
"""

from __future__ import annotations

import sys
from itertools import count
from math import gcd, inf, isqrt

from gamma0.invariants import _key_function, _triangle_keys


def reference_admits_bound(n: int, bound: int) -> bool:
    """Is there a maximal Gamma0(n)-polygon with all denominators ≤ bound?"""
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
                ok = dfs(rest, open_set - {min(partners)})
            elif any((a * x + b * y) % n == 0 for x, y in rest):
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

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 40 * n + 1000))
    try:
        return dfs(((1, 1),), frozenset())
    finally:
        sys.setrecursionlimit(old_limit)


def reference_m_exact_search(n: int) -> int:
    """The smallest admissible bound, deepening from ⌊√n⌋ without a limit."""
    for bound in count(isqrt(n)):
        if reference_admits_bound(n, bound):
            return bound


def reference_triangle_names(n: int):
    """Yield (s, name) for the Farey triangles below the side (0, 1), by mediant s.

    The least of a triangle's keys names its orbit.  Triangles fixed by R,
    where n | a² + ab + b², are skipped; the base triangle (∞, 0, 1) comes
    first as (a, b) = (0, 1), with s = 1.
    """
    key = _key_function(n)
    yield 1, min(_triangle_keys(key, 0, 1))
    for s in count(2):
        for a in range(1, s):
            b = s - a
            if gcd(a, b) == 1 and (a * a + a * b + b * b) % n:
                yield s, min(_triangle_keys(key, a, b))


def reference_cover_bound(n: int, u: int, budget: float = inf) -> int:
    """c(n) ≤ m(n): the least s at which the triangles with mediant ≤ s meet u orbits.

    A maximal polygon holds one triangle from each of the u(n) orbits with
    trivial stabiliser, and every triangle but the base one has its largest
    denominator at its mediant, so no polygon with denominators < c(n) is
    maximal.  The walk stops at the first mediant past ``budget``, which is
    then returned: it is still a lower bound, and already past the budget.
    """
    seen = set()
    for s, name in reference_triangle_names(n):
        if s > budget:
            return s
        seen.add(name)
        if len(seen) == u:
            return s
