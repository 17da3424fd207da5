"""Reference implementation of the exact m search, kept for the tests.

This is the recursive search over raw sides: the open set holds the sides
themselves, and gluing partners are found by scanning the open set and the
pending stack with the congruence n | ac + bd.  ``gamma0.invariants`` keys
the same search by P¹(Z/nZ) points instead; the tests check that both give
the same answers.
"""

from __future__ import annotations

import sys
from itertools import count
from math import gcd, isqrt


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
