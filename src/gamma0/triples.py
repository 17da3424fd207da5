"""Denominator triples and the polygon constructions built on them.

A *level-n Farey triple* is a cyclic triple of coprime positive pairs
(a_i, b_i), i = 0,1,2, pairwise distinct, satisfying the relation

    a_{i+1} a_i + (a_{i+1} + b_{i+1}) b_i = n      (indices mod 3)

for every i.  The free sides of the hull of F*_⌊√n⌋ at a prime or
prime-square level are exactly the members of the triples whose smallest
pair sum exceeds √n, three sides per triple; those are the triples k(n)
counts.  Attaching one ideal triangle to the head side of such a triple
produces two new sides that glue onto its other two members, so the
optimal and twin builds take their heads straight from the k(n)
enumeration and classify the finished cusp list once.

Every triple satisfies a_i + b_i = b_{i+1} + a_{i+2} and 3A² < 4n for its
smallest pair sum A.  The level is *cashew* when some triple attains
A = ⌊√(4n/3)⌋; certificates (s, t, a, b) encode such triples arithmetically
via n = s·a + t·b with s+t > a > t ≥ b ≥ a−s.  They are read off the same
enumeration: the canonical triples ((a−b, b), (s, t), ·) of head sum
⌊√(4n/3)⌋ with t ≥ b.

The one enumeration, ``_head_scan``, does constant work per candidate
head (a0, b0): the relation fixes b1 ≡ n·b0⁻¹ (mod A) for the head sum A,
and the mirror z ↦ 1 − z̄ halves the heads scanned, to about 0.052·n per
odd level over all A > √n; an even level costs nothing, since it has no
triple.  The tests keep the plain scans as references.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, isqrt

from .farey import Frac, farey_sequence
from .invariants import _upper_bound, prime_or_prime_square, twin_factors
from .polygon import LabeledPolygon, _check_maximal, grow_maximal, polygon_from_cusps


class TripleNotApplicable(ValueError):
    """The free side admits no level-n Farey triple (possible for general n)."""


Pair = tuple[int, int]


@dataclass(frozen=True)
class FareyTriple:
    """Cyclic triple of denominator pairs, stored in a fixed rotation."""

    pairs: tuple[Pair, Pair, Pair]

    def sums(self) -> tuple[int, int, int]:
        return tuple(a + b for a, b in self.pairs)

    def min_sum(self) -> int:
        return min(self.sums())

    def __iter__(self):
        return iter(self.pairs)


def _relation_holds(pairs: tuple[Pair, Pair, Pair], n: int) -> bool:
    (a0, b0), (a1, b1), (a2, b2) = pairs
    return (
        a1 * a0 + (a1 + b1) * b0 == n
        and a2 * a1 + (a2 + b2) * b1 == n
        and a0 * a2 + (a0 + b0) * b2 == n
    )


def is_farey_triple(t: FareyTriple, n: int) -> bool:
    p = t.pairs
    if len(set(p)) != 3:
        return False
    for a, b in p:
        if a < 1 or b < 1 or gcd(a, b) != 1:
            return False
    return _relation_holds(p, n)


def canonical_rotation(t: FareyTriple) -> FareyTriple:
    """Rotate so the head has the minimal sum and its successor a larger one.

    For a valid triple exactly one rotation qualifies: the sums cannot be all
    equal (the triple would degenerate), so the minimum is attained once or
    twice, and when twice the two positions are cyclically adjacent.
    """
    s = t.sums()
    lo = min(s)
    picks = [r for r in range(3) if s[r] == lo and s[(r + 1) % 3] > lo]
    if len(picks) != 1:
        raise ValueError(f"no canonical rotation for sums {s}")
    r = picks[0]
    return FareyTriple((t.pairs[r], t.pairs[(r + 1) % 3], t.pairs[(r + 2) % 3]))


def complete_triple(a0: int, b0: int, a1: int, b1: int, n: int) -> FareyTriple | None:
    """Complete two related pairs to a triple, or None when they coincide.

    Requires the relation a1·(a0+b0) + b1·b0 = n.  The third pair is then
    forced: (a2, b2) = (a0 + b0 - b1, a1 + b1 - a0).  Returns None in the
    degenerate case (a0, b0) = (a1, b1), where the "triple" collapses to a
    single self-related pair.  Raises if the forced completion is not a valid
    triple (that can happen for inputs that do not come from free sides).
    """
    for x in (a0, b0, a1, b1):
        if x < 1:
            raise ValueError("pair entries must be positive")
    if a1 * (a0 + b0) + b1 * b0 != n:
        raise ValueError(f"pairs ({a0},{b0}), ({a1},{b1}) are not related at level {n}")
    if (a0, b0) == (a1, b1):
        return None
    t = FareyTriple(((a0, b0), (a1, b1), (a0 + b0 - b1, a1 + b1 - a0)))
    if not is_farey_triple(t, n):
        raise ValueError(f"completion {t.pairs} is not a level-{n} Farey triple")
    return t


def _window_solution(n: int, a: int, b: int, v: int) -> Pair | None:
    """The unique solution of ax + by = n with v-b < x <= v, if positive.

    Returns (x, y) or None when the windowed x gives a non-positive or
    non-integral y.
    """
    if b == 1:
        x = v
    else:
        a_mod = a % b
        if gcd(a_mod, b) != 1:
            return None
        x0 = n * pow(a_mod, -1, b) % b
        x = v - (v - x0) % b
    if x < 1:
        return None
    rem = n - a * x
    if rem < b or rem % b:
        return None
    return x, rem // b


def triple_from_free_side(n: int, side: Pair) -> FareyTriple:
    """The canonical triple through the free side with denominators (a, b).

    Solves ax + by = n in the two windows v-b < x ≤ v and v-a < y ≤ v
    (v = ⌊√n⌋) and assembles the neighbours from those solutions.  Raises
    TripleNotApplicable when no valid triple exists through this side —
    guaranteed not to happen for free hull sides at prime and prime-square
    levels, but possible in general.
    """
    a, b = side
    v = isqrt(n)
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise ValueError(f"({a}, {b}) is not a coprime positive pair")
    if a > v or b > v:
        raise ValueError(f"({a}, {b}) exceeds the hull bound {v} for level {n}")

    right = _window_solution(n, a, b, v)  # x2 in (v-b, v]
    left = _window_solution(n, b, a, v)  # y0 in (v-a, v], by symmetry
    if right is None or left is None:
        raise TripleNotApplicable(f"side ({a},{b}) has no triple at level {n}")
    x2, y2 = right
    y0, x0 = left
    if y2 <= x2 or x0 <= y0:
        raise TripleNotApplicable(f"side ({a},{b}) has no triple at level {n}")
    raw = FareyTriple(((x0 - y0, y0), (a, b), (x2, y2 - x2)))
    if not is_farey_triple(raw, n):
        raise TripleNotApplicable(f"side ({a},{b}) has no triple at level {n}")
    return canonical_rotation(raw)


def _head_scan(levels: list[int], head_sums):
    """Yield (i, triples) per head sum A of levels[i] in head_sums(levels[i]).

    An even level has no triple, at any head sum, so it is skipped before
    ``head_sums`` is asked and yields nothing.  Mod 2 the relation for an
    even n reads a_{i+1}·(a_i + b_i) + b_{i+1}·b_i ≡ 0, so each coprime
    pair's class forces the next one's: (1, 0) → (0, 1) → (1, 1) → (1, 0).
    At the pair of class (1, 0), a_i + b_i is odd while b_{i+1} + a_{i+2}
    is 1 + 1, even, against the identity a_i + b_i = b_{i+1} + a_{i+2}.

    ``triples`` lists the canonical triples of levels[i] with head sum A, in
    ascending b0, each as one flat tuple (a0, b0, a1, b1, a2, b2); the
    callers nest or read the fields they need.  The head (a0, b0) of a
    canonical triple determines everything.  With A = a0 + b0 the relation reads
    a1·A + b1·b0 = n, so b1 ≡ n·b0⁻¹ (mod A), and a2 = A − b1 ≥ 1 puts b1 in
    [1, A−1]: b1 is that residue, a1 is (n − b1·b0)/A, and the completion
    (a2, b2) = (A − b1, a1 + b1 − a0) follows.  With D = A² − n,
    X = b1·(A − b0) and Y = b0·(A − b1), minimality of the head sum demands
    a1 + b1 > A and a2 + b2 ≥ A, i.e. X > D and Y ≥ D.  Together they give
    b0·(A − b0) > D, which is (2b0 − A)² < 4n − 3A²: if b1 < b0 the first
    one bounds b0·(A − b0) > X, otherwise the second one gives
    b0·(A − b0) ≥ Y ≥ D, with equality only for b1 = b0 and a1 = a0.  So
    inside the window no pair repeats: the sums rule out
    (a1, b1) = (a0, b0) and (a2, b2) = (a1, b1), and (a2, b2) = (a0, b0)
    would need that equality.  A head with X ≥ D and Y ≥ D that passes the
    gcd tests has its three relations asserted once, on its six numbers.

    The reflection z ↦ 1 − z̄ of the Farey tessellation normalises Γ₀(n) and
    pairs the heads b0 and A − b0: the mirror head has b1' = A − b1 and
    a1' = b2, so its triple is (b0, a0, b2, a2, b1, a1), its two gcd tests
    are the same ones, and its X and Y trade places.  Its three relations
    are the head's, term for term (its first is the head's third, its second
    the second, its third the first), so the one assert covers both.  The
    window is symmetric about A/2, so only its lower half b0 ≤ ⌊A/2⌋ is
    scanned, about 0.052·n heads per odd level over all A > √n.  Each b0
    yields its own triple when X > D and Y ≥ D, and its mirror's when Y > D
    and X ≥ D.  The unit b0 = A/2 is its own mirror (only A = 2 has one)
    and counts once.  Mirrors come in descending b0, so they are listed
    after the lower half, reversed.

    Head sums are taken in ascending order and, for each, the levels that
    use it share one table (b0, A − b0, b0⁻¹ mod A) over the units b0 of the
    union of their lower half-windows, so a batch of nearby levels pays one
    ``pow`` per unit (A, b0), and each level finds the start of its window
    in the table by bisection.  For each level, triples come out in
    ascending (A, b0).
    """
    by_sum: dict[int, list[int]] = {}
    for i, n in enumerate(levels):
        if n % 2 == 0:  # an even level has no triple
            continue
        for A in head_sums(n):
            by_sum.setdefault(A, []).append(i)
    for A in sorted(by_sum):
        half = A // 2
        windows = []
        for i in by_sum[A]:
            n = levels[i]
            E = 4 * n - 3 * A * A
            if E <= 0 or n % A == 0:  # b0·(A − b0) > D fails, or b1 would be 0
                continue
            w = isqrt(E - 1)  # |2b0 − A| ≤ w
            lo = max(1, (A - w + 1) // 2)
            if lo <= half:
                windows.append((i, n, lo))
        if not windows:
            continue
        first = min(lo for _, _, lo in windows)
        units = [(b, A - b, pow(b, -1, A)) for b in range(first, half + 1) if gcd(A, b) == 1]
        for i, n, lo in windows:
            r, D = n % A, A * A - n
            found, mirrors = [], []
            for b0, a0, inv in units[bisect_left(units, (lo,)) :]:
                b1 = r * inv % A
                X = b1 * a0
                if X < D:
                    continue
                a2 = A - b1
                Y = b0 * a2
                if Y < D:
                    continue
                a1 = (n - b1 * b0) // A
                b2 = a1 + b1 - a0
                if gcd(a1, b1) != 1 or gcd(a2, b2) != 1:
                    continue
                assert (
                    a1 * a0 + (a1 + b1) * b0 == n
                    and a2 * a1 + (a2 + b2) * b1 == n
                    and a0 * a2 + (a0 + b0) * b2 == n
                ), (n, a0, b0)
                if X > D:
                    found.append((a0, b0, a1, b1, a2, b2))
                if Y > D and b0 != a0:
                    mirrors.append((b0, a0, b2, a2, b1, a1))
            yield i, found + mirrors[::-1]


def _free_head_sums(n: int) -> range:
    """The head sums A > √n of the triples k(n) counts (3A² < 4n always holds)."""
    return range(isqrt(n) + 1, cashew_ceiling(n) + 1)


def _free_side_triples(n: int):
    """Flat tuples of the canonical triples with head sum > √n."""
    return (t for _, found in _head_scan([n], _free_head_sums) for t in found)


def _triples_at(n: int, head_sum: int):
    """Flat tuples of the canonical triples with the given head sum."""
    return (t for _, found in _head_scan([n], lambda _: (head_sum,)) for t in found)


def canonical_triples(n: int, head_sum: int | None = None) -> list[FareyTriple]:
    """Canonical-rotation triples of level n.

    With head_sum given, every triple whose minimal pair sum equals it
    (whatever that sum is); otherwise only the triples with head sum > √n,
    which are the ones realized by free hull sides and counted by k(n).
    No triple has a head sum below 2.
    """
    if n < 2:
        raise ValueError("level must be at least 2")
    if head_sum is not None and head_sum < 2:
        return []
    found = _free_side_triples(n) if head_sum is None else _triples_at(n, head_sum)
    return [FareyTriple(((a0, b0), (a1, b1), (a2, b2))) for a0, b0, a1, b1, a2, b2 in found]


def triple_counts(levels: list[int]) -> list[int]:
    """k(n) for each level, from one scan shared by the whole batch.

    Levels close together share head sums and most of their b0 windows, so
    a run of them costs little more in modular inverses than one level.
    """
    if any(n < 2 for n in levels):
        raise ValueError("level must be at least 2")
    counts = [0] * len(levels)
    for i, found in _head_scan(levels, _free_head_sums):
        counts[i] += len(found)
    return counts


def triple_count(n: int) -> int:
    """k(n): the number of level-n Farey triples with minimal sum > √n.

    This equals the number of extra triangles needed on top of the hull of
    F*_⌊√n⌋: u(n) = Φ(⌊√n⌋) + triple_count(n) whenever the free sides of
    the hull all carry triples (primes, prime squares, and more).
    """
    return triple_counts([n])[0]


@dataclass(frozen=True)
class CashewCertificate:
    """Witness (s, t, a, b) that the level attains the ⌊√(4n/3)⌋ ceiling.

    n = s·a + t·b with s+t > a = ⌊√(4n/3)⌋ > t ≥ b ≥ a−s, and the encoded
    triple ((a−b, b), (s, t), (a−t, s+t−a+b)) is valid with minimal pair
    sum a.  (For n ≥ 37 one even has a−s ≥ 1, but requiring that would
    wrongly reject small levels like 5, whose only certificate has s = a.)
    """

    s: int
    t: int
    a: int
    b: int

    def triple(self) -> FareyTriple:
        s, t, a, b = self.s, self.t, self.a, self.b
        return FareyTriple(((a - b, b), (s, t), (a - t, s + t - a + b)))

    def to_json(self) -> dict:
        return {"s": self.s, "t": self.t, "a": self.a, "b": self.b}


def cashew_ceiling(n: int) -> int:
    """⌊√(4n/3)⌋, the largest possible minimal pair sum of a triple."""
    return isqrt(4 * n // 3)


def cashew_certificates(n: int) -> list[CashewCertificate]:
    """All certificates, ordered by descending s then ascending t.

    They are the canonical triples ((a−b, b), (s, t), ·) with head sum
    a = ⌊√(4n/3)⌋ and t ≥ b: ``_head_scan`` already checks
    n = s·a + t·b, a > t, s + t > a and b ≥ a − s, and that the triple is
    valid.  The list is empty exactly when no triple attains the ceiling;
    the tests check that against the triple enumeration, and the list
    against an unbounded scan of every (s, t).
    """
    if n < 2:
        raise ValueError("level must be at least 2")
    a = cashew_ceiling(n)
    certs = [
        CashewCertificate(s=s, t=t, a=a, b=b)
        for _, b, s, t, _, _ in _triples_at(n, a)
        if t >= b
    ]
    return sorted(certs, key=lambda c: (-c.s, c.t))


def cashew_certificate(n: int) -> CashewCertificate | None:
    """First certificate in that order (largest s), or None when not cashew."""
    certs = cashew_certificates(n)
    return certs[0] if certs else None


def _resolved(n: int, splits: dict[Pair, int]) -> LabeledPolygon:
    """The hull of F*_⌊√n⌋ with mediants put on some of its sides, classified once.

    ``splits`` maps a hull side's denominator pair (left, right) to the number
    of mediants it takes, each cut off at the side's left end; the head side
    of every triple that k(n) counts takes one more.  The result is checked
    once, also under ``python -O``: RuntimeError is raised unless it is
    maximal with u(n) triangles (``polygon._check_maximal``) and all its
    denominators are ≤ the upper bound of ``m_bounds``.
    """
    splits = dict.fromkeys(((t[0], t[1]) for t in _free_side_triples(n)), 1) | splits
    seq = farey_sequence(isqrt(n))
    cusps = seq[:2]
    for y in seq[2:]:
        x = cusps[-1]
        r = splits.get((x.den, y.den))
        if r:  # (j·x.num + y.num)/(j·x.den + y.den) rises from x towards y as j falls
            cusps += [Frac(j * x.num + y.num, j * x.den + y.den) for j in range(r, 0, -1)]
        cusps.append(y)
    P = _check_maximal(polygon_from_cusps(n, cusps))
    bound = _upper_bound(n)
    if P.max_denominator() > bound:
        raise RuntimeError(f"denominator bound {bound} broken at n={n}")
    return P


def build_optimal_polygon(n: int) -> LabeledPolygon:
    """Maximal polygon with all denominators ≤ ⌊√(4n/3)⌋, n prime or p².

    The free sides of the hull of F*_⌊√n⌋ are exactly the members of the
    triples that k(n) counts, three sides per triple.  One mediant on each
    triple's head side resolves all three, because the two sides it creates
    glue onto the triple's other two members.  The heads come straight from
    the k(n) enumeration, so the hull itself is never classified.
    """
    if not prime_or_prime_square(n):
        raise ValueError(f"{n} is not a prime or the square of a prime")
    return _resolved(n, {})


def twin_eligible(p: int, q: int) -> bool:
    """p < q odd primes with √q − √p < √2 (the test is ``twin_factors``)."""
    return 2 < p < q and twin_factors(p * q) == (p, q)


def build_twin_polygon(p: int, q: int) -> LabeledPolygon:
    """Maximal polygon for n = pq, p < q odd primes with √q − √p < √2.

    Start from the hull of F*_v, v = p + k − 1 with k = (q − p)/2; v = ⌊√n⌋
    since eligibility gives k² < p + q − 1.  The hull sides with denominator
    pairs (k, p), (p, k) and (i, q − i) for k < i < p + k are free.  The
    (k, p) side takes two mediants at its left end, of denominators p + k
    and q, and each (i, q − i) side one, of denominator q; (p, k) then glues
    onto the (p + k, p) piece.
    The other free sides are the members of the k(n) triples, resolved as
    in ``build_optimal_polygon``.  All denominators end up ≤ max(⌊√(4n/3)⌋, q).
    """
    if not twin_eligible(p, q):
        raise ValueError(f"({p}, {q}) is not an eligible odd prime pair")
    k = (q - p) // 2
    splits = {(k, p): 2} | {(i, q - i): 1 for i in range(k + 1, p + k)}
    return _resolved(p * q, splits)


def _witness(n: int) -> tuple[int, list[Pair]]:
    """(w, peaks): m(n) ≤ w, the largest denominator of a maximal polygon.

    The optimal polygon serves primes and prime squares, the twin polygon
    eligible pq, and smallest-mediant growth every other level; each builder
    checks its own result.  ``peaks`` lists the sides (a, b) under the cusps
    of denominator w = a + b, in the polygon's order.
    """
    if prime_or_prime_square(n):
        P = build_optimal_polygon(n)
    elif (tw := twin_factors(n)) is not None:
        P = build_twin_polygon(*tw)
    else:
        P = grow_maximal(n, "smallest-mediant")
    dens = [c.den for c in P.cusps]
    w = max(dens)
    return w, [(dens[i - 1], dens[i + 1]) for i in range(1, len(dens) - 1) if dens[i] == w]
