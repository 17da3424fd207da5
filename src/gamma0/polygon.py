"""Normalized ideal polygons for Gamma0(n) and the triangle-growing algorithm.

A polygon is stored as its ordered cusp list [∞, 0, ..., 1] together with one
label per side; side i runs from cusps[i] to cusps[i+1], and the last side
wraps from the cusp 1 back to ∞.  Labels use the classical Farey-symbol
encoding:

    1     the two vertical sides, glued to each other by z -> z+1
    -2    even: the side is glued to itself by an order-2 element
    -3    odd: the exterior triangle is rotated onto itself, order 3
    -4    free: the polygon can still grow through this side
    k>=2  paired: the two sides carrying the same index are glued together

Classification depends only on the endpoint denominators (a, b) of a side:
even iff n | a²+b², odd iff n | a²+ab+b², and sides (a,b), (c,d) are glued
iff n | ac+bd.  The even/odd/paired cases are mutually exclusive, and a side
satisfying any of them is terminal: only sides in relation with nothing on
the boundary may be expanded.  Growth therefore terminates in a maximal
polygon — with exactly u(n) triangles — whatever order free sides are
expanded in.

Side denominators are coprime, so (a : b) is a point of the projective line
P¹(Z/nZ), and the gluing relation n | ac+bd says exactly (c : d) = (−b : a)
there (modulo each prime power of n the solutions of ax+by ≡ 0 are the
multiples of (−b, a)).  ``_key_function`` names that point, so finding a
partner is one dict lookup instead of a scan over the boundary, and all
arithmetic stays on exact Python ints whatever the size of the denominators.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .farey import Frac, INF, ZERO, ONE, mediant
from .invariants import factorize
from .psl2 import Mat, T, edge_transport, inverse, in_gamma0

VERTICAL = 1
EVEN = -2
ODD = -3
FREE = -4


def _check_cusps(c: tuple[Frac, ...]) -> None:
    """Raise ValueError unless c runs [∞, 0, ..., 1] through Farey pairs."""
    if len(c) < 3 or c[0] != INF or c[1] != ZERO or c[-1] != ONE:
        raise ValueError("cusps must run [∞, 0, ..., 1]")
    for x, y in zip(c[1:], c[2:]):
        # finite x < y span a Farey edge iff their determinant is exactly 1
        if y.den == 0 or x.den * y.num - x.num * y.den != 1:
            raise ValueError(f"cusps {x}, {y} do not form an increasing Farey pair")


@dataclass(frozen=True)
class LabeledPolygon:
    """An ideal polygon with classified sides (a Farey symbol when maximal)."""

    n: int
    cusps: tuple[Frac, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("level must be at least 2")
        _check_cusps(self.cusps)
        if len(self.labels) != len(self.cusps):
            raise ValueError("need exactly one label per side")
        if self.labels[0] != VERTICAL or self.labels[-1] != VERTICAL:
            raise ValueError("the two vertical sides carry label 1")

    def __len__(self) -> int:
        return len(self.cusps)

    def side(self, i: int) -> tuple[Frac, Frac]:
        """Endpoints of side i (the last side wraps around to ∞)."""
        m = len(self.cusps)
        return self.cusps[i % m], self.cusps[(i + 1) % m]

    def side_denominators(self, i: int | None = None):
        """Denominator pairs of the non-vertical sides, left to right.

        With an index, just that side's pair.
        """
        if i is not None:
            left, right = self.side(i)
            return left.den, right.den
        c = self.cusps
        return [(c[j].den, c[j + 1].den) for j in range(1, len(c) - 1)]

    def denominator_sequence(self) -> list[int]:
        return [c.den for c in self.cusps]

    def free_sides(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab == FREE]

    def partner(self, i: int) -> int:
        """Index of the side glued to side i (i itself for even/odd sides)."""
        lab = self.labels[i]
        if lab == FREE:
            raise ValueError("free sides are not glued")
        if lab in (EVEN, ODD):
            return i
        if lab == VERTICAL:
            return len(self.cusps) - 1 if i == 0 else 0
        return next(j for j, l in enumerate(self.labels) if l == lab and j != i)

    def max_denominator(self) -> int:
        return max(c.den for c in self.cusps)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cusps": [str(c) for c in self.cusps],
            "labels": list(self.labels),
        }


def polygon_from_json(data: dict) -> LabeledPolygon:
    cusps = tuple(Frac.parse(s) for s in data["cusps"])
    return LabeledPolygon(int(data["n"]), cusps, tuple(int(x) for x in data["labels"]))


def classify_side(
    n: int, side_denoms: tuple[int, int], all_side_denoms: list[tuple[int, int]]
) -> tuple[str, tuple[int, int] | None]:
    """Classify one side among a collection of candidate partner sides.

    Returns ('even', None), ('odd', None), ('paired', (c, d)) with the
    partner's denominators, or ('free', None).  The side itself is skipped
    when it occurs in the list.  Precedence even > odd > paired mirrors the
    fact that the four cases are mutually exclusive on legal polygons.
    """
    a, b = side_denoms
    if (a * a + b * b) % n == 0:
        return "even", None
    if (a * a + a * b + b * b) % n == 0:
        return "odd", None
    for c, d in all_side_denoms:
        if (c, d) == (a, b):
            continue
        if (a * c + b * d) % n == 0:
            return "paired", (c, d)
    return "free", None


def _key_function(n: int):
    """The pairing key at level n: key(a, b) names the point (a : b) of P¹(Z/nZ).

    (a, b) must share no prime factor of n.  Modulo each prime power q = p^e
    of n the point has one normalised coordinate: b·a⁻¹ mod q when p ∤ a
    (the point (1 : b/a)), else q + a·b⁻¹ mod q (the point (a/b : 1)).  The
    coordinates are packed in mixed radix 2q, so two pairs get the same key
    exactly when they are the same point.  Side (c, d) glues to side (a, b)
    iff ``key(c, d) == key(-b, a)``.  n is factorised once per call here.
    """
    powers = tuple((p, p**e) for p, e in factorize(n).items())

    def key(a: int, b: int) -> int:
        out = 0
        for p, q in powers:
            x = a % q
            y = b % q
            if x % p:
                c = y * pow(x, -1, q) % q
            else:
                c = q + x * pow(y, -1, q) % q
            out = out * 2 * q + c
        return out

    return key


def _classify_all(n: int, cusps: tuple[Frac, ...]) -> list[int]:
    """Labels for every side of the polygon with the given cusps.

    Partners are matched greedily left to right: a free side takes the
    lowest-index free side it glues to (the candidates are interchangeable).
    Such a partner always lies to its right, so one left-to-right pass
    suffices: each unmatched side waits in a FIFO under its own pairing key,
    and a later side takes the oldest waiting side under its partner key.
    """
    key = _key_function(n)
    m = len(cusps)
    labels = [VERTICAL] + [FREE] * (m - 2) + [VERTICAL]
    mate = [0] * m  # mate[i] = right partner of a left member i
    waiting: dict[int, deque[int]] = {}
    for i in range(1, m - 1):
        a = cusps[i].den % n
        b = cusps[i + 1].den % n
        if (a * a + b * b) % n == 0:
            labels[i] = EVEN
        elif (a * a + a * b + b * b) % n == 0:
            labels[i] = ODD
        else:
            queue = waiting.get(key(-b, a))
            if queue:
                mate[queue.popleft()] = i
            else:
                waiting.setdefault(key(a, b), deque()).append(i)
    next_index = 2
    for i, j in enumerate(mate):
        if j:
            labels[i] = labels[j] = next_index
            next_index += 1
    return labels


def polygon_from_cusps(n: int, cusps) -> LabeledPolygon:
    """Build a LabeledPolygon from a cusp list, classifying all sides."""
    cusps = tuple(cusps)
    _check_cusps(cusps)  # the keys need coprime adjacent denominators
    return LabeledPolygon(n, cusps, tuple(_classify_all(n, cusps)))


def base_polygon(n: int) -> LabeledPolygon:
    """The starting triangle (∞, 0, 1) with its single classified side."""
    return polygon_from_cusps(n, (INF, ZERO, ONE))


def attach_triangle(P: LabeledPolygon, side_index: int) -> LabeledPolygon:
    """Grow P through a free side by inserting the mediant cusp.

    The polygon stays legal (the attached Farey triangle is interior-disjoint
    from every translate of P), and all sides are re-classified since the two
    new sides may glue onto formerly free ones.
    """
    if P.labels[side_index] != FREE:
        raise ValueError(f"side {side_index} is not free")
    x, y = P.side(side_index)
    cusps = P.cusps[: side_index + 1] + (mediant(x, y),) + P.cusps[side_index + 1 :]
    return polygon_from_cusps(P.n, cusps)


def is_maximal(P: LabeledPolygon) -> bool:
    """A polygon is maximal exactly when it has no free side left."""
    return FREE not in P.labels


def _assemble(n: int, denoms: list[int], tags: list[tuple]) -> LabeledPolygon:
    """Build the final polygon from emitted denominators and side tags.

    ``denoms`` is the full denominator sequence [0, 1, ..., 1]; ``tags`` has
    one entry per non-vertical side: ('even',), ('odd',), or
    ('paired', sid, partner_sid).  Pair indices are assigned 2, 3, ... in
    order of each pair's left member.
    """
    # Chain the cusp numerators: consecutive cusps r/s < u/t satisfy us-rt=1.
    cusps = [INF, ZERO]
    r, s = 0, 1
    for t in denoms[2:]:
        u, rem = divmod(1 + r * t, s)
        assert rem == 0, "denominator chain broke: not a Farey pair sequence"
        cusps.append(Frac(u, t))
        r, s = u, t
    assert cusps[-1] == ONE

    labels = [VERTICAL]
    pair_index: dict[int, int] = {}
    nxt = 2
    for tag in tags:
        if tag[0] == "even":
            labels.append(EVEN)
        elif tag[0] == "odd":
            labels.append(ODD)
        else:
            _, sid, partner = tag
            if sid not in pair_index:
                pair_index[sid] = pair_index[partner] = nxt
                nxt += 1
            labels.append(pair_index[sid])
    labels.append(VERTICAL)
    return LabeledPolygon(n, tuple(cusps), tuple(labels))


def _grow(n: int, strategy: str) -> LabeledPolygon:
    """Grow the base triangle until no free side remains.

    Every side is classified the moment it is created, against all coexisting
    open sides (free sides not yet expanded): pairing is a forced move, since
    a side satisfying the gluing congruence with a coexisting side can never
    be expanded.  Open sides sit in a dict under their pairing key, so the
    candidates are one lookup; when several qualify, any two (A1,B1), (A2,B2)
    have n | A1*B2 - A2*B1, so a future side gluable to one is gluable to the
    other and no choice blocks completion.  We glue onto the boundary-leftmost
    candidate, the new side's sibling included.

    Sides live on a singly linked list in boundary order; expanding a side
    turns its node into the left child and links the right child after it.
    ``leftmost`` expands the first open side in boundary order: new sides only
    appear where that side was just subdivided, so one left-to-right cursor
    visits each side once (at composite levels — n=144 is the first — the
    denominators balloon far past machine range before the last free sides
    pair off; they are exact ints throughout).  ``smallest-mediant`` expands
    the open side with the smallest mediant denominator, rightmost on ties,
    taken from a heap whose entries for sides closed in the meantime are
    skipped.
    """
    key = _key_function(n)
    den_a = [1]  # exact left denominator
    den_b = [1]  # exact right denominator
    num_l = [0]  # exact left-cusp numerator; num_l/den_a orders the boundary
    nxt = [-1]
    tags: list[tuple | None] = [None]
    open_key: list[int | None] = [None]  # pairing key while the side is open
    open_sides: dict[int, list[int]] = {}
    heap: list[tuple[int, int, int]] = []

    def mediant_num(i: int) -> int:
        p = num_l[i]
        return p + (p * den_b[i] + 1) // den_a[i]  # left numerator + right numerator

    def classify(i: int, sibling: int = -1) -> None:
        a = den_a[i] % n
        b = den_b[i] % n
        if (a * a + b * b) % n == 0:
            tags[i] = ("even",)
            return
        if (a * a + a * b + b * b) % n == 0:
            tags[i] = ("odd",)
            return
        want = key(-b, a)
        cands = open_sides.get(want, [])
        if sibling >= 0 and key(den_a[sibling], den_b[sibling]) == want:
            cands = [*cands, sibling]
        if not cands:
            open_key[i] = k = key(a, b)
            open_sides.setdefault(k, []).append(i)
            if strategy == "smallest-mediant":
                heapq.heappush(heap, (den_a[i] + den_b[i], -mediant_num(i), i))
            return
        hit = cands[0]
        for j in cands[1:]:
            if num_l[j] * den_a[hit] < num_l[hit] * den_a[j]:
                hit = j
        if hit != sibling:
            close(hit)
        tags[i] = ("paired", i, hit)
        tags[hit] = ("paired", hit, i)

    def close(i: int) -> None:
        open_sides[open_key[i]].remove(i)
        open_key[i] = None

    def expand(i: int) -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise RuntimeError(f"polygon growth did not terminate at level {n}")
        close(i)
        a, b = den_a[i], den_b[i]
        right = len(nxt)
        den_a.append(a + b)
        den_b.append(b)
        num_l.append(mediant_num(i))
        nxt.append(nxt[i])
        tags.append(None)
        open_key.append(None)
        den_b[i] = a + b  # node i becomes the left child
        nxt[i] = right
        classify(i, sibling=right)
        if tags[right] is None:
            classify(right)

    budget = 6 * n + 64  # expansions are bounded by the triangle count u(n)
    classify(0)  # the side from 0/1 to 1/1
    if strategy == "leftmost":
        cur = 0
        while cur != -1:
            if open_key[cur] is None:
                cur = nxt[cur]
            else:
                expand(cur)  # cur is now the left child: re-examine it
    else:
        while heap:
            *_, i = heapq.heappop(heap)
            if open_key[i] is not None:  # else closed by a pairing since pushed
                expand(i)

    denoms = [0, 1]
    out_tags: list[tuple] = []
    i = 0
    while i != -1:
        denoms.append(den_b[i])
        out_tags.append(tags[i])
        i = nxt[i]
    return _assemble(n, denoms, out_tags)


GROWTH_STRATEGIES = ("leftmost", "smallest-mediant")


def grow_maximal(n: int, strategy: str = "leftmost") -> LabeledPolygon:
    """Grow the base triangle into a maximal Gamma0(n) polygon.

    Termination is guaranteed whatever the strategy: each expansion adds one
    ideal triangle and a maximal polygon contains exactly u(n) of them.  The
    result is deterministic for a fixed strategy.
    """
    if n < 2:
        raise ValueError("level must be at least 2")
    if strategy not in GROWTH_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {GROWTH_STRATEGIES}")
    P = _grow(n, strategy)
    assert is_maximal(P)
    return P


def side_pairing_system(P: LabeledPolygon) -> list[tuple[int, int, Mat]]:
    """The full side-pairing rule of a maximal polygon.

    One entry (i, j, g) per side: g carries side i onto side j reversed
    (j = i for even and odd sides, where g is the torsion element of the
    side; the vertical pair is glued by the unit translation).  The set is
    closed under inverses and lands in Gamma0(n).
    """
    if not is_maximal(P):
        raise ValueError("side pairing is defined for maximal polygons only")
    m = len(P.cusps)
    pending: dict[int, int] = {}
    mate: dict[int, int] = {}
    for i, lab in enumerate(P.labels):
        if lab >= 2:
            if lab in pending:
                j = pending.pop(lab)
                mate[i], mate[j] = j, i
            else:
                pending[lab] = i
    entries: list[tuple[int, int, Mat]] = []
    for i, lab in enumerate(P.labels):
        p1, p2 = P.side(i)
        if lab == VERTICAL:
            if i == 0:
                entries.append((0, m - 1, T))
            else:
                entries.append((m - 1, 0, inverse(T)))
            continue
        if lab == EVEN:
            g = edge_transport((p1, p2), (p2, p1))
        elif lab == ODD:
            mid = mediant(p1, p2)
            g = edge_transport((p1, mid), (mid, p2))
        else:
            j = mate[i]
            q1, q2 = P.side(j)
            g = edge_transport((p1, p2), (q2, q1))
            entries.append((i, j, g))
            continue
        entries.append((i, i, g))
    assert all(in_gamma0(g, P.n) for _, _, g in entries)
    return entries
