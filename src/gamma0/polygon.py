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
The one gluing pass, ``_classify_all``, runs on the cusp denominators: it
keys a side whose denominators are both units mod n by its slope, one
product with an inverse it keeps for the pass, and any other side by that
point's key.  Every polygon keeps the partner table the pass fills, and a
polygon whose labels come from outside is accepted only if they name the
gluing that pass finds.

Every maximal-polygon builder (growth here, the optimal and twin builds in
``triples``) hands its boundary over as two int lists, numerators and
denominators, to one function, ``_assemble``: it checks the Farey pairs on
ints, runs the gluing pass and checks maximality and the u(n) + 2 cusps.
Frac cusps and the ``LabeledPolygon`` are made once, and only where the
public API returns a polygon; cusp lists from outside go through the same
check and gluing pass.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from math import gcd

from .farey import Frac, INF, ZERO, ONE, mediant
from .invariants import _key_function, group_invariants
from .psl2 import Mat, T, inverse, in_gamma0

VERTICAL = 1
EVEN = -2
ODD = -3
FREE = -4
_KINDS = {VERTICAL: "vertical", EVEN: "even", ODD: "odd", FREE: "free"}


def _check_boundary(nums: list[int], dens: list[int]) -> None:
    """Raise ValueError unless the cusps nums[i]/dens[i] run [∞, 0, ..., 1]
    through Farey pairs."""
    if len(dens) < 3 or (nums[0], dens[0], nums[1], dens[1], nums[-1], dens[-1]) != (1, 0, 0, 1, 1, 1):
        raise ValueError("cusps must run [∞, 0, ..., 1]")
    x, a = 0, 1  # the cusp 0/1
    for y, b in zip(islice(nums, 2, None), islice(dens, 2, None)):
        # finite x/a < y/b span a Farey edge iff their determinant is exactly 1
        if b == 0 or a * y - x * b != 1:
            raise ValueError(f"cusps {x}/{a}, {y}/{b} do not form an increasing Farey pair")
        x, a = y, b


def _check_cusps(c: tuple[Frac, ...]) -> list[int]:
    """Check the Frac cusps c as ``_check_boundary`` does; return their denominators."""
    try:
        nums, dens = [x.num for x in c], [x.den for x in c]
    except AttributeError:
        raise ValueError("cusps must be Frac values") from None
    _check_boundary(nums, dens)
    return dens


@dataclass(frozen=True)
class LabeledPolygon:
    """An ideal polygon with classified sides (a Farey symbol when maximal).

    The labels must name the gluing of the cusps; pair indices may come in
    any order and are compared after renumbering by first appearance.  The
    cusps and labels are kept as tuples, whatever sequences they came in.
    """

    n: int
    cusps: tuple[Frac, ...]
    labels: tuple[int, ...]
    # _mates[i]: the side glued to side i, i itself for even and odd sides,
    # -1 for free ones; always the table of the gluing pass on the cusps
    _mates: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("level must be at least 2")
        object.__setattr__(self, "cusps", tuple(self.cusps))
        object.__setattr__(self, "labels", tuple(self.labels))
        labels, mates = _classify_all(self.n, _check_cusps(self.cusps))
        m, given = len(labels), self.labels
        if len(given) != m:
            raise ValueError(f"need exactly one label per side: {m} sides, {len(given)} labels")
        renumbered: dict[int, int] = {}  # given pair index -> its number by first appearance
        for i, want in enumerate(labels):
            lab = given[i]
            if lab >= 2:
                lab = renumbered.setdefault(lab, len(renumbered) + 2)
            if lab != want:
                kind = _KINDS.get(want) or f"glued to side {mates[i]}"
                raise ValueError(f"side {i} has label {given[i]}, but the cusps make it {kind}")
        object.__setattr__(self, "_mates", tuple(mates))

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
        j = self._mates[i]
        if j < 0:
            raise ValueError("free sides are not glued")
        return j

    def max_denominator(self) -> int:
        return max(c.den for c in self.cusps)

    def to_json(self) -> dict:
        """Leftmost growth makes denominators of 2173 digits at n = 27720 and
        5079 at 60060; past 4300 a library caller must lift
        ``sys.set_int_max_str_digits`` to print them, as ``cli.main`` does."""
        return {
            "n": self.n,
            "cusps": [str(c) for c in self.cusps],
            "labels": list(self.labels),
        }


def _json_int(value) -> int:
    """value itself if it is a JSON integer; a float, bool or str is refused, not truncated."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def polygon_from_json(data: dict) -> LabeledPolygon:
    """Read back ``to_json``; a malformed document raises ValueError naming the field."""
    fields = []
    for name, read in (("n", _json_int), ("cusps", Frac.parse), ("labels", _json_int)):
        try:
            value = data[name]
            fields.append(read(value) if name == "n" else tuple(map(read, value)))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"polygon field {name!r} is missing or malformed ({exc!r})") from None
    return LabeledPolygon(*fields)


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


def _classify_all(n: int, dens) -> tuple[list[int], list[int]]:
    """Labels and partner table (as ``LabeledPolygon._mates``) of every side.

    dens lists the cusp denominators, 0 for ∞ first, as the cusps of a
    polygon run.

    Partners are matched greedily left to right: a free side takes the
    lowest-index free side it glues to (the candidates are interchangeable).
    Such a partner always lies to its right, so one left-to-right pass
    suffices: each unmatched side waits under its own pairing key, and a
    later side takes the oldest side waiting under its partner key.  No two
    sides of a legal polygon share a key, so every polygon the package builds
    keeps one side per key in the plain dict ``waiting``.  Cusp lists from
    outside may have sides that share a key; the later ones queue in FIFO
    order under that key in ``queued``, and the oldest of them moves up into
    ``waiting`` when its predecessor is taken.  Each gluing goes into
    ``mates`` at once.  Each cusp denominator is reduced mod n once, for the
    two sides that share the cusp.

    A side (a, b) whose denominators are both units mod n is the point
    (1 : b·a⁻¹), and its partner (−b : a) is (1 : −a·b⁻¹): such a side is
    keyed by its slope, own key b·a⁻¹ and partner key −a·b⁻¹ mod n, from one
    inverse per distinct denominator residue, kept for the pass.  Any other
    side takes ``_key_function``'s key, offset by n.  Whether both
    coordinates are units is a property of the point, shared by a side and
    its partner, so the two kinds of key never meet.
    """
    key = _key_function(n)
    m = len(dens)
    labels = [VERTICAL] + [FREE] * (m - 2) + [VERTICAL]
    mates = [m - 1] + [-1] * (m - 2) + [0]
    waiting: dict[int, int] = {}  # pairing key -> the oldest side waiting under it
    queued: dict[int, deque[int]] = {}  # pairing key -> the later sides under it, oldest first
    inverses: dict[int, int] = {}  # residue mod n -> its inverse, 0 for a non-unit
    b = ib = 1  # dens[1] is the denominator of 0/1
    for i, b_next in enumerate(islice(dens, 2, None), 1):
        a, ia, b = b, ib, b_next % n
        ib = inverses.get(b)
        if ib is None:
            ib = inverses[b] = pow(b, -1, n) if gcd(b, n) == 1 else 0
        aa_bb = a * a + b * b
        if aa_bb % n == 0:
            labels[i], mates[i] = EVEN, i
        elif (aa_bb + a * b) % n == 0:
            labels[i], mates[i] = ODD, i
        else:
            units = ia and ib
            k = -a * ib % n if units else n + key(-b, a)
            j = waiting.pop(k, None)
            if j is not None:
                mates[i], mates[j] = j, i
                if queued and k in queued:
                    later = queued[k]
                    waiting[k] = later.popleft()
                    if not later:
                        del queued[k]
            else:
                k = b * ia % n if units else n + key(a, b)
                if k in waiting:
                    queued.setdefault(k, deque()).append(i)
                else:
                    waiting[k] = i
    next_index = 2
    for i, j in enumerate(mates):
        if 0 < i < j:  # the left member of a glued pair
            labels[i] = labels[j] = next_index
            next_index += 1
    return labels, mates


def polygon_from_cusps(n: int, cusps) -> LabeledPolygon:
    """Build a LabeledPolygon from a cusp list, classifying all sides.

    The cusps are checked once, before classification (the keys need coprime
    adjacent denominators).  The polygon keeps that pass's labels and partner
    table.
    """
    cusps = tuple(cusps)
    dens = _check_cusps(cusps)
    if n < 2:
        raise ValueError("level must be at least 2")
    return _polygon(n, cusps, *_classify_all(n, dens))


def _polygon(n: int, cusps, labels: list[int], mates: list[int]) -> LabeledPolygon:
    """The LabeledPolygon of cusps already checked and labelled by the gluing pass.

    It is made without ``__init__``, which would check the cusps again and
    run the same gluing pass a second time to check the labels.
    """
    P = object.__new__(LabeledPolygon)
    object.__setattr__(P, "n", n)
    object.__setattr__(P, "cusps", tuple(cusps))
    object.__setattr__(P, "labels", tuple(labels))
    object.__setattr__(P, "_mates", tuple(mates))
    return P


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


def _assemble(n: int, nums: list[int], dens: list[int]) -> tuple[list[int], list[int]]:
    """Labels and partner table of the boundary nums[i]/dens[i] of a maximal
    polygon: the one check of every maximal-polygon builder.

    The cusps must run [∞, 0, ..., 1] through Farey pairs (ValueError
    otherwise); the one gluing pass ``_classify_all`` labels the sides; and
    RuntimeError is raised, also under ``python -O``, unless no side is left
    free and there are u(n) triangles.  The builders hand their boundary over
    as two int lists, so a caller that needs only the denominators, such as
    ``triples._witness``, reads them checked without making a Frac or a
    polygon; ``_polygon`` makes the public result.
    """
    _check_boundary(nums, dens)
    labels, mates = _classify_all(n, dens)
    if FREE in labels:
        raise RuntimeError(f"construction left free sides at n={n}")
    if len(dens) != group_invariants(n).u + 2:
        raise RuntimeError(f"triangle count is not u(n) at n={n}")
    return labels, mates


def _grow(n: int, strategy: str) -> tuple[list[int], list[int], list[int], list[int]]:
    """Grow the base triangle until no free side remains.

    Returns the boundary as (nums, dens, labels, mates), checked and
    labelled by ``_assemble``.

    Every side is classified the moment it is created: even, odd, glued to a
    coexisting open side (a free side not yet expanded), or left open.
    Gluing is a forced move, since a side satisfying the gluing congruence
    with a coexisting side can never be expanded.  The projection to
    H²/Γ₀(n) is injective on the interior of a legal polygon, so no two of
    its sides lie in one Γ₀(n)-orbit of oriented edges: they never share a
    P¹(Z/nZ) point, the pairing key.  Open sides therefore sit in a dict with
    one node per key, and a new side's only possible partner is the open side
    under its partner key.  A repeated open key would break that fact, and
    raises RuntimeError.

    The boundary cusps, from 0/1 (node 0) to 1/1 (node 1), sit on a linked
    list as exact (numerator, denominator) pairs, and side i runs from node i
    to nxt[i].  Expanding it links the mediant (two additions) after node i
    and classifies the left side first, so a right side that glues onto its
    sibling finds it open in the dict.
    ``leftmost`` expands the first open side in boundary order: new sides only
    appear where that side was just subdivided, so one left-to-right cursor
    visits each side once (at composite levels — n=144 is the first — the
    denominators balloon far past machine range before the last free sides
    pair off; they are exact ints throughout).  ``smallest-mediant`` expands
    the open side with the smallest mediant denominator, rightmost on ties,
    taken from a heap whose entries for sides closed in the meantime are
    skipped.  The finished boundary is read off the nodes and handed to
    ``_assemble``, whose gluing pass re-derives every gluing decided here.
    """
    key = _key_function(n)
    num, den = [0, 1], [1, 1]  # exact numerator and denominator of each boundary cusp
    nxt = [1, -1]  # the next cusp in boundary order; side i runs to nxt[i]
    open_key: list[int | None] = [None, None]  # pairing key while side i is open
    open_sides: dict[int, int] = {}  # pairing key -> its one open side
    heap: list[tuple[int, int, int]] = []

    def classify(i: int) -> None:
        """Close side i (even, odd, or glued to an open side) or open it."""
        j = nxt[i]
        a, b = den[i] % n, den[j] % n
        if (a * a + b * b) % n == 0 or (a * a + a * b + b * b) % n == 0:
            return
        hit = open_sides.pop(key(-b, a), None)
        if hit is not None:
            open_key[hit] = None
            return
        k = key(a, b)
        if open_sides.setdefault(k, i) != i:
            raise RuntimeError(f"two open sides share a pairing key at level {n}")
        open_key[i] = k
        if strategy == "smallest-mediant":
            heapq.heappush(heap, (den[i] + den[j], -(num[i] + num[j]), i))

    def expand(i: int) -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise RuntimeError(f"polygon growth did not terminate at level {n}")
        del open_sides[open_key[i]]
        open_key[i] = None
        j, mid = nxt[i], len(nxt)  # the mediant becomes node mid, between i and j
        num.append(num[i] + num[j])
        den.append(den[i] + den[j])
        nxt.append(j)
        nxt[i] = mid
        open_key.append(None)
        classify(i)
        classify(mid)  # its sibling is open by now if the two glue

    budget = 6 * n + 64  # expansions are bounded by the triangle count u(n)
    classify(0)  # the side from 0/1 to 1/1
    if strategy == "leftmost":
        cur = 0
        while cur != 1:  # node 1, the cusp 1/1, ends the boundary
            if open_key[cur] is None:
                cur = nxt[cur]
            else:
                expand(cur)  # cur now ends at the mediant: re-examine it
    else:
        while heap:
            *_, i = heapq.heappop(heap)
            if open_key[i] is not None:  # else closed by a pairing since pushed
                expand(i)

    nums, dens = [1], [0]  # ∞, then the nodes from 0/1 to 1/1
    i = 0
    while i != -1:
        nums.append(num[i])
        dens.append(den[i])
        i = nxt[i]
    return nums, dens, *_assemble(n, nums, dens)


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
    nums, dens, labels, mates = _grow(n, strategy)
    return _polygon(n, map(Frac, nums, dens), labels, mates)


def _side_transport(P: LabeledPolygon, i: int) -> tuple[int, Mat]:
    """(j, g) for an interior side i of a maximal polygon: g carries side i
    onto side j reversed (j = i for even and odd sides, where g is the
    torsion element of the side).

    The transport comes straight from the cusp integers.  For increasing
    Farey pairs x₁/y₁ < x₂/y₂ and u₁/v₁ < u₂/v₂, the element sending the
    first to the second reversed (x₁/y₁ ↦ u₂/v₂, x₂/y₂ ↦ u₁/v₁) is

        [[u₂y₂ + u₁y₁, −u₂x₂ − u₁x₁], [v₂y₂ + v₁y₁, −v₂x₂ − v₁x₁]],

    already sign-normalized since its lower-left entry is positive.  An even
    side is its own target; the rotation of an odd side x₁/y₁ < x₂/y₂ sends
    its mediant and x₂/y₂ onto x₂/y₂ and x₁/y₁, so it is the same formula
    with the mediant as the source's left cusp.  ``psl2.edge_transport`` is
    the general construction and the tests' reference.
    """
    c = P.cusps
    x2, y2 = c[i + 1].num, c[i + 1].den
    if P.labels[i] == ODD:
        j = i
        x1, y1 = c[i].num + x2, c[i].den + y2
        u1, v1, u2, v2 = c[i].num, c[i].den, x2, y2
    else:
        j = P._mates[i]
        x1, y1 = c[i].num, c[i].den
        u1, v1, u2, v2 = c[j].num, c[j].den, c[j + 1].num, c[j + 1].den
    return j, Mat(u2 * y2 + u1 * y1, -u2 * x2 - u1 * x1, v2 * y2 + v1 * y1, -v2 * x2 - v1 * x1)


def side_pairing_system(P: LabeledPolygon) -> list[tuple[int, int, Mat]]:
    """The full side-pairing rule of a maximal polygon.

    One entry (i, j, g) per side: g carries side i onto side j reversed
    (j = i for even and odd sides, where g is the torsion element of the
    side; the vertical pair is glued by the unit translation).  The set is
    closed under inverses and lands in Gamma0(n).  Every interior entry is
    the closed-form transport of ``_side_transport``, which
    ``generators.independent_system`` calls only for the sides it keeps.
    """
    if not is_maximal(P):
        raise ValueError("side pairing is defined for maximal polygons only")
    m = len(P.cusps)
    entries: list[tuple[int, int, Mat]] = [(0, m - 1, T)]
    entries += [(i, *_side_transport(P, i)) for i in range(1, m - 1)]
    entries.append((m - 1, 0, inverse(T)))
    assert all(in_gamma0(g, P.n) for _, _, g in entries)
    return entries
