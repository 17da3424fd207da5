"""Independent generating systems read off a maximal polygon.

The side-pairing matrices of a maximal polygon generate Gamma0(n); dropping
one member of each inverse pair (keeping the left source side) leaves an
independent system in Rademacher's sense: T, one order-2 element per even
side, one order-3 element per odd side, and one infinite-order element per
glued side pair.  The counts land exactly on the group invariants: v2 order-2
generators, v3 order-3, and 2·genus + v_inf − 1 of infinite order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .invariants import GroupInvariants, group_invariants
from .polygon import EVEN, ODD, LabeledPolygon, _side_transport, is_maximal
from .psl2 import Mat, T, element_order, in_gamma0


@dataclass(frozen=True, init=False)
class Generator:
    """One generator of a system: its matrix, side kind and order, and the
    source and target sides it joins.

    The constructor writes each field once, straight into the instance
    ``__dict__``; otherwise this is an ordinary frozen dataclass (eq, hash and
    repr on the five fields, assignment raises FrozenInstanceError).
    """

    matrix: Mat
    kind: str  # translation | even | odd | paired
    order: int | None  # 2, 3, or None for infinite
    source: int  # index of the side the matrix transports
    target: int

    def __init__(self, matrix: Mat, kind: str, order: int | None, source: int, target: int):
        fields = self.__dict__
        fields["matrix"] = matrix
        fields["kind"] = kind
        fields["order"] = order
        fields["source"] = source
        fields["target"] = target

    def to_json(self) -> dict:
        return {"matrix": [list(r) for r in self.matrix.rows()], "kind": self.kind, "order": self.order}


@dataclass(frozen=True)
class GeneratingSystem:
    n: int
    generators: tuple[Generator, ...]

    def counts(self) -> dict[str, int]:
        orders = [g.order for g in self.generators]
        two, three = orders.count(2), orders.count(3)
        return {"order2": two, "order3": three, "infinite": len(orders) - two - three}

    def to_json(self) -> dict:
        """Entries read off leftmost growth reach 4334 digits at n = 27720 and
        10143 at 60060; past 4300 a library caller must lift
        ``sys.set_int_max_str_digits`` to print them, as ``cli.main`` does."""
        return {"n": self.n, "generators": [g.to_json() for g in self.generators]}


def _free_factor_counts(inv: GroupInvariants) -> dict[str, int]:
    """Generators per order that an independent system of Gamma0(n) has."""
    return {"order2": inv.v2, "order3": inv.v3, "infinite": 2 * inv.genus + inv.v_inf - 1}


def independent_system(P: LabeledPolygon) -> GeneratingSystem:
    """Maximal inverse-free subset of the side-pairing system of P.

    T comes from the two vertical sides; every even or odd side contributes
    its own torsion element; every glued pair contributes the transport of
    its left member.  The right member's matrix would be the inverse, so it
    is never built: each kept matrix is the entry of ``side_pairing_system``
    for its side, made by the same ``_side_transport``.  A polygon with a
    free side, or with more than u(n) triangles, raises ValueError.
    """
    if not is_maximal(P):
        raise ValueError("polygon has free sides; grow it before extracting generators")
    inv = group_invariants(P.n)
    if len(P) != inv.u + 2:
        raise ValueError(f"polygon has {len(P) - 2} triangles, but Gamma0({P.n}) needs u(n) = {inv.u}")
    m = len(P.labels)
    mates = P._mates
    gens = [Generator(T, "translation", None, 0, m - 1)]
    for i in range(1, m - 1):
        if mates[i] < i:
            continue  # the right member of a glued pair
        j, g = _side_transport(P, i)
        lab = P.labels[i]
        if lab == EVEN:
            gens.append(Generator(g, "even", 2, i, i))
        elif lab == ODD:
            gens.append(Generator(g, "odd", 3, i, i))
        else:
            gens.append(Generator(g, "paired", None, i, j))
    assert all(in_gamma0(g.matrix, P.n) for g in gens)
    sys = GeneratingSystem(P.n, tuple(gens))
    got, want = sys.counts(), _free_factor_counts(inv)
    assert got == want, f"free-factor counts {got} != {want} at n={P.n}"
    return sys


@dataclass
class VerificationReport:
    n: int
    ok: bool = True
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    entries: list[int] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.ok = False
        self.failures.append(msg)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "failures": self.failures,
            "counts": self.counts,
            "entries": self.entries,
        }


# the order each side kind demands of its generator
_KIND_ORDER = {"translation": math.inf, "even": 2, "odd": 3, "paired": math.inf}


def verify_system(
    sys: GeneratingSystem,
    expect_entry: int | None = None,
    twin: tuple[int, int] | None = None,
) -> VerificationReport:
    """Check every claim made about a generating system; never raises.

    Always checked: membership in Gamma0(n), presence of T, inverse-freeness,
    the trace bound |tr g| ≤ c−2 and the Frobenius bound ‖g‖² < (2c−1)² for
    every non-translation (c its own lower-left entry), torsion orders
    matching the side kinds, and the free-factor counts against the group
    invariants.  ``expect_entry=n`` additionally pins every non-translation
    entry to n (optimal construction); ``twin=(p, q)`` allows {n, 2n} with
    exactly q−p generators at 2n.
    """
    n = sys.n
    rep = VerificationReport(n=n)
    mats = [g.matrix for g in sys.generators]
    if T not in mats:
        rep.fail("translation T is missing")
    for idx, g in enumerate(sys.generators):
        m = g.matrix
        if not in_gamma0(m, n):
            rep.fail(f"generator {idx} {m.rows()} is not in Gamma0({n})")
        order = element_order(m)
        expected = _KIND_ORDER[g.kind]
        if order != expected:
            rep.fail(f"generator {idx} has order {order}, kind {g.kind} demands {expected}")
        if g.kind == "translation":
            continue
        c = m.c
        rep.entries.append(c)
        if c <= 0:
            rep.fail(f"generator {idx} has non-positive lower-left entry {c}")
            continue
        if abs(m.a + m.d) > c - 2:
            rep.fail(f"generator {idx} breaks the trace bound: |{m.a + m.d}| > {c} - 2")
        frob = m.a * m.a + m.b * m.b + c * c + m.d * m.d
        r = 2 * c - 1
        if frob >= r * r:
            rep.fail(f"generator {idx} breaks the Frobenius bound: {frob} >= {r * r}")
    # Entries are sign-normalized (c > 0, or c = 0 and a = d = 1), so an
    # inverse's entries are the adjugate's, negated unless c = 0.
    position = {(m.a, m.b, m.c, m.d): i for i, m in enumerate(mats)}
    for j, m in enumerate(mats):
        i = position.get((-m.d, m.b, m.c, -m.a) if m.c else (m.d, -m.b, 0, m.a))
        if i is not None and i < j:
            rep.fail(f"generators {i} and {j} are mutually inverse")

    rep.counts = sys.counts()
    want = _free_factor_counts(group_invariants(n))
    if rep.counts != want:
        rep.fail(f"free-factor counts {rep.counts} != {want}")

    if expect_entry is not None:
        bad = [c for c in rep.entries if c != expect_entry]
        if bad:
            rep.fail(f"entries {bad} differ from expected {expect_entry}")
    if twin is not None:
        p, q = twin
        lo, hi = p * q, 2 * p * q
        bad = [c for c in rep.entries if c not in (lo, hi)]
        if bad:
            rep.fail(f"entries {bad} outside {{{lo}, {hi}}}")
        doubled = sum(1 for c in rep.entries if c == hi)
        if doubled != q - p:
            rep.fail(f"{doubled} generators at entry {hi}, twin split demands {q - p}")
    return rep


def cusp_class_count(P: LabeledPolygon) -> int:
    """Number of cusp orbits after gluing P's boundary; must equal v_inf.

    Union-find over the polygon cusps: T glues 0 to 1, an even or odd side
    glues its two endpoints (for odd sides via the square of the rotation),
    and a glued pair matches endpoints crosswise.
    """
    m = len(P.cusps)
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    union(1, m - 1)  # T: 0 -> 1; the cusp at infinity pairs with itself
    for i in range(1, m - 1):
        j = P.partner(i)  # raises on free sides
        if j == i:
            union(i, i + 1)
        elif j > i:
            union(i, j + 1)
            union(i + 1, j)
    return len({find(x) for x in range(m)})
