"""Property-based checks over randomized levels, pairs, and polygons."""

import re
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from gamma0.farey import (
    INF,
    ONE,
    ZERO,
    Frac,
    denominators,
    is_farey_pair,
    lift_denominator_sequence,
    mediant,
    pair_from_denominators,
    reduce,
)
from gamma0.invariants import (
    _key_function,
    equality_list,
    group_invariants,
    m_bounds,
    totient_summatory,
)
from gamma0.polygon import (
    EVEN,
    FREE,
    ODD,
    VERTICAL,
    LabeledPolygon,
    _classify_all,
    classify_side,
    grow_maximal,
    polygon_from_cusps,
    polygon_from_json,
    side_pairing_system,
)
from gamma0.psl2 import act, edge_transport, in_gamma0, inverse
from gamma0.triples import canonical_triples
from polygon_reference import reference_partners


levels = st.integers(min_value=2, max_value=150)

coprime_pairs = st.tuples(
    st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50)
).filter(lambda ab: gcd(*ab) == 1)


small_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])


@st.composite
def composite_levels(draw):
    """Composite n, weighted towards p², p²q and 2^a·3^b."""
    shape = draw(st.sampled_from(["p2", "p2q", "2a3b", "any"]))
    if shape == "p2":
        return draw(small_primes) ** 2
    if shape == "p2q":
        p, q = draw(st.lists(small_primes, min_size=2, max_size=2, unique=True))
        return p * p * q
    if shape == "2a3b":
        a = draw(st.integers(min_value=0, max_value=8))
        b = draw(st.integers(min_value=0, max_value=5))
        return 2**a * 3**b if a + b >= 2 else 4
    n = draw(st.integers(min_value=4, max_value=5000))
    is_composite = any(n % d == 0 for d in range(2, isqrt(n) + 1))
    return n if is_composite else n * draw(small_primes)


def coprime_part(x, y):
    g = gcd(x, y)
    return (x // g, y // g) if g else (1, 0)


wide_coprime_pairs = st.builds(
    coprime_part,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=-(10**30), max_value=10**30),
)


@st.composite
def farey_pairs(draw):
    """A Farey pair anywhere on the boundary, not just inside [0, 1]."""
    if draw(st.booleans()) and draw(st.booleans()):
        k = draw(st.integers(min_value=-20, max_value=20))
        pair = (INF, Frac(k, 1))
    else:
        a, b = draw(coprime_pairs)
        x, y = pair_from_denominators(a, b)
        k = draw(st.integers(min_value=-20, max_value=20))
        pair = (
            reduce(x.num + k * x.den, x.den),
            reduce(y.num + k * y.den, y.den),
        )
    if draw(st.booleans()):
        pair = (pair[1], pair[0])
    return pair


@given(coprime_pairs)
def test_pair_from_denominators_properties(ab):
    a, b = ab
    x, y = pair_from_denominators(a, b)
    assert is_farey_pair(x, y)
    assert x < y
    m = mediant(x, y)
    assert x < m < y
    assert m.den == a + b
    assert is_farey_pair(x, m) and is_farey_pair(m, y)


@given(farey_pairs(), farey_pairs())
def test_edge_transport_random_pairs(src, dst):
    g = edge_transport(src, dst)
    assert act(g, src[0]) == dst[0]
    assert act(g, src[1]) == dst[1]
    assert edge_transport(dst, src) == inverse(g)


@settings(deadline=None)
@given(levels, st.sampled_from(["leftmost", "smallest-mediant"]))
def test_pairing_involution(n, strategy):
    P = grow_maximal(n, strategy)
    system = {(i, j): g for i, j, g in side_pairing_system(P)}
    for (i, j), g in system.items():
        assert in_gamma0(g, n)
        assert (j, i) in system
        assert system[(j, i)] == (g if P.labels[i] in (EVEN, ODD) else inverse(g))
        if P.labels[i] not in (EVEN, ODD, VERTICAL):
            assert P.partner(i) == j


@settings(deadline=None)
@given(levels)
def test_polygon_roundtrips_and_counts(n):
    P = grow_maximal(n)
    assert polygon_from_json(P.to_json()) == P
    seq = P.denominator_sequence()
    assert denominators(lift_denominator_sequence(seq)) == seq
    inv = group_invariants(n)
    assert len(P.cusps) - 2 == inv.u
    # label multiset: two verticals, v2 evens, v3 odds, the rest in pairs
    labels = list(P.labels)
    assert labels.count(VERTICAL) == 2
    assert labels.count(EVEN) == inv.v2
    assert labels.count(ODD) == inv.v3
    glued = [x for x in labels if x >= 2]
    assert len(glued) == 2 * len(set(glued))


@settings(deadline=None)
@given(levels)
def test_classification_matches_congruences(n):
    P = grow_maximal(n)
    dens = P.side_denominators()
    for idx, (a, b) in enumerate(dens):
        label = P.labels[idx + 1]
        kind, partner = classify_side(n, (a, b), dens)
        if label == EVEN:
            assert (a * a + b * b) % n == 0
            assert kind == "even"
        elif label == ODD:
            assert (a * a + a * b + b * b) % n == 0
            assert kind == "odd"
        else:
            c, d = P.side_denominators(P.partner(idx + 1))
            assert (a * c + b * d) % n == 0
            assert kind == "paired"


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=2000))
def test_triple_identity(n):
    for t in canonical_triples(n):
        p = t.pairs
        for i in range(3):
            assert p[i][0] + p[i][1] == p[(i + 1) % 3][1] + p[(i + 2) % 3][0]
        assert t.min_sum() > isqrt(n)


@given(levels)
def test_m_bounds_consistency(n):
    lower, lower_is_exact, upper = m_bounds(n)
    assert lower == isqrt(n)
    assert lower_is_exact == (group_invariants(n).u == totient_summatory(lower))
    assert lower_is_exact == (n in set(equality_list(150)))
    if upper is not None:
        assert lower <= upper


@st.composite
def level_and_two_sides(draw):
    """n with coprime (a, b) and (c, d); half the time (c, d) is built glued."""
    n = draw(composite_levels())
    a, b = draw(wide_coprime_pairs)
    if draw(st.booleans()):
        c, d = draw(wide_coprime_pairs)
    else:
        lam = draw(st.integers(min_value=1, max_value=n - 1).filter(lambda x: gcd(x, n) == 1))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        # a lift of λ·(−b, a); dividing out the gcd (a unit mod n) keeps it glued
        c, d = coprime_part((-lam * b) % n + s * n, (lam * a) % n + t * n)
    return n, (a, b), (c, d)


@settings(max_examples=400)
@given(level_and_two_sides())
def test_pairing_key_is_the_gluing_congruence(case):
    n, (a, b), (c, d) = case
    glued = (a * c + b * d) % n == 0
    key = _key_function(n)
    assert (key(c, d) == key(-b, a)) == glued
    # the key names a point of P¹(Z/nZ): unit multiples share it
    assert key(a, b) == key(-a, -b) == key(a + n, b - n)


@st.composite
def random_farey_polygons(draw):
    """Cusps [∞, 0, ..., 1] grown from the base triangle by random mediants."""
    cusps = [INF, ZERO, ONE]
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        i = draw(st.integers(min_value=1, max_value=len(cusps) - 2))
        cusps.insert(i + 1, mediant(cusps[i], cusps[i + 1]))
    return tuple(cusps)


def greedy_labels(n, cusps):
    """Reference labelling: each free side, left to right, glues onto the
    lowest-index free side that ``classify_side`` accepts."""
    dens = [(cusps[i].den, cusps[i + 1].den) for i in range(1, len(cusps) - 1)]
    kind_label = {"even": EVEN, "odd": ODD, "free": FREE}
    labels = [kind_label[classify_side(n, s, [])[0]] for s in dens]
    next_index = 2
    for i, s in enumerate(dens):
        if labels[i] != FREE:
            continue
        free = [j for j in range(len(dens)) if j != i and labels[j] == FREE]
        kind, partner = classify_side(n, s, [dens[j] for j in free])
        if kind == "paired":
            j = next(j for j in free if dens[j] == partner)
            labels[i] = labels[j] = next_index
            next_index += 1
    return [VERTICAL, *labels, VERTICAL]


@settings(max_examples=300, deadline=None)
@given(composite_levels(), random_farey_polygons())
def test_classify_all_matches_greedy_reference(n, cusps):
    assert _classify_all(n, cusps)[0] == greedy_labels(n, cusps)


@settings(max_examples=300, deadline=None)
@given(composite_levels(), random_farey_polygons())
def test_classified_partner_table_matches_the_labels(n, cusps):
    # these cusp lists need not be legal polygons, so sides may share a
    # pairing key and reach the FIFO queue of the gluing pass
    P = polygon_from_cusps(n, cusps)
    assert P._mates == reference_partners(P.labels)
    assert polygon_from_json(P.to_json())._mates == P._mates


@settings(max_examples=300, deadline=None)
@given(composite_levels(), random_farey_polygons(), st.randoms(use_true_random=False))
def test_labels_are_checked_against_the_gluing_pass(n, cusps, rng):
    # as above, sides may share a pairing key and reach the FIFO queue
    P = polygon_from_cusps(n, cusps)
    pair_indices = sorted({lab for lab in P.labels if lab >= 2})
    renumbering = dict(zip(pair_indices, rng.sample(range(2, 10 * len(P)), len(pair_indices))))
    Q = LabeledPolygon(n, cusps, tuple(renumbering.get(lab, lab) for lab in P.labels))
    assert Q._mates == P._mates
    # any other allowed value on one interior side contradicts the cusps
    i = rng.randrange(1, len(P) - 1)
    other = rng.choice([lab for lab in (EVEN, ODD, FREE, *pair_indices, len(P)) if lab != P.labels[i]])
    labels = list(P.labels)
    labels[i] = other
    with pytest.raises(ValueError) as info:
        LabeledPolygon(n, cusps, tuple(labels))
    # the sides left of i still match; a changed pair index may first show
    # further right, where the renumbering of the given labels goes astray
    assert int(re.match(r"side (\d+) has label ", str(info.value)).group(1)) >= i
