"""Farey triples, cashew certificates, and the two direct constructions."""

import random
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import gamma0.invariants
import gamma0.polygon
from gamma0.farey import farey_sequence
from gamma0.invariants import (
    group_invariants,
    is_prime,
    prime_or_prime_square,
    totient_summatory,
    twin_factors,
)
from gamma0.polygon import grow_maximal, is_maximal, polygon_from_cusps
from gamma0.triples import (
    CashewCertificate,
    FareyTriple,
    TripleNotApplicable,
    _free_head_sums,
    _head_scan,
    _relation_holds,
    _witness,
    build_optimal_polygon,
    build_twin_polygon,
    canonical_rotation,
    canonical_triples,
    cashew_ceiling,
    cashew_certificate,
    cashew_certificates,
    complete_triple,
    is_farey_triple,
    triple_count,
    triple_counts,
    triple_from_free_side,
    twin_eligible,
)
from triples_reference import (
    scan_certificates,
    scan_heads,
    scan_triple_count,
    sorted_optimal_polygon,
    sorted_twin_polygon,
)


def brute_triples(n):
    """Every level-n triple by brute force over the defining relation."""
    found = set()
    for a0 in range(1, n):
        for b0 in range(1, n - a0 + 1):
            if gcd(a0, b0) != 1:
                continue
            head = a0 + b0
            for a1 in range(1, (n - b0) // head + 1):
                rem = n - a1 * head
                if rem % b0:
                    continue
                b1 = rem // b0
                if b1 < 1 or gcd(a1, b1) != 1:
                    continue
                a2, b2 = head - b1, a1 + b1 - a0
                if a2 < 1 or b2 < 1:
                    continue
                t = FareyTriple(((a0, b0), (a1, b1), (a2, b2)))
                if is_farey_triple(t, n):
                    found.add(canonical_rotation(t))
    return found


# --- triples ---


def test_is_farey_triple():
    t = FareyTriple(((5, 2), (5, 3), (4, 3)))  # level 41
    assert is_farey_triple(t, 41)
    assert not is_farey_triple(t, 43)
    assert not is_farey_triple(FareyTriple(((5, 2), (5, 2), (4, 3))), 41)
    assert not is_farey_triple(FareyTriple(((5, 2), (5, 3), (0, 3))), 41)


def test_triple_identity_and_rotation():
    t = canonical_rotation(FareyTriple(((5, 3), (4, 3), (5, 2))))
    assert t.min_sum() == t.sums()[0]
    # the cyclic identity a_i + b_i = b_{i+1} + a_{i+2}
    p = t.pairs
    for i in range(3):
        a_i, b_i = p[i]
        _, b_next = p[(i + 1) % 3]
        a_prev, _ = p[(i + 2) % 3]
        assert a_i + b_i == b_next + a_prev


def test_complete_triple():
    t = complete_triple(5, 2, 5, 3, 41)
    assert t is not None and is_farey_triple(t, 41)
    assert (5, 2) in t.pairs and (5, 3) in t.pairs
    # the degenerate self-related pair gives no triple: (1,1) at n=3
    assert complete_triple(1, 1, 1, 1, 3) is None
    with pytest.raises(ValueError):
        complete_triple(5, 2, 5, 3, 40)  # relation does not hold
    with pytest.raises(ValueError):
        complete_triple(0, 2, 5, 3, 10)


@pytest.mark.parametrize("n", [7, 11, 17, 24, 29, 41, 60, 97])
def test_enumeration_matches_brute_force(n):
    brute = brute_triples(n)
    lib = set()
    for head_sum in range(1, n):
        lib.update(canonical_triples(n, head_sum=head_sum))
    assert lib == brute
    v = isqrt(n)
    free = {t for t in brute if t.min_sum() > v}
    assert set(canonical_triples(n)) == free
    assert triple_count(n) == len(free)


@pytest.mark.parametrize("head_sum", [-3, 0, 1])
def test_head_sums_below_two_have_no_triples(head_sum):
    # a triple's head is a coprime pair of positive denominators, so its sum
    # is at least 2; no such head sum reaches the scan, which reduces n mod A
    assert canonical_triples(41, head_sum=head_sum) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=3000))
def test_head_window_matches_full_scan(n):
    for A in range(1, cashew_ceiling(n) + 1):
        assert canonical_triples(n, head_sum=A) == scan_heads(n, A), (n, A)


def _reflected(t):
    (a0, b0), (a1, b1), (a2, b2) = t.pairs
    return canonical_rotation(FareyTriple(((b0, a0), (b2, a2), (b1, a1))))


def test_canonical_triples_are_closed_under_the_reflection():
    # z ↦ 1 − z̄ normalises Γ₀(n) and maps each triple to its mirror with the
    # same head sum; the boundary cases b1·(A − b0) = A² − n or
    # b0·(A − b1) = A² − n, where only one of the two is canonical as
    # scanned, occur thousands of times on this range
    for n in range(2, 1501):
        for A in range(1, cashew_ceiling(n) + 1):
            found = canonical_triples(n, head_sum=A)
            assert {_reflected(t) for t in found} == set(found), (n, A)


@pytest.mark.parametrize("n", list(range(100000, 100016)) + [1000003])
def test_triple_count_matches_full_scan(n):
    assert triple_count(n) == scan_triple_count(n)


def _blocks(levels, size=32):
    return [levels[i : i + size] for i in range(0, len(levels), size)]


def test_triple_counts_match_the_scan_on_sweep_blocks():
    for block in _blocks(list(range(2, 3001))):
        assert triple_counts(block) == [scan_triple_count(n) for n in block], block[0]


def _per_level(levels, head_sums=_free_head_sums):
    """The flat tuples one batched ``_head_scan`` yields, level by level."""
    out = [[] for _ in levels]
    for i, found in _head_scan(levels, head_sums):
        out[i] += found
    return out


def test_batched_scan_yields_the_single_level_lists():
    blocks = [list(range(100000, 100032)), list(range(100450, 100514))]
    for block in blocks + _blocks(list(range(2, 3001))):
        for n, found in zip(block, _per_level(block)):
            assert found == _per_level([n])[0], n
            for a0, b0, a1, b1, a2, b2 in found:
                t = FareyTriple(((a0, b0), (a1, b1), (a2, b2)))
                assert is_farey_triple(t, n) and t.min_sum() > isqrt(n), (n, t)


@st.composite
def _pairs_and_level(draw):
    """Arbitrary integers, or a completion with all or some of its relations.

    The completion of ``complete_triple`` satisfies all three relations.
    Moving (a2, b2) by t·(b1, −(a1 + b1)) keeps the first two and, for
    t ≠ 0, as a rule breaks the third; a rotation then puts the broken one
    at any place, which a check that dropped or swapped an equation gets
    wrong.
    """
    ints = st.integers(min_value=-(10**6), max_value=10**6)
    a0, b0, a1, b1, a2, b2, n = (draw(ints) for _ in range(7))
    t = None
    if draw(st.booleans()):
        t = draw(st.integers(min_value=-3, max_value=3))
        a2, b2 = a0 + b0 - b1 + t * b1, a1 + b1 - a0 - t * (a1 + b1)
        n = a1 * (a0 + b0) + b1 * b0
    pairs = [(a0, b0), (a1, b1), (a2, b2)]
    r = draw(st.integers(min_value=0, max_value=2))
    return tuple(pairs[r:] + pairs[:r]), n, t == 0


@settings(max_examples=300, deadline=None)
@given(_pairs_and_level())
def test_the_mirror_has_the_same_relations(case):
    # the mirror's relations are the triple's in the order 3, 2, 1, so one
    # check of a head covers the triple and its mirror
    ((a0, b0), (a1, b1), (a2, b2)), n, completed = case
    holds = _relation_holds(((a0, b0), (a1, b1), (a2, b2)), n)
    assert holds == _relation_holds(((b0, a0), (b2, a2), (b1, a1)), n)
    assert holds or not completed


def test_triple_counts_match_the_scan_on_levels_with_gaps():
    primes = [n for n in range(2, 3001) if is_prime(n)]
    assert triple_counts(primes) == [scan_triple_count(n) for n in primes]
    assert triple_counts([]) == []
    with pytest.raises(ValueError):
        triple_counts([5, 1])


def test_triple_counts_across_head_sum_edges():
    # 100489 = 317² moves the least head sum ⌊√n⌋ + 1 up by one inside its
    # block, and at 100467 = 3·183² the head sum 366 meets 3A² = 4n, which
    # the window excludes
    assert 317**2 == 100489 and 3 * 366**2 == 4 * 100467
    for block in (list(range(100450, 100482)), list(range(100482, 100514))):
        expected = [scan_triple_count(n) for n in block]
        assert triple_counts(block) == expected, block[0]
        assert [triple_count(n) for n in block] == expected, block[0]


def test_triple_count_equals_u_minus_phi_on_primes():
    for n in [p for p in range(2, 400) if all(p % d for d in range(2, isqrt(p) + 1))]:
        u = group_invariants(n).u
        assert triple_count(n) == u - totient_summatory(isqrt(n)), n


# --- even levels ---


def test_even_levels_have_no_triples_at_any_head_sum():
    # mod 2 the pairs of a triple at an even level run through the classes
    # (1, 0) → (0, 1) → (1, 1), against a_i + b_i = b_{i+1} + a_{i+2}; the
    # plain scan does not know this, the library skips the level
    for n in range(2, 401, 2):
        A = 2
        while 3 * A * A < 4 * n:
            assert scan_heads(n, A) == [] == canonical_triples(n, head_sum=A), (n, A)
            A += 1


def test_even_levels_have_no_certificates():
    for n in range(2, 3001, 2):
        assert scan_certificates(n) == [] == cashew_certificates(n), n


@st.composite
def _positive_pairs_and_even_level(draw):
    """Positive pairs at any even level, or a completion whose level is even.

    A completion satisfies all three relations, so only the lemma keeps it
    from being a triple.
    """
    ints = st.integers(min_value=1, max_value=60)
    a0, b0, a1, b1, a2, b2 = (draw(ints) for _ in range(6))
    if draw(st.booleans()):
        n = 2 * draw(st.integers(min_value=1, max_value=10**4))
    else:  # b1 < a0 + b0 and a1 + b1 > a0 keep the completion positive
        b1 = draw(st.integers(min_value=1, max_value=a0 + b0 - 1))
        a1 = draw(st.integers(min_value=max(1, a0 - b1 + 1), max_value=60))
        a2, b2 = a0 + b0 - b1, a1 + b1 - a0
        n = a1 * (a0 + b0) + b1 * b0
        assume(n % 2 == 0)
    return FareyTriple(((a0, b0), (a1, b1), (a2, b2))), n


@settings(max_examples=300, deadline=None)
@given(_positive_pairs_and_even_level())
def test_no_triple_at_an_even_level(case):
    t, n = case
    assert not is_farey_triple(t, n)


def test_the_scan_never_asks_for_an_even_level():
    asked = []

    def recorded(n):
        asked.append(n)
        return _free_head_sums(n)

    levels = list(range(100000, 100064))
    out = _per_level(levels, recorded)
    assert asked == levels[1::2]
    for n, found in zip(levels, out):
        assert found == (_per_level([n])[0] if n % 2 else []), n


def test_triple_from_free_side():
    # the two free sides of the hull at level 41 carry the two k(41) triples
    P = polygon_from_cusps(41, farey_sequence(6))
    free = P.free_sides()
    assert len(free) == 6  # two triples, three sides each
    triples = {triple_from_free_side(41, P.side_denominators(i)) for i in free}
    assert triples == set(canonical_triples(41))
    for i in free:
        dens = P.side_denominators(i)
        t = triple_from_free_side(41, dens)
        assert dens in t.pairs or (dens[1], dens[0]) in t.pairs
        assert t.min_sum() > 6


def test_triple_from_free_side_errors():
    with pytest.raises(ValueError):
        triple_from_free_side(41, (2, 4))  # not coprime
    with pytest.raises(ValueError):
        triple_from_free_side(41, (7, 2))  # beyond the hull bound 6
    with pytest.raises(TripleNotApplicable):
        triple_from_free_side(6, (1, 2))  # composite level without a triple


# --- cashew certificates ---


def test_cashew_ceiling():
    assert cashew_ceiling(41) == 7
    assert cashew_ceiling(97) == 11
    assert cashew_ceiling(3) == 2
    for n in range(2, 500):
        assert cashew_ceiling(n) == isqrt(4 * n // 3)


def test_cashew_certificate_fixtures():
    assert cashew_certificate(41) == CashewCertificate(s=5, t=3, a=7, b=2)
    assert cashew_certificate(5) == CashewCertificate(s=2, t=1, a=2, b=1)
    assert cashew_certificates(97) == [
        CashewCertificate(s=7, t=5, a=11, b=4),
        CashewCertificate(s=5, t=7, a=11, b=6),
    ]
    for n in (7, 13, 19, 29, 31, 37):
        assert cashew_certificate(n) is None, n
    with pytest.raises(ValueError):
        cashew_certificates(1)
    with pytest.raises(ValueError):
        cashew_certificate(1)


def test_certificate_window_matches_full_scan():
    levels = list(range(2, 3000)) + random.Random(7).sample(range(3000, 300001), 60)
    for n in levels:
        certs = scan_certificates(n)
        assert cashew_certificates(n) == certs, n
        assert cashew_certificate(n) == (certs[0] if certs else None), n


def test_cashew_certificate_consistency():
    for n in range(2, 400):
        cert = cashew_certificate(n)
        if cert is None:
            continue
        a = cashew_ceiling(n)
        assert cert.a == a
        assert cert.s * cert.a + cert.t * cert.b == n
        t = cert.triple()
        assert is_farey_triple(t, n)
        assert canonical_rotation(t).min_sum() == a


def test_cashew_equivalence_with_triple_enumeration():
    # a certificate exists exactly when some triple attains the ceiling
    for n in range(2, 300):
        attained = any(
            t.min_sum() == cashew_ceiling(n)
            for t in canonical_triples(n, head_sum=cashew_ceiling(n))
        )
        assert (cashew_certificate(n) is not None) == attained, n


# --- the optimal construction ---


@pytest.mark.parametrize("n", [2, 3, 5, 7, 17, 41, 49, 97, 121, 169, 293])
def test_build_optimal_polygon(n):
    P = build_optimal_polygon(n)
    assert is_maximal(P)
    assert P.max_denominator() <= cashew_ceiling(n)
    assert len(P.cusps) - 2 == group_invariants(n).u


def _free_hull_sides(n):
    hull = polygon_from_cusps(n, farey_sequence(isqrt(n)))
    return [hull.side_denominators(i) for i in hull.free_sides()]


def test_k_triples_are_the_free_hull_sides():
    # the builds put their mediants on canonical_triples(n) heads, never
    # looking at the hull's labels: this is the fact that makes that enough
    for n in range(2, 3001):
        if prime_or_prime_square(n):
            members = [pair for t in canonical_triples(n) for pair in t.pairs]
            assert sorted(members) == sorted(_free_hull_sides(n)), n
            assert len(set(members)) == len(members), n


def test_k_triples_are_the_free_hull_sides_besides_the_twin_sides():
    for n in range(15, 5001):
        if twin_factors(n) is None:
            continue
        p, q = twin_factors(n)
        k = (q - p) // 2
        assert isqrt(n) == p + k - 1, n  # the twin build's hull is F*_⌊√n⌋
        special = {(k, p), (p, k)} | {(i, q - i) for i in range(k + 1, p + k)}
        free = _free_hull_sides(n)
        assert special <= set(free), n
        members = [pair for t in canonical_triples(n) for pair in t.pairs]
        assert sorted(members) == sorted(d for d in free if d not in special), n
        assert len(set(members)) == len(members), n


def test_witness_peaks_are_the_heads_of_the_largest_head_sum():
    # what the exact search reads of the witness follows from the triples
    # alone: w from the largest head sum A, and the peak sides from the heads
    # at A wherever A stands above the hull (and above q at a twin level)
    levels = [n for n in range(5, 5001) if prime_or_prime_square(n) or twin_factors(n)]
    assert len(levels) == 748
    for n in levels:
        triples = canonical_triples(n)
        top = max((t.min_sum() for t in triples), default=isqrt(n))
        tw = twin_factors(n)
        floor = max(isqrt(n), tw[1] if tw else 0)
        w, peaks = _witness(n)
        assert w == max(floor, top), n
        if top > floor:
            heads = [t.pairs[0] for t in triples if t.min_sum() == top]
            assert sorted(peaks) == sorted(heads), n


def _top_and_peaks(P):
    """(largest denominator, the sides under its cusps) of a built polygon."""
    c, w = P.cusps, P.max_denominator()
    return w, [(c[i - 1].den, c[i + 1].den) for i in range(1, len(c) - 1) if c[i].den == w]


def test_witness_reads_the_public_builders_polygon():
    # _witness reads the checked boundary the builders hand over, without a
    # polygon: it must give what the public builder's polygon shows
    for n in range(2, 3001):
        if prime_or_prime_square(n):
            assert _witness(n) == _top_and_peaks(build_optimal_polygon(n)), n
        elif (tw := twin_factors(n)) is not None:
            assert _witness(n) == _top_and_peaks(build_twin_polygon(*tw)), n
        elif n <= 300:
            assert _witness(n) == _top_and_peaks(grow_maximal(n, "smallest-mediant")), n


@pytest.mark.parametrize(
    "build,args",
    [
        pytest.param(build_optimal_polygon, (n,), id=f"optimal-{n}")
        for n in (2, 41, 49, 1009, 7741)
    ]
    + [
        pytest.param(build_twin_polygon, (p, q), id=f"twin-{p}-{q}")
        for p, q in ((3, 5), (3, 7), (11, 13), (71, 73))
    ],
)
def test_builds_classify_once(monkeypatch, build, args):
    calls = []
    classify_all = gamma0.polygon._classify_all

    def counted(n, cusps):
        calls.append(n)
        return classify_all(n, cusps)

    monkeypatch.setattr(gamma0.polygon, "_classify_all", counted)
    build(*args)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "build,args", [(build_optimal_polygon, (7741,)), (build_twin_polygon, (11, 13))]
)
def test_builds_evaluate_the_invariants_once(monkeypatch, build, args):
    calls = []
    invariants_of = gamma0.invariants.group_invariants

    def counted(n):
        calls.append(n)
        return invariants_of(n)

    monkeypatch.setattr(gamma0.invariants, "group_invariants", counted)
    monkeypatch.setattr(gamma0.polygon, "group_invariants", counted)
    build(*args)
    assert len(calls) == 1


def test_optimal_build_matches_sorted_reference():
    # mediants on the k(n) heads, put in by one walk, give the reference's
    # sorted, reclassified polygon built from the hull's free sides
    for n in range(2, 3001):
        if prime_or_prime_square(n):
            assert build_optimal_polygon(n) == sorted_optimal_polygon(n), n


def test_build_optimal_polygon_rejects_general_levels():
    with pytest.raises(ValueError):
        build_optimal_polygon(8)
    with pytest.raises(ValueError):
        build_optimal_polygon(15)


# --- the twin construction ---


def test_twin_eligible():
    assert twin_eligible(11, 13)
    assert twin_eligible(3, 5)
    assert twin_eligible(3, 7)
    assert not twin_eligible(3, 11)
    assert not twin_eligible(2, 3)  # even prime excluded
    assert not twin_eligible(13, 11)  # order matters
    assert not twin_eligible(9, 11)  # 9 is not prime
    assert not twin_eligible(0, 5)  # p·q < 1 must not reach factorize
    assert not twin_eligible(-3, 5)
    assert not twin_eligible(1, 3)
    for p in range(200):
        for q in range(200):
            expected = 2 < p < q and is_prime(p) and is_prime(q) and (q - p - 2) ** 2 < 8 * p
            assert twin_eligible(p, q) == expected, (p, q)


@pytest.mark.parametrize("p,q", [(3, 5), (5, 7), (11, 13), (17, 19)])
def test_build_twin_polygon(p, q):
    P = build_twin_polygon(p, q)
    n = p * q
    assert P.n == n
    assert is_maximal(P)
    assert P.max_denominator() <= max(cashew_ceiling(n), q)
    assert len(P.cusps) - 2 == group_invariants(n).u


def test_twin_build_matches_sorted_reference():
    levels = [n for n in range(15, 5001) if twin_factors(n) is not None]
    assert len(levels) > 40
    for n in levels:
        p, q = twin_factors(n)
        assert build_twin_polygon(p, q) == sorted_twin_polygon(p, q), n


def test_build_twin_polygon_rejects_bad_pairs():
    with pytest.raises(ValueError):
        build_twin_polygon(3, 11)
    with pytest.raises(ValueError):
        build_twin_polygon(2, 3)
