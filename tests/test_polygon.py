"""Labeled polygons: classification, growth to maximality, side pairings."""

import hashlib
import json
import os
import subprocess
import sys
from math import isqrt

import pytest

import gamma0
import gamma0.polygon as polygon_module
from gamma0.farey import INF, ONE, ZERO, Frac, farey_sequence, mediant
from gamma0.invariants import _key_function, group_invariants, prime_or_prime_square, twin_factors
from gamma0.polygon import (
    EVEN,
    FREE,
    GROWTH_STRATEGIES,
    ODD,
    VERTICAL,
    LabeledPolygon,
    attach_triangle,
    base_polygon,
    classify_side,
    grow_maximal,
    is_maximal,
    polygon_from_cusps,
    polygon_from_json,
    side_pairing_system,
)
from gamma0.generators import independent_system, verify_system
from gamma0.psl2 import act, in_gamma0, inverse
from gamma0.triples import build_optimal_polygon, build_twin_polygon
from polygon_reference import reference_partners, transport_side_pairing


# --- construction and validation ---


def test_polygon_validation():
    with pytest.raises(ValueError):
        LabeledPolygon(1, (INF, ZERO, ONE), (1, -2, 1))  # level too small
    with pytest.raises(ValueError):
        LabeledPolygon(2, (ZERO, ONE), (1, 1))  # must start at infinity
    with pytest.raises(ValueError):
        LabeledPolygon(2, (INF, ZERO, ONE), (1, -2))  # label count
    with pytest.raises(ValueError):
        LabeledPolygon(2, (INF, ZERO, ONE), (-2, -2, 1))  # vertical labels
    with pytest.raises(ValueError):
        # 1/4, 1/2 is not a Farey pair
        LabeledPolygon(2, (INF, ZERO, Frac(1, 4), Frac(1, 2), ONE), (1, -2, -2, -2, 1))
    with pytest.raises(ValueError):
        # decreasing cusps
        LabeledPolygon(2, (INF, ZERO, Frac(1, 2), Frac(1, 3), ONE), (1, -2, -2, -2, 1))


@pytest.mark.parametrize(
    "cusps,labels",
    [
        (["1/0", "0/1", "1/1"], [1, 2, 1]),  # a pair index occurring once
        (["1/0", "0/1", "1/1"], [1, 0, 1]),
        (["1/0", "0/1", "1/1"], [1, 7, 1]),
        (["1/0", "0/1", "1/1"], [1, 1, 1]),  # label 1 on an interior side
        (["1/0", "0/1", "1/1"], [1, -1, 1]),
        (["1/0", "0/1", "1/1"], [1, -5, 1]),
        (["1/0", "0/1", "1/2", "1/1"], [1, 2, 3, 1]),
        (["1/0", "0/1", "1/2", "1/1"], [1, 1, -2, 1]),
        (["1/0", "0/1", "1/3", "1/2", "1/1"], [1, 2, 2, 2, 1]),  # three times
    ],
)
def test_polygon_rejects_malformed_pair_labels(cusps, labels):
    # accepted, these labels would break partner lookups and side pairings later
    with pytest.raises(ValueError):
        polygon_from_json({"n": 5, "cusps": cusps, "labels": labels})


@pytest.mark.parametrize(
    "data,field",
    [
        ({"n": 5, "cusps": ["1/0", "0/1", "1/1"]}, "labels"),
        ({"n": 5, "cusps": ["1/0", "0/1", "1/1"], "labels": 7}, "labels"),
        ([5, ["1/0", "0/1", "1/1"], [1, -4, 1]], "n"),
        ({"n": None, "cusps": ["1/0", "0/1", "1/1"], "labels": [1, -4, 1]}, "n"),
        # a level or label that is not a JSON integer is refused, not truncated
        ({"n": 5.5, "cusps": ["1/0", "0/1", "1/1"], "labels": [1, -4, 1]}, "n"),
        ({"n": 5.0, "cusps": ["1/0", "0/1", "1/1"], "labels": [1, -4, 1]}, "n"),
        ({"n": "5", "cusps": ["1/0", "0/1", "1/1"], "labels": [1, -4, 1]}, "n"),
        ({"n": True, "cusps": ["1/0", "0/1", "1/1"], "labels": [1, -4, 1]}, "n"),
        ({"n": 5, "cusps": ["1/0", "0/1", "1/1"], "labels": [1.9, -4, 1]}, "labels"),
        ({"n": 5, "cusps": ["1/0", "0/1", "1/1"], "labels": [1, -4.0, 1]}, "labels"),
        ({"n": 5, "cusps": ["1/0", "0/1", "1/1"], "labels": [1, "-4", 1]}, "labels"),
        ({"n": 5, "cusps": ["1/0", "0/1", "1/1"], "labels": [True, -4, 1]}, "labels"),
    ],
)
def test_polygon_from_json_names_the_malformed_field(data, field):
    with pytest.raises(ValueError, match=f"polygon field '{field}'"):
        polygon_from_json(data)


_MISLABELLED = [
    # the side from 0 to 1 is free at level 7, not even
    (7, (INF, ZERO, ONE), (1, -2, 1), "side 1 has label -2, but the cusps make it free"),
    # grow_maximal(8) glues sides 1, 2 and sides 3, 4: a swapped pairing
    (8, grow_maximal(8).cusps, (1, 2, 3, 3, 2, 1), "side 2 has label 3, but the cusps make it glued to side 1"),
    (8, grow_maximal(8).cusps, (1, -4, -4, -4, -4, 1), "side 1 has label -4, but the cusps make it glued to side 2"),
]


@pytest.mark.parametrize("n,cusps,labels,message", _MISLABELLED)
def test_polygon_rejects_labels_that_contradict_the_cusps(n, cusps, labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LabeledPolygon(n, cusps, labels)
    data = {"n": n, "cusps": [str(c) for c in cusps], "labels": list(labels)}
    with pytest.raises(ValueError, match=f"^{message}$"):
        polygon_from_json(data)


def test_label_errors_name_one_side_only():
    # a polygon may have 10⁵ sides: the message names the first that differs
    P = grow_maximal(1950)
    labels = list(P.labels)
    labels[-2] = EVEN if labels[-2] != EVEN else ODD
    with pytest.raises(ValueError) as info:
        LabeledPolygon(P.n, P.cusps, tuple(labels))
    assert str(info.value).startswith(f"side {len(P) - 2} has label ")
    assert len(str(info.value)) < 80
    with pytest.raises(ValueError, match="^need exactly one label per side: 3 sides, 2 labels$"):
        LabeledPolygon(2, (INF, ZERO, ONE), (1, -2))


def test_polygon_keeps_tuples_of_the_callers_lists():
    P = grow_maximal(8)
    labels = list(P.labels)
    Q = LabeledPolygon(8, list(P.cusps), labels)
    assert type(Q.cusps) is tuple and type(Q.labels) is tuple
    assert Q == P and hash(Q) == hash(P)
    labels[1] = EVEN  # the caller's list may change; the checked polygon may not
    assert Q.labels == P.labels
    assert verify_system(independent_system(Q)).ok


def test_pair_indices_may_come_in_any_order():
    P = grow_maximal(8)
    assert P.labels == (1, 2, 2, 3, 3, 1)
    Q = LabeledPolygon(8, P.cusps, (1, 9, 9, 2, 2, 1))
    assert [Q.partner(i) for i in range(len(Q))] == [P.partner(i) for i in range(len(P))]
    assert side_pairing_system(Q) == side_pairing_system(P)


@pytest.mark.parametrize("n", [4, 6, 12])
def test_polygon_from_cusps_rejects_non_farey_cusps(n):
    # 1/2, 3/4 share the factor 2 of n in their denominators: the cusp
    # check must name the fault before any side is classified
    with pytest.raises(ValueError, match="Farey pair"):
        polygon_from_cusps(n, (INF, ZERO, Frac(1, 2), Frac(3, 4), ONE))


@pytest.mark.parametrize(
    "cusps", [("1/0", "0/1", "1/1"), (INF, ZERO, "1/2", ONE), (INF, ZERO, ONE, 5)], ids=["text", "middle", "end"]
)
def test_polygon_from_cusps_rejects_cusps_that_are_not_fractions(cusps):
    with pytest.raises(ValueError, match="cusps must"):
        polygon_from_cusps(5, cusps)
    with pytest.raises(ValueError, match="cusps must"):
        LabeledPolygon(5, cusps, (1,) * len(cusps))


def test_polygon_from_cusps_checks_the_cusps_once(monkeypatch):
    calls = []
    check = polygon_module._check_cusps
    monkeypatch.setattr(polygon_module, "_check_cusps", lambda c: calls.append(c) or check(c))
    cusps = tuple(farey_sequence(6))
    P = polygon_from_cusps(41, cusps)
    assert calls == [cusps]
    Q = LabeledPolygon(41, P.cusps, P.labels)  # the constructor still checks
    assert len(calls) == 2
    assert Q == P and Q._mates == P._mates
    with pytest.raises(ValueError, match="level must be at least 2"):
        polygon_from_cusps(1, cusps)


def _attach_chain(n, steps):
    P = base_polygon(n)
    yield P
    for _ in range(steps):
        if is_maximal(P):
            return
        P = attach_triangle(P, P.free_sides()[-1])
        yield P


_CLASSIFIED_POLYGONS = {
    "optimal": lambda: (build_optimal_polygon(n) for n in range(2, 3001) if prime_or_prime_square(n)),
    "twin": lambda: (build_twin_polygon(*tw) for n in range(2, 3001) if (tw := twin_factors(n))),
    "growth": lambda: (grow_maximal(n, s) for n in range(2, 301) for s in GROWTH_STRATEGIES),
    "base": lambda: (base_polygon(n) for n in range(2, 301)),
    "attach": lambda: (P for n in (41, 60, 97, 144) for P in _attach_chain(n, 40)),
}


@pytest.mark.parametrize("family", _CLASSIFIED_POLYGONS)
def test_classified_polygons_keep_the_partner_table_of_their_labels(family):
    # the table kept from the gluing pass is the one the labels describe,
    # and the one a polygon read back from its JSON checks them against
    count = 0
    for P in _CLASSIFIED_POLYGONS[family]():
        assert P._mates == reference_partners(P.labels), (family, P.n)
        assert polygon_from_json(P.to_json())._mates == P._mates, (family, P.n)
        count += 1
    assert count > 20


def test_base_polygon_small_levels():
    assert base_polygon(2).labels == (VERTICAL, EVEN, VERTICAL)
    assert base_polygon(3).labels == (VERTICAL, ODD, VERTICAL)
    assert base_polygon(5).labels == (VERTICAL, FREE, VERTICAL)
    P = base_polygon(5)
    assert P.denominator_sequence() == [0, 1, 1]
    assert P.free_sides() == [1]
    assert not is_maximal(P)


def test_side_accessors():
    P = base_polygon(8)
    assert P.side(0) == (INF, ZERO)
    assert P.side(1) == (ZERO, ONE)
    assert P.side(2) == (ONE, INF)  # wraps
    assert P.side_denominators(1) == (1, 1)
    assert P.side_denominators() == [(1, 1)]
    assert len(P) == 3
    assert P.max_denominator() == 1


# --- side classification ---


def test_classify_side_worked_examples():
    # level 8: the side (1,4) glues onto (4,3) since 1*4 + 4*3 = 16
    sides8 = [(1, 4), (4, 3), (3, 2), (2, 1)]
    assert classify_side(8, (1, 4), sides8) == ("paired", (4, 3))
    assert classify_side(8, (3, 2), sides8) == ("paired", (2, 1))
    # level 7: 4 + 2 + 1 = 7 makes (2,1) odd
    assert classify_side(7, (2, 1), [(1, 2), (2, 1)]) == ("odd", None)
    # level 2: 1 + 1 = 2 makes (1,1) even
    assert classify_side(2, (1, 1), [(1, 1)]) == ("even", None)
    assert classify_side(5, (1, 2), [(1, 2), (2, 1)]) == ("even", None)
    # nothing matches: stays free
    assert classify_side(8, (1, 1), [(1, 1), (4, 3)]) == ("free", None)


def test_classify_side_skips_itself():
    # (3,5) at n=34: 3*3+5*5 = 34 is even, checked before any pairing
    assert classify_side(34, (3, 5), [(3, 5)]) == ("even", None)
    # (1,3) at n=10: 1*1+3*3 = 10 even; without the even rule it would
    # "pair with itself", which classify_side must never report
    assert classify_side(10, (1, 3), [(1, 3)]) == ("even", None)


def test_classify_precedence_even_before_odd_before_paired():
    # at n=2 every pair of odd denominators satisfies the pairing congruence,
    # but (1,1) is even and must be reported as such
    got = classify_side(2, (1, 1), [(1, 1), (1, 1)])
    assert got == ("even", None)


# --- attaching triangles ---


def test_attach_triangle_examples():
    P = base_polygon(5)
    Q = attach_triangle(P, 1)
    assert Q.denominator_sequence() == [0, 1, 2, 1]
    assert Q.labels == (VERTICAL, EVEN, EVEN, VERTICAL)
    assert is_maximal(Q)

    # level 8: attaching at (0, 1/3) completes the example polygon
    hull = polygon_from_cusps(8, (INF, ZERO, Frac(1, 3), Frac(1, 2), ONE))
    free = hull.free_sides()
    assert [hull.side_denominators(i) for i in free] == [(1, 3)]
    Q = attach_triangle(hull, free[0])
    assert Q.denominator_sequence() == [0, 1, 4, 3, 2, 1]
    assert Q.labels == (1, 2, 2, 3, 3, 1)


def test_attach_triangle_rejects_glued_sides():
    P = base_polygon(2)
    with pytest.raises(ValueError):
        attach_triangle(P, 1)


# --- growth to maximal polygons ---


def test_growth_fixtures_small_levels():
    # levels 2..7 grow to the same polygon whatever the strategy
    want = {
        2: ([0, 1, 1], (1, -2, 1)),
        3: ([0, 1, 1], (1, -3, 1)),
        5: ([0, 1, 2, 1], (1, -2, -2, 1)),
        7: ([0, 1, 2, 1], (1, -3, -3, 1)),
    }
    for n, (dens, labels) in want.items():
        for strategy in GROWTH_STRATEGIES:
            P = grow_maximal(n, strategy)
            assert P.denominator_sequence() == dens, (n, strategy)
            assert P.labels == labels, (n, strategy)


def test_growth_fixtures_level8_depends_on_strategy():
    P = grow_maximal(8, "leftmost")
    assert P.denominator_sequence() == [0, 1, 4, 3, 2, 1]
    assert P.labels == (1, 2, 2, 3, 3, 1)
    Q = grow_maximal(8, "smallest-mediant")
    assert Q.denominator_sequence() == [0, 1, 2, 3, 4, 1]
    assert Q.labels == (1, 2, 2, 3, 3, 1)


def test_growth_level17_smallest_mediant_is_the_farey_hull():
    # the polygon on F*_4 with two even sides and two glued pairs
    Q = grow_maximal(17, "smallest-mediant")
    assert Q.cusps == tuple(farey_sequence(4))
    assert Q.labels == (1, -2, 2, 3, 2, 3, -2, 1)


def test_grow_maximal_validates_arguments():
    with pytest.raises(ValueError):
        grow_maximal(1)
    with pytest.raises(ValueError):
        grow_maximal(10, "rightmost")


@pytest.mark.parametrize("n", [2, 6, 11, 12, 25, 36, 49, 91, 97, 144])
def test_growth_strategies_agree_on_triangle_count(n):
    sizes = {len(grow_maximal(n, s)) for s in GROWTH_STRATEGIES}
    assert len(sizes) == 1


def test_growth_outputs_match_their_recorded_digest():
    # sha256 of every grown polygon for n = 2..300 under both strategies; the
    # fixtures above pin only a few small levels
    h = hashlib.sha256()
    for n in range(2, 301):
        for strategy in GROWTH_STRATEGIES:
            P = grow_maximal(n, strategy)
            h.update(json.dumps([n, strategy, [str(c) for c in P.cusps], list(P.labels)]).encode())
    assert h.hexdigest() == "f7099d07a80de45344bd047bf5cebf10b708f614f711b29caa477b0370266078"


# sha256 of the JSON of the polygons grown under both strategies at every
# level in [4, 600] that is neither a prime nor a prime square (481 levels),
# and by leftmost growth at 1950 and 9240, whose denominators reach 139 and
# 706 digits
GROWN_POLYGON_DIGEST = "58b80ea37b8e40fa7cacb30571f7276ec9f5d210d027b70eff31a380204de85e"


def test_grown_polygons_match_their_recorded_digest():
    h = hashlib.sha256()
    levels = [n for n in range(4, 601) if not prime_or_prime_square(n)]
    assert len(levels) == 481
    for n in levels:
        for strategy in GROWTH_STRATEGIES:
            h.update(json.dumps(grow_maximal(n, strategy).to_json()).encode())
    for n in (1950, 9240):
        h.update(json.dumps(grow_maximal(n).to_json()).encode())
    assert h.hexdigest() == GROWN_POLYGON_DIGEST


@pytest.mark.parametrize("strategy", GROWTH_STRATEGIES)
@pytest.mark.parametrize("n", [2, 8, 17, 60, 144])
def test_growth_classifies_once(monkeypatch, strategy, n):
    calls = []
    classify_all = polygon_module._classify_all

    def counted(n, cusps):
        calls.append(n)
        return classify_all(n, cusps)

    monkeypatch.setattr(polygon_module, "_classify_all", counted)
    grow_maximal(n, strategy)
    assert len(calls) == 1


def _sides_share_no_pairing_key(P):
    key = _key_function(P.n)
    keys = [key(a, b) for a, b in P.side_denominators()]
    return len(set(keys)) == len(keys)


def test_no_two_sides_of_a_maximal_polygon_share_a_pairing_key():
    # H² → H²/Γ₀(n) is injective on the interior of a legal polygon, so no
    # two of its sides lie in one orbit of oriented edges, i.e. share a
    # P¹(Z/nZ) point; growth keeps one open side per key on the strength of this
    for n in range(2, 401):
        for strategy in GROWTH_STRATEGIES:
            assert _sides_share_no_pairing_key(grow_maximal(n, strategy)), (n, strategy)
        if prime_or_prime_square(n):
            assert _sides_share_no_pairing_key(build_optimal_polygon(n)), n
        if (tw := twin_factors(n)) is not None:
            assert _sides_share_no_pairing_key(build_twin_polygon(*tw)), n


def test_growth_refuses_a_repeated_open_key(monkeypatch):
    # a key under which no side ever finds a partner: the second open side
    # would overwrite the first, and growth must say so instead
    monkeypatch.setattr(polygon_module, "_key_function", lambda n: lambda a, b: int(a > 0))
    with pytest.raises(RuntimeError, match="share a pairing key"):
        grow_maximal(11)


@pytest.mark.parametrize("n", [144, 1024])
def test_reclassifying_grown_cusps_reproduces_the_polygon(n):
    # leftmost growth at these levels reaches denominators past 2**31
    P = grow_maximal(n)
    assert P.max_denominator() >= 2**31
    assert polygon_from_cusps(n, P.cusps) == P


_OPTIMAL_UNDER_1GIB = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from gamma0.polygon import is_maximal
from gamma0.triples import build_optimal_polygon
P = build_optimal_polygon(99991)
print(is_maximal(P), len(P.cusps), P.max_denominator())
"""


def test_optimal_polygon_memory_grows_with_the_answer():
    # A k x k pairing table at n = 99991 (k = 33330) needs gigabytes; the
    # build runs in a child process capped at 1 GiB of address space, so a
    # regression fails there with MemoryError instead of straining the host.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(gamma0.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _OPTIMAL_UNDER_1GIB],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    maximal, cusps, max_den = proc.stdout.split()
    assert maximal == "True"
    assert int(cusps) == group_invariants(99991).u + 2
    assert int(max_den) <= isqrt(4 * 99991 // 3) == 365


def test_partner_lookup():
    P = grow_maximal(8)
    assert P.partner(1) == 2 and P.partner(2) == 1
    assert P.partner(3) == 4 and P.partner(4) == 3
    assert P.partner(0) == len(P) - 1
    assert P.partner(len(P) - 1) == 0
    Q = base_polygon(5)
    with pytest.raises(ValueError):
        Q.partner(1)


# --- side pairing systems ---


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 17, 24, 45, 101])
def test_side_pairing_transports_sides(n):
    P = grow_maximal(n)
    system = side_pairing_system(P)
    assert len(system) == len(P.labels)
    by_source = {i: (j, g) for i, j, g in system}
    for i, j, g in system:
        assert in_gamma0(g, n)
        p1, p2 = P.side(i)
        q1, q2 = P.side(j)
        if P.labels[i] == ODD:
            # order-3 rotation of the exterior triangle: p1 -> mediant -> p2
            assert j == i
            mid = mediant(p1, p2)
            assert act(g, p1) == mid and act(g, mid) == p2 and act(g, p2) == p1
            continue
        # even, paired, and vertical sides land on the target reversed
        assert act(g, p1) == q2 and act(g, p2) == q1
        jj, gg = by_source[j]
        if P.labels[i] == EVEN:
            assert j == i
        else:
            assert jj == i and gg == inverse(g)


def _assert_pairing_matches_reference(P):
    assert side_pairing_system(P) == transport_side_pairing(P), P.n


@pytest.mark.parametrize("strategy", GROWTH_STRATEGIES)
def test_side_pairing_matches_edge_transports_on_grown_polygons(strategy):
    for n in range(2, 301):
        _assert_pairing_matches_reference(grow_maximal(n, strategy))


def test_side_pairing_matches_edge_transports_on_optimal_polygons():
    for n in range(2, 3001):
        if prime_or_prime_square(n):
            _assert_pairing_matches_reference(build_optimal_polygon(n))


def test_side_pairing_matches_edge_transports_on_twin_polygons():
    levels = [n for n in range(15, 5001) if twin_factors(n) is not None]
    assert len(levels) > 40
    for n in levels:
        _assert_pairing_matches_reference(build_twin_polygon(*twin_factors(n)))


def test_side_pairing_requires_maximal():
    with pytest.raises(ValueError):
        side_pairing_system(base_polygon(5))


# --- serialization ---


@pytest.mark.parametrize("n", [2, 8, 17, 60])
def test_json_roundtrip(n):
    P = grow_maximal(n)
    data = P.to_json()
    Q = polygon_from_json(data)
    assert Q == P
    assert data["n"] == n
    assert all(isinstance(s, str) for s in data["cusps"])
