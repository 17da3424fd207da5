"""Labeled polygons: classification, growth to maximality, side pairings."""

import os
import subprocess
import sys
from math import isqrt

import pytest

import gamma0
from gamma0.farey import INF, ONE, ZERO, Frac, farey_sequence, mediant
from gamma0.invariants import group_invariants
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
from gamma0.psl2 import act, in_gamma0, inverse


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


@pytest.mark.parametrize("n", [4, 6, 12])
def test_polygon_from_cusps_rejects_non_farey_cusps(n):
    # 1/2, 3/4 share the factor 2 of n in their denominators: the cusp
    # check must name the fault before any side is classified
    with pytest.raises(ValueError, match="Farey pair"):
        polygon_from_cusps(n, (INF, ZERO, Frac(1, 2), Frac(3, 4), ONE))


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
