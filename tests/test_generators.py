"""Independent generating systems and their verification."""

import dataclasses
import os
import pickle
import subprocess
from sys import executable, modules

import pytest

import gamma0
from gamma0.cli import main
from gamma0.farey import Frac
from gamma0.generators import (
    GeneratingSystem,
    Generator,
    cusp_class_count,
    independent_system,
    verify_system,
)
from gamma0.invariants import group_invariants, prime_or_prime_square, twin_factors
from gamma0.polygon import (
    EVEN,
    GROWTH_STRATEGIES,
    ODD,
    LabeledPolygon,
    base_polygon,
    grow_maximal,
    is_maximal,
    polygon_from_cusps,
    polygon_from_json,
    side_pairing_system,
)
from gamma0.psl2 import Mat, S, T, inverse
from gamma0.triples import build_optimal_polygon, build_twin_polygon


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 17, 24, 45, 91, 101, 143])
def test_independent_system_counts(n):
    sys = independent_system(grow_maximal(n))
    inv = group_invariants(n)
    got = sys.counts()
    assert got["order2"] == inv.v2
    assert got["order3"] == inv.v3
    assert got["infinite"] == 2 * inv.genus + inv.v_inf - 1
    rep = verify_system(sys)
    assert rep.ok, rep.failures


def test_independent_system_needs_maximal_polygon():
    with pytest.raises(ValueError):
        independent_system(base_polygon(5))


# glued all round, so maximal, but with more than u(n) triangles
_OVERSIZED = [
    (2, ["1/0", "0/1", "1/2", "1/1"], 2, 1),
    (4, ["1/0", "0/1", "1/2", "2/3", "3/4", "1/1"], 4, 2),
    (5, ["1/0", "0/1", "1/2", "3/5", "2/3", "1/1"], 4, 2),
]


@pytest.mark.parametrize("n,cusps,triangles,u", _OVERSIZED)
def test_independent_system_refuses_more_than_u_triangles(n, cusps, triangles, u):
    P = polygon_from_cusps(n, map(Frac.parse, cusps))
    assert is_maximal(P) and group_invariants(n).u == u
    for Q in (P, LabeledPolygon(n, P.cusps, P.labels), polygon_from_json(P.to_json())):
        with pytest.raises(ValueError) as info:
            independent_system(Q)
        assert str(info.value) == f"polygon has {triangles} triangles, but Gamma0({n}) needs u(n) = {u}"


_OVERSIZED_AT_2 = """
from gamma0.farey import Frac
from gamma0.generators import independent_system
from gamma0.polygon import polygon_from_cusps
try:
    independent_system(polygon_from_cusps(2, map(Frac.parse, ["1/0", "0/1", "1/2", "1/1"])))
except ValueError as exc:
    print(exc)
"""


def test_oversized_polygon_check_runs_under_python_dash_O():
    # python -O strips asserts; at n = 2 the system would otherwise be two
    # infinite-order generators where Gamma0(2) has one of order 2
    src = os.path.dirname(os.path.dirname(gamma0.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [executable, "-O", "-c", _OVERSIZED_AT_2], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "polygon has 2 triangles, but Gamma0(2) needs u(n) = 1\n"


def test_small_systems_verbatim():
    # level 2: the translation plus one order-2 flip
    sys2 = independent_system(grow_maximal(2))
    assert len(sys2.generators) == 2
    kinds = sorted(g.kind for g in sys2.generators)
    assert kinds == ["even", "translation"]
    # level 3: the translation plus one order-3 rotation
    sys3 = independent_system(grow_maximal(3))
    assert sorted(g.kind for g in sys3.generators) == ["odd", "translation"]


@pytest.mark.parametrize("n", [5, 17, 41, 49, 121, 139])
def test_optimal_polygons_have_entry_n(n):
    sys = independent_system(build_optimal_polygon(n))
    rep = verify_system(sys, expect_entry=n)
    assert rep.ok, rep.failures
    assert all(c == n for c in rep.entries)


def test_grown_polygons_can_exceed_entry_n():
    # the growth strategies do not minimize entries, so pinning them fails
    sys = independent_system(grow_maximal(17))
    rep = verify_system(sys, expect_entry=17)
    assert not rep.ok
    assert any("differ" in f for f in rep.failures)


@pytest.mark.parametrize("p,q", [(11, 13), (17, 19)])
def test_twin_polygons_split_entries(p, q):
    n = p * q
    sys = independent_system(build_twin_polygon(p, q))
    rep = verify_system(sys, twin=(p, q))
    assert rep.ok, rep.failures
    assert sorted(set(rep.entries)) == [n, 2 * n]
    assert sum(1 for c in rep.entries if c == 2 * n) == q - p


def test_verify_checks_the_strict_twin_split():
    twin = independent_system(build_twin_polygon(11, 13))
    assert verify_system(twin, twin=(11, 13)).ok
    grown = independent_system(grow_maximal(143))
    assert verify_system(grown).ok
    rep = verify_system(grown, twin=(11, 13))
    assert not rep.ok
    assert any("outside {143, 286}" in f for f in rep.failures)
    # q > 2p: the documented 3n entries are still reported
    rep = verify_system(independent_system(build_twin_polygon(3, 7)), twin=(3, 7))
    assert any("[63] outside" in f for f in rep.failures)


def assert_system_is_the_kept_pairing(P):
    # T, then the side_pairing_system entries of every even and odd side and
    # of the left member of every glued pair
    kinds = {EVEN: "even", ODD: "odd"}
    want = [(0, len(P) - 1, T, "translation")] + [
        (i, j, g, kinds.get(P.labels[i], "paired"))
        for i, j, g in side_pairing_system(P)[1:-1]
        if j >= i
    ]
    got = [(g.source, g.target, g.matrix, g.kind) for g in independent_system(P).generators]
    assert got == want, P.n


def test_independent_system_keeps_pairing_entries_of_optimal_and_twin_polygons():
    for n in range(2, 2001):
        if prime_or_prime_square(n):
            assert_system_is_the_kept_pairing(build_optimal_polygon(n))
        elif (tw := twin_factors(n)) is not None:
            assert_system_is_the_kept_pairing(build_twin_polygon(*tw))


@pytest.mark.parametrize("strategy", GROWTH_STRATEGIES)
def test_independent_system_keeps_pairing_entries_of_grown_polygons(strategy):
    for n in range(2, 301):
        assert_system_is_the_kept_pairing(grow_maximal(n, strategy))


def test_generators_never_build_the_full_pairing_system(monkeypatch, capsys):
    # independent_system transports only the sides it keeps
    def refuse(P):
        raise AssertionError("side_pairing_system was called")

    for module in [m for name, m in modules.items() if name.split(".")[0] == "gamma0"]:
        for attr, value in list(vars(module).items()):
            if value is side_pairing_system:
                monkeypatch.setattr(module, attr, refuse)
    assert main(["generators", "4483", "--verify", "--json"]) == 0
    assert capsys.readouterr().out.endswith("verify: ok (749 generators)\n")


def test_verify_flags_missing_translation():
    sys = independent_system(grow_maximal(17))
    broken = GeneratingSystem(17, tuple(g for g in sys.generators if g.matrix != T))
    rep = verify_system(broken)
    assert not rep.ok
    assert any("missing" in f for f in rep.failures)


def test_verify_flags_foreign_matrix():
    sys = independent_system(grow_maximal(17))
    alien = Generator(S, "even", 2, 1, 1)
    rep = verify_system(GeneratingSystem(17, sys.generators + (alien,)))
    assert not rep.ok
    assert any("Gamma0" in f for f in rep.failures)


def test_verify_flags_mutual_inverses():
    sys = independent_system(grow_maximal(17))
    paired = next(g for g in sys.generators if g.kind == "paired")
    doubled = Generator(inverse(paired.matrix), "paired", None, paired.target, paired.source)
    rep = verify_system(GeneratingSystem(17, sys.generators + (doubled,)))
    assert not rep.ok
    assert any("inverse" in f for f in rep.failures)


def test_verify_flags_a_duplicated_inverse_pair():
    sys = independent_system(grow_maximal(17))
    i, paired = next((i, g) for i, g in enumerate(sys.generators) if g.kind == "paired")
    inv = Generator(inverse(paired.matrix), "paired", None, paired.target, paired.source)
    t_inv = Generator(inverse(T), "translation", None, 0, 0)  # c = 0: the other sign rule
    L = len(sys.generators)
    rep = verify_system(GeneratingSystem(17, sys.generators + (inv, inv, t_inv)))
    assert not rep.ok
    assert [f for f in rep.failures if "inverse" in f] == [
        f"generators {i} and {L} are mutually inverse",
        f"generators {i} and {L + 1} are mutually inverse",
        f"generators 0 and {L + 2} are mutually inverse",
    ]


def test_verify_flags_wrong_kind():
    sys = independent_system(grow_maximal(17))
    relabeled = tuple(
        Generator(g.matrix, "even" if g.kind == "paired" else g.kind, g.order, g.source, g.target)
        for g in sys.generators
    )
    rep = verify_system(GeneratingSystem(17, relabeled))
    assert not rep.ok


@pytest.mark.parametrize("n", list(range(2, 60)) + [97, 120, 143])
def test_cusp_classes_equal_v_inf(n):
    P = grow_maximal(n)
    assert cusp_class_count(P) == group_invariants(n).v_inf


def test_cusp_classes_of_a_large_optimal_polygon():
    assert cusp_class_count(build_optimal_polygon(19997)) == group_invariants(19997).v_inf


def test_generator_keeps_the_frozen_dataclass_contract():
    # the hand-written constructor fills the instance dict once; a Generator
    # stays a frozen dataclass on its five fields
    g = Generator(Mat(-3, 2, -5, 3), "paired", None, 4, 7)
    assert [f.name for f in dataclasses.fields(Generator)] == ["matrix", "kind", "order", "source", "target"]
    assert vars(g) == {"matrix": Mat(3, -2, 5, -3), "kind": "paired", "order": None, "source": 4, "target": 7}
    assert repr(g) == "Generator(matrix=Mat(a=3, b=-2, c=5, d=-3), kind='paired', order=None, source=4, target=7)"
    twin = Generator(Mat(3, -2, 5, -3), "paired", None, 4, 7)
    assert g == twin and g != Generator(T, "paired", None, 4, 7) and g != dataclasses.replace(g, target=8)
    assert hash(g) == hash(twin) == hash((Mat(3, -2, 5, -3), "paired", None, 4, 7))
    assert Generator(matrix=T, kind="translation", order=None, source=0, target=9).matrix is T
    for h in (g, Generator(T, "translation", None, 0, 9), Generator(S, "even", 2, 1, 1)):
        copy = pickle.loads(pickle.dumps(h))
        assert type(copy) is Generator and copy == h and hash(copy) == hash(h)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.order = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        del g.kind
    assert dataclasses.replace(g, kind="even", order=2) == Generator(Mat(3, -2, 5, -3), "even", 2, 4, 7)
    with pytest.raises(TypeError):
        Generator(T, "translation", None, 0)


def test_system_json_shape():
    sys = independent_system(grow_maximal(8))
    data = sys.to_json()
    assert data["n"] == 8
    for entry in data["generators"]:
        assert set(entry) == {"matrix", "kind", "order"}
        assert len(entry["matrix"]) == 2 and len(entry["matrix"][0]) == 2
