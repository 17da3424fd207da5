"""Matrix algebra in PSL(2,Z): composition, action on cusps, edge transport."""

import dataclasses
import math
import pickle
import random

import pytest

from gamma0.farey import INF, ONE, ZERO, Frac, is_farey_pair, mediant, reduce
from gamma0.psl2 import (
    I,
    Mat,
    R,
    S,
    T,
    act,
    compose,
    edge_transport,
    element_order,
    in_gamma0,
    inverse,
    norm_stats,
)


def test_determinant_is_enforced():
    with pytest.raises(ValueError):
        Mat(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat(1, 0, 0, -1)  # determinant -1


def test_sign_normalization():
    # -g and g are the same element of PSL(2,Z)
    assert Mat(-1, 0, 0, -1) == I
    g = Mat(-1, -1, 0, -1)
    assert (g.a, g.b, g.c, g.d) == (1, 1, 0, 1)
    assert g == T
    h = Mat(0, -1, 1, 0)  # c > 0 already, kept as-is
    assert (h.a, h.b, h.c, h.d) == (0, -1, 1, 0)
    assert h == S  # S stores as [[0,1],[-1,0]] -> normalized to [[0,-1],[1,0]]


def test_mat_keeps_the_frozen_dataclass_contract():
    # the hand-written constructor changes how the fields are stored, not
    # what a Mat is: the same fields, comparison, hashing, repr and pickling
    g = Mat(-3, 2, -5, 3)  # stored as its sign-normalized representative
    assert [f.name for f in dataclasses.fields(Mat)] == ["a", "b", "c", "d"]
    assert (g.a, g.b, g.c, g.d) == (3, -2, 5, -3)
    assert repr(g) == "Mat(a=3, b=-2, c=5, d=-3)"
    assert str(g) == "[[3,-2],[5,-3]]"
    assert g == Mat(3, -2, 5, -3) and g != T and g != (3, -2, 5, -3)
    assert hash(g) == hash(Mat(3, -2, 5, -3)) == hash((3, -2, 5, -3))
    assert Mat(-1, -1, 0, -1) == T
    for h in (g, T, S, R, I):
        copy = pickle.loads(pickle.dumps(h))
        assert type(copy) is Mat and copy == h and hash(copy) == hash(h)
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.a = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        del T.b
    assert not hasattr(T, "__dict__")
    # replace() goes through the constructor: the determinant check and the
    # sign normalization both apply
    with pytest.raises(ValueError, match=r"^\[\[1,1\],\[2,1\]\] has determinant != 1$"):
        dataclasses.replace(T, c=2)
    with pytest.raises(ValueError, match=r"^\[\[1,1\],\[0,2\]\] has determinant != 1$"):
        dataclasses.replace(T, d=2)
    assert dataclasses.replace(T, b=2) == Mat(1, 2, 0, 1)  # T², determinant 1
    assert dataclasses.replace(T, a=-1, b=-1, d=-1) == T


def test_standard_generators():
    assert element_order(S) == 2
    assert element_order(R) == 3
    assert element_order(T) == math.inf
    assert element_order(I) == 1
    # T = R^-1 S
    assert compose(inverse(R), S) == T
    # relations: S^2 = R^3 = 1 in PSL(2,Z)
    assert compose(S, S) == I
    assert compose(R, compose(R, R)) == I


def test_compose_and_inverse():
    rng = random.Random(20240817)
    g = I
    word = []
    for _ in range(40):
        step = rng.choice([S, R, T, inverse(T)])
        word.append(step)
        g = compose(g, step)
    # unwind the word one inverse at a time
    h = g
    for step in reversed(word):
        h = compose(h, inverse(step))
    assert h == I
    assert compose(g, inverse(g)) == I
    assert compose(inverse(g), g) == I


def test_action_on_cusps():
    assert act(T, ZERO) == ONE
    assert act(T, INF) == INF
    assert act(T, Frac(1, 2)) == Frac(3, 2)
    assert act(S, INF) == ZERO
    assert act(S, ZERO) == INF
    assert act(S, Frac(1, 2)) == Frac(-2, 1)
    # action is a homomorphism
    g, h = compose(T, S), compose(S, inverse(T))
    for x in (INF, ZERO, ONE, Frac(2, 5), Frac(-3, 7)):
        assert act(compose(g, h), x) == act(g, act(h, x))


def test_in_gamma0():
    assert in_gamma0(T, 12)
    assert not in_gamma0(S, 2)
    g = Mat(1, 0, 6, 1)
    assert in_gamma0(g, 2) and in_gamma0(g, 3) and in_gamma0(g, 6)
    assert not in_gamma0(g, 4)
    with pytest.raises(ValueError):
        in_gamma0(T, 0)


def test_element_order_via_trace():
    assert element_order(Mat(0, -1, 1, 0)) == 2
    assert element_order(Mat(1, -1, 1, 0)) == 3  # trace 1
    assert element_order(Mat(2, 1, 1, 1)) == math.inf
    # order-2 and order-3 really are torsion: g^2 = 1, h^3 = 1
    g = Mat(0, -1, 1, 0)
    assert compose(g, g) == I
    h = Mat(1, -1, 1, 0)
    assert compose(h, compose(h, h)) == I


def test_norm_stats():
    assert norm_stats(T) == (2, 3)
    assert norm_stats(S) == (0, 2)
    assert norm_stats(Mat(3, 1, 5, 2)) == (5, 39)


def random_farey_pair(rng, steps=12):
    """Random edge of the Farey tessellation via a mediant walk from (0, 1)."""
    x, y = ZERO, ONE
    if rng.random() < 0.15:
        x, y = INF, Frac(rng.randrange(-3, 4), 1)  # a vertical edge
        return (x, y) if rng.random() < 0.5 else (y, x)
    for _ in range(rng.randrange(steps)):
        m = mediant(x, y)
        if rng.random() < 0.5:
            x, y = x, m
        else:
            x, y = m, y
    if rng.random() < 0.3:
        x, y = y, x
    if rng.random() < 0.3:  # translate off [0,1] to vary signs
        k = rng.randrange(-4, 5)
        x = reduce(x.num + k * x.den, x.den)
        y = reduce(y.num + k * y.den, y.den)
    return x, y


def test_edge_transport_moves_endpoints_exactly():
    rng = random.Random(514229)
    for _ in range(500):
        src = random_farey_pair(rng)
        dst = random_farey_pair(rng)
        g = edge_transport(src, dst)
        assert act(g, src[0]) == dst[0]
        assert act(g, src[1]) == dst[1]


def test_edge_transport_identity_and_inverse():
    src = (Frac(1, 3), Frac(1, 2))
    assert edge_transport(src, src) == I
    dst = (Frac(2, 5), Frac(1, 2))
    g = edge_transport(src, dst)
    assert edge_transport(dst, src) == inverse(g)


def test_edge_transport_requires_farey_pairs():
    with pytest.raises(ValueError):
        edge_transport((ZERO, Frac(2, 3)), (ZERO, ONE))
    with pytest.raises(ValueError):
        edge_transport((ZERO, ONE), (Frac(1, 4), Frac(1, 2)))
