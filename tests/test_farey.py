"""Exact rational arithmetic: fractions, Farey pairs, sequences, lifting."""

import dataclasses
import math
import pickle
from fractions import Fraction

import pytest

from gamma0.farey import (
    INF,
    ONE,
    ZERO,
    Frac,
    denominators,
    farey_sequence,
    is_farey_pair,
    lift_denominator_sequence,
    mediant,
    pair_from_denominators,
    reduce,
)


def test_reduce_normalizes_sign_and_gcd():
    assert reduce(2, 4) == Frac(1, 2)
    assert reduce(-2, -4) == Frac(1, 2)
    assert reduce(3, -6) == Frac(-1, 2)
    assert reduce(0, 7) == ZERO
    assert reduce(5, 0) == INF
    assert reduce(-5, 0) == INF


def test_reduce_rejects_zero_over_zero():
    with pytest.raises(ValueError):
        reduce(0, 0)


def test_frac_keeps_the_frozen_dataclass_contract():
    # the hand-written constructor stores the two fields as given, and a
    # Frac stays a frozen dataclass on (num, den)
    x = Frac(2, 7)
    assert [f.name for f in dataclasses.fields(Frac)] == ["num", "den"]
    assert (x.num, x.den) == (2, 7)
    assert repr(x) == "Frac(2, 7)" and str(x) == "2/7"
    assert repr(INF) == "Frac(1, 0)"
    assert x == reduce(4, 14) and x != Frac(2, 9) and x != (2, 7)
    assert hash(x) == hash(reduce(4, 14)) == hash((2, 7))
    assert Frac(1, 0) == INF and Frac(0, 1) == ZERO and Frac(1, 1) == ONE
    for y in (x, INF, ZERO, ONE, Frac(-3, 5)):
        copy = pickle.loads(pickle.dumps(y))
        assert type(copy) is Frac and copy == y and hash(copy) == hash(y)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.num = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del x.den
    assert not hasattr(x, "__dict__")
    assert dataclasses.replace(x, num=3) == Frac(3, 7)


def test_parse_roundtrips():
    for text in ["1/2", "3", "-4/6", "  7/1 ", "1/0"]:
        f = Frac.parse(text)
        assert Frac.parse(str(f)) == f
    assert Frac.parse("-4/6") == Frac(-2, 3)
    assert Frac.parse("3") == Frac(3, 1)


def test_ordering_matches_float_values():
    xs = [reduce(p, q) for p in range(-5, 6) for q in range(1, 6)]
    for x in xs:
        for y in xs:
            if x != y:
                assert (x < y) == (Fraction(x.num, x.den) < Fraction(y.num, y.den))


def test_infinity_is_not_linearly_comparable():
    assert INF.is_infinite
    assert not ZERO.is_infinite
    assert float(INF) == math.inf
    with pytest.raises(ValueError):
        INF < ONE
    with pytest.raises(ValueError):
        ZERO < INF


def test_farey_pair_detection():
    assert is_farey_pair(ZERO, ONE)
    assert is_farey_pair(INF, ZERO)
    assert is_farey_pair(INF, Frac(5, 1))
    assert is_farey_pair(Frac(1, 3), Frac(1, 2))
    assert not is_farey_pair(Frac(1, 4), Frac(1, 2))
    with pytest.raises(ValueError):
        is_farey_pair(ONE, ONE)


def test_mediant_lies_between_and_is_reduced():
    m = mediant(Frac(1, 3), Frac(1, 2))
    assert m == Frac(2, 5)
    assert Frac(1, 3) < m < Frac(1, 2)
    assert math.gcd(m.num, m.den) == 1
    with pytest.raises(ValueError):
        mediant(Frac(1, 4), Frac(1, 2))


def test_mediant_of_vertical_side():
    # The triangle over (∞, k) has third vertex k+1 on the right.
    assert mediant(INF, ZERO) == ONE
    assert mediant(INF, Frac(3, 1)) == Frac(4, 1)


def brute_force_farey(k):
    vals = sorted(
        {Fraction(p, q) for q in range(1, k + 1) for p in range(0, q + 1)}
    )
    return [INF] + [Frac(v.numerator, v.denominator) for v in vals]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 30])
def test_farey_sequence_matches_brute_force(k):
    assert farey_sequence(k) == brute_force_farey(k)


def test_farey_sequence_consecutive_terms_are_farey_pairs():
    seq = farey_sequence(7)
    for x, y in zip(seq[1:], seq[2:]):
        assert is_farey_pair(x, y)
        assert x < y
        # consecutive in F_k means the mediant falls outside F_k
        assert x.den + y.den > 7


def test_farey_sequence_rejects_bad_order():
    with pytest.raises(ValueError):
        farey_sequence(0)


@pytest.mark.parametrize(
    "a,b", [(1, 1), (1, 2), (2, 1), (3, 5), (5, 3), (7, 12), (40, 27)]
)
def test_pair_from_denominators_is_the_normalized_side(a, b):
    x, y = pair_from_denominators(a, b)
    assert (x.den, y.den) == (a, b)
    assert is_farey_pair(x, y)
    assert x < y
    assert ZERO <= x and y <= ONE
    # uniqueness: the defining identity a*num_right - b*num_left = 1
    assert a * y.num - b * x.num == 1


def test_pair_from_denominators_rejects_bad_input():
    with pytest.raises(ValueError):
        pair_from_denominators(2, 4)
    with pytest.raises(ValueError):
        pair_from_denominators(0, 1)


def test_lift_denominator_sequence_examples():
    # the n=8 polygon from the worked example
    cusps = lift_denominator_sequence([0, 1, 4, 3, 2, 1])
    assert cusps == [INF, ZERO, Frac(1, 4), Frac(1, 3), Frac(1, 2), ONE]
    assert lift_denominator_sequence([0, 1, 1]) == [INF, ZERO, ONE]
    assert lift_denominator_sequence([0, 1, 2, 1]) == [INF, ZERO, Frac(1, 2), ONE]


def test_lift_and_denominators_are_inverse():
    for seq in ([0, 1, 1], [0, 1, 4, 3, 2, 1], [0, 1, 5, 4, 3, 2, 3, 4, 5, 1]):
        assert denominators(lift_denominator_sequence(seq)) == seq


def test_lift_rejects_malformed_sequences():
    with pytest.raises(ValueError):
        lift_denominator_sequence([0, 1])  # too short
    with pytest.raises(ValueError):
        lift_denominator_sequence([1, 1, 1])  # must start 0, 1
    with pytest.raises(ValueError):
        lift_denominator_sequence([0, 1, 2])  # must end at the cusp 1
    with pytest.raises(ValueError):
        lift_denominator_sequence([0, 1, 2, 4, 1])  # 2, 4 not coprime
    with pytest.raises(ValueError):
        lift_denominator_sequence([0, 1, 0, 1])  # 0 only allowed first
