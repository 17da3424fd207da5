"""Exact Farey arithmetic on Q ∪ {∞}.

Cusps of the hyperbolic plane are reduced fractions a/b together with the
single point at infinity, stored as 1/0.  Two cusps p/q and r/s span an edge
of the Farey tessellation exactly when |ps - rq| = 1 (a "Farey pair"), and
the third vertex of either triangle over that edge is the mediant
(p+r)/(q+s).  Everything in this module is exact integer arithmetic; floats
never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True, init=False)
class Frac:
    """A reduced fraction num/den with den >= 0; infinity is Frac(1, 0).

    Use :func:`reduce` (or ``Frac.parse``) instead of calling the constructor
    with unnormalized values; the constructor trusts its inputs and writes
    each field once, through its slot.  The instance is otherwise an ordinary
    frozen dataclass (fields num, den; eq and hash on those fields;
    assignment raises FrozenInstanceError).
    """

    num: int
    den: int

    def __init__(self, num: int, den: int):
        _set_num(self, num)
        _set_den(self, den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Frac({self.num}, {self.den})"

    def __lt__(self, other: "Frac") -> bool:
        # Linear order is defined for finite values only; the circular order
        # (with ∞ wrapping around) is handled positionally by callers.
        if self.is_infinite or other.is_infinite:
            raise ValueError("infinity is not linearly comparable")
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "Frac") -> bool:
        return self == other or self < other

    def __float__(self) -> float:
        if self.is_infinite:
            return math.inf
        return self.num / self.den

    @staticmethod
    def parse(text: str) -> "Frac":
        """Parse 'a/b' (or a bare integer 'a') into a reduced fraction."""
        s = text.strip()
        if "/" in s:
            p, q = s.split("/", 1)
            return reduce(int(p), int(q))
        return reduce(int(s), 1)


# the slot descriptors, which write a field past the frozen __setattr__
_set_num, _set_den = Frac.num.__set__, Frac.den.__set__

INF = Frac(1, 0)
ZERO = Frac(0, 1)
ONE = Frac(1, 1)


def reduce(p: int, q: int) -> Frac:
    """Canonical reduced form of p/q; q may be negative or zero (not both zero).

    The sign lives in the numerator, and every version of infinity collapses
    to 1/0.
    """
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a fraction")
    if q == 0:
        return INF
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return Frac(p // g, q // g)


def is_farey_pair(x: Frac, y: Frac) -> bool:
    """True iff x and y span an edge of the Farey tessellation.

    For x = a'/a and y = b'/b the condition is ab' - a'b = ±1.
    """
    if x == y:
        raise ValueError("a Farey pair consists of two distinct cusps")
    return abs(x.den * y.num - x.num * y.den) == 1


def mediant(x: Frac, y: Frac) -> Frac:
    """Third vertex of the Farey triangle over the pair (x, y)."""
    if not is_farey_pair(x, y):
        raise ValueError(f"({x}, {y}) is not a Farey pair")
    # The mediant of a Farey pair is automatically reduced.
    return Frac(x.num + y.num, x.den + y.den)


def farey_sequence(k: int) -> list[Frac]:
    """The extended Farey sequence F*_k = [∞, 0, ..., 1].

    All reduced fractions in [0,1] with denominator at most k, in increasing
    order, preceded by ∞.  Length is Φ(k) + 2 where Φ is the totient summatory
    function.  Generated by the classical next-term recurrence (integer-only,
    O(1) per term).
    """
    if k < 1:
        raise ValueError("farey_sequence needs k >= 1")
    seq = [INF, ZERO]
    a, b, c, d = 0, 1, 1, k
    while d > 1:  # every term between 0/1 and 1/1 has a denominator ≥ 2
        seq.append(Frac(c, d))
        step = (k + b) // d
        a, b, c, d = c, d, step * c - a, step * d - b
    seq.append(ONE)
    return seq


def pair_from_denominators(a: int, b: int) -> tuple[Frac, Frac]:
    """The unique Farey pair 0 <= y/a < x/b <= 1 with denominators (a, b).

    Solves ax - by = 1 with 0 <= y < a and 1 <= x <= b.  This is the side of
    a normalized polygon whose endpoints have denominators a (left) and b
    (right); uniqueness is what lets a polygon be recovered from its
    denominator sequence alone.
    """
    if a < 1 or b < 1:
        raise ValueError("denominators must be positive")
    if math.gcd(a, b) != 1:
        raise ValueError(f"denominators ({a}, {b}) are not coprime")
    # ax ≡ 1 (mod b); pick the representative in [1, b] (residue 0 means b).
    x = pow(a, -1, b) or b
    y = (a * x - 1) // b
    assert 0 <= y < a and a * x - b * y == 1
    return Frac(y, a), Frac(x, b)


def lift_denominator_sequence(seq: list[int]) -> list[Frac]:
    """Rebuild the cusp list [∞, 0, ..., 1] from its denominator sequence.

    ``seq`` lists the cusp denominators starting 0 (for ∞), 1 (for 0) and
    ending 1 (for the cusp 1).  Consecutive entries must be coprime and the
    per-side Farey pairs must chain consistently, otherwise the sequence does
    not come from a polygon and a ValueError is raised (by
    ``pair_from_denominators`` for a pair that is not positive and coprime).
    """
    if len(seq) < 3 or seq[0] != 0 or seq[1] != 1 or seq[-1] != 1:
        raise ValueError("denominator sequence must look like [0, 1, ..., 1]")
    cusps = [INF, ZERO]
    for a, b in zip(seq[1:], seq[2:]):
        left, right = pair_from_denominators(a, b)
        if left != cusps[-1]:
            raise ValueError(
                f"denominator sequence is inconsistent at ({a}, {b}): "
                f"expected side starting {cusps[-1]}, got {left}"
            )
        cusps.append(right)
    if cusps[-1] != ONE:
        raise ValueError("denominator sequence does not end at the cusp 1")
    return cusps


def denominators(cusps: list[Frac]) -> list[int]:
    """Inverse of lift_denominator_sequence: the cusp denominators."""
    return [c.den for c in cusps]
