"""Exact matrix algebra in PSL(2, Z).

Elements are integer matrices [[a,b],[c,d]] with determinant 1, taken modulo
sign.  We fix the representative with c > 0, or c = 0 and a > 0; this makes
the lower-left entry of every non-translation element positive, which is the
quantity the generator bounds are stated against.

The group acts on cusps by fractions: [[a,b],[c,d]] sends p/q to
(ap + bq)/(cp + dq).  Torsion is read off the trace: |tr| = 0 means order 2,
|tr| = 1 means order 3, anything else (besides ±identity) has infinite order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .farey import Frac, is_farey_pair, reduce


@dataclass(frozen=True, slots=True, init=False)
class Mat:
    """A sign-normalized element of PSL(2, Z).

    ``Mat(a, b, c, d)`` raises ValueError unless ad − bc = 1, then stores the
    representative with c > 0, or c = 0 and a > 0: ``Mat(-1, -1, 0, -1) ==
    T``.  Each field is written once, through its slot; the instance is
    otherwise an ordinary frozen dataclass (fields a, b, c, d; eq, hash and
    repr on those fields; assignment raises FrozenInstanceError), and
    ``dataclasses.replace`` goes through the same check.
    """

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"[[{a},{b}],[{c},{d}]] has determinant != 1")
        if c < 0 or (c == 0 and a < 0):
            a, b, c, d = -a, -b, -c, -d
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


# the slot descriptors, which write a field past the frozen __setattr__
_set_a, _set_b, _set_c, _set_d = Mat.a.__set__, Mat.b.__set__, Mat.c.__set__, Mat.d.__set__

I = Mat(1, 0, 0, 1)
S = Mat(0, 1, -1, 0)          # z -> -1/z, order 2
R = Mat(0, 1, -1, 1)          # order 3
T = Mat(1, 1, 0, 1)           # z -> z + 1; equals R^-1 S


def compose(g: Mat, h: Mat) -> Mat:
    """Matrix product g·h, renormalized."""
    return Mat(
        g.a * h.a + g.b * h.c,
        g.a * h.b + g.b * h.d,
        g.c * h.a + g.d * h.c,
        g.c * h.b + g.d * h.d,
    )


def inverse(g: Mat) -> Mat:
    """Group inverse; for determinant 1 this is the adjugate."""
    return Mat(g.d, -g.b, -g.c, g.a)


def act(g: Mat, x: Frac) -> Frac:
    """Linear fractional action of g on a cusp."""
    return reduce(g.a * x.num + g.b * x.den, g.c * x.num + g.d * x.den)


def in_gamma0(g: Mat, n: int) -> bool:
    """True iff g lies in Gamma0(n), i.e. n divides the lower-left entry."""
    if n < 1:
        raise ValueError("level must be positive")
    return g.c % n == 0


def element_order(g: Mat):
    """Order of g in PSL(2, Z): 1, 2, 3, or math.inf."""
    tr = abs(g.a + g.d)
    if tr == 0:
        return 2
    if tr == 1:
        return 3
    if tr == 2 and g == I:  # I is the one element of order 1, and |tr I| = 2
        return 1
    return math.inf


def norm_stats(g: Mat) -> tuple[int, int]:
    """(|trace|, squared Frobenius norm), both exact integers."""
    return abs(g.a + g.d), g.a * g.a + g.b * g.b + g.c * g.c + g.d * g.d


def edge_transport(src: tuple[Frac, Frac], dst: tuple[Frac, Frac]) -> Mat:
    """The unique PSL(2,Z) element sending src to dst endpoint-by-endpoint.

    src and dst must be Farey pairs.  Writing A and B for the matrices whose
    columns are the endpoint vectors (num, den) of the cusps, the element
    is B·A^-1, with the first column of B negated when the two determinants
    disagree (so the product has determinant 1 before sign normalization).
    """
    if not is_farey_pair(*src) or not is_farey_pair(*dst):
        raise ValueError("edge_transport needs two Farey pairs")
    a1, a2, a3, a4 = src[0].num, src[1].num, src[0].den, src[1].den
    b1, b2, b3, b4 = dst[0].num, dst[1].num, dst[0].den, dst[1].den
    det_a = a1 * a4 - a2 * a3
    det_b = b1 * b4 - b2 * b3
    if det_a != det_b:
        b1, b3 = -b1, -b3
    # B times the adjugate of A; dividing by det A = ±1 would only flip the
    # sign, which Mat normalizes away.
    return Mat(b1 * a4 - b2 * a3, b2 * a1 - b1 * a2, b3 * a4 - b4 * a3, b4 * a1 - b3 * a2)
