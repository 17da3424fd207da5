"""Plain versions that the searches and builds in ``gamma0.triples`` must match.

The searches as first written, with no window on a1, b0 or t, and the
optimal and twin builds as first written: they classify the hull, find the
triple through each free side with ``triple_from_free_side`` (not the k(n)
enumeration), sort every mediant in and classify the result.  The tests
compare the library against them list for list.
"""

from math import gcd, isqrt

from gamma0.farey import INF, farey_sequence, mediant, pair_from_denominators
from gamma0.polygon import polygon_from_cusps
from gamma0.triples import (
    CashewCertificate,
    FareyTriple,
    cashew_ceiling,
    is_farey_triple,
    triple_from_free_side,
)


def scan_heads(n, A):
    """Canonical triples with head sum A, scanning every a1 ≡ n·A⁻¹ (mod b0)."""
    found = []
    for b0 in range(1, A):
        if gcd(A, b0) != 1:
            continue
        a0 = A - b0
        if b0 == 1:
            start = 1
        else:
            start = n * pow(A % b0, -1, b0) % b0
            if start == 0:
                start = b0
        for a1 in range(start, (n - b0) // A + 1, b0):
            b1 = (n - a1 * A) // b0
            if a1 + b1 <= A:
                continue
            a2, b2 = A - b1, a1 + b1 - a0
            if a2 < 1 or b2 < 1 or a2 + b2 < A:
                continue
            if gcd(a1, b1) != 1 or gcd(a2, b2) != 1:
                continue
            pairs = ((a0, b0), (a1, b1), (a2, b2))
            if len(set(pairs)) != 3:
                continue
            found.append(FareyTriple(pairs))
    return found


def scan_triple_count(n):
    """k(n) from ``scan_heads`` over every head sum A with n < A² < 4n/3."""
    count = 0
    A = isqrt(n) + 1
    while 3 * A * A < 4 * n:
        count += len(scan_heads(n, A))
        A += 1
    return count


def scan_certificates(n):
    """Every certificate, trying each s and each t in (a − s, a)."""
    a = cashew_ceiling(n)
    certs = []
    if a >= 2:
        for s in range((n - 1) // a, 0, -1):
            rem = n - s * a
            if rem < 1:
                continue
            for t in range(max(1, a - s + 1), a):
                if rem % t:
                    continue
                b = rem // t
                if b > t or b < a - s:
                    continue
                cert = CashewCertificate(s=s, t=t, a=a, b=b)
                if is_farey_triple(cert.triple(), n):
                    certs.append(cert)
    return certs


def _side_mediant(a, b):
    return mediant(*pair_from_denominators(a, b))


def _sorted_polygon(hull, extra):
    return polygon_from_cusps(hull.n, [INF] + sorted([*hull.cusps[1:], *extra]))


def _head_sides(n, sides):
    """The head pair of the triple through each free side, three sides per triple."""
    grouped = {}
    for side in sides:
        grouped.setdefault(triple_from_free_side(n, side), []).append(side)
    assert all(len(covered) == 3 for covered in grouped.values()), n
    return [t.pairs[0] for t in grouped]


def _free_dens(P):
    return [P.side_denominators(i) for i in P.free_sides()]


def sorted_optimal_polygon(n):
    """The hull of F*_⌊√n⌋ plus each head mediant, sorted in and reclassified."""
    hull = polygon_from_cusps(n, farey_sequence(isqrt(n)))
    heads = _head_sides(n, _free_dens(hull))
    return _sorted_polygon(hull, [_side_mediant(*h) for h in heads])


def sorted_twin_polygon(p, q):
    """The twin build for n = pq with its mediants sorted in and reclassified."""
    n, k = p * q, (q - p) // 2
    hull = polygon_from_cusps(n, farey_sequence(p + k - 1))
    a_sides = {(k, p), (p, k)} | {(i, q - i) for i in range(k + 1, p + k)}
    left, right = pair_from_denominators(k, p)
    m1 = mediant(left, right)
    extra = [m1, mediant(left, m1)]
    extra += [_side_mediant(i, q - i) for i in range(k + 1, p + k)]
    rest = [d for d in _free_dens(hull) if d not in a_sides]
    extra += [_side_mediant(*h) for h in _head_sides(n, rest)]
    return _sorted_polygon(hull, extra)
