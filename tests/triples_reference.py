"""Plain scans that the windowed searches in ``gamma0.triples`` must match.

These are the searches as first written, with no window on a1, b0 or t;
the tests compare the library against them list for list.
"""

from math import gcd, isqrt

from gamma0.triples import CashewCertificate, FareyTriple, cashew_ceiling, is_farey_triple


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
