"""Independent number theory and output checks for the gamma0 benchmark.

Nothing here imports gamma0: every check recomputes what the paper states
from first principles (trial-division factorizations, the classical index,
cusp and elliptic formulas, a totient sieve, the cashew certificate
condition) and compares the program's printed output against it.  A check
returns an empty string when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
from math import gcd, isqrt


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def prime_or_prime_square(n: int) -> bool:
    fac = factorize(n)
    return len(fac) == 1 and max(fac.values()) <= 2


def twin_pair(n: int) -> tuple[int, int] | None:
    """(p, q) when n = pq, p < q odd primes with sqrt(q) - sqrt(p) < sqrt(2)."""
    fac = factorize(n)
    if len(fac) != 2 or set(fac.values()) != {1}:
        return None
    p, q = sorted(fac)
    if p == 2 or (q - p - 2) ** 2 >= 8 * p:
        return None
    return p, q


def _phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def invariants(n: int) -> dict[str, int]:
    """index, v_inf, v2, v3, genus and u = (index - v3)/3 of Gamma0(n)."""
    fac = factorize(n)
    index = n
    for p in fac:
        index = index // p * (p + 1)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    v_inf = sum(_phi(gcd(d, n // d)) for d in divs)
    v2 = 0 if n % 4 == 0 else 1
    v3 = 0 if n % 9 == 0 else 1
    for p in fac:
        if p % 2:
            v2 *= 1 + (1 if p % 4 == 1 else -1)
        if p != 3:
            v3 *= 1 + (1 if p % 3 == 1 else -1)
    twelve_genus = 12 + index - 3 * v2 - 4 * v3 - 6 * v_inf
    return {
        "index": index,
        "v_inf": v_inf,
        "v2": v2,
        "v3": v3,
        "genus": twelve_genus // 12,
        "u": (index - v3) // 3,
    }


class Totients:
    """Phi(k) = sum of Euler phi up to k, from a sieve grown on demand."""

    def __init__(self) -> None:
        self._cum = [0, 1]

    def __call__(self, k: int) -> int:
        if k >= len(self._cum):
            size = 2 * k + 2
            phi = list(range(size))
            for p in range(2, size):
                if phi[p] == p:
                    for m in range(p, size, p):
                        phi[m] -= phi[m] // p
            cum = [0] * size
            for i in range(1, size):
                cum[i] = cum[i - 1] + phi[i]
            self._cum = cum
        return self._cum[k]


def is_cashew(n: int) -> bool:
    """Some level-n Farey triple attains the minimal pair sum a = isqrt(4n/3).

    Brute force over the certificate condition n = s*a + t*b with
    s + t > a > t >= b >= a - s, keeping candidates whose triple
    ((a-b, b), (s, t), (a-t, s+t-a+b)) has three distinct coprime positive
    pairs satisfying the cyclic triple relation.
    """
    a = isqrt(4 * n // 3)
    for s in range(1, n // a + 1):
        rem = n - s * a
        for t in range(max(1, a - s + 1), a):
            if rem < 1 or rem % t:
                continue
            b = rem // t
            if b > t or b < a - s:
                continue
            pairs = ((a - b, b), (s, t), (a - t, s + t - a + b))
            if len(set(pairs)) != 3 or any(x < 1 or y < 1 or gcd(x, y) != 1 for x, y in pairs):
                continue
            if all(
                pairs[(i + 1) % 3][0] * pairs[i][0]
                + (pairs[(i + 1) % 3][0] + pairs[(i + 1) % 3][1]) * pairs[i][1]
                == n
                for i in range(3)
            ):
                return True
    return False


def _cusp(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    return int(num), int(den)


def check_generators(n: int, code: int, out: str, err: str) -> str:
    """`gamma0 generators n --verify --json`: a verified independent system."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    body, _, last = out.rstrip("\n").rpartition("\n")
    if not last.startswith("verify: ok"):
        return f"no 'verify: ok' line (got {last[:80]!r})"
    data = json.loads(body)
    gens = data["generators"]
    if data["n"] != n or f"({len(gens)} generators)" not in last:
        return "payload level or generator count disagrees with the verify line"
    inv = invariants(n)
    orders = {2: 0, 3: 0, None: 0}
    entries = []
    translations = 0
    for g in gens:
        (a, b), (c, d) = g["matrix"]
        if a * d - b * c != 1:
            return f"det != 1 for {g['matrix']}"
        if c % n:
            return f"{n} does not divide c in {g['matrix']}"
        trace = abs(a + d)
        if trace != {2: 0, 3: 1}.get(g["order"], trace) or g["order"] is None and trace < 2:
            return f"order {g['order']} contradicts trace {a + d}"
        orders[g["order"]] += 1
        if g["kind"] == "translation":
            translations += 1
            if g["matrix"] != [[1, 1], [0, 1]]:
                return f"translation is {g['matrix']}"
        else:
            entries.append(c)
    want = (inv["v2"], inv["v3"], 2 * inv["genus"] + inv["v_inf"] - 1)
    got = (orders[2], orders[3], orders[None])
    if got != want or translations != 1:
        return f"free-factor counts {got} != (v2, v3, 2g+v_inf-1) = {want}"
    if prime_or_prime_square(n):
        if any(c != n for c in entries):
            return f"entry other than {n} at a prime/prime-square level"
    elif (pq := twin_pair(n)) is not None:
        p, q = pq
        if any(c not in (n, 2 * n) for c in entries) or entries.count(2 * n) != q - p:
            return f"twin entries are not {{n, 2n}} with q - p = {q - p} at 2n"
    return ""


def check_polygon(n: int, code: int, out: str, err: str) -> str:
    """`gamma0 polygon n --json`: a maximal polygon with u(n) + 2 cusps."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    data = json.loads(out)
    if json.dumps(data, indent=2) != out.strip():
        return "polygon JSON does not round-trip"
    cusps = [_cusp(s) for s in data["cusps"]]
    labels = data["labels"]
    if data["n"] != n or len(labels) != len(cusps):
        return "level or label count disagrees"
    if len(cusps) != invariants(n)["u"] + 2:
        return f"{len(cusps)} cusps, u(n) + 2 = {invariants(n)['u'] + 2}"
    if cusps[:2] != [(1, 0), (0, 1)] or cusps[-1] != (1, 1):
        return "cusps do not run [inf, 0, ..., 1]"
    if labels[0] != 1 or labels[-1] != 1 or -4 in labels:
        return "bad vertical labels or a free side (-4)"
    sides: dict[int, list[tuple[int, int]]] = {}
    for i in range(1, len(cusps) - 1):
        (p, a), (q, b) = cusps[i], cusps[i + 1]
        if q * a - p * b != 1:
            return f"cusps {p}/{a}, {q}/{b} are not an increasing Farey pair"
        lab = labels[i]
        if lab == -2 and (a * a + b * b) % n or lab == -3 and (a * a + a * b + b * b) % n:
            return f"side ({a}, {b}) is not {'even' if lab == -2 else 'odd'}"
        if lab >= 2:
            sides.setdefault(lab, []).append((a, b))
        elif lab not in (-2, -3):
            return f"unknown label {lab}"
    for lab, pair in sides.items():
        if len(pair) != 2:
            return f"label {lab} marks {len(pair)} sides"
        (a, b), (c, d) = pair
        if (a * c + b * d) % n:
            return f"sides ({a}, {b}), ({c}, {d}) are not glued"
    return ""


def check_bounds(n: int, code: int, out: str, err: str, cashew: bool, totients: Totients) -> str:
    """`gamma0 bounds n --exact --json` at a prime or prime-square level."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    data = json.loads(out)
    lower, upper, exact = data["lower"], data["upper"], data["exact"]
    if data["n"] != n or lower != isqrt(n) or upper != isqrt(4 * n // 3):
        return f"bounds ({lower}, {upper}) are not (isqrt(n), isqrt(4n/3))"
    if data["lower_is_exact"] != (invariants(n)["u"] == totients(lower)):
        return "lower_is_exact disagrees with u(n) = Phi(isqrt(n))"
    if not lower <= exact <= upper:
        return f"exact {exact} outside [{lower}, {upper}]"
    if data["lower_is_exact"] and exact != lower:
        return f"exact {exact} != lower {lower} although lower_is_exact"
    if cashew and n >= 37 and exact != upper:
        return f"cashew level but exact {exact} != upper {upper}"
    return ""


SWEEP_COLUMNS = (
    "n index v_inf v2 v3 genus u phi_sqrt k lower lower_is_exact upper m_exact cashew error"
).split()


def check_sweep(levels: range, code: int, csv_text: str, err: str, totients: Totients) -> list[str]:
    """`gamma0 sweep A B`: one reason per bad row ([] when every row is right)."""
    if code != 0:
        return [f"exit {code}: {err.strip()[:200]}"] * len(levels)
    reader = csv.DictReader(io.StringIO(csv_text))
    if reader.fieldnames != SWEEP_COLUMNS:
        return ["missing or wrong CSV header"] * len(levels)
    rows = list(reader)
    if [int(r["n"]) for r in rows] != list(levels):
        return [f"rows {len(rows)} do not cover levels {levels.start}..{levels.stop - 1}"] * len(levels)
    bad = []
    for r in rows:
        n = int(r["n"])
        if r["error"]:
            bad.append(f"n={n}: error {r['error']}")
            continue
        inv = invariants(n)
        got = {key: int(r[key]) for key in inv}
        u, k, phi = got["u"], int(r["k"]), totients(isqrt(n))
        if got != inv:
            bad.append(f"n={n}: invariants {got} != {inv}")
        elif int(r["phi_sqrt"]) != phi or int(r["lower"]) != isqrt(n):
            bad.append(f"n={n}: phi_sqrt/lower disagree with Phi(isqrt n) = {phi}")
        elif prime_or_prime_square(n) and phi != u - k:
            bad.append(f"n={n}: Phi(isqrt n) = {phi} != u - k = {u - k}")
    return bad
