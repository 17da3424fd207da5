"""Group invariants and the denominator measure m(Gamma0(n)).

The closed-form invariants are cross-checked against brute-force counts:
solution counting for the elliptic point numbers, unimodular-pair counting
for the index, and triangle counting on grown polygons for u(n).
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import count, takewhile
from math import gcd, isqrt

import pytest

import gamma0
import gamma0.polygon
import gamma0.triples

from gamma0 import invariants
from gamma0.invariants import (
    GroupInvariants,
    SearchExhausted,
    _admits_bound,
    _cusp_divisor_bound,
    _key_function,
    _orbit_met_below,
    _triangle_keys,
    divisors,
    equality_list,
    euler_phi,
    factorize,
    group_invariants,
    is_prime,
    m_bounds,
    m_exact_search,
    prime_or_prime_square,
    totient_summatory,
    twin_factors,
)
from gamma0.polygon import grow_maximal
from gamma0.triples import _witness, build_optimal_polygon, build_twin_polygon, cashew_certificate

from exact_reference import (
    reference_admits_bound,
    reference_cover_bound,
    reference_m_exact_search,
    reference_triangle_names,
)

EQUALITY_LEVELS = [2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 25, 29, 31, 37, 49, 53, 67, 83, 127, 173]


# --- elementary number theory helpers ---


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    for bad in (0, 12.0, 8.5):
        with pytest.raises(ValueError, match="positive integer"):
            factorize(bad)
    assert factorize(2 * 2 * 3 * 7 * 7 * 13) == {2: 2, 3: 1, 7: 2, 13: 1}
    for n in range(1, 300):
        prod = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_euler_phi_brute_force():
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for n in range(1, 120):
        ds = divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_prime_or_prime_square():
    yes = {2, 3, 4, 5, 7, 9, 11, 25, 49, 121, 169, 289}
    no = {1, 6, 8, 10, 12, 16, 27, 100, 143}
    for n in yes:
        assert prime_or_prime_square(n), n
    for n in no:
        assert not prime_or_prime_square(n), n


def test_twin_factors():
    assert twin_factors(15) == (3, 5)
    assert twin_factors(35) == (5, 7)
    assert twin_factors(143) == (11, 13)
    assert twin_factors(323) == (17, 19)
    assert twin_factors(21) == (3, 7)  # sqrt(7)-sqrt(3) < sqrt(2) as well
    assert twin_factors(33) is None  # 3, 11 are too far apart
    assert twin_factors(6) is None  # even prime excluded
    assert twin_factors(9) is None
    assert twin_factors(105) is None
    assert twin_factors(97) is None


@pytest.mark.parametrize("n", [7741, 89**2, 2**4 * 3**2, 89 * 97, 99990])
def test_one_key_closure_serves_many_pairs(n):
    # a polygon build or a search asks one closure for every key, so its
    # memo of inverses meets repeated residues, residues that are not units
    # (p | a), negative lifts and lifts of more than 100 digits
    rng = random.Random(n)
    primes = list(factorize(n))
    key = _key_function(n)
    sides = []
    while len(sides) < 180:
        a = rng.randrange(1, 40) * rng.choice([1] + primes)
        b = rng.randrange(1, 40)
        if gcd(a, b) != 1:
            continue
        unit = next(x for x in iter(lambda: rng.randrange(1, n), 0) if gcd(x, n) == 1)
        lift = rng.randrange(10**100, 10**101) * n
        sides += [
            (a, b),
            (a - lift, b + rng.randrange(-9, 10) * n),  # the same point, lifted
            ((-unit * b) % n, (unit * a) % n),  # a point glued to it
        ]
    for a, b in sides:
        assert key(a, b) == _key_function(n)(a, b)
        partner = key(-b, a)
        for c, d in sides:
            assert (key(c, d) == partner) == ((a * c + b * d) % n == 0)


# --- the six invariants ---


def count_solutions(n, f):
    return sum(1 for x in range(n) if f(x) % n == 0)


@pytest.mark.parametrize("n", list(range(2, 150)) + [289, 900, 1024])
def test_elliptic_counts_match_solution_counts(n):
    inv = group_invariants(n)
    assert inv.v2 == count_solutions(n, lambda x: x * x + 1)
    assert inv.v3 == count_solutions(n, lambda x: x * x + x + 1)


@pytest.mark.parametrize("n", range(2, 80))
def test_index_matches_unimodular_pair_count(n):
    # pairs (c, d) mod n with gcd(c, d, n) = 1, counted up to units
    pairs = sum(1 for c in range(n) for d in range(n) if gcd(gcd(c, d), n) == 1)
    assert group_invariants(n).index == pairs // euler_phi(n)


def test_small_level_table():
    assert group_invariants(2) == GroupInvariants(3, 2, 1, 0, 0, 1)
    assert group_invariants(8) == GroupInvariants(12, 4, 0, 0, 0, 4)
    assert group_invariants(11) == GroupInvariants(12, 2, 0, 0, 1, 4)
    assert group_invariants(17) == GroupInvariants(18, 2, 2, 0, 1, 6)
    with pytest.raises(ValueError):
        group_invariants(1)


def test_genus_against_classical_tables():
    genus0 = {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25}
    genus1 = {11, 14, 15, 17, 19, 20, 21, 24, 27, 32, 36, 49}
    for n in genus0:
        assert group_invariants(n).genus == 0, n
    for n in genus1:
        assert group_invariants(n).genus == 1, n


@pytest.mark.parametrize("n", [2, 5, 8, 13, 24, 36, 55, 60])
def test_u_counts_polygon_triangles(n):
    # a maximal polygon with c cusps consists of c - 2 ideal triangles
    P = grow_maximal(n)
    assert group_invariants(n).u == len(P.cusps) - 2


# recorded while v∞ was still the divisor sum in the library: the invariants
# of every level in [2, 20000], one JSON document per level
INVARIANTS_DIGEST = "86ea5e9939d805c81ca7277a23d2fa70d448b0c19684992c3f1d3a78e645f373"


def test_invariants_are_byte_identical_to_20000():
    digest = hashlib.sha256()
    for n in range(2, 20001):
        digest.update(json.dumps(group_invariants(n).to_json()).encode())
    assert digest.hexdigest() == INVARIANTS_DIGEST


def reference_v_inf(n):
    """The cusp count as the classical divisor sum Σ_{d|n} φ(gcd(d, n/d))."""
    return sum(euler_phi(gcd(d, n // d)) for d in divisors(n))


@pytest.mark.parametrize("n", [720720, 2**30, 3**19, 2**4 * 3**4 * 5**2 * 7**2, 10**12 + 39])
def test_cusp_count_is_the_divisor_sum(n):
    assert group_invariants(n).v_inf == reference_v_inf(n)


def counting_factorize(monkeypatch):
    """Count the calls to ``invariants.factorize`` from here on."""
    calls = []

    def factorize_counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(invariants, "factorize", factorize_counted)
    return calls


@pytest.mark.parametrize("n", [2, 97, 720720, 2**30, 10**13 + 37])
def test_invariants_factorise_the_level_once(monkeypatch, n):
    calls = counting_factorize(monkeypatch)
    group_invariants(n)
    assert calls == [n]


@pytest.mark.parametrize("n", [10007, 10**9 + 7, 720720, 10**13 + 37])
def test_m_bounds_factorises_the_level_once(monkeypatch, n):
    # both bounds read one factorisation; Φ(⌊√n⌋) is stubbed, since its
    # sieve would take seconds and hundreds of MB at 10¹³ + 37, and it
    # factorises nothing
    monkeypatch.setattr(invariants, "totient_summatory", lambda k: 0)
    calls = counting_factorize(monkeypatch)
    m_bounds(n)
    assert calls == [n]


# --- totient summatory and the equality list ---


def test_totient_summatory_brute_force():
    acc = 0
    for k in range(1, 400):
        acc += euler_phi(k)
        assert totient_summatory(k) == acc
    assert totient_summatory(100) == 3044
    with pytest.raises(ValueError):
        totient_summatory(0)


def test_totient_summatory_regrows_its_table(monkeypatch):
    # Start from an empty table: the first call builds 1024 entries, and
    # each later k past the end regrows it.
    monkeypatch.setattr(invariants, "_PHI_CUMSUM", [0])
    phi_cum = [0]
    for k in range(1, 5001):
        phi_cum.append(phi_cum[-1] + euler_phi(k))
    sizes = []
    for k in (1, 1023, 1024, 2049, 5000, 3):
        assert totient_summatory(k) == phi_cum[k], k
        sizes.append(len(invariants._PHI_CUMSUM))
    assert sizes == [1025, 1025, 1025, 4099, 10001, 10001]


def test_equality_list_prefixes():
    assert equality_list(10) == [2, 3, 4, 5, 7, 9]
    assert equality_list(100) == [n for n in EQUALITY_LEVELS if n <= 100]
    assert equality_list(2000) == EQUALITY_LEVELS
    with pytest.raises(ValueError):
        equality_list(1)


def test_equality_list_definition_spot_check():
    # membership really means u(n) = totient_summatory(isqrt(n)); the range
    # takes in the blocks r = 38 … 141, which the block bound skips
    want = [n for n in range(2, 20001) if group_invariants(n).u == totient_summatory(isqrt(n))]
    assert equality_list(20000) == want


def test_block_bound_on_the_triangle_count():
    # 3u(n) = ψ(n) − v3(n) ≥ (√n − 1)²: equality_list skips a block r² ≤ n <
    # (r+1)² whole when (r − 1)² > 3Φ(r)
    for n in range(2, 20001):
        assert 3 * group_invariants(n).u >= (isqrt(n) - 1) ** 2, n


def test_equality_list_at_ten_to_the_ten():
    t0 = time.perf_counter()
    assert equality_list(10**10) == EQUALITY_LEVELS
    dt = time.perf_counter() - t0
    assert dt < 10, f"equality_list(10**10) took {dt:.1f}s"


# --- bounds and the exact search ---


def test_m_bounds_examples():
    assert m_bounds(17) == (4, True, 4)
    assert m_bounds(41) == (6, False, 7)
    assert m_bounds(8) == (2, False, None)
    # twin product: the upper bound also covers the larger factor
    assert m_bounds(143) == (11, False, 13)
    assert m_bounds(15) == (3, False, 5)


def test_m_exact_search_fixtures():
    assert m_exact_search(8) == 4
    assert m_exact_search(17) == 4
    assert m_exact_search(19) == 4
    assert m_exact_search(41) == 7


def test_m_exact_search_respects_bounds():
    for n in (13, 29, 41, 53):
        lower, lower_is_exact, upper = m_bounds(n)
        m = m_exact_search(n)
        assert lower <= m <= upper
        assert (m == lower) == lower_is_exact


def test_m_exact_search_default_has_no_budget():
    # composite levels with no closed-form upper bound, where the old
    # default budget of 2⌊√n⌋+2 ran out; m(2k) = k on this stretch
    for n in (22, 24, 26, 28, 30, 32, 34):
        assert m_bounds(n)[2] is None
        assert m_exact_search(n) == n // 2, n


def test_m_exact_search_budget():
    with pytest.raises(SearchExhausted):
        m_exact_search(41, max_bound=6)
    with pytest.raises(SearchExhausted):
        m_exact_search(173, max_bound=12)  # budget below the lower bound
    with pytest.raises(ValueError):
        m_exact_search(41, min_bound=0)
    with pytest.raises(ValueError, match=r"^max_bound must not be negative$"):
        m_exact_search(30, max_bound=-5)
    # no denominator is 0, so the empty budget ends the search before any
    # build; EXACT_DIGEST_BUDGETS_TO_1500 pins this answer at n = 2
    with pytest.raises(SearchExhausted, match=r"^no maximal polygon for n=2 with denominators <= 0$"):
        m_exact_search(2, max_bound=0)
    with pytest.raises(ValueError):
        m_exact_search(1)
    # re-proving from scratch finds the same value
    assert m_exact_search(17, min_bound=1) == 4


def test_ladder_needs_no_sqrt_floor():
    # the floor d(n), the orbit check and the gap search prove the lower
    # bound alone: starting from 1 instead of ⌊√n⌋ changes no value
    for n in range(2, 1001):
        assert m_exact_search(n, min_bound=1) == m_exact_search(n), n


@pytest.mark.parametrize("n", range(2, 36))
def test_admits_bound_matches_the_scan_search(n):
    m = reference_m_exact_search(n)
    for bound in range(isqrt(n), m + 1):
        expected = reference_admits_bound(n, bound)
        assert expected == (bound == m)
        assert _admits_bound(n, bound) == expected, bound


@pytest.mark.parametrize("cap", [0, 2, None])
def test_capped_memo_keeps_the_answers_of_the_scan_search(monkeypatch, cap):
    # past _GAP_SEARCH_MEMO the memo of failed states stops growing; a state
    # left out is searched again, so every answer of the scan search holds
    sizes = []

    class RecordedSet(set):
        def add(self, item):
            super().add(item)
            sizes.append(len(self))

    if cap is not None:
        monkeypatch.setattr(invariants, "_GAP_SEARCH_MEMO", cap)
    monkeypatch.setattr(invariants, "set", RecordedSet, raising=False)
    for n in range(2, 36):
        m = reference_m_exact_search(n)
        for bound in range(isqrt(n), m + 1):
            assert _admits_bound(n, bound) == reference_admits_bound(n, bound), (n, bound)
    if cap is None:
        assert max(sizes) > 2  # uncapped here, the memo grows past the caps above
    else:
        assert max(sizes, default=0) == cap


def test_m_exact_search_matches_the_scan_search_at_primes_and_prime_squares():
    levels = [n for n in range(2, 801) if prime_or_prime_square(n)]
    assert len(levels) == 148
    for n in levels:
        assert m_exact_search(n) == reference_m_exact_search(n), n


def test_m_exact_search_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"the exact search asked for recursion limit {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert m_exact_search(709) == 30


def test_triangle_names_meet_every_orbit():
    # the premise of the cover bound: the names of the triangles with
    # trivial stabiliser are the u(n) = (index − v3)/3 orbits, counted here
    # from index and v3 rather than read off the u formula
    for n in range(2, 201):
        inv = group_invariants(n)
        names = {name for s, name in takewhile(lambda t: t[0] <= n + 2, reference_triangle_names(n))}
        assert len(names) == (inv.index - inv.v3) // 3, n


def test_cover_bound_and_witness_bracket_the_gap_at_30():
    # the one level below 1500 where the cover bound is not attained by the
    # witness: smallest-mediant growth reaches 17, the search admits 15
    assert reference_cover_bound(30, group_invariants(30).u) == 15
    assert grow_maximal(30, "smallest-mediant").max_denominator() == 17
    assert m_exact_search(30) == 15
    assert m_exact_search(30, max_bound=15) == 15  # a budget below the witness
    assert m_exact_search(30, min_bound=16) == 16  # admissible, though not minimal


def test_witness_is_the_answer_when_the_gap_search_refuses_every_bound(monkeypatch):
    # below 1500 the gap search admits its first bound, so these exits are
    # reached only with a search that refuses every bound of the gap (15, 17)
    monkeypatch.setattr(invariants, "_admits_bound", lambda n, bound: False)
    assert m_exact_search(30) == 17
    message = r"^no maximal polygon for n=30 with denominators <= 16$"
    with pytest.raises(SearchExhausted, match=message):
        m_exact_search(30, max_bound=16)


def _peaks_of(P):
    """The sides (a, b) under the cusps of P with the largest denominator."""
    c, w = P.cusps, P.max_denominator()
    return [(c[i - 1].den, c[i + 1].den) for i in range(1, len(c) - 1) if c[i].den == w]


def counting_assembly(monkeypatch):
    """Count the calls to ``polygon._assemble``, the one check of every
    maximal-polygon builder, wherever it is bound."""
    calls = []
    assemble = gamma0.polygon._assemble

    def counted(n, nums, dens):
        calls.append(n)
        return assemble(n, nums, dens)

    monkeypatch.setattr(gamma0.polygon, "_assemble", counted)
    monkeypatch.setattr(gamma0.triples, "_assemble", counted)
    return calls


def test_optimal_and_twin_witnesses_are_checked_once(monkeypatch):
    # the construction checks its boundary; the exact search does not check
    # the same polygon again
    calls = counting_assembly(monkeypatch)
    for n, build, args in ((797, build_optimal_polygon, (797,)), (1147, build_twin_polygon, (31, 37))):
        calls.clear()
        w, peaks = _witness(n)
        assert calls == [n]
        calls.clear()
        P = build(*args)
        assert len(P) == group_invariants(n).u + 2 and w == P.max_denominator()
        assert peaks == _peaks_of(P)


def test_grown_witness_is_checked_once(monkeypatch):
    # growth checks its own boundary, and the exact search takes the grown
    # witness as it is
    calls = counting_assembly(monkeypatch)
    w, peaks = _witness(30)
    assert calls == [30]
    calls.clear()
    P = grow_maximal(30, "smallest-mediant")
    assert len(P) == group_invariants(30).u + 2 and w == P.max_denominator() == 17
    assert peaks == _peaks_of(P)


_BROKEN_WITNESS = """
import gamma0.triples
from gamma0.invariants import m_exact_search

gamma0.triples._upper_bound = lambda n: 10
try:
    m_exact_search(797)
except RuntimeError as exc:
    print(exc)
"""


def test_witness_check_runs_under_python_dash_O():
    # python -O strips asserts; the one check of the optimal witness raises
    src = os.path.dirname(os.path.dirname(gamma0.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_WITNESS], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "denominator bound 10 broken at n=797\n"


_BROKEN_GROWTH = """
import gamma0.polygon as polygon

polygon._classify_all = lambda n, cusps: (
    [1] + [polygon.FREE] * (len(cusps) - 2) + [1],
    [len(cusps) - 1] + [-1] * (len(cusps) - 2) + [0],
)
try:
    P = polygon.grow_maximal(30, "smallest-mediant")
except RuntimeError as exc:
    print(exc)
else:
    print(len(P.cusps), len(P.free_sides()))
"""


def test_growth_check_runs_under_python_dash_O():
    # python -O strips asserts; growth's one check of its polygon raises
    src = os.path.dirname(os.path.dirname(gamma0.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_GROWTH], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "construction left free sides at n=30\n"


def test_budget_stops_the_cover_walk():
    # the search stops before any build, at d(6000) = 3000 > 100; the
    # reference walk itself stops at the budget instead of pairing every
    # triangle up to the cover bound, far past 100
    t0 = time.perf_counter()
    message = r"^no maximal polygon for n=6000 with denominators <= 100$"
    with pytest.raises(SearchExhausted, match=message):
        m_exact_search(6000, max_bound=100)
    dt = time.perf_counter() - t0
    assert dt < 2, f"exhaustion at n=6000 took {dt:.1f}s"
    assert reference_cover_bound(6000, group_invariants(6000).u, 100) == 101


def test_search_passes_its_budget_to_the_gap_search(monkeypatch):
    # the gap search runs only where the orbit check fails, and then stops at
    # the budget: at 30 the floor d = 15 is below the witness 17, whose peak
    # orbit is met below 17, so the search tries 15 and admits it; refusing
    # every bound, it tries 15 and 16 and stops at the budget 16.  At 41 the
    # start ⌊√41⌋ = 6 is the budget, below the witness 7, and the orbit check
    # alone lifts the floor past the budget, so the search is never called
    calls = []
    admits_bound = invariants._admits_bound

    def recording(n, bound):
        calls.append((n, bound))
        return admits_bound(n, bound)

    monkeypatch.setattr(invariants, "_admits_bound", recording)
    assert m_exact_search(30, max_bound=16) == 15
    assert calls == [(30, 15)]
    calls.clear()
    message = r"^no maximal polygon for n=41 with denominators <= 6$"
    with pytest.raises(SearchExhausted, match=message):
        m_exact_search(41, max_bound=6)
    assert calls == []

    def refusing(n, bound):
        calls.append(bound)
        return False

    monkeypatch.setattr(invariants, "_admits_bound", refusing)
    message = r"^no maximal polygon for n=30 with denominators <= 16$"
    with pytest.raises(SearchExhausted, match=message):
        m_exact_search(30, max_bound=16)
    assert calls == [15, 16]


def test_orbit_rung_certifies_only_the_cover_bound():
    # wherever the ladder hands the rung a level (the floor below the
    # witness), an unmet peak orbit must mean the reference cover bound
    # reaches w too; on this range only n = 30 is left to the gap search,
    # and there the cover bound is the floor, so the search starts at c(30)
    levels = list(range(2, 1001)) + [
        n for n in range(1001, 5001) if prime_or_prime_square(n) or twin_factors(n)
    ]
    undecided = []
    for n in levels:
        u = group_invariants(n).u
        w, peaks = _witness(n)
        if max(isqrt(n), _cusp_divisor_bound(n)) < w:
            if all(_orbit_met_below(n, a, b) for a, b in peaks):
                undecided.append(n)
            else:
                assert reference_cover_bound(n, u) == w, n
    assert undecided == [30]
    assert reference_cover_bound(30, group_invariants(30).u) == _cusp_divisor_bound(30) == 15


def _walk_names(n, top):
    """Each triangle (a, b) of mediant ≤ top that the walk names, with its
    name and the least mediant at which the walk names that orbit."""
    key = _key_function(n)
    first = {}
    for s, name in takewhile(lambda t: t[0] <= top, reference_triangle_names(n)):
        first.setdefault(name, s)
    for s in range(2, top + 1):
        for a in range(1, s):
            b = s - a
            if gcd(a, b) == 1 and (a * a + a * b + b * b) % n:
                name = min(_triangle_keys(key, a, b))
                yield a, b, first[name]


@pytest.mark.parametrize("n,top", [(7, 9), (12, 14), (30, 32), (36, 20), (49, 20), (121, 16), (143, 17)])
def test_orbit_rung_agrees_with_the_walk_triangle_by_triangle(n, top):
    # the rung reports a triangle's orbit met iff the walk names that orbit
    # at a smaller mediant; the base orbit comes back by mediant n + 1, and
    # every level here reaches an x that shares a prime with n
    for a, b, first in _walk_names(n, top):
        assert _orbit_met_below(n, a, b) == (first < a + b), (n, a, b)


def test_orbit_rung_reports_the_gap_at_30_met():
    # m(30) = 15 < w = 17: every peak orbit of the witness has a lower lift,
    # and so does the first triangle whose orbit the walk named earlier
    w, peaks = _witness(30)
    assert w == 17 and peaks
    assert all(_orbit_met_below(30, a, b) for a, b in peaks)
    a, b = next((a, b) for a, b, first in _walk_names(30, 17) if first < a + b)
    assert _orbit_met_below(30, a, b)


def test_exact_m_at_primes_and_prime_squares_needs_no_gap_search(monkeypatch):
    # the rung decides every prime and prime square in [37, 5000]; a gap
    # search there would raise
    levels = [n for n in range(37, 5001) if prime_or_prime_square(n)]
    expected = [m_exact_search(n) for n in levels]

    def refuse(n, bound):
        raise AssertionError(f"the gap search ran at n={n}")

    monkeypatch.setattr(invariants, "_admits_bound", refuse)
    assert m_exact_search(41) == 7
    assert [m_exact_search(n) for n in levels] == expected


def test_cusp_divisor_bound_stays_under_the_cover_bound():
    # d(n) = n/p ≤ m(n) is a theorem; below 400 it never exceeds c(n), so
    # raising the search's start to d changes no certified value there
    for n in range(2, 401):
        d = _cusp_divisor_bound(n)
        assert d == max(k for k in range(1, n) if n % k == 0), n
        assert d <= reference_cover_bound(n, group_invariants(n).u), n


@pytest.mark.parametrize("n,m", [(9996, 4998), (10010, 5005)])
def test_cusp_divisor_bound_certifies_composite_levels_without_the_cover_walk(n, m):
    # the witness meets d(n) = n/2 here; the reference cover walk would pair
    # about (3/π²)·(n/2)² triangles
    t0 = time.perf_counter()
    assert m_exact_search(n) == m
    dt = time.perf_counter() - t0
    assert dt < 5, f"exact m at n={n} took {dt:.1f}s"


def test_gap_search_stops_at_its_node_cap(monkeypatch):
    assert m_exact_search(30) == 15
    monkeypatch.setattr(invariants, "_GAP_SEARCH_NODES", 10)
    with pytest.raises(SearchExhausted, match=r"n=30 .* 10 nodes.*gap \(c, w\) = \(15, 17\)"):
        m_exact_search(30)


def test_keyed_deepening_equals_the_certified_search():
    # m_exact_search settles these levels without calling _admits_bound, so
    # the keyed search, deepened from ⌊√n⌋ one bound at a time, is checked here
    levels = list(range(2, 40)) + [n for n in range(37, 801) if prime_or_prime_square(n)]
    assert len(levels) == 38 + 134
    for n in levels:
        m = next(b for b in count(isqrt(n)) if _admits_bound(n, b))
        assert m_exact_search(n) == m, n


def test_characterisations_at_primes_and_prime_squares_to_5000():
    # criterion 5 checks these up to 300; the certified search reaches further
    levels = [n for n in range(37, 5001) if prime_or_prime_square(n)]
    assert len(levels) == 674
    for n in levels:
        m = m_exact_search(n)
        assert (m == isqrt(n)) == (group_invariants(n).u == totient_summatory(isqrt(n))), n
        assert (m == isqrt(4 * n // 3)) == (cashew_certificate(n) is not None), n


_EXACT_UNDER_512MIB = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from itertools import count
from gamma0.invariants import _admits_bound, m_exact_search
print(m_exact_search(40))
print(next(b for b in count(6) if _admits_bound(40, b)))
"""


def test_exact_search_memory_grows_with_the_answer():
    # At composite levels the memo of failed states dominates memory.  The
    # certified search settles n = 40 without searching (cover = witness =
    # 20), so the child process also deepens the keyed search from ⌊√40⌋ = 6
    # until it admits 20.  It runs capped at 512 MiB of address space, so a
    # regression fails there with MemoryError instead of straining the host.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(gamma0.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_UNDER_512MIB],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["20", "20"]
