"""Group invariants and the denominator measure m(Gamma0(n)).

The closed-form invariants are cross-checked against brute-force counts:
solution counting for the elliptic point numbers, unimodular-pair counting
for the index, and triangle counting on grown polygons for u(n).
"""

from math import gcd, isqrt

import pytest

from gamma0.invariants import (
    GroupInvariants,
    SearchExhausted,
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


# --- totient summatory and the equality list ---


def test_totient_summatory_brute_force():
    acc = 0
    for k in range(1, 400):
        acc += euler_phi(k)
        assert totient_summatory(k) == acc
    assert totient_summatory(100) == 3044
    with pytest.raises(ValueError):
        totient_summatory(0)


def test_equality_list_prefixes():
    assert equality_list(10) == [2, 3, 4, 5, 7, 9]
    assert equality_list(100) == [n for n in EQUALITY_LEVELS if n <= 100]
    assert equality_list(2000) == EQUALITY_LEVELS
    with pytest.raises(ValueError):
        equality_list(1)


def test_equality_list_definition_spot_check():
    # membership really means u(n) = totient_summatory(isqrt(n))
    members = set(equality_list(300))
    for n in range(2, 300):
        expected = group_invariants(n).u == totient_summatory(isqrt(n))
        assert (n in members) == expected, n


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
    with pytest.raises(ValueError):
        m_exact_search(1)
    # re-proving from scratch finds the same value
    assert m_exact_search(17, min_bound=1) == 4
