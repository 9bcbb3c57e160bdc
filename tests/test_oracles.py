"""Brute-force oracles: partition counts, the pentagonal recurrence, and
quadratic-residue classification."""

import pytest

from qbracelet.oracles import (
    MR_EXACT_BELOW,
    count_l_regular,
    count_partitions,
    is_prime,
    legendre_symbol,
    partition_numbers,
)


def test_partition_small_values():
    assert count_partitions(0) == 1
    assert count_partitions(4) == 5  # 4, 31, 22, 211, 1111
    assert count_partitions(9) == 30


def test_partition_budget():
    with pytest.raises(ValueError):
        count_partitions(61)
    with pytest.raises(ValueError):
        count_partitions(-1)


def test_recurrence_matches_enumeration():
    p = partition_numbers(40)
    assert p[:6] == [1, 1, 2, 3, 5, 7]
    for n in range(41):
        assert p[n] == count_partitions(n)


def test_recurrence_ramanujan_congruences():
    p = partition_numbers(5 * 100 + 4)
    assert all(p[5 * n + 4] % 5 == 0 for n in range(101))
    assert all(p[7 * n + 5] % 7 == 0 for n in range(60))
    assert all(p[11 * n + 6] % 11 == 0 for n in range(46))


def test_l_regular_counts():
    assert count_l_regular(5, 5) == 6  # 41, 32, 311, 221, 2111, 11111
    assert count_l_regular(2, 0) == 1
    with pytest.raises(ValueError):
        count_l_regular(1, 3)


def test_l_regular_matches_series():
    from qbracelet import gen_l_regular

    for ell in (2, 3, 5, 7):
        series = gen_l_regular(ell, 40)
        for n in range(41):
            assert series.coeffs[n] == count_l_regular(ell, n)


def test_legendre_basics():
    assert legendre_symbol(1, 7) == 1
    assert legendre_symbol(0, 5) == 0
    # squares mod 17 are {1,2,4,8,9,13,15,16}; -10 = 7 is not among them
    assert legendre_symbol(-10, 17) == -1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre_symbol(3, 15)
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)


def test_legendre_multiplicative():
    import random

    rng = random.Random(17)
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97]
    for _ in range(200):
        p = rng.choice(primes)
        a = rng.randrange(-100, 100)
        b = rng.randrange(-100, 100)
        assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


def test_legendre_matches_square_sets():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97]:
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, p) == expect


def test_is_prime():
    primes_below_100 = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        67, 71, 73, 79, 83, 89, 97,
    ]
    assert [n for n in range(100) if is_prime(n)] == primes_below_100
    assert not is_prime(10007 * 10007)
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(2, 10**5) if all(n % d for d in range(2, int(n**0.5) + 1))
    ]


def test_is_prime_large_and_at_the_bound():
    assert is_prime(2**61 - 1)
    assert is_prime(10**14 + 31)
    # strong pseudoprimes to the primes up to 23 and up to 37 respectively
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="primality is only decided below"):
        is_prime(MR_EXACT_BELOW)
