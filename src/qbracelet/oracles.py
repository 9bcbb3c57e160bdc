"""Independent brute-force computations used to validate the series engine.

Nothing here touches the series kernel: partition counts come from direct
combinatorial recursion, p(n) additionally from the pentagonal-number
recurrence, and quadratic-residue status from Euler's criterion.
"""

from __future__ import annotations

from functools import lru_cache

ENUMERATION_LIMIT = 60


# Miller-Rabin over the primes up to 41 as bases has no strong pseudoprime
# below this bound (Sorenson and Webster, 2017), so the test is exact there
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError from ``MR_EXACT_BELOW`` on."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"primality is only decided below {MR_EXACT_BELOW}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _count_with_max_part(n: int, largest: int) -> int:
    if n == 0:
        return 1
    if largest == 0:
        return 0
    total = 0
    part = min(largest, n)
    while part >= 1:
        total += _count_with_max_part(n - part, part)
        part -= 1
    return total


def count_partitions(n: int) -> int:
    """Number of partitions of n, by direct enumeration of the search tree."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration budget is n <= {ENUMERATION_LIMIT}")
    return _count_with_max_part(n, n)


@lru_cache(maxsize=None)
def _count_regular(n: int, largest: int, ell: int) -> int:
    if n == 0:
        return 1
    if largest == 0:
        return 0
    total = 0
    part = min(largest, n)
    while part >= 1:
        if part % ell != 0:
            total += _count_regular(n - part, part, ell)
        part -= 1
    return total


def count_l_regular(ell: int, n: int) -> int:
    """Partitions of n with no part divisible by ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration budget is n <= {ENUMERATION_LIMIT}")
    return _count_regular(n, n, ell)


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) via the pentagonal recurrence
    p(n) = sum_{k>=1} (-1)^{k+1} [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion a^((p-1)/2) mod p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1
