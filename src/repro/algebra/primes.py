"""Primality testing and prime generation.

The encoding ring ``F_p[x]/(x^{p-1} - 1)`` of the paper requires a prime
``p`` strictly larger than the number of distinct tag names; the
``Z[x]/(r(x))`` ring requires an irreducible ``r``.  This module provides
the deterministic Miller--Rabin test used to pick such primes, a simple
sieve for small-prime enumeration, and helpers to recognise prime powers
``q = p**e`` (the paper states the general case for prime powers but gives
proofs for primes).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .modint import is_perfect_power

__all__ = [
    "is_prime",
    "next_prime",
    "previous_prime",
    "random_prime",
    "primes_below",
    "prime_factors",
    "factorize",
    "is_prime_power",
    "smallest_prime_at_least",
]

# Deterministic Miller-Rabin witness sets (Sinclair / Jaeschke bounds).
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """Return True when ``a`` witnesses the compositeness of ``n``."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, rounds: int = 32, rng: Optional[random.Random] = None) -> bool:
    """Miller--Rabin primality test.

    Deterministic for ``n`` below ~3.3e24, probabilistic with ``rounds``
    random bases beyond that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_LIMIT:
        bases: Tuple[int, ...] = _DETERMINISTIC_BASES
    else:
        rng = rng or random.Random(0xC0FFEE ^ n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(rounds))
    return not any(_miller_rabin_witness(n, a % n) for a in bases if a % n > 1)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = max(n + 1, 2)
    if candidate == 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def smallest_prime_at_least(n: int) -> int:
    """Smallest prime greater than or equal to ``n``."""
    if n <= 2:
        return 2
    return n if is_prime(n) else next_prime(n)


def previous_prime(n: int) -> int:
    """Largest prime strictly smaller than ``n``; raises for ``n <= 2``."""
    if n <= 2:
        raise ValueError("there is no prime below 2")
    candidate = n - 1
    if candidate == 2:
        return 2
    if candidate % 2 == 0:
        candidate -= 1
    while candidate > 2 and not is_prime(candidate):
        candidate -= 2
    return candidate


def random_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Random prime with exactly ``bits`` bits (``bits >= 2``)."""
    if bits < 2:
        raise ValueError("bits must be at least 2")
    rng = rng or random.Random()
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


def primes_below(limit: int) -> List[int]:
    """All primes strictly below ``limit`` (sieve of Eratosthenes)."""
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:limit:i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(limit) if sieve[i]]


def factorize(n: int) -> List[Tuple[int, int]]:
    """Prime factorisation of ``n`` as a list of ``(prime, exponent)`` pairs.

    Trial division followed by Pollard's rho; adequate for the moduli sizes
    used in this library (at most a few hundred bits).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return []
    factors: dict = {}

    def _record(p: int) -> None:
        factors[p] = factors.get(p, 0) + 1

    def _pollard_rho(m: int) -> int:
        if m % 2 == 0:
            return 2
        rng = random.Random(m)
        while True:
            x = rng.randrange(2, m)
            y, c, d = x, rng.randrange(1, m), 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = _gcd(abs(x - y), m)
            if d != m:
                return d

    def _gcd(a: int, b: int) -> int:
        while b:
            a, b = b, a % b
        return a

    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            _record(m)
            continue
        # Strip small factors first.
        reduced = m
        for p in _SMALL_PRIMES:
            while reduced % p == 0:
                _record(p)
                reduced //= p
        if reduced == 1:
            continue
        if is_prime(reduced):
            _record(reduced)
            continue
        d = _pollard_rho(reduced)
        stack.append(d)
        stack.append(reduced // d)
    return sorted(factors.items())


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of ``n`` in increasing order."""
    return [p for p, _ in factorize(n)]


def is_prime_power(q: int) -> Optional[Tuple[int, int]]:
    """Return ``(p, e)`` when ``q == p**e`` for a prime ``p``, else ``None``."""
    if q < 2:
        return None
    base, exponent = is_perfect_power(q)
    if is_prime(base):
        return base, exponent
    return None
