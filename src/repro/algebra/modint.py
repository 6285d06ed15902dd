"""Elementary modular arithmetic used throughout the library.

All functions operate on plain Python integers.  They are the numeric
bedrock for the prime fields (:mod:`repro.algebra.fp`), the quotient rings
used by the encoding scheme (:mod:`repro.algebra.quotient`) and the Shamir
secret sharing substrate (:mod:`repro.sharing.shamir`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = [
    "egcd",
    "modinv",
    "modpow",
    "crt_pair",
    "crt",
    "int_nth_root",
    "is_perfect_power",
    "legendre_symbol",
    "tonelli_shanks",
]


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.
    The gcd ``g`` is always non-negative.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``m``.

    Raises :class:`ZeroDivisionError` when ``gcd(a, m) != 1``.
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    a %= m
    g, x, _ = egcd(a, m)
    if g != 1:
        raise ZeroDivisionError(f"{a} is not invertible modulo {m} (gcd={g})")
    return x % m


def modpow(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation supporting negative exponents.

    For negative exponents the base must be invertible modulo ``modulus``.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if exponent < 0:
        base = modinv(base, modulus)
        exponent = -exponent
    return pow(base, exponent, modulus)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> Tuple[int, int]:
    """Combine two congruences ``x ≡ r1 (mod m1)`` and ``x ≡ r2 (mod m2)``.

    Returns ``(r, m)`` with ``m = lcm(m1, m2)`` describing the combined
    congruence.  Raises :class:`ValueError` when the congruences are
    incompatible.
    """
    g, p, _ = egcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("incompatible congruences")
    lcm = m1 // g * m2
    diff = (r2 - r1) // g
    r = (r1 + m1 * (diff * p % (m2 // g))) % lcm
    return r, lcm


def crt(residues: Sequence[int], moduli: Sequence[int]) -> Tuple[int, int]:
    """Chinese remainder theorem for an arbitrary list of congruences."""
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have the same length")
    if not residues:
        raise ValueError("need at least one congruence")
    r, m = residues[0] % moduli[0], moduli[0]
    for r2, m2 in zip(residues[1:], moduli[1:]):
        r, m = crt_pair(r, m, r2, m2)
    return r, m


def int_nth_root(n: int, k: int) -> int:
    """Floor of the ``k``-th root of a non-negative integer ``n``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k <= 0:
        raise ValueError("k must be positive")
    if n in (0, 1) or k == 1:
        return n
    hi = 1 << ((n.bit_length() + k - 1) // k + 1)
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def is_perfect_power(n: int) -> Tuple[int, int]:
    """Decompose ``n`` as ``base ** exponent`` with the largest exponent.

    Returns ``(base, exponent)``; for numbers that are not perfect powers the
    exponent is 1.  Used to recognise prime powers ``q = p**e``.
    """
    if n < 2:
        return n, 1
    for k in range(n.bit_length(), 1, -1):
        root = int_nth_root(n, k)
        if root >= 2 and root ** k == n:
            base, exp = is_perfect_power(root)
            return base, exp * k
    return n, 1


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol ``(a/p)`` for an odd prime ``p``: 1, -1 or 0."""
    a %= p
    if a == 0:
        return 0
    result = pow(a, (p - 1) // 2, p)
    return -1 if result == p - 1 else result


def tonelli_shanks(a: int, p: int) -> int:
    """Square root of ``a`` modulo an odd prime ``p``.

    Raises :class:`ValueError` if ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if legendre_symbol(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Factor p-1 as q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z.
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i with t^(2^i) == 1.
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r
