"""Prime fields ``F_p``.

The field is represented by a :class:`PrimeField` context object whose
elements are plain integers in ``[0, p)``.  This is the coefficient domain
of the paper's ``F_p[x]/(x^{p-1} - 1)`` encoding ring and the share domain
of Shamir secret sharing (:mod:`repro.sharing.shamir`).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from .kernels import FpKernel, kernels_enabled
from .modint import modinv
from .primes import is_prime
from .rings import CoefficientRing
from .vkernels import vector_kernel_for, vector_kernels_enabled

__all__ = ["PrimeField"]


class PrimeField(CoefficientRing):
    """The finite field ``F_p`` for a prime ``p``.

    Elements are integers reduced into ``[0, p)``.  The class implements the
    :class:`~repro.algebra.rings.CoefficientRing` interface so generic
    polynomial code works over it unchanged.
    """

    def __init__(self, p: int, check_prime: bool = True) -> None:
        if p < 2:
            raise ValueError("field characteristic must be at least 2")
        if check_prime and not is_prime(p):
            raise ValueError(f"{p} is not prime; use ExtensionField for prime powers")
        self.p = p
        self.name = f"F_{p}"
        self._kernel = FpKernel(p)
        self._vkernel = vector_kernel_for(p)

    # -- constants ---------------------------------------------------------
    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1 % self.p

    # -- arithmetic --------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def invert(self, a: int) -> int:
        return modinv(a, self.p)

    def exact_divide(self, a: int, b: int) -> int:
        if b % self.p == 0:
            return None
        return (a * modinv(b, self.p)) % self.p

    def pow(self, a: int, exponent: int) -> int:
        """``a ** exponent`` in the field (negative exponents allowed)."""
        if exponent < 0:
            a = self.invert(a)
            exponent = -exponent
        return pow(a % self.p, exponent, self.p)

    # -- structure ---------------------------------------------------------
    def canonical(self, a: int) -> int:
        return int(a) % self.p

    def is_field(self) -> bool:
        return True

    def kernel(self) -> Optional[FpKernel]:
        """Fastest available kernel tier: vectorized → flat → None.

        The vectorized tier is advertised only when numpy imported, ``p``
        fits the native limb (both decided at construction) and both the
        :func:`use_kernels` and :func:`use_vector_kernels` switches are on;
        otherwise the flat :class:`FpKernel` (or, with kernels disabled
        entirely, the generic reference path) applies.
        """
        if not kernels_enabled():
            return None
        if self._vkernel is not None and vector_kernels_enabled():
            return self._vkernel
        return self._kernel

    def order(self) -> int:
        """Number of elements in the field."""
        return self.p

    def elements(self) -> Iterable[int]:
        """Iterate over all field elements (only sensible for small ``p``)."""
        return range(self.p)

    def multiplicative_order(self, a: int) -> int:
        """Order of ``a`` in the multiplicative group ``F_p^*``."""
        a %= self.p
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        order = 1
        current = a
        while current != 1:
            current = current * a % self.p
            order += 1
        return order

    def primitive_root(self) -> int:
        """Smallest generator of ``F_p^*`` (brute force; fine for small p)."""
        from .primes import prime_factors

        if self.p == 2:
            return 1
        group_order = self.p - 1
        factors = prime_factors(group_order)
        for candidate in range(2, self.p):
            if all(pow(candidate, group_order // q, self.p) != 1 for q in factors):
                return candidate
        raise RuntimeError("no primitive root found (p is not prime?)")

    # -- auxiliary ----------------------------------------------------------
    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def random_nonzero(self, rng: random.Random) -> int:
        if self.p == 2:
            return 1
        return rng.randrange(1, self.p)

    def element_bits(self, a: int) -> int:
        return max(1, (self.p - 1).bit_length())

    def format_element(self, a: int) -> str:
        return str(a % self.p)

    # -- equality ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return other is self or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))
