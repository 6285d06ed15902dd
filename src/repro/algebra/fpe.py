"""Extension fields ``F_{p^e}``.

The paper states its construction for prime powers ``q = p^e`` but only
proves the prime case.  For completeness the library ships a small
extension-field implementation: elements are tuples of ``e`` integers
(coefficients over ``F_p`` of a residue polynomial modulo an irreducible
modulus).  The encoding scheme itself defaults to prime fields; the
extension field is mainly exercised by tests and by users who want
``q = p^e`` tag spaces.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from ..errors import AlgebraError
from .fp import PrimeField
from .kernels import kernels_enabled
from .poly import Polynomial, is_irreducible_mod_p
from .primes import is_prime
from .rings import CoefficientRing

__all__ = ["ExtensionField", "find_irreducible_polynomial"]


def find_irreducible_polynomial(p: int, degree: int,
                                rng: Optional[random.Random] = None) -> Polynomial:
    """A monic irreducible polynomial of the given degree over ``F_p``."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    field = PrimeField(p)
    if degree == 1:
        return Polynomial([0, 1], field)
    rng = rng or random.Random(0x5EED ^ (p << 8) ^ degree)
    # Try a few structured candidates first for reproducibility.
    structured = [
        Polynomial([1] + [0] * (degree - 1) + [1], field),          # x^d + 1
        Polynomial([1, 1] + [0] * (degree - 2) + [1], field),       # x^d + x + 1
        Polynomial([field.p - 1, 1] + [0] * (degree - 2) + [1], field),
    ]
    for candidate in structured:
        if candidate.degree == degree and is_irreducible_mod_p(candidate, p):
            return candidate
    for _ in range(4096):
        coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
        candidate = Polynomial(coeffs, field)
        if candidate.degree == degree and is_irreducible_mod_p(candidate, p):
            return candidate
    raise AlgebraError(f"could not find an irreducible polynomial of degree {degree} over F_{p}")


class ExtensionField(CoefficientRing):
    """The finite field ``F_{p^e}`` as ``F_p[y]/(m(y))``.

    Elements are tuples of ``e`` integers in ``[0, p)`` holding the
    coefficients of the residue polynomial in ascending degree order.
    """

    def __init__(self, p: int, e: int,
                 modulus: Optional[Polynomial] = None) -> None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("the extension degree must be at least 1")
        self.p = p
        self.e = e
        self.base = PrimeField(p)
        if modulus is None:
            modulus = find_irreducible_polynomial(p, e)
        if modulus.degree != e:
            raise ValueError("modulus degree must equal the extension degree")
        if not is_irreducible_mod_p(modulus, p):
            raise AlgebraError(f"{modulus} is not irreducible over F_{p}")
        self.modulus = Polynomial([int(c) % p for c in modulus.coeffs], self.base)
        self.name = f"F_{p}^{e}" if e > 1 else f"F_{p}"
        # Remainders y^k mod m(y) for k in [e, 2e-2]: the degrees produced by
        # multiplying two residues.  With them, field multiplication is one
        # convolution plus a linear folding pass instead of a Polynomial
        # divmod per product.  The modulus need not be monic: dividing the
        # low coefficients by the leading one gives y^e = -low/lead.
        self._mul_rows: List[Tuple[int, ...]] = []
        if e > 1:
            lead_inv = self.base.invert(self.modulus.coeffs[e])
            low = [(int(c) * lead_inv) % p for c in self.modulus.coeffs[:e]]
            row = [(-c) % p for c in low]
            self._mul_rows.append(tuple(row))
            for _ in range(e - 2):
                top = row[e - 1]
                row = [0] + row[:e - 1]
                for j in range(e):
                    row[j] = (row[j] - top * low[j]) % p
                self._mul_rows.append(tuple(row))

    # -- element plumbing ------------------------------------------------------
    def _as_tuple(self, value) -> Tuple[int, ...]:
        if isinstance(value, tuple):
            padded = list(value) + [0] * (self.e - len(value))
            return tuple(int(c) % self.p for c in padded[: self.e])
        if isinstance(value, (list,)):
            return self._as_tuple(tuple(value))
        # Plain integers embed as constants.
        return tuple([int(value) % self.p] + [0] * (self.e - 1))

    def _to_poly(self, value: Tuple[int, ...]) -> Polynomial:
        return Polynomial(list(value), self.base)

    def _from_poly(self, poly: Polynomial) -> Tuple[int, ...]:
        reduced = poly % self.modulus
        coeffs = list(reduced.coeffs) + [0] * (self.e - len(reduced.coeffs))
        return tuple(coeffs[: self.e])

    # -- constants ---------------------------------------------------------------
    @property
    def zero(self) -> Tuple[int, ...]:
        return tuple([0] * self.e)

    @property
    def one(self) -> Tuple[int, ...]:
        return tuple([1 % self.p] + [0] * (self.e - 1))

    # -- arithmetic -----------------------------------------------------------------
    def add(self, a, b) -> Tuple[int, ...]:
        a, b = self._as_tuple(a), self._as_tuple(b)
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b) -> Tuple[int, ...]:
        a, b = self._as_tuple(a), self._as_tuple(b)
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a) -> Tuple[int, ...]:
        return tuple((-x) % self.p for x in self._as_tuple(a))

    def mul(self, a, b) -> Tuple[int, ...]:
        a, b = self._as_tuple(a), self._as_tuple(b)
        if not kernels_enabled():
            return self._from_poly(self._to_poly(a) * self._to_poly(b))
        p, e = self.p, self.e
        if e == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = conv[:e]
        for k in range(e, 2 * e - 1):
            c = conv[k]
            if c:
                row = self._mul_rows[k - e]
                for j in range(e):
                    out[j] += c * row[j]
        return tuple(v % p for v in out)

    def invert(self, a) -> Tuple[int, ...]:
        a = self._as_tuple(a)
        if all(c == 0 for c in a):
            raise ZeroDivisionError("0 has no inverse in the extension field")
        # Extended Euclid over F_p[y].
        r0, r1 = self.modulus, self._to_poly(a)
        s0, s1 = Polynomial.zero(self.base), Polynomial.one(self.base)
        while not r1.is_zero():
            quotient, remainder = r0.divmod(r1)
            r0, r1 = r1, remainder
            s0, s1 = s1, s0 - quotient * s1
        if r0.degree != 0:
            raise ZeroDivisionError("element shares a factor with the modulus")
        scale = self.base.invert(r0.constant_term)
        return self._from_poly(s0 * scale)

    def exact_divide(self, a, b):
        try:
            return self.mul(a, self.invert(b))
        except ZeroDivisionError:
            return None

    def pow(self, a, exponent: int) -> Tuple[int, ...]:
        """``a ** exponent`` (negative exponents use the inverse)."""
        if exponent < 0:
            a = self.invert(a)
            exponent = -exponent
        result = self.one
        base = self._as_tuple(a)
        while exponent:
            if exponent & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            exponent >>= 1
        return result

    # -- structure -------------------------------------------------------------------
    def canonical(self, a) -> Tuple[int, ...]:
        return self._as_tuple(a)

    def is_field(self) -> bool:
        return True

    def order(self) -> int:
        """Number of elements ``p^e``."""
        return self.p ** self.e

    def elements(self) -> Iterator[Tuple[int, ...]]:
        """Iterate over all field elements (only sensible for tiny fields)."""
        def _rec(prefix: List[int]) -> Iterator[Tuple[int, ...]]:
            if len(prefix) == self.e:
                yield tuple(prefix)
                return
            for value in range(self.p):
                yield from _rec(prefix + [value])

        return _rec([])

    # -- auxiliary ----------------------------------------------------------------------
    def random_element(self, rng: random.Random) -> Tuple[int, ...]:
        return tuple(rng.randrange(self.p) for _ in range(self.e))

    def element_bits(self, a) -> int:
        return self.e * max(1, (self.p - 1).bit_length())

    def format_element(self, a) -> str:
        a = self._as_tuple(a)
        if all(c == 0 for c in a[1:]):
            return str(a[0])
        return "(" + ",".join(str(c) for c in a) + ")"

    def from_int(self, value: int) -> Tuple[int, ...]:
        """Embed an integer by its base-``p`` digits (a bijection onto the field)."""
        digits = []
        v = int(value) % self.order()
        for _ in range(self.e):
            digits.append(v % self.p)
            v //= self.p
        return tuple(digits)

    def to_int(self, a) -> int:
        """Inverse of :meth:`from_int`."""
        a = self._as_tuple(a)
        return sum(c * self.p ** i for i, c in enumerate(a))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.e == self.e and other.modulus == self.modulus)

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.p, self.e, self.modulus.coeffs))
