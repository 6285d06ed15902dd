"""Dense univariate polynomials over an arbitrary coefficient ring.

This is the workhorse data structure of the reproduction: XML elements are
encoded as polynomials (§4.1 of the paper), shares of elements are random
polynomials (§4.2), and queries are evaluated by substituting points into
polynomials (§4.3).

A :class:`Polynomial` is an immutable value: a tuple of coefficients in
*ascending* degree order together with the coefficient ring they live in
(:class:`~repro.algebra.rings.CoefficientRing`).  The zero polynomial has an
empty coefficient tuple and degree ``-1``.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, List, Sequence, Tuple

from .rings import CoefficientRing, ZZ

__all__ = ["Polynomial", "poly_gcd", "is_irreducible_mod_p"]


class Polynomial:
    """Immutable dense polynomial ``c0 + c1*x + ... + cn*x^n`` over a ring.

    Arithmetic dispatches to the ring's flat coefficient kernel
    (:meth:`CoefficientRing.kernel`) when one is advertised; the inline
    per-element implementations below remain the reference semantics and
    serve rings without a kernel.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, coeffs: Iterable[Any], ring: CoefficientRing = ZZ) -> None:
        canonical = [ring.canonical(c) for c in coeffs]
        while canonical and ring.is_zero(canonical[-1]):
            canonical.pop()
        self.ring = ring
        self.coeffs: Tuple[Any, ...] = tuple(canonical)

    @classmethod
    def _from_canonical(cls, coeffs: Iterable[Any],
                        ring: CoefficientRing) -> "Polynomial":
        """Wrap already-canonical, trimmed coefficients (kernel outputs)."""
        poly = object.__new__(cls)
        poly.ring = ring
        poly.coeffs = tuple(coeffs)
        return poly

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, ring: CoefficientRing = ZZ) -> "Polynomial":
        """The zero polynomial."""
        return cls((), ring)

    @classmethod
    def one(cls, ring: CoefficientRing = ZZ) -> "Polynomial":
        """The constant polynomial 1."""
        return cls((ring.one,), ring)

    @classmethod
    def constant(cls, value: Any, ring: CoefficientRing = ZZ) -> "Polynomial":
        """A constant polynomial."""
        return cls((value,), ring)

    @classmethod
    def x(cls, ring: CoefficientRing = ZZ) -> "Polynomial":
        """The monomial ``x``."""
        return cls((ring.zero, ring.one), ring)

    @classmethod
    def monomial(cls, degree: int, coefficient: Any = None,
                 ring: CoefficientRing = ZZ) -> "Polynomial":
        """The monomial ``coefficient * x**degree``."""
        if degree < 0:
            raise ValueError("degree must be non-negative")
        coefficient = ring.one if coefficient is None else coefficient
        return cls([ring.zero] * degree + [coefficient], ring)

    @classmethod
    def from_roots(cls, roots: Sequence[Any], ring: CoefficientRing = ZZ) -> "Polynomial":
        """Monic polynomial ``prod (x - root)`` — the paper's leaf/inner encoding."""
        result = cls.one(ring)
        for root in roots:
            result = result * cls((ring.neg(ring.coerce(root)), ring.one), ring)
        return result

    @classmethod
    def linear_root(cls, root: Any, ring: CoefficientRing = ZZ) -> "Polynomial":
        """The polynomial ``x - root`` used for a single tag name."""
        return cls((ring.neg(ring.coerce(root)), ring.one), ring)

    @classmethod
    def random(cls, degree_bound: int, ring: CoefficientRing,
               rng: random.Random) -> "Polynomial":
        """Random polynomial with degree strictly below ``degree_bound``."""
        if degree_bound <= 0:
            return cls.zero(ring)
        return cls([ring.random_element(rng) for _ in range(degree_bound)], ring)

    # -- basic queries --------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree ``-1``."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self.coeffs

    def is_constant(self) -> bool:
        """True when the degree is at most zero."""
        return len(self.coeffs) <= 1

    def coefficient(self, degree: int) -> Any:
        """Coefficient of ``x**degree`` (zero beyond the stored length)."""
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if degree >= len(self.coeffs):
            return self.ring.zero
        return self.coeffs[degree]

    @property
    def constant_term(self) -> Any:
        """Coefficient of ``x**0``."""
        return self.coefficient(0)

    @property
    def leading_coefficient(self) -> Any:
        """Coefficient of the highest-degree term (zero for the zero poly)."""
        return self.coeffs[-1] if self.coeffs else self.ring.zero

    def is_monic(self) -> bool:
        """True when the leading coefficient equals 1."""
        return bool(self.coeffs) and self.ring.eq(self.coeffs[-1], self.ring.one)

    # -- arithmetic ------------------------------------------------------------
    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ValueError(
                f"polynomials live in different rings: {self.ring.name} vs {other.ring.name}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        ring = self.ring
        kernel = ring.kernel()
        if kernel is not None:
            return Polynomial._from_canonical(
                kernel.add(self.coeffs, other.coeffs), ring)
        n = max(len(self.coeffs), len(other.coeffs))
        coeffs = [
            ring.add(self.coefficient(i), other.coefficient(i)) for i in range(n)
        ]
        return Polynomial(coeffs, ring)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        ring = self.ring
        kernel = ring.kernel()
        if kernel is not None:
            return Polynomial._from_canonical(
                kernel.sub(self.coeffs, other.coeffs), ring)
        n = max(len(self.coeffs), len(other.coeffs))
        coeffs = [
            ring.sub(self.coefficient(i), other.coefficient(i)) for i in range(n)
        ]
        return Polynomial(coeffs, ring)

    def __neg__(self) -> "Polynomial":
        kernel = self.ring.kernel()
        if kernel is not None:
            return Polynomial._from_canonical(kernel.neg(self.coeffs), self.ring)
        return Polynomial([self.ring.neg(c) for c in self.coeffs], self.ring)

    def __mul__(self, other: Any) -> "Polynomial":
        ring = self.ring
        kernel = ring.kernel()
        if isinstance(other, Polynomial):
            self._check_ring(other)
            if kernel is not None:
                return Polynomial._from_canonical(
                    kernel.mul(self.coeffs, other.coeffs), ring)
            if self.is_zero() or other.is_zero():
                return Polynomial.zero(ring)
            result = [ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if ring.is_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    result[i + j] = ring.add(result[i + j], ring.mul(a, b))
            return Polynomial(result, ring)
        # Scalar multiplication.
        scalar = ring.coerce(other)
        if kernel is not None:
            return Polynomial._from_canonical(
                kernel.scalar_mul(self.coeffs, scalar), ring)
        return Polynomial([ring.mul(c, scalar) for c in self.coeffs], ring)

    def __rmul__(self, other: Any) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = Polynomial.one(self.ring)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def scale(self, scalar: Any) -> "Polynomial":
        """Multiply every coefficient by a ring scalar."""
        return self * scalar

    def shift(self, degrees: int) -> "Polynomial":
        """Multiply by ``x**degrees``."""
        if degrees < 0:
            raise ValueError("shift must be non-negative")
        if self.is_zero():
            return self
        return Polynomial._from_canonical(
            [self.ring.zero] * degrees + list(self.coeffs), self.ring)

    def divmod(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Polynomial division with remainder.

        Requires the divisor's leading coefficient to be invertible in the
        coefficient ring (always true over a field; true for monic divisors
        over ``Z``, which is the case the scheme needs for ``r(x)``).
        """
        if not isinstance(divisor, Polynomial):
            raise TypeError("divisor must be a Polynomial")
        self._check_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ring = self.ring
        kernel = ring.kernel()
        if kernel is not None:
            quotient, remainder = kernel.divmod(self.coeffs, divisor.coeffs)
            return (Polynomial._from_canonical(quotient, ring),
                    Polynomial._from_canonical(remainder, ring))
        lead_inv = ring.invert(divisor.leading_coefficient)
        remainder = list(self.coeffs)
        quotient = [ring.zero] * max(0, len(remainder) - len(divisor.coeffs) + 1)
        d = divisor.degree
        while len(remainder) - 1 >= d and remainder:
            # Strip trailing zeros that may have appeared.
            while remainder and ring.is_zero(remainder[-1]):
                remainder.pop()
            if len(remainder) - 1 < d or not remainder:
                break
            shift = len(remainder) - 1 - d
            factor = ring.mul(remainder[-1], lead_inv)
            quotient[shift] = ring.add(quotient[shift], factor)
            for i, c in enumerate(divisor.coeffs):
                remainder[shift + i] = ring.sub(remainder[shift + i], ring.mul(factor, c))
        return Polynomial(quotient, ring), Polynomial(remainder, ring)

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[0]

    # -- evaluation & calculus ---------------------------------------------------
    def evaluate(self, point: Any) -> Any:
        """Evaluate at ``point`` using Horner's rule (in the coefficient ring)."""
        ring = self.ring
        point = ring.coerce(point)
        kernel = ring.kernel()
        if kernel is not None:
            return kernel.evaluate(self.coeffs, point)
        result = ring.zero
        for coefficient in reversed(self.coeffs):
            result = ring.add(ring.mul(result, point), coefficient)
        return result

    def __call__(self, point: Any) -> Any:
        return self.evaluate(point)

    def derivative(self) -> "Polynomial":
        """Formal derivative."""
        ring = self.ring
        kernel = ring.kernel()
        if kernel is not None:
            return Polynomial._from_canonical(kernel.derivative(self.coeffs), ring)
        # i*c via one scalar multiply: coerce embeds Z -> ring, so
        # ring.mul(c, coerce(i)) equals the i-fold sum of c in any ring.
        coeffs = [ring.mul(c, ring.coerce(i))
                  for i, c in enumerate(self.coeffs)][1:]
        return Polynomial(coeffs, ring)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Composition ``self(inner(x))``."""
        self._check_ring(inner)
        result = Polynomial.zero(self.ring)
        for coefficient in reversed(self.coeffs):
            result = result * inner + Polynomial.constant(coefficient, self.ring)
        return result

    def roots_in_field(self) -> List[Any]:
        """All roots in a *finite* coefficient field found by exhaustive search."""
        if not self.ring.is_field() or not hasattr(self.ring, "elements"):
            raise TypeError("roots_in_field requires a finite field coefficient ring")
        return [a for a in self.ring.elements() if self.ring.is_zero(self.evaluate(a))]

    # -- storage accounting --------------------------------------------------------
    def storage_bits(self) -> int:
        """Bits required to store the coefficient vector (see §5 of the paper)."""
        if self.is_zero():
            return self.ring.element_bits(self.ring.zero)
        return sum(self.ring.element_bits(c) for c in self.coeffs)

    # -- conversions / equality ------------------------------------------------------
    def to_list(self) -> List[Any]:
        """Coefficients in ascending degree order as a mutable list."""
        return list(self.coeffs)

    def map_ring(self, ring: CoefficientRing) -> "Polynomial":
        """Re-interpret the coefficients in another ring (e.g. ``Z`` -> ``F_p``)."""
        return Polynomial([ring.coerce(c) for c in self.coeffs], ring)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- pretty printing ------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r}, ring={self.ring.name})"

    def __str__(self) -> str:
        return self.pretty()

    def pretty(self, variable: str = "x") -> str:
        """Render like the paper's figures, e.g. ``3x^3 + 3x^2 + 3x + 3``."""
        if self.is_zero():
            return "0"
        parts: List[str] = []
        for degree in range(self.degree, -1, -1):
            c = self.coefficient(degree)
            if self.ring.is_zero(c):
                continue
            rendered = self.ring.format_element(c)
            negative = rendered.startswith("-")
            magnitude = rendered[1:] if negative else rendered
            if degree == 0:
                term = magnitude
            else:
                coeff_part = "" if magnitude == "1" else magnitude
                power = variable if degree == 1 else f"{variable}^{degree}"
                term = f"{coeff_part}{power}"
            if not parts:
                parts.append(("-" if negative else "") + term)
            else:
                parts.append(("- " if negative else "+ ") + term)
        return " ".join(parts)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor of two polynomials over a *field*."""
    if a.ring != b.ring:
        raise ValueError("polynomials must share a coefficient ring")
    if not a.ring.is_field():
        raise TypeError("poly_gcd requires a field coefficient ring")
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    # Normalise to a monic polynomial.
    return a * a.ring.invert(a.leading_coefficient)


def is_irreducible_mod_p(poly: Polynomial, p: int) -> bool:
    """Rabin's irreducibility test for a polynomial over ``F_p``.

    ``poly`` may be given over any ring whose elements coerce to integers;
    it is reduced modulo ``p`` first.  A polynomial ``f`` of degree ``n`` is
    irreducible over ``F_p`` iff ``x^(p^n) ≡ x (mod f)`` and for every prime
    divisor ``q`` of ``n`` we have ``gcd(x^(p^(n/q)) - x, f) = 1``.
    """
    from .fp import PrimeField
    from .primes import prime_factors

    field = PrimeField(p)
    f = Polynomial([int(c) for c in poly.coeffs], field)
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True

    x = Polynomial.x(field)

    def _pow_x_mod(exponent: int) -> Polynomial:
        result = Polynomial.one(field)
        base = x % f
        while exponent:
            if exponent & 1:
                result = (result * base) % f
            base = (base * base) % f
            exponent >>= 1
        return result

    for q in prime_factors(n):
        h = _pow_x_mod(p ** (n // q)) - x
        if not poly_gcd(h % f, f).is_constant():
            return False
    return (_pow_x_mod(p ** n) - x) % f == Polynomial.zero(field)
