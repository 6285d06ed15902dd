"""The two encoding rings of the paper.

Section 4.1 introduces two finite rings in which the polynomial tree is
stored so that degrees stay bounded:

* :class:`FpQuotientRing` — ``F_p[x]/(x^{p-1} - 1)`` for a prime ``p``:
  coefficients are reduced modulo ``p`` and exponents modulo ``p - 1``
  (because ``x^{p-1} ≡ 1`` by Fermat's little theorem, Lemma 1).
* :class:`IntQuotientRing` — ``Z[x]/(r(x))`` for a monic irreducible
  ``r``: polynomials are reduced modulo ``r`` and keep unbounded integer
  coefficients.

Both expose the same :class:`EncodingRing` interface used by the encoder,
the sharing layer and the query protocol, including the Theorem 1/2 tag
recovery (``recover_tag``) and the equation-system verification of
eq. (2)–(3) (``consistency_check``).
"""

from __future__ import annotations

import abc
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import AlgebraError, TagRecoveryError
from .evaldomain import INCONSISTENT, NO_EQUATION, EvaluationDomain
from .fp import PrimeField
from .kernels import _trim, kernels_enabled
from .poly import Polynomial, is_irreducible_mod_p
from .rings import CoefficientRing, IntegerRing, ZZ
from .vkernels import VecFpKernel

__all__ = [
    "EncodingRing",
    "FpQuotientRing",
    "IntQuotientRing",
    "default_int_modulus",
]


class EncodingRing(abc.ABC):
    """A quotient polynomial ring used to encode XML trees.

    Elements are :class:`~repro.algebra.poly.Polynomial` instances over the
    ring's coefficient ring, already reduced to canonical form.
    """

    #: Human-readable name of the ring, e.g. ``"F_5[x]/(x^4 - 1)"``.
    name: str = "encoding ring"

    #: Coefficient ring of the reduced polynomials.
    coefficient_ring: CoefficientRing

    # -- canonical elements --------------------------------------------------
    @property
    def zero(self) -> Polynomial:
        """The zero element (cached; Polynomial values are immutable)."""
        cached = self.__dict__.get("_zero")
        if cached is None:
            cached = Polynomial.zero(self.coefficient_ring)
            self.__dict__["_zero"] = cached
        return cached

    @property
    def one(self) -> Polynomial:
        """The unit element (cached; Polynomial values are immutable)."""
        cached = self.__dict__.get("_one")
        if cached is None:
            cached = Polynomial.one(self.coefficient_ring)
            self.__dict__["_one"] = cached
        return cached

    @property
    @abc.abstractmethod
    def degree_bound(self) -> int:
        """Strict upper bound on the degree of reduced elements."""

    # -- reduction & arithmetic ----------------------------------------------
    @abc.abstractmethod
    def reduce(self, poly: Polynomial) -> Polynomial:
        """Reduce an arbitrary polynomial into canonical form."""

    def is_canonical(self, poly: Polynomial) -> bool:
        """True when ``poly`` is already a reduced ring element.

        Canonical elements live over the ring's coefficient ring and stay
        below the degree bound; :meth:`reduce` is the identity on them, so
        callers holding the output of a ring operation can skip re-reducing.
        """
        return (poly.ring == self.coefficient_ring
                and len(poly.coeffs) <= self.degree_bound)

    def coerce(self, poly: Polynomial) -> Polynomial:
        """Reduce ``poly`` after mapping its coefficients into the ring."""
        return self.reduce(poly.map_ring(self.coefficient_ring))

    def from_tag_value(self, value: int) -> Polynomial:
        """The linear factor ``x - value`` encoding a single tag (§4.1)."""
        return self.reduce(Polynomial.linear_root(value, self.coefficient_ring))

    def from_coefficients(self, coeffs: Sequence[Any]) -> Polynomial:
        """Build an element from a coefficient vector (ascending degree)."""
        return self.reduce(Polynomial(coeffs, self.coefficient_ring))

    def add(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """Sum of two ring elements."""
        return self.reduce(a + b)

    def sub(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """Difference of two ring elements."""
        return self.reduce(a - b)

    def neg(self, a: Polynomial) -> Polynomial:
        """Additive inverse."""
        return self.reduce(-a)

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """Product of two ring elements (reduced)."""
        return self.reduce(a * b)

    def product(self, elements: Sequence[Polynomial]) -> Polynomial:
        """Product of a sequence of elements (the empty product is 1)."""
        result = self.one
        for element in elements:
            result = self.mul(result, element)
        return result

    def is_zero(self, a: Polynomial) -> bool:
        """True for the zero element."""
        return self.reduce(a).is_zero()

    def eq(self, a: Polynomial, b: Polynomial) -> bool:
        """Ring equality."""
        return self.reduce(a) == self.reduce(b)

    # -- randomness ------------------------------------------------------------
    def random_element(self, rng: random.Random) -> Polynomial:
        """Uniform-ish random reduced element (used for client shares, §4.2)."""
        ring = self.coefficient_ring
        coeffs = [ring.random_element(rng) for _ in range(self.degree_bound)]
        if ring.kernel() is not None:
            # random_element already yields canonical coefficients; skip the
            # per-element re-canonicalisation and the no-op reduce.
            return Polynomial._from_canonical(_trim(coeffs), ring)
        return self.reduce(Polynomial(coeffs, ring))

    def random_element_from_stream(self, stream: Any) -> Polynomial:
        """Uniform-ish random reduced element drawn from a PRG byte stream.

        Same distribution as :meth:`random_element` but sampled in bulk
        from a :class:`repro.prg.SeededStream` — the share-regeneration hot
        path of :class:`repro.core.share_tree.ClientShareGenerator`.  The
        default adapter seeds a stdlib ``Random`` from the stream; concrete
        rings override it with direct rejection sampling.
        """
        rng = random.Random(int.from_bytes(stream.read(32), "big"))
        return self.random_element(rng)

    # -- query evaluation (§4.3) -------------------------------------------------
    @abc.abstractmethod
    def evaluation_modulus(self, point: int) -> Optional[int]:
        """Modulus for evaluations at ``point`` (``None`` means no reduction)."""

    def evaluate(self, element: Polynomial, point: int) -> int:
        """Evaluate ``element`` at ``point`` in the evaluation domain.

        For ``F_p`` rings this is ordinary evaluation in ``F_p``; for
        ``Z[x]/(r)`` the value is only defined modulo ``r(point)``
        (cf. figure 6 where everything is computed modulo ``r(2) = 5``).
        """
        value = element.evaluate(point)
        modulus = self.evaluation_modulus(point)
        if modulus is None:
            return int(value)
        return int(value) % modulus

    def evaluate_many(self, elements: Sequence[Polynomial],
                      point: int) -> List[int]:
        """Evaluate many ring elements at one query point in a single pass.

        The hot path of the §4.3 protocol: every descent round evaluates a
        whole frontier of node shares at the same point.  With a kernel the
        power table of the point is shared across all elements; without one
        this is equivalent to calling :meth:`evaluate` per element.
        """
        if not elements:
            return []
        modulus = self.evaluation_modulus(point)
        kernel = self.coefficient_ring.kernel()
        if kernel is not None:
            coerced = self.coefficient_ring.coerce(point)
            values = kernel.evaluate_many([e.coeffs for e in elements], coerced)
        else:
            values = [int(e.evaluate(point)) for e in elements]
        if modulus is None:
            return [int(v) for v in values]
        return [int(v) % modulus for v in values]

    def evaluation_add(self, a: int, b: int, point: int) -> int:
        """Add two evaluation values in the evaluation domain at ``point``."""
        modulus = self.evaluation_modulus(point)
        total = a + b
        return total if modulus is None else total % modulus

    def evaluation_is_zero(self, value: int, point: int) -> bool:
        """True when an evaluation value means 'the factor is present'."""
        modulus = self.evaluation_modulus(point)
        return value == 0 if modulus is None else value % modulus == 0

    # -- Theorem 1 / Theorem 2 ------------------------------------------------------
    def recover_tag(self, element: Polynomial,
                    children: Sequence[Polynomial]) -> int:
        """Recover the mapped tag value ``t`` of a node.

        Given the node polynomial ``f`` and its children ``q_1..q_n``,
        solves ``f ≡ (x - t)·∏ q_i`` for ``t`` (eq. (1)–(3)).  Theorems 1
        and 2 guarantee uniqueness; inconsistent inputs raise
        :class:`~repro.errors.TagRecoveryError`.
        """
        product = self.product(list(children))
        solutions = self._tag_equations(element, children, product=product)
        candidate: Optional[int] = None
        for numerator, denominator in solutions:
            if self.coefficient_ring.is_zero(denominator):
                continue
            value = self.coefficient_ring.exact_divide(numerator, denominator)
            if value is None:
                continue
            candidate = self._tag_to_int(value)
            break
        if candidate is None:
            raise TagRecoveryError(NO_EQUATION)
        if not self.verify_tag(element, children, candidate, product=product):
            raise TagRecoveryError(INCONSISTENT)
        return candidate

    def verify_tag(self, element: Polynomial, children: Sequence[Polynomial],
                   tag_value: int,
                   product: Optional[Polynomial] = None) -> bool:
        """Check *all* equations of eq. (3) for a claimed tag value.

        ``product`` may pass in the (reduced) product of the children when
        the caller already computed it.
        """
        if product is None:
            product = self.product(list(children))
        reconstructed = self.mul(product, self.from_tag_value(tag_value))
        return self.eq(reconstructed, element)

    def consistency_check(self, element: Polynomial,
                          children: Sequence[Polynomial]) -> List[Tuple[Any, Any]]:
        """The coefficient equation system of eq. (2)–(3).

        Returns a list of ``(numerator, denominator)`` pairs, one per
        coefficient, such that each non-trivial pair must satisfy
        ``t = numerator / denominator`` for the same ``t``.
        """
        return self._tag_equations(element, children)

    def _tag_equations(self, element: Polynomial,
                       children: Sequence[Polynomial],
                       product: Optional[Polynomial] = None
                       ) -> List[Tuple[Any, Any]]:
        ring = self.coefficient_ring
        if product is None:
            product = self.product(list(children))
        x = self.reduce(Polynomial.x(ring))
        x_times_product = self.mul(product, x)
        # t * product = x*product - f, coefficient-wise in the quotient ring.
        difference = self.sub(x_times_product, element)
        zero = ring.zero
        diff_coeffs = difference.coeffs
        prod_coeffs = product.coeffs
        return [
            (diff_coeffs[degree] if degree < len(diff_coeffs) else zero,
             prod_coeffs[degree] if degree < len(prod_coeffs) else zero)
            for degree in range(self.degree_bound)
        ]

    def _tag_to_int(self, value: Any) -> int:
        return int(value)

    def evaluation_domain(self) -> Optional[EvaluationDomain]:
        """Batched Theorem-1/2 recovery for this ring, or ``None``.

        ``None`` means callers run :meth:`recover_tag` per node: every
        ring except ``F_p[x]/(x^{p-1} - 1)`` on the vectorized kernel tier.
        """
        return None

    # -- storage accounting (§5) ------------------------------------------------------
    @abc.abstractmethod
    def element_storage_bits(self, element: Polynomial) -> int:
        """Measured storage of one element in bits."""

    # -- misc -----------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class FpQuotientRing(EncodingRing):
    """The ring ``F_p[x]/(x^{p-1} - 1)`` for a prime ``p``.

    Coefficients live in ``F_p``; exponents are reduced modulo ``p - 1``
    because ``x^{p-1} ≡ 1`` (Lemma 1/Fermat).  Tag values must lie in
    ``{1, ..., p-2}``: value ``0`` would introduce the factor ``x`` whose
    evaluation at ``0`` is degenerate, and value ``p-1`` would create the
    zero divisor highlighted after Lemma 3 (strict mode; the paper's own
    example violates this, so enforcement is optional in the mapping layer).
    """

    def __init__(self, p: int) -> None:
        self.field = PrimeField(p)
        self.p = p
        self.name = f"F_{p}[x]/(x^{p - 1} - 1)"
        self.coefficient_ring = self.field

    @property
    def degree_bound(self) -> int:
        return self.p - 1

    def reduce(self, poly: Polynomial) -> Polynomial:
        if not kernels_enabled():
            return self._reduce_generic(poly)
        n = self.p - 1
        if poly.ring == self.field and len(poly.coeffs) <= n:
            # Already canonical: coefficients are reduced residues and the
            # degree is below the bound, so folding would be the identity.
            return poly
        p = self.p
        acc = [0] * n
        for exponent, coefficient in enumerate(poly.coeffs):
            coefficient = int(coefficient) % p
            if coefficient:
                acc[exponent if exponent < n else exponent % n] += coefficient
        return Polynomial._from_canonical(_trim([c % p for c in acc]), self.field)

    def _reduce_generic(self, poly: Polynomial) -> Polynomial:
        """Reference reduction: exponent folding via generic ring calls."""
        coeffs = [self.field.zero] * (self.p - 1)
        for exponent, coefficient in enumerate(poly.coeffs):
            coefficient = self.field.canonical(coefficient)
            if coefficient == 0:
                continue
            folded = exponent if exponent < self.p - 1 else exponent % (self.p - 1)
            coeffs[folded] = self.field.add(coeffs[folded], coefficient)
        return Polynomial(coeffs, self.field)

    def random_element_from_stream(self, poly_stream: Any) -> Polynomial:
        coeffs = poly_stream.residues(self.p - 1, self.p)
        return Polynomial._from_canonical(_trim(coeffs), self.field)

    def evaluation_modulus(self, point: int) -> int:
        return self.p

    def element_storage_bits(self, element: Polynomial) -> int:
        # Every element is stored as p-1 coefficients of log2(p) bits each,
        # matching the n*(p-1)*log p storage formula of §5.
        return (self.p - 1) * self.field.element_bits(0)

    def evaluation_domain(self) -> Optional[EvaluationDomain]:
        """The evaluation-domain verifier when the vectorized tier is active.

        Decided per call from the tier :meth:`PrimeField.kernel` returns, so
        ``use_kernels``/``use_vector_kernels`` switch it like every other
        kernel path; primes with more than
        :data:`EvaluationDomain.MAX_POINTS` nonzero points keep per-node
        :meth:`recover_tag`.
        """
        if (not isinstance(self.field.kernel(), VecFpKernel)
                or self.p - 1 > EvaluationDomain.MAX_POINTS):
            return None
        domain = self.__dict__.get("_evaluation_domain")
        if domain is None:
            domain = self.__dict__["_evaluation_domain"] = EvaluationDomain(self.p)
        return domain

    def modulus_polynomial(self) -> Polynomial:
        """The modulus ``x^{p-1} - 1`` as a polynomial over ``F_p``."""
        coeffs = [self.field.neg(self.field.one)] + [0] * (self.p - 2) + [self.field.one]
        return Polynomial(coeffs, self.field)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FpQuotientRing) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FpQuotientRing", self.p))


class IntQuotientRing(EncodingRing):
    """The ring ``Z[x]/(r(x))`` for a monic irreducible ``r``.

    Elements are integer polynomials of degree below ``deg r``.  Their
    coefficients grow with the size of the encoded tree (the paper's
    ``n²(d+1) log p`` storage bound).  Query evaluations at a point ``a``
    are taken modulo ``r(a)`` (figure 6).
    """

    def __init__(self, modulus: Polynomial,
                 check_irreducible: bool = True,
                 random_bound: int = 2 ** 32) -> None:
        if modulus.ring != ZZ and not isinstance(modulus.ring, IntegerRing):
            modulus = Polynomial([int(c) for c in modulus.coeffs], ZZ)
        if modulus.degree < 1:
            raise AlgebraError("the modulus r(x) must have degree at least 1")
        if not modulus.is_monic():
            raise AlgebraError("the modulus r(x) must be monic")
        if check_irreducible and not self._probably_irreducible(modulus):
            raise AlgebraError(f"{modulus} does not look irreducible over Q")
        self.modulus = modulus
        self.coefficient_ring = IntegerRing(random_bound=random_bound)
        self.name = f"Z[x]/({modulus.pretty()})"
        # Precomputed remainders x^k mod r(x) for k >= deg r, extended on
        # demand: row i holds the length-(deg r) coefficient vector of
        # x^(deg r + i) mod r.  Folding with these rows turns reduction into
        # a linear pass instead of repeated divmod.
        self._power_rows: List[List[int]] = []
        self._eval_moduli: Dict[int, int] = {}

    @staticmethod
    def _probably_irreducible(modulus: Polynomial) -> bool:
        """Heuristic irreducibility check over ``Q`` for a monic integer poly.

        Degree 1 is always irreducible.  For higher degrees we accept the
        polynomial if it is irreducible modulo some small prime that does not
        divide the leading coefficient — a sufficient condition.  Degree 2 and
        3 polynomials are additionally accepted when they have no rational
        (hence integer, by monicity) roots.
        """
        degree = modulus.degree
        if degree == 1:
            return True
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            if is_irreducible_mod_p(modulus, p):
                return True
        if degree in (2, 3):
            constant = abs(int(modulus.constant_term))
            candidates = {1, -1}
            for divisor in range(1, constant + 1):
                if constant % divisor == 0:
                    candidates.update({divisor, -divisor})
            if constant == 0:
                return False
            return all(modulus.evaluate(c) != 0 for c in candidates)
        return False

    @property
    def degree_bound(self) -> int:
        return self.modulus.degree

    def _power_row(self, k: int) -> List[int]:
        """Coefficient vector of ``x^k mod r(x)`` for ``k >= deg r``."""
        d = self.modulus.degree
        rows = self._power_rows
        if not rows:
            rows.append([-int(c) for c in self.modulus.coeffs[:d]])
        low = self.modulus.coeffs
        while len(rows) <= k - d:
            prev = rows[-1]
            top = prev[d - 1]
            row = [0] + prev[:d - 1]
            if top:
                for j in range(d):
                    row[j] -= top * int(low[j])
            rows.append(row)
        return rows[k - d]

    def reduce(self, poly: Polynomial) -> Polynomial:
        if poly.ring != self.coefficient_ring:
            poly = Polynomial([int(c) for c in poly.coeffs], self.coefficient_ring)
        d = self.modulus.degree
        if poly.degree < d:
            return poly
        if not kernels_enabled():
            modulus = Polynomial(list(self.modulus.coeffs), self.coefficient_ring)
            return poly % modulus
        coeffs = poly.coeffs
        out = list(coeffs[:d])
        self._power_row(len(coeffs) - 1)  # extend the table in one go
        rows = self._power_rows
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                row = rows[k - d]
                for j in range(d):
                    out[j] += c * row[j]
        return Polynomial._from_canonical(_trim(out), self.coefficient_ring)

    def random_element_from_stream(self, poly_stream: Any) -> Polynomial:
        bound = self.coefficient_ring.random_bound
        draws = poly_stream.residues(self.modulus.degree, 2 * bound + 1)
        coeffs = _trim([v - bound for v in draws])
        return Polynomial._from_canonical(coeffs, self.coefficient_ring)

    def evaluation_modulus(self, point: int) -> int:
        value = self._eval_moduli.get(point)
        if value is None:
            value = abs(int(self.modulus.evaluate(point)))
            if value <= 1:
                raise AlgebraError(
                    f"evaluation point {point} gives |r({point})| = {value}; query "
                    "evaluations would be degenerate — choose a different mapping value")
            # Points come from the (bounded) tag mapping in normal use; the
            # cap only guards long-lived rings fed adversarial point streams.
            if len(self._eval_moduli) < 4096:
                self._eval_moduli[point] = value
        return value

    def element_storage_bits(self, element: Polynomial) -> int:
        degree_slots = self.modulus.degree
        if element.is_zero():
            return degree_slots * 2
        return sum(self.coefficient_ring.element_bits(element.coefficient(i))
                   for i in range(degree_slots))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntQuotientRing) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("IntQuotientRing", self.modulus.coeffs))


def default_int_modulus(degree: int = 2) -> Polynomial:
    """A convenient monic irreducible modulus of the requested degree.

    Degree 2 returns the paper's ``x² + 1``; other degrees use cyclotomic-like
    choices that are irreducible over ``Q``.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree == 1:
        return Polynomial([0, 1], ZZ)  # x itself (rarely useful, but valid)
    if degree == 2:
        return Polynomial([1, 0, 1], ZZ)  # x^2 + 1
    # x^degree + x + 1 is irreducible for many degrees; fall back to searching.
    candidate = Polynomial([1, 1] + [0] * (degree - 2) + [1], ZZ)
    for p in (2, 3, 5, 7, 11, 13):
        if is_irreducible_mod_p(candidate, p):
            return candidate
    # Search x^degree + a x + b for small a, b.
    for b in range(1, 50):
        for a in range(0, 50):
            candidate = Polynomial([b, a] + [0] * (degree - 2) + [1], ZZ)
            for p in (2, 3, 5, 7, 11, 13):
                if is_irreducible_mod_p(candidate, p):
                    return candidate
    raise AlgebraError(f"could not find an irreducible modulus of degree {degree}")
