"""Coefficient-ring abstraction.

The paper's encoding works over two quotient rings with different
coefficient domains:

* ``F_p[x]/(x^{p-1} - 1)`` -- coefficients in the prime field ``F_p``;
* ``Z[x]/(r(x))``          -- coefficients in the ring of integers ``Z``.

Polynomials (:mod:`repro.algebra.poly`) are generic over a *coefficient
ring* object implementing the small interface defined here.  The two
concrete coefficient rings are :class:`IntegerRing` and
:class:`~repro.algebra.fp.PrimeField`; the optional extension field
``F_{p^e}`` lives in :mod:`repro.algebra.fpe`.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Any, Optional

from .kernels import Z_KERNEL, kernels_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernels import ZKernel

__all__ = ["CoefficientRing", "IntegerRing", "ZZ"]


class CoefficientRing(abc.ABC):
    """Abstract interface of a commutative coefficient ring.

    Elements are plain Python values (integers for ``Z`` and ``F_p``,
    tuples of integers for ``F_{p^e}``); the ring object supplies the
    operations.  Keeping elements as primitive values keeps polynomial
    arithmetic fast and the whole library picklable.
    """

    #: Human readable name, e.g. ``"Z"`` or ``"F_5"``.
    name: str = "ring"

    # -- constants ---------------------------------------------------------
    @property
    @abc.abstractmethod
    def zero(self) -> Any:
        """Additive identity."""

    @property
    @abc.abstractmethod
    def one(self) -> Any:
        """Multiplicative identity."""

    # -- arithmetic --------------------------------------------------------
    @abc.abstractmethod
    def add(self, a: Any, b: Any) -> Any:
        """Sum ``a + b``."""

    @abc.abstractmethod
    def sub(self, a: Any, b: Any) -> Any:
        """Difference ``a - b``."""

    @abc.abstractmethod
    def neg(self, a: Any) -> Any:
        """Additive inverse ``-a``."""

    @abc.abstractmethod
    def mul(self, a: Any, b: Any) -> Any:
        """Product ``a * b``."""

    def invert(self, a: Any) -> Any:
        """Multiplicative inverse; raise :class:`ZeroDivisionError` if none."""
        raise ZeroDivisionError(f"{a!r} has no inverse in {self.name}")

    def exact_divide(self, a: Any, b: Any) -> Optional[Any]:
        """Return ``a / b`` when the division is exact in the ring, else None."""
        try:
            return self.mul(a, self.invert(b))
        except ZeroDivisionError:
            return None

    # -- structure ---------------------------------------------------------
    @abc.abstractmethod
    def canonical(self, a: Any) -> Any:
        """Canonical representative of ``a`` (e.g. reduce modulo ``p``)."""

    def coerce(self, value: Any) -> Any:
        """Coerce a Python integer (or already-canonical element) into the ring."""
        return self.canonical(value)

    def is_zero(self, a: Any) -> bool:
        """True when ``a`` equals the additive identity."""
        return self.canonical(a) == self.zero

    def eq(self, a: Any, b: Any) -> bool:
        """Ring-level equality of two elements."""
        return self.canonical(a) == self.canonical(b)

    def is_field(self) -> bool:
        """True when every non-zero element is invertible."""
        return False

    # -- fast path ---------------------------------------------------------
    def kernel(self) -> Optional[Any]:
        """The ring's flat coefficient kernel, or ``None``.

        When a ring returns a kernel (:mod:`repro.algebra.kernels`),
        :class:`~repro.algebra.poly.Polynomial` dispatches its arithmetic
        to it instead of the generic per-element path.  The default is
        ``None``: the generic implementation is the reference semantics
        and any ring works without a kernel.
        """
        return None

    # -- auxiliary ---------------------------------------------------------
    @abc.abstractmethod
    def random_element(self, rng: random.Random) -> Any:
        """Uniform-ish random element (used for secret-sharing shares)."""

    @abc.abstractmethod
    def element_bits(self, a: Any) -> int:
        """Number of bits needed to store ``a`` (storage accounting, §5)."""

    def format_element(self, a: Any) -> str:
        """Human readable rendering of ``a``."""
        return str(a)

    # -- dunder sugar ------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class IntegerRing(CoefficientRing):
    """The ring of integers ``Z`` with arbitrary-precision arithmetic.

    Used as the coefficient domain of ``Z[x]/(r(x))``.  Random elements are
    drawn from a bounded symmetric interval: the paper never prescribes a
    distribution, it only needs shares that hide the original coefficients,
    and the interval must be large compared to the coefficients that occur.
    """

    name = "Z"

    def __init__(self, random_bound: int = 2 ** 64) -> None:
        if random_bound < 2:
            raise ValueError("random_bound must be at least 2")
        self.random_bound = random_bound

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def sub(self, a: int, b: int) -> int:
        return a - b

    def neg(self, a: int) -> int:
        return -a

    def mul(self, a: int, b: int) -> int:
        return a * b

    def invert(self, a: int) -> int:
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not a unit in Z")

    def exact_divide(self, a: int, b: int) -> Optional[int]:
        if b == 0:
            return None
        q, r = divmod(a, b)
        return q if r == 0 else None

    def canonical(self, a: int) -> int:
        return int(a)

    def kernel(self) -> Optional["ZKernel"]:
        return Z_KERNEL if kernels_enabled() else None

    def random_element(self, rng: random.Random) -> int:
        return rng.randint(-self.random_bound, self.random_bound)

    def element_bits(self, a: int) -> int:
        # Sign bit plus magnitude; zero still occupies one bit.
        return max(1, int(a).bit_length()) + 1

    def __eq__(self, other: object) -> bool:
        return other is self or isinstance(other, IntegerRing)

    def __hash__(self) -> int:
        return hash("IntegerRing")


#: Shared default instance of the integer ring.
ZZ = IntegerRing()
