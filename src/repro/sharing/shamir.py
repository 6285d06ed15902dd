"""Shamir threshold secret sharing over a prime field.

Section 3 of the paper recalls Shamir's scheme [14] as the basis of most
secure multi-party computation protocols, and §4.2 notes that the simple
client/server split "can easily be extended to a model with multiple
servers, in which the client together with k out of n servers ... can
reconstruct the shared secret polynomial".  This module provides the
threshold machinery used by both the SMC substrate (:mod:`repro.smc`) and
the multi-server sharing of polynomial trees
(:mod:`repro.sharing.multiserver`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..algebra.fp import PrimeField
from ..algebra.interpolate import lagrange_evaluate_at
from ..algebra.poly import Polynomial
from ..errors import ThresholdError

__all__ = ["ShamirShare", "ShamirScheme"]


class ShamirShare:
    """A single share ``(index, value)`` of a Shamir-shared secret."""

    __slots__ = ("index", "value")

    def __init__(self, index: int, value: int) -> None:
        if index <= 0:
            raise ThresholdError("share indices must be positive (0 encodes the secret)")
        self.index = index
        self.value = value

    def as_tuple(self) -> Tuple[int, int]:
        """The share as an ``(index, value)`` pair."""
        return self.index, self.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShamirShare):
            return NotImplemented
        return self.index == other.index and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.index, self.value))

    def __repr__(self) -> str:
        return f"ShamirShare(index={self.index}, value={self.value})"


class ShamirScheme:
    """A ``threshold``-out-of-``parties`` Shamir scheme over ``F_p``.

    ``threshold`` is the number of shares required to reconstruct — the
    paper's ``t`` (the sharing polynomial has degree ``threshold - 1``).
    """

    def __init__(self, field: PrimeField, threshold: int, parties: int) -> None:
        if threshold < 1:
            raise ThresholdError("the threshold must be at least 1")
        if parties < threshold:
            raise ThresholdError("cannot have fewer parties than the threshold")
        if parties >= field.p:
            raise ThresholdError(
                f"F_{field.p} has too few points for {parties} parties; use a larger prime")
        self.field = field
        self.threshold = threshold
        self.parties = parties

    # -- sharing -----------------------------------------------------------------
    def share(self, secret: int, rng: random.Random) -> List[ShamirShare]:
        """Split ``secret`` into one share per party."""
        polynomial = self._sharing_polynomial(secret, rng)
        return [ShamirShare(index, polynomial.evaluate(index))
                for index in range(1, self.parties + 1)]

    def share_many(self, secrets: Sequence[int],
                   rng: random.Random) -> List[List[ShamirShare]]:
        """Share a list of secrets; returns one share list per secret."""
        return [self.share(secret, rng) for secret in secrets]

    def _sharing_polynomial(self, secret: int, rng: random.Random) -> Polynomial:
        coefficients = [self.field.canonical(secret)]
        coefficients += [self.field.random_element(rng) for _ in range(self.threshold - 1)]
        return Polynomial(coefficients, self.field)

    # -- reconstruction ------------------------------------------------------------
    def reconstruct(self, shares: Sequence[ShamirShare]) -> int:
        """Recover the secret from at least ``threshold`` distinct shares."""
        distinct: Dict[int, int] = {}
        for share in shares:
            if share.index in distinct and distinct[share.index] != share.value:
                raise ThresholdError(f"conflicting values for share index {share.index}")
            distinct[share.index] = share.value
        if len(distinct) < self.threshold:
            raise ThresholdError(
                f"need at least {self.threshold} distinct shares, got {len(distinct)}")
        points = list(distinct.items())[: self.threshold]
        return lagrange_evaluate_at(points, 0, self.field)

    def reconstruct_at(self, shares: Sequence[ShamirShare], point: int) -> int:
        """Evaluate the sharing polynomial at an arbitrary point (mostly for tests)."""
        points = [share.as_tuple() for share in shares[: self.threshold]]
        return lagrange_evaluate_at(points, point, self.field)

    # -- homomorphic helpers (used by the SMC substrate) ----------------------------------
    def add_shares(self, a: ShamirShare, b: ShamirShare) -> ShamirShare:
        """Share-wise addition: shares of ``x`` and ``y`` become shares of ``x+y``."""
        if a.index != b.index:
            raise ThresholdError("can only add shares held by the same party")
        return ShamirShare(a.index, self.field.add(a.value, b.value))

    def scale_share(self, share: ShamirShare, scalar: int) -> ShamirShare:
        """Multiply a share by a public scalar."""
        return ShamirShare(share.index, self.field.mul(share.value, scalar))

    def __repr__(self) -> str:
        return (f"ShamirScheme(field=F_{self.field.p}, threshold={self.threshold}, "
                f"parties={self.parties})")
