"""Multi-server sharing of encoding-ring polynomials.

Section 4.2 of the paper: "This can easily be extended to a model with
multiple servers, in which the client together with k out of n servers (or
any other access structure) can reconstruct the shared secret polynomial."

Two constructions are provided:

* :class:`ThresholdPolynomialSharing` — for the ``F_p[x]/(x^{p-1}-1)``
  ring: every coefficient of a node polynomial is Shamir-shared with
  threshold ``k`` over ``F_p``.  Because polynomial evaluation is linear
  in the coefficients, each server can evaluate its share-polynomial at a
  query point and the client recombines any ``k`` evaluation values by
  Lagrange interpolation — the multi-server analogue of the §4.3 protocol.
* :class:`AdditiveMultiServerSharing` — an ``n``-out-of-``n`` additive
  variant that works over *any* encoding ring (including ``Z[x]/(r(x))``
  where Shamir needs a field).
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..algebra.fp import PrimeField
from ..algebra.interpolate import lagrange_evaluate_at
from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing, FpQuotientRing
from ..errors import SharingError, ThresholdError
from .additive import combine_additive, split_additively_n
from .shamir import ShamirScheme

__all__ = ["ThresholdPolynomialSharing", "AdditiveMultiServerSharing"]


class ThresholdPolynomialSharing:
    """Coefficient-wise Shamir sharing of ``F_p`` quotient-ring elements."""

    def __init__(self, ring: FpQuotientRing, threshold: int, servers: int) -> None:
        if not isinstance(ring, FpQuotientRing):
            raise SharingError(
                "threshold sharing needs field coefficients; use the F_p ring "
                "or AdditiveMultiServerSharing for Z[x]/(r(x))")
        self.ring = ring
        self.field: PrimeField = ring.field
        self.scheme = ShamirScheme(self.field, threshold, servers)
        self.threshold = threshold
        self.servers = servers

    # -- sharing ----------------------------------------------------------------
    def share(self, element: Polynomial,
              rng: random.Random) -> Dict[int, Polynomial]:
        """Share one ring element; returns ``{server_index: share_polynomial}``."""
        element = self.ring.reduce(element)
        per_server: Dict[int, List[int]] = {
            index: [] for index in range(1, self.servers + 1)}
        for degree in range(self.ring.degree_bound):
            coefficient = element.coefficient(degree)
            for share in self.scheme.share(coefficient, rng):
                per_server[share.index].append(share.value)
        return {index: Polynomial(coeffs, self.field)
                for index, coeffs in per_server.items()}

    # -- reconstruction ------------------------------------------------------------
    def reconstruct(self, shares: Dict[int, Polynomial]) -> Polynomial:
        """Recover the original element from at least ``threshold`` share polynomials."""
        if len(shares) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} server shares, got {len(shares)}")
        selected = list(shares.items())[: self.threshold]
        coefficients = []
        for degree in range(self.ring.degree_bound):
            points = [(index, poly.coefficient(degree)) for index, poly in selected]
            coefficients.append(lagrange_evaluate_at(points, 0, self.field))
        return self.ring.from_coefficients(coefficients)

    def combine_evaluations(self, evaluations: Dict[int, int]) -> int:
        """Recombine per-server evaluations of a shared polynomial at one point.

        Each server evaluates *its* share polynomial at the public query
        point; any ``threshold`` of the resulting values interpolate to the
        true evaluation because evaluation is a linear map on coefficients.
        """
        if len(evaluations) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} evaluations, got {len(evaluations)}")
        points = list(evaluations.items())[: self.threshold]
        return lagrange_evaluate_at(points, 0, self.field)

    def __repr__(self) -> str:
        return (f"ThresholdPolynomialSharing(ring={self.ring.name}, "
                f"threshold={self.threshold}, servers={self.servers})")


class AdditiveMultiServerSharing:
    """``n``-out-of-``n`` additive sharing over any encoding ring."""

    def __init__(self, ring: EncodingRing, servers: int) -> None:
        if servers < 1:
            raise SharingError("need at least one server")
        self.ring = ring
        self.servers = servers

    def share(self, element: Polynomial, rng: random.Random) -> Dict[int, Polynomial]:
        """Share one element into ``servers + 1`` additive parts.

        The extra part (index 0) is the client's share; indices ``1..n`` go
        to the servers.  All parts are required for reconstruction.
        """
        parts = split_additively_n(self.ring, element, self.servers + 1, rng)
        return {index: part for index, part in enumerate(parts)}

    def reconstruct(self, shares: Dict[int, Polynomial]) -> Polynomial:
        """Sum all shares (client plus every server)."""
        if len(shares) != self.servers + 1:
            raise ThresholdError(
                f"additive sharing needs all {self.servers + 1} shares, got {len(shares)}")
        return combine_additive(self.ring, list(shares.values()))

    def combine_evaluations(self, evaluations: Dict[int, int], point: int) -> int:
        """Sum per-party evaluations at ``point`` in the evaluation domain."""
        if len(evaluations) != self.servers + 1:
            raise ThresholdError(
                f"additive sharing needs all {self.servers + 1} evaluations")
        total = 0
        for value in evaluations.values():
            total = self.ring.evaluation_add(total, value, point)
        return total

    def __repr__(self) -> str:
        return f"AdditiveMultiServerSharing(ring={self.ring.name}, servers={self.servers})"
