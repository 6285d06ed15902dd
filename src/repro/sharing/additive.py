"""Additive secret sharing of encoding-ring elements.

This is the sharing used by the core scheme (§4.2): the client keeps a
random polynomial, the server keeps the difference, and the sum of the two
shares is the original polynomial.  The client share is produced by a
deterministic PRG so that only the seed needs to be stored
(:mod:`repro.prg`).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing
from ..errors import SharingError

__all__ = ["AdditiveShare", "split_additively", "split_additively_n", "combine_additive"]


class AdditiveShare:
    """One party's additive share of a ring element."""

    __slots__ = ("party", "value")

    def __init__(self, party: str, value: Polynomial) -> None:
        self.party = party
        self.value = value

    def __repr__(self) -> str:
        return f"AdditiveShare(party={self.party!r}, value={self.value!s})"


def split_additively(ring: EncodingRing, element: Polynomial,
                     rng: random.Random) -> Tuple[Polynomial, Polynomial]:
    """Split ``element`` into ``(client_share, server_share)``.

    The client share is a uniformly random ring element drawn from ``rng``;
    the server share is ``element - client_share``, so the two shares sum to
    the original (figures 3 and 4 of the paper).
    """
    element = ring.reduce(element)
    client_share = ring.random_element(rng)
    server_share = ring.sub(element, client_share)
    return client_share, server_share


def split_additively_n(ring: EncodingRing, element: Polynomial, parties: int,
                       rng: random.Random) -> List[Polynomial]:
    """Split ``element`` into ``parties`` additive shares (all needed to rebuild)."""
    if parties < 2:
        raise SharingError("additive sharing needs at least 2 parties")
    element = ring.reduce(element)
    shares = [ring.random_element(rng) for _ in range(parties - 1)]
    total = ring.zero
    for share in shares:
        total = ring.add(total, share)
    shares.append(ring.sub(element, total))
    return shares


def combine_additive(ring: EncodingRing, shares: Sequence[Polynomial]) -> Polynomial:
    """Recombine additive shares into the original element."""
    if not shares:
        raise SharingError("cannot combine an empty share list")
    total = ring.zero
    for share in shares:
        total = ring.add(total, share)
    return total
