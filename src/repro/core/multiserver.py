"""Querying with multiple servers: the k-out-of-n extension of §4.2.

The paper notes that the two-party split "can easily be extended to a model
with multiple servers, in which the client together with k out of n servers
(or any other access structure) can reconstruct the shared secret
polynomial".  This module completes that extension into a working query
path:

* the document is encoded and additively split exactly as in the two-party
  scheme (client share from the seed, server share the difference);
* the *server* share of every node is then Shamir-shared coefficient-wise
  across ``n`` servers with threshold ``k``
  (:class:`~repro.sharing.multiserver.ThresholdPolynomialSharing`), so no
  coalition of fewer than ``k`` servers learns anything about the server
  share, and any ``k`` servers can stand in for the single server of §4.3;
* :class:`ThresholdServerGroup` exposes the ordinary
  :class:`~repro.core.query.ServerInterface`: evaluations and fetched
  polynomials from ``k`` live servers are recombined by Lagrange
  interpolation (evaluation is linear in the coefficients), so the existing
  :class:`~repro.core.query.QueryEngine`, verification machinery and
  advanced-query strategies work unchanged on top of it.

Only the ``F_p`` encoding ring is supported (Shamir needs field
coefficients); this mirrors the sharing-layer restriction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algebra.poly import Polynomial
from ..algebra.quotient import FpQuotientRing
from ..errors import QueryError, SharingError, ThresholdError
from ..sharing.multiserver import ThresholdPolynomialSharing
from ..xmltree import XmlDocument
from .mapping import TagMapping
from .query import FrontierResult, ServerInterface
from .scheme import ClientContext, choose_fp_ring, outsource_document
from .share_tree import ServerShareTree

__all__ = ["ThresholdServerGroup", "outsource_document_multi_server"]


class ThresholdServerGroup(ServerInterface):
    """A quorum of ``k`` servers presented as one logical search server.

    ``server_trees`` maps the 1-based server index to that server's share
    tree (each a :class:`~repro.core.share_tree.ServerShareTree` holding its
    Shamir share polynomials plus the replicated public structure).  Only
    the servers listed in ``online`` are contacted; at least ``threshold``
    of them must be present.
    """

    #: A quorum exchange is expensive (k parallel requests), so whole
    #: frontier rounds are batched into one exchange per tree level.
    batched_rounds = True

    def __init__(self, sharing: ThresholdPolynomialSharing,
                 server_trees: Dict[int, ServerShareTree],
                 online: Optional[Sequence[int]] = None) -> None:
        self.sharing = sharing
        self.ring = sharing.ring
        self.server_trees = dict(server_trees)
        available = sorted(self.server_trees)
        selected = sorted(online) if online is not None else available
        unknown = [index for index in selected if index not in self.server_trees]
        if unknown:
            raise QueryError(f"unknown server indices {unknown}")
        if len(selected) < sharing.threshold:
            raise ThresholdError(
                f"need at least {sharing.threshold} online servers, got {len(selected)}")
        #: The quorum actually used for queries (the first ``threshold`` online).
        self.quorum = selected[: sharing.threshold]
        #: Per-server count of evaluation requests (for cost reporting).
        self.evaluations_per_server: Dict[int, int] = {index: 0 for index in self.quorum}

    # -- structure (replicated on every server) ------------------------------------
    def _any_tree(self) -> ServerShareTree:
        return self.server_trees[self.quorum[0]]

    def root_id(self) -> int:
        root = self._any_tree().root_id
        if root is None:
            raise QueryError("the server group stores no data")
        return root

    def node_count(self) -> int:
        return self._any_tree().node_count()

    def children_of(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        tree = self._any_tree()
        return {node_id: tree.child_ids(node_id) for node_id in node_ids}

    # -- shared-value access (recombined from the quorum) -------------------------------
    def evaluate(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        per_server: Dict[int, Dict[int, int]] = {}
        for index in self.quorum:
            tree = self.server_trees[index]
            per_server[index] = {node_id: tree.evaluate(node_id, point)
                                 for node_id in node_ids}
            self.evaluations_per_server[index] += len(node_ids)
        combined: Dict[int, int] = {}
        for node_id in node_ids:
            combined[node_id] = self.sharing.combine_evaluations(
                {index: per_server[index][node_id] for index in self.quorum})
        return combined

    def frontier_round(self, node_ids: Sequence[int], points: Sequence[int],
                       prune: Sequence[int] = (), include_children: bool = True,
                       lookahead: int = 0) -> FrontierResult:
        """One descent round against the quorum as a single batched exchange.

        Every member of the quorum is visited once for the whole round (all
        points at a time) instead of once per request kind, mirroring the
        single-server wire protocol: the round costs one parallel quorum
        exchange, counted as one round trip.  ``lookahead`` is ignored —
        the group is in-process, so speculation would only waste work.
        """
        if prune:
            self.prune(list(prune))
        evaluations: Dict[int, Dict[int, int]] = {}
        per_server: Dict[int, Dict[int, Dict[int, int]]] = {}
        for index in self.quorum:
            tree = self.server_trees[index]
            per_server[index] = {
                point: {node_id: tree.evaluate(node_id, point)
                        for node_id in node_ids}
                for point in points}
            self.evaluations_per_server[index] += len(node_ids) * len(points)
        for point in points:
            evaluations[point] = {
                node_id: self.sharing.combine_evaluations(
                    {index: per_server[index][point][node_id]
                     for index in self.quorum})
                for node_id in node_ids}
        children = (self.children_of(node_ids)
                    if include_children and node_ids else {})
        return FrontierResult(evaluations, children, round_trips=1)

    def fetch_polynomials(self, node_ids: Sequence[int]) -> Dict[int, Polynomial]:
        result: Dict[int, Polynomial] = {}
        for node_id in node_ids:
            shares = {index: self.server_trees[index].share_of(node_id)
                      for index in self.quorum}
            result[node_id] = self.sharing.reconstruct(shares)
        return result

    def fetch_constants(self, node_ids: Sequence[int]) -> Dict[int, int]:
        polynomials = self.fetch_polynomials(node_ids)
        return {node_id: int(poly.constant_term)
                for node_id, poly in polynomials.items()}

    def prune(self, node_ids: Sequence[int]) -> None:
        # Informational, as in the single-server protocol; nothing to combine.
        return None

    # -- reporting ---------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Aggregate storage across every server replica."""
        return sum(tree.storage_bits() for tree in self.server_trees.values())

    def __repr__(self) -> str:
        return (f"ThresholdServerGroup(servers={sorted(self.server_trees)}, "
                f"quorum={self.quorum})")


def outsource_document_multi_server(
        document: XmlDocument,
        servers: int,
        threshold: int,
        ring: Optional[FpQuotientRing] = None,
        mapping: Optional[TagMapping] = None,
        seed: Optional[Union[bytes, str, int]] = None,
        sharing_rng: Optional[random.Random] = None,
        strict: bool = True,
) -> Tuple[ClientContext, Dict[int, ServerShareTree], ThresholdPolynomialSharing]:
    """Outsource a document to ``servers`` servers with reconstruction threshold ``threshold``.

    Returns ``(client, per_server_trees, sharing)``.  Build a
    :class:`ThresholdServerGroup` from any ``threshold`` of the returned
    trees and pass it wherever a single server is expected::

        client, trees, sharing = outsource_document_multi_server(doc, 4, 3)
        group = ThresholdServerGroup(sharing, trees, online=[1, 3, 4])
        client.lookup(group, "client")
    """
    if servers < 1:
        raise SharingError("need at least one server")
    ring = ring or choose_fp_ring(document, strict=strict)
    if not isinstance(ring, FpQuotientRing):
        raise SharingError("multi-server sharing requires the F_p encoding ring")
    if servers >= ring.p:
        raise ThresholdError(
            f"F_{ring.p} has too few evaluation points for {servers} servers; "
            "choose a larger prime")
    client, single_server_tree, _ = outsource_document(
        document, ring=ring, mapping=mapping, seed=seed, strict=strict)
    sharing = ThresholdPolynomialSharing(ring, threshold=threshold, servers=servers)
    sharing_rng = sharing_rng or random.Random(0x5EC2E7)

    per_server: Dict[int, ServerShareTree] = {
        index: ServerShareTree(ring) for index in range(1, servers + 1)}
    for node_id in single_server_tree.node_ids():
        parent_id = single_server_tree.parent_id(node_id)
        shares = sharing.share(single_server_tree.share_of(node_id), sharing_rng)
        for index, share in shares.items():
            per_server[index].add_node(node_id, parent_id, share)
    return client, per_server, sharing
