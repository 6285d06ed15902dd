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
  rows from ``k`` live servers are recombined by Lagrange
  interpolation (evaluation is linear in the coefficients), so the existing
  :class:`~repro.core.query.QueryEngine`, verification machinery and
  advanced-query strategies work unchanged on top of it.

Only the ``F_p`` encoding ring is supported (Shamir needs field
coefficients); this mirrors the sharing-layer restriction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algebra.quotient import FpQuotientRing
from ..errors import QueryError, SharingError, ThresholdError
from ..sharing.multiserver import ThresholdPolynomialSharing
from ..xmltree import XmlDocument
from .mapping import TagMapping
from .query import LocalServerAdapter
from .scheme import ClientContext, choose_fp_ring, outsource_document
from .share_tree import CoefficientRows, ServerShareTree

__all__ = ["ThresholdServerGroup", "outsource_document_multi_server"]


class ThresholdServerGroup(LocalServerAdapter):
    """A quorum of ``k`` servers presented as one logical search server.

    ``server_trees`` maps the 1-based server index to that server's share
    tree (each a :class:`~repro.core.share_tree.ServerShareTree` holding its
    Shamir share polynomials plus the replicated public structure).  Only
    the servers listed in ``online`` are contacted; at least ``threshold``
    of them must be present.  The group answers the frontier exchange as
    the in-process server does, over a :class:`_QuorumView` of its quorum:
    every member is visited once per exchange, counted as one round trip,
    and ``lookahead`` is ignored (in process, speculation only wastes
    work).
    """

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
        super().__init__(_QuorumView(self))

    # -- reporting ---------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Aggregate storage across every server replica."""
        return sum(tree.storage_bits() for tree in self.server_trees.values())

    def __repr__(self) -> str:
        return (f"ThresholdServerGroup(servers={sorted(self.server_trees)}, "
                f"quorum={self.quorum})")


class _QuorumView:
    """A group's quorum read as one store, for the in-process server's answers.

    The public structure is replicated on every server, so it is read
    from one.  Evaluations and coefficient rows are recombined from the
    quorum's Shamir shares by Lagrange interpolation (evaluation is linear
    in the coefficients).
    """

    def __init__(self, group: ThresholdServerGroup) -> None:
        self.group = group
        self.ring = group.ring
        self.structure = group.server_trees[group.quorum[0]]

    @property
    def root_id(self) -> Optional[int]:
        return self.structure.root_id

    def node_count(self) -> int:
        return self.structure.node_count()

    def parent_id(self, node_id: int) -> Optional[int]:
        return self.structure.parent_id(node_id)

    def child_lists(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        return self.structure.child_lists(node_ids)

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        group = self.group
        per_server = {}
        for index in group.quorum:
            per_server[index] = group.server_trees[index].evaluate_many(
                node_ids, point)
            group.evaluations_per_server[index] += len(node_ids)
        return {node_id: group.sharing.combine_evaluations(
                    {index: per_server[index][node_id] for index in group.quorum})
                for node_id in node_ids}

    def coefficient_rows(self, node_ids: Sequence[int]) -> CoefficientRows:
        group = self.group
        width = self.ring.degree_bound
        node_ids = list(dict.fromkeys(node_ids))
        rows = []
        for node_id in node_ids:
            share = group.sharing.reconstruct(
                {index: group.server_trees[index].share_of(node_id)
                 for index in group.quorum})
            rows.append([share.coefficient(degree) for degree in range(width)])
        return CoefficientRows(node_ids, width, rows=rows)


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
