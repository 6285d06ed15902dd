"""Dynamic updates to an outsourced document.

The paper describes a static outsourcing step; a practical deployment also
needs to *modify* the data without re-uploading everything.  Because every
ancestor polynomial is the product of its own linear factor with its
children's polynomials (§4.1), an insertion, deletion or rename below a
node only changes the polynomials on the root-to-node path:

* **insert** a new subtree under parent ``P``: every ancestor polynomial is
  multiplied by the new subtree's polynomial;
* **delete** a subtree / **rename** a node: the affected ancestors are
  recomputed bottom-up as ``(x − map(tag)) · ∏ children`` — their own tag
  value is recovered first via Theorem 1/2, so nothing about the document
  needs to be stored on the client.

Division is deliberately avoided: the ``F_p[x]/(x^{p−1}−1)`` quotient ring
has zero divisors, so "dividing out" a removed factor from a *reduced*
polynomial is not well defined; recomputing a node from its children is
always exact and costs one ring product per affected node.

The client can do all of this from the public structure plus the server's
shares (it owns the seed, so it can reconstruct any polynomial it needs),
then pushes fresh server shares for exactly the affected nodes.  An update
therefore touches ``O(depth · fanout + |new subtree|)`` nodes.

**Atomicity.**  Every public operation computes all of its new polynomials
first (reads see the pre-update state throughout) and then pushes the
whole mutation set as *one* :meth:`repro.core.share_tree.ShareStore.transaction`
batch.  On the durable SQLite backend that batch is written as one SQLite
transaction, so a crash mid-update can never leave a torn tree whose
ancestors no longer equal ``(x − tag) · ∏ children``; on the in-memory
backend the batch is simply applied in one go.  Passing a
``lock`` (e.g. a :class:`~repro.net.engine.HostedDocument`'s document
lock) additionally serialises each whole operation against concurrent
query traffic on the same store.

**Remote editing.**  Nothing in the planner assumes the store is local:
``server_tree`` only needs the read surface of a
:class:`~repro.core.share_tree.ShareStore` plus a ``transaction()``.
:class:`~repro.net.client.RemoteUpdatableTree` exploits exactly that — it
substitutes a client-side mirror of a *hosted* document, and the batch
each operation records here travels to the server as one
:class:`~repro.net.messages.UpdateRequest` instead of being applied
in-process.  The arithmetic is identical either way, which is what makes
the remote and in-process paths bit-identical by construction.
"""

from __future__ import annotations

import contextlib
from typing import ContextManager, Dict, List, Optional

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing
from ..errors import QueryError
from ..xmltree import XmlElement
from .mapping import TagMapping
from .share_tree import ClientShareGenerator, ShareStore

__all__ = ["UpdateReport", "UpdatableTree"]


class UpdateReport:
    """What an update touched (for cost accounting and tests)."""

    __slots__ = ("operation", "affected_ancestors", "new_node_ids",
                 "removed_node_ids", "shares_rewritten")

    def __init__(self, operation: str) -> None:
        self.operation = operation
        self.affected_ancestors: List[int] = []
        self.new_node_ids: List[int] = []
        self.removed_node_ids: List[int] = []
        self.shares_rewritten = 0

    def as_dict(self) -> Dict[str, object]:
        """Dictionary form for tabular reporting."""
        return {
            "operation": self.operation,
            "affected_ancestors": len(self.affected_ancestors),
            "new_nodes": len(self.new_node_ids),
            "removed_nodes": len(self.removed_node_ids),
            "shares_rewritten": self.shares_rewritten,
        }

    def __repr__(self) -> str:
        return (f"UpdateReport({self.operation!r}, ancestors={self.affected_ancestors}, "
                f"new={self.new_node_ids}, removed={self.removed_node_ids})")


class UpdatableTree:
    """Client-side editor for an outsourced share tree.

    The editor needs the client's secret state (mapping + share generator)
    and access to the server share tree it mutates.  In a deployment the
    mutations would travel as explicit update messages; the cost model
    (which nodes receive new shares) is identical, and that is what the
    report captures.

    All mutations of one operation are pushed as a single
    :meth:`~repro.core.share_tree.ShareStore.transaction` batch, so
    ``server_tree`` may be any :class:`~repro.core.share_tree.ShareStore`
    — updates against the durable store persist atomically (the
    batch commits as one SQLite transaction, which a crash rolls back
    whole).  ``lock``, when given, is held across each whole operation
    (reads included); hand it a hosted document's lock so a coalesced
    serving pass never interleaves with a half-computed update.
    """

    def __init__(self, ring: EncodingRing, mapping: TagMapping,
                 client_shares: ClientShareGenerator,
                 server_tree: ShareStore,
                 lock: Optional[ContextManager] = None) -> None:
        self.ring = ring
        self.mapping = mapping
        self.client_shares = client_shares
        self.server_tree = server_tree
        self.lock = lock

    # -- share plumbing -------------------------------------------------------------
    def _guard(self) -> ContextManager:
        """The operation-wide lock (a null context when none was given)."""
        return self.lock if self.lock is not None else contextlib.nullcontext()

    def _node_polynomial(self, node_id: int) -> Polynomial:
        """Reconstruct the true polynomial of a node (client + server share)."""
        return self.ring.add(self.client_shares.share_for(node_id),
                             self.server_tree.share_of(node_id))

    def _write_polynomial(self, txn, node_id: int, polynomial: Polynomial,
                          report: UpdateReport) -> None:
        """Buffer a new value for a node by rewriting its *server* share."""
        client_share = self.client_shares.share_for(node_id)
        txn.replace_share(node_id, self.ring.sub(polynomial, client_share))
        report.shares_rewritten += 1

    def _ancestor_path(self, node_id: int) -> List[int]:
        """Ancestors of ``node_id`` from its parent up to the root."""
        path: List[int] = []
        current = self.server_tree.parent_id(node_id)
        while current is not None:
            path.append(current)
            current = self.server_tree.parent_id(current)
        return path

    def _own_tag_value(self, node_id: int) -> int:
        """Recover a node's mapped tag value from the shares (Theorem 1/2)."""
        children = [self._node_polynomial(child)
                    for child in self.server_tree.child_ids(node_id)]
        return self.ring.recover_tag(self._node_polynomial(node_id), children)

    def _subtree_polynomials(self, element: XmlElement) -> Dict[int, Polynomial]:
        """Encode a plaintext subtree bottom-up in **one** pass.

        Returns the §4.1 polynomial of every node, keyed by ``id(node)``.
        Each node's product is computed exactly once and reused by its
        parent — the per-node recursion this replaces recomputed the whole
        descendant product for every node, making insertion O(n²) in the
        subtree size.
        """
        polynomials: Dict[int, Polynomial] = {}
        for node in element.iter_postorder():
            polynomial = self.ring.from_tag_value(self.mapping.value(node.tag))
            for child in node.children:
                polynomial = self.ring.mul(polynomial, polynomials[id(child)])
            polynomials[id(node)] = polynomial
        return polynomials

    def _recompute_path(self, txn, ordered_nodes: List[int],
                        own_values: Dict[int, int], skip_children: set,
                        report: UpdateReport) -> None:
        """Recompute ``(x − value) · ∏ children`` bottom-up along a path.

        ``ordered_nodes`` runs child-to-root, so each node's freshly
        computed polynomial is available (via the overrides map) when its
        parent multiplies it in — nothing is re-read from the store after
        the first pass, keeping every read at the pre-update state.
        """
        overrides: Dict[int, Polynomial] = {}
        for node_id in ordered_nodes:
            polynomial = self.ring.from_tag_value(own_values[node_id])
            for child in self.server_tree.child_ids(node_id):
                if child in skip_children:
                    continue
                child_polynomial = overrides.get(child)
                if child_polynomial is None:
                    child_polynomial = self._node_polynomial(child)
                polynomial = self.ring.mul(polynomial, child_polynomial)
            overrides[node_id] = polynomial
            self._write_polynomial(txn, node_id, polynomial, report)

    # -- public operations ------------------------------------------------------------
    def insert_subtree(self, parent_id: int, element: XmlElement) -> UpdateReport:
        """Insert a plaintext subtree as a new child of ``parent_id``."""
        if parent_id not in self.server_tree:
            raise QueryError(f"unknown parent node {parent_id}")
        self.mapping.extend(node.tag for node in element.iter())
        report = UpdateReport("insert")

        with self._guard():
            # 1. Encode the new nodes bottom-up (one ring product per node)
            #    and allocate fresh identifiers from one store query.
            polynomials = self._subtree_polynomials(element)
            subtree_polynomial = polynomials[id(element)]
            next_id = (self.server_tree.max_node_id() or 0) + 1

            # 2. Compute the updated ancestor polynomials (reads only).
            ancestors = [parent_id] + self._ancestor_path(parent_id)
            updated = {ancestor: self.ring.mul(self._node_polynomial(ancestor),
                                               subtree_polynomial)
                       for ancestor in ancestors}

            # 3. Push everything — new nodes plus every ancestor rewrite —
            #    as one atomic batch.
            #    The new ids run from ``next_id`` in the order the walk
            #    visits the nodes.
            new_shares = self.client_shares.iter_shares(
                range(next_id, next_id + len(polynomials)))
            with self.server_tree.transaction() as txn:
                stack = [(element, parent_id)]
                while stack:
                    node, node_parent = stack.pop()
                    node_id, client_share = next(new_shares)
                    txn.add_node(node_id, node_parent,
                                 self.ring.sub(polynomials[id(node)],
                                               client_share))
                    report.new_node_ids.append(node_id)
                    report.shares_rewritten += 1
                    stack.extend((child, node_id)
                                 for child in reversed(node.children))
                for ancestor in ancestors:
                    self._write_polynomial(txn, ancestor, updated[ancestor],
                                           report)
        report.affected_ancestors = ancestors
        return report

    def delete_subtree(self, node_id: int) -> UpdateReport:
        """Delete the subtree rooted at ``node_id`` (the root cannot be deleted)."""
        if node_id not in self.server_tree:
            raise QueryError(f"unknown node {node_id}")
        parent_id = self.server_tree.parent_id(node_id)
        if parent_id is None:
            raise QueryError("the document root cannot be deleted")
        report = UpdateReport("delete")

        with self._guard():
            # 1. Recover the tag value of every affected ancestor before
            #    planning anything (the values are invariant, the
            #    polynomials are not).
            ancestors = [parent_id] + self._ancestor_path(parent_id)
            own_values = {ancestor: self._own_tag_value(ancestor)
                          for ancestor in ancestors}

            # 2. One batch: the subtree removal plus the bottom-up path
            #    recomputation (the removed child is skipped from its
            #    parent's product; deeper ancestors multiply the freshly
            #    recomputed override of the ancestor below them).
            with self.server_tree.transaction() as txn:
                report.removed_node_ids = txn.remove_subtree(node_id)
                self._recompute_path(txn, ancestors, own_values, {node_id},
                                     report)
        report.affected_ancestors = ancestors
        return report

    def rename_node(self, node_id: int, new_tag: str) -> UpdateReport:
        """Change the tag of a single node (structure unchanged)."""
        if node_id not in self.server_tree:
            raise QueryError(f"unknown node {node_id}")
        self.mapping.extend([new_tag])
        report = UpdateReport("rename")

        with self._guard():
            affected = [node_id] + self._ancestor_path(node_id)
            own_values = {node: self._own_tag_value(node) for node in affected}
            own_values[node_id] = self.mapping.value(new_tag)

            with self.server_tree.transaction() as txn:
                self._recompute_path(txn, affected, own_values, set(), report)
        report.affected_ancestors = affected
        return report

    def refresh_shares(self, new_generator: ClientShareGenerator) -> UpdateReport:
        """Proactively re-randomise every share under a new client seed.

        The data does not change: for every node the server share becomes
        ``polynomial − new_client_share``.  After the refresh the old seed is
        useless, which limits the damage of a leaked seed — and because the
        whole re-randomisation is one batch, a crash can never strand the
        tree half on the old seed and half on the new one.
        """
        report = UpdateReport("refresh")
        with self._guard():
            with self.server_tree.transaction() as txn:
                node_ids = self.server_tree.node_ids()
                for (node_id, old_share), (_, new_share) in zip(
                        self.client_shares.iter_shares(node_ids),
                        new_generator.iter_shares(node_ids)):
                    polynomial = self.ring.add(
                        old_share, self.server_tree.share_of(node_id))
                    txn.replace_share(node_id,
                                      self.ring.sub(polynomial, new_share))
                    report.shares_rewritten += 1
        self.client_shares = new_generator
        return report
