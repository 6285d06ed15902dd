"""Splitting the polynomial tree into client and server shares (§4.2).

The client builds a tree with the same structure as the encoded document
but with *random* polynomials, and hands the server the difference tree:
``server_share = polynomial - client_share`` per node, so the two shares
sum to the original polynomial (figures 3 and 4).

Because the client polynomials come from a seeded deterministic PRG
(:class:`repro.prg.DeterministicPRG`), the client does not need to store
its tree at all — it keeps the seed and regenerates the share of any node
on demand ("only the seed has to be stored on the client").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing
from ..errors import SharingError
from ..prg import DeterministicPRG
from ..sharing.additive import combine_additive
from .encoder import PolynomialTree

__all__ = ["ClientShareGenerator", "ServerShareTree", "share_tree", "reconstruct_tree"]

_SHARE_LABEL = "node-share"


class ClientShareGenerator:
    """Regenerates the client's random share for any node from the seed.

    Shares are deterministic in ``(seed, node_id)``, so an LRU cache makes
    repeated queries (which re-derive the same PRG share polynomials on
    every descent and verification) cost one derivation per node instead of
    one per use.  ``cache_size=0`` disables the cache.
    """

    def __init__(self, ring: EncodingRing, prg: DeterministicPRG,
                 cache_size: int = 1024) -> None:
        self.ring = ring
        self.prg = prg
        self.cache_size = cache_size
        self._cache: "OrderedDict[int, Polynomial]" = OrderedDict()
        # Shares are deterministic, so concurrent sessions may safely share
        # one generator; the lock only protects the LRU bookkeeping.
        self._cache_lock = threading.Lock()
        # Domain-separated root stream for shares: per-node streams are
        # cheap forks of it (no per-node seed derivation or key schedule).
        self._share_root = prg.stream(_SHARE_LABEL)

    def share_for(self, node_id: int) -> Polynomial:
        """The client's share polynomial for ``node_id`` (deterministic)."""
        cache = self._cache
        with self._cache_lock:
            share = cache.get(node_id)
            if share is not None:
                cache.move_to_end(node_id)
                return share
        share = self.ring.random_element_from_stream(self._share_root.fork(node_id))
        if self.cache_size > 0:
            with self._cache_lock:
                cache[node_id] = share
                if len(cache) > self.cache_size:
                    cache.popitem(last=False)
        return share

    def evaluate(self, node_id: int, point: int) -> int:
        """Evaluate the client's share of ``node_id`` at a query point."""
        return self.ring.evaluate(self.share_for(node_id), point)

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        """Evaluate the client's shares of many nodes at one point."""
        shares = [self.share_for(node_id) for node_id in node_ids]
        return dict(zip(node_ids, self.ring.evaluate_many(shares, point)))

    def shares_for(self, node_ids: Iterable[int]) -> Dict[int, Polynomial]:
        """Client shares for several nodes at once."""
        return {node_id: self.share_for(node_id) for node_id in node_ids}


class ServerShareTree:
    """The server's half of the shared data: public structure + share polynomials.

    This is everything the untrusted server stores.  It intentionally has no
    reference to the tag mapping, the client seed or the original document.
    """

    def __init__(self, ring: EncodingRing) -> None:
        self.ring = ring
        self.shares: Dict[int, Polynomial] = {}
        self.parents: Dict[int, Optional[int]] = {}
        self.children: Dict[int, List[int]] = {}
        self.root_id: Optional[int] = None

    # -- construction -----------------------------------------------------------
    def add_node(self, node_id: int, parent_id: Optional[int],
                 share: Polynomial) -> None:
        """Insert one node's share; parents must precede children."""
        if node_id in self.shares:
            raise SharingError(f"duplicate node id {node_id}")
        if parent_id is None:
            if self.root_id is not None:
                raise SharingError("the share tree already has a root")
            self.root_id = node_id
        elif parent_id not in self.shares:
            raise SharingError(f"parent {parent_id} of node {node_id} is unknown")
        # Shares produced by ring operations are already canonical; only
        # reduce foreign polynomials (e.g. deserialized or hand-built ones).
        self.shares[node_id] = (share if self.ring.is_canonical(share)
                                else self.ring.reduce(share))
        self.parents[node_id] = parent_id
        self.children.setdefault(node_id, [])
        if parent_id is not None:
            self.children[parent_id].append(node_id)

    def replace_share(self, node_id: int, share: Polynomial) -> None:
        """Overwrite the share of an existing node (dynamic updates)."""
        if node_id not in self.shares:
            raise SharingError(f"unknown node id {node_id}")
        self.shares[node_id] = (share if self.ring.is_canonical(share)
                                else self.ring.reduce(share))

    def remove_subtree(self, node_id: int) -> List[int]:
        """Remove ``node_id`` and every descendant; returns the removed ids.

        The root cannot be removed (the tree would lose its anchor).
        """
        if node_id not in self.shares:
            raise SharingError(f"unknown node id {node_id}")
        parent_id = self.parents[node_id]
        if parent_id is None:
            raise SharingError("the root node cannot be removed")
        removed: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            removed.append(current)
            stack.extend(self.children.get(current, ()))
        for current in removed:
            del self.shares[current]
            del self.parents[current]
            self.children.pop(current, None)
        self.children[parent_id].remove(node_id)
        return removed

    # -- queries the server can answer --------------------------------------------
    def share_of(self, node_id: int) -> Polynomial:
        """The stored share polynomial of a node."""
        try:
            return self.shares[node_id]
        except KeyError:
            raise SharingError(f"unknown node id {node_id}") from None

    def evaluate(self, node_id: int, point: int) -> int:
        """Evaluate the server's share of a node at a query point (§4.3)."""
        return self.ring.evaluate(self.share_of(node_id), point)

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        """Evaluate many node shares at one point (one batched pass)."""
        shares = [self.share_of(node_id) for node_id in node_ids]
        return dict(zip(node_ids, self.ring.evaluate_many(shares, point)))

    def child_ids(self, node_id: int) -> List[int]:
        """Public child list of a node."""
        if node_id not in self.children:
            raise SharingError(f"unknown node id {node_id}")
        return list(self.children[node_id])

    def parent_id(self, node_id: int) -> Optional[int]:
        """Public parent of a node."""
        if node_id not in self.parents:
            raise SharingError(f"unknown node id {node_id}")
        return self.parents[node_id]

    def node_ids(self) -> List[int]:
        """All node identifiers."""
        return sorted(self.shares)

    def max_node_id(self) -> Optional[int]:
        """Largest stored node id (``None`` for an empty tree).

        One pass over the id set; update batches call this once and then
        count locally instead of rescanning per inserted node.
        """
        return max(self.shares) if self.shares else None

    def node_count(self) -> int:
        """Number of nodes stored."""
        return len(self.shares)

    def depth_of(self, node_id: int) -> int:
        """Depth computed from the public structure."""
        depth = 0
        current = self.parents.get(node_id)
        while current is not None:
            depth += 1
            current = self.parents.get(current)
        return depth

    def storage_bits(self) -> int:
        """Measured storage of all share polynomials (the server-side cost, §5)."""
        return sum(self.ring.element_storage_bits(share)
                   for share in self.shares.values())

    def __len__(self) -> int:
        return len(self.shares)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.shares

    def __repr__(self) -> str:
        return f"<ServerShareTree ring={self.ring.name} nodes={len(self.shares)}>"


def share_tree(tree: PolynomialTree, prg: DeterministicPRG,
               generator: Optional[ClientShareGenerator] = None,
               ) -> Tuple[ClientShareGenerator, ServerShareTree]:
    """Split an encoded tree into the client generator and the server tree.

    Passing an existing ``generator`` (e.g. the one owned by a
    :class:`~repro.core.scheme.ClientContext`) leaves its share cache warm
    for the queries that follow outsourcing.
    """
    generator = generator or ClientShareGenerator(tree.ring, prg)
    server = ServerShareTree(tree.ring)
    for node in tree.iter_preorder():
        client_share = generator.share_for(node.node_id)
        server_share = tree.ring.sub(node.polynomial, client_share)
        server.add_node(node.node_id, node.parent_id, server_share)
    return generator, server


def reconstruct_tree(client: ClientShareGenerator,
                     server: ServerShareTree) -> PolynomialTree:
    """Recombine both halves into the original polynomial tree.

    Only the client can do this (it owns the seed); used in tests and by the
    verification path of the query protocol.
    """
    if client.ring != server.ring and client.ring.name != server.ring.name:
        raise SharingError("client and server use different rings")
    tree = PolynomialTree(server.ring)
    for node_id in server.node_ids():
        combined = combine_additive(
            server.ring, [client.share_for(node_id), server.share_of(node_id)])
        parent_id = server.parent_id(node_id)
        # Parents come first (add_node requires it), so their depth is known.
        depth = tree.nodes[parent_id].depth + 1 if parent_id in tree.nodes else 0
        tree.add_node(node_id, parent_id, combined, depth)
    return tree
