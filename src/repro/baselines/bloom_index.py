"""Baseline 4: per-node Bloom-filter index (Goh-style secure index).

The conclusion of the paper lists Bloom filters [18] as an alternative way
to index encrypted data.  This baseline realises that alternative so the
two tree-pruning approaches can be compared:

* every node stores a Bloom filter over the HMAC-trapdoors of the tags in
  its *subtree* (descendant-or-self) — the pruning analogue of the
  polynomial containing the roots of all descendants — plus an exact
  per-node code for its own tag (to confirm matches);
* a query walks the tree top-down, pruning subtrees whose filter does not
  contain the queried trapdoor; filter *false positives* cause extra
  visits, which is the characteristic trade-off of the approach (tunable
  via the false-positive rate).

Like the main scheme, pruning is sound (no false negatives); unlike the
main scheme, extra work grows as the filters are made smaller.
"""

from __future__ import annotations

import hashlib
import hmac
import math
from typing import Dict, List, Optional, Tuple

from ..prg import DeterministicPRG, derive_seed
from ..xmltree import XmlDocument, XmlElement
from .common import BaselineResult, BaselineStats, preorder_index

__all__ = ["BloomFilter", "BloomIndexNode", "BloomTreeIndex", "BloomIndexClient",
           "build_bloom_index"]

_TRAPDOOR_LABEL = "bloom-trapdoor-key"
_CODE_LABEL = "bloom-node-code"
_CODE_BYTES = 16


class BloomFilter:
    """A fixed-size Bloom filter with ``k`` HMAC-derived hash positions."""

    __slots__ = ("size_bits", "hash_count", "bits")

    def __init__(self, size_bits: int, hash_count: int, bits: int = 0) -> None:
        if size_bits < 8:
            raise ValueError("the filter needs at least 8 bits")
        if hash_count < 1:
            raise ValueError("at least one hash function is required")
        self.size_bits = size_bits
        self.hash_count = hash_count
        self.bits = bits

    @classmethod
    def for_capacity(cls, expected_items: int,
                     false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``expected_items`` at the requested FP rate."""
        expected_items = max(1, expected_items)
        if not 0 < false_positive_rate < 1:
            raise ValueError("false_positive_rate must be in (0, 1)")
        size = max(8, int(math.ceil(
            -expected_items * math.log(false_positive_rate) / (math.log(2) ** 2))))
        hashes = max(1, int(round(size / expected_items * math.log(2))))
        return cls(size, hashes)

    def _positions(self, item: bytes) -> List[int]:
        positions = []
        for i in range(self.hash_count):
            digest = hmac.new(item, i.to_bytes(4, "big"), hashlib.sha256).digest()
            positions.append(int.from_bytes(digest[:8], "big") % self.size_bits)
        return positions

    def add(self, item: bytes) -> None:
        """Insert an item."""
        for position in self._positions(item):
            self.bits |= 1 << position

    def might_contain(self, item: bytes) -> bool:
        """Membership test (no false negatives, tunable false positives)."""
        return all(self.bits >> position & 1 for position in self._positions(item))

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Union of two same-shape filters."""
        if (self.size_bits, self.hash_count) != (other.size_bits, other.hash_count):
            raise ValueError("can only union filters with identical parameters")
        return BloomFilter(self.size_bits, self.hash_count, self.bits | other.bits)

    def storage_bits(self) -> int:
        """Size of the filter."""
        return self.size_bits


class BloomIndexNode:
    """Per-node index data: subtree filter + exact own-tag code."""

    __slots__ = ("node_id", "parent_id", "child_ids", "subtree_filter", "tag_code")

    def __init__(self, node_id: int, parent_id: Optional[int],
                 subtree_filter: BloomFilter, tag_code: bytes) -> None:
        self.node_id = node_id
        self.parent_id = parent_id
        self.child_ids: List[int] = []
        self.subtree_filter = subtree_filter
        self.tag_code = tag_code


class BloomTreeIndex:
    """The server-side index: one :class:`BloomIndexNode` per element."""

    def __init__(self, nodes: Dict[int, BloomIndexNode], root_id: int) -> None:
        self.nodes = nodes
        self.root_id = root_id

    def node_count(self) -> int:
        """Number of indexed nodes."""
        return len(self.nodes)

    def storage_bits(self) -> int:
        """Filter plus code storage across all nodes."""
        return sum(node.subtree_filter.storage_bits() + _CODE_BYTES * 8
                   for node in self.nodes.values())

    # -- the server-side search ----------------------------------------------------------
    def search(self, trapdoor: bytes, code: bytes,
               stats: BaselineStats) -> Tuple[List[int], int]:
        """Top-down pruned search; returns ``(matches, false_positive_visits)``.

        A subtree is visited only while its filter claims to contain the
        trapdoor; exact matches are confirmed with the per-node code.  The
        second return value counts nodes whose filter said "maybe" although
        the subtree contains no match at all (the price of the probabilistic
        filter).
        """
        matches: List[int] = []
        subtree_has_match: Dict[int, bool] = {}
        frontier = [self.root_id]
        visited_order: List[int] = []
        while frontier:
            node_id = frontier.pop()
            node = self.nodes[node_id]
            stats.nodes_visited += 1
            stats.server_operations += 1
            visited_order.append(node_id)
            if not node.subtree_filter.might_contain(trapdoor):
                subtree_has_match[node_id] = False
                continue
            if node.tag_code == code:
                matches.append(node_id)
            frontier.extend(node.child_ids)
        # Count "maybe" subtrees that produced no match below them.
        false_positive_visits = 0
        match_set = set(matches)
        for node_id in visited_order:
            subtree = self._subtree_ids(node_id)
            if not match_set.intersection(subtree):
                false_positive_visits += 1
        return sorted(matches), false_positive_visits

    def _subtree_ids(self, node_id: int) -> List[int]:
        result = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self.nodes[current].child_ids)
        return result


class BloomIndexClient:
    """Client role: keys, trapdoors, index construction and querying."""

    def __init__(self, prg: DeterministicPRG,
                 false_positive_rate: float = 0.01) -> None:
        self.prg = prg
        self.false_positive_rate = false_positive_rate
        self._trapdoor_key = derive_seed(prg.seed, _TRAPDOOR_LABEL)

    def trapdoor(self, tag: str) -> bytes:
        """Deterministic trapdoor for a tag name."""
        return hmac.new(self._trapdoor_key, tag.encode("utf-8"),
                        hashlib.sha256).digest()

    def _tag_code(self, tag: str) -> bytes:
        return hmac.new(derive_seed(self.prg.seed, _CODE_LABEL),
                        tag.encode("utf-8"), hashlib.sha256).digest()[:_CODE_BYTES]

    # -- outsourcing -------------------------------------------------------------------
    def outsource(self, document: XmlDocument) -> BloomTreeIndex:
        """Build the per-node Bloom index for a document."""
        index = preorder_index(document)
        nodes: Dict[int, BloomIndexNode] = {}

        def build(element: XmlElement, parent_id: Optional[int]) -> BloomFilter:
            node_id = index[id(element)]
            subtree_tags = set(element.descendant_tags())
            bloom = BloomFilter.for_capacity(len(subtree_tags), self.false_positive_rate)
            for tag in subtree_tags:
                bloom.add(self.trapdoor(tag))
            node = BloomIndexNode(node_id, parent_id, bloom, self._tag_code(element.tag))
            nodes[node_id] = node
            for child in element.children:
                build(child, node_id)
                node.child_ids.append(index[id(child)])
            return bloom

        build(document.root, None)
        return BloomTreeIndex(nodes, index[id(document.root)])

    # -- querying -----------------------------------------------------------------------
    def lookup(self, index: BloomTreeIndex, tag: str) -> BaselineResult:
        """Element lookup ``//tag`` with Bloom-filter pruning."""
        stats = BaselineStats()
        trapdoor = self.trapdoor(tag)
        code = self._tag_code(tag)
        stats.bytes_to_server += len(trapdoor) + len(code)
        stats.round_trips += 1
        matches, false_positives = index.search(trapdoor, code, stats)
        stats.bytes_to_client += 8 * len(matches)
        return BaselineResult(matches, stats, false_positives=false_positives)


def build_bloom_index(document: XmlDocument, seed: bytes = b"bloom-seed",
                      false_positive_rate: float = 0.01) -> tuple:
    """Convenience constructor returning ``(client, index)``."""
    client = BloomIndexClient(DeterministicPRG(seed), false_positive_rate)
    return client, client.outsource(document)
