"""Baseline 3: linear scan over per-node searchable tokens (SWP-style).

The related-work section of the paper ([2] Song, Wagner, Perrig and the
authors' own linear-search experiments [15]) describes keyword search by
scanning *every* encrypted item and testing it against a trapdoor.  This
module implements that cost profile for XML element tags:

* outsourcing stores, per node, a public salt and a deterministic code
  ``HMAC(trapdoor(tag), salt)`` where ``trapdoor(tag) = HMAC(key, tag)``;
* a query sends ``trapdoor(tag)``; the server recomputes the code for all
  ``n`` nodes and returns the ids that match.

The essential behavioural property preserved from the original scheme is
that the server must touch every node for every query (no pruning), which
is exactly the contrast the paper draws with its tree-structured index.
Like SWP, the access pattern (which nodes matched) leaks to the server.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, List, Union

from ..prg import DeterministicPRG, derive_seed
from ..xmltree import XmlDocument
from ..xpath import LocationPath, parse_xpath
from .common import BaselineResult, BaselineStats, preorder_index

__all__ = ["LinearScanIndex", "LinearScanClient", "build_linear_scan"]

_TRAPDOOR_LABEL = "swp-trapdoor-key"
_SALT_LABEL = "swp-node-salt"
_CODE_BYTES = 16
_SALT_BYTES = 16


def _code(trapdoor: bytes, salt: bytes) -> bytes:
    return hmac.new(trapdoor, salt, hashlib.sha256).digest()[:_CODE_BYTES]


class LinearScanIndex:
    """The server-side index: one ``(salt, code)`` pair per node."""

    def __init__(self, entries: List[Dict[str, bytes]],
                 structure_parents: List[int]) -> None:
        self.entries = entries
        #: Parent id per node (-1 for the root); kept so result node ids can be
        #: interpreted, mirroring the public structure of the main scheme.
        self.structure_parents = structure_parents

    def node_count(self) -> int:
        """Number of indexed nodes."""
        return len(self.entries)

    def scan(self, trapdoor: bytes, stats: BaselineStats) -> List[int]:
        """Test every node against the trapdoor; returns matching node ids."""
        matches: List[int] = []
        for node_id, entry in enumerate(self.entries):
            stats.server_operations += 1
            stats.nodes_visited += 1
            if _code(trapdoor, entry["salt"]) == entry["code"]:
                matches.append(node_id)
        return matches

    def storage_bits(self) -> int:
        """Index storage: salt plus code per node."""
        return len(self.entries) * (_SALT_BYTES + _CODE_BYTES) * 8


class LinearScanClient:
    """The client role: key management, trapdoors, multi-step queries."""

    def __init__(self, prg: DeterministicPRG) -> None:
        self.prg = prg
        self._trapdoor_key = derive_seed(prg.seed, _TRAPDOOR_LABEL)

    # -- outsourcing --------------------------------------------------------------
    def outsource(self, document: XmlDocument) -> LinearScanIndex:
        """Build the per-node token index for a document."""
        index = preorder_index(document)
        entries: List[Dict[str, bytes]] = [None] * document.size()  # type: ignore
        parents: List[int] = [-1] * document.size()
        for element in document.iter():
            node_id = index[id(element)]
            salt = self.prg.stream(_SALT_LABEL, node_id).read(_SALT_BYTES)
            entries[node_id] = {
                "salt": salt,
                "code": _code(self.trapdoor(element.tag), salt),
            }
            if element.parent is not None:
                parents[node_id] = index[id(element.parent)]
        return LinearScanIndex(entries, parents)

    def trapdoor(self, tag: str) -> bytes:
        """Deterministic trapdoor for a tag name."""
        return hmac.new(self._trapdoor_key, tag.encode("utf-8"),
                        hashlib.sha256).digest()

    # -- querying ------------------------------------------------------------------------
    def lookup(self, index: LinearScanIndex, tag: str) -> BaselineResult:
        """Element lookup ``//tag`` by scanning all nodes."""
        stats = BaselineStats()
        trapdoor = self.trapdoor(tag)
        stats.bytes_to_server += len(trapdoor)
        stats.round_trips += 1
        matches = index.scan(trapdoor, stats)
        stats.bytes_to_client += 8 * len(matches)
        return BaselineResult(matches, stats)

    def query(self, index: LinearScanIndex, xpath: Union[str, LocationPath]
              ) -> BaselineResult:
        """Multi-step path query: one scan per step, joined via the structure.

        The token index knows nothing about tree containment, so each step
        scans all ``n`` nodes and the client joins the per-step matches with
        the public parent structure (child = parent link, descendant =
        transitive parent link).
        """
        path = parse_xpath(xpath) if isinstance(xpath, str) else xpath
        stats = BaselineStats()
        parents = index.structure_parents

        def is_descendant(node: int, ancestor: int) -> bool:
            current = parents[node]
            while current != -1:
                if current == ancestor:
                    return True
                current = parents[current]
            return False

        current_matches: List[int] = []
        for step_number, step in enumerate(path.steps):
            if step.is_wildcard():
                step_matches = list(range(index.node_count()))
                stats.nodes_visited += index.node_count()
            else:
                trapdoor = self.trapdoor(step.tag)
                stats.bytes_to_server += len(trapdoor)
                stats.round_trips += 1
                step_matches = index.scan(trapdoor, stats)
                stats.bytes_to_client += 8 * len(step_matches)
            if step_number == 0:
                from ..xpath import Axis

                if step.axis is Axis.CHILD:
                    step_matches = [m for m in step_matches if parents[m] == -1]
                current_matches = step_matches
                continue
            from ..xpath import Axis

            if step.axis is Axis.CHILD:
                allowed = set(current_matches)
                current_matches = [m for m in step_matches if parents[m] in allowed]
            else:
                current_matches = [m for m in step_matches
                                   if any(is_descendant(m, a) for a in current_matches)]
        return BaselineResult(sorted(set(current_matches)), stats)


def build_linear_scan(document: XmlDocument,
                      seed: bytes = b"linear-scan-seed"
                      ) -> tuple:
    """Convenience constructor returning ``(client, index)``."""
    client = LinearScanClient(DeterministicPRG(seed))
    return client, client.outsource(document)
