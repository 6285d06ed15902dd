"""Shared plumbing for the baseline search systems.

All baselines report their answers as *pre-order node identifiers* — the
same numbering the core scheme uses — so results are directly comparable
in tests and benchmarks.  They also share a small result/stats record.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..xmltree import XmlDocument

__all__ = ["preorder_index", "element_ids", "BaselineStats", "BaselineResult"]


def preorder_index(document: XmlDocument) -> Dict[int, int]:
    """Map ``id(element)`` to its pre-order position (the scheme's node id)."""
    return {id(element): index for index, element in enumerate(document.iter())}


def element_ids(document: XmlDocument, elements) -> List[int]:
    """Translate a list of elements into sorted pre-order node ids."""
    index = preorder_index(document)
    return sorted(index[id(element)] for element in elements)


class BaselineStats:
    """Work and communication accounting comparable to
    :class:`repro.core.query.QueryStats`."""

    __slots__ = ("nodes_visited", "server_operations", "bytes_to_server",
                 "bytes_to_client", "round_trips")

    def __init__(self) -> None:
        self.nodes_visited = 0
        self.server_operations = 0
        self.bytes_to_server = 0
        self.bytes_to_client = 0
        self.round_trips = 0

    @property
    def total_bytes(self) -> int:
        """Bytes in both directions."""
        return self.bytes_to_server + self.bytes_to_client

    def as_dict(self) -> Dict[str, int]:
        """Dictionary form for tabular reporting."""
        return {
            "nodes_visited": self.nodes_visited,
            "server_operations": self.server_operations,
            "bytes_to_server": self.bytes_to_server,
            "bytes_to_client": self.bytes_to_client,
            "total_bytes": self.total_bytes,
            "round_trips": self.round_trips,
        }

    def __repr__(self) -> str:
        return (f"BaselineStats(visited={self.nodes_visited}, "
                f"ops={self.server_operations}, bytes={self.total_bytes})")


class BaselineResult:
    """Answer of a baseline query: node ids plus accounting."""

    __slots__ = ("matches", "stats", "false_positives")

    def __init__(self, matches: List[int], stats: BaselineStats,
                 false_positives: Optional[int] = None) -> None:
        self.matches = sorted(matches)
        self.stats = stats
        #: For probabilistic indexes (Bloom filters): candidates that had to be
        #: discarded after the exact check.
        self.false_positives = false_positives or 0

    def __repr__(self) -> str:
        return f"BaselineResult(matches={self.matches}, stats={self.stats!r})"
