"""Leakage audit: what does the server actually observe?

The paper's security claim is informal ("without the server learning
anything about the data or the query").  The reproduction makes the
honest-but-curious server's view explicit and auditable:

* the server's static view: the public tree structure and its share
  polynomials — the latter are distributed like uniformly random ring
  elements, independent of the data, because they are one-time-padded by
  the client's random shares;
* the per-query view: the query *point* (not the tag name — the mapping is
  private), the nodes it was asked to evaluate, and the prune notices,
  i.e. the access pattern.

The audit is used by tests (share randomisation sanity checks) and by the
security example; it also documents the known leakage (access pattern and
query-point repetition) that later literature exploited — see
EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict

from ..core.query import ServerObservations
from ..core.share_tree import ServerShareTree

__all__ = ["LeakageReport", "audit_server_view", "share_value_histogram"]


class LeakageReport:
    """Summary of the information visible to the server."""

    __slots__ = ("node_count", "structure_known", "distinct_points_seen",
                 "point_frequencies", "evaluation_requests", "pruned_nodes",
                 "polynomials_served", "tag_names_seen", "plaintext_seen")

    def __init__(self, node_count: int, structure_known: bool,
                 point_frequencies: Dict[int, int], evaluation_requests: int,
                 pruned_nodes: int, polynomials_served: int) -> None:
        self.node_count = node_count
        #: The tree shape is public by design.
        self.structure_known = structure_known
        self.distinct_points_seen = len(point_frequencies)
        #: How often each query point recurred (query-pattern leakage).
        self.point_frequencies = dict(point_frequencies)
        self.evaluation_requests = evaluation_requests
        self.pruned_nodes = pruned_nodes
        self.polynomials_served = polynomials_served
        #: The protocol never carries tag names or plaintext values.
        self.tag_names_seen = 0
        self.plaintext_seen = 0

    def as_dict(self) -> Dict[str, int]:
        """Dictionary form for tabular reporting."""
        return {
            "node_count": self.node_count,
            "structure_known": int(self.structure_known),
            "distinct_points_seen": self.distinct_points_seen,
            "evaluation_requests": self.evaluation_requests,
            "pruned_nodes": self.pruned_nodes,
            "polynomials_served": self.polynomials_served,
            "tag_names_seen": self.tag_names_seen,
            "plaintext_seen": self.plaintext_seen,
        }

    def __repr__(self) -> str:
        return (f"LeakageReport(points={self.distinct_points_seen}, "
                f"evaluations={self.evaluation_requests}, pruned={self.pruned_nodes})")


def audit_server_view(server: Any) -> LeakageReport:
    """Build a :class:`LeakageReport` from a server's recorded observations.

    ``server`` is a :class:`~repro.net.SearchServer` (its default
    document's store, its whole-server ledger) or a
    :class:`~repro.core.LocalServerAdapter`: both keep one
    :class:`~repro.core.query.ServerObservations` ledger in
    ``observations`` beside the store they serve, ``share_tree``.
    """
    observations = getattr(server, "observations", None)
    if not isinstance(observations, ServerObservations):
        raise TypeError("audit_server_view expects a SearchServer or "
                        "LocalServerAdapter")
    return LeakageReport(
        node_count=server.share_tree.node_count(),
        structure_known=True,
        point_frequencies=dict(observations.point_counts),
        evaluation_requests=observations.evaluation_requests,
        pruned_nodes=observations.pruned_nodes,
        polynomials_served=observations.polynomials_served,
    )


def share_value_histogram(share_tree: ServerShareTree,
                          coefficient_index: int = 0) -> Dict[int, int]:
    """Histogram of one coefficient across all server shares.

    For the ``F_p`` ring a healthy sharing has this histogram close to
    uniform over ``F_p`` regardless of the underlying document — the
    statistical sanity check used by the property-based tests.
    """
    histogram: Counter = Counter()
    for node_id in share_tree.node_ids():
        value = share_tree.share_of(node_id).coefficient(coefficient_index)
        histogram[int(value)] += 1
    return dict(histogram)
