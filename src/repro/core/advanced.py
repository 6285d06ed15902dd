"""Advanced querying: multi-step XPath evaluation over shared trees (§4.3).

The paper describes two strategies for a query like ``//a/b//c/d/e``:

* **left-to-right** — evaluate ``//a`` over the whole tree, then search for
  ``b`` within the found branches, and so on.  Simple, but every descent
  prunes on a single tag only.
* **single-pass** (the paper's recommendation) — exploit the fact that a
  node's polynomial contains the roots of *all* its descendants, so one
  descent can require the whole remaining tag multiset at once: "a single
  query can find all elements that contains the elements a, b, c, d and e
  (in any order)", after which each location step anchors the candidates
  top-down.  "Using this strategy elements are filtered out in a very
  early stage and therefore increases efficiency."

Both strategies return exactly the XPath answer (they are checked against
the plaintext evaluator in the tests); they differ only in how much of the
tree they touch, which is what experiment E11 measures.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Union

from ..errors import QueryError
from ..xpath import Axis, LocationPath, TagQueryPlan, compile_plan
from .query import QueryEngine, QueryStats

__all__ = ["AdvancedStrategy", "AdvancedQueryResult", "AdvancedQueryExecutor"]


class AdvancedStrategy(enum.Enum):
    """How multi-step queries are evaluated."""

    #: One descent per step pruning on the full remaining tag multiset.
    SINGLE_PASS = "single-pass"

    #: The naive strategy: each step prunes only on its own tag.
    LEFT_TO_RIGHT = "left-to-right"


class AdvancedQueryResult:
    """Answer of a multi-step query."""

    __slots__ = ("plan", "strategy", "matches", "stats", "per_step_candidates")

    def __init__(self, plan: TagQueryPlan, strategy: AdvancedStrategy) -> None:
        self.plan = plan
        self.strategy = strategy
        #: Node ids matching the full location path, sorted.
        self.matches: List[int] = []
        self.stats = QueryStats()
        #: Number of anchored candidates after each step (for analysis).
        self.per_step_candidates: List[int] = []

    def __repr__(self) -> str:
        return (f"AdvancedQueryResult(query={str(self.plan.path)!r}, "
                f"strategy={self.strategy.value}, matches={self.matches})")


class AdvancedQueryExecutor:
    """Executes compiled :class:`~repro.xpath.TagQueryPlan` objects."""

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    # -- public API -----------------------------------------------------------------
    def execute(self, query: Union[str, LocationPath, TagQueryPlan],
                strategy: AdvancedStrategy = AdvancedStrategy.SINGLE_PASS
                ) -> AdvancedQueryResult:
        """Evaluate a location path and return the matching node ids.

        The query starts with an empty memo (:meth:`QueryEngine.begin_query`),
        which its steps then share: a step whose nodes an earlier step has
        already evaluated at its points sends no round for them.
        """
        plan = query if isinstance(query, TagQueryPlan) else compile_plan(query)
        result = AdvancedQueryResult(plan, strategy)
        stats = result.stats
        self.engine.begin_query()

        context: Optional[List[int]] = None  # None = the virtual document context
        try:
            for index, step in enumerate(plan.steps):
                containment_tags = self._containment_tags(step, strategy)
                candidates = self._candidates_for_step(context, step.axis, index == 0,
                                                       containment_tags, stats)
                anchored = self._anchor(candidates, step.tag, stats)
                result.per_step_candidates.append(len(anchored))
                if not anchored:
                    result.matches = []
                    return result
                context = sorted(anchored)
            result.matches = sorted(set(context or []))
            return result
        finally:
            # Deliver prune notices still buffered by a batched transport.
            stats.round_trips += self.engine.server.flush_prunes()

    # -- step machinery --------------------------------------------------------------------
    @staticmethod
    def _containment_tags(step, strategy: AdvancedStrategy) -> List[str]:
        if strategy is AdvancedStrategy.SINGLE_PASS:
            return list(step.remaining_tags)
        return [] if step.is_wildcard() else [step.tag]

    def _candidates_for_step(self, context: Optional[List[int]], axis: Axis,
                             is_first: bool, containment_tags: Sequence[str],
                             stats: QueryStats) -> List[int]:
        """Nodes reachable via ``axis`` whose subtree contains ``containment_tags``."""
        if is_first:
            if axis is Axis.DESCENDANT:
                # descendant-or-self of the document: the whole tree.
                zero_nodes, _ = self.engine.containment_frontier(
                    containment_tags, start_nodes=None, stats=stats)
                return sorted(zero_nodes)
            # A leading child step anchors at the root element itself.
            root = [self.engine.server.root_id()]
            return self.engine.filter_containing(root, containment_tags, stats)

        if context is None:
            raise QueryError("non-initial step executed without a context")

        children_map = self.engine.children_of(context, stats)
        child_ids = sorted({child for node in context for child in children_map[node]})
        if axis is Axis.CHILD:
            return self.engine.filter_containing(child_ids, containment_tags, stats)
        # DESCENDANT: strict descendants of the context nodes.
        if not child_ids:
            return []
        zero_nodes, _ = self.engine.containment_frontier(
            containment_tags, start_nodes=child_ids, stats=stats)
        return sorted(zero_nodes)

    def _anchor(self, candidates: Sequence[int], tag: str,
                stats: QueryStats) -> List[int]:
        """Restrict candidates to the nodes actually carrying the step's tag."""
        if not candidates:
            return []
        if tag == "*":
            return sorted(set(candidates))
        return self.engine.confirm_tag_nodes(candidates, tag, stats)
