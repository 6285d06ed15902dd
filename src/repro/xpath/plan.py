"""Query plans for encrypted evaluation.

The encrypted search protocol cannot look at tag names directly; it can
only test, per node, whether the factor ``(x - map(tag))`` divides the node
polynomial — i.e. whether *some* descendant-or-self carries that tag
(§4.3).  A :class:`TagQueryPlan` captures what the client needs for this:

* the ordered steps with their axes (structure navigation is public);
* per step, the remaining multiset of tags that must still appear strictly
  below a candidate — this powers the paper's "advanced querying" strategy
  where a whole suffix of the query is tested against one polynomial.

Wildcard steps contribute structure but no containment test.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from ..errors import QueryError
from .ast import Axis, LocationPath, Step
from .parser import parse_xpath

__all__ = ["PlannedStep", "TagQueryPlan", "compile_plan"]


class PlannedStep:
    """A step annotated with the tag requirements of the remaining suffix."""

    __slots__ = ("axis", "tag", "remaining_tags")

    def __init__(self, axis: Axis, tag: str, remaining_tags: Tuple[str, ...]) -> None:
        self.axis = axis
        self.tag = tag
        #: Tags of this step and every later step (wildcards excluded) — all
        #: of them must be roots of a candidate node's polynomial.
        self.remaining_tags = remaining_tags

    def is_wildcard(self) -> bool:
        """True when the step matches any tag."""
        return self.tag == Step.WILDCARD

    def __repr__(self) -> str:
        return (f"PlannedStep({self.axis.name}, {self.tag!r}, "
                f"remaining={list(self.remaining_tags)!r})")


class TagQueryPlan:
    """Compiled form of a location path for encrypted evaluation."""

    __slots__ = ("path", "steps", "all_tags")

    def __init__(self, path: LocationPath, steps: Sequence[PlannedStep]) -> None:
        self.path = path
        self.steps: Tuple[PlannedStep, ...] = tuple(steps)
        self.all_tags: Tuple[str, ...] = tuple(
            sorted({step.tag for step in steps if not step.is_wildcard()}))

    @property
    def length(self) -> int:
        """Number of steps in the plan."""
        return len(self.steps)

    def is_simple_lookup(self) -> bool:
        """True for the basic ``//tag`` element lookup."""
        return self.path.is_single_descendant_lookup()

    def distinct_tag_count(self) -> int:
        """Number of distinct tags the client must map to query points."""
        return len(self.all_tags)

    def __repr__(self) -> str:
        return f"TagQueryPlan({str(self.path)!r}, steps={len(self.steps)})"


def compile_plan(query: Union[str, LocationPath]) -> TagQueryPlan:
    """Compile a query string or parsed path into a :class:`TagQueryPlan`."""
    path = parse_xpath(query) if isinstance(query, str) else query
    if not isinstance(path, LocationPath):
        raise QueryError("query must be a string or a LocationPath")
    steps: List[PlannedStep] = []
    for index, step in enumerate(path.steps):
        remaining = tuple(s.tag for s in path.steps[index:] if not s.is_wildcard())
        steps.append(PlannedStep(step.axis, step.tag, remaining))
    return TagQueryPlan(path, steps)
