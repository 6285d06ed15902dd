"""Parameterised synthetic XML generator.

The paper has no public dataset; its cost claims (§5) are about tree size
``n``, tag vocabulary ``p``, depth and how selective the query is.  This
generator exposes exactly those knobs so the benchmarks can sweep them:

* ``element_count`` — target number of elements (the paper's ``n``);
* ``tag_vocabulary`` — number of distinct tag names (bounds ``p``);
* ``max_fanout`` / ``max_depth`` — tree shape;
* ``tag_skew`` — Zipf-like skew of tag popularity, which controls how
  selective a ``//tag`` query is (skewed vocabularies make rare tags very
  selective and popular tags very unselective);
* ``seed`` — full determinism for reproducible experiments.
"""

from __future__ import annotations

import random
from typing import List

from ..xmltree import XmlDocument, XmlElement

__all__ = ["RandomXmlConfig", "generate_random_document", "tag_vocabulary"]


def tag_vocabulary(size: int, prefix: str = "tag") -> List[str]:
    """A deterministic vocabulary of ``size`` tag names."""
    if size < 1:
        raise ValueError("the vocabulary needs at least one tag")
    width = len(str(size - 1))
    return [f"{prefix}{str(i).zfill(width)}" for i in range(size)]


class RandomXmlConfig:
    """Parameters of the synthetic document generator."""

    def __init__(self, element_count: int = 100, tag_vocabulary_size: int = 10,
                 max_fanout: int = 4, max_depth: int = 8,
                 tag_skew: float = 0.0, seed: int = 0,
                 root_tag: str = "root") -> None:
        if element_count < 1:
            raise ValueError("element_count must be at least 1")
        if tag_vocabulary_size < 1:
            raise ValueError("tag_vocabulary_size must be at least 1")
        if max_fanout < 1:
            raise ValueError("max_fanout must be at least 1")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if tag_skew < 0:
            raise ValueError("tag_skew must be non-negative")
        self.element_count = element_count
        self.tag_vocabulary_size = tag_vocabulary_size
        self.max_fanout = max_fanout
        self.max_depth = max_depth
        self.tag_skew = tag_skew
        self.seed = seed
        self.root_tag = root_tag

    def tags(self) -> List[str]:
        """The tag vocabulary used by the generator (excluding the root tag)."""
        return tag_vocabulary(self.tag_vocabulary_size)

    def __repr__(self) -> str:
        return (f"RandomXmlConfig(n={self.element_count}, tags={self.tag_vocabulary_size}, "
                f"fanout<={self.max_fanout}, depth<={self.max_depth}, "
                f"skew={self.tag_skew}, seed={self.seed})")


def _tag_weights(count: int, skew: float) -> List[float]:
    if skew == 0:
        return [1.0] * count
    return [1.0 / (rank ** skew) for rank in range(1, count + 1)]


def generate_random_document(config: RandomXmlConfig) -> XmlDocument:
    """Generate a random document matching ``config``.

    The tree is grown breadth-first: new elements are attached to a random
    existing element whose depth still allows children, until the target
    element count is reached.  The result always has exactly
    ``config.element_count`` elements (including the root).
    """
    rng = random.Random(config.seed)
    tags = config.tags()
    weights = _tag_weights(len(tags), config.tag_skew)

    root = XmlElement(config.root_tag)
    document = XmlDocument(root)
    # Candidate parents: (element, depth, children_so_far).
    open_parents: List[List] = [[root, 0, 0]]

    # The element count is tracked incrementally: document.size() walks the
    # whole tree, which made generation quadratic in element_count and
    # dominated benchmark setup for the >10^5-node serving documents.
    element_count = 1
    while element_count < config.element_count and open_parents:
        slot = rng.randrange(len(open_parents))
        parent_entry = open_parents[slot]
        parent, depth, fanout = parent_entry
        tag = rng.choices(tags, weights=weights, k=1)[0]
        child = parent.add(tag)
        element_count += 1
        parent_entry[2] = fanout + 1
        if parent_entry[2] >= config.max_fanout:
            open_parents.pop(slot)
        if depth + 1 < config.max_depth - 1:
            open_parents.append([child, depth + 1, 0])
    return document
