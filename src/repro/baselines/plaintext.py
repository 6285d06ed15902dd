"""Baseline 1: plaintext (unencrypted) XPath search.

This is the paper's reference point for storage (§5: an unencrypted tree
of ``n`` elements over ``p`` distinct tag names needs on the order of
``n·log p`` bits) and the correctness oracle for every other system: all
query answers are checked against it.
"""

from __future__ import annotations

import math
from typing import Union

from ..xmltree import XmlDocument, serialize_document
from ..xpath import LocationPath, evaluate_xpath
from .common import BaselineResult, BaselineStats, element_ids

__all__ = ["PlaintextSearchIndex"]


class PlaintextSearchIndex:
    """In-memory plaintext search over the original document."""

    def __init__(self, document: XmlDocument) -> None:
        self.document = document

    # -- queries -------------------------------------------------------------------
    def query(self, xpath: Union[str, LocationPath]) -> BaselineResult:
        """Evaluate an XPath query directly on the plaintext tree."""
        stats = BaselineStats()
        matches = evaluate_xpath(self.document, xpath)
        # A plaintext evaluator still walks the tree; charge one visit per
        # element so pruning comparisons have a sensible denominator.
        stats.nodes_visited = self.document.size()
        stats.server_operations = self.document.size()
        return BaselineResult(element_ids(self.document, matches), stats)

    def lookup(self, tag: str) -> BaselineResult:
        """Element lookup ``//tag``."""
        return self.query(f"//{tag}")

    # -- storage (§5) --------------------------------------------------------------------
    def storage_bits_formula(self) -> int:
        """The analytic ``n·⌈log₂ p⌉`` bits of §5 (tag identifiers only)."""
        n = self.document.size()
        p = max(2, len(self.document.distinct_tags()))
        return n * max(1, math.ceil(math.log2(p)))

    def storage_bits_measured(self) -> int:
        """Measured size of the serialised document (an upper bound in practice)."""
        return len(serialize_document(self.document, indent=0).encode("utf-8")) * 8
