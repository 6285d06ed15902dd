"""Storage accounting (the §5 analysis of the paper).

The paper compares three representations of a tree with ``n`` elements and
``p`` distinct tag names (``d`` is the degree of ``r(x)``):

=========================  =====================================
representation             storage order (bits)
=========================  =====================================
unencrypted                ``n · log p``
``Z[x]/(r(x))``            ``n(d+1)·log(pⁿ) = n²(d+1)·log p``
``F_p[x]/(x^{p-1} − 1)``   ``n·(p−1)·log p``
=========================  =====================================

This module computes both the analytic formulas and the *measured* sizes
of concrete encodings so experiment E8 can put them side by side.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..algebra.quotient import FpQuotientRing, IntQuotientRing
from ..core.encoder import encode_document
from ..core.mapping import TagMapping
from ..xmltree import XmlDocument

__all__ = [
    "plaintext_storage_formula_bits",
    "fp_storage_formula_bits",
    "int_storage_formula_bits",
    "StorageRow",
    "storage_report",
]


def plaintext_storage_formula_bits(element_count: int, tag_count: int) -> float:
    """Unencrypted storage, ``n·log₂ p`` bits."""
    return element_count * math.log2(max(2, tag_count))


def fp_storage_formula_bits(element_count: int, prime: int) -> float:
    """``F_p`` ring storage, ``n·(p−1)·log₂ p`` bits."""
    return element_count * (prime - 1) * math.log2(prime)


def int_storage_formula_bits(element_count: int, tag_count: int,
                             modulus_degree: int) -> float:
    """``Z[x]/(r)`` ring storage, ``n²·(d+1)·log₂ p`` bits.

    The quadratic factor reflects the coefficient growth: a node polynomial
    is a product of up to ``n`` linear factors with values bounded by ``p``,
    so its coefficients need on the order of ``n·log p`` bits each.
    """
    return (element_count ** 2) * (modulus_degree + 1) * math.log2(max(2, tag_count))


class StorageRow:
    """One representation's storage figures for one document."""

    __slots__ = ("representation", "element_count", "tag_count",
                 "measured_bits", "formula_bits")

    def __init__(self, representation: str, element_count: int, tag_count: int,
                 measured_bits: float, formula_bits: float) -> None:
        self.representation = representation
        self.element_count = element_count
        self.tag_count = tag_count
        self.measured_bits = measured_bits
        self.formula_bits = formula_bits

    @property
    def overhead_vs_formula(self) -> float:
        """Measured / formula ratio (≈1 means the formula predicts well)."""
        if self.formula_bits == 0:
            return float("inf")
        return self.measured_bits / self.formula_bits

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form for tabular reporting."""
        return {
            "representation": self.representation,
            "n": self.element_count,
            "tags": self.tag_count,
            "measured_bits": self.measured_bits,
            "formula_bits": self.formula_bits,
            "measured/formula": self.overhead_vs_formula,
        }


def storage_report(document: XmlDocument, mapping: TagMapping,
                   fp_ring: Optional[FpQuotientRing] = None,
                   int_ring: Optional[IntQuotientRing] = None) -> List[StorageRow]:
    """Measured-vs-formula storage rows for the requested representations."""
    n = document.size()
    tag_count = len(document.distinct_tags())
    rows = [StorageRow("plaintext", n, tag_count,
                       measured_bits=n * max(1, math.ceil(math.log2(max(2, tag_count)))),
                       formula_bits=plaintext_storage_formula_bits(n, tag_count))]
    if fp_ring is not None:
        tree = encode_document(document, mapping, fp_ring)
        rows.append(StorageRow(
            f"F_{fp_ring.p}[x]/(x^{fp_ring.p - 1}-1)", n, tag_count,
            measured_bits=tree.storage_bits(),
            formula_bits=fp_storage_formula_bits(n, fp_ring.p)))
    if int_ring is not None:
        tree = encode_document(document, mapping, int_ring)
        rows.append(StorageRow(
            f"Z[x]/({int_ring.modulus.pretty()})", n, tag_count,
            measured_bits=tree.storage_bits(),
            formula_bits=int_storage_formula_bits(n, tag_count,
                                                  int_ring.modulus.degree)))
    return rows
