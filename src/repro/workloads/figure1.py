"""The worked example of the paper (figures 1–6).

Figure 1(a) shows a tiny customer database: a ``customers`` root with two
``client`` children, each containing a ``name``.  Figure 1(b) fixes the
tag mapping ``client → 2, customers → 3, name → 4`` and figure 2 reduces
the resulting polynomial tree in the two rings ``F_5[x]/(x^4 − 1)`` and
``Z[x]/(x² + 1)``.  This module reproduces the document, the mapping and
the ring choices so the figure benchmarks can check exact values.

Note: with ``p = 5`` the mapping uses the value ``4 = p − 1`` for ``name``
although the text (after Lemma 3) advises avoiding ``p − 1``; the paper's
own example takes this liberty, so the reproduction does too (strict
checking is disabled for this workload; see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List

from ..algebra.quotient import FpQuotientRing, IntQuotientRing, default_int_modulus
from ..core.mapping import TagMapping
from ..xmltree import XmlDocument, XmlElement

__all__ = [
    "PAPER_PRIME",
    "figure1_document",
    "figure1_mapping",
    "figure1_fp_ring",
    "figure1_int_ring",
    "expected_figure2_fp_polynomials",
    "expected_figure2_int_polynomials",
    "expected_figure5_sums",
    "expected_figure6_sums",
]

#: The prime used throughout the paper's example (F_5).
PAPER_PRIME = 5


def figure1_document(clients: int = 2) -> XmlDocument:
    """The figure-1(a) document; ``clients`` generalises the number of clients."""
    root = XmlElement("customers")
    for index in range(clients):
        client = root.add("client")
        client.add("name", text=f"client-{index}")
    return XmlDocument(root)


def figure1_mapping() -> TagMapping:
    """The figure-1(b) mapping: client → 2, customers → 3, name → 4."""
    return TagMapping({"client": 2, "customers": 3, "name": 4})


def figure1_fp_ring() -> FpQuotientRing:
    """The paper's ``F_5[x]/(x^4 - 1)`` ring."""
    return FpQuotientRing(PAPER_PRIME)


def figure1_int_ring() -> IntQuotientRing:
    """The paper's ``Z[x]/(x^2 + 1)`` ring."""
    return IntQuotientRing(default_int_modulus(2))


def expected_figure2_fp_polynomials() -> Dict[str, List[int]]:
    """Figure 2(a): coefficient vectors (ascending degree) per tag path.

    ``name``   → x + 1
    ``client`` → x² + 4x + 3
    ``customers`` (root) → 3x³ + 3x² + 3x + 3
    """
    return {
        "customers/client/name": [1, 1],
        "customers/client": [3, 4, 1],
        "customers": [3, 3, 3, 3],
    }


def expected_figure2_int_polynomials() -> Dict[str, List[int]]:
    """Figure 2(b): coefficient vectors in ``Z[x]/(x² + 1)``.

    ``name`` → x − 4, ``client`` → −6x + 7, ``customers`` → 265x + 45.
    """
    return {
        "customers/client/name": [-4, 1],
        "customers/client": [7, -6],
        "customers": [45, 265],
    }


def expected_figure5_sums() -> Dict[str, int]:
    """Figure 5(c): summed evaluations at ``x = 2`` in ``F_5`` per tag path."""
    return {
        "customers": 0,
        "customers/client": 0,
        "customers/client/name": 3,
    }


def expected_figure6_sums() -> Dict[str, int]:
    """Figure 6(c): summed evaluations at ``x = 2`` modulo ``r(2) = 5``."""
    return {
        "customers": 0,
        "customers/client": 0,
        "customers/client/name": 3,
    }
