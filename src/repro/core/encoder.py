"""Encoding XML trees as polynomial trees (§4.1).

Every element node of the document becomes one node of a
:class:`PolynomialTree` holding a polynomial in the chosen encoding ring:

* a leaf named ``n`` becomes ``(x - map(n))``;
* an inner node is ``(x - map(node)) · ∏ child polynomials``.

The *structure* of the tree (node identities and parent/child relations) is
considered public — this is exactly the information the server needs to
drive the §4.3 search protocol — while the tag names themselves are hidden
inside the polynomials.

Node identifiers are pre-order positions, so node ``0`` is always the root
and children always have larger identifiers than their parent.

On the vectorized tier a large enough subtree is encoded in evaluation
form (Lemma 1): evaluation at the ``p - 1`` nonzero points is a ring
isomorphism ``F_p[x]/(x^{p-1} - 1) ≅ F_p^{p-1}``, so every product of the
encoding is pointwise.  Each node starts as its values ``a - map(tag)``,
children are multiplied into their parents level by level as array
products, and one inverse transform per block of rows gives the
coefficients, equal to the per-node products.  The tree then keeps them
as one int64 block and builds its node objects only when a caller reads
them.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..algebra.evaldomain import EvaluationDomain
from ..algebra.kernels import _trim
from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing
from ..algebra.vkernels import numpy_or_none
from ..errors import EncodingError
from ..xmltree import XmlDocument, XmlElement
from .mapping import TagMapping

__all__ = ["PolynomialNode", "PolynomialTree", "encode_document", "encode_element",
           "EVALUATION_MIN_COEFFS", "EVALUATION_MAX_POINTS"]

#: Coefficients (nodes times ``p - 1``) from which :func:`encode_element`
#: encodes in evaluation form on the vectorized tier.  Below it the fixed
#: cost of the array passes outweighs the per-node products they replace.
#: Measured on random documents of depth 8 on a 2-vCPU x86 host, the
#: array path won from 32 nodes at p = 53, 64 at p = 131, 64-128 at
#: p = 191 and, by less, 64 at p = 251; this threshold is 630, 252, 172
#: and 131 nodes there.
EVALUATION_MIN_COEFFS = 1 << 15

#: Largest ``p - 1`` encoded in evaluation form.  The array passes and
#: the ``(p-1)²`` inverse transform grow with ``p`` for every node, while
#: a per-node product costs the degree of its subtree, far below ``p``
#: for most nodes at large primes: on the same documents of 4,096 nodes
#: the array path took x0.21 the per-node time at p = 53, x0.49 at
#: p = 191, x0.96 at p = 251 and about x5 at p = 1021.
EVALUATION_MAX_POINTS = 256

#: Held while a row-backed tree builds its objects: one module lock keeps
#: the trees copyable and picklable, and each tree takes it once.
MATERIALISE_LOCK = threading.Lock()

#: Largest block of rows, in coefficients, that one array pass of the
#: evaluation-form encoder works on (2 MiB of int64, as
#: ``share_tree.BULK_BLOCK_COEFFS``), so its temporaries stay bounded
#: whatever the tree's size and the prime.
_PASS_COEFFS = 1 << 18


class PolynomialNode:
    """One node of the encoded tree."""

    __slots__ = ("node_id", "parent_id", "child_ids", "polynomial", "depth")

    def __init__(self, node_id: int, parent_id: Optional[int],
                 polynomial: Polynomial, depth: int) -> None:
        self.node_id = node_id
        self.parent_id = parent_id
        self.child_ids: List[int] = []
        self.polynomial = polynomial
        self.depth = depth

    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return not self.child_ids

    def is_root(self) -> bool:
        """True for the document root."""
        return self.parent_id is None

    def __repr__(self) -> str:
        return (f"PolynomialNode(id={self.node_id}, parent={self.parent_id}, "
                f"children={self.child_ids}, poly={self.polynomial!s})")


class PolynomialTree:
    """The encoded document: ring, public structure and per-node polynomials.

    A tree built by :meth:`from_rows` holds its polynomials as one int64
    coefficient block and builds its :class:`PolynomialNode` objects on
    the first read of :attr:`nodes` (every read goes through it), under a
    lock, so concurrent readers build them once; a mutation reads them
    first.
    """

    def __init__(self, ring: EncodingRing) -> None:
        self.ring = ring
        self._nodes: Dict[int, PolynomialNode] = {}
        self.root_id: Optional[int] = None
        # (parents, depths, block) until the node objects are built.
        self._rows: Optional[Tuple[List[Optional[int]], List[int], Any]] = None

    @classmethod
    def from_rows(cls, ring: EncodingRing, parents: List[Optional[int]],
                  depths: List[int], block: Any) -> "PolynomialTree":
        """A tree whose node ``i`` has parent ``parents[i]``, depth
        ``depths[i]`` and the canonical coefficients ``block[i]`` (int64,
        zero-padded to the degree bound).  Ids must be pre-order positions,
        so node ``0`` is the root."""
        tree = cls(ring)
        tree.root_id = 0 if parents else None
        tree._rows = (parents, depths, block)
        return tree

    @property
    def nodes(self) -> Dict[int, PolynomialNode]:
        """Node objects by identifier (built on first use for row-backed trees)."""
        if self._rows is not None:
            self._materialise()
        return self._nodes

    def row_form(self) -> Optional[Tuple[List[Optional[int]], List[int], Any]]:
        """``(parents, depths, block)`` of a row-backed tree whose node
        objects are not built yet, else ``None``."""
        return self._rows

    def _materialise(self) -> None:
        with MATERIALISE_LOCK:
            rows = self._rows
            if rows is None:
                return
            parents, depths, block = rows
            field = self.ring.coefficient_ring
            nodes: Dict[int, PolynomialNode] = {}
            step = max(1, _PASS_COEFFS // block.shape[1])
            for start in range(0, len(parents), step):
                for node_id, coeffs in enumerate(
                        block[start:start + step].tolist(), start):
                    parent_id = parents[node_id]
                    nodes[node_id] = PolynomialNode(
                        node_id, parent_id,
                        Polynomial._from_canonical(_trim(coeffs), field),
                        depths[node_id])
                    if parent_id is not None:
                        nodes[parent_id].child_ids.append(node_id)
            self._nodes = nodes
            self._rows = None

    # -- construction -------------------------------------------------------------
    def add_node(self, node_id: int, parent_id: Optional[int],
                 polynomial: Polynomial, depth: int) -> PolynomialNode:
        """Insert a node; parents must be inserted before their children."""
        nodes = self.nodes
        if node_id in nodes:
            raise EncodingError(f"duplicate node id {node_id}")
        if parent_id is None:
            if self.root_id is not None:
                raise EncodingError("the tree already has a root")
            self.root_id = node_id
        elif parent_id not in nodes:
            raise EncodingError(f"parent {parent_id} of node {node_id} is unknown")
        node = PolynomialNode(node_id, parent_id, self.ring.reduce(polynomial), depth)
        nodes[node_id] = node
        if parent_id is not None:
            nodes[parent_id].child_ids.append(node_id)
        return node

    # -- access ----------------------------------------------------------------------
    def node(self, node_id: int) -> PolynomialNode:
        """Node by identifier."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise EncodingError(f"unknown node id {node_id}") from None

    def root(self) -> PolynomialNode:
        """The root node."""
        if self.root_id is None:
            raise EncodingError("the tree is empty")
        return self.nodes[self.root_id]

    def polynomial(self, node_id: int) -> Polynomial:
        """Polynomial stored at a node."""
        return self.node(node_id).polynomial

    def children(self, node_id: int) -> List[PolynomialNode]:
        """Child nodes of a node, in document order."""
        return [self.nodes[cid] for cid in self.node(node_id).child_ids]

    def parent(self, node_id: int) -> Optional[PolynomialNode]:
        """Parent node, or ``None`` for the root."""
        parent_id = self.node(node_id).parent_id
        return None if parent_id is None else self.nodes[parent_id]

    def __len__(self) -> int:
        rows = self._rows
        return len(self._nodes) if rows is None else len(rows[0])

    def __iter__(self) -> Iterator[PolynomialNode]:
        return self.iter_preorder()

    def iter_preorder(self) -> Iterator[PolynomialNode]:
        """Pre-order traversal (node ids are pre-order, so this is sorted order)."""
        for node_id in sorted(self.nodes):
            yield self.nodes[node_id]

    def iter_postorder(self) -> Iterator[PolynomialNode]:
        """Post-order traversal (children before parents), iterative."""
        if self.root_id is None:
            return
        nodes = self.nodes
        stack = [(self.root_id, iter(nodes[self.root_id].child_ids))]
        while stack:
            node_id, children = stack[-1]
            child_id = next(children, None)
            if child_id is None:
                stack.pop()
                yield nodes[node_id]
            else:
                stack.append((child_id, iter(nodes[child_id].child_ids)))

    def node_ids(self) -> List[int]:
        """All node identifiers in pre-order."""
        return sorted(self.nodes)

    def subtree_ids(self, node_id: int) -> List[int]:
        """Identifiers of the subtree rooted at ``node_id`` (pre-order)."""
        result: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(reversed(self.nodes[current].child_ids))
        return result

    def depth_of(self, node_id: int) -> int:
        """Depth of a node (the root has depth 0)."""
        return self.node(node_id).depth

    # -- structure export ---------------------------------------------------------------
    def structure(self) -> Dict[int, Tuple[Optional[int], Tuple[int, ...]]]:
        """Public structure: ``{node_id: (parent_id, child_ids)}``.

        This is what the server is allowed to know about the tree shape.
        """
        return {node_id: (node.parent_id, tuple(node.child_ids))
                for node_id, node in self.nodes.items()}

    # -- measurements ---------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Total measured storage of all polynomials (for the §5 analysis)."""
        return sum(self.ring.element_storage_bits(node.polynomial)
                   for node in self.nodes.values())

    def __repr__(self) -> str:
        return f"<PolynomialTree ring={self.ring.name} nodes={len(self)}>"


def encode_element(element: XmlElement, mapping: TagMapping,
                   ring: EncodingRing) -> PolynomialTree:
    """Encode the subtree rooted at ``element`` into a :class:`PolynomialTree`.

    The encoding is built bottom-up exactly as §4.1 describes: every node's
    polynomial is the product of its children's polynomials with its own
    linear factor ``(x - map(tag))``.  On the vectorized tier
    (:meth:`~repro.algebra.quotient.EncodingRing.evaluation_domain`), a
    subtree of at least :data:`EVALUATION_MIN_COEFFS` coefficients, at a
    prime with at most :data:`EVALUATION_MAX_POINTS` nonzero points, is
    encoded in evaluation form into a row-backed tree with equal
    polynomials.
    """
    tree = PolynomialTree(ring)
    # First pass: assign pre-order identifiers.
    order: List[Tuple[XmlElement, Optional[int], int]] = []
    ids: Dict[int, int] = {}
    counter = 0
    stack: List[Tuple[XmlElement, Optional[int], int]] = [(element, None, 0)]
    while stack:
        node, parent_id, depth = stack.pop()
        ids[id(node)] = counter
        order.append((node, parent_id, depth))
        current_id = counter
        counter += 1
        for child in reversed(node.children):
            stack.append((child, current_id, depth + 1))

    domain = (ring.evaluation_domain()
              if ring.degree_bound <= EVALUATION_MAX_POINTS
              and len(order) * ring.degree_bound >= EVALUATION_MIN_COEFFS
              else None)
    if domain is not None:
        parents = [parent_id for _, parent_id, _ in order]
        depths = [depth for _, _, depth in order]
        block = _evaluation_rows(
            domain, [mapping.value(node.tag) for node, _, _ in order],
            parents, depths)
        return PolynomialTree.from_rows(ring, parents, depths, block)

    # Second pass (bottom-up): compute polynomials from the leaves upwards.
    polynomials: Dict[int, Polynomial] = {}
    for node, _, _ in sorted(order, key=lambda item: -ids[id(item[0])]):
        own_factor = ring.from_tag_value(mapping.value(node.tag))
        product = own_factor
        for child in node.children:
            product = ring.mul(product, polynomials[ids[id(child)]])
        polynomials[ids[id(node)]] = product

    # Third pass (top-down): populate the tree so parents exist before children.
    for node, parent_id, depth in order:
        tree.add_node(ids[id(node)], parent_id, polynomials[ids[id(node)]], depth)
    return tree


def _evaluation_rows(domain: EvaluationDomain, tags: List[int],
                     parents: List[Optional[int]], depths: List[int]):
    """The coefficient block of a pre-order tree, encoded in evaluation form.

    Row ``i`` starts as node ``i``'s values ``a - tags[i]`` at the points
    ``a = 1..p-1``.  From the deepest level up, each level's product over
    the children of every parent (:func:`_segment_products`) is multiplied
    into that parent's row, so a parent is complete before its own level
    is multiplied in.  The rows are then turned into coefficients by
    :meth:`EvaluationDomain.inverse_transform`, in place.  Every pass
    works on at most :data:`_PASS_COEFFS` coefficients of rows at a time.
    """
    np = numpy_or_none()
    p = domain.p
    step = max(1, _PASS_COEFFS // (p - 1))
    rows = np.array(tags, dtype=np.int64)[:, None] % p
    rows = np.subtract(domain.points[None, :], rows, dtype=np.int64)
    rows %= p
    parent_of = np.array([-1 if parent is None else parent for parent in parents],
                         dtype=np.int64)
    # Node ids level by level; within a level ids ascend, so the children
    # of each parent are contiguous and parents ascend with them.
    by_depth = np.argsort(np.array(depths, dtype=np.int64), kind="stable")
    bounds = np.cumsum(np.bincount(depths))
    for depth in range(len(bounds) - 1, 0, -1):
        level = by_depth[bounds[depth - 1]:bounds[depth]]
        for start in range(0, len(level), step):
            members = level[start:start + step]
            owners = parent_of[members]
            heads = np.flatnonzero(np.concatenate(
                ([True], owners[1:] != owners[:-1])))
            products = _segment_products(rows[members], heads, p)
            owners = owners[heads]
            rows[owners] = rows[owners] * products % p
    for start in range(0, len(rows), step):
        rows[start:start + step] = domain.inverse_transform(rows[start:start + step])
    return rows


def _segment_products(rows, heads, p: int):
    """Pointwise products mod ``p`` of runs of ``rows``, one row per run.

    Run ``r`` starts at row ``heads[r]`` and ends before the next head.
    Pairs are multiplied in a binary tree, so a run of ``m`` rows takes
    ``⌈log2 m⌉`` passes whose sizes halve; ``rows`` is overwritten.
    """
    np = numpy_or_none()
    count = len(rows)
    lengths = np.diff(np.append(heads, count))
    position = np.arange(count) - np.repeat(heads, lengths)
    left = np.repeat(lengths, lengths) - position     # rows from here to the end
    stride = 1
    while stride < lengths.max():
        pairs = np.flatnonzero((position % (2 * stride) == 0) & (left > stride))
        rows[pairs] = rows[pairs] * rows[pairs + stride] % p
        stride *= 2
    return rows[heads]


def encode_document(document: XmlDocument, mapping: TagMapping,
                    ring: EncodingRing) -> PolynomialTree:
    """Encode a whole document (convenience wrapper over :func:`encode_element`)."""
    missing = [tag for tag in document.distinct_tags() if tag not in mapping]
    if missing:
        raise EncodingError(
            f"the mapping lacks values for tags {missing}; call mapping.extend() first")
    return encode_element(document.root, mapping, ring)
