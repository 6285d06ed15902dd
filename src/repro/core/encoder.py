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
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing
from ..errors import EncodingError
from ..xmltree import XmlDocument, XmlElement
from .mapping import TagMapping

__all__ = ["PolynomialNode", "PolynomialTree", "encode_document", "encode_element"]


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
    """The encoded document: ring, public structure and per-node polynomials."""

    def __init__(self, ring: EncodingRing) -> None:
        self.ring = ring
        self.nodes: Dict[int, PolynomialNode] = {}
        self.root_id: Optional[int] = None

    # -- construction -------------------------------------------------------------
    def add_node(self, node_id: int, parent_id: Optional[int],
                 polynomial: Polynomial, depth: int) -> PolynomialNode:
        """Insert a node; parents must be inserted before their children."""
        if node_id in self.nodes:
            raise EncodingError(f"duplicate node id {node_id}")
        if parent_id is None:
            if self.root_id is not None:
                raise EncodingError("the tree already has a root")
            self.root_id = node_id
        elif parent_id not in self.nodes:
            raise EncodingError(f"parent {parent_id} of node {node_id} is unknown")
        node = PolynomialNode(node_id, parent_id, self.ring.reduce(polynomial), depth)
        self.nodes[node_id] = node
        if parent_id is not None:
            self.nodes[parent_id].child_ids.append(node_id)
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
        return len(self.nodes)

    def __iter__(self) -> Iterator[PolynomialNode]:
        return self.iter_preorder()

    def iter_preorder(self) -> Iterator[PolynomialNode]:
        """Pre-order traversal (node ids are pre-order, so this is sorted order)."""
        for node_id in sorted(self.nodes):
            yield self.nodes[node_id]

    def iter_postorder(self) -> Iterator[PolynomialNode]:
        """Post-order traversal (children before parents)."""
        def _walk(node_id: int) -> Iterator[PolynomialNode]:
            for child_id in self.nodes[node_id].child_ids:
                yield from _walk(child_id)
            yield self.nodes[node_id]

        if self.root_id is not None:
            yield from _walk(self.root_id)

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
        return f"<PolynomialTree ring={self.ring.name} nodes={len(self.nodes)}>"


def encode_element(element: XmlElement, mapping: TagMapping,
                   ring: EncodingRing) -> PolynomialTree:
    """Encode the subtree rooted at ``element`` into a :class:`PolynomialTree`.

    The encoding is built bottom-up exactly as §4.1 describes: every node's
    polynomial is the product of its children's polynomials with its own
    linear factor ``(x - map(tag))``.
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


def encode_document(document: XmlDocument, mapping: TagMapping,
                    ring: EncodingRing) -> PolynomialTree:
    """Encode a whole document (convenience wrapper over :func:`encode_element`)."""
    missing = [tag for tag in document.distinct_tags() if tag not in mapping]
    if missing:
        raise EncodingError(
            f"the mapping lacks values for tags {missing}; call mapping.extend() first")
    return encode_element(document.root, mapping, ring)
