"""A small element-tree model for XML documents.

The paper encodes the *element structure* of an XML document (tag names
and parent/child relations); attributes and text content are explicitly
out of scope for the search scheme (§5) but are preserved by the model so
that documents round-trip through the parser and serializer.

The model is deliberately independent from :mod:`xml.etree` so that the
whole substrate is built from scratch, as the reproduction brief requires.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["XmlElement", "XmlDocument", "TreeStatistics"]

#: A tag name: an ASCII letter, ``_`` or ``:``, then letters, digits and
#: ``_:.-``.
_TAG_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")


def _validate_tag(tag: str) -> str:
    if not tag:
        raise ValueError("tag names must be non-empty")
    if _TAG_NAME.fullmatch(tag) is None:
        raise ValueError(f"invalid XML tag name: {tag!r}")
    return tag


class XmlElement:
    """One element node: a tag, optional attributes/text and child elements."""

    __slots__ = ("tag", "attributes", "text", "children", "parent")

    def __init__(self, tag: str,
                 attributes: Optional[Dict[str, str]] = None,
                 text: str = "") -> None:
        self.tag = _validate_tag(tag)
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.text = text
        self.children: List["XmlElement"] = []
        self.parent: Optional["XmlElement"] = None

    # -- tree construction ----------------------------------------------------
    def add_child(self, child: "XmlElement") -> "XmlElement":
        """Append ``child`` and return it (enables fluent building)."""
        if not isinstance(child, XmlElement):
            raise TypeError("children must be XmlElement instances")
        child.parent = self
        self.children.append(child)
        return child

    def add(self, tag: str, attributes: Optional[Dict[str, str]] = None,
            text: str = "") -> "XmlElement":
        """Create a child with the given tag and return the new child."""
        return self.add_child(XmlElement(tag, attributes, text))

    def detach(self) -> "XmlElement":
        """Remove this element from its parent and return it."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        return self

    # -- navigation --------------------------------------------------------------
    def is_leaf(self) -> bool:
        """True when the element has no child elements."""
        return not self.children

    def depth(self) -> int:
        """Distance to the root (the root has depth 0)."""
        depth, node = 0, self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def root(self) -> "XmlElement":
        """The root of the tree containing this element."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def path(self) -> Tuple[int, ...]:
        """Child-index path from the root, e.g. ``(0, 2)`` = third child of first child."""
        indices: List[int] = []
        node = self
        while node.parent is not None:
            indices.append(node.parent.children.index(node))
            node = node.parent
        return tuple(reversed(indices))

    def tag_path(self) -> str:
        """Slash-separated tag path from the root, e.g. ``customers/client/name``."""
        parts: List[str] = []
        node: Optional[XmlElement] = self
        while node is not None:
            parts.append(node.tag)
            node = node.parent
        return "/".join(reversed(parts))

    def iter(self) -> Iterator["XmlElement"]:
        """Pre-order traversal of this element and all its descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_postorder(self) -> Iterator["XmlElement"]:
        """Post-order traversal (children before parents).

        Iterative, like every walk of this model, so a document of any
        depth walks without touching Python's recursion limit.
        """
        stack = [(self, iter(self.children))]
        while stack:
            node, children = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                yield node
            else:
                stack.append((child, iter(child.children)))

    def descendants(self) -> Iterator["XmlElement"]:
        """All strict descendants in pre-order."""
        iterator = self.iter()
        next(iterator)  # skip self
        return iterator

    def ancestors(self) -> Iterator["XmlElement"]:
        """All strict ancestors from parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def find_all(self, tag: str) -> List["XmlElement"]:
        """All descendants-or-self with the given tag (document order)."""
        return [node for node in self.iter() if node.tag == tag]

    def descendant_tags(self) -> List[str]:
        """Multiset (as a list) of tags of self and all descendants."""
        return [node.tag for node in self.iter()]

    # -- measurements -----------------------------------------------------------------
    def size(self) -> int:
        """Number of elements in the subtree rooted at this element."""
        return sum(1 for _ in self.iter())

    def height(self) -> int:
        """Height of the subtree (a leaf has height 0)."""
        height = 0
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > height:
                height = depth
            stack.extend((child, depth + 1) for child in node.children)
        return height

    # -- copying / equality -------------------------------------------------------------
    def clone(self) -> "XmlElement":
        """Deep copy of the subtree rooted at this element."""
        copy = XmlElement(self.tag, dict(self.attributes), self.text)
        stack = [(self, copy)]
        while stack:
            source, target = stack.pop()
            for child in source.children:
                twin = target.add_child(
                    XmlElement(child.tag, dict(child.attributes), child.text))
                stack.append((child, twin))
        return copy

    def structurally_equal(self, other: "XmlElement") -> bool:
        """True when both subtrees have identical tags, text, attributes and shape."""
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if (mine.tag != theirs.tag or mine.text != theirs.text
                    or mine.attributes != theirs.attributes
                    or len(mine.children) != len(theirs.children)):
                return False
            stack.extend(zip(mine.children, theirs.children))
        return True

    def __repr__(self) -> str:
        return f"<XmlElement {self.tag!r} children={len(self.children)}>"


class XmlDocument:
    """An XML document: a single root element plus document-level helpers."""

    def __init__(self, root: XmlElement) -> None:
        if not isinstance(root, XmlElement):
            raise TypeError("the document root must be an XmlElement")
        self.root = root

    # -- whole-document iteration ----------------------------------------------------
    def iter(self) -> Iterator[XmlElement]:
        """Pre-order traversal of every element."""
        return self.root.iter()

    def elements(self) -> List[XmlElement]:
        """All elements in document order."""
        return list(self.iter())

    def size(self) -> int:
        """Total number of elements (the paper's ``n``)."""
        return self.root.size()

    def height(self) -> int:
        """Height of the document tree."""
        return self.root.height()

    def distinct_tags(self) -> List[str]:
        """Sorted list of distinct tag names (the paper's ``p`` lower bound)."""
        return sorted({node.tag for node in self.iter()})

    def tag_counts(self) -> Dict[str, int]:
        """Occurrences of each tag name."""
        counts: Dict[str, int] = {}
        for node in self.iter():
            counts[node.tag] = counts.get(node.tag, 0) + 1
        return counts

    def find_all(self, tag: str) -> List[XmlElement]:
        """All elements with the given tag name."""
        return self.root.find_all(tag)

    def element_by_path(self, path: Sequence[int]) -> XmlElement:
        """Element addressed by a child-index path (inverse of ``XmlElement.path``)."""
        node = self.root
        for index in path:
            node = node.children[index]
        return node

    def statistics(self) -> "TreeStatistics":
        """Summary statistics used by workload generators and benchmarks."""
        elements = self.elements()
        fanouts = [len(e.children) for e in elements if e.children]
        return TreeStatistics(
            element_count=len(elements),
            distinct_tag_count=len(self.distinct_tags()),
            height=self.height(),
            leaf_count=sum(1 for e in elements if e.is_leaf()),
            max_fanout=max(fanouts) if fanouts else 0,
            average_fanout=(sum(fanouts) / len(fanouts)) if fanouts else 0.0,
        )

    def clone(self) -> "XmlDocument":
        """Deep copy of the document."""
        return XmlDocument(self.root.clone())

    def structurally_equal(self, other: "XmlDocument") -> bool:
        """Deep equality of the two documents."""
        return self.root.structurally_equal(other.root)

    def __repr__(self) -> str:
        return f"<XmlDocument root={self.root.tag!r} size={self.size()}>"


class TreeStatistics:
    """Plain record of document shape statistics."""

    __slots__ = ("element_count", "distinct_tag_count", "height", "leaf_count",
                 "max_fanout", "average_fanout")

    def __init__(self, element_count: int, distinct_tag_count: int, height: int,
                 leaf_count: int, max_fanout: int, average_fanout: float) -> None:
        self.element_count = element_count
        self.distinct_tag_count = distinct_tag_count
        self.height = height
        self.leaf_count = leaf_count
        self.max_fanout = max_fanout
        self.average_fanout = average_fanout

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form for tabular reporting."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"TreeStatistics({fields})"
