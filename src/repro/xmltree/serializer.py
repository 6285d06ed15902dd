"""Serialization of the element-tree model back to XML text."""

from __future__ import annotations

from typing import List, Tuple

from .model import XmlDocument, XmlElement

__all__ = ["serialize_element", "serialize_document"]

_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
}
_ATTR_ESCAPES = dict(_ESCAPES, **{'"': "&quot;"})


def _escape(text: str, table: dict) -> str:
    return "".join(table.get(ch, ch) for ch in text)


def serialize_element(element: XmlElement, indent: int = 2, _level: int = 0) -> str:
    """Pretty-print an element subtree as XML text.

    ``indent=0`` produces compact single-line output (useful for byte-size
    accounting in the download-all baseline).  The walk is iterative, so
    a subtree of any depth serialises.
    """
    newline = "\n" if indent else ""
    parts: List[str] = []
    # (element, level, closing): an element to open, or one to close once
    # its children are out.
    stack: List[Tuple[XmlElement, int, bool]] = [(element, _level, False)]
    while stack:
        node, level, closing = stack.pop()
        pad = " " * (indent * level) if indent else ""
        if closing:
            parts.append(f"{newline}{pad}</{node.tag}>")
            continue
        if node is not element:
            parts.append(newline)
        attributes = "".join(
            f' {name}="{_escape(value, _ATTR_ESCAPES)}"'
            for name, value in node.attributes.items()
        )
        if not node.children and not node.text:
            parts.append(f"{pad}<{node.tag}{attributes}/>")
            continue
        parts.append(f"{pad}<{node.tag}{attributes}>")
        if node.text:
            if node.children:
                parts.append(f"{newline}{pad}{_escape(node.text, _ESCAPES)}"
                             if indent else _escape(node.text, _ESCAPES))
            else:
                parts.append(_escape(node.text, _ESCAPES))
        if node.children:
            stack.append((node, level, True))
            stack.extend((child, level + 1, False)
                         for child in reversed(node.children))
        else:
            parts.append(f"</{node.tag}>")
    return "".join(parts)


def serialize_document(document: XmlDocument, indent: int = 2,
                       declaration: bool = True) -> str:
    """Serialize a whole document, optionally with an XML declaration."""
    body = serialize_element(document.root, indent)
    if declaration:
        newline = "\n" if indent else ""
        return f'<?xml version="1.0" encoding="UTF-8"?>{newline}{body}'
    return body
