"""A from-scratch XML parser for the element subset used by the scheme.

Supported syntax
----------------
* element tags with attributes: ``<tag a="1" b='2'> ... </tag>``
* self-closing elements: ``<tag/>``
* character data (stored as the element's ``text``)
* comments ``<!-- ... -->`` and processing instructions ``<? ... ?>`` (skipped)
* an optional XML declaration and a DOCTYPE line (skipped)
* the five predefined entities ``&amp; &lt; &gt; &quot; &apos;`` and
  numeric character references

Not supported (rejected with :class:`~repro.errors.XmlParseError`):
namespaces beyond treating ``ns:tag`` as an opaque name, CDATA sections,
external entities, and DTD internal subsets.  This is sufficient for the
documents the paper works with and for the synthetic workloads.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..errors import XmlParseError
from .model import XmlDocument, XmlElement

__all__ = ["parse_document", "parse_element"]

_ENTITY_TABLE = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_WHITESPACE = " \t\r\n"

#: The first character that ends a tag or attribute name.
_NAME_END = re.compile(r"[ \t\r\n/>=]")


class _Cursor:
    """Simple cursor over the input string with line/column error reporting."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, length: int = 1) -> str:
        return self.text[self.pos:self.pos + length]

    def advance(self, length: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + length]
        self.pos += length
        return chunk

    def skip_whitespace(self) -> None:
        while not self.eof() and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def find(self, literal: str) -> int:
        return self.text.find(literal, self.pos)

    def location(self) -> Tuple[int, int]:
        consumed = self.text[: self.pos]
        line = consumed.count("\n") + 1
        column = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str) -> XmlParseError:
        line, column = self.location()
        return XmlParseError(f"{message} at line {line}, column {column}")


def _decode_entities(text: str, cursor: _Cursor) -> str:
    if "&" not in text:
        return text
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1:
            raise cursor.error("unterminated entity reference")
        name = text[i + 1:end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITY_TABLE:
            out.append(_ENTITY_TABLE[name])
        else:
            raise cursor.error(f"unknown entity &{name};")
        i = end + 1
    return "".join(out)


def _parse_name(cursor: _Cursor) -> str:
    start = cursor.pos
    end = _NAME_END.search(cursor.text, start)
    cursor.pos = len(cursor.text) if end is None else end.start()
    if cursor.pos == start:
        raise cursor.error("expected a name")
    return cursor.text[start:cursor.pos]


def _parse_attributes(cursor: _Cursor) -> dict:
    attributes = {}
    while True:
        cursor.skip_whitespace()
        if cursor.eof():
            raise cursor.error("unexpected end of input inside a tag")
        if cursor.peek() in "/>":
            return attributes
        name = _parse_name(cursor)
        cursor.skip_whitespace()
        cursor.expect("=")
        cursor.skip_whitespace()
        quote = cursor.peek()
        if quote not in "\"'":
            raise cursor.error("attribute values must be quoted")
        cursor.advance()
        end = cursor.find(quote)
        if end == -1:
            raise cursor.error("unterminated attribute value")
        raw = cursor.text[cursor.pos:end]
        cursor.pos = end + 1
        if name in attributes:
            raise cursor.error(f"duplicate attribute {name!r}")
        attributes[name] = _decode_entities(raw, cursor)


def _skip_misc(cursor: _Cursor) -> None:
    """Skip whitespace, comments, processing instructions, declarations."""
    while True:
        cursor.skip_whitespace()
        if cursor.peek(4) == "<!--":
            end = cursor.find("-->")
            if end == -1:
                raise cursor.error("unterminated comment")
            cursor.pos = end + 3
        elif cursor.peek(2) == "<?":
            end = cursor.find("?>")
            if end == -1:
                raise cursor.error("unterminated processing instruction")
            cursor.pos = end + 2
        elif cursor.peek(9).upper() == "<!DOCTYPE":
            end = cursor.find(">")
            if end == -1:
                raise cursor.error("unterminated DOCTYPE")
            cursor.pos = end + 1
        else:
            return


def _parse_element(cursor: _Cursor) -> XmlElement:
    """Parse one element and its subtree, iteratively.

    ``open_elements`` holds the elements whose closing tag is still due,
    each with its text parts, so a document of any depth parses without
    touching Python's recursion limit.
    """
    open_elements: List[Tuple[XmlElement, List[str]]] = []
    text = cursor.text
    while True:
        # The cursor is at the "<" of an element's start tag.
        cursor.expect("<")
        tag = _parse_name(cursor)
        attributes = _parse_attributes(cursor)
        cursor.skip_whitespace()
        if text.startswith("/>", cursor.pos):
            cursor.pos += 2
            element = XmlElement(tag, attributes)
            if not open_elements:
                return element
            open_elements[-1][0].add_child(element)
        else:
            cursor.expect(">")
            element = XmlElement(tag, attributes)
            if open_elements:
                open_elements[-1][0].add_child(element)
            open_elements.append((element, []))
        # Content of the innermost open element, up to the next start tag.
        while True:
            element, text_parts = open_elements[-1]
            if cursor.eof():
                raise cursor.error(
                    f"unexpected end of input inside <{element.tag}>")
            if text.startswith("<!--", cursor.pos):
                end = cursor.find("-->")
                if end == -1:
                    raise cursor.error("unterminated comment")
                cursor.pos = end + 3
            elif text.startswith("</", cursor.pos):
                cursor.pos += 2
                closing = _parse_name(cursor)
                cursor.skip_whitespace()
                cursor.expect(">")
                if closing != element.tag:
                    raise cursor.error(
                        f"mismatched closing tag </{closing}> for <{element.tag}>")
                element.text = _decode_entities("".join(text_parts).strip(),
                                                cursor)
                open_elements.pop()
                if not open_elements:
                    return element
            elif text.startswith("<", cursor.pos):
                break
            else:
                next_tag = cursor.find("<")
                if next_tag == -1:
                    raise cursor.error(
                        f"unexpected end of input inside <{element.tag}>")
                text_parts.append(text[cursor.pos:next_tag])
                cursor.pos = next_tag


def parse_element(text: str) -> XmlElement:
    """Parse a single XML element (and its subtree) from a string."""
    cursor = _Cursor(text)
    _skip_misc(cursor)
    if cursor.eof() or cursor.peek() != "<":
        raise cursor.error("expected an element")
    element = _parse_element(cursor)
    _skip_misc(cursor)
    if not cursor.eof():
        raise cursor.error("trailing content after the root element")
    return element


def parse_document(text: str) -> XmlDocument:
    """Parse a complete XML document from a string."""
    return XmlDocument(parse_element(text))
