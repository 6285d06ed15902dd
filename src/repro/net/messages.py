"""Protocol messages exchanged between the thin client and the server.

The paper motivates its design with thin clients and low-bandwidth links,
so the reproduction measures communication explicitly.  Every request and
response is a small message object with a deterministic serialisation
(:meth:`Message.encode`) whose byte length is what the instrumented
channel (:mod:`repro.net.channel`) accounts for.

The wire has one generation, :data:`PROTOCOL_VERSION`.  A session opens
with :class:`HelloRequest`/:class:`HelloResponse`: the client lists the
versions it speaks, and a server that shares none of them refuses the
session loudly.  Then:

* :class:`FrontierRequest`/:class:`FrontierResponse` carry a whole §4.3
  descent round in one exchange — share evaluations at the query points,
  child lists, verification fetches and piggybacked prune notices — so a
  lookup costs O(depth) round trips.  Every numeric section of the
  response (the expanded frontier's node ids and one value vector per
  point, the child lists, the fetched share rows, the constants) and
  every id list of the request travels as a raw :mod:`repro.net.pages`
  limb blob in the message's binary tail; :class:`PruneNotice` delivers
  prune notices no later request carried.
* :class:`UpdateRequest` carries one whole mutation batch (the ops
  recorded by a :class:`~repro.core.share_tree.StoreTransaction`, in wire form)
  plus the client's base version vector over every node the batch
  touches; :class:`UpdateResponse` confirms a committed batch and returns
  the new per-node versions; :class:`ConflictResponse` rejects a batch
  whose base versions no longer match (another writer got there first)
  and names the conflicting node ids so the client can refetch and
  rebase.
* :class:`StatsRequest`/:class:`StatsResponse` and
  :class:`HealthRequest`/:class:`HealthResponse` are the operational
  probes — hello-exempt like the hello itself, admission-exempt, and
  tenant-filtered on the way out.
* :class:`BlobRequest`/:class:`BlobResponse` serve the
  download-everything baseline.

§4.3's per-level exchange (evaluate, prune, fetch children, fetch
polynomials, one request each) has no wire form: it runs in process as
the reference, :class:`~repro.core.query.LocalServerAdapter`.

Every message additionally carries an optional ``document_id`` so one
server can host many outsourced documents; omitting it addresses the
server's default document.  Messages may also carry an optional
``request_id`` — an idempotency key stamped by resilient clients so that
a request replayed after an ambiguous transport failure is answered
bit-identically from the server's idempotency cache instead of being
processed (and observed) twice.  Both fields are omitted from the
encoding when unset.

Two in-band failure responses exist: :class:`ErrorResponse` (a request
failed; ``retryable`` marks transient backend failures) and
:class:`BusyResponse` (the server shed the request under load and names a
``retry_after_s`` backoff hint — graceful degradation instead of a
dropped connection).

A message is its compact JSON head, then, only when it carries binary
sections, a newline and the binary tail: the sections' limb blobs back to
back, in the canonical order the head names under ``"sections"``.
Compact JSON never holds a raw newline, so the first one ends the head,
and a message without sections is exactly one JSON object.  Only
:class:`FrontierRequest`, :class:`FrontierResponse`, :class:`PruneNotice`
and :class:`BlobResponse` have sections.  Decoding checks every field by
exact JSON type, every blob against the tail and the head, requests and
responses alike, and refuses a malformed message with a
:class:`~repro.errors.ProtocolError` that names what is wrong.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.query import CoefficientRows
from ..errors import ProtocolError
from .framing import MAX_FRAME_BYTES
from .pages import (
    blob_extent,
    decode_byte_string,
    decode_coefficients,
    decode_coefficients_array,
    decode_int_vector,
    encode_byte_string,
    encode_coefficients_array,
    encode_int_vector,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "MAX_PACKED_VALUES",
    "REQUEST_KINDS",
    "Message",
    "HelloRequest",
    "HelloResponse",
    "FrontierRequest",
    "FrontierResponse",
    "PruneNotice",
    "UpdateRequest",
    "UpdateResponse",
    "ConflictResponse",
    "Acknowledgement",
    "ErrorResponse",
    "BusyResponse",
    "StatsRequest",
    "StatsResponse",
    "HealthRequest",
    "HealthResponse",
    "BlobRequest",
    "BlobResponse",
    "require_nodes",
    "decode_message",
]

#: Newest protocol generation this build speaks.
PROTOCOL_VERSION = 5

#: Every generation this build can serve (negotiated in the hello exchange).
SUPPORTED_PROTOCOL_VERSIONS = (PROTOCOL_VERSION,)

#: Most values one message's tail may announce, summed over its blobs.
#: Checked from each blob's header before the blob is decoded, together
#: with :data:`VALUES_PER_MESSAGE_BYTE`, the cap keeps a few bytes of width-0
#: blob from announcing a giant vector.
MAX_PACKED_VALUES = MAX_FRAME_BYTES

#: Most values a message may announce per byte of its encoding: a 1-bit
#: limb packs eight to a byte.  Whatever a sender's blob headers claim,
#: what a message decodes to then stays proportional to its size.
VALUES_PER_MESSAGE_BYTE = 8


# A decoded JSON value is an int, float, str, bool, None, list or dict, and
# bool is a subclass of int: fields are checked by exact type, so 0.0, true
# or "0" never stand in for a node id, a point, a depth or a version.

def _int_field(body: Dict[str, Any], field: str, default: Any = None) -> int:
    """The integer under ``field`` (required unless ``default`` is given)."""
    value = body[field] if default is None else body.get(field, default)
    if type(value) is not int:
        raise ProtocolError(
            f"field {field!r} must be an integer, not {value!r:.40}")
    return value


def _require_ints(values: Any, field: str) -> List[int]:
    """``values`` if it is a list of integers, else a ProtocolError."""
    if type(values) is not list:
        raise ProtocolError(
            f"field {field!r} must be a list of integers, not "
            f"{type(values).__name__}")
    for value in values:
        if type(value) is not int:
            raise ProtocolError(
                f"field {field!r} must hold integers only, not {value!r:.40}")
    return values


def _int_list_field(body: Dict[str, Any], field: str) -> List[int]:
    """The list of integers under ``field``."""
    return _require_ints(body[field], field)


def _int_map_field(body: Dict[str, Any], field: str) -> Dict[int, int]:
    """The node id -> integer map under ``field`` (JSON keys are text)."""
    mapping = body[field]
    if type(mapping) is not dict:
        raise ProtocolError(
            f"field {field!r} must map node ids to integers, not "
            f"{type(mapping).__name__}")
    _require_ints(list(mapping.values()), field)
    return {int(key): value for key, value in mapping.items()}


def _bool_field(body: Dict[str, Any], field: str, default: bool) -> bool:
    value = body.get(field, default)
    if type(value) is not bool:
        raise ProtocolError(
            f"field {field!r} must be true or false, not {value!r:.40}")
    return value


def _str_field(body: Dict[str, Any], field: str) -> str:
    value = body[field]
    if type(value) is not str:
        raise ProtocolError(f"field {field!r} must be text, not {value!r:.40}")
    return value


class Message:
    """Base class of all protocol messages."""

    #: Short type tag used on the wire; subclasses override it.
    kind = "message"

    #: Which hosted document the message addresses; ``None`` means the
    #: server's default document and leaves the field out of the encoding.
    document_id: Optional[str] = None

    #: Optional idempotency key (see the module docstring); ``None`` leaves
    #: the field out of the encoding.
    request_id: Optional[str] = None

    #: Names of the binary sections this kind may carry, in their
    #: canonical tail order; empty for kinds that are one JSON object.
    SECTIONS: Tuple[str, ...] = ()

    def payload(self) -> Dict[str, Any]:
        """The JSON head's fields."""
        return {}

    def sections(self) -> Dict[str, List[bytes]]:
        """The binary sections: a name of :attr:`SECTIONS` -> its blobs.

        An empty section is left out, so most messages of a kind with
        sections still carry only some of them.
        """
        return {}

    def for_document(self, document_id: Optional[str]) -> "Message":
        """Stamp the message with a document id (returns self for chaining)."""
        self.document_id = document_id
        return self

    def with_request_id(self, request_id: Optional[str]) -> "Message":
        """Stamp the message with an idempotency key (returns self)."""
        self.request_id = request_id
        return self

    def encode(self) -> bytes:
        """Deterministic wire encoding: the JSON head, then any binary tail."""
        sections = self.sections()
        body = {"kind": self.kind}
        if self.document_id is not None:
            body["document_id"] = self.document_id
        if self.request_id is not None:
            body["request_id"] = self.request_id
        body.update(self.payload())
        names = [name for name in self.SECTIONS if name in sections]
        if names:
            body["sections"] = names
        head = json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
        if not names:
            return head
        return b"\n".join([head, b"".join(blob for name in names
                                           for blob in sections[name])])

    def byte_size(self) -> int:
        """Number of bytes this message occupies on the wire."""
        return len(self.encode())

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "Message":
        """Rebuild an instance from a decoded payload (inverse of payload())."""
        return cls()

    @classmethod
    def from_sections(cls, body: Dict[str, Any], tail: "_Tail") -> "Message":
        """Rebuild a message of a kind with sections from its head and tail."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.payload()!r}>"


class HelloRequest(Message):
    """Open a session: the client states every protocol version it speaks."""

    kind = "hello"

    def __init__(self, versions: Sequence[int] = SUPPORTED_PROTOCOL_VERSIONS) -> None:
        self.versions = [int(v) for v in versions]

    def payload(self) -> Dict[str, Any]:
        return {"versions": self.versions}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "HelloRequest":
        return cls(_int_list_field(body, "versions"))


class HelloResponse(Message):
    """The server's pick of protocol version, plus free structure data.

    ``root_id``/``node_count`` describe the addressed document when it
    exists, so a session needs no further exchange to find the root.
    """

    kind = "hello-ok"

    def __init__(self, version: int, documents: Sequence[str] = (),
                 root_id: Optional[int] = None,
                 node_count: Optional[int] = None) -> None:
        self.version = int(version)
        self.documents = list(documents)
        self.root_id = root_id
        self.node_count = node_count

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"version": self.version, "documents": self.documents}
        if self.root_id is not None:
            body["root_id"] = self.root_id
            body["node_count"] = self.node_count
        return body

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "HelloResponse":
        documents = body.get("documents", [])
        if type(documents) is not list or any(type(document_id) is not str
                                              for document_id in documents):
            raise ProtocolError("field 'documents' must be a list of "
                                "document ids")
        root_id = node_count = None
        if "root_id" in body:
            root_id = _int_field(body, "root_id")
            node_count = _int_field(body, "node_count")
        return cls(_int_field(body, "version"), documents, root_id, node_count)


class FrontierRequest(Message):
    """One whole descent round in a single exchange.

    Carries, at once:

    * ``node_ids`` × ``points`` — share evaluations for the live frontier
      at every query point;
    * ``include_children`` — child lists of every frontier node (the next
      frontier is built client-side without another exchange);
    * ``prune`` — dead branches discovered in the *previous* round
      (piggybacked instead of a separate notice);
    * ``lookahead`` — how many further tree levels the server evaluates
      *speculatively* (children of the frontier, grandchildren, …) in the
      same exchange; the client consumes the speculated levels locally, so
      ``lookahead=1`` halves the number of descent exchanges at the price
      of evaluating children of nodes that turn out dead;
    * ``fetch_polynomials`` / ``fetch_constants`` — verification fetches;
      the server answers for the listed nodes *and all their children*
      (Theorem-1/2 reconstruction always needs the closure), so the
      client never pays a children round trip before verifying.

    The four id lists are the binary sections, one blob each, in the
    order given; an id that repeats in ``node_ids`` or a fetch list is
    refused.  ``points``, ``children`` and ``lookahead`` stay in the JSON
    head.  A head that still carries an id list (the v4 form) is
    refused, so an old client fails loudly instead of asking for an empty
    frontier.
    """

    kind = "frontier"
    SECTIONS = ("node_ids", "prune", "fetch_polynomials", "fetch_constants")

    def __init__(self, node_ids: Sequence[int] = (), points: Sequence[int] = (),
                 prune: Sequence[int] = (), include_children: bool = True,
                 fetch_polynomials: Sequence[int] = (),
                 fetch_constants: Sequence[int] = (),
                 lookahead: int = 0) -> None:
        self.node_ids = list(node_ids)
        self.points = [int(p) for p in points]
        self.prune = list(prune)
        self.include_children = bool(include_children)
        self.fetch_polynomials = list(fetch_polynomials)
        self.fetch_constants = list(fetch_constants)
        self.lookahead = int(lookahead)

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"points": self.points,
                                "children": self.include_children}
        if self.lookahead:
            body["lookahead"] = self.lookahead
        return body

    def sections(self) -> Dict[str, List[bytes]]:
        return {name: [encode_int_vector(getattr(self, name))]
                for name in self.SECTIONS if getattr(self, name)}

    @classmethod
    def from_sections(cls, body: Dict[str, Any], tail: "_Tail") -> "FrontierRequest":
        _only_fields(body, ("points", "children", "lookahead"), cls.kind)
        # Prune ids may repeat, and the server accepts and counts each:
        # separate steps of one query may prune the same node, and older
        # clients repeat ids within a step.  The lists it expands or
        # fetches may not repeat.
        lists = {name: tail.ints() if name == "prune" else tail.distinct(name)
                 for name in cls.SECTIONS if name in tail}
        return cls(lists.get("node_ids", []), _int_list_field(body, "points"),
                   lists.get("prune", []), _bool_field(body, "children", True),
                   lists.get("fetch_polynomials", []),
                   lists.get("fetch_constants", []),
                   _int_field(body, "lookahead", 0))


def require_nodes(mapping: Mapping[int, Any], node_ids: Sequence[int],
                  what: str) -> None:
    """Raise :class:`ProtocolError` naming the first node ``mapping`` lacks.

    Clients check every section of an untrusted response before indexing
    it, so a server that omits a node fails as a protocol error (which
    callers handle) instead of a ``KeyError`` deep inside the query engine.
    """
    for node_id in node_ids:
        if node_id not in mapping:
            raise ProtocolError(
                f"the server's response omits the {what} of node {node_id}")


def _only_fields(body: Dict[str, Any], allowed: Sequence[str],
                 kind: str) -> None:
    """Refuse head fields a sectioned kind does not have.

    The v4 forms of these kinds carried their numbers in JSON fields that
    v5 moved into the tail; refusing them keeps an old peer from being
    read as an empty message.
    """
    for field in body:
        if field not in allowed:
            raise ProtocolError(
                f"unexpected field {field!r} in the head of a {kind!r} "
                "message (protocol v5 carries numeric sections in the "
                "binary tail)")


class _Tail:
    """The binary tail of one message, read blob by blob.

    ``names`` are the sections the head announces, checked against the
    kind's canonical order.  Every blob's header is validated, its extent
    held to the tail and its count to the message's value budget (at most
    :data:`MAX_PACKED_VALUES`, and :data:`VALUES_PER_MESSAGE_BYTE` per byte
    of the message) before the blob is decoded.
    """

    def __init__(self, data: memoryview, start: int, names: Sequence[str]) -> None:
        self.data = data
        self.offset = start
        self.names = names
        self.budget = min(MAX_PACKED_VALUES,
                          VALUES_PER_MESSAGE_BYTE * len(data))
        self.remaining = self.budget

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def blob(self, count: Optional[int] = None) -> memoryview:
        """The next blob, checking its limb count when given."""
        if self.offset >= len(self.data):
            raise ProtocolError(
                "the binary tail ends before the sections its head names")
        _, _, announced, end = blob_extent(self.data, self.offset)
        if count is not None and announced != count:
            raise ProtocolError(
                f"packed section holds {announced} values where {count} "
                "are due")
        if announced > self.remaining:
            raise ProtocolError(
                f"packed payload announces more than {self.budget} values")
        self.remaining -= announced
        blob = self.data[self.offset:end]
        self.offset = end
        return blob

    def ints(self, count: Optional[int] = None) -> List[int]:
        return decode_int_vector(self.blob(count))

    def distinct(self, section: str) -> List[int]:
        """Node ids of a request section: each once, in the sender's order.

        The server expands, evaluates or fetches every such id, so a
        repeat would cost it work per value announced rather than per
        byte: a width-0 blob lists node 0 any number of times in ten bytes.
        """
        ids = self.ints()
        if len(set(ids)) != len(ids):
            raise ProtocolError(f"node ids repeat in the packed {section}")
        return ids

    def ids(self, section: str) -> List[int]:
        """Node ids of a packed section: ascending, each once, non-negative."""
        ids = self.ints()
        previous = -1
        for node_id in ids:
            if node_id <= previous:
                if node_id < 0:
                    raise ProtocolError(
                        f"negative node id {node_id} in the packed {section}")
                raise ProtocolError(
                    f"node id {node_id} repeats or is out of order in the "
                    f"packed {section}")
            previous = node_id
        return ids

    def finish(self) -> None:
        """Refuse bytes after the last section the head names."""
        if self.offset != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.offset} bytes follow the last "
                "section the head names")


def _section_names(body: Dict[str, Any], cls: type) -> List[str]:
    """The head's section names: known to ``cls``, in canonical order, once."""
    names = body.pop("sections", [])
    if type(names) is not list or any(type(name) is not str for name in names):
        raise ProtocolError("field 'sections' must be a list of section names")
    known = cls.SECTIONS
    positions = [known.index(name) if name in known else -1 for name in names]
    if -1 in positions:
        unknown = names[positions.index(-1)]
        raise ProtocolError(
            f"a {cls.kind!r} message has no section {unknown!r:.40}")
    if positions != sorted(set(positions)):
        raise ProtocolError(
            f"the sections of a {cls.kind!r} message repeat or are out of "
            "their canonical order")
    return names


class FrontierResponse(Message):
    """Everything a descent round needs, in one message.

    Every number travels in the binary tail as :mod:`repro.net.pages`
    limb blobs, in canonical order — sections in :attr:`SECTIONS` order,
    points ascending, node ids ascending and each once, child lists in
    stored sibling order — so equal responses encode to equal bytes:

    * ``evaluations``: the ids of the expanded frontier, shared by every
      point, then one value blob per point of the head's ``points``;
    * ``children``: parents, counts and the concatenated child ids;
    * ``polynomials``: ids, then one row-major blob of rows of the head's
      ``width``, at the narrowest limb width;
    * ``constants``: ids and values.

    Empty sections are left out.  Share rows decode to one
    :class:`~repro.core.share_tree.CoefficientRows` block.  Decoding validates:
    a corrupt blob, a blob that runs past the tail, bytes after the last
    section, a count that does not match its ids, negative or repeated ids
    and blobs announcing more values than the budget raise
    :class:`ProtocolError`.
    """

    kind = "frontier-ok"
    SECTIONS = ("evaluations", "children", "polynomials", "constants")

    def __init__(self, evaluations: Dict[int, Dict[int, int]],
                 children: Dict[int, List[int]],
                 polynomials: Optional[Mapping[int, Sequence[int]]] = None,
                 constants: Optional[Dict[int, int]] = None) -> None:
        #: ``point -> node_id -> server share evaluation``.
        self.evaluations = evaluations
        self.children = children
        self.polynomials = {} if polynomials is None else polynomials
        self.constants = {} if constants is None else constants

    def checked_evaluations(self, node_ids: Sequence[int],
                            points: Sequence[int]) -> Dict[int, Dict[int, int]]:
        """The evaluations, after checking each point covers ``node_ids``."""
        for point in points:
            if point not in self.evaluations:
                raise ProtocolError(
                    f"the server's response omits the evaluations at point "
                    f"{point}")
            require_nodes(self.evaluations[point], node_ids,
                          f"evaluation at point {point}")
        return self.evaluations

    def checked_closure(self, node_ids: Sequence[int],
                        constants_only: bool = False
                        ) -> Tuple[Dict[int, List[int]], Mapping[int, Any]]:
        """``(children, data)`` of a closure fetch for ``node_ids``.

        Checks that every node has its child list and that ``data`` — the
        constants, or the share rows — covers each node and child.
        """
        require_nodes(self.children, node_ids, "child list")
        children = {node_id: self.children[node_id] for node_id in node_ids}
        data = self.constants if constants_only else self.polynomials
        what = "constant" if constants_only else "share row"
        require_nodes(data, node_ids, what)
        for child_ids in children.values():
            require_nodes(data, child_ids, what)
        return children, data

    def _row_width(self) -> int:
        rows = self.polynomials
        if isinstance(rows, CoefficientRows):
            return rows.width          # its rows are zero-padded to it
        return max(len(rows[node_id]) for node_id in rows)

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {}
        if self.evaluations:
            body["points"] = sorted(self.evaluations)
        if self.polynomials:
            body["width"] = self._row_width()
        return body

    def sections(self) -> Dict[str, List[bytes]]:
        sections: Dict[str, List[bytes]] = {}
        if self.evaluations:
            points = sorted(self.evaluations)
            ids = sorted(set().union(*self.evaluations.values()))
            blobs = [encode_int_vector(ids)]
            for point in points:
                by_node = self.evaluations[point]
                if len(by_node) != len(ids):
                    raise ProtocolError(
                        "packed evaluations must cover the same nodes at "
                        "every point")
                blobs.append(encode_int_vector(list(map(by_node.__getitem__,
                                                        ids))))
            sections["evaluations"] = blobs
        if self.children:
            parents = sorted(self.children)
            lists = list(map(self.children.__getitem__, parents))
            sections["children"] = [
                encode_int_vector(parents),
                encode_int_vector(list(map(len, lists))),
                encode_int_vector(list(chain.from_iterable(lists)))]
        if self.polynomials:
            rows = self.polynomials
            ids = sorted(rows)
            if isinstance(rows, CoefficientRows) and rows.matrix is not None:
                matrix = rows.matrix
                if ids != rows.ids:
                    matrix = matrix[sorted(range(len(rows.ids)),
                                           key=rows.ids.__getitem__)]
                flat = matrix.ravel()
            else:
                width = self._row_width()
                flat = []
                for node_id in ids:
                    row = list(rows[node_id])
                    flat.extend(row)
                    flat.extend([0] * (width - len(row)))
            sections["polynomials"] = [encode_int_vector(ids),
                                       encode_coefficients_array(flat)]
        if self.constants:
            ids = sorted(self.constants)
            sections["constants"] = [
                encode_int_vector(ids),
                encode_int_vector(list(map(self.constants.__getitem__, ids)))]
        return sections

    @classmethod
    def from_sections(cls, body: Dict[str, Any], tail: "_Tail") -> "FrontierResponse":
        _only_fields(body, ("points", "width"), cls.kind)
        evaluations: Dict[int, Dict[int, int]] = {}
        if "evaluations" in tail:
            points = _int_list_field(body, "points")
            if any(a >= b for a, b in zip(points, points[1:])):
                raise ProtocolError("field 'points' must be ascending, each "
                                    "point once")
            ids = tail.ids("evaluation ids")
            for point in points:
                evaluations[point] = dict(zip(ids, tail.ints(len(ids))))
        elif "points" in body:
            raise ProtocolError("field 'points' names no evaluations section")
        children: Dict[int, List[int]] = {}
        if "children" in tail:
            parents = tail.ids("child-list parents")
            counts = tail.ints(len(parents))
            if counts and min(counts) < 0:
                raise ProtocolError("negative child count in the packed "
                                    "child lists")
            flat = tail.ints(sum(counts))
            if flat and min(flat) < 0:
                raise ProtocolError("negative node id in the packed child lists")
            offset = 0
            for parent, count in zip(parents, counts):
                children[parent] = flat[offset:offset + count]
                offset += count
        polynomials: Mapping[int, Sequence[int]] = {}
        if "polynomials" in tail:
            ids = tail.ids("polynomial ids")
            width = body.get("width")
            if type(width) is not int or not 0 <= width <= MAX_PACKED_VALUES:
                raise ProtocolError(f"packed row width {width!r:.40} is not an "
                                    f"int in [0, {MAX_PACKED_VALUES}]")
            blob = tail.blob(len(ids) * width)
            matrix = decode_coefficients_array(blob)
            if matrix is not None:
                polynomials = CoefficientRows(
                    ids, width, matrix=matrix.reshape(len(ids), width))
            else:
                flat = decode_coefficients(blob)
                polynomials = CoefficientRows(
                    ids, width, rows=[flat[index * width:(index + 1) * width]
                                      for index in range(len(ids))])
        elif "width" in body:
            raise ProtocolError("field 'width' names no polynomials section")
        constants: Dict[int, int] = {}
        if "constants" in tail:
            ids = tail.ids("constant ids")
            constants = dict(zip(ids, tail.ints(len(ids))))
        return cls(evaluations, children, polynomials, constants)


class PruneNotice(Message):
    """Tell the server that these subtrees are dead branches for this query.

    The node ids are the one binary section.
    """

    kind = "prune"
    SECTIONS = ("node_ids",)

    def __init__(self, node_ids: Sequence[int]) -> None:
        self.node_ids = list(node_ids)

    def sections(self) -> Dict[str, List[bytes]]:
        if not self.node_ids:
            return {}
        return {"node_ids": [encode_int_vector(self.node_ids)]}

    @classmethod
    def from_sections(cls, body: Dict[str, Any], tail: "_Tail") -> "PruneNotice":
        _only_fields(body, (), cls.kind)
        return cls(tail.ints() if "node_ids" in tail else [])


#: Wire op tags an :class:`UpdateRequest` batch may carry, with arity.
_UPDATE_OP_SHAPES = {"add": 4, "replace": 3, "remove": 3}


def _check_update_ops(ops: Sequence[Sequence[Any]]) -> List[List[Any]]:
    checked: List[List[Any]] = []
    for op in ops:
        op = list(op)
        if not op or op[0] not in _UPDATE_OP_SHAPES:
            raise ValueError(f"unknown update op {op[:1]!r}")
        if len(op) != _UPDATE_OP_SHAPES[op[0]]:
            raise ValueError(f"malformed {op[0]!r} update op: {op!r}")
        if op[0] == "add":
            checked.append(["add", int(op[1]), int(op[2]),
                            [int(c) for c in op[3]]])
        elif op[0] == "replace":
            checked.append(["replace", int(op[1]), [int(c) for c in op[2]]])
        else:
            checked.append(["remove", int(op[1]), [int(n) for n in op[2]]])
    return checked


class UpdateRequest(Message):
    """Apply one mutation batch to the hosted document.

    ``ops`` is the wire form of the batch a
    :class:`~repro.core.share_tree.StoreTransaction` would record, in order:

    * ``["add", node_id, parent_id, coeffs]`` — attach a new node holding
      the given server-share coefficients,
    * ``["replace", node_id, coeffs]`` — overwrite an existing share,
    * ``["remove", node_id, expected_removed_ids]`` — drop a whole
      subtree; the expected id list pins the subtree shape the client
      computed against.

    ``base_versions`` maps every node id whose current state the batch was
    computed from to the version the client last saw (0 for a node it has
    never seen change).  The server applies the batch only if every base
    version still matches; otherwise it answers
    :class:`ConflictResponse` and nothing is applied.  ``operation`` is a
    free-form label (e.g. ``"insert_subtree"``) used for observability
    only.
    """

    kind = "update"

    def __init__(self, operation: str, ops: Sequence[Sequence[Any]],
                 base_versions: Dict[int, int]) -> None:
        self.operation = str(operation)
        self.ops = _check_update_ops(ops)
        self.base_versions = {int(k): int(v) for k, v in base_versions.items()}

    def payload(self) -> Dict[str, Any]:
        return {"operation": self.operation, "ops": self.ops,
                "base": {str(k): v for k, v in self.base_versions.items()}}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "UpdateRequest":
        ops = body["ops"]
        if type(ops) is not list:
            raise ProtocolError("field 'ops' must be a list of update ops")
        for op in ops:
            if type(op) is not list:
                raise ProtocolError(f"field 'ops' holds {op!r:.40}, not an op array")
            # After the tag: node ids, and coefficient or id lists.
            for value in op[1:]:
                if type(value) is list:
                    _require_ints(value, "ops")
                elif type(value) is not int:
                    raise ProtocolError(
                        f"field 'ops' must hold integers only, not {value!r:.40}")
        return cls(body["operation"], ops, _int_map_field(body, "base"))


class UpdateResponse(Message):
    """The batch committed; carries the new per-node versions.

    ``versions`` holds the post-commit version of every node the batch
    added or replaced (removed nodes simply disappear from the server's
    version vector).  ``applied`` echoes the op count, mostly so the
    client can sanity-check that the response answers the request it sent.
    """

    kind = "update-ok"

    def __init__(self, versions: Dict[int, int], applied: int) -> None:
        self.versions = {int(k): int(v) for k, v in versions.items()}
        self.applied = int(applied)

    def payload(self) -> Dict[str, Any]:
        return {"versions": {str(k): v for k, v in self.versions.items()},
                "applied": self.applied}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "UpdateResponse":
        return cls(_int_map_field(body, "versions"),
                   _int_field(body, "applied"))


class ConflictResponse(Message):
    """The batch was rejected: its base versions are stale.

    ``conflicts`` names every node id whose base version no longer
    matches (sorted, so the encoding is deterministic).  ``versions``
    carries the server's *current* version for each conflicting node that
    still exists — a conflicting id absent from ``versions`` was removed
    by another writer.  Nothing was applied; the client refetches the
    conflicting subtrees, recomputes its batch and resends.
    """

    kind = "conflict"

    def __init__(self, conflicts: Sequence[int],
                 versions: Dict[int, int]) -> None:
        self.conflicts = sorted(int(n) for n in conflicts)
        self.versions = {int(k): int(v) for k, v in versions.items()}

    def payload(self) -> Dict[str, Any]:
        return {"conflicts": self.conflicts,
                "versions": {str(k): v for k, v in self.versions.items()}}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "ConflictResponse":
        return cls(_int_list_field(body, "conflicts"),
                   _int_map_field(body, "versions"))


class Acknowledgement(Message):
    """Empty positive reply."""

    kind = "ack"


class ErrorResponse(Message):
    """The server's in-band report that a request failed.

    The in-process channel simply lets a handler exception propagate to the
    caller, but over a real socket the failure has to travel back as a
    message so the session (and its pipelined successors) survive one bad
    request.  Clients re-raise the carried text as a
    :class:`~repro.errors.ProtocolError`.
    """

    kind = "error"

    def __init__(self, error: str, retryable: bool = False) -> None:
        self.error = str(error)
        #: True for transient server-side failures (e.g. a store backend
        #: hiccup) that a resilient client should retry on the same
        #: session; absent from the encoding when False.
        self.retryable = bool(retryable)

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.error}
        if self.retryable:
            body["retryable"] = True
        return body

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "ErrorResponse":
        return cls(_str_field(body, "error"),
                   _bool_field(body, "retryable", False))


class BusyResponse(Message):
    """The server shed this request under load; retry after the hint.

    Sent instead of queueing unboundedly (the socket transport's bounded
    coalescer queue) or instead of admitting a request over a tenant's quota
    (:meth:`~repro.net.engine.DocumentRegistry.admit`).  The session stays
    open — degradation is graceful, not a connection reset.  Clients
    surface it as :class:`~repro.errors.ServerBusyError`; resilient
    clients back off by ``retry_after_s`` and retry.
    """

    kind = "busy"

    def __init__(self, retry_after_s: float = 0.0) -> None:
        self.retry_after_s = float(retry_after_s)

    def payload(self) -> Dict[str, Any]:
        return {"retry_after_s": self.retry_after_s}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "BusyResponse":
        value = body.get("retry_after_s", 0.0)
        if (type(value) not in (int, float) or not math.isfinite(value)
                or value < 0):
            raise ProtocolError(
                "field 'retry_after_s' must be a finite, non-negative number "
                f"of seconds, not {value!r:.40}")
        return cls(value)


class StatsRequest(Message):
    """Ask the server for its operational metrics (hello-exempt).

    Like the hello exchange, a stats probe needs no prior negotiation —
    operators poke running servers with standalone tools.  It is also
    admission-exempt: a tenant over quota can still observe that it is
    being shed.  The response is tenant-filtered (see
    :class:`StatsResponse`).
    """

    kind = "stats"


class StatsResponse(Message):
    """Tenant-filtered metrics snapshot.

    ``metrics`` is the JSON form of a
    :meth:`~repro.obs.MetricsRegistry.snapshot`, filtered by the serving
    engine so a requester without a ``document_id`` sees only
    server-wide, label-free aggregates, and a requester addressing a
    document sees only instruments labelled with *that* document —
    never another tenant's identifiers or traffic figures.
    """

    kind = "stats-ok"

    def __init__(self, metrics: Dict[str, Any]) -> None:
        self.metrics = dict(metrics)

    def payload(self) -> Dict[str, Any]:
        return {"metrics": self.metrics}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "StatsResponse":
        return cls(body["metrics"])


class HealthRequest(Message):
    """Liveness/readiness probe (hello- and admission-exempt)."""

    kind = "health"


class HealthResponse(Message):
    """The server's health verdict plus coarse, tenant-free vitals."""

    kind = "health-ok"

    def __init__(self, status: str = "ok",
                 detail: Optional[Dict[str, Any]] = None) -> None:
        self.status = str(status)
        self.detail = dict(detail or {})

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"status": self.status}
        if self.detail:
            body["detail"] = self.detail
        return body

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "HealthResponse":
        return cls(body["status"], body.get("detail"))


class BlobRequest(Message):
    """Download-everything baseline: ask for the whole encrypted blob."""

    kind = "blob"


class BlobResponse(Message):
    """The whole encrypted blob, raw in the tail.

    Its one section is a page blob of 8-bit limbs, one per byte.
    """

    kind = "blob-ok"
    SECTIONS = ("blob",)

    def __init__(self, blob: bytes) -> None:
        self.blob = bytes(blob)

    def sections(self) -> Dict[str, List[bytes]]:
        return {"blob": [encode_byte_string(self.blob)]} if self.blob else {}

    @classmethod
    def from_sections(cls, body: Dict[str, Any], tail: "_Tail") -> "BlobResponse":
        _only_fields(body, (), cls.kind)
        return cls(decode_byte_string(tail.blob()) if "blob" in tail else b"")


_MESSAGE_TYPES = {
    cls.kind: cls for cls in (
        HelloRequest, HelloResponse, FrontierRequest, FrontierResponse,
        PruneNotice, UpdateRequest, UpdateResponse, ConflictResponse,
        Acknowledgement, ErrorResponse, BusyResponse,
        StatsRequest, StatsResponse, HealthRequest, HealthResponse,
        BlobRequest, BlobResponse,
    )
}


#: The kinds a client sends; servers decode no other kind.
REQUEST_KINDS = frozenset(cls.kind for cls in (
    HelloRequest, FrontierRequest, PruneNotice, UpdateRequest, StatsRequest,
    HealthRequest, BlobRequest,
))


def decode_message(data: bytes,
                   kinds: Optional[AbstractSet[str]] = None) -> Message:
    """Parse a wire encoding back into a message object.

    ``kinds``, when given, lists the kinds the caller accepts: a message of
    any other kind is refused before its body is decoded.  Servers pass
    :data:`REQUEST_KINDS`, so a client cannot make them decode a response.
    Every frame that does not decode raises
    :class:`~repro.errors.ProtocolError`.
    """
    if type(data) is not bytes:
        data = bytes(data)
    newline = data.find(b"\n")
    try:
        body = json.loads((data if newline < 0 else data[:newline]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # Besides bad UTF-8 and bad JSON (both ValueErrors), the parser
        # gives up on nesting past its recursion limit and on integer
        # literals past Python's int-conversion digit limit.
        raise ProtocolError(f"malformed message: {exc}") from exc
    if type(body) is not dict:
        raise ProtocolError(
            f"malformed message: the body is a JSON {type(body).__name__}, "
            "not an object")
    kind = body.pop("kind", None)
    cls = _MESSAGE_TYPES.get(kind) if type(kind) is str else None
    if cls is None:
        raise ProtocolError(f"unknown message kind {kind!r}")
    if kinds is not None and kind not in kinds:
        raise ProtocolError(f"unexpected {kind!r} message")
    document_id = body.pop("document_id", None)
    request_id = body.pop("request_id", None)
    try:
        if not cls.SECTIONS:
            if newline >= 0:
                raise ProtocolError(
                    f"a {kind!r} message has no sections, but a binary "
                    "tail follows its head")
            message = cls.from_payload(body)
        else:
            names = _section_names(body, cls)
            if newline >= 0 and not names:
                raise ProtocolError(
                    f"the head of a {kind!r} message names no sections, "
                    "but a binary tail follows it")
            tail = _Tail(memoryview(data), len(data) if newline < 0
                         else newline + 1, names)
            message = cls.from_sections(body, tail)
            tail.finish()
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed {kind!r} message: {exc}") from exc
    if document_id is not None:
        message.document_id = str(document_id)
    if request_id is not None:
        message.request_id = str(request_id)
    return message
