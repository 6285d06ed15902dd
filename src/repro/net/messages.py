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
  lookup costs O(depth) round trips.  Every id list of the request and
  every numeric section of the response (one value vector per point, the
  child counts and child ids, the fetched share rows, the constants)
  travels as a raw :mod:`repro.net.pages` limb blob in the message's
  binary tail.  The response names no node: its sections are positional,
  in the orders :func:`frontier_layout` derives from the request, and
  :meth:`FrontierResponse.bind` keys them by node id again on the
  client.  :class:`PruneNotice` delivers prune notices no later request
  carried.
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

A :class:`FrontierRequest` has the fields of the one read of
:class:`~repro.core.query.ServerInterface`, and a bound
:class:`FrontierResponse` is its
:class:`~repro.core.query.FrontierResult`; in process,
:class:`~repro.core.query.LocalServerAdapter` answers the same exchange
without a message.

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
from typing import (AbstractSet, Any, Callable, Dict, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple)

from ..core.query import CoefficientRows, FrontierResult, closure_order
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
    "MAX_LOOKAHEAD",
    "MAX_PACKED_VALUES",
    "REQUEST_KINDS",
    "Message",
    "HelloRequest",
    "HelloResponse",
    "FrontierRequest",
    "FrontierResponse",
    "FrontierLayout",
    "frontier_layout",
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
    "decode_message",
]

#: Newest protocol generation this build speaks.
PROTOCOL_VERSION = 6

#: Every generation this build can serve (negotiated in the hello exchange).
SUPPORTED_PROTOCOL_VERSIONS = (PROTOCOL_VERSION,)

#: Most tree levels a frontier request may ask the server to speculate
#: below its frontier.
MAX_LOOKAHEAD = 4

#: Most values one message's tail may announce, summed over its blobs.
#: Checked from each blob's header before the blob is decoded, together
#: with :data:`VALUES_PER_MESSAGE_BYTE`, the cap keeps a few bytes of width-0
#: blob from announcing a giant vector.
MAX_PACKED_VALUES = MAX_FRAME_BYTES

#: Most values a message may announce per byte of its encoding: a 1-bit
#: limb packs eight to a byte.  Whatever a sender's blob headers claim,
#: what a message decodes to then stays proportional to its size.  A
#: response's sections are positional over the nodes its request named,
#: so the bytes of that request count too: a level of leaves answers with
#: a width-0 blob of child counts, one zero per node the request sent.
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

    The answer's shape follows from the request (:func:`frontier_layout`),
    so a request that would leave it open is refused with
    :class:`ProtocolError` when it is built or decoded: a ``lookahead``
    outside 0..:data:`MAX_LOOKAHEAD`, a ``lookahead`` without child lists
    (the client derives the speculated levels from them) and a point that
    repeats.
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
        if not 0 <= self.lookahead <= MAX_LOOKAHEAD:
            raise ProtocolError(
                f"field 'lookahead' must lie in 0..{MAX_LOOKAHEAD}, not "
                f"{self.lookahead}")
        if self.lookahead and not self.include_children:
            raise ProtocolError(
                "field 'lookahead' needs child lists: a request with "
                "'children' false cannot speculate")
        if len(set(self.points)) != len(self.points):
            raise ProtocolError("field 'points' repeats a point")

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
        lists = {name: tail.ints(name) if name == "prune" else tail.distinct(name)
                 for name in cls.SECTIONS if name in tail}
        return cls(lists.get("node_ids", []), _int_list_field(body, "points"),
                   lists.get("prune", []), _bool_field(body, "children", True),
                   lists.get("fetch_polynomials", []),
                   lists.get("fetch_constants", []),
                   _int_field(body, "lookahead", 0))


def _only_fields(body: Dict[str, Any], allowed: Sequence[str],
                 kind: str) -> None:
    """Refuse head fields a sectioned kind does not have.

    The v4 forms of these kinds carried their numbers in JSON fields that
    later generations carry in the tail; refusing them keeps an old peer
    from being read as an empty message.
    """
    for field in body:
        if field not in allowed:
            raise ProtocolError(
                f"unexpected field {field!r} in the head of a {kind!r} "
                "message (protocol v6 carries numeric sections in the "
                "binary tail)")


class _Tail:
    """The binary tail of one message, read blob by blob.

    ``names`` are the sections the head announces, checked against the
    kind's canonical order.  Every blob's header is validated, its extent
    held to the tail and its count to the message's value budget (at most
    :data:`MAX_PACKED_VALUES`, and :data:`VALUES_PER_MESSAGE_BYTE` per byte
    of the message and of the ``request_bytes`` it answers) before the
    blob is decoded.
    """

    def __init__(self, data: memoryview, start: int, names: Sequence[str],
                 request_bytes: int = 0) -> None:
        self.data = data
        self.offset = start
        self.names = names
        self.budget = min(MAX_PACKED_VALUES, VALUES_PER_MESSAGE_BYTE
                          * (len(data) + request_bytes))
        self.remaining = self.budget

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def blob(self, section: str, count: Optional[int] = None) -> memoryview:
        """The next blob, of ``section``, checking its limb count when given."""
        if self.offset >= len(self.data):
            raise ProtocolError(
                "the binary tail ends before the sections its head names")
        _, _, announced, end = blob_extent(self.data, self.offset)
        if count is not None and announced != count:
            raise ProtocolError(
                f"the packed {section} hold {announced} values where {count} "
                "are due")
        if announced > self.remaining:
            raise ProtocolError(
                f"packed payload announces more than {self.budget} values")
        self.remaining -= announced
        blob = self.data[self.offset:end]
        self.offset = end
        return blob

    def ints(self, section: str, count: Optional[int] = None) -> List[int]:
        return decode_int_vector(self.blob(section, count))

    def distinct(self, section: str) -> List[int]:
        """Node ids of a request section: each once, in the sender's order.

        The server expands, evaluates or fetches every such id, so a
        repeat would cost it work per value announced rather than per
        byte: a width-0 blob lists node 0 any number of times in ten bytes.
        """
        ids = self.ints(section)
        if len(set(ids)) != len(ids):
            raise ProtocolError(f"node ids repeat in the packed {section}")
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


class FrontierLayout(NamedTuple):
    """Where each entry of a ``frontier-ok``'s positional sections belongs.

    :func:`frontier_layout` derives it from the request, the same way on
    both sides of the wire:

    * ``expansion`` — the evaluated nodes, the order of every point's
      values: the request's ``node_ids`` as sent, then each lookahead
      level's new children in sibling order;
    * ``parents`` and ``children`` — the nodes whose child lists the
      answer carries, in the order of the child counts, and those lists:
      the expansion (with child lists asked for), then each fetched node
      not yet listed;
    * ``polynomials`` and ``constants`` — the fetched nodes, the order of
      the share rows and of the constants: as sent for an exact fetch, in
      closure order (each fetched node, then its children not yet named)
      with child lists.
    """

    expansion: List[int]
    parents: List[int]
    children: List[Sequence[int]]
    polynomials: List[int]
    constants: List[int]


def frontier_layout(request: FrontierRequest,
                    child_lists: Callable[[List[int]], List[Sequence[int]]]
                    ) -> FrontierLayout:
    """The orders of the answer to ``request`` (see :class:`FrontierLayout`).

    ``child_lists`` returns the child lists of the nodes it is given, in
    their order.  It is asked for each listed parent once, in the order
    the answer carries them, so the server reads them from its store and
    the client off the answer's child counts and child ids as it goes.
    The expansion skips a child the frontier already holds, so a frontier
    that lists a node and its parent evaluates the node once.
    """
    expansion = list(request.node_ids)
    parents: List[int] = []
    lists: List[Sequence[int]] = []
    polynomials = request.fetch_polynomials
    constants = request.fetch_constants
    if request.include_children:
        held = set(expansion)
        level = expansion
        for depth in range(request.lookahead + 1):
            if not level:
                break
            level_lists = child_lists(level)
            parents += level
            lists += level_lists
            if depth < request.lookahead:
                level = [child for child_ids in level_lists for child in child_ids
                         if child not in held]
                held.update(level)
                expansion += level
        fetched = [node_id for node_id in dict.fromkeys(polynomials + constants)
                   if node_id not in held]
        if fetched:
            parents += fetched
            lists += child_lists(fetched)
        if polynomials or constants:
            by_parent = dict(zip(parents, lists))
            polynomials = closure_order(polynomials, by_parent)
            constants = closure_order(constants, by_parent)
    return FrontierLayout(expansion, parents, lists, list(polynomials),
                          list(constants))


def _check_length(section: str, held: int, due: int) -> None:
    if held != due:
        raise ProtocolError(
            f"the response's {section} hold {held} entries where its "
            f"request's layout has {due}")


class FrontierResponse(Message):
    """Everything a descent round needs, in one message.

    Every number travels in the binary tail as :mod:`repro.net.pages`
    limb blobs, sections in :attr:`SECTIONS` order.  No section names a
    node: each is positional, in an order of the request's
    :class:`FrontierLayout`, so equal requests get equal bytes:

    * ``evaluations``: one value blob per point of the head's ``points``
      (the request's, ascending), each in expansion order;
    * ``children``: the child counts of the listed parents, then their
      child ids concatenated, each list in stored sibling order;
    * ``polynomials``: one row-major blob of rows of the head's
      ``width``, at the narrowest limb width, in fetch or closure order;
    * ``constants``: one value per fetched node, in the same orders.

    Empty sections are left out.  Decoding checks each blob and what the
    blobs must agree on among themselves (one value count at every
    point, summed counts vs child ids, whole rows); :meth:`bind` checks
    every section's length against the request and keys it by node id.
    Until then the share rows are keyed by their position.
    """

    kind = "frontier-ok"
    SECTIONS = ("evaluations", "children", "polynomials", "constants")

    def __init__(self, points: Sequence[int] = (),
                 values: Sequence[Sequence[int]] = (),
                 child_counts: Sequence[int] = (),
                 child_ids: Sequence[int] = (),
                 rows: Optional[CoefficientRows] = None,
                 constants: Sequence[int] = ()) -> None:
        self.points = list(points)
        #: One value vector per point, in expansion order.
        self.values = list(values)
        self.child_counts = child_counts
        self.child_ids = child_ids
        self.rows = rows
        self.constants = constants

    def bind(self, request: FrontierRequest) -> FrontierResult:
        """The sections keyed by node id, after checking them against ``request``.

        ``rows`` is one :class:`~repro.core.share_tree.CoefficientRows`
        block over the fetched nodes.

        A section whose length differs from what the request's layout
        gives it raises :class:`ProtocolError` naming the section, so a
        server that omits or adds an entry fails as a protocol error
        instead of a wrong answer or a ``KeyError`` in the query engine.
        """
        counts, flat = self.child_counts, self.child_ids
        read = [0, 0]       # child counts and child ids consumed so far

        def child_lists(node_ids: List[int]) -> List[Sequence[int]]:
            start, offset = read
            end = start + len(node_ids)
            if end > len(counts):
                raise ProtocolError(
                    f"the response's child counts hold {len(counts)} "
                    "entries, fewer than its request's layout lists")
            lists = []
            for count in counts[start:end]:
                lists.append(flat[offset:offset + count])
                offset += count
            read[:] = [end, offset]
            return lists

        layout = frontier_layout(request, child_lists)
        _check_length("child counts", len(counts), read[0])
        _check_length("child ids", len(flat), read[1])
        expansion = layout.expansion
        asked = sorted(request.points) if expansion else []
        if self.points != asked or len(self.values) != len(asked):
            raise ProtocolError(
                f"the response's evaluations answer points {self.points} "
                f"where its request's layout asks for {asked}")
        evaluations = {point: {} for point in request.points}
        for point, values in zip(asked, self.values):
            _check_length(f"evaluations at point {point}", len(values),
                          len(expansion))
            evaluations[point] = dict(zip(expansion, values))
        rows: Mapping[int, Sequence[int]] = {}
        if self.rows is not None or layout.polynomials:
            _check_length("share rows", 0 if self.rows is None
                          else len(self.rows), len(layout.polynomials))
            rows = self.rows.keyed(layout.polynomials)
        _check_length("constants", len(self.constants), len(layout.constants))
        return FrontierResult(evaluations, dict(zip(layout.parents,
                                                    layout.children)),
                              rows, dict(zip(layout.constants, self.constants)))

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {}
        if self.points:
            body["points"] = self.points
        if self.rows:
            body["width"] = self.rows.width
        return body

    def sections(self) -> Dict[str, List[bytes]]:
        sections: Dict[str, List[bytes]] = {}
        if self.points:
            sections["evaluations"] = list(map(encode_int_vector, self.values))
        if self.child_counts:
            sections["children"] = [encode_int_vector(self.child_counts),
                                    encode_int_vector(self.child_ids)]
        if self.rows:
            sections["polynomials"] = [encode_coefficients_array(
                self.rows.flat())]
        if self.constants:
            sections["constants"] = [encode_int_vector(self.constants)]
        return sections

    @classmethod
    def from_sections(cls, body: Dict[str, Any], tail: "_Tail") -> "FrontierResponse":
        _only_fields(body, ("points", "width"), cls.kind)
        points: List[int] = []
        values: List[List[int]] = []
        if "evaluations" in tail:
            points = _int_list_field(body, "points")
            if not points or any(a >= b for a, b in zip(points, points[1:])):
                raise ProtocolError("field 'points' must be ascending, each "
                                    "point once, and name at least one")
            first = tail.ints("evaluations")
            values = [first] + [tail.ints("evaluations", len(first))
                                for _ in points[1:]]
        elif "points" in body:
            raise ProtocolError("field 'points' names no evaluations section")
        counts: List[int] = []
        child_ids: List[int] = []
        if "children" in tail:
            counts = tail.ints("child counts")
            if counts and min(counts) < 0:
                raise ProtocolError("negative child count in the packed "
                                    "child counts")
            child_ids = tail.ints("child ids", sum(counts))
            if child_ids and min(child_ids) < 0:
                raise ProtocolError("negative node id in the packed child ids")
        rows: Optional[CoefficientRows] = None
        if "polynomials" in tail:
            width = body.get("width")
            if type(width) is not int or not 1 <= width <= MAX_PACKED_VALUES:
                raise ProtocolError(f"packed row width {width!r:.40} is not an "
                                    f"int in [1, {MAX_PACKED_VALUES}]")
            blob = tail.blob("share rows")
            announced = blob_extent(blob)[2]
            if announced % width:
                raise ProtocolError(
                    f"the packed share rows hold {announced} values, not "
                    f"whole rows of width {width}")
            count = announced // width
            matrix = decode_coefficients_array(blob)
            if matrix is not None:
                rows = CoefficientRows(range(count), width,
                                       matrix=matrix.reshape(count, width))
            else:
                flat = decode_coefficients(blob)
                rows = CoefficientRows(
                    range(count), width,
                    rows=[flat[index * width:(index + 1) * width]
                          for index in range(count)])
        elif "width" in body:
            raise ProtocolError("field 'width' names no polynomials section")
        constants = tail.ints("constants") if "constants" in tail else []
        return cls(points, values, counts, child_ids, rows, constants)


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
        return cls(tail.ints("node_ids") if "node_ids" in tail else [])


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
        return cls(decode_byte_string(tail.blob("blob")) if "blob" in tail
                   else b"")


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
                   kinds: Optional[AbstractSet[str]] = None,
                   request_bytes: int = 0) -> Message:
    """Parse a wire encoding back into a message object.

    ``kinds``, when given, lists the kinds the caller accepts: a message of
    any other kind is refused before its body is decoded.  Servers pass
    :data:`REQUEST_KINDS`, so a client cannot make them decode a response.
    A client decoding a response passes the size of the request it sent
    as ``request_bytes``, which the value budget counts with the
    response's own bytes (:data:`VALUES_PER_MESSAGE_BYTE`).  Every frame
    that does not decode raises :class:`~repro.errors.ProtocolError`.
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
                         else newline + 1, names, request_bytes)
            message = cls.from_sections(body, tail)
            tail.finish()
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed {kind!r} message: {exc}") from exc
    if document_id is not None:
        message.document_id = str(document_id)
    if request_id is not None:
        message.request_id = str(request_id)
    return message
