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
  point, the child lists, the fetched share rows, the constants) travels
  as a base64 :mod:`repro.net.pages` limb blob inside the JSON object;
  :class:`PruneNotice` delivers prune notices no later request carried.
* :class:`UpdateRequest` carries one whole mutation batch (the ops
  recorded by a :class:`~repro.net.store.StoreTransaction`, in wire form)
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

The wire format is one compact JSON object per message, with only the
frontier payloads packed (request id lists stay JSON: they are a small
fraction of a lookup's traffic).  Decoding checks every field by exact
JSON type, requests and responses alike, and refuses a malformed message
with a :class:`~repro.errors.ProtocolError` that names the field.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.query import CoefficientRows
from ..errors import ProtocolError
from .framing import MAX_FRAME_BYTES
from .pages import (
    blob_count,
    decode_coefficients,
    decode_coefficients_array,
    decode_int_vector,
    encode_coefficients_array,
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
PROTOCOL_VERSION = 4

#: Every generation this build can serve (negotiated in the hello exchange).
SUPPORTED_PROTOCOL_VERSIONS = (PROTOCOL_VERSION,)

#: Most values one packed payload may announce, summed over its blobs: as
#: many as a frame has bytes, the most a JSON int list could carry.
#: Checked from each blob's header before the blob is decoded, the cap
#: keeps a few bytes of width-0 blob from announcing a giant vector.
MAX_PACKED_VALUES = MAX_FRAME_BYTES


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


def _int_list_field(body: Dict[str, Any], field: str,
                    required: bool = True) -> List[int]:
    """The list of integers under ``field`` (empty when optional and absent)."""
    return _require_ints(body[field] if required else body.get(field, []), field)


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

    def payload(self) -> Dict[str, Any]:
        """The JSON-serialisable body of the message."""
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
        """Deterministic wire encoding."""
        body = {"kind": self.kind}
        if self.document_id is not None:
            body["document_id"] = self.document_id
        if self.request_id is not None:
            body["request_id"] = self.request_id
        body.update(self.payload())
        return json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")

    def byte_size(self) -> int:
        """Number of bytes this message occupies on the wire."""
        return len(self.encode())

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "Message":
        """Rebuild an instance from a decoded payload (inverse of payload())."""
        return cls()

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

    Every request encodes ``"packed": true``, asking for the packed
    :class:`FrontierResponse`; a server refuses a request without it, so
    a client that expects the JSON int maps of earlier generations fails
    loudly instead of misreading the answer.
    """

    kind = "frontier"

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
        body: Dict[str, Any] = {"node_ids": self.node_ids, "points": self.points,
                                "children": self.include_children,
                                "packed": True}
        if self.prune:
            body["prune"] = self.prune
        if self.fetch_polynomials:
            body["fetch_polynomials"] = self.fetch_polynomials
        if self.fetch_constants:
            body["fetch_constants"] = self.fetch_constants
        if self.lookahead:
            body["lookahead"] = self.lookahead
        return body

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "FrontierRequest":
        if body.get("packed") is not True:
            raise ProtocolError(
                "field 'packed' must be true: frontier rounds are answered "
                "in packed form only")
        return cls(_int_list_field(body, "node_ids"),
                   _int_list_field(body, "points"),
                   _int_list_field(body, "prune", required=False),
                   _bool_field(body, "children", True),
                   _int_list_field(body, "fetch_polynomials", required=False),
                   _int_list_field(body, "fetch_constants", required=False),
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


def _pack(values: Any) -> str:
    """One base64 limb blob for an int vector (list or int64 ndarray)."""
    return base64.b64encode(encode_coefficients_array(values)).decode("ascii")


class _PackedReader:
    """Decodes the blobs of one packed payload, at most
    :data:`MAX_PACKED_VALUES` values in all."""

    def __init__(self) -> None:
        self.remaining = MAX_PACKED_VALUES

    def blob(self, text: Any, count: Optional[int] = None) -> bytes:
        """The blob of a packed section, checking its limb count when given."""
        if not isinstance(text, str):
            raise ProtocolError(
                f"packed section holds {type(text).__name__}, not base64 text")
        try:
            blob = base64.b64decode(text, validate=True)
        except binascii.Error as exc:
            raise ProtocolError(
                f"packed section is not valid base64: {exc}") from exc
        announced = blob_count(blob)
        if count is not None and announced != count:
            raise ProtocolError(
                f"packed section holds {announced} values where {count} "
                "are due")
        if announced > self.remaining:
            raise ProtocolError(
                f"packed payload announces more than {MAX_PACKED_VALUES} "
                "values")
        self.remaining -= announced
        return blob

    def ints(self, text: Any, count: Optional[int] = None) -> List[int]:
        return decode_int_vector(self.blob(text, count))

    def ids(self, text: Any, section: str) -> List[int]:
        """Node ids of a packed section: ascending, each once, non-negative."""
        ids = self.ints(text)
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


def _section(sections: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
    section = sections.get(name)
    if section is not None and not isinstance(section, dict):
        raise ProtocolError(f"packed {name} is not an object")
    return section


class FrontierResponse(Message):
    """Everything a descent round needs, in one message.

    The body is one object under ``"packed"`` whose sections are base64
    :mod:`repro.net.pages` limb blobs, in canonical order — node ids
    ascending, each once; child lists in stored sibling order — so equal
    responses encode to equal bytes:

    * ``evaluations``: ``ids`` (the expanded frontier, shared by every
      point) and ``values``, one blob per point;
    * ``children``: ``parents``, ``counts`` and the concatenated ``ids``;
    * ``polynomials``: ``ids``, the row ``width`` and one row-major
      ``rows`` blob;
    * ``constants``: ``ids`` and ``values``.

    Empty sections are left out.  Share rows decode to one
    :class:`~repro.core.query.CoefficientRows` block.  Decoding validates:
    malformed base64, a corrupt blob, a count that does not match its ids,
    negative or repeated ids and blobs announcing more than
    :data:`MAX_PACKED_VALUES` values in all raise :class:`ProtocolError`.
    """

    kind = "frontier-ok"

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

    def payload(self) -> Dict[str, Any]:
        sections: Dict[str, Any] = {}
        if self.evaluations:
            ids = sorted(set().union(*self.evaluations.values()))
            values: Dict[str, str] = {}
            for point, by_node in self.evaluations.items():
                if len(by_node) != len(ids):
                    raise ProtocolError(
                        "packed evaluations must cover the same nodes at "
                        "every point")
                values[str(point)] = _pack([by_node[node_id] for node_id in ids])
            sections["evaluations"] = {"ids": _pack(ids), "values": values}
        if self.children:
            parents = sorted(self.children)
            sections["children"] = {
                "parents": _pack(parents),
                "counts": _pack([len(self.children[node_id])
                                 for node_id in parents]),
                "ids": _pack([child for node_id in parents
                              for child in self.children[node_id]]),
            }
        if self.polynomials:
            rows = self.polynomials
            ids = sorted(rows)
            if isinstance(rows, CoefficientRows) and rows.matrix is not None:
                matrix = rows.matrix
                if ids != rows.ids:
                    matrix = matrix[sorted(range(len(rows.ids)),
                                           key=rows.ids.__getitem__)]
                width, flat = rows.width, matrix.ravel()
            else:
                width = max(len(rows[node_id]) for node_id in ids)
                flat = []
                for node_id in ids:
                    row = list(rows[node_id])
                    flat.extend(row)
                    flat.extend([0] * (width - len(row)))
            sections["polynomials"] = {"ids": _pack(ids), "width": width,
                                       "rows": _pack(flat)}
        if self.constants:
            ids = sorted(self.constants)
            sections["constants"] = {
                "ids": _pack(ids),
                "values": _pack([self.constants[node_id] for node_id in ids])}
        return {"packed": sections}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "FrontierResponse":
        sections = body.get("packed")
        if not isinstance(sections, dict):
            raise ProtocolError("packed frontier payload is not an object")
        reader = _PackedReader()
        evaluations: Dict[int, Dict[int, int]] = {}
        section = _section(sections, "evaluations")
        if section is not None:
            ids = reader.ids(section["ids"], "evaluation ids")
            values_by_point = section["values"]
            if not isinstance(values_by_point, dict):
                raise ProtocolError("packed evaluation values are not an object")
            for point, text in values_by_point.items():
                values = reader.ints(text, len(ids))
                evaluations[int(point)] = dict(zip(ids, values))
        children: Dict[int, List[int]] = {}
        section = _section(sections, "children")
        if section is not None:
            parents = reader.ids(section["parents"], "child-list parents")
            counts = reader.ints(section["counts"], len(parents))
            if any(count < 0 for count in counts):
                raise ProtocolError("negative child count in the packed "
                                    "child lists")
            flat = reader.ints(section["ids"], sum(counts))
            if any(child < 0 for child in flat):
                raise ProtocolError("negative node id in the packed child lists")
            offset = 0
            for parent, count in zip(parents, counts):
                children[parent] = flat[offset:offset + count]
                offset += count
        polynomials: Mapping[int, Sequence[int]] = {}
        section = _section(sections, "polynomials")
        if section is not None:
            ids = reader.ids(section["ids"], "polynomial ids")
            width = section["width"]
            if type(width) is not int or not 0 <= width <= MAX_PACKED_VALUES:
                raise ProtocolError(f"packed row width {width!r} is not an "
                                    f"int in [0, {MAX_PACKED_VALUES}]")
            blob = reader.blob(section["rows"], len(ids) * width)
            matrix = decode_coefficients_array(blob)
            if matrix is not None:
                polynomials = CoefficientRows(
                    ids, width, matrix=matrix.reshape(len(ids), width))
            else:
                flat = decode_coefficients(blob)
                polynomials = CoefficientRows(
                    ids, width, rows=[flat[index * width:(index + 1) * width]
                                      for index in range(len(ids))])
        constants: Dict[int, int] = {}
        section = _section(sections, "constants")
        if section is not None:
            ids = reader.ids(section["ids"], "constant ids")
            constants = dict(zip(ids, reader.ints(section["values"], len(ids))))
        return cls(evaluations, children, polynomials, constants)


class PruneNotice(Message):
    """Tell the server that these subtrees are dead branches for this query."""

    kind = "prune"

    def __init__(self, node_ids: Sequence[int]) -> None:
        self.node_ids = list(node_ids)

    def payload(self) -> Dict[str, Any]:
        return {"node_ids": self.node_ids}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "PruneNotice":
        return cls(_int_list_field(body, "node_ids"))


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
    :class:`~repro.net.store.StoreTransaction` would record, in order:

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
    """The whole encrypted blob (hex-encoded on the wire)."""

    kind = "blob-ok"

    def __init__(self, blob: bytes) -> None:
        self.blob = bytes(blob)

    def payload(self) -> Dict[str, Any]:
        return {"blob": self.blob.hex()}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "BlobResponse":
        return cls(bytes.fromhex(body["blob"]))


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
    try:
        body = json.loads(data.decode("utf-8"))
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
        message = cls.from_payload(body)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed {kind!r} message: {exc}") from exc
    if document_id is not None:
        message.document_id = str(document_id)
    if request_id is not None:
        message.request_id = str(request_id)
    return message
