"""Protocol messages exchanged between the thin client and the server.

The paper motivates its design with thin clients and low-bandwidth links,
so the reproduction measures communication explicitly.  Every request and
response is a small message object with a deterministic serialisation
(:meth:`Message.encode`) whose byte length is what the instrumented
channel (:mod:`repro.net.channel`) accounts for.

Four protocol generations coexist:

* **v1** — the original strictly request-per-kind messages (structure,
  children, evaluate, fetch, prune).  Their wire encoding is unchanged, so
  v1 clients keep working and historical bandwidth figures stay valid.
* **v2** — adds :class:`HelloRequest`/:class:`HelloResponse` (version
  negotiation at connect; unknown versions are rejected loudly) and the
  batched :class:`FrontierRequest`/:class:`FrontierResponse` pair that
  carries evaluate + children + verification fetches + prune notices for a
  whole frontier round in one exchange — O(depth) round trips per lookup
  instead of O(depth × request kinds).
* **v3** — adds the update triplet: :class:`UpdateRequest` carries one
  whole mutation batch (the ops recorded by a
  :class:`~repro.net.store.StoreTransaction`, in wire form) plus the
  client's base version vector over every node the batch touches;
  :class:`UpdateResponse` confirms a committed batch and returns the new
  per-node versions; :class:`ConflictResponse` rejects a batch whose base
  versions no longer match (another writer got there first) and names the
  conflicting node ids so the client can refetch and rebase.  v3 also
  adds the operational probes :class:`StatsRequest`/:class:`StatsResponse`
  and :class:`HealthRequest`/:class:`HealthResponse` — hello-exempt like
  the hello itself, admission-exempt, and tenant-filtered on the way out.
* **v4** — v3 plus *packed* frontier payloads: a v4 session's
  :class:`FrontierRequest` sets ``packed``, and the server then carries
  every numeric section of the :class:`FrontierResponse` (the expanded
  frontier's node ids and one value vector per point, the child lists,
  the fetched share rows, the constants) as base64
  :mod:`repro.net.pages` limb blobs inside the same JSON object, instead
  of decimal JSON int maps.  On a served lookup that is ~0.4x the bytes
  and a fraction of the encode/decode CPU.

Every message additionally carries an optional ``document_id`` so one
server can host many outsourced documents; omitting it (the v1 encoding)
addresses the server's default document.  Messages may also carry an
optional ``request_id`` — an idempotency key stamped by resilient clients
so that a request replayed after an ambiguous transport failure is
answered bit-identically from the server's idempotency cache instead of
being processed (and observed) twice.  Both fields are omitted from the
encoding when unset, so historical byte counts are unchanged.

Two in-band failure responses exist: :class:`ErrorResponse` (a request
failed; ``retryable`` marks transient backend failures) and
:class:`BusyResponse` (the server shed the request under load and names a
``retry_after_s`` backoff hint — graceful degradation instead of a
dropped connection).

The wire format is a compact JSON document.  v1–v3 encodings are *not*
an optimised binary protocol, only a consistent yardstick so that the
bandwidth comparisons between modes and baselines are meaningful; they
stay byte-identical, and a session pinned to ``protocol_version=3``
still measures them.  v4 keeps one JSON object per message and packs
only the frontier payloads (request id lists stay JSON: they are a small
fraction of a lookup's traffic).
"""

from __future__ import annotations

import base64
import binascii
import json
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
    "PACKED_FRONTIER_VERSION",
    "MAX_PACKED_VALUES",
    "REQUEST_KINDS",
    "Message",
    "HelloRequest",
    "HelloResponse",
    "StructureRequest",
    "StructureResponse",
    "ChildrenRequest",
    "ChildrenResponse",
    "EvaluateRequest",
    "EvaluateResponse",
    "FrontierRequest",
    "FrontierResponse",
    "FetchPolynomialsRequest",
    "FetchPolynomialsResponse",
    "FetchConstantsRequest",
    "FetchConstantsResponse",
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
SUPPORTED_PROTOCOL_VERSIONS = (1, 2, 3, 4)

#: First generation whose frontier requests ask for packed payloads.
PACKED_FRONTIER_VERSION = 4

#: Most values one packed payload may announce, summed over its blobs.  A
#: JSON frame spends at least one byte per value, so no v1–v3 frame can
#: carry more.  Checked from each blob's header before the blob is
#: decoded, the cap keeps a few bytes of width-0 blob from announcing a
#: giant vector.
MAX_PACKED_VALUES = MAX_FRAME_BYTES


def _int_keyed(mapping: Dict[Any, Any]) -> Dict[int, Any]:
    return {int(k): v for k, v in mapping.items()}


# A decoded JSON value is an int, float, str, bool, None, list or dict, and
# bool is a subclass of int: request fields are checked by exact type, so
# 0.0, true or "0" never stand in for a node id, a point or a depth.

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


def _bool_field(body: Dict[str, Any], field: str, default: bool) -> bool:
    value = body.get(field, default)
    if type(value) is not bool:
        raise ProtocolError(
            f"field {field!r} must be true or false, not {value!r:.40}")
    return value


class Message:
    """Base class of all protocol messages."""

    #: Short type tag used on the wire; subclasses override it.
    kind = "message"

    #: Which hosted document the message addresses; ``None`` means the
    #: server's default document (and keeps the v1 wire encoding intact).
    document_id: Optional[str] = None

    #: Optional idempotency key (see the module docstring); ``None`` keeps
    #: the historical wire encoding byte-identical.
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
    exists, saving the follow-up structure round trip of the v1 protocol.
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
        return cls(body["version"], body.get("documents", ()),
                   body.get("root_id"), body.get("node_count"))


class StructureRequest(Message):
    """Ask for the public summary of the stored tree (root id, node count)."""

    kind = "structure"


class StructureResponse(Message):
    """Summary of the stored tree."""

    kind = "structure-ok"

    def __init__(self, root_id: int, node_count: int) -> None:
        self.root_id = root_id
        self.node_count = node_count

    def payload(self) -> Dict[str, Any]:
        return {"root_id": self.root_id, "node_count": self.node_count}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "StructureResponse":
        return cls(body["root_id"], body["node_count"])


class ChildrenRequest(Message):
    """Ask for the child lists of a batch of nodes (public structure)."""

    kind = "children"

    def __init__(self, node_ids: Sequence[int]) -> None:
        self.node_ids = list(node_ids)

    def payload(self) -> Dict[str, Any]:
        return {"node_ids": self.node_ids}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "ChildrenRequest":
        return cls(_int_list_field(body, "node_ids"))


class ChildrenResponse(Message):
    """Child lists keyed by node id."""

    kind = "children-ok"

    def __init__(self, children: Dict[int, List[int]]) -> None:
        self.children = {int(k): list(v) for k, v in children.items()}

    def payload(self) -> Dict[str, Any]:
        return {"children": {str(k): v for k, v in self.children.items()}}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "ChildrenResponse":
        return cls(_int_keyed(body["children"]))


class EvaluateRequest(Message):
    """Ask the server to evaluate its shares of ``node_ids`` at ``point`` (§4.3)."""

    kind = "evaluate"

    def __init__(self, node_ids: Sequence[int], point: int) -> None:
        self.node_ids = list(node_ids)
        self.point = int(point)

    def payload(self) -> Dict[str, Any]:
        return {"node_ids": self.node_ids, "point": self.point}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "EvaluateRequest":
        return cls(_int_list_field(body, "node_ids"), _int_field(body, "point"))


class EvaluateResponse(Message):
    """Per-node evaluation values of the server's shares."""

    kind = "evaluate-ok"

    def __init__(self, values: Dict[int, int]) -> None:
        self.values = {int(k): int(v) for k, v in values.items()}

    def payload(self) -> Dict[str, Any]:
        return {"values": {str(k): v for k, v in self.values.items()}}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "EvaluateResponse":
        return cls(_int_keyed(body["values"]))


class FrontierRequest(Message):
    """One whole descent round in a single exchange (protocol v2).

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
      client never pays a children round trip before verifying;
    * ``packed`` (v4) — answer with packed payloads (see
      :class:`FrontierResponse`); encoded only when true, so v2/v3
      request bytes are unchanged.
    """

    kind = "frontier"

    def __init__(self, node_ids: Sequence[int] = (), points: Sequence[int] = (),
                 prune: Sequence[int] = (), include_children: bool = True,
                 fetch_polynomials: Sequence[int] = (),
                 fetch_constants: Sequence[int] = (),
                 lookahead: int = 0, packed: bool = False) -> None:
        self.node_ids = list(node_ids)
        self.points = [int(p) for p in points]
        self.prune = list(prune)
        self.include_children = bool(include_children)
        self.fetch_polynomials = list(fetch_polynomials)
        self.fetch_constants = list(fetch_constants)
        self.lookahead = int(lookahead)
        self.packed = bool(packed)

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"node_ids": self.node_ids, "points": self.points,
                                "children": self.include_children}
        if self.prune:
            body["prune"] = self.prune
        if self.fetch_polynomials:
            body["fetch_polynomials"] = self.fetch_polynomials
        if self.fetch_constants:
            body["fetch_constants"] = self.fetch_constants
        if self.lookahead:
            body["lookahead"] = self.lookahead
        if self.packed:
            body["packed"] = True
        return body

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "FrontierRequest":
        return cls(_int_list_field(body, "node_ids"),
                   _int_list_field(body, "points"),
                   _int_list_field(body, "prune", required=False),
                   _bool_field(body, "children", True),
                   _int_list_field(body, "fetch_polynomials", required=False),
                   _int_list_field(body, "fetch_constants", required=False),
                   _int_field(body, "lookahead", 0),
                   _bool_field(body, "packed", False))


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
    """Everything a descent round needs, in one message (protocol v2).

    The JSON form (v2/v3) carries decimal int maps.  The packed form (v4,
    ``packed=True``) carries one object under ``"packed"`` whose sections
    are base64 :mod:`repro.net.pages` limb blobs, in canonical order —
    node ids ascending, each once; child lists in stored sibling order —
    so equal responses encode to equal bytes:

    * ``evaluations``: ``ids`` (the expanded frontier, shared by every
      point) and ``values``, one blob per point;
    * ``children``: ``parents``, ``counts`` and the concatenated ``ids``;
    * ``polynomials``: ``ids``, the row ``width`` and one row-major
      ``rows`` blob;
    * ``constants``: ``ids`` and ``values``.

    Empty sections are left out.  Both forms decode to the same
    attributes; packed share rows decode to one
    :class:`~repro.core.query.CoefficientRows` block.  Decoding validates:
    malformed base64, a corrupt blob, a count that does not match its ids,
    negative or repeated ids and blobs announcing more than
    :data:`MAX_PACKED_VALUES` values in all raise :class:`ProtocolError`.
    """

    kind = "frontier-ok"

    def __init__(self, evaluations: Dict[int, Dict[int, int]],
                 children: Dict[int, List[int]],
                 polynomials: Optional[Mapping[int, Sequence[int]]] = None,
                 constants: Optional[Dict[int, int]] = None,
                 packed: bool = False) -> None:
        #: ``point -> node_id -> server share evaluation``.
        self.evaluations = evaluations
        self.children = children
        self.polynomials = {} if polynomials is None else polynomials
        self.constants = {} if constants is None else constants
        #: Encode the packed (v4) form.
        self.packed = bool(packed)

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
        if self.packed:
            return {"packed": self._packed_sections()}
        body: Dict[str, Any] = {
            "evaluations": {str(point): {str(k): v for k, v in values.items()}
                            for point, values in self.evaluations.items()},
            "children": {str(k): v for k, v in self.children.items()},
        }
        if self.polynomials:
            body["polynomials"] = {str(k): v for k, v in self.polynomials.items()}
        if self.constants:
            body["constants"] = {str(k): v for k, v in self.constants.items()}
        return body

    def _packed_sections(self) -> Dict[str, Any]:
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
        return sections

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "FrontierResponse":
        if "packed" in body:
            sections = body["packed"]
            if not isinstance(sections, dict):
                raise ProtocolError("packed frontier payload is not an object")
            return cls._from_packed(sections)
        return cls({int(point): {int(k): int(v) for k, v in values.items()}
                    for point, values in body["evaluations"].items()},
                   {int(k): list(v) for k, v in body["children"].items()},
                   {int(k): [int(c) for c in v]
                    for k, v in body.get("polynomials", {}).items()},
                   {int(k): int(v)
                    for k, v in body.get("constants", {}).items()})

    @classmethod
    def _from_packed(cls, sections: Dict[str, Any]) -> "FrontierResponse":
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
        return cls(evaluations, children, polynomials, constants, packed=True)


class FetchPolynomialsRequest(Message):
    """Ask for the full share polynomials of a batch of nodes (verification)."""

    kind = "fetch-polynomials"

    def __init__(self, node_ids: Sequence[int]) -> None:
        self.node_ids = list(node_ids)

    def payload(self) -> Dict[str, Any]:
        return {"node_ids": self.node_ids}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "FetchPolynomialsRequest":
        return cls(_int_list_field(body, "node_ids"))


class FetchPolynomialsResponse(Message):
    """Coefficient vectors of the requested share polynomials."""

    kind = "fetch-polynomials-ok"

    def __init__(self, coefficients: Dict[int, List[int]]) -> None:
        self.coefficients = {int(k): [int(c) for c in v]
                             for k, v in coefficients.items()}

    def payload(self) -> Dict[str, Any]:
        return {"coefficients": {str(k): v for k, v in self.coefficients.items()}}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "FetchPolynomialsResponse":
        return cls(_int_keyed(body["coefficients"]))


class FetchConstantsRequest(Message):
    """Ask only for constant coefficients (trusted-server mode, §4.3)."""

    kind = "fetch-constants"

    def __init__(self, node_ids: Sequence[int]) -> None:
        self.node_ids = list(node_ids)

    def payload(self) -> Dict[str, Any]:
        return {"node_ids": self.node_ids}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "FetchConstantsRequest":
        return cls(_int_list_field(body, "node_ids"))


class FetchConstantsResponse(Message):
    """Constant coefficients keyed by node id."""

    kind = "fetch-constants-ok"

    def __init__(self, constants: Dict[int, int]) -> None:
        self.constants = {int(k): int(v) for k, v in constants.items()}

    def payload(self) -> Dict[str, Any]:
        return {"constants": {str(k): v for k, v in self.constants.items()}}

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "FetchConstantsResponse":
        return cls(_int_keyed(body["constants"]))


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
    """Apply one mutation batch to the hosted document (v3).

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
        base = body["base"]
        if type(base) is not dict:
            raise ProtocolError("field 'base' must map node ids to versions")
        _require_ints(list(base.values()), "base")
        return cls(body["operation"], ops, _int_keyed(base))


class UpdateResponse(Message):
    """The batch committed; carries the new per-node versions (v3).

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
        return cls(_int_keyed(body["versions"]), body["applied"])


class ConflictResponse(Message):
    """The batch was rejected: its base versions are stale (v3).

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
        return cls(body["conflicts"], _int_keyed(body["versions"]))


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
        #: session; absent from the encoding when False (v2-compatible).
        self.retryable = bool(retryable)

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.error}
        if self.retryable:
            body["retryable"] = True
        return body

    @classmethod
    def from_payload(cls, body: Dict[str, Any]) -> "ErrorResponse":
        return cls(body["error"], body.get("retryable", False))


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
        return cls(body.get("retry_after_s", 0.0))


class StatsRequest(Message):
    """Ask the server for its operational metrics (v3, hello-exempt).

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
    """Liveness/readiness probe (v3, hello- and admission-exempt)."""

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
        HelloRequest, HelloResponse, StructureRequest, StructureResponse,
        ChildrenRequest, ChildrenResponse, EvaluateRequest, EvaluateResponse,
        FrontierRequest, FrontierResponse, FetchPolynomialsRequest,
        FetchPolynomialsResponse, FetchConstantsRequest, FetchConstantsResponse,
        PruneNotice, UpdateRequest, UpdateResponse, ConflictResponse,
        Acknowledgement, ErrorResponse, BusyResponse,
        StatsRequest, StatsResponse, HealthRequest, HealthResponse,
        BlobRequest, BlobResponse,
    )
}


#: The kinds a client sends; servers decode no other kind.
REQUEST_KINDS = frozenset(cls.kind for cls in (
    HelloRequest, StructureRequest, ChildrenRequest, EvaluateRequest,
    FrontierRequest, FetchPolynomialsRequest, FetchConstantsRequest,
    PruneNotice, UpdateRequest, StatsRequest, HealthRequest, BlobRequest,
))


def decode_message(data: bytes,
                   kinds: Optional[AbstractSet[str]] = None) -> Message:
    """Parse a wire encoding back into a message object.

    ``kinds``, when given, lists the kinds the caller accepts: a message of
    any other kind is refused before its body is decoded.  Servers pass
    :data:`REQUEST_KINDS`, so a client cannot make them decode a response.
    """
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
