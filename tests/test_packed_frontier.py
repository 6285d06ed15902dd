"""Packed frontier payloads: codec, compatibility, untrusted input.

Protocol v6 carries every numeric section of a ``frontier-ok`` and every
id list of a ``frontier`` or ``prune`` as a raw :mod:`repro.net.pages`
limb blob in the message's binary tail, after the JSON head and a
newline.  A ``frontier-ok`` names no node: its sections are positional,
in the orders :func:`~repro.net.messages.frontier_layout` derives from
the request.  These tests pin

* the codec: packed payloads, bound to their requests, decode to the
  evaluations, child lists, share rows and constants the server
  produced, on ``F_p`` and ``Z``-ring trees (negative and
  wider-than-64-bit coefficients), with empty sections, several points
  and constants-only fetches;
* binding: over random trees and requests, the ids a client binds equal
  the server's expansion and closure, and a section one entry short or
  long raises :class:`~repro.errors.ProtocolError` naming it;
* compatibility: golden frames of lookups, an XPath and an update batch,
  the content they decode to and the server's ledger after each session
  (answers against the plaintext baseline over every path are
  ``tests/test_oracle.py``'s);
* untrusted input: every tampered head or tail and every omitted node
  raises :class:`~repro.errors.ProtocolError`, never a ``KeyError`` or a
  wrong answer;
* the reference codec: a socket lookup with numpy disabled.
"""

import json
import os
import socket
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import FpQuotientRing
from repro.baselines import PlaintextSearchIndex
from repro.core import (
    AdvancedQueryExecutor,
    VerificationMode,
    choose_int_ring,
    outsource_document,
)
from repro.errors import ProtocolError
from repro.net import (
    InstrumentedChannel,
    RemoteUpdatableTree,
    SearchServer,
    ThreadedSearchServer,
    connect,
)
from repro.core.share_tree import CoefficientRows, ServerShareTree
from repro.net.client import RemoteServerAdapter
from repro.net import messages
from repro.net.framing import FrameAssembler, encode_frame
from repro.net.messages import (
    MAX_LOOKAHEAD,
    MAX_PACKED_VALUES,
    ErrorResponse,
    FrontierRequest,
    FrontierResponse,
    HealthRequest,
    decode_message,
)
from repro.net.pages import (
    blob_extent,
    decode_coefficients,
    encode_coefficients,
)
from repro.workloads import RandomXmlConfig, figure1_document, generate_random_document
from repro.xmltree import parse_element

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(scope="module")
def fp_outsourced():
    document = figure1_document(clients=6)
    client, tree, _ = outsource_document(document, seed=b"packed-fp")
    return document, client, tree


@pytest.fixture(scope="module")
def z_outsourced():
    """A Z-ring tree whose shares hold negative and >64-bit coefficients."""
    document = generate_random_document(
        RandomXmlConfig(element_count=40, tag_vocabulary_size=6, seed=3))
    client, tree, _ = outsource_document(
        document, ring=choose_int_ring(2, random_bound=2 ** 80), seed=b"packed-z")
    return document, client, tree


def served_requests(tree):
    """Frontier requests covering every section, empty ones included."""
    root = tree.root_id
    children = tree.child_ids(root)
    leaves = [node_id for node_id in tree.node_ids()
              if not tree.child_ids(node_id)]
    return [
        FrontierRequest([root], [3]),
        FrontierRequest(children, [3, 4, 5], lookahead=1),
        FrontierRequest([root], [4], lookahead=2, fetch_polynomials=[root]),
        FrontierRequest(children[:1], [3], include_children=False,
                        fetch_constants=children[:2]),
        FrontierRequest([], [], include_children=True, fetch_constants=children),
        FrontierRequest([], [], include_children=False,
                        fetch_polynomials=tree.node_ids()),
        FrontierRequest(children, [3], include_children=True,
                        fetch_polynomials=children, fetch_constants=[root]),
        FrontierRequest(leaves[:3], [4]),
        FrontierRequest([], [], include_children=False),
    ]


def sections(response, request):
    """A response's data, bound to its request, as plain dicts and lists."""
    bound = response.bind(request)
    return (bound.evaluations, bound.children,
            {node_id: list(row) for node_id, row in bound.rows.items()},
            bound.constants)


def split_frame(frame):
    """``(head, blobs)``: the parsed JSON head and the tail's blobs."""
    head, _, tail = frame.partition(b"\n")
    blobs, offset = [], 0
    while offset < len(tail):
        end = blob_extent(tail, offset)[3]
        blobs.append(tail[offset:end])
        offset = end
    return json.loads(head), blobs


def join_frame(head, blobs):
    """Inverse of :func:`split_frame` (the head re-serialised compactly)."""
    encoded = json.dumps(head, separators=(",", ":")).encode()
    return encoded + b"\n" + b"".join(blobs) if blobs else encoded


class TestPackedCodec:
    @pytest.mark.parametrize("ring", ["fp", "z"])
    def test_packed_decodes_to_the_served_data(self, ring, fp_outsourced,
                                               z_outsourced):
        _, _, tree = fp_outsourced if ring == "fp" else z_outsourced
        server = SearchServer(tree)
        for request in served_requests(tree):
            served = server.handle(request)
            packed = decode_message(served.encode())
            assert sections(packed, request) == sections(served, request)
            bound = packed.bind(request)
            assert all(type(value) is int
                       for values in bound.evaluations.values()
                       for value in values.values())
            assert all(type(c) is int for row in bound.rows.values()
                       for c in row)

    def test_z_ring_tree_exercises_wide_and_negative_rows(self, z_outsourced):
        _, _, tree = z_outsourced
        coefficients = [c for node_id in tree.node_ids()
                        for c in tree.share_of(node_id).coeffs]
        assert min(coefficients) < 0
        assert max(abs(c) for c in coefficients).bit_length() > 64

    def test_the_answer_follows_the_request_order(self, fp_outsourced):
        """An answer's sections follow its request's orders and points
        ascend: two orders of one request bind to the same content, and
        one request always gets the same bytes."""
        _, _, tree = fp_outsourced
        root = tree.root_id
        children = tree.child_ids(root)
        forward = FrontierRequest(children, [4, 3], lookahead=1,
                                  fetch_polynomials=children)
        backward = FrontierRequest(children[::-1], [3, 4], lookahead=1,
                                   fetch_polynomials=children[::-1])
        server = SearchServer(tree)
        assert server.handle(forward).encode() != server.handle(backward).encode()
        assert server.handle(forward).encode() == server.handle(forward).encode()
        assert sections(server.handle(forward), forward) \
            == sections(server.handle(backward), backward)
        assert server.handle(forward).points == [3, 4]

    def test_request_id_lists_travel_in_the_tail(self):
        encoded = FrontierRequest([1, 2], [3], prune=[7]).encode()
        head, blobs = split_frame(encoded)
        assert head == {"children": True, "kind": "frontier", "points": [3],
                        "sections": ["node_ids", "prune"]}
        assert [decode_coefficients(blob) for blob in blobs] == [[1, 2], [7]]
        decoded = decode_message(encoded)
        assert (decoded.node_ids, decoded.prune) == ([1, 2], [7])

    @pytest.mark.parametrize("body", [
        b'{"kind":"frontier","node_ids":[1],"points":[3]}',
        b'{"kind":"frontier","node_ids":[1],"points":[3],"packed":false}',
        b'{"kind":"frontier","node_ids":[1],"points":[3],"packed":true}',
        b'{"kind":"prune","node_ids":[1]}',
    ], ids=["unflagged", "packed-false", "packed-true", "prune"])
    def test_v4_request_forms_are_refused(self, body):
        with pytest.raises(ProtocolError, match="unexpected field"):
            decode_message(body)

    def test_a_nested_descendant_query_walks_each_node_once(self,
                                                            monkeypatch):
        """``//tag2//tag0`` here descends from the children of nested
        ``tag2`` nodes.  The descent walks the subtrees below the inner
        ones once: no node enters two of its frontiers, no prune list
        repeats an id, and the answer is the plaintext one.  (The server
        still accepts repeated prune ids; the ``prune`` and ``frontier``
        properties in ``tests/test_properties_protocol.py`` send them.)
        The two anchor steps' Theorem-1/2 closures overlap, and no share
        row is served twice in the query."""
        document = generate_random_document(RandomXmlConfig(
            element_count=20, tag_vocabulary_size=3, max_depth=8, seed=0))
        assert any(ancestor.tag == "tag2"
                   for element in document.find_all("tag2")
                   for ancestor in element.ancestors())
        client, tree, _ = outsource_document(document, seed=b"nested-prunes")
        server = SearchServer(tree)
        requests = []
        served_rows = []

        def handler(message):
            requests.append(message)
            response = server.handle(message)
            if isinstance(response, FrontierResponse):
                served_rows.extend(response.bind(message).rows)
            return response

        engine = client.engine(
            RemoteServerAdapter(InstrumentedChannel(handler), tree.ring))
        descents = []     # per descent, the node ids of each client frontier
        descend = engine._descend
        evaluate_points = engine.client_shares.evaluate_points

        def recording_descend(*args, **kwargs):
            descents.append([])
            return descend(*args, **kwargs)

        def recording_evaluate_points(node_ids, points):
            descents[-1].extend(node_ids)
            return evaluate_points(node_ids, points)

        monkeypatch.setattr(engine, "_descend", recording_descend)
        monkeypatch.setattr(engine.client_shares, "evaluate_points",
                            recording_evaluate_points)
        result = AdvancedQueryExecutor(engine).execute("//tag2//tag0")
        assert result.matches == PlaintextSearchIndex(document).query(
            "//tag2//tag0").matches
        assert len(descents) == 2
        assert all(len(entered) == len(set(entered)) for entered in descents)
        prunes = [request.prune if request.kind == "frontier"
                  else request.node_ids
                  for request in requests if request.kind in ("frontier",
                                                              "prune")]
        assert any(prunes)
        assert all(len(ids) == len(set(ids)) for ids in prunes)
        assert served_rows and len(served_rows) == len(set(served_rows))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_message_round_trip(self, data):
        values = st.integers(min_value=-(2 ** 90), max_value=2 ** 90)
        points = data.draw(st.lists(st.integers(min_value=1, max_value=99),
                                    unique=True, max_size=3).map(sorted))
        length = data.draw(st.integers(min_value=1, max_value=12))
        vectors = [data.draw(st.lists(values, min_size=length,
                                      max_size=length)) for _ in points]
        counts = data.draw(st.lists(st.integers(min_value=0, max_value=5),
                                    max_size=6))
        child_ids = data.draw(st.lists(
            st.integers(min_value=0, max_value=10 ** 6),
            min_size=sum(counts), max_size=sum(counts)))
        width = data.draw(st.integers(min_value=1, max_value=6))
        rows = data.draw(st.lists(st.lists(values, min_size=width,
                                           max_size=width), max_size=5))
        constants = data.draw(st.lists(values, max_size=6))
        block = (CoefficientRows(range(len(rows)), width, rows=rows)
                 if rows else None)
        packed = decode_message(FrontierResponse(
            points, vectors, counts, child_ids, block, constants).encode())
        assert (packed.points, packed.values, list(packed.child_counts),
                list(packed.child_ids), list(packed.constants)) == (
            points, vectors, counts if counts else [],
            child_ids if counts else [], constants)
        assert [packed.rows[index] for index in range(len(rows))] == rows \
            if rows else packed.rows is None


def random_tree(draw):
    """A share tree over ``F_7[x]/(x^6 - 1)`` of random shape and shares."""
    ring = FpQuotientRing(7)
    size = draw(st.integers(min_value=1, max_value=24))
    tree = ServerShareTree(ring)
    for node_id in range(size):
        parent = (None if node_id == 0 else
                  draw(st.integers(min_value=0, max_value=node_id - 1)))
        coefficients = draw(st.lists(st.integers(min_value=0, max_value=6),
                                     max_size=ring.degree_bound))
        tree.add_node(node_id, parent, ring.from_coefficients(coefficients))
    return tree


def related_ids(draw, tree):
    """Distinct node ids in a random order, often a node beside its
    parent (the held-node rule) or a child beside its parent's siblings."""
    size = tree.node_count()
    ids = draw(st.lists(st.integers(min_value=0, max_value=size - 1),
                        unique=True, max_size=min(size, 6)))
    if size > 1 and draw(st.booleans()):
        node_id = draw(st.integers(min_value=1, max_value=size - 1))
        ids = list(dict.fromkeys(ids + [node_id, tree.parent_id(node_id)]))
    return draw(st.permutations(ids))


@st.composite
def served_frontiers(draw):
    """A random tree, a request to its server, and the decoded answer."""
    tree = random_tree(draw)
    children = draw(st.booleans())
    request = FrontierRequest(
        related_ids(draw, tree),
        draw(st.lists(st.integers(min_value=1, max_value=6), unique=True,
                      max_size=3)),
        include_children=children,
        fetch_polynomials=related_ids(draw, tree),
        fetch_constants=related_ids(draw, tree),
        lookahead=draw(st.integers(min_value=0, max_value=MAX_LOOKAHEAD))
        if children else 0)
    response = decode_message(SearchServer(tree).handle(request).encode())
    return tree, request, response


def expected_answer(tree, request):
    """The answer's ids by the v5 engine's rules, computed on sets."""
    expansion = list(request.node_ids)
    listed = []
    if request.include_children:
        held, level = set(expansion), list(expansion)
        for _ in range(request.lookahead):
            level = [child for node_id in level
                     for child in tree.child_ids(node_id) if child not in held]
            held.update(level)
            expansion += level
        listed = set(expansion) | set(request.fetch_polynomials) \
            | set(request.fetch_constants)

    def fetched(node_ids):
        if not request.include_children:
            return set(node_ids)
        return set(node_ids).union(*[tree.child_ids(node_id)
                                     for node_id in node_ids])

    return (expansion, {node_id: tree.child_ids(node_id) for node_id in listed},
            fetched(request.fetch_polynomials), fetched(request.fetch_constants))


def one_entry_off(response, width):
    """``(section, response)`` for each section one entry short or long."""
    def changed(**fields):
        current = dict(points=response.points, values=response.values,
                       child_counts=list(response.child_counts),
                       child_ids=list(response.child_ids), rows=response.rows,
                       constants=list(response.constants))
        current.update(fields)
        return FrontierResponse(**current)

    counts, child_ids = list(response.child_counts), list(response.child_ids)
    rows = [] if response.rows is None else [response.rows[index] for index
                                             in range(len(response.rows))]
    if response.points:
        yield "evaluations", changed(values=[values + [0] for values
                                             in response.values])
        yield "evaluations", changed(values=[values[:-1] for values
                                             in response.values])
    yield "child counts", changed(child_counts=counts + [0])
    if counts:
        yield "child ids", changed(child_ids=child_ids + [0])
        yield "child counts", changed(
            child_counts=counts[:-1],
            child_ids=child_ids[:len(child_ids) - counts[-1]])
    if child_ids:
        yield "child ids", changed(child_ids=child_ids[:-1])
    for block in (rows + [[0] * width], rows[:-1]):
        if block != rows:
            yield "share rows", changed(rows=CoefficientRows(
                range(len(block)), width, rows=block))
    yield "constants", changed(constants=list(response.constants) + [0])
    if response.constants:
        yield "constants", changed(constants=list(response.constants)[:-1])


class TestBinding:
    @settings(max_examples=80, deadline=None)
    @given(served_frontiers())
    def test_the_bound_ids_are_the_servers_expansion_and_closure(self, served):
        tree, request, response = served
        bound = response.bind(request)
        expansion, listed, rows, constants = expected_answer(tree, request)
        assert sorted(bound.evaluations) == sorted(request.points)
        for point, values in bound.evaluations.items():
            assert list(values) == expansion
            assert values == tree.evaluate_many(expansion, point)
        assert bound.children == listed
        assert {node_id: list(row) for node_id, row
                in bound.rows.items()} == {
            node_id: tree.coefficient_rows([node_id])[node_id]
            for node_id in rows}
        assert bound.constants == {
            node_id: tree.share_of(node_id).constant_term
            for node_id in constants}

    @settings(max_examples=40, deadline=None)
    @given(served_frontiers())
    def test_a_section_one_entry_off_is_refused_by_name(self, served):
        tree, request, response = served
        for section, changed in one_entry_off(response, tree.ring.degree_bound):
            with pytest.raises(ProtocolError, match=section):
                decode_message(changed.encode()).bind(request)


def packed_frame(tree):
    """A valid frontier-ok with all four sections, its request, and the
    frame split into head and blobs.

    Blobs: 0-1 values at points 3 and 4, 2 child counts, 3 child ids,
    4 share rows, 5 constants.
    """
    root = tree.root_id
    children = tree.child_ids(root)
    request = FrontierRequest(children, [3, 4], lookahead=1,
                              fetch_polynomials=[root], fetch_constants=children)
    return (request,) + split_frame(SearchServer(tree).handle(request).encode())


def blob(values):
    """A narrowest-width blob, as the pages codec writes for share rows."""
    return encode_coefficients(values)


def values_of(index, change):
    """Replace blob ``index`` by a blob of ``change(its values)``."""
    def apply(head, blobs):
        blobs[index] = blob(change(decode_coefficients(blobs[index])))
    return apply


def replace_blob(index, new):
    def apply(head, blobs):
        blobs[index] = new
    return apply


def set_field(field, value):
    def apply(head, blobs):
        head[field] = value(head[field]) if callable(value) else value
    return apply


def _stray_bits():
    stray = bytearray(blob([1, 1, 1]))
    stray[-1] |= 0x80
    return bytes(stray)


def _flip_version(head, blobs):
    rows = bytearray(blobs[4])
    rows[0] ^= 0x7F
    blobs[4] = bytes(rows)


def _drop_a_byte(head, blobs):
    blobs[4] = blobs[4][:-1]


def _truncate_tail(head, blobs):
    blobs[-1] = blobs[-1][:-1]


def _drop_the_constants(head, blobs):
    del blobs[5:]                 # the head still names "constants"


def _row_width_beyond_the_cap(head, blobs):
    head["width"] = MAX_PACKED_VALUES + 1
    blobs[4] = blob([])


#: Tampered frames that decoding, or binding to their request, refuses.
TAMPERINGS = {
    "tail truncated": _truncate_tail,
    "sections not a list": set_field("sections", 17),
    "header": _flip_version,
    "length": _drop_a_byte,
    "stray bits": replace_blob(0, _stray_bits()),
    "values at one point vs another": values_of(1, lambda values: values[:-1]),
    "values vs the expansion": lambda head, blobs: [
        values_of(index, lambda values: values + [1])(head, blobs)
        for index in (0, 1)],
    "child counts vs child ids": values_of(
        2, lambda counts: [count + 1 for count in counts]),
    "child ids vs child counts": values_of(3, lambda ids: ids[:-1]),
    "child counts vs the layout": values_of(2, lambda counts: counts + [0]),
    "rows vs width": set_field("width", lambda width: width + 1),
    "rows vs the closure": set_field("width", lambda width: width * 7),
    "constants vs the closure": values_of(5, lambda values: values + [1]),
    "negative child count": values_of(2, lambda counts: [-1] + counts[1:]),
    "negative child id": values_of(3, lambda ids: [-5] + ids[1:]),
    "width not an int": set_field("width", "52"),
    "width zero": set_field("width", 0),
    "unknown section": set_field("sections",
                                 lambda names: names[:1] + ["rows"] + names[1:]),
    "points not a list": set_field("points", ["x"]),
    "points vs the request": set_field("points", [3, 5]),
    "sections out of order": set_field("sections", lambda names: names[::-1]),
    # Ten bytes of width-0 blob announcing 2^32 - 1 values.
    "count beyond the cap": replace_blob(0, bytes.fromhex("0100 00000000 ffffffff")),
    "row width beyond the cap": _row_width_beyond_the_cap,
    "bytes after the last section": lambda head, blobs: blobs.append(blob([1])),
    "a section the tail lacks": _drop_the_constants,
    "fewer sections named than sent": set_field(
        "sections", lambda names: names[:-1]),
    "points repeat": set_field("points", lambda points: points[:1] * 2),
    "v4 packed field": set_field("packed", {}),
}


def recv_frame(sock):
    assembler = FrameAssembler()
    while True:
        chunk = sock.recv(65536)
        assert chunk, "the server closed the session without an answer"
        payloads = assembler.feed(chunk)
        if payloads:
            return payloads[0]


class TestTamperedPayloads:
    def test_untampered_frame_decodes(self, fp_outsourced):
        request, head, blobs = packed_frame(fp_outsourced[2])
        assert head["sections"] == ["evaluations", "children",
                                    "polynomials", "constants"]
        assert len(blobs) == 6
        bound = decode_message(join_frame(head, blobs)).bind(request)
        assert bound.evaluations and bound.children
        assert bound.rows and bound.constants

    @pytest.mark.parametrize("case", sorted(TAMPERINGS))
    def test_tampered_payload_raises_protocol_error(self, case, fp_outsourced):
        request, head, blobs = packed_frame(fp_outsourced[2])
        TAMPERINGS[case](head, blobs)
        with pytest.raises(ProtocolError):
            decode_message(join_frame(head, blobs)).bind(request)

    @pytest.mark.parametrize("frame", [
        b'{"kind":"hello","versions":[6]}\n' + blob([1]),
        b'{"kind":"ack"}\n',
        b'{"kind":"frontier-ok"}\n' + blob([1]),
        b'{"kind":"prune"}\n',
    ], ids=["hello", "ack", "frontier-ok", "prune"])
    def test_a_tail_the_head_does_not_name_is_refused(self, frame):
        with pytest.raises(ProtocolError, match="tail"):
            decode_message(frame)

    def test_announced_counts_share_one_budget(self, fp_outsourced, monkeypatch):
        _, head, blobs = packed_frame(fp_outsourced[2])
        total = sum(blob_extent(data)[2] for data in blobs)
        encoded = join_frame(head, blobs)
        monkeypatch.setattr(messages, "MAX_PACKED_VALUES", total)
        assert decode_message(encoded).rows
        monkeypatch.setattr(messages, "MAX_PACKED_VALUES", total - 1)
        with pytest.raises(ProtocolError, match="announces more than"):
            decode_message(encoded)

    def test_announced_counts_are_bounded_by_the_frame_size(self):
        """A zero-width blob costs ten bytes whatever count it announces,
        so a message may announce at most eight values per byte of it."""
        def frame(count):
            return join_frame({"kind": "frontier-ok", "sections": ["children"]},
                              [blob([count]), blob([0] * count)])

        assert decode_message(frame(100)).child_ids == [0] * 100
        assert messages.VALUES_PER_MESSAGE_BYTE * len(frame(1000)) < 1000
        with pytest.raises(ProtocolError, match="announces more than"):
            decode_message(frame(1000))

    def test_server_refuses_response_kinds_before_decoding(self,
                                                           fp_outsourced):
        attack = (b'{"kind":"frontier-ok","points":[3],'
                  b'"sections":["evaluations"]}\n'
                  + bytes.fromhex("0100 00000000 ffffffff"))
        transport = ThreadedSearchServer(SearchServer(fp_outsourced[2])).start()
        try:
            with socket.create_connection(transport.address, timeout=30) as sock:
                sock.sendall(encode_frame(attack))
                refusal = decode_message(recv_frame(sock))
                sock.sendall(encode_frame(HealthRequest().encode()))
                health = decode_message(recv_frame(sock))
        finally:
            transport.stop()
        assert isinstance(refusal, ErrorResponse)
        assert "unexpected 'frontier-ok' message" in refusal.error
        assert health.status == "ok"


#: The protocol v6 frames of four sessions on ``figure1_document(clients=2)``
#: outsourced with seed ``b"golden-frames"``, each hello exchange left
#: out: a FULL and a CONSTANT_ONLY lookup of ``client``, the XPath
#: ``/customers/client/name``, and one update batch (``<name/>`` inserted
#: under node 3, once the editor has mirrored the structure).  Each line
#: of a tail is one blob, starting with its 10-byte header.  These
#: encodings must not move within a wire generation; the requests are
#: v5's byte for byte, and the answers lost v5's id blobs.  Share values
#: (evaluations, rows, constants, update coefficients) follow the client
#: share derivation and were re-recorded for ``shake256-xof-v3``.
GOLDEN_FRAMES = {
    "constant-only": [
        (b'{"children":true,"kind":"frontier","lookahead":1,"points":[1],'
         b'"sections":["node_ids"]}\n'
         b'\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00',
         b'{"kind":"frontier-ok","points":[1],"sections":["evaluations",'
         b'"children"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x03\x00\x00\x00\x03\x03\x04'
         b'\x01\x00\x08\x00\x00\x00\x03\x00\x00\x00\x02\x01\x01'
         b'\x01\x00\x08\x00\x00\x00\x04\x00\x00\x00\x01\x03\x02\x04'),
        (b'{"children":true,"kind":"frontier","lookahead":1,"points":[1],'
         b'"sections":["node_ids"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x02\x04',
         b'{"kind":"frontier-ok","points":[1],"sections":["evaluations",'
         b'"children"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x04\x01'
         b'\x01\x00\x00\x00\x00\x00\x02\x00\x00\x00'
         b'\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00'),
        (b'{"children":false,"kind":"frontier","points":[],'
         b'"sections":["prune","fetch_constants"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x02\x04'
         b'\x01\x00\x08\x00\x00\x00\x03\x00\x00\x00\x00\x01\x03',
         b'{"kind":"frontier-ok","sections":["constants"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x03\x00\x00\x00\x00\x00\x01'),
    ],
    "full": [
        (b'{"children":true,"kind":"frontier","lookahead":1,"points":[1],'
         b'"sections":["node_ids"]}\n'
         b'\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00',
         b'{"kind":"frontier-ok","points":[1],"sections":["evaluations",'
         b'"children"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x03\x00\x00\x00\x03\x03\x04'
         b'\x01\x00\x08\x00\x00\x00\x03\x00\x00\x00\x02\x01\x01'
         b'\x01\x00\x08\x00\x00\x00\x04\x00\x00\x00\x01\x03\x02\x04'),
        (b'{"children":true,"kind":"frontier","lookahead":1,"points":[1],'
         b'"sections":["node_ids"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x02\x04',
         b'{"kind":"frontier-ok","points":[1],"sections":["evaluations",'
         b'"children"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x04\x01'
         b'\x01\x00\x00\x00\x00\x00\x02\x00\x00\x00'
         b'\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00'),
        (b'{"children":false,"kind":"frontier","points":[],'
         b'"sections":["prune","fetch_polynomials"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x02\x04'
         b'\x01\x00\x08\x00\x00\x00\x03\x00\x00\x00\x00\x01\x03',
         b'{"kind":"frontier-ok","sections":["polynomials"],"width":4}\n'
         b'\x01\x00\x03\x00\x00\x00\x0c\x00\x00\x00X\x88\x85\x99\x06'),
    ],
    "update": [
        (b'{"children":false,"kind":"frontier","points":[],'
         b'"sections":["fetch_polynomials"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x00\x03',
         b'{"kind":"frontier-ok","sections":["polynomials"],"width":4}\n'
         b'\x01\x00\x03\x00\x00\x00\x08\x00\x00\x00X\x98i'),
        (b'{"base":{"0":0,"3":0},"kind":"update","operation":"insert",'
         b'"ops":[["add",5,3,[3,2,4,2]],["replace",3,[4,2,4,4]],'
         b'["replace",0,[0,3,1,4]]]}',
         b'{"applied":3,"kind":"update-ok","versions":{"0":1,"3":1,'
         b'"5":1}}'),
    ],
    "xpath": [
        (b'{"children":false,"kind":"frontier","points":[2,1,3],'
         b'"sections":["node_ids"]}\n'
         b'\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00',
         b'{"kind":"frontier-ok","points":[1,2,3],'
         b'"sections":["evaluations"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x01\x00\x00\x00\x03'
         b'\x01\x00\x08\x00\x00\x00\x01\x00\x00\x00\x02'
         b'\x01\x00\x08\x00\x00\x00\x01\x00\x00\x00\x01'),
        (b'{"children":true,"kind":"frontier","points":[],'
         b'"sections":["fetch_polynomials"]}\n'
         b'\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00',
         b'{"kind":"frontier-ok","sections":["children","polynomials"],'
         b'"width":4}\n'
         b'\x01\x00\x08\x00\x00\x00\x01\x00\x00\x00\x02'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x01\x03'
         b'\x01\x00\x03\x00\x00\x00\x0c\x00\x00\x00X\x88\x85\x99\x06'),
        (b'{"children":false,"kind":"frontier","points":[1,3],'
         b'"sections":["node_ids"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x01\x03',
         b'{"kind":"frontier-ok","points":[1,3],'
         b'"sections":["evaluations"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x03\x04'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x01\x04'),
        (b'{"children":true,"kind":"frontier","points":[],'
         b'"sections":["fetch_polynomials"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x01\x03',
         b'{"kind":"frontier-ok","sections":["children","polynomials"],'
         b'"width":4}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x01\x01'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x02\x04'
         b'\x01\x00\x03\x00\x00\x00\x10\x00\x00\x00X8\x8e\x99\x06l'),
        (b'{"children":false,"kind":"frontier","points":[3],'
         b'"sections":["node_ids"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x02\x04',
         b'{"kind":"frontier-ok","points":[3],'
         b'"sections":["evaluations"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x00\x03'),
        (b'{"children":true,"kind":"frontier","points":[],'
         b'"sections":["fetch_polynomials"]}\n'
         b'\x01\x00\x08\x00\x00\x00\x02\x00\x00\x00\x02\x04',
         b'{"kind":"frontier-ok","sections":["children","polynomials"],'
         b'"width":4}\n'
         b'\x01\x00\x00\x00\x00\x00\x02\x00\x00\x00'
         b'\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00'
         b'\x01\x00\x03\x00\x00\x00\x08\x00\x00\x00\xe3\x08l'),
    ],
}

#: What the golden sessions' frames decode to, recorded from the protocol
#: v4 frames these sessions sent before v5: per exchange, the request as
#: ``(kind, node_ids, points, prune, children, fetch_polynomials,
#: fetch_constants, lookahead)`` or ``(kind, operation, ops, base)``, and
#: the response as ``(kind, evaluations, children, share rows,
#: constants)`` or ``(kind, versions, applied)``.  A new wire generation
#: changes the bytes, never this; a new share derivation changes only the
#: share values (re-recorded for ``shake256-xof-v3``).
GOLDEN_CONTENT = {'constant-only': [(('frontier', [0], [1], [], True, [], [], 1),
                                     ('frontier-ok',
                                      {1: {0: 3, 1: 3, 3: 4}},
                                      {0: [1, 3], 1: [2], 3: [4]},
                                      {},
                                      {})),
                                    (('frontier', [2, 4], [1], [], True, [], [], 1),
                                     ('frontier-ok',
                                      {1: {2: 4, 4: 1}},
                                      {2: [], 4: []},
                                      {},
                                      {})),
                                    (('frontier', [], [], [2, 4], False, [], [0, 1, 3], 0),
                                     ('frontier-ok', {}, {}, {}, {0: 0, 1: 0, 3: 1}))],
                  'full': [(('frontier', [0], [1], [], True, [], [], 1),
                            ('frontier-ok',
                             {1: {0: 3, 1: 3, 3: 4}},
                             {0: [1, 3], 1: [2], 3: [4]},
                             {},
                             {})),
                           (('frontier', [2, 4], [1], [], True, [], [], 1),
                            ('frontier-ok', {1: {2: 4, 4: 1}}, {2: [], 4: []}, {}, {})),
                           (('frontier', [], [], [2, 4], False, [0, 1, 3], [], 0),
                            ('frontier-ok',
                             {},
                             {},
                             {0: [0, 3, 1, 4], 1: [0, 3, 1, 4], 3: [1, 3, 2, 3]},
                             {}))],
                  'update': [(('frontier', [], [], [], False, [0, 3], [], 0),
                              ('frontier-ok',
                               {},
                               {},
                               {0: [0, 3, 1, 4], 3: [1, 3, 2, 3]},
                               {})),
                             (('update',
                               'insert',
                               [['add', 5, 3, [3, 2, 4, 2]],
                                ['replace', 3, [4, 2, 4, 4]],
                                ['replace', 0, [0, 3, 1, 4]]],
                               {0: 0, 3: 0}),
                              ('update-ok', {0: 1, 3: 1, 5: 1}, 3))],
                  'xpath': [(('frontier', [0], [2, 1, 3], [], False, [], [], 0),
                             ('frontier-ok', {1: {0: 3}, 2: {0: 2}, 3: {0: 1}}, {}, {}, {})),
                            (('frontier', [], [], [], True, [0], [], 0),
                             ('frontier-ok',
                              {},
                              {0: [1, 3]},
                              {0: [0, 3, 1, 4], 1: [0, 3, 1, 4], 3: [1, 3, 2, 3]},
                              {})),
                            (('frontier', [1, 3], [1, 3], [], False, [], [], 0),
                             ('frontier-ok',
                              {1: {1: 3, 3: 4}, 3: {1: 1, 3: 4}},
                              {},
                              {},
                              {})),
                            (('frontier', [], [], [], True, [1, 3], [], 0),
                             ('frontier-ok',
                              {},
                              {1: [2], 3: [4]},
                              {1: [0, 3, 1, 4],
                               2: [3, 4, 3, 4],
                               3: [1, 3, 2, 3],
                               4: [0, 0, 3, 3]},
                              {})),
                            (('frontier', [2, 4], [3], [], False, [], [], 0),
                             ('frontier-ok', {3: {2: 0, 4: 3}}, {}, {}, {})),
                            (('frontier', [], [], [], True, [2, 4], [], 0),
                             ('frontier-ok',
                              {},
                              {2: [], 4: []},
                              {2: [3, 4, 3, 4], 4: [0, 0, 3, 3]},
                              {}))]}

#: The server's ledger after each golden session, as
#: ``(ServerObservations.as_dict(), point_counts)``, recorded under
#: protocol v4: what the honest-but-curious server learns does not depend
#: on the wire generation.
GOLDEN_LEDGERS = {'constant-only': ({'distinct_points_seen': 1,
                                     'evaluation_requests': 5,
                                     'pruned_nodes': 2,
                                     'polynomials_served': 0,
                                     'constants_served': 3,
                                     'requests_handled': 3},
                                    {1: 2}),
                  'full': ({'distinct_points_seen': 1,
                            'evaluation_requests': 5,
                            'pruned_nodes': 2,
                            'polynomials_served': 3,
                            'constants_served': 0,
                            'requests_handled': 3},
                           {1: 2}),
                  'update': ({'distinct_points_seen': 0,
                              'evaluation_requests': 0,
                              'pruned_nodes': 0,
                              'polynomials_served': 2,
                              'constants_served': 0,
                              'requests_handled': 5},
                             {}),
                  'xpath': ({'distinct_points_seen': 3,
                             'evaluation_requests': 9,
                             'pruned_nodes': 0,
                             'polynomials_served': 9,
                             'constants_served': 0,
                             'requests_handled': 6},
                            {1: 2, 2: 1, 3: 3})}


def golden_session(name):
    """The (request, response) frames of one golden session, hello left
    out, and the server core that answered it."""
    client, tree, _ = outsource_document(figure1_document(clients=2),
                                         seed=b"golden-frames")
    server = SearchServer(tree)
    frames = []

    def handler(message):
        response = server.handle(message)
        if message.kind != "hello":
            frames.append((message.encode(), response.encode()))
        return response

    adapter = RemoteServerAdapter(InstrumentedChannel(handler), tree.ring)
    if name == "update":
        editor = RemoteUpdatableTree(adapter, client.mapping,
                                     client.share_generator)
        frames.clear()
        assert editor.insert_subtree(3, parse_element("<name/>")) \
            .new_node_ids == [5]
    elif name == "xpath":
        assert client.xpath(adapter, "/customers/client/name").matches \
            == [2, 4]
    else:
        outcome = client.lookup(adapter, "client",
                                verification=VerificationMode(name))
        assert outcome.matches == [1, 3]
    return frames, server


def content(message, request=None):
    """A decoded message's data, in :data:`GOLDEN_CONTENT`'s form; a
    ``frontier-ok`` is bound to the ``request`` it answers."""
    if message.kind == "frontier":
        return (message.kind, message.node_ids, message.points, message.prune,
                message.include_children, message.fetch_polynomials,
                message.fetch_constants, message.lookahead)
    if message.kind == "frontier-ok":
        return (message.kind,) + sections(message, request)
    if message.kind == "update":
        return (message.kind, message.operation, message.ops,
                message.base_versions)
    return (message.kind, message.versions, message.applied)


class TestCompatibility:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_golden_v6_frames(self, name):
        assert golden_session(name)[0] == GOLDEN_FRAMES[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_golden_frames_decode_to_the_v4_content(self, name):
        decoded = [(decode_message(request), decode_message(response))
                   for request, response in GOLDEN_FRAMES[name]]
        assert [(content(request), content(response, request))
                for request, response in decoded] == GOLDEN_CONTENT[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_golden_sessions_leave_the_v4_ledger(self, name):
        ledger = golden_session(name)[1].document().observations
        assert (ledger.as_dict(), dict(ledger.point_counts)) \
            == GOLDEN_LEDGERS[name]

    def test_every_read_is_a_packed_frontier_round(self, fp_outsourced):
        _, client, tree = fp_outsourced
        server = SearchServer(tree)
        frames = []

        def handler(message):
            response = server.handle(message)
            frames.append((message.encode(), response.encode()))
            return response

        adapter = RemoteServerAdapter(InstrumentedChannel(handler), tree.ring)
        client.lookup(adapter, "name")
        adapter.frontier([tree.root_id], include_children=True)
        adapter.frontier([tree.root_id], [3])
        reads = [(split_frame(request)[0], split_frame(response)[0])
                 for request, response in frames
                 if b'"kind":"hello"' not in request]
        assert len(reads) >= 3
        assert all(request["kind"] == "frontier"
                   and set(request) <= {"kind", "points", "children",
                                        "lookahead", "sections"}
                   and response["kind"] == "frontier-ok"
                   and set(response) <= {"kind", "points", "width", "sections"}
                   for request, response in reads)

    def test_shares_are_built_from_python_ints(self, fp_outsourced):
        _, _, tree = fp_outsourced
        adapter, _ = connect(SearchServer(tree))
        rows = adapter.frontier(fetch_polynomials=tree.node_ids()).rows
        shares = {node_id: tree.ring.from_coefficients(row)
                  for node_id, row in rows.items()}
        assert {node_id: share.coeffs for node_id, share in shares.items()} \
            == {node_id: tree.share_of(node_id).coeffs
                for node_id in tree.node_ids()}
        assert all(type(c) is int for share in shares.values()
                   for c in share.coeffs)


class DroppingServer(SearchServer):
    """A server that drops the last entry of one positional section of
    its frontier-ok: a value at every point, a share row, or a child
    count with its child ids."""

    def __init__(self, tree, section):
        super().__init__(tree)
        self.section = section
        self.dropped = 0

    def handle(self, message):
        return self._tamper(message, super().handle(message))

    def frontier_batch(self, messages):
        return [self._tamper(message, response) for message, response
                in zip(messages, super().frontier_batch(messages))]

    def _tamper(self, message, response):
        if not isinstance(response, FrontierResponse):
            return response
        if self.section == "evaluations" and response.points:
            response.values = [values[:-1] for values in response.values]
        elif self.section == "share rows" and response.rows:
            ids = response.rows.ids[:-1]
            response.rows = CoefficientRows(
                ids, response.rows.width,
                rows=[response.rows[node_id] for node_id in ids])
        elif (self.section == "child counts" and response.child_counts
              and (message.fetch_polynomials or message.points)):
            counts = list(response.child_counts)
            response.child_ids = response.child_ids[
                :len(response.child_ids) - counts[-1]]
            response.child_counts = counts[:-1]
        else:
            return response
        self.dropped += 1
        return response


class TestOmittedNodes:
    """An answer that lacks one entry of a section fails as a protocol
    error naming the section, never as a wrong answer."""

    SECTIONS = ["evaluations", "share rows", "child counts"]

    @pytest.mark.parametrize("section", SECTIONS)
    def test_lookup_raises_protocol_error(self, section, fp_outsourced):
        _, client, tree = fp_outsourced
        server = DroppingServer(tree, section)
        adapter, _ = connect(server)
        with pytest.raises(ProtocolError, match=section):
            client.lookup(adapter, "name")
        assert server.dropped

    @pytest.mark.parametrize("section", SECTIONS)
    def test_xpath_raises_protocol_error(self, section, fp_outsourced):
        _, client, tree = fp_outsourced
        server = DroppingServer(tree, section)
        adapter, _ = connect(server)
        with pytest.raises(ProtocolError, match=section):
            client.xpath(adapter, "//client/name")
        assert server.dropped

    @pytest.mark.parametrize("section", ["child counts", "share rows"])
    def test_closure_fetch_raises_protocol_error(self, section,
                                                 fp_outsourced):
        _, _, tree = fp_outsourced
        root = tree.root_id
        adapter, _ = connect(DroppingServer(tree, section))
        with pytest.raises(ProtocolError, match=section):
            adapter.frontier(include_children=True, fetch_polynomials=[root])


def test_reference_codec_serves_a_socket_lookup():
    """With numpy disabled both ends pack and unpack through the int codec."""
    document = generate_random_document(
        RandomXmlConfig(element_count=120, tag_vocabulary_size=10, seed=11))
    script = textwrap.dedent("""
        import json
        from repro.algebra import numpy_or_none
        from repro.core import outsource_document
        from repro.net import SearchServer, ThreadedSearchServer, connect_socket
        from repro.workloads import RandomXmlConfig, generate_random_document

        document = generate_random_document(
            RandomXmlConfig(element_count=120, tag_vocabulary_size=10, seed=11))
        client, tree, _ = outsource_document(document, seed=b"packed-no-numpy")
        server = ThreadedSearchServer(SearchServer(tree)).start()
        try:
            adapter, channel = connect_socket(*server.address, tree.ring)
            matches = {tag: client.lookup(adapter, tag).matches
                       for tag in sorted(document.distinct_tags())}
            channel.close()
        finally:
            server.stop()
        print(json.dumps({"numpy": numpy_or_none() is not None,
                          "matches": matches}))
    """)
    env = dict(os.environ, REPRO_DISABLE_NUMPY="1", PYTHONPATH=SRC)
    result = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True, timeout=300).stdout.strip().splitlines()[-1])
    assert result["numpy"] is False
    plaintext = PlaintextSearchIndex(document)
    assert result["matches"] == {tag: plaintext.lookup(tag).matches
                                 for tag in sorted(document.distinct_tags())}
