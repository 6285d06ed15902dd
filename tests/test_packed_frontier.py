"""Protocol v4 packed frontier payloads: codec, compatibility, untrusted input.

A v4 session asks for packed ``frontier-ok`` payloads: every numeric
section travels as a base64 :mod:`repro.net.pages` limb blob inside the
same JSON object.  These tests pin

* the codec: the packed and JSON forms decode to the same evaluations,
  child lists, share rows and constants, on ``F_p`` and ``Z``-ring trees
  (negative and wider-than-64-bit coefficients), with empty sections,
  several points and constants-only fetches;
* compatibility: golden v2/v3 bytes, sessions pinned to v3, a server
  that offers only v1–v3, and v4 vs v3 vs the plaintext baseline over
  every transport with the sync and the async client;
* untrusted input: every tampered packed payload and every omitted node
  raises :class:`~repro.errors.ProtocolError`, never a ``KeyError`` or a
  wrong answer;
* the reference codec: a v4 socket lookup with numpy disabled.
"""

import asyncio
import base64
import contextlib
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PlaintextSearchIndex
from repro.core import (
    ServerInterface,
    VerificationMode,
    choose_int_ring,
    outsource_document,
)
from repro.core.advanced import AdvancedQueryExecutor
from repro.errors import ProtocolError
from repro.net import (
    AsyncServerInterface,
    InstrumentedChannel,
    SearchServer,
    ThreadedSearchServer,
    connect,
    connect_socket,
    start_async_server,
)
from repro.net.client import RemoteServerAdapter
from repro.net import messages
from repro.net.framing import FrameAssembler, encode_frame
from repro.net.messages import (
    MAX_PACKED_VALUES,
    PROTOCOL_VERSION,
    ErrorResponse,
    FrontierRequest,
    FrontierResponse,
    HealthRequest,
    decode_message,
)
from repro.net.pages import blob_count, encode_coefficients
from repro.workloads import RandomXmlConfig, figure1_document, generate_random_document

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

QUERIES = ["//client", "//name", "//client/name", "/customers/client/name"]


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


def packed_twin(request):
    twin = decode_message(request.encode())
    twin.packed = True
    return twin


def sections(response):
    """A decoded response's data as plain dicts and lists."""
    return (response.evaluations, response.children,
            {node_id: list(row) for node_id, row in response.polynomials.items()},
            response.constants)


class TestPackedCodec:
    @pytest.mark.parametrize("ring", ["fp", "z"])
    def test_packed_and_json_decode_identically(self, ring, fp_outsourced,
                                                z_outsourced):
        _, _, tree = fp_outsourced if ring == "fp" else z_outsourced
        server = SearchServer(tree)
        for request in served_requests(tree):
            plain = decode_message(server.handle(request).encode())
            packed = decode_message(server.handle(packed_twin(request)).encode())
            assert not plain.packed and packed.packed
            assert sections(packed) == sections(plain)
            assert all(type(value) is int
                       for values in packed.evaluations.values()
                       for value in values.values())
            assert all(type(c) is int for row in packed.polynomials.values()
                       for c in row)

    def test_z_ring_tree_exercises_wide_and_negative_rows(self, z_outsourced):
        _, _, tree = z_outsourced
        coefficients = [c for node_id in tree.node_ids()
                        for c in tree.share_of(node_id).coeffs]
        assert min(coefficients) < 0
        assert max(abs(c) for c in coefficients).bit_length() > 64

    def test_packed_encoding_is_canonical(self, fp_outsourced):
        _, _, tree = fp_outsourced
        root = tree.root_id
        children = tree.child_ids(root)
        forward = FrontierRequest(children, [4, 3], lookahead=1, packed=True,
                                  fetch_polynomials=children)
        backward = FrontierRequest(children[::-1], [3, 4], lookahead=1,
                                   packed=True, fetch_polynomials=children[::-1])
        server = SearchServer(tree)
        assert server.handle(forward).encode() == server.handle(backward).encode()

    def test_packed_sections_shrink_a_large_fetch(self, fp_outsourced):
        _, _, tree = fp_outsourced
        request = FrontierRequest([], [], include_children=False,
                                  fetch_polynomials=tree.node_ids())
        server = SearchServer(tree)
        plain = server.handle(request).encode()
        packed = server.handle(packed_twin(request)).encode()
        assert len(packed) < len(plain)

    def test_flag_is_encoded_only_when_set(self):
        request = FrontierRequest([1, 2], [3])
        assert b"packed" not in request.encode()
        assert decode_message(request.encode()).packed is False
        request.packed = True
        assert b'"packed":true' in request.encode()
        assert decode_message(request.encode()).packed is True

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_message_round_trip(self, data):
        values = st.integers(min_value=-(2 ** 90), max_value=2 ** 90)
        ids = st.lists(st.integers(min_value=0, max_value=10 ** 6),
                       unique=True, max_size=12)
        frontier = data.draw(ids)
        points = data.draw(st.lists(st.integers(min_value=1, max_value=99),
                                    unique=True, max_size=3))
        evaluations = {point: {node_id: data.draw(values) for node_id in frontier}
                       for point in points}
        children = data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=999),
            st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=5),
            max_size=6))
        width = data.draw(st.integers(min_value=0, max_value=6))
        polynomials = {node_id: data.draw(st.lists(values, min_size=width,
                                                   max_size=width))
                       for node_id in data.draw(ids)}
        constants = {node_id: data.draw(values) for node_id in data.draw(ids)}
        plain = decode_message(FrontierResponse(
            evaluations, children, polynomials, constants).encode())
        packed = decode_message(FrontierResponse(
            evaluations, children, polynomials, constants, packed=True).encode())
        assert sections(packed) == sections(plain)
        assert sections(plain) == (evaluations, children, polynomials, constants)


def packed_body(tree):
    """A valid packed frontier-ok with all four sections, as parsed JSON."""
    root = tree.root_id
    children = tree.child_ids(root)
    request = FrontierRequest(children, [3, 4], lookahead=1, packed=True,
                              fetch_polynomials=[root], fetch_constants=children)
    return json.loads(SearchServer(tree).handle(request).encode())


def blob_text(values):
    return base64.b64encode(encode_coefficients(values)).decode("ascii")


def decoded_blob(text):
    from repro.net.pages import decode_coefficients

    return decode_coefficients(base64.b64decode(text))


def corrupt(text, mutate):
    blob = bytearray(base64.b64decode(text))
    mutate(blob)
    return base64.b64encode(bytes(blob)).decode("ascii")


def _set(path, value):
    def apply(body):
        target = body["packed"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return apply


def _first_point_values(mutate):
    def apply(body):
        values = body["packed"]["evaluations"]["values"]
        point = sorted(values)[0]
        values[point] = mutate(values[point])
    return apply


def _flip_version(blob):
    blob[0] ^= 0x7F


def _drop_last_byte(blob):
    del blob[-1]


TAMPERINGS = {
    "not base64": _set(["evaluations", "ids"], "!!not-base64!!"),
    "not text": _set(["children", "counts"], 17),
    "header": _set(["polynomials", "rows"], lambda text: corrupt(text, _flip_version)),
    "length": _set(["constants", "values"], lambda text: corrupt(text, _drop_last_byte)),
    "stray bits": _set(["evaluations", "ids"],
                       lambda text: corrupt(blob_text([1, 1, 1]),
                                            lambda blob: blob.__setitem__(-1, 0x80))),
    "values vs ids": _first_point_values(
        lambda text: blob_text(decoded_blob(text)[:-1])),
    "child counts vs child ids": _set(
        ["children", "counts"],
        lambda text: blob_text([count + 1 for count in decoded_blob(text)])),
    "rows vs ids x width": _set(["polynomials", "width"], lambda width: width + 1),
    "constants vs ids": _set(["constants", "values"],
                             lambda text: blob_text(decoded_blob(text) + [1])),
    "negative id": _set(["constants", "ids"],
                        lambda text: blob_text([-1] + decoded_blob(text)[1:])),
    "duplicate id": _set(["evaluations", "ids"],
                         lambda text: blob_text(decoded_blob(text)[:1] * 2
                                                + decoded_blob(text)[2:])),
    "out of order ids": _set(["children", "parents"],
                             lambda text: blob_text(decoded_blob(text)[::-1])),
    "negative child count": _set(
        ["children", "counts"],
        lambda text: blob_text([-1] + decoded_blob(text)[1:])),
    "negative child id": _set(["children", "ids"],
                              lambda text: blob_text([-5] + decoded_blob(text)[1:])),
    "width not an int": _set(["polynomials", "width"], "52"),
    "section not an object": _set(["children"], [1, 2]),
    "values not an object": _set(["evaluations", "values"], ["x"]),
    "payload not an object": lambda body: body.__setitem__("packed", [1]),
    # Ten bytes of width-0 blob announcing 2^32 - 1 values.
    "count beyond the cap": _set(["evaluations", "ids"], "AQAAAAAA/////w=="),
    "row width beyond the cap": lambda body: body["packed"]["polynomials"].update(
        ids=blob_text([]), width=MAX_PACKED_VALUES + 1, rows=blob_text([])),
}


def blob_texts(value):
    """Every base64 blob text of a packed payload."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from blob_texts(item)


def recv_frame(sock):
    assembler = FrameAssembler()
    while True:
        chunk = sock.recv(65536)
        assert chunk, "the server closed the session without an answer"
        payloads = assembler.feed(chunk)
        if payloads:
            return payloads[0]


class TestTamperedPayloads:
    def test_untampered_body_decodes(self, fp_outsourced):
        body = packed_body(fp_outsourced[2])
        assert set(body["packed"]) == {"evaluations", "children",
                                       "polynomials", "constants"}
        decoded = decode_message(json.dumps(body).encode())
        assert decoded.packed and decoded.polynomials and decoded.constants

    @pytest.mark.parametrize("case", sorted(TAMPERINGS))
    def test_tampered_payload_raises_protocol_error(self, case, fp_outsourced):
        body = packed_body(fp_outsourced[2])
        TAMPERINGS[case](body)
        with pytest.raises(ProtocolError):
            decode_message(json.dumps(body).encode())

    def test_announced_counts_share_one_budget(self, fp_outsourced, monkeypatch):
        body = packed_body(fp_outsourced[2])
        total = sum(blob_count(base64.b64decode(text))
                    for text in blob_texts(body["packed"]))
        encoded = json.dumps(body).encode()
        monkeypatch.setattr(messages, "MAX_PACKED_VALUES", total)
        assert decode_message(encoded).packed
        monkeypatch.setattr(messages, "MAX_PACKED_VALUES", total - 1)
        with pytest.raises(ProtocolError, match="announces more than"):
            decode_message(encoded)

    @pytest.mark.parametrize("transport", ["threaded", "async"])
    def test_servers_refuse_response_kinds_before_decoding(self, transport,
                                                           fp_outsourced):
        attack = json.dumps({"kind": "frontier-ok", "packed": {"evaluations": {
            "ids": "AQAAAAAA/////w==", "values": {}}}}).encode()
        with socket_server(transport, fp_outsourced[2]) as address:
            with socket.create_connection(address, timeout=30) as sock:
                sock.sendall(encode_frame(attack))
                refusal = decode_message(recv_frame(sock))
                sock.sendall(encode_frame(HealthRequest().encode()))
                health = decode_message(recv_frame(sock))
        assert isinstance(refusal, ErrorResponse)
        assert "unexpected 'frontier-ok' message" in refusal.error
        assert health.status == "ok"


#: Frames of a v2 session (FULL lookup of ``client``) and a v3 session
#: (CONSTANT_ONLY lookup of ``client``) on ``figure1_document(clients=2)``
#: outsourced with seed ``b"golden-frames"``, as recorded before protocol
#: v4 existed.  v1–v3 encodings must never move.
GOLDEN_FRAMES = {
    2: [
        (b'{"kind":"hello","versions":[2]}',
         b'{"documents":["default"],"kind":"hello-ok","node_count":5,'
         b'"root_id":0,"version":2}'),
        (b'{"children":true,"kind":"frontier","lookahead":1,"node_ids":[0],'
         b'"points":[1]}',
         b'{"children":{"0":[1,3],"1":[2],"3":[4]},"evaluations":{"1":'
         b'{"0":1,"1":3,"3":1}},"kind":"frontier-ok"}'),
        (b'{"children":true,"kind":"frontier","lookahead":1,"node_ids":[2,4],'
         b'"points":[1]}',
         b'{"children":{"2":[],"4":[]},"evaluations":{"1":{"2":1,"4":3}},'
         b'"kind":"frontier-ok"}'),
        (b'{"children":false,"fetch_polynomials":[0,1,3],"kind":"frontier",'
         b'"node_ids":[],"points":[],"prune":[2,4]}',
         b'{"children":{},"evaluations":{},"kind":"frontier-ok","polynomials":'
         b'{"0":[0,4,0,2],"1":[4,3,3,3],"3":[4,1,2,4]}}'),
    ],
    3: [
        (b'{"kind":"hello","versions":[3]}',
         b'{"documents":["default"],"kind":"hello-ok","node_count":5,'
         b'"root_id":0,"version":3}'),
        (b'{"children":true,"kind":"frontier","lookahead":1,"node_ids":[0],'
         b'"points":[1]}',
         b'{"children":{"0":[1,3],"1":[2],"3":[4]},"evaluations":{"1":'
         b'{"0":1,"1":3,"3":1}},"kind":"frontier-ok"}'),
        (b'{"children":true,"kind":"frontier","lookahead":1,"node_ids":[2,4],'
         b'"points":[1]}',
         b'{"children":{"2":[],"4":[]},"evaluations":{"1":{"2":1,"4":3}},'
         b'"kind":"frontier-ok"}'),
        (b'{"children":false,"fetch_constants":[0,1,3],"kind":"frontier",'
         b'"node_ids":[],"points":[],"prune":[2,4]}',
         b'{"children":{},"constants":{"0":0,"1":4,"3":4},"evaluations":{},'
         b'"kind":"frontier-ok"}'),
    ],
}


def recorded_session(server, ring, version):
    """An adapter whose channel records every (request, response) frame."""
    frames = []

    def handler(message):
        response = server.handle(message)
        frames.append((message.encode(), response.encode()))
        return response

    adapter = RemoteServerAdapter(InstrumentedChannel(handler), ring,
                                  protocol_version=version)
    return adapter, frames


class TestCompatibility:
    @pytest.mark.parametrize("version,mode", [(2, VerificationMode.FULL),
                                              (3, VerificationMode.CONSTANT_ONLY)])
    def test_golden_v2_and_v3_frames(self, version, mode):
        document = figure1_document(clients=2)
        client, tree, _ = outsource_document(document, seed=b"golden-frames")
        adapter, frames = recorded_session(SearchServer(tree), tree.ring, version)
        outcome = client.lookup(adapter, "client", verification=mode)
        assert outcome.matches == [1, 3]
        assert frames == GOLDEN_FRAMES[version]

    def test_default_session_is_packed(self, fp_outsourced):
        _, client, tree = fp_outsourced
        adapter, frames = recorded_session(SearchServer(tree), tree.ring, None)
        assert adapter.protocol_version == PROTOCOL_VERSION == 4
        client.lookup(adapter, "name")
        frontier = [(request, response) for request, response in frames
                    if b'"kind":"frontier"' in request]
        assert frontier
        assert all(b'"packed":true' in request and b'"packed":{' in response
                   for request, response in frontier)

    def test_v4_shares_are_built_from_python_ints(self, fp_outsourced):
        _, _, tree = fp_outsourced
        adapter, _ = connect(SearchServer(tree))
        shares = adapter.fetch_polynomials(tree.node_ids())
        assert {node_id: share.coeffs for node_id, share in shares.items()} \
            == {node_id: tree.share_of(node_id).coeffs
                for node_id in tree.node_ids()}
        assert all(type(c) is int for share in shares.values()
                   for c in share.coeffs)

    def test_v3_pin_keeps_json(self, fp_outsourced):
        _, client, tree = fp_outsourced
        adapter, frames = recorded_session(SearchServer(tree), tree.ring, 3)
        client.lookup(adapter, "name")
        assert frames and not any(b"packed" in request + response
                                  for request, response in frames)

    def test_server_offering_up_to_v3_answers_in_json(self, fp_outsourced,
                                                      monkeypatch):
        from repro.net import engine

        monkeypatch.setattr(engine, "SUPPORTED_PROTOCOL_VERSIONS", (1, 2, 3))
        document, client, tree = fp_outsourced
        adapter, frames = recorded_session(SearchServer(tree), tree.ring, None)
        assert adapter.protocol_version == 3
        assert client.lookup(adapter, "name").matches == \
            PlaintextSearchIndex(document).lookup("name").matches
        assert not any(b"packed" in request + response
                       for request, response in frames)


class SyncOverAsync(ServerInterface):
    """Runs an :class:`AsyncServerInterface` under the synchronous engine.

    Every call is scheduled on a background event loop, so a real
    :class:`~repro.core.query.QueryEngine` drives the async client.
    """

    def __init__(self, host, port, ring, protocol_version):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.session = self._run(AsyncServerInterface.open(
            host, port, ring, protocol_version=protocol_version))

    def _run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(60)

    @property
    def batched_rounds(self):
        return self.session.batched_rounds

    def root_id(self):
        return self._run(self.session.root_id())

    def node_count(self):
        return self._run(self.session.node_count())

    def children_of(self, node_ids):
        return self._run(self.session.children_of(node_ids))

    def evaluate(self, node_ids, point):
        return self._run(self.session.evaluate(node_ids, point))

    def fetch_polynomials(self, node_ids):
        return self._run(self.session.fetch_polynomials(node_ids))

    def fetch_polynomial_rows(self, node_ids):
        return self._run(self.session.fetch_polynomial_rows(node_ids))

    def fetch_constants(self, node_ids):
        return self._run(self.session.fetch_constants(node_ids))

    def prune(self, node_ids):
        self._run(self.session.prune(node_ids))

    def frontier_round(self, node_ids, points, prune=(), include_children=True,
                       lookahead=0):
        return self._run(self.session.frontier_round(
            node_ids, points, prune=prune, include_children=include_children,
            lookahead=lookahead))

    def verification_bundle(self, node_ids, constants_only=False):
        return self._run(self.session.verification_bundle(
            node_ids, constants_only=constants_only))

    def close(self):
        self._run(self.session.close())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def answers(client, adapter, document):
    """Lookups of every tag and the XPath set, as plain match lists."""
    lookups = {tag: client.lookup(adapter, tag).matches
               for tag in sorted(document.distinct_tags())}
    xpaths = {query: AdvancedQueryExecutor(client.engine(adapter))
              .execute(query).matches for query in QUERIES}
    return lookups, xpaths


def plaintext_answers(document):
    index = PlaintextSearchIndex(document)
    return ({tag: index.lookup(tag).matches
             for tag in sorted(document.distinct_tags())},
            {query: index.query(query).matches for query in QUERIES})


@contextlib.contextmanager
def socket_server(transport, tree):
    """A threaded or async socket server over ``tree``; yields its address."""
    if transport == "threaded":
        server = ThreadedSearchServer(SearchServer(tree)).start()
        address, stop = server.address, server.stop
    else:
        handle = start_async_server(SearchServer(tree))
        address, stop = ("127.0.0.1", handle.port), handle.stop
    try:
        yield address
    finally:
        stop()


class TestSessionsAgreeWithPlaintext:
    @pytest.mark.parametrize("version", [3, 4])
    def test_sync_client_in_process(self, version, fp_outsourced):
        document, client, tree = fp_outsourced
        adapter, _ = connect(SearchServer(tree), protocol_version=version)
        assert adapter.protocol_version == version
        assert answers(client, adapter, document) == plaintext_answers(document)

    @pytest.mark.parametrize("transport", ["threaded", "async"])
    @pytest.mark.parametrize("version", [3, 4])
    def test_sync_client(self, transport, version, fp_outsourced):
        document, client, tree = fp_outsourced
        with socket_server(transport, tree) as address:
            adapter, channel = connect_socket(*address, tree.ring,
                                              protocol_version=version)
            try:
                assert adapter.protocol_version == version
                assert answers(client, adapter, document) == \
                    plaintext_answers(document)
            finally:
                channel.close()

    @pytest.mark.parametrize("transport", ["threaded", "async"])
    @pytest.mark.parametrize("version", [3, 4])
    def test_async_client(self, transport, version, fp_outsourced):
        document, client, tree = fp_outsourced
        with socket_server(transport, tree) as address:
            adapter = SyncOverAsync(*address, tree.ring, version)
            try:
                assert adapter.session.protocol_version == version
                assert answers(client, adapter, document) == \
                    plaintext_answers(document)
            finally:
                adapter.close()

    def test_z_ring_sessions(self, z_outsourced):
        document, client, tree = z_outsourced
        server = SearchServer(tree)
        expected = {tag: PlaintextSearchIndex(document).lookup(tag).matches
                    for tag in sorted(document.distinct_tags())}
        for version in (3, 4):
            adapter, _ = connect(server, protocol_version=version)
            assert {tag: client.lookup(adapter, tag).matches
                    for tag in expected} == expected


class DroppingServer(SearchServer):
    """A server that omits one node from one section of its frontier-ok."""

    def __init__(self, tree, section):
        super().__init__(tree)
        self.section = section
        self.dropped = []

    def handle(self, message):
        return self._tamper(message, super().handle(message))

    def frontier_batch(self, messages):
        return [self._tamper(message, response) for message, response
                in zip(messages, super().frontier_batch(messages))]

    def _tamper(self, message, response):
        if not isinstance(response, FrontierResponse):
            return response
        if self.section == "evaluation" and message.node_ids and message.points:
            victim = max(message.node_ids)
            for values in response.evaluations.values():
                values.pop(victim)
        elif self.section == "share row" and message.fetch_polynomials:
            victim = max(message.fetch_polynomials)
            response.polynomials = {node_id: list(row) for node_id, row
                                    in response.polynomials.items()
                                    if node_id != victim}
        elif (self.section == "child list" and message.include_children
              and message.fetch_polynomials):
            victim = max(message.fetch_polynomials)
            response.children.pop(victim)
        else:
            return response
        self.dropped.append(victim)
        return response


class TestOmittedNodes:
    @pytest.mark.parametrize("version", [3, 4])
    @pytest.mark.parametrize("section", ["evaluation", "share row"])
    def test_lookup_raises_protocol_error(self, section, version, fp_outsourced):
        _, client, tree = fp_outsourced
        server = DroppingServer(tree, section)
        adapter, _ = connect(server, protocol_version=version)
        with pytest.raises(ProtocolError, match=f"omits the {section}") as error:
            client.lookup(adapter, "name")
        assert str(error.value).endswith(f"of node {server.dropped[-1]}")

    @pytest.mark.parametrize("version", [3, 4])
    @pytest.mark.parametrize("section", ["child list", "share row"])
    def test_verification_bundle_raises_protocol_error(self, section, version,
                                                       fp_outsourced):
        _, _, tree = fp_outsourced
        root = tree.root_id
        adapter, _ = connect(DroppingServer(tree, section),
                             protocol_version=version)
        with pytest.raises(ProtocolError, match=f"omits the {section} of node"):
            adapter.verification_bundle([root])

    @pytest.mark.parametrize("version", [3, 4])
    @pytest.mark.parametrize("section", ["evaluation", "child list", "share row"])
    def test_async_client_raises_protocol_error(self, section, version,
                                                fp_outsourced):
        _, _, tree = fp_outsourced
        handle = start_async_server(DroppingServer(tree, section))

        async def scenario():
            session = await AsyncServerInterface.open(
                "127.0.0.1", handle.port, tree.ring, protocol_version=version)
            try:
                root = tree.root_id
                with pytest.raises(ProtocolError, match=f"omits the {section}"):
                    if section == "evaluation":
                        await session.frontier_round([root], [3])
                    elif section == "child list":
                        await session.verification_bundle([root])
                    else:
                        await session.fetch_polynomial_rows([root])
                # The session survives the rejected response.
                assert await session.root_id() == root
            finally:
                await session.close()

        try:
            asyncio.run(scenario())
        finally:
            handle.stop()


def test_reference_codec_serves_a_v4_socket_lookup():
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
                          "version": adapter.protocol_version,
                          "matches": matches}))
    """)
    env = dict(os.environ, REPRO_DISABLE_NUMPY="1", PYTHONPATH=SRC)
    result = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True, timeout=300).stdout.strip().splitlines()[-1])
    assert result["numpy"] is False
    assert result["version"] == 4
    plaintext = PlaintextSearchIndex(document)
    assert result["matches"] == {tag: plaintext.lookup(tag).matches
                                 for tag in sorted(document.distinct_tags())}
