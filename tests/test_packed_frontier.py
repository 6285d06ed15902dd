"""Packed frontier payloads: codec, compatibility, untrusted input.

Every ``frontier-ok`` payload is packed: each numeric section travels as a
base64 :mod:`repro.net.pages` limb blob inside the JSON object.  These
tests pin

* the codec: packed payloads decode to the evaluations, child lists,
  share rows and constants the server produced, on ``F_p`` and
  ``Z``-ring trees (negative and wider-than-64-bit coefficients), with
  empty sections, several points and constants-only fetches;
* compatibility: golden frames of lookups, an XPath and an update batch
  (answers against the plaintext baseline over every path are
  ``tests/test_oracle.py``'s);
* untrusted input: every tampered packed payload and every omitted node
  raises :class:`~repro.errors.ProtocolError`, never a ``KeyError`` or a
  wrong answer;
* the reference codec: a v4 socket lookup with numpy disabled.
"""

import base64
import json
import os
import socket
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PlaintextSearchIndex
from repro.core import VerificationMode, choose_int_ring, outsource_document
from repro.errors import ProtocolError
from repro.net import (
    InstrumentedChannel,
    RemoteUpdatableTree,
    SearchServer,
    ThreadedSearchServer,
    connect,
)
from repro.net.client import RemoteServerAdapter
from repro.net import messages
from repro.net.framing import FrameAssembler, encode_frame
from repro.net.messages import (
    MAX_PACKED_VALUES,
    ErrorResponse,
    FrontierRequest,
    FrontierResponse,
    HealthRequest,
    decode_message,
)
from repro.net.pages import blob_count, encode_coefficients
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


def sections(response):
    """A decoded response's data as plain dicts and lists."""
    return (response.evaluations, response.children,
            {node_id: list(row) for node_id, row in response.polynomials.items()},
            response.constants)


class TestPackedCodec:
    @pytest.mark.parametrize("ring", ["fp", "z"])
    def test_packed_decodes_to_the_served_data(self, ring, fp_outsourced,
                                               z_outsourced):
        _, _, tree = fp_outsourced if ring == "fp" else z_outsourced
        server = SearchServer(tree)
        for request in served_requests(tree):
            served = server.handle(request)
            packed = decode_message(served.encode())
            assert sections(packed) == sections(served)
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
        forward = FrontierRequest(children, [4, 3], lookahead=1,
                                  fetch_polynomials=children)
        backward = FrontierRequest(children[::-1], [3, 4], lookahead=1,
                                   fetch_polynomials=children[::-1])
        server = SearchServer(tree)
        assert server.handle(forward).encode() == server.handle(backward).encode()

    def test_every_request_asks_for_packed_payloads(self):
        encoded = FrontierRequest([1, 2], [3]).encode()
        assert b'"packed":true' in encoded
        assert decode_message(encoded).node_ids == [1, 2]
        for flag in (b'', b',"packed":false'):
            body = b'{"kind":"frontier","node_ids":[1],"points":[3]' + flag + b'}'
            with pytest.raises(ProtocolError, match="'packed' must be true"):
                decode_message(body)

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
        packed = decode_message(FrontierResponse(
            evaluations, children, polynomials, constants).encode())
        assert sections(packed) == (evaluations, children, polynomials,
                                    constants)


def packed_body(tree):
    """A valid packed frontier-ok with all four sections, as parsed JSON."""
    root = tree.root_id
    children = tree.child_ids(root)
    request = FrontierRequest(children, [3, 4], lookahead=1,
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
        assert decoded.evaluations and decoded.children
        assert decoded.polynomials and decoded.constants

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
        assert decode_message(encoded).polynomials
        monkeypatch.setattr(messages, "MAX_PACKED_VALUES", total - 1)
        with pytest.raises(ProtocolError, match="announces more than"):
            decode_message(encoded)

    def test_server_refuses_response_kinds_before_decoding(self,
                                                           fp_outsourced):
        attack = json.dumps({"kind": "frontier-ok", "packed": {"evaluations": {
            "ids": "AQAAAAAA/////w==", "values": {}}}}).encode()
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


#: The frames of four v4 sessions on ``figure1_document(clients=2)``
#: outsourced with seed ``b"golden-frames"``, each hello exchange left
#: out: a FULL and a CONSTANT_ONLY lookup of ``client``, the XPath
#: ``/customers/client/name``, and one update batch (``<name/>`` inserted
#: under node 3, once the editor has mirrored the structure).  These
#: encodings must never move.
GOLDEN_FRAMES = {
    "full": [
        (b'{"children":true,"kind":"frontier","lookahead":1,"node_ids":[0],'
         b'"packed":true,"points":[1]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"children":{"counts":"AQACAAAAAwAAABY=",'
         b'"ids":"AQADAAAABAAAAJkI","parents":"AQACAAAAAwAAADQ="},'
         b'"evaluations":{"ids":"AQACAAAAAwAAADQ=",'
         b'"values":{"1":"AQACAAAAAwAAAB0="}}}}'),
        (b'{"children":true,"kind":"frontier","lookahead":1,"node_ids":[2,'
         b'4],"packed":true,"points":[1]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"children":{"counts":"AQAAAAAAAgAAAA==",'
         b'"ids":"AQAAAAAAAAAAAA==","parents":"AQADAAAAAgAAACI="},'
         b'"evaluations":{"ids":"AQADAAAAAgAAACI=",'
         b'"values":{"1":"AQACAAAAAgAAAA0="}}}}'),
        (b'{"children":false,"fetch_polynomials":[0,1,3],"kind":"frontier",'
         b'"node_ids":[],"packed":true,"points":[],"prune":[2,4]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"polynomials":{"ids":"AQACAAAAAwAAADQ=",'
         b'"rows":"AQADAAAADAAAACDEbYwI","width":4}}}'),
    ],
    "constant-only": [
        (b'{"children":true,"kind":"frontier","lookahead":1,"node_ids":[0],'
         b'"packed":true,"points":[1]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"children":{"counts":"AQACAAAAAwAAABY=",'
         b'"ids":"AQADAAAABAAAAJkI","parents":"AQACAAAAAwAAADQ="},'
         b'"evaluations":{"ids":"AQACAAAAAwAAADQ=",'
         b'"values":{"1":"AQACAAAAAwAAAB0="}}}}'),
        (b'{"children":true,"kind":"frontier","lookahead":1,"node_ids":[2,'
         b'4],"packed":true,"points":[1]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"children":{"counts":"AQAAAAAAAgAAAA==",'
         b'"ids":"AQAAAAAAAAAAAA==","parents":"AQADAAAAAgAAACI="},'
         b'"evaluations":{"ids":"AQADAAAAAgAAACI=",'
         b'"values":{"1":"AQACAAAAAgAAAA0="}}}}'),
        (b'{"children":false,"fetch_constants":[0,1,3],"kind":"frontier",'
         b'"node_ids":[],"packed":true,"points":[],"prune":[2,4]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"constants":{"ids":"AQACAAAAAwAAADQ=",'
         b'"values":"AQADAAAAAwAAACAB"}}}'),
    ],
    "xpath": [
        (b'{"children":false,"kind":"frontier","node_ids":[0],'
         b'"packed":true,"points":[2,1,3]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"evaluations":{"ids":"AQAAAAAAAQAAAA==",'
         b'"values":{"1":"AQABAAAAAQAAAAE=","2":"AQADAAAAAQAAAAQ=",'
         b'"3":"AQABAAAAAQAAAAE="}}}}'),
        (b'{"children":true,"fetch_polynomials":[0],"kind":"frontier",'
         b'"node_ids":[],"packed":true,"points":[]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"children":{"counts":"AQACAAAAAQAAAAI=",'
         b'"ids":"AQACAAAAAgAAAA0=","parents":"AQAAAAAAAQAAAA=="},'
         b'"polynomials":{"ids":"AQACAAAAAwAAADQ=",'
         b'"rows":"AQADAAAADAAAACDEbYwI","width":4}}}'),
        (b'{"children":false,"kind":"frontier","node_ids":[1,3],'
         b'"packed":true,"points":[1,3]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"evaluations":{"ids":"AQACAAAAAgAAAA0=",'
         b'"values":{"1":"AQACAAAAAgAAAAc=","3":"AQACAAAAAgAAAA0="}}}}'),
        (b'{"children":true,"fetch_polynomials":[1,3],"kind":"frontier",'
         b'"node_ids":[],"packed":true,"points":[]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"children":{"counts":"AQABAAAAAgAAAAM=",'
         b'"ids":"AQADAAAAAgAAACI=","parents":"AQACAAAAAgAAAA0="},'
         b'"polynomials":{"ids":"AQADAAAABAAAANEI",'
         b'"rows":"AQADAAAAEAAAANwmgIzIbQ==","width":4}}}'),
        (b'{"children":false,"kind":"frontier","node_ids":[2,4],'
         b'"packed":true,"points":[3]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"evaluations":{"ids":"AQADAAAAAgAAACI=",'
         b'"values":{"3":"AQABAAAAAgAAAAI="}}}}'),
        (b'{"children":true,"fetch_polynomials":[2,4],"kind":"frontier",'
         b'"node_ids":[],"packed":true,"points":[]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"children":{"counts":"AQAAAAAAAgAAAA==",'
         b'"ids":"AQAAAAAAAAAAAA==","parents":"AQADAAAAAgAAACI="},'
         b'"polynomials":{"ids":"AQADAAAAAgAAACI=",'
         b'"rows":"AQADAAAACAAAAALIbQ==","width":4}}}'),
    ],
    "update": [
        (b'{"children":false,"fetch_polynomials":[0,3],"kind":"frontier",'
         b'"node_ids":[],"packed":true,"points":[]}',
         b'{"kind":"frontier-ok",'
         b'"packed":{"polynomials":{"ids":"AQACAAAAAgAAAAw=",'
         b'"rows":"AQADAAAACAAAACDEiA==","width":4}}}'),
        (b'{"base":{"0":0,"3":0},"kind":"update","operation":"insert",'
         b'"ops":[["add",5,3,[0,4,1]],["replace",3,[2,0,4]],["replace",0,'
         b'[0,4,0,2]]]}',
         b'{"applied":3,"kind":"update-ok","versions":{"0":1,"3":1,"5":1}}'),
    ],
}


def golden_session_frames(name):
    """The (request, response) frames of one golden session, hello left out."""
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
    return frames


class TestCompatibility:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_golden_v4_frames(self, name):
        assert golden_session_frames(name) == GOLDEN_FRAMES[name]

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
        adapter.children_of([tree.root_id])
        adapter.evaluate([tree.root_id], 3)
        reads = [(request, response) for request, response in frames
                 if b'"kind":"hello"' not in request]
        assert len(reads) >= 3
        assert all(b'"kind":"frontier"' in request
                   and b'"packed":true' in request
                   and b'"packed":{' in response
                   for request, response in reads)

    def test_v4_shares_are_built_from_python_ints(self, fp_outsourced):
        _, _, tree = fp_outsourced
        adapter, _ = connect(SearchServer(tree))
        shares = adapter.fetch_polynomials(tree.node_ids())
        assert {node_id: share.coeffs for node_id, share in shares.items()} \
            == {node_id: tree.share_of(node_id).coeffs
                for node_id in tree.node_ids()}
        assert all(type(c) is int for share in shares.values()
                   for c in share.coeffs)


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
    @pytest.mark.parametrize("section", ["evaluation", "share row"])
    def test_lookup_raises_protocol_error(self, section, fp_outsourced):
        _, client, tree = fp_outsourced
        server = DroppingServer(tree, section)
        adapter, _ = connect(server)
        with pytest.raises(ProtocolError, match=f"omits the {section}") as error:
            client.lookup(adapter, "name")
        assert str(error.value).endswith(f"of node {server.dropped[-1]}")

    @pytest.mark.parametrize("section", ["child list", "share row"])
    def test_verification_bundle_raises_protocol_error(self, section,
                                                       fp_outsourced):
        _, _, tree = fp_outsourced
        root = tree.root_id
        adapter, _ = connect(DroppingServer(tree, section))
        with pytest.raises(ProtocolError, match=f"omits the {section} of node"):
            adapter.verification_bundle([root])


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
