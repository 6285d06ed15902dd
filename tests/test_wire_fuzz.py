"""A bounded mutation fuzzer for the protocol v6 decoder.

Seeds are the golden v6 frames of ``tests/test_packed_frontier.py`` and
one encoded message of every kind, requests and responses, including a
served frontier-ok with all four sections; each frontier-ok seed keeps
the request it answers.  Each example applies a few structure-aware
mutations: byte flips, truncations, a moved or missing newline, lying
blob headers (version, flags, width, count), extra or missing sections,
duplicate JSON keys, deep nesting and huge integers.

Invariants:

* :func:`~repro.net.messages.decode_message`, with and without
  :data:`~repro.net.messages.REQUEST_KINDS`, returns a message or raises
  :class:`~repro.errors.ProtocolError`, and nothing else; a decoded
  frontier-ok bound to its seed's request
  (:meth:`~repro.net.messages.FrontierResponse.bind`) gives its sections
  or raises :class:`~repro.errors.ProtocolError`;
* the ``tracemalloc`` peak of one decode and bind stays within
  :data:`PEAK_PER_FRAME_BYTE` times the frame size plus
  :data:`PEAK_SLACK` bytes;
* a live :class:`~repro.net.ThreadedSearchServer` session answers a valid
  request after each malformed frame, and its accounting reconciles
  (``admitted == completed + shed + failed``, nothing in flight).

Two targets sit below the message decoder:

* :class:`~repro.net.framing.FrameAssembler` gives back the golden
  frames' payloads, in order, however their stream is cut into chunks;
  a length prefix mutated to 0 or past the frame limit raises
  :class:`~repro.errors.ProtocolError`, and every later feed raises it
  again;
* the page decoders the store reads share rows with,
  :func:`~repro.net.pages.decode_coefficients` and
  :func:`~repro.net.pages.decode_coefficients_batch` (with and without
  ``out``), return values or raise :class:`~repro.errors.ProtocolError`
  for a mutated blob, and where both accept a blob they agree.  The
  mutated blobs announce no more values than a message of their size
  may: the decoders trust a width-0 blob's count, which the message
  decoder holds to its value budget.

The sweep is derandomised from ``REPRO_FUZZ_SEED`` (default 0), so a
failure replays from the seed alone; ``REPRO_FUZZ_EXAMPLES`` scales the
number of examples (CI's chaos job runs a longer sweep).  Findings keep
a minimised frame in :data:`REGRESSIONS`.
"""

import json
import os
import socket
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from repro.algebra import numpy_or_none
from repro.core import outsource_document
from repro.errors import ProtocolError
from repro.net import SearchServer, ThreadedSearchServer
from repro.net.framing import (FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
                               FrameAssembler, decode_frame_length,
                               encode_frame)
from repro.net.messages import (
    MAX_LOOKAHEAD,
    REQUEST_KINDS,
    VALUES_PER_MESSAGE_BYTE,
    Acknowledgement,
    BlobRequest,
    BlobResponse,
    BusyResponse,
    ConflictResponse,
    ErrorResponse,
    FrontierRequest,
    FrontierResponse,
    HealthRequest,
    HealthResponse,
    HelloRequest,
    HelloResponse,
    Message,
    PruneNotice,
    StatsRequest,
    StatsResponse,
    UpdateRequest,
    UpdateResponse,
    decode_message,
)
from repro.net.pages import (blob_extent, decode_coefficients,
                             decode_coefficients_batch, encode_coefficients,
                             encode_int_vector)
from repro.workloads import figure1_document
from test_packed_frontier import GOLDEN_FRAMES

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
SCALE = max(1, int(os.environ.get("REPRO_FUZZ_EXAMPLES", "1")))

#: A decode and bind may allocate at most this many bytes per byte of
#: their frame (at its peak, on top of what was allocated before): a
#: frame may announce eight values per byte, and the worst of
#: :data:`ADVERSARIAL` peaks at about 200 bytes per frame byte (a block of
#: 1-bit share rows) ...
PEAK_PER_FRAME_BYTE = 512
#: ... plus this much for the JSON parser, the exception and its message.
PEAK_SLACK = 64 * 1024


@pytest.fixture(scope="module")
def served():
    """A served figure-1 tree: its transport, and a valid request with the
    answer it must get."""
    _, tree, _ = outsource_document(figure1_document(clients=3),
                                    seed=b"wire-fuzz")
    transport = ThreadedSearchServer(SearchServer(tree)).start()
    valid = FrontierRequest([tree.root_id], [3], lookahead=1)
    expected = SearchServer(tree).handle(valid).encode()
    yield transport, valid.encode(), expected
    transport.stop()


def seed_frames():
    """``(frame, request)`` for every golden frame and one encoded message
    of every kind; ``request`` is what a frontier-ok answers, else None."""
    _, tree, _ = outsource_document(figure1_document(clients=3),
                                    seed=b"wire-fuzz")
    root = tree.root_id
    children = tree.child_ids(root)
    full_request = FrontierRequest(
        children, [3, 4], lookahead=1, fetch_polynomials=[root],
        fetch_constants=children)
    full = SearchServer(tree).handle(full_request)
    messages = [
        HelloRequest(), HelloResponse(6, ["default"], root_id=0, node_count=9),
        FrontierRequest([1, 2, 300], [3, 4], prune=[7], lookahead=1,
                        fetch_polynomials=[1], fetch_constants=[70000]),
        full, PruneNotice([4, 5, 6]),
        UpdateRequest("insert", [["add", 9, 1, [1, 2]], ["remove", 3, [3]]],
                      {1: 0, 3: 2}),
        UpdateResponse({9: 1}, 2), ConflictResponse([3], {3: 4}),
        Acknowledgement(), ErrorResponse("no", retryable=True),
        BusyResponse(0.5), StatsRequest(), StatsResponse({"a": 1}),
        HealthRequest(), HealthResponse("ok", {"sessions": 1}),
        BlobRequest(), BlobResponse(bytes(range(40))),
    ]
    frames = [(message.encode(), full_request if message is full else None)
              for message in messages]
    for session in GOLDEN_FRAMES.values():
        for request, response in session:
            frames += [(request, None),
                       (response, decode_message(request))]
    return frames


SEEDS = seed_frames()
#: Seeds a live session may replay mutated: none of them edits the store.
READ_ONLY_SEEDS = [(frame, request) for frame, request in SEEDS
                   if json.loads(frame.partition(b"\n")[0])["kind"] != "update"]


def blob_offsets(frame):
    """Where each tail blob starts (empty when the tail does not parse)."""
    newline = frame.find(b"\n")
    offsets, offset = [], newline + 1
    if newline < 0:
        return offsets
    try:
        while offset < len(frame):
            end = blob_extent(frame, offset)[3]
            offsets.append(offset)
            offset = end
    except ProtocolError:
        pass
    return offsets


# -- mutations: (frame, draw) -> frame -------------------------------------------

def flip_bytes(frame, draw):
    """Flip a few bytes, mostly in the tail when there is one: the JSON
    parser already refuses almost every flip in the head."""
    data = bytearray(frame)
    tail = frame.find(b"\n") + 1
    for _ in range(draw(st.integers(1, 4))):
        if data:
            low = tail if tail and draw(st.integers(0, 3)) else 0
            position = draw(st.integers(min(low, len(data) - 1), len(data) - 1))
            data[position] ^= draw(st.integers(1, 255))
    return bytes(data)


def truncate(frame, draw):
    return frame[:draw(st.integers(0, max(0, len(frame) - 1)))]


def move_newline(frame, draw):
    head, newline, tail = frame.partition(b"\n")
    joined = head + tail
    if draw(st.booleans()) or not joined:
        return joined
    position = draw(st.integers(0, len(joined)))
    return joined[:position] + b"\n" + joined[position:]


def lie_in_a_header(frame, draw):
    offsets = blob_offsets(frame)
    if not offsets:
        return frame
    start = draw(st.sampled_from(offsets))
    field = draw(st.sampled_from([(0, 1), (1, 1), (2, 4), (6, 4)]))
    value = draw(st.one_of(st.integers(0, 8), st.integers(0, 255),
                           st.sampled_from([63, 64, 65, 2 ** 31, 2 ** 32 - 1])))
    offset, size = field
    value %= 1 << (8 * size)
    return (frame[:start + offset] + value.to_bytes(size, "little")
            + frame[start + offset + size:])


def extra_or_missing_section(frame, draw):
    head_bytes, newline, tail = frame.partition(b"\n")
    try:
        head = json.loads(head_bytes)
        names = list(head["sections"]) if "sections" in head else []
    except (ValueError, RecursionError, TypeError, KeyError):
        return frame
    choice = draw(st.integers(0, 3))
    if choice == 0:
        blob = bytes.fromhex("0100 08000000 01000000") + bytes([7])
        return head_bytes + b"\n" + tail + blob
    if choice == 1 and names:
        head["sections"] = names[:-1]
    elif choice == 2:
        head["sections"] = names + [draw(st.sampled_from(
            ["node_ids", "prune", "evaluations", "constants", "blob", "x"]))]
    else:
        offsets = blob_offsets(frame)
        if offsets:
            cut = draw(st.sampled_from(offsets)) - len(head_bytes) - 1
            tail = tail[:cut]
    encoded = json.dumps(head, separators=(",", ":")).encode()
    return encoded + b"\n" + tail if tail or newline else encoded


def duplicate_key(frame, draw):
    head, newline, tail = frame.partition(b"\n")
    if not head.startswith(b"{") or len(head) < 2:
        return frame
    key = draw(st.sampled_from([b'"kind":"frontier",', b'"kind":"hello",',
                                b'"sections":["node_ids"],', b'"points":[3],',
                                b'"width":4,', b'"sections":[],']))
    return b"{" + key + head[1:] + newline + tail


def nest_deeply(frame, draw):
    head, newline, tail = frame.partition(b"\n")
    depth = draw(st.sampled_from([10, 1_000, 100_000]))
    field = draw(st.sampled_from([b"points", b"sections", b"width", b"versions"]))
    return (b'{"kind":"frontier","' + field + b'":' + b"[" * depth
            + b"]" * draw(st.sampled_from([0, depth])) + b"}" + newline + tail)


def huge_integer(frame, draw):
    head, newline, tail = frame.partition(b"\n")
    digits = b"9" * draw(st.sampled_from([20, 400, 5_000]))
    field = draw(st.sampled_from([b"points", b"width", b"lookahead",
                                  b"version", b"root_id"]))
    value = digits if field in (b"width", b"lookahead", b"version",
                                b"root_id") else b"[" + digits + b"]"
    if not head.startswith(b"{"):
        return frame
    return b'{"' + field + b'":' + value + b"," + head[1:] + newline + tail


MUTATIONS = [flip_bytes, truncate, move_newline, lie_in_a_header,
             extra_or_missing_section, duplicate_key, nest_deeply, huge_integer]


@st.composite
def mutated_frames(draw, seeds=SEEDS):
    """A mutated seed frame, and the request its seed answers (or None)."""
    frame, request = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 3))):
        frame = draw(st.sampled_from(MUTATIONS))(frame, draw)
    return frame, request


def decode_outcome(frame, kinds=None, request=None):
    """What decoding ``frame`` gives: a message, or its ProtocolError.  A
    frontier-ok is bound to ``request`` (an empty request when None)."""
    try:
        message = decode_message(frame, kinds)
        if isinstance(message, FrontierResponse):
            message.bind(request if request is not None else FrontierRequest())
    except ProtocolError as exc:
        return exc
    assert isinstance(message, Message)
    return message


def decode_peak(frame, request=None):
    """The ``tracemalloc`` peak of decoding ``frame`` both ways, and of
    binding it to ``request``, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        decode_outcome(frame, request=request)
        decode_outcome(frame, REQUEST_KINDS)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def fuzz_settings(examples):
    return settings(max_examples=examples * SCALE, deadline=None,
                    derandomize=False, database=None,
                    suppress_health_check=list(HealthCheck))


def zero_width_blob(count):
    """Ten bytes announcing ``count`` zeros: a width-0 blob."""
    return bytes.fromhex("0100 00000000") + count.to_bytes(4, "little")


def frame_of(head, blobs):
    return json.dumps(head, separators=(",", ":")).encode() + b"\n" + b"".join(blobs)


#: Minimised frames of the decoder faults found while building this
#: fuzzer, each with the error its decode must raise now.
REGRESSIONS = [
    # Child ids announcing two million zeros in ten bytes.  Under the v4
    # decoder's budget alone (16 Mi values per message) its base64 twin,
    # 141 bytes, decoded to a 32 MB peak; the per-byte budget refuses it.
    pytest.param(frame_of({"kind": "frontier-ok", "sections": ["children"]},
                          [encode_int_vector([2_000_000]),
                           zero_width_blob(2_000_000)]),
                 "announces more than", id="zero-width-child-ids"),
]


def most_zeros(head, blobs):
    """How many zeros each of ``blobs`` width-0 blobs may announce within
    the per-byte budget of a frame of ``head`` and them."""
    size = len(frame_of(head, [zero_width_blob(0)] * blobs))
    return VALUES_PER_MESSAGE_BYTE * size // blobs


EVALUATIONS_HEAD = {"kind": "frontier-ok", "points": list(range(1, 16)),
                    "sections": ["evaluations"]}

#: Frames built to decode to as much as the value budget allows, each
#: the worst of its section for the peak-memory bound.
ADVERSARIAL = {
    "zero-width child ids": frame_of(
        {"kind": "frontier-ok", "sections": ["children"]},
        [encode_int_vector([500]), zero_width_blob(500)]),
    "leaf parents": frame_of(
        {"kind": "frontier-ok", "sections": ["children"]},
        [zero_width_blob(500), zero_width_blob(0)]),
    "zero evaluations at 15 points": frame_of(
        EVALUATIONS_HEAD,
        [zero_width_blob(most_zeros(EVALUATIONS_HEAD, 15))] * 15),
    "1-bit share rows": frame_of(
        {"kind": "frontier-ok", "width": 64, "sections": ["polynomials"]},
        [encode_coefficients([1, 0] * 32_000)]),
    "1-bit request ids": frame_of(
        {"kind": "frontier", "points": [3], "sections": ["node_ids"]},
        [encode_coefficients([1, 0] * 2000)]),
}

#: Requests a live session refuses in-band although they decode as
#: frames, each with the text the refusal names: the hello of a v5
#: client, and a lookahead past the cap, whose answer's layout the
#: server would have to guess.
REFUSED = [
    pytest.param(HelloRequest([5]).encode(), "no common version",
                 id="v5-hello"),
    pytest.param(
        frame_of({"children": True, "kind": "frontier",
                  "lookahead": MAX_LOOKAHEAD + 1, "points": [3],
                  "sections": ["node_ids"]}, [encode_int_vector([0])]),
        "lookahead", id="lookahead-past-the-cap"),
]


class TestDecoder:
    @seed(FUZZ_SEED)
    @fuzz_settings(800)
    @given(mutated_frames())
    def test_decode_returns_a_message_or_protocol_error(self, mutated):
        frame, request = mutated
        decode_outcome(frame, request=request)
        decode_outcome(frame, REQUEST_KINDS)

    @seed(FUZZ_SEED + 1)
    @fuzz_settings(200)
    @given(mutated_frames())
    def test_decode_peak_memory_is_bounded_by_the_frame(self, mutated):
        frame, request = mutated
        assert decode_peak(frame, request) \
            <= PEAK_PER_FRAME_BYTE * len(frame) + PEAK_SLACK

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_peaks_are_bounded_by_the_frame(self, name):
        frame = ADVERSARIAL[name]
        assert decode_peak(frame) <= PEAK_PER_FRAME_BYTE * len(frame) + PEAK_SLACK

    def test_every_seed_decodes_and_binds(self):
        assert all(isinstance(decode_outcome(frame, request=request), Message)
                   for frame, request in SEEDS)

    @pytest.mark.parametrize("frame,named", REGRESSIONS)
    def test_regressions(self, frame, named):
        with pytest.raises(ProtocolError, match=named):
            decode_message(frame)


def read_frame(sock):
    def exactly(count):
        data = b""
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            assert chunk, "the server closed the session"
            data += chunk
        return data
    return exactly(decode_frame_length(exactly(FRAME_HEADER_BYTES)))


def assert_reconciled(transport):
    accounting = transport.core.accounting()
    assert accounting["inflight"] == 0
    assert accounting["admitted"] == (accounting["completed"]
                                      + accounting["shed"]
                                      + accounting["failed"])


@seed(FUZZ_SEED + 2)
@fuzz_settings(150)
@given(mutated=mutated_frames(READ_ONLY_SEEDS))
def test_live_session_survives_malformed_frames(served, mutated):
    transport, valid, expected = served
    frame, _ = mutated
    assume(frame)                 # framing itself refuses an empty frame
    with socket.create_connection(transport.address, timeout=30) as sock:
        sock.sendall(encode_frame(frame) + encode_frame(valid))
        decode_message(read_frame(sock))          # an answer, in-band
        assert read_frame(sock) == expected
    assert_reconciled(transport)


@pytest.mark.parametrize("frame,named", REFUSED)
def test_live_session_refuses_in_band_then_answers(served, frame, named):
    transport, valid, expected = served
    with socket.create_connection(transport.address, timeout=30) as sock:
        sock.sendall(encode_frame(frame) + encode_frame(valid))
        refusal = decode_message(read_frame(sock))
        assert isinstance(refusal, ErrorResponse) and named in refusal.error
        assert read_frame(sock) == expected
    assert_reconciled(transport)


# -- below the message decoder: frame assembly and the page decoders -------------

#: The golden frames' payloads, requests and responses in session order.
GOLDEN_PAYLOADS = [payload for name in sorted(GOLDEN_FRAMES)
                   for pair in GOLDEN_FRAMES[name] for payload in pair]


@st.composite
def chunks_of(draw, stream):
    """``stream`` cut at a few drawn offsets (empty chunks included)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    bounds = [0, *cuts, len(stream)]
    return [stream[start:end] for start, end in zip(bounds, bounds[1:])]


class TestFrameAssembler:
    @seed(FUZZ_SEED + 3)
    @fuzz_settings(100)
    @given(st.data())
    def test_any_chunking_gives_the_golden_payloads(self, data):
        stream = b"".join(map(encode_frame, GOLDEN_PAYLOADS))
        assembler = FrameAssembler()
        payloads = []
        for chunk in data.draw(chunks_of(stream)):
            payloads += assembler.feed(chunk)
        assert payloads == GOLDEN_PAYLOADS
        assert assembler.at_boundary()

    @seed(FUZZ_SEED + 4)
    @fuzz_settings(100)
    @given(st.data())
    def test_a_bad_length_prefix_poisons_the_assembler(self, data):
        frames = list(map(encode_frame, GOLDEN_PAYLOADS))
        index = data.draw(st.integers(0, len(frames) - 1))
        length = data.draw(st.one_of(
            st.just(0), st.integers(MAX_FRAME_BYTES + 1, 2 ** 32 - 1)))
        frames[index] = length.to_bytes(FRAME_HEADER_BYTES, "big") \
            + frames[index][FRAME_HEADER_BYTES:]
        assembler = FrameAssembler()
        chunks = iter(data.draw(chunks_of(b"".join(frames))))
        payloads = []
        with pytest.raises(ProtocolError) as refused:
            for chunk in chunks:
                payloads += assembler.feed(chunk)
        # Frames before the bad prefix decode; those completed by the feed
        # that reached it are lost with the stream.
        assert payloads == GOLDEN_PAYLOADS[:len(payloads)]
        assert len(payloads) <= index
        assert assembler.poisoned
        for chunk in [*chunks, b"", frames[0]]:
            with pytest.raises(ProtocolError) as again:
                assembler.feed(chunk)
            assert again.value is refused.value


def blob_seeds():
    """Every blob of the golden frames' tails, plus blobs of each codec
    path: empty, width 0, byte-aligned and odd widths, zigzag, and limbs
    wider than an int64 lane."""
    blobs = []
    for session in GOLDEN_FRAMES.values():
        for frame in (frame for pair in session for frame in pair):
            offsets = blob_offsets(frame)
            blobs += [frame[start:end] for start, end
                      in zip(offsets, offsets[1:] + [len(frame)])]
    vectors = [[], [0] * 5, [1, 2, 3], list(range(300)), [255] * 9,
               [-5, 7, -(2 ** 40)], [2 ** 62 - 1, 3], [2 ** 70, 1]]
    return blobs + [encode_coefficients(values) for values in vectors]


BLOB_SEEDS = blob_seeds()


def announced(blob):
    """The value count ``blob``'s header announces (0 without a header)."""
    return int.from_bytes(blob[6:10], "little") if len(blob) >= 10 else 0


@st.composite
def mutated_blobs(draw):
    """A seed blob with up to three mutations: flipped bytes, a cut or
    added tail, or a lying header field (version, flags, width or count).
    Some blobs stay intact, so a batch of several often decodes whole."""
    data = bytearray(draw(st.sampled_from(BLOB_SEEDS)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0 and data:
            position = draw(st.integers(0, len(data) - 1))
            data[position] ^= draw(st.integers(1, 255))
        elif kind == 1:
            if draw(st.booleans()):
                del data[draw(st.integers(0, len(data))):]
            else:
                data += bytes(draw(st.lists(st.integers(0, 255), min_size=1,
                                            max_size=9)))
        elif len(data) >= 10:
            offset, size = draw(st.sampled_from([(0, 1), (1, 1), (2, 4),
                                                 (6, 4)]))
            value = draw(st.one_of(
                st.integers(0, 8), st.integers(0, 255),
                st.sampled_from([62, 63, 64, 65, 2 ** 31, 2 ** 32 - 1])))
            data[offset:offset + size] = (value % (1 << 8 * size)).to_bytes(
                size, "little")
    blob = bytes(data)
    budget = VALUES_PER_MESSAGE_BYTE * len(blob)
    if announced(blob) > budget:
        blob = (blob[:6] + (announced(blob) % (budget + 1)).to_bytes(4, "little")
                + blob[10:])
    return blob


def decoded(decoder, *args, **kwargs):
    """What ``decoder`` gives: its result, or the ProtocolError it raised."""
    try:
        return decoder(*args, **kwargs)
    except ProtocolError as exc:
        return exc


class TestPageDecoders:
    @seed(FUZZ_SEED + 5)
    @fuzz_settings(300)
    @given(blobs=st.lists(mutated_blobs(), min_size=1, max_size=3),
           row_width=st.integers(0, 64))
    def test_decoders_decode_alike_or_refuse(self, blobs, row_width):
        reference = [decoded(decode_coefficients, blob) for blob in blobs]
        accepted = [(index, values) for index, values in enumerate(reference)
                    if not isinstance(values, ProtocolError)]
        batch = decoded(decode_coefficients_batch, blobs)
        if isinstance(batch, list):
            assert [(index, batch[index].tolist()) for index, _ in accepted] \
                == accepted
        np = numpy_or_none()
        if np is None:
            return
        out = np.full((len(blobs), row_width), 7, dtype=np.int64)
        if decoded(decode_coefficients_batch, blobs, out=out) is out:
            assert [(index, out[index].tolist()) for index, _ in accepted] \
                == [(index, values + [0] * (row_width - len(values)))
                    for index, values in accepted]

