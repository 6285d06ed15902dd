"""The socket transport: coalesced frontier passes and the session contract.

Coalescing changes *when* work happens, never *what* is answered: a
:meth:`~repro.net.engine.ServingCore.frontier_batch` pass must answer
every request byte-identically to per-request ``handle``.  These tests
assert that at the engine level, then pin the contract of
:class:`~repro.net.ThreadedSearchServer` with a gated store that blocks
the first pass where the test decides: requests queued behind it are
answered by one pass, ``tick_size`` caps a pass, a pass that raises
answers in-band, and an uncontended request never leaves its session
thread.  The session tests cover in-band errors, the frame limits, an
unframeable stream, pipelined frames, the idle timeout and ``stop()``.
Answers against the plaintext baseline across every path are
``tests/test_oracle.py``'s job.
"""

import copy
import socket
import sys
import threading
import time

import pytest

from repro.core import UpdatableTree, outsource_document
from repro.core.advanced import AdvancedQueryExecutor
from repro.errors import ProtocolError, ReproError, UpdateConflictError
from repro.net import (
    FaultPlan,
    FaultRule,
    FaultyStore,
    InstrumentedChannel,
    SearchServer,
    ServingCore,
    ThreadedSearchServer,
    connect,
    connect_socket,
    share_tree_from_dict,
    share_tree_to_dict,
)
from repro.net.channel import SocketChannel
from repro.net.framing import FRAME_HEADER_BYTES, decode_frame_length, encode_frame
from repro.net.messages import (
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    BusyResponse,
    ErrorResponse,
    FrontierRequest,
    HelloRequest,
    PruneNotice,
    decode_message,
)
from repro.net.pages import encode_coefficients
from repro.net.retry import ResilientChannel, RetryPolicy
from repro.workloads import figure1_document

QUERIES = ["//client", "//name", "//client/name", "/customers/client/name"]


@pytest.fixture(scope="module")
def outsourced():
    document = figure1_document(clients=6)
    client, tree, _ = outsource_document(document, seed=b"aio-tests")
    return client, tree


@pytest.fixture()
def served(outsourced):
    _, tree = outsourced
    transport = ThreadedSearchServer(SearchServer(tree)).start()
    yield transport
    transport.stop()


def run_queries(client, adapter):
    return [AdvancedQueryExecutor(client.engine(adapter)).execute(query).matches
            for query in QUERIES]


def raw_session(transport):
    """A bare TCP connection to the transport (no hello, no framing help)."""
    return socket.create_connection(transport.address, timeout=10.0)


def read_frame(sock):
    """One response payload, or ``None`` once the server closed the session."""
    def exactly(count):
        data = b""
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            if not chunk:
                return None
            data += chunk
        return data

    header = exactly(FRAME_HEADER_BYTES)
    if header is None:
        return None
    return exactly(decode_frame_length(header))


def exchange(transport, message):
    """Send one framed request on a fresh session; the raw response payload."""
    with raw_session(transport) as sock:
        sock.sendall(encode_frame(message.encode()))
        return read_frame(sock)


class TestFrontierBatchIdentity:
    """frontier_batch answers must be bit-identical to per-request handle."""

    @pytest.fixture()
    def store(self, outsourced):
        """The share store both servers of a test read."""
        return outsourced[1]

    def build_requests(self, tree):
        """Requests covering every section, each twice, as two sessions
        asking for the same round would send them."""
        root = tree.root_id
        children = tree.child_ids(root)
        return [
            FrontierRequest(node_ids, points, **fields)
            for node_ids, points, fields in [
                ([root], [3], {}),
                (children, [3, 4], {"lookahead": 1}),
                ([root], [4], {"lookahead": 2, "fetch_polynomials": [root]}),
                (children[:1], [3], {"include_children": False,
                                     "fetch_constants": children[:2]}),
                ([root], [3], {"prune": children[2:3]}),
                ([], [], {"include_children": True,
                          "fetch_polynomials": children[:2]}),
            ]
            for _ in range(2)
        ]

    def build_mixed_batch(self, tree):
        """``(request, None)`` for good requests; ``(request, ids)`` for
        requests naming nodes the document does not hold, answered with a
        conflict naming exactly ``ids``; ``(request, text)`` for other bad
        ones, whose error must name ``text``."""
        root = tree.root_id
        children = tree.child_ids(root)
        return [
            (FrontierRequest([root], [3]), None),
            (FrontierRequest([987654], [3]), [987654]),    # unknown node id
            (FrontierRequest([root], [4]), None),
            (FrontierRequest([root], [3]).for_document("nowhere"), "nowhere"),
            (FrontierRequest([root], [3], lookahead=2), None),
            (FrontierRequest([987656], [3], lookahead=1), [987656]),
            (FrontierRequest(children, [4], include_children=True,
                             fetch_polynomials=[children[0], 987655]),
             [987655]),
            (FrontierRequest(children, [3, 4], lookahead=1,
                             fetch_polynomials=children[:1]), None),
        ]

    def test_batch_equals_sequential(self, store):
        batch_server = SearchServer(store)
        sequential_server = SearchServer(store)
        requests = self.build_requests(store)
        batched = batch_server.frontier_batch(requests)
        sequential = [sequential_server.handle(request)
                      for request in self.build_requests(store)]
        assert [r.encode() for r in batched] == [r.encode() for r in sequential]

    def test_batch_observations_match_sequential(self, store):
        batch_server = SearchServer(store)
        sequential_server = SearchServer(store)
        batch_server.frontier_batch(self.build_requests(store))
        for request in self.build_requests(store):
            sequential_server.handle(request)
        batch_view = batch_server.observations.as_dict()
        sequential_view = sequential_server.observations.as_dict()
        assert batch_view == sequential_view

    def test_batch_rejects_non_frontier_messages(self, store):
        server = SearchServer(store)
        with pytest.raises(ProtocolError):
            server.frontier_batch([PruneNotice([0])])

    def test_batch_isolates_bad_requests(self, store):
        from repro.net.messages import ConflictResponse, FrontierResponse

        cases = self.build_mixed_batch(store)
        responses = SearchServer(store).frontier_batch(
            [request for request, _ in cases])
        assert len(responses) == len(cases)
        # The good requests are still bit-identical to sequential handling.
        reference = SearchServer(store)
        for (request, error), response in zip(self.build_mixed_batch(store),
                                              responses):
            if error is None:
                assert isinstance(response, FrontierResponse)
                assert response.encode() == reference.handle(request).encode()
            elif isinstance(error, list):
                assert isinstance(response, ConflictResponse)
                assert response.conflicts == error
            else:
                assert isinstance(response, ErrorResponse)
                assert error in response.error

    def test_empty_batch(self, store):
        assert SearchServer(store).frontier_batch([]) == []


def _fail_evaluation(node_ids, point):
    raise RuntimeError("backend evaluation failed")


def test_batch_accounts_backend_errors_once(outsourced):
    """A store error outside the ReproError taxonomy fails a frontier request
    in-band and is accounted exactly once, in frontier_batch as in handle."""
    store = copy.copy(outsourced[1])
    store.evaluate_many = _fail_evaluation
    core = SearchServer(store)
    request = FrontierRequest([store.root_id], [3])
    with pytest.raises(RuntimeError):
        core.handle(request)
    response, = core.frontier_batch([FrontierRequest([store.root_id], [3])])
    assert isinstance(response, ErrorResponse)
    assert "backend evaluation failed" in response.error
    accounting = core.accounting()
    assert (accounting["admitted"], accounting["failed"],
            accounting["inflight"]) == (2, 2, 0)


class TestFrontierBatchIdentitySQLite(TestFrontierBatchIdentity):
    """The same guarantees over the durable store's batch reads."""

    @pytest.fixture()
    def store(self, outsourced, tmp_path):
        from repro.net import SQLiteShareStore

        durable = SQLiteShareStore.from_tree(str(tmp_path / "batch.db"),
                                             outsourced[1])
        yield durable
        durable.close()


class TestSocketTransports:
    def test_server_error_is_in_band_and_session_survives(self, outsourced,
                                                          served):
        _, tree = outsourced
        adapter, channel = connect_socket(*served.address, tree.ring)
        try:
            with pytest.raises(ProtocolError):
                adapter.frontier([987654], [3])     # unknown node id
            # The session is still alive after the failed request.
            assert adapter.frontier([tree.root_id], [3]).evaluations[3]
        finally:
            channel.close()

    def test_removed_node_is_a_conflict_and_session_survives(self,
                                                              outsourced):
        client, tree = outsourced
        core = SearchServer(share_tree_from_dict(share_tree_to_dict(tree)))
        document = core.document()
        editor = UpdatableTree(client.ring, client.mapping,
                               client.share_generator, document.store,
                               lock=document.lock)
        transport = ThreadedSearchServer(core).start()
        try:
            adapter, channel = connect_socket(*transport.address, tree.ring)
            try:
                assert adapter.frontier([tree.root_id], [3]).evaluations[3]
                doomed = tree.child_ids(tree.root_id)[0]
                removed = editor.delete_subtree(doomed).removed_node_ids
                with pytest.raises(UpdateConflictError) as caught:
                    adapter.frontier(removed, [3])
                assert caught.value.conflicts == sorted(removed)
                assert caught.value.versions == {}
                assert adapter.frontier([tree.root_id], [3]).evaluations[3]
                assert core.accounting()["failed"] == 1
            finally:
                channel.close()
        finally:
            transport.stop()

    def test_older_hello_refused_then_the_session_negotiates(self, served):
        with SocketChannel(*served.address) as channel:
            with pytest.raises(ProtocolError, match="no common version"):
                channel.request(HelloRequest([1, 2, 3, 4, 5]))
            assert channel.request(HelloRequest()).version == PROTOCOL_VERSION

    def test_oversized_request_rejected(self, outsourced):
        _, tree = outsourced
        transport = ThreadedSearchServer(SearchServer(tree),
                                         max_frame_bytes=128).start()
        try:
            adapter, channel = connect_socket(*transport.address, tree.ring)
            with pytest.raises(ProtocolError):
                adapter.frontier(list(range(1000)), [3])
            channel.close()
        finally:
            transport.stop()

    def test_oversized_response_becomes_in_band_error(self, outsourced):
        _, tree = outsourced
        transport = ThreadedSearchServer(SearchServer(tree),
                                         max_frame_bytes=128).start()
        try:
            adapter, channel = connect_socket(*transport.address, tree.ring)
            # The request fits in the limit; the full-tree closure fetch
            # (share rows and child lists) does not, so the server
            # must answer with an in-band frame-limit error rather than
            # dropping the session.
            with pytest.raises(ProtocolError, match="frame limit"):
                adapter.frontier(include_children=True,
                                 fetch_polynomials=tree.node_ids())
            # ... and the session still works for small exchanges.
            assert adapter.frontier([tree.root_id], [3]).evaluations[3]
            channel.close()
        finally:
            transport.stop()

    def test_unframeable_stream_gets_one_error_frame_then_drops(self, outsourced):
        _, tree = outsourced
        transport = ThreadedSearchServer(SearchServer(tree),
                                         max_frame_bytes=128).start()
        try:
            with raw_session(transport) as sock:
                sock.sendall(b"\xff\xff\xff\xff" + b"x" * 16)
                error = decode_message(read_frame(sock))
                assert isinstance(error, ErrorResponse)
                assert "128" in error.error
                assert read_frame(sock) is None    # then the session drops
        finally:
            transport.stop()

    def test_pipelined_frames_answered_in_order(self, outsourced, served):
        _, tree = outsourced
        root = tree.root_id
        requests = [FrontierRequest([root], [3]), PruneNotice([root]),
                    FrontierRequest(tree.child_ids(root), [4], lookahead=1),
                    FrontierRequest([987654], [3], include_children=False)]
        reference = SearchServer(tree)
        expected = []
        for request in requests:
            try:
                expected.append(reference.handle(request).encode())
            except ReproError as exc:
                expected.append(ServingCore.error_response(exc).encode())
        with raw_session(served) as sock:
            # Every request leaves before the first response is read.
            sock.sendall(b"".join(encode_frame(request.encode())
                                  for request in requests))
            assert [read_frame(sock) for _ in requests] == expected

    def test_idle_session_times_out(self, outsourced):
        _, tree = outsourced
        transport = ThreadedSearchServer(SearchServer(tree),
                                         session_timeout_s=0.2).start()
        try:
            with raw_session(transport) as sock:
                started = time.monotonic()
                assert read_frame(sock) is None    # dropped, not answered
                assert 0.15 < time.monotonic() - started < 5.0
        finally:
            transport.stop()

    def test_stop_drains_inflight_then_closes_sessions(self, outsourced,
                                                       store_gate):
        _, tree = outsourced
        transport = SlowSendServer(SearchServer(store_gate.wrap(tree)),
                                   drain_timeout_s=10.0).start()
        request = FrontierRequest([tree.root_id], [3])
        expected = SearchServer(tree).handle(request).encode()
        idle = raw_session(transport)
        busy = raw_session(transport)
        busy.sendall(encode_frame(request.encode()))
        assert store_gate.entered.wait(timeout=10.0)   # in flight, blocked
        stopper = threading.Thread(target=transport.stop)
        stopper.start()
        # The listener closes first: no new session while the drain runs.
        store_gate.wait_for(lambda: _refused(transport.address))
        assert stopper.is_alive()
        store_gate.open()
        assert read_frame(busy) == expected            # drained, answered
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        # Then every live session was closed, the idle one included.
        assert read_frame(idle) is None
        assert read_frame(busy) is None
        idle.close()
        busy.close()

    def test_stop_with_live_session_returns_promptly(self, outsourced):
        _, tree = outsourced
        transport = ThreadedSearchServer(SearchServer(tree)).start()
        adapter, channel = connect_socket(*transport.address, tree.ring)
        assert adapter.frontier([tree.root_id], [3],
                                include_children=True).children
        started = time.monotonic()
        transport.stop()
        assert time.monotonic() - started < 0.25
        assert transport.core.metrics.gauge(
            "transport_active_sessions", transport="threaded").value == 0
        channel.close()

    def test_concurrent_sessions_identical_and_coalesced(self, outsourced,
                                                         served):
        client, tree = outsourced
        reference = run_queries(client, connect(SearchServer(tree))[0])
        outcomes = {}
        errors = []
        barrier = threading.Barrier(8)

        def session(index):
            try:
                adapter, channel = connect_socket(*served.address, tree.ring)
                try:
                    barrier.wait(timeout=30)
                    outcomes[index] = run_queries(client, adapter)
                finally:
                    channel.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        workers = [threading.Thread(target=session, args=(index,))
                   for index in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert all(outcome == reference for outcome in outcomes.values())
        assert served.coalesced_batches >= 1
        assert served.coalesced_requests >= served.coalesced_batches
        assert len(served.session_stats) >= 8


#: Frames the JSON parser itself gives up on, with a ValueError or a
#: RecursionError rather than a JSON syntax error: arrays nested past its
#: recursion limit, and an integer literal past Python's 4,300-digit
#: int-conversion limit.  One request-kind and one response-kind frame
#: each; decoding must refuse all four with a ProtocolError.
NESTED = b"[" * 100_000
LONG_INT = b"9" * 5000
UNPARSABLE_REQUESTS = [
    pytest.param(b'{"kind": "frontier", "node_ids": ' + NESTED, "malformed",
                 id="nested-arrays"),
    pytest.param(b'{"kind": "hello", "versions": [' + LONG_INT + b']}',
                 "malformed", id="5000-digit-int"),
]
UNPARSABLE_RESPONSES = [
    pytest.param(b'{"kind": "frontier-ok", "evaluations": ' + NESTED,
                 "malformed", id="nested-arrays"),
    pytest.param(b'{"kind": "hello-ok", "version": ' + LONG_INT + b'}',
                 "malformed", id="5000-digit-int"),
]

#: A valid node-id blob, [0, 1], and the head of a frontier request that
#: names one node-id section.
IDS_BLOB = encode_coefficients([0, 1])
FRONTIER_HEAD = b'{"kind":"frontier","points":[3],"sections":["node_ids"]}'

#: Request bodies decoding must refuse, each with the text its error names.
#: The protocol v4 forms of ``frontier`` and ``prune`` (JSON id lists, the
#: ``packed`` flag) are among them: a v6 server refuses them in-band, and
#: so it does a request whose answer's layout it would have to guess.
MALFORMED_BODIES = [
    (b'[1, 2]', "not an object"),
    (b'"frontier"', "not an object"),
    (b'{"kind": ["frontier"]}', "unknown message kind"),
    (b'{"kind": "children", "node_ids": [0]}', "unknown message kind"),
    (b'{"kind": "evaluate", "node_ids": [0], "point": 3}',
     "unknown message kind"),
    (b'{"kind": "frontier", "node_ids": [0], "points": [3]}',
     "unexpected field 'node_ids'"),
    (b'{"kind": "frontier", "node_ids": [0], "points": [3], "packed": false}',
     "unexpected field"),
    (b'{"kind": "frontier", "node_ids": [0], "points": [3], "packed": true}',
     "unexpected field"),
    (FRONTIER_HEAD, "ends before"),
    (FRONTIER_HEAD + b"\n" + IDS_BLOB[:5], "runs past"),
    (FRONTIER_HEAD + b"\n" + IDS_BLOB[:-1], "runs past"),
    (FRONTIER_HEAD + b"\n" + b"\x07" + IDS_BLOB[1:], "format version"),
    (FRONTIER_HEAD + b"\n" + IDS_BLOB + IDS_BLOB, "follow the last section"),
    (b'{"kind":"frontier","points":[3],"sections":["node_ids","node_ids"]}'
     b"\n" + IDS_BLOB + IDS_BLOB, "canonical order"),
    (b'{"kind":"frontier","points":[3],"sections":["nodes"]}\n' + IDS_BLOB,
     "no section 'nodes'"),
    (b'{"kind":"frontier","points":[3],"sections":{"node_ids":1}}\n'
     + IDS_BLOB, "sections"),
    (b'{"kind":"frontier","points":[3]}\n' + IDS_BLOB, "names no sections"),
    (b'{"kind": "frontier", "points": [2.7]}', "points"),
    (b'{"kind": "frontier", "points": [3], "lookahead": 1.9}', "lookahead"),
    (b'{"kind":"frontier","lookahead":5,"points":[3],"sections":["node_ids"]}'
     b"\n" + IDS_BLOB, "lookahead"),
    (b'{"children":false,"kind":"frontier","lookahead":1,"points":[3],'
     b'"sections":["node_ids"]}\n' + IDS_BLOB, "lookahead"),
    (b'{"kind":"frontier","points":[3,4,3],"sections":["node_ids"]}\n'
     + IDS_BLOB, "points"),
    (b'{"kind": "frontier", "points": [3], "children": 1}', "children"),
    (b'{"kind":"frontier","points":[3],"sections":["fetch_polynomials"]}\n'
     + bytes.fromhex("0100 00000000 ffffffff"), "announces more than"),
    (b'{"kind":"frontier","points":[3],"sections":["fetch_constants"]}\n'
     + IDS_BLOB[:-1] + b"\x80", "bits set beyond"),
    # Node 0 listed 4,000 times by a 10-byte width-0 blob, with lookahead
    # 4; the long request id lifts the per-byte budget above the count.
    pytest.param(FrontierRequest([0] * 4000, [3], lookahead=4).with_request_id(
        "r" * 600).encode(), "node ids repeat", id="root-listed-4000-times"),
    (b'{"kind": "prune", "node_ids": [true]}', "unexpected field 'node_ids'"),
    (b'{"kind":"prune","sections":["node_ids"]}\n' + IDS_BLOB[:9],
     "runs past"),
    (b'{"kind": "hello", "versions": [4.0]}', "versions"),
    (b'{"kind":"hello","versions":[6]}\n' + IDS_BLOB, "has no sections"),
    (b'{"kind": "update", "operation": "x", "ops": [["replace", 1.9, [2]]], '
     b'"base": {}}', "ops"),
    (b'{"kind": "update", "operation": "x", "ops": [["replace", 1, [2.7]]], '
     b'"base": {}}', "ops"),
    (b'{"kind": "update", "operation": "x", "ops": [["remove", 1, [true]]], '
     b'"base": {}}', "ops"),
    (b'{"kind": "update", "operation": "x", "ops": [], "base": {"1": 0.5}}',
     "base"),
] + UNPARSABLE_REQUESTS

#: Response bodies decoding must refuse, each with the text its error names.
MALFORMED_RESPONSES = [
    (b'[1]', "malformed"),
    (b'"hello-ok"', "malformed"),
    (b'7', "malformed"),
    (b'null', "malformed"),
    (b'{"kind": "frontier-ok", "evaluations": {}, "children": {}}',
     "unexpected field"),
    (b'{"kind": "frontier-ok", "packed": {}}', "unexpected field 'packed'"),
    (b'{"kind":"frontier-ok","sections":["children"]}\n' + IDS_BLOB,
     "ends before"),
    (b'{"kind":"blob-ok","blob":"00ff"}', "unexpected field 'blob'"),
    (b'{"kind": "hello-ok", "version": 4, "root_id": "x", "node_count": 2.5}',
     "root_id"),
    (b'{"kind": "hello-ok", "version": 4, "root_id": 0, "node_count": 2.5}',
     "node_count"),
    (b'{"kind": "hello-ok", "version": "4"}', "version"),
    (b'{"kind": "hello-ok", "version": 4, "documents": [7]}', "documents"),
    (b'{"kind": "update-ok", "versions": {"1": 1.5}, "applied": 1}',
     "versions"),
    (b'{"kind": "update-ok", "versions": {}, "applied": true}', "applied"),
    (b'{"kind": "conflict", "conflicts": [1.7, true], "versions": {}}',
     "conflicts"),
    (b'{"kind": "conflict", "conflicts": [1], "versions": {"1": "2"}}',
     "versions"),
    (b'{"kind": "error", "error": "x", "retryable": "no"}', "retryable"),
    (b'{"kind": "error", "error": 7}', "error"),
    (b'{"kind": "busy", "retry_after_s": NaN}', "retry_after_s"),
    (b'{"kind": "busy", "retry_after_s": Infinity}', "retry_after_s"),
    (b'{"kind": "busy", "retry_after_s": -1}', "retry_after_s"),
    (b'{"kind": "busy", "retry_after_s": "soon"}', "retry_after_s"),
    (b'{"kind": "busy", "retry_after_s": true}', "retry_after_s"),
] + UNPARSABLE_RESPONSES


class TestMalformedRequests:
    @pytest.mark.parametrize("body,named", MALFORMED_BODIES)
    def test_refused_at_decode_and_the_session_survives(self, outsourced,
                                                        served, body, named):
        _, tree = outsourced
        valid = FrontierRequest([tree.root_id], [3], lookahead=1)
        expected = SearchServer(tree).handle(valid).encode()
        with raw_session(served) as sock:
            sock.sendall(encode_frame(body) + encode_frame(valid.encode()))
            error = decode_message(read_frame(sock))
            assert isinstance(error, ErrorResponse)
            assert named in error.error
            assert read_frame(sock) == expected
        accounting = served.core.accounting()
        assert accounting["inflight"] == 0
        assert accounting["admitted"] == (accounting["completed"]
                                          + accounting["shed"]
                                          + accounting["failed"])

    @pytest.mark.parametrize("body,named", MALFORMED_RESPONSES)
    def test_malformed_responses_are_protocol_errors(self, body, named):
        with pytest.raises(ProtocolError, match=named):
            decode_message(body)

    @pytest.mark.parametrize("body,named", UNPARSABLE_REQUESTS)
    def test_unparsable_requests_are_protocol_errors(self, body, named):
        with pytest.raises(ProtocolError, match=named):
            decode_message(body, REQUEST_KINDS)

    def test_nan_busy_hint_surfaces_as_protocol_error(self):
        """A busy reply whose hint is not a finite delay never reaches the
        client's backoff sleep: the resilient channel raises it as a
        protocol error instead of retrying."""
        slept = []
        channel = ResilientChannel(
            lambda: InstrumentedChannel(
                lambda message: BusyResponse(float("nan"))),
            policy=RetryPolicy(sleep=slept.append))
        with pytest.raises(ProtocolError, match="retry_after_s"):
            channel.request(PruneNotice([0]))
        assert slept == [] and channel.retries == 0


class SlowSendServer(ThreadedSearchServer):
    """Writes each response late: a drain must wait for the write itself."""

    def _send(self, sock, response, stats):
        time.sleep(0.2)
        super()._send(sock, response, stats)


def _refused(address):
    try:
        socket.create_connection(address, timeout=1.0).close()
    except OSError:
        return True
    return False


class RecordingServer(SearchServer):
    """Records which thread answers each request, and fails passes on demand."""

    def __init__(self, store):
        super().__init__(store)
        self.threads = []
        self.fail_passes = 0

    def handle(self, message):
        self.threads.append((message.kind, threading.current_thread()))
        return super().handle(message)

    def frontier_batch(self, messages):
        self.threads.append(("pass", threading.current_thread()))
        if self.fail_passes:
            self.fail_passes -= 1
            raise RuntimeError("injected pass failure")
        return super().frontier_batch(messages)


class TestCoalescing:
    """A gated first pass makes every coalescing decision deterministic."""

    @staticmethod
    def queued_requests(tree):
        root = tree.root_id
        children = tree.child_ids(root)
        return [FrontierRequest([root], [4]),
                FrontierRequest(children, [3, 4], lookahead=1),
                FrontierRequest([root], [3], fetch_polynomials=[root])]

    def hold_first_pass(self, transport, tree, store_gate):
        """Block one pass in the store, then queue three requests behind it.

        Returns the threads collecting each queued request's raw response.
        """
        answers = {}
        blocker = threading.Thread(target=exchange, args=(
            transport, FrontierRequest([tree.root_id], [3])))
        blocker.start()
        assert store_gate.entered.wait(timeout=10.0)
        workers = [blocker]
        for index, request in enumerate(self.queued_requests(tree)):
            worker = threading.Thread(
                target=lambda i=index, r=request:
                answers.__setitem__(i, exchange(transport, r)))
            worker.start()
            workers.append(worker)
            store_gate.wait_for(lambda: transport.queue_depth == index + 1)
        return answers, workers

    def test_requests_queued_behind_a_pass_share_one_pass(self, outsourced,
                                                          store_gate):
        _, tree = outsourced
        transport = ThreadedSearchServer(
            SearchServer(store_gate.wrap(tree))).start()
        try:
            answers, workers = self.hold_first_pass(transport, tree,
                                                    store_gate)
            store_gate.open()
            for worker in workers:
                worker.join(timeout=10.0)
            assert not any(worker.is_alive() for worker in workers)
            reference = SearchServer(tree)
            assert [answers[index] for index in range(3)] == \
                [reference.handle(request).encode()
                 for request in self.queued_requests(tree)]
            assert transport.largest_batch == 3
            assert transport.coalesced_batches == 2
            assert transport.coalesced_requests == 4
            assert transport.queue_depth == 0
        finally:
            transport.stop()

    @pytest.mark.parametrize("tick_size,passes", [(1, 4), (2, 3)])
    def test_tick_size_caps_a_pass(self, outsourced, store_gate, tick_size,
                                   passes):
        _, tree = outsourced
        transport = ThreadedSearchServer(SearchServer(store_gate.wrap(tree)),
                                         tick_size=tick_size).start()
        try:
            answers, workers = self.hold_first_pass(transport, tree,
                                                    store_gate)
            store_gate.open()
            for worker in workers:
                worker.join(timeout=10.0)
            assert not any(worker.is_alive() for worker in workers)
            assert len(answers) == 3
            assert transport.largest_batch == tick_size
            assert transport.coalesced_batches == passes
        finally:
            transport.stop()

    def test_failing_pass_answers_in_band_and_the_queue_moves_on(
            self, outsourced, store_gate):
        _, tree = outsourced
        core = RecordingServer(store_gate.wrap(tree))
        transport = ThreadedSearchServer(core).start()
        try:
            answers, workers = self.hold_first_pass(transport, tree,
                                                    store_gate)
            core.fail_passes = 1          # the queued requests' pass raises
            store_gate.open()
            for worker in workers:
                worker.join(timeout=10.0)
            assert not any(worker.is_alive() for worker in workers)
            for index in range(3):
                error = decode_message(answers[index])
                assert isinstance(error, ErrorResponse)
                assert "injected pass failure" in error.error
            # Nobody is left waiting for a leader: the next request runs.
            request = FrontierRequest([tree.root_id], [3])
            assert exchange(transport, request) == \
                SearchServer(tree).handle(request).encode()
            assert transport.queue_depth == 0
        finally:
            transport.stop()

    def test_uncontended_request_stays_on_its_session_thread(self, outsourced):
        _, tree = outsourced
        core = RecordingServer(tree)
        transport = ThreadedSearchServer(core).start()
        try:
            adapter, channel = connect_socket(*transport.address, tree.ring)
            adapter.frontier([tree.root_id], [3], include_children=True)
            channel.close()
        finally:
            transport.stop()
        (hello, session_thread), (kind, pass_thread) = core.threads
        assert (hello, kind) == ("hello", "pass")
        assert pass_thread is session_thread
        assert session_thread is not threading.main_thread()
        assert transport.largest_batch == 1

    def test_stress_every_request_answered_once(self, outsourced):
        """16 sessions racing through passes: no request lost or doubled.

        Every store pass sleeps briefly (releasing the interpreter lock),
        so requests keep arriving while a pass runs and queue behind it.
        """
        _, tree = outsourced
        plan = FaultPlan([FaultRule("store:evaluate_many", "delay", rate=1.0,
                                    delay_s=0.0005)], seed=0)
        core = SearchServer(FaultyStore(tree, plan))
        transport = ThreadedSearchServer(core).start()
        root = tree.root_id
        requests = [FrontierRequest([root], [point], lookahead=point % 3)
                    for point in (3, 4)]
        reference = SearchServer(tree)
        expected = [reference.handle(request).encode() for request in requests]
        rounds = 40
        failures = []

        def session(index):
            try:
                with raw_session(transport) as sock:
                    for turn in range(rounds):
                        request = requests[(index + turn) % 2]
                        sock.sendall(encode_frame(request.encode()))
                        if read_frame(sock) != expected[(index + turn) % 2]:
                            failures.append(index)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=session, args=(index,))
                       for index in range(16)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch_interval)
            transport.stop()
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        assert transport.coalesced_requests == 16 * rounds
        assert transport.largest_batch > 1
        assert transport.queue_depth == 0
        accounting = core.accounting()
        assert accounting["admitted"] == accounting["completed"] == 16 * rounds
        assert accounting["inflight"] == 0
