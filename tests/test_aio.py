"""Asyncio transport tests: coalescing bit-identity, sockets, pipelining.

The hard guarantee of the async serving path is that coalescing changes
*when* work happens, never *what* is answered: every response must be
byte-identical to what the synchronous per-request path produces.  These
tests assert that at the engine level (``frontier_batch`` vs ``handle``),
at the transport level (async socket vs threaded socket vs in-process
channel) and under real concurrent load.
"""

import asyncio
import threading

import pytest

from repro.core import VerificationMode, outsource_document
from repro.core.advanced import AdvancedQueryExecutor
from repro.errors import ProtocolError
from repro.net import (
    AsyncServerInterface,
    SearchServer,
    ThreadedSearchServer,
    connect,
    connect_socket,
    start_async_server,
)
from repro.net.messages import EvaluateRequest, FrontierRequest
from repro.workloads import figure1_document

QUERIES = ["//client", "//name", "//client/name", "/customers/client/name"]


@pytest.fixture(scope="module")
def outsourced():
    document = figure1_document(clients=6)
    client, tree, _ = outsource_document(document, seed=b"aio-tests")
    return client, tree


@pytest.fixture()
def async_handle(outsourced):
    _, tree = outsourced
    handle = start_async_server(SearchServer(tree))
    yield handle
    handle.stop()


def share_row(tree, node_id):
    """A share as served: its coefficient row, zero-padded."""
    share = tree.share_of(node_id)
    return [int(share.coefficient(i)) for i in range(tree.ring.degree_bound)]


def run_queries(client, adapter):
    return [AdvancedQueryExecutor(client.engine(adapter)).execute(query).matches
            for query in QUERIES]


class TestFrontierBatchIdentity:
    """frontier_batch answers must be bit-identical to per-request handle."""

    @pytest.fixture()
    def store(self, outsourced):
        """The share store both servers of a test read."""
        return outsourced[1]

    def build_requests(self, tree):
        root = tree.root_id
        children = tree.child_ids(root)
        return [
            FrontierRequest([root], [3]),
            FrontierRequest(children, [3, 4], lookahead=1),
            FrontierRequest([root], [4], lookahead=2,
                            fetch_polynomials=[root]),
            FrontierRequest(children[:1], [3], include_children=False,
                            fetch_constants=children[:2]),
            FrontierRequest([root], [3], prune=children[2:3]),
            FrontierRequest([], [], include_children=True,
                            fetch_polynomials=children[:2]),
        ]

    def build_mixed_batch(self, tree):
        """``(request, None)`` for good requests, ``(request, text)`` for
        bad ones whose error must name ``text``."""
        root = tree.root_id
        children = tree.child_ids(root)
        return [
            (FrontierRequest([root], [3]), None),
            (FrontierRequest([987654], [3]), "987654"),    # unknown node id
            (FrontierRequest([root], [4]), None),
            (FrontierRequest([root], [3]).for_document("nowhere"), "nowhere"),
            (FrontierRequest([root], [3], lookahead=2), None),
            (FrontierRequest([987656], [3], lookahead=1), "987656"),
            (FrontierRequest(children, [4], include_children=True,
                             fetch_polynomials=[children[0], 987655]),
             "987655"),
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
            server.frontier_batch([EvaluateRequest([0], 3)])

    def test_batch_isolates_bad_requests(self, store):
        from repro.net.messages import ErrorResponse, FrontierResponse

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
            else:
                assert isinstance(response, ErrorResponse)
                assert error in response.error

    def test_empty_batch(self, store):
        assert SearchServer(store).frontier_batch([]) == []


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
    def test_async_socket_matches_in_process(self, outsourced, async_handle):
        client, tree = outsourced
        in_process_adapter, in_process_channel = connect(SearchServer(tree))
        adapter, channel = connect_socket("127.0.0.1", async_handle.port,
                                          tree.ring)
        try:
            assert run_queries(client, adapter) == \
                run_queries(client, in_process_adapter)
            # The socket carries the same message encodings, so the
            # per-session byte accounting matches the in-process channel.
            assert channel.stats.as_dict() == in_process_channel.stats.as_dict()
        finally:
            channel.close()

    def test_threaded_socket_matches_in_process(self, outsourced):
        client, tree = outsourced
        server = ThreadedSearchServer(SearchServer(tree)).start()
        in_process_adapter, in_process_channel = connect(SearchServer(tree))
        try:
            adapter, channel = connect_socket(*server.address, tree.ring)
            assert run_queries(client, adapter) == \
                run_queries(client, in_process_adapter)
            assert channel.stats.as_dict() == in_process_channel.stats.as_dict()
            channel.close()
        finally:
            server.stop()

    def test_v1_protocol_over_socket(self, outsourced, async_handle):
        client, tree = outsourced
        reference_adapter, _ = connect(SearchServer(tree), protocol_version=1)
        adapter, channel = connect_socket("127.0.0.1", async_handle.port,
                                          tree.ring, protocol_version=1)
        try:
            assert adapter.protocol_version == 1
            assert run_queries(client, adapter) == \
                run_queries(client, reference_adapter)
        finally:
            channel.close()

    def test_server_error_is_in_band_and_session_survives(self, outsourced,
                                                          async_handle):
        _, tree = outsourced
        adapter, channel = connect_socket("127.0.0.1", async_handle.port,
                                          tree.ring)
        try:
            with pytest.raises(ProtocolError):
                adapter.evaluate([987654], 3)     # unknown node id
            # The session is still alive after the failed request.
            assert adapter.evaluate([tree.root_id], 3)
        finally:
            channel.close()

    def test_oversized_request_rejected(self, outsourced):
        _, tree = outsourced
        handle = start_async_server(SearchServer(tree), max_frame_bytes=128)
        try:
            adapter, channel = connect_socket("127.0.0.1", handle.port,
                                              tree.ring)
            with pytest.raises(ProtocolError):
                adapter.evaluate(list(range(1000)), 3)
            channel.close()
        finally:
            handle.stop()

    def test_oversized_response_becomes_in_band_error(self, outsourced):
        _, tree = outsourced
        handle = start_async_server(SearchServer(tree), max_frame_bytes=192)
        try:
            adapter, channel = connect_socket("127.0.0.1", handle.port,
                                              tree.ring, protocol_version=1)
            # The request fits in 256 bytes; the full-tree polynomial
            # fetch response does not, so the server must answer with an
            # in-band frame-limit error rather than dropping the session.
            with pytest.raises(ProtocolError, match="frame limit"):
                adapter.fetch_polynomials(tree.node_ids())
            # ... and the session still works for small exchanges.
            assert adapter.evaluate([tree.root_id], 3)
            channel.close()
        finally:
            handle.stop()

    def test_concurrent_sessions_identical_and_coalesced(self, outsourced,
                                                         async_handle):
        client, tree = outsourced
        reference = run_queries(client, connect(SearchServer(tree))[0])
        outcomes = {}
        errors = []
        barrier = threading.Barrier(8)

        def session(index):
            try:
                adapter, channel = connect_socket(
                    "127.0.0.1", async_handle.port, tree.ring)
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
        server = async_handle.server
        assert server.coalesced_batches >= 1
        assert server.coalesced_requests >= server.coalesced_batches
        assert len(server.session_stats) >= 8


class TestAsyncServerInterface:
    def test_async_client_full_round(self, outsourced, async_handle):
        client, tree = outsourced

        async def scenario():
            session = await AsyncServerInterface.open(
                "127.0.0.1", async_handle.port, tree.ring)
            try:
                assert session.protocol_version == 3
                assert session.batched_rounds
                root = await session.root_id()
                assert root == tree.root_id
                assert await session.node_count() == tree.node_count()
                children = await session.children_of([root])
                assert children[root] == tree.child_ids(root)
                result = await session.frontier_round([root], [3], lookahead=1)
                assert result.round_trips == 1
                assert result.evaluations[3][root] == tree.evaluate(root, 3)
                bundle_children, data, trips = \
                    await session.verification_bundle([root])
                assert trips == 1
                assert bundle_children[root] == tree.child_ids(root)
                assert data[root] == share_row(tree, root)
            finally:
                await session.close()

        asyncio.run(scenario())

    def test_pipelined_rounds_resolve_in_order(self, outsourced, async_handle):
        _, tree = outsourced

        async def scenario():
            session = await AsyncServerInterface.open(
                "127.0.0.1", async_handle.port, tree.ring)
            try:
                root = tree.root_id
                children = tree.child_ids(root)
                # Two rounds in flight before either response is consumed:
                # the client would generate its own shares here while the
                # server evaluates both.
                first = session.begin_frontier([root], [3])
                second = session.begin_frontier(children, [3])
                second_response = await second
                first_response = await first
                assert set(first_response.evaluations[3]) == {root}
                assert set(second_response.evaluations[3]) == set(children)
            finally:
                await session.close()

        asyncio.run(scenario())

    def test_async_client_error_propagates(self, outsourced, async_handle):
        _, tree = outsourced

        async def scenario():
            session = await AsyncServerInterface.open(
                "127.0.0.1", async_handle.port, tree.ring)
            try:
                with pytest.raises(ProtocolError):
                    await session.evaluate([987654], 3)
                # Session survives the in-band error.
                values = await session.evaluate([tree.root_id], 3)
                assert values[tree.root_id] == tree.evaluate(tree.root_id, 3)
            finally:
                await session.close()

        asyncio.run(scenario())

    def test_async_client_v1_composes_rounds(self, outsourced, async_handle):
        _, tree = outsourced

        async def scenario():
            session = await AsyncServerInterface.open(
                "127.0.0.1", async_handle.port, tree.ring,
                protocol_version=1)
            try:
                assert session.protocol_version == 1
                assert not session.batched_rounds
                with pytest.raises(ProtocolError):
                    session.begin_frontier([tree.root_id], [3])
                root = tree.root_id
                result = await session.frontier_round([root], [3],
                                                      prune=[])
                # v1 composes per-kind exchanges: evaluate + children.
                assert result.round_trips == 2
                assert result.evaluations[3][root] == tree.evaluate(root, 3)
                children, data, trips = \
                    await session.verification_bundle([root])
                assert trips == 2
                assert data[root] == share_row(tree, root)
                assert children[root] == tree.child_ids(root)
                constants = await session.fetch_constants([root])
                assert constants[root] == int(
                    tree.share_of(root).constant_term)
            finally:
                await session.close()

        asyncio.run(scenario())

    def test_requests_after_disconnect_fail_fast(self, outsourced):
        _, tree = outsourced
        handle = start_async_server(SearchServer(tree))

        async def scenario():
            session = await AsyncServerInterface.open(
                "127.0.0.1", handle.port, tree.ring)
            try:
                handle.stop()                       # server goes away
                with pytest.raises(ProtocolError):
                    await session.evaluate([tree.root_id], 3)
                # Later requests fail fast instead of hanging forever.
                with pytest.raises(ProtocolError):
                    await asyncio.wait_for(
                        session.children_of([tree.root_id]), timeout=5)
            finally:
                await session.close()

        try:
            asyncio.run(scenario())
        finally:
            handle.stop()

    def test_unknown_version_rejected(self, outsourced, async_handle):
        _, tree = outsourced

        async def scenario():
            with pytest.raises(ProtocolError):
                await AsyncServerInterface.open(
                    "127.0.0.1", async_handle.port, tree.ring,
                    protocol_version=99)

        asyncio.run(scenario())


class TestBitIdentityAcrossTransports:
    """The BENCH_3 precondition: async answers == sync answers, exactly."""

    def test_lookup_matches_identical(self, outsourced):
        client, tree = outsourced
        reference = {}
        for tag in ("client", "name", "customers"):
            outcome = client.lookup(tree, tag,
                                    verification=VerificationMode.NONE)
            reference[tag] = tuple(outcome.matches)

        threaded = ThreadedSearchServer(SearchServer(tree)).start()
        handle = start_async_server(SearchServer(tree))
        try:
            for transport_port in (threaded.address[1], handle.port):
                adapter, channel = connect_socket("127.0.0.1", transport_port,
                                                  tree.ring)
                for tag, expected in reference.items():
                    outcome = client.lookup(
                        adapter, tag, verification=VerificationMode.NONE)
                    assert tuple(outcome.matches) == expected
                channel.close()
        finally:
            handle.stop()
            threaded.stop()
