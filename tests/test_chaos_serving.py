"""Chaos tests: seeded faults at every protocol phase, bit-identical results.

Extends the crash-injection discipline of ``test_crash_safety`` upward
into the serving stack: a :class:`~repro.net.retry.ResilientServerInterface`
runs the figure-1 lookup workload while a seeded
:class:`~repro.net.faults.FaultPlan` resets connections, truncates
response frames, fails store operations and sheds requests — at the
hello, structure, frontier, verification and prune phases, over the
in-process channel and the socket server — and every run must produce
results bit-identical to the fault-free run.

The idempotency tests additionally pin the *server-side* invariant: a
request replayed after an ambiguous failure (processed, reply lost) is
answered from the idempotency cache, so the observation ledgers count it
exactly once.

The update-path tests extend the same discipline to v3 write batches: a
faulted ``UpdateRequest`` (connection reset before or after the send, a
truncated response, a busy frame, a transient store failure inside
``apply_batch``) must apply **exactly once** — never twice (the replay
is answered from the idempotency cache, proven by the commit audit
trail) and never half (a failed batch leaves the store bit-identical to
its pre-batch state).

Every plan and retry schedule is seeded; ``REPRO_CHAOS_SEED`` (used by
the CI chaos matrix) shifts the seeds without losing reproducibility.
"""

import os
import socket
import threading

import pytest

from repro.core import (
    UpdatableTree,
    VerificationMode,
    choose_fp_ring,
    outsource_document,
)
from repro.core.advanced import AdvancedQueryExecutor
from repro.errors import (
    ProtocolError,
    RetryExhaustedError,
    ServerBusyError,
    TransientServerError,
    TransportError,
)
from repro.net import (
    FaultPlan,
    FaultRule,
    FaultyChannel,
    FaultyStore,
    InstrumentedChannel,
    RemoteServerAdapter,
    RemoteUpdatableTree,
    SearchServer,
    SocketChannel,
    ThreadedSearchServer,
    connect,
    connect_resilient,
    connect_resilient_socket,
    connect_socket,
    share_tree_from_dict,
    share_tree_to_dict,
)
from repro.net.messages import FrontierRequest, Message
from repro.net.retry import RetryPolicy
from repro.workloads import CatalogConfig, figure1_document, generate_catalog_document
from repro.xmltree import parse_element

#: CI runs the suite under three fixed seeds; locally it defaults to 0.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

QUERIES = ["//client", "//name", "//client/name", "/customers/client/name"]


@pytest.fixture(scope="module")
def outsourced():
    document = figure1_document(clients=6)
    client, tree, _ = outsource_document(document, seed=b"chaos-tests")
    return client, tree


@pytest.fixture(scope="module")
def reference(outsourced):
    """Fault-free lookup results (the bit-identity yardstick)."""
    client, tree = outsourced
    adapter, _ = connect(SearchServer(tree))
    return run_queries(client, adapter)


def run_queries(client, adapter):
    return [AdvancedQueryExecutor(client.engine(adapter)).execute(query).matches
            for query in QUERIES]


def run_verified_lookup(client, adapter):
    """One lookup under FULL verification (exercises the fetch phase)."""
    engine = client.engine(adapter, verification=VerificationMode.FULL)
    return AdvancedQueryExecutor(engine).execute("//client/name").matches


def fast_policy(**overrides):
    """A retry policy that never really sleeps (chaos runs stay quick)."""
    settings = dict(max_attempts=8, deadline_s=None, base_backoff_s=0.0,
                    max_backoff_s=0.0, jitter=0.0, seed=CHAOS_SEED,
                    sleep=lambda _s: None)
    settings.update(overrides)
    return RetryPolicy(**settings)


class TestFaultPlanDeterminism:
    def test_same_seed_same_fires(self):
        points = (["frontier:send"] * 20 + ["frontier:recv"] * 20) * 3
        runs = []
        for _ in range(2):
            plan = FaultPlan.at_rate(0.3, kinds=["reset-after-send"],
                                     seed=CHAOS_SEED + 17)
            for point in points:
                plan.decide(point)
            runs.append(list(plan.fires))
        assert runs[0] == runs[1]
        assert runs[0]  # 30% over 120 consultations must fire sometimes

    def test_reset_replays_exactly(self):
        plan = FaultPlan.at_rate(0.5, kinds=["truncate-response"],
                                 seed=CHAOS_SEED)
        for _ in range(50):
            plan.decide("frontier:recv")
        first = list(plan.fires)
        plan.reset()
        for _ in range(50):
            plan.decide("frontier:recv")
        assert plan.fires == first

    def test_explicit_calls_fire_once(self):
        plan = FaultPlan.single("frontier:recv", "reset-after-send", call=3)
        fired = [plan.decide("frontier:recv") for _ in range(6)]
        assert [rule is not None for rule in fired] == \
            [False, False, True, False, False, False]

    def test_pattern_points_and_kind_validation(self):
        plan = FaultPlan([FaultRule("*:send", "reset-before-send",
                                    calls=[1])])
        assert plan.decide("hello:send") is not None
        assert plan.decide("frontier:recv") is None
        with pytest.raises(ValueError):
            FaultRule("x", "no-such-kind")
        with pytest.raises(ValueError):
            FaultRule("x", "delay", rate=1.5)

    @pytest.mark.parametrize("point,kind", [
        ("frontier:recv", "reset-before-send"),
        ("frontier:send", "reset-after-send"),
        ("hello:send", "truncate-response"),
        ("frontier:send", "store-error"),
        ("store:evaluate_many", "busy"),
        ("store:apply_batch", "reset-after-send"),
    ])
    def test_exact_point_of_the_wrong_phase_is_refused(self, point, kind):
        with pytest.raises(ValueError, match="cannot act"):
            FaultRule(point, kind, calls=[1])

    def test_rate_rules_skip_points_their_kind_cannot_act_at(self):
        """A skipped rule draws no coin, logs no fire and leaves the call
        to a rule that acts there."""
        plan = FaultPlan.at_rate(
            1.0, kinds=["reset-before-send", "reset-after-send",
                        "store-error"], seed=CHAOS_SEED)
        for point in ["frontier:send", "frontier:recv", "store:evaluate_many",
                      "hello:send", "prune:recv"]:
            plan.decide(point)
        assert [(point, kind) for point, _, kind in plan.fires] == [
            ("frontier:send", "reset-before-send"),
            ("frontier:recv", "reset-after-send"),
            ("store:evaluate_many", "store-error"),
            ("hello:send", "reset-before-send"),
            ("prune:recv", "reset-after-send"),
        ]
        kinds = {rule.kind: rule.fired for rule in plan.rules}
        assert kinds == {"reset-before-send": 2, "reset-after-send": 2,
                         "store-error": 1}


#: One scheduled fault per protocol phase; each must be survived with
#: bit-identical results.  ``call`` targets a mid-descent exchange where
#: there is one (the frontier phase), the first call elsewhere.
PHASE_FAULTS = [
    ("hello:send", "reset-before-send", 1),
    ("hello:recv", "reset-after-send", 1),
    ("frontier:send", "reset-before-send", 2),
    ("frontier:send", "busy", 3),
    ("frontier:recv", "reset-after-send", 1),
    ("frontier:recv", "reset-after-send", 4),
    ("frontier:recv", "truncate-response", 2),
]


class TestResilientInProcess:
    """Resilient client over the in-process channel, one fault per phase."""

    @pytest.mark.parametrize("point,kind,call", PHASE_FAULTS)
    def test_phase_fault_bit_identical(self, outsourced, reference,
                                       point, kind, call):
        client, tree = outsourced
        server = SearchServer(tree)
        plan = FaultPlan.single(point, kind, call=call, seed=CHAOS_SEED)
        adapter, channel = connect_resilient(
            lambda: FaultyChannel(InstrumentedChannel(server.handle), plan),
            tree.ring, policy=fast_policy())
        assert run_queries(client, adapter) == reference
        assert plan.fires, "the scheduled fault never fired"
        assert channel.retries >= 1

    def test_every_phase_faulted_in_one_session(self, outsourced, reference):
        client, tree = outsourced
        server = SearchServer(tree)
        plan = FaultPlan([FaultRule(point, kind, calls=[call])
                          for point, kind, call in PHASE_FAULTS],
                         seed=CHAOS_SEED)
        adapter, channel = connect_resilient(
            lambda: FaultyChannel(InstrumentedChannel(server.handle), plan),
            tree.ring, policy=fast_policy())
        assert run_queries(client, adapter) == reference
        assert len(plan.fires) >= len(PHASE_FAULTS)
        assert channel.reconnects >= 1

    def test_random_fault_rate_bit_identical(self, outsourced, reference):
        client, tree = outsourced
        server = SearchServer(tree)
        plan = FaultPlan.at_rate(
            0.1, kinds=["reset-after-send", "reset-before-send"],
            seed=CHAOS_SEED + 1)
        adapter, _ = connect_resilient(
            lambda: FaultyChannel(InstrumentedChannel(server.handle), plan),
            tree.ring, policy=fast_policy(max_attempts=20))
        for _ in range(3):
            assert run_queries(client, adapter) == reference

    def test_verified_lookup_survives_fetch_faults(self, outsourced):
        client, tree = outsourced
        fault_free, _ = connect(SearchServer(tree))
        expected = run_verified_lookup(client, fault_free)
        server = SearchServer(tree)
        plan = FaultPlan([
            FaultRule("frontier:recv", "reset-after-send", calls=[2, 5]),
            FaultRule("prune:recv", "reset-after-send", calls=[1]),
        ], seed=CHAOS_SEED)
        adapter, _ = connect_resilient(
            lambda: FaultyChannel(InstrumentedChannel(server.handle), plan),
            tree.ring, policy=fast_policy())
        assert run_verified_lookup(client, adapter) == expected

    def test_plain_client_dies_where_resilient_survives(self, outsourced):
        client, tree = outsourced
        server = SearchServer(tree)
        plan = FaultPlan.single("frontier:recv", "reset-after-send", call=1)
        channel = FaultyChannel(InstrumentedChannel(server.handle), plan)
        adapter = RemoteServerAdapter(channel, tree.ring)
        with pytest.raises(TransportError):
            run_queries(client, adapter)

    def test_retry_exhaustion_is_loud(self, outsourced):
        client, tree = outsourced
        server = SearchServer(tree)
        plan = FaultPlan([FaultRule("frontier:recv", "reset-after-send",
                                    rate=1.0)], seed=CHAOS_SEED)
        adapter, _ = connect_resilient(
            lambda: FaultyChannel(InstrumentedChannel(server.handle), plan),
            tree.ring, policy=fast_policy(max_attempts=3))
        with pytest.raises(RetryExhaustedError):
            run_queries(client, adapter)


class TestIdempotency:
    """Ambiguous failures must not double-count server-side."""

    def test_replay_not_double_observed(self, outsourced, reference):
        client, tree = outsourced
        fault_free_server = SearchServer(tree)
        clean_adapter, _ = connect_resilient(
            lambda: InstrumentedChannel(fault_free_server.handle),
            tree.ring, policy=fast_policy(), request_id_prefix="clean")
        assert run_queries(client, clean_adapter) == reference

        faulty_server = SearchServer(tree)
        plan = FaultPlan([FaultRule("frontier:recv", "reset-after-send",
                                    calls=[1, 3, 6])], seed=CHAOS_SEED)
        adapter, channel = connect_resilient(
            lambda: FaultyChannel(InstrumentedChannel(faulty_server.handle),
                                  plan),
            tree.ring, policy=fast_policy(), request_id_prefix="faulty")
        assert run_queries(client, adapter) == reference
        assert len(plan.fires) == 3
        # Every replayed frontier round was answered from the idempotency
        # cache: both ledgers saw the identical workload exactly once.
        # The only aggregate difference is the replayed HELLOs (one per
        # reconnect) — real requests, honestly counted, no document state.
        faulty_view = faulty_server.observations.as_dict()
        clean_view = fault_free_server.observations.as_dict()
        reconnects = channel.reconnects
        assert reconnects == 3
        assert faulty_view.pop("requests_handled") == \
            clean_view.pop("requests_handled") + reconnects
        assert faulty_view == clean_view
        # The per-document ledger never sees a HELLO, so it is *exactly*
        # equal: replays were answered without touching the document.
        assert faulty_server.document().observations.as_dict() == \
            fault_free_server.document().observations.as_dict()

    def test_engine_replay_bit_identical(self, outsourced):
        _, tree = outsourced
        server = SearchServer(tree)
        request = FrontierRequest([tree.root_id], [3], lookahead=1)
        request.with_request_id("replay-me")
        first = server.handle(request).encode()
        before = server.observations.as_dict()
        again = server.handle(request).encode()
        assert again == first
        assert server.observations.as_dict() == before

    def test_engine_replay_through_batch(self, outsourced):
        _, tree = outsourced
        server = SearchServer(tree)
        request = FrontierRequest([tree.root_id], [3])
        request.with_request_id("batched-replay")
        first = server.frontier_batch([request])[0].encode()
        before = server.observations.as_dict()
        again = server.frontier_batch([request])[0].encode()
        assert again == first
        assert server.observations.as_dict() == before

    def test_distinct_ids_processed_separately(self, outsourced):
        _, tree = outsourced
        server = SearchServer(tree)
        first = FrontierRequest([tree.root_id], [3]).with_request_id("id-1")
        second = FrontierRequest([tree.root_id], [3]).with_request_id("id-2")
        server.handle(first)
        count = server.observations.as_dict()["requests_handled"]
        server.handle(second)
        assert server.observations.as_dict()["requests_handled"] == count + 1


class TestStoreFaults:
    """Transient store failures become retryable in-band errors."""

    def test_in_process_store_fault(self, outsourced, reference):
        client, tree = outsourced
        plan = FaultPlan([FaultRule("store:evaluate_many", "store-error",
                                    calls=[1, 3])], seed=CHAOS_SEED)
        server = SearchServer(FaultyStore(tree, plan))
        adapter, _ = connect_resilient(
            lambda: InstrumentedChannel(server.handle),
            tree.ring, policy=fast_policy())
        assert run_queries(client, adapter) == reference
        assert len(plan.fires) == 2

    def test_threaded_store_fault(self, outsourced, reference):
        client, tree = outsourced
        plan = FaultPlan([FaultRule("store:evaluate_many", "store-error",
                                    calls=[2])], seed=CHAOS_SEED)
        server = ThreadedSearchServer(
            SearchServer(FaultyStore(tree, plan)))
        server.start()
        try:
            host, port = server.address
            adapter, channel = connect_resilient_socket(
                host, port, tree.ring, policy=fast_policy())
            try:
                assert run_queries(client, adapter) == reference
            finally:
                channel.close()
        finally:
            server.stop()
        assert plan.fires


class TestBusyAndAdmission:
    """Graceful degradation: busy replies, admission hooks, bounded queue."""

    def test_quota_sheds_then_admits(self, outsourced, reference):
        from repro.net.engine import DEFAULT_DOCUMENT, DocumentRegistry
        from repro.obs import FairShareAdmission

        client, tree = outsourced
        # How many admission-checked requests the workload sends (every
        # one but the hello, which is admission-exempt).
        counting_adapter, counting = connect_resilient(
            lambda: InstrumentedChannel(SearchServer(tree).handle),
            tree.ring, policy=fast_policy())
        run_queries(client, counting_adapter)
        requests = sum(1 for kind, _ in counting.transcript if kind != "hello")

        clock = {"now": 0.0}
        registry = DocumentRegistry(
            admission=FairShareAdmission(clock=lambda: clock["now"]))
        server = SearchServer(tree, registry=registry)
        # A frozen clock and a burst two short of the workload: the last
        # two requests find the bucket empty.  Each waits the bucket's
        # hint, which the retry policy's sleep turns into clock time, so
        # exactly one token has accrued when it retries.
        registry.configure_quota(DEFAULT_DOCUMENT, 4.0, burst=requests - 2)
        waits = []

        def sleep(seconds):
            waits.append(seconds)
            clock["now"] += seconds

        adapter, channel = connect_resilient(
            lambda: InstrumentedChannel(server.handle),
            tree.ring, policy=fast_policy(sleep=sleep))
        assert run_queries(client, adapter) == reference
        assert channel.busy_waits == 2
        assert channel.reconnects == 0      # busy never drops the session
        assert waits == [0.25, 0.25]        # one token at 4 tokens/s
        ledger = registry.quota_ledger()[DEFAULT_DOCUMENT]
        assert (ledger["admitted"], ledger["shed"]) == (requests, 2)

    def test_quota_raises_for_plain_client(self, outsourced):
        from repro.net.engine import DEFAULT_DOCUMENT, DocumentRegistry
        from repro.obs import FairShareAdmission

        _, tree = outsourced
        registry = DocumentRegistry(
            admission=FairShareAdmission(clock=lambda: 0.0))
        server = SearchServer(tree, registry=registry)
        registry.configure_quota(DEFAULT_DOCUMENT, 2.0, burst=1)
        adapter, _ = connect(server)
        assert adapter.frontier([tree.root_id], [3],
                                include_children=True).children
        with pytest.raises(ServerBusyError) as excinfo:
            adapter.frontier([tree.root_id], [3], include_children=True)
        assert excinfo.value.retry_after_s == 0.5   # one token at 2/s
        registry.clear_quota(DEFAULT_DOCUMENT)
        assert adapter.frontier([tree.root_id], [3],
                                include_children=True).children

    def test_bounded_queue_sheds_in_band(self, outsourced, store_gate):
        """A full coalescer queue answers busy; the shed session survives."""
        _, tree = outsourced
        transport = ThreadedSearchServer(
            SearchServer(store_gate.wrap(tree)), queue_limit=1,
            busy_retry_after_s=0.125).start()
        request = FrontierRequest([tree.root_id], [3])
        expected = SearchServer(tree).handle(request).encode()
        channels = [SocketChannel(*transport.address) for _ in range(3)]
        answers = {}

        def send(index):
            answers[index] = channels[index].request(request).encode()

        try:
            first = threading.Thread(target=send, args=(0,))
            first.start()
            assert store_gate.entered.wait(timeout=10.0)   # pass blocked
            second = threading.Thread(target=send, args=(1,))
            second.start()
            store_gate.wait_for(lambda: transport.queue_depth == 1)
            with pytest.raises(ServerBusyError) as excinfo:
                channels[2].request(request)               # queue is full
            assert excinfo.value.retry_after_s == 0.125
            assert transport.shed_requests == 1
            store_gate.open()
            first.join(timeout=10.0)
            second.join(timeout=10.0)
            send(2)                       # the shed session is still open
            assert answers == {0: expected, 1: expected, 2: expected}
            assert transport.shed_requests == 1
        finally:
            for channel in channels:
                channel.close()
            transport.stop()


class TestResilientSockets:
    """The same fault schedules against the real socket server."""

    SOCKET_FAULTS = [
        ("hello:send", "reset-before-send", 1),
        ("frontier:recv", "reset-after-send", 1),
        ("frontier:recv", "truncate-response", 3),
        ("frontier:send", "busy", 2),
    ]

    @pytest.mark.parametrize("point,kind,call", SOCKET_FAULTS)
    def test_threaded_server(self, outsourced, reference, point, kind, call):
        client, tree = outsourced
        server = ThreadedSearchServer(SearchServer(tree))
        server.start()
        try:
            host, port = server.address
            plan = FaultPlan.single(point, kind, call=call, seed=CHAOS_SEED)
            adapter, channel = connect_resilient(
                lambda: FaultyChannel(SocketChannel(host, port), plan),
                tree.ring, policy=fast_policy())
            try:
                assert run_queries(client, adapter) == reference
            finally:
                channel.close()
            assert plan.fires
        finally:
            server.stop()

    def test_fault_rate_with_store_failures(self, outsourced, reference):
        """Channel faults at a rate, over TCP, while store passes fail too."""
        client, tree = outsourced
        channel_plan = FaultPlan.at_rate(
            0.05, kinds=["reset-before-send", "busy", "reset-after-send",
                         "truncate-response"], seed=CHAOS_SEED)
        store_plan = FaultPlan.at_rate(
            0.1, kinds=["store-error"], point="store:evaluate_many",
            seed=CHAOS_SEED + 1)
        server = ThreadedSearchServer(SearchServer(
            FaultyStore(tree, store_plan))).start()
        faulty = []

        def factory():
            faulty.append(FaultyChannel(SocketChannel(host, port),
                                        channel_plan))
            return faulty[-1]

        try:
            host, port = server.address
            adapter, channel = connect_resilient(
                factory, tree.ring, policy=fast_policy(max_attempts=20))
            try:
                for _ in range(3):
                    assert run_queries(client, adapter) == reference
            finally:
                channel.close()
        finally:
            server.stop()
        assert channel_plan.fires and store_plan.fires
        assert channel.reconnects >= 1 and channel.busy_waits >= 1
        # Every logged fire was injected: no rule fired where its kind
        # cannot act.
        injected = [fault for wrapper in faulty for fault in wrapper.injected]
        assert injected == [(point, kind)
                            for point, _, kind in channel_plan.fires]

    def test_real_connection_death_mid_descent(self, outsourced, reference):
        """Kill the actual TCP connection (not an injected exception)."""
        client, tree = outsourced
        transport = ThreadedSearchServer(SearchServer(tree)).start()
        try:
            channels = []

            def factory():
                channel = SocketChannel(*transport.address)
                channels.append(channel)
                return channel

            adapter, resilient = connect_resilient(
                factory, tree.ring, policy=fast_policy())
            # Sever the live socket under the client's feet; the next
            # exchange fails at the transport and must transparently
            # reconnect, replay HELLO and resume the descent.
            assert adapter.frontier([tree.root_id], [3],
                                    include_children=True).children
            channels[-1]._sock.shutdown(socket.SHUT_RDWR)
            assert run_queries(client, adapter) == reference
            assert resilient.reconnects >= 1
            resilient.close()
        finally:
            transport.stop()

    def test_bytes_are_counted_once(self, outsourced, reference,
                                    monkeypatch):
        """The resilient channel records the inner channel's counts: on
        the client thread each frontier request is encoded once, when it
        is sent, and no response is encoded again."""
        client, tree = outsourced
        encoded = []
        encode = Message.encode

        def recording_encode(message):
            encoded.append((threading.get_ident(), message.kind))
            return encode(message)

        monkeypatch.setattr(Message, "encode", recording_encode)
        transport = ThreadedSearchServer(SearchServer(tree)).start()
        inner = []

        def factory():
            inner.append(SocketChannel(*transport.address))
            return inner[-1]

        try:
            adapter, resilient = connect_resilient(factory, tree.ring,
                                                   policy=fast_policy())
            try:
                assert run_queries(client, adapter) == reference
            finally:
                resilient.close()
        finally:
            transport.stop()
        mine = [kind for thread, kind in encoded
                if thread == threading.get_ident()]
        sent = [request for request, _ in inner[0].transcript]
        assert len(inner) == 1 and "frontier" in sent
        assert mine.count("frontier") == sent.count("frontier")
        assert "frontier-ok" not in mine
        assert resilient.stats.as_dict() == inner[0].stats.as_dict()


class TestSocketLeakRegression:
    """Satellite: failed session setup must not leak the socket."""

    def test_connect_socket_closes_on_failed_hello(self, outsourced):
        _, tree = outsourced
        # A raw TCP listener that accepts and answers garbage, so HELLO
        # negotiation fails after the connection is established.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        accepted = []

        def acceptor():
            conn, _ = listener.accept()
            accepted.append(conn)
            conn.recv(65536)
            conn.sendall(b"\x00\x00\x00\x04junk")

        thread = threading.Thread(target=acceptor, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        created = []
        original_init = SocketChannel.__init__

        def tracking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            created.append(self)

        SocketChannel.__init__ = tracking_init
        try:
            with pytest.raises(ProtocolError):
                connect_socket(host, port, tree.ring, timeout_s=5.0)
        finally:
            SocketChannel.__init__ = original_init
            listener.close()
            for conn in accepted:
                conn.close()
        assert len(created) == 1
        # The failed connect must have closed its socket: fileno() of a
        # closed socket is -1.
        assert created[0]._sock.fileno() == -1

    def test_connection_refused_raises_transport_error(self, outsourced):
        _, tree = outsourced
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        _, dead_port = probe.getsockname()
        probe.close()
        with pytest.raises(TransportError):
            connect_socket("127.0.0.1", dead_port, tree.ring, timeout_s=2.0)


def _editable():
    """(client, hosted_tree, reference_clone) with F_p headroom for edits."""
    document = generate_catalog_document(
        CatalogConfig(customers=4, products=3, seed=13))
    ring = choose_fp_ring(len(document.distinct_tags()) + 4)
    client, tree, _ = outsource_document(document, ring=ring,
                                         seed=b"chaos-update")
    reference = share_tree_from_dict(share_tree_to_dict(tree))
    return client, tree, reference


def _store_fingerprint(store):
    """Bit-level store state: structure plus every share's coefficients."""
    return {
        node_id: (store.parent_id(node_id),
                  tuple(store.child_ids(node_id)),
                  tuple(store.share_of(node_id).coeffs))
        for node_id in store.node_ids()
    }


def _edit_targets(tree):
    children = tree.child_ids(tree.root_id)
    return {"insert": children[0], "rename": children[-1],
            "delete": children[1]}


def _run_edits(editor, targets):
    editor.insert_subtree(targets["insert"],
                          parse_element("<chaos><probe/></chaos>"))
    editor.rename_node(targets["rename"], "zchaos")
    editor.delete_subtree(targets["delete"])


#: One scheduled fault per update-path phase.  ``reset-after-send`` on
#: ``update:recv`` is the ambiguous case: the batch *was* committed and
#: the reply lost, so the replay must be answered from the idempotency
#: cache instead of applied twice.
UPDATE_FAULTS = [
    ("update:send", "reset-before-send", 1),
    ("update:send", "busy", 2),
    ("update:recv", "reset-after-send", 1),
    ("update:recv", "reset-after-send", 3),
    ("update:recv", "truncate-response", 2),
]


class TestUpdateFaults:
    """v3 write batches under faults: exactly once, never half."""

    @pytest.mark.parametrize("point,kind,call", UPDATE_FAULTS)
    def test_update_fault_applies_exactly_once(self, point, kind, call):
        client, tree, reference = _editable()
        targets = _edit_targets(tree)
        _run_edits(UpdatableTree(client.ring, client.mapping,
                                 client.share_generator, reference),
                   targets)

        server = SearchServer(tree)
        plan = FaultPlan.single(point, kind, call=call, seed=CHAOS_SEED)
        adapter, channel = connect_resilient(
            lambda: FaultyChannel(InstrumentedChannel(server.handle), plan),
            tree.ring, policy=fast_policy())
        editor = RemoteUpdatableTree(adapter, client.mapping,
                                     client.share_generator)
        _run_edits(editor, targets)

        assert plan.fires, "the scheduled update fault never fired"
        assert editor.rebases == 0
        # Bit-identical to the fault-free in-process run: nothing was
        # lost, nothing was applied twice.
        assert _store_fingerprint(server.document().store) == \
            _store_fingerprint(reference)
        # The commit audit trail shows three batches, each committed
        # exactly once under a distinct idempotency key — replays after
        # ambiguous failures were answered from the cache.
        log = server.document().update_log
        assert [entry[1] for entry in log] == ["insert", "rename", "delete"]
        ids = [entry[0] for entry in log]
        assert all(ids) and len(set(ids)) == len(ids)

    def test_update_faults_over_real_sockets(self):
        client, tree, reference = _editable()
        targets = _edit_targets(tree)
        _run_edits(UpdatableTree(client.ring, client.mapping,
                                 client.share_generator, reference),
                   targets)

        core = SearchServer(tree)
        server = ThreadedSearchServer(core)
        server.start()
        try:
            host, port = server.address
            plan = FaultPlan([
                FaultRule("update:send", "reset-before-send", calls=[1]),
                FaultRule("update:recv", "reset-after-send", calls=[2]),
            ], seed=CHAOS_SEED)
            adapter, channel = connect_resilient(
                lambda: FaultyChannel(SocketChannel(host, port), plan),
                tree.ring, policy=fast_policy())
            try:
                editor = RemoteUpdatableTree(adapter, client.mapping,
                                             client.share_generator)
                _run_edits(editor, targets)
            finally:
                channel.close()
            assert len(plan.fires) == 2
        finally:
            server.stop()
        assert _store_fingerprint(core.document().store) == \
            _store_fingerprint(reference)
        ids = [entry[0] for entry in core.document().update_log]
        assert len(ids) == 3 and all(ids) and len(set(ids)) == len(ids)

    def test_store_fault_retries_to_exactly_once(self):
        client, tree, reference = _editable()
        targets = _edit_targets(tree)
        _run_edits(UpdatableTree(client.ring, client.mapping,
                                 client.share_generator, reference),
                   targets)

        plan = FaultPlan([FaultRule("store:apply_batch", "store-error",
                                    calls=[1, 3])], seed=CHAOS_SEED)
        server = SearchServer(FaultyStore(tree, plan))
        adapter, _ = connect_resilient(
            lambda: InstrumentedChannel(server.handle),
            tree.ring, policy=fast_policy())
        editor = RemoteUpdatableTree(adapter, client.mapping,
                                     client.share_generator)
        _run_edits(editor, targets)

        assert len(plan.fires) == 2
        # The injected failures fired *before* the batch touched the
        # store, the retries landed it: exactly-once, bit-identical.
        assert _store_fingerprint(server.document().store) == \
            _store_fingerprint(reference)
        log = server.document().update_log
        assert [entry[1] for entry in log] == ["insert", "rename", "delete"]
        assert len({entry[0] for entry in log}) == 3

    def test_failed_batch_never_half_applies(self):
        client, tree, _ = _editable()
        targets = _edit_targets(tree)
        plan = FaultPlan([FaultRule("store:apply_batch", "store-error",
                                    calls=[1])], seed=CHAOS_SEED)
        server = SearchServer(FaultyStore(tree, plan))
        before = _store_fingerprint(server.document().store)

        adapter, _ = connect(server)
        editor = RemoteUpdatableTree(adapter, client.mapping,
                                     client.share_generator)
        with pytest.raises(TransientServerError):
            editor.rename_node(targets["rename"], "zhalf")
        # The failed batch left no trace: store bit-identical, no commit
        # logged, no version bumped.
        assert _store_fingerprint(server.document().store) == before
        assert server.document().update_log == []
        assert server.document().versions == {}

        # The same editor retries cleanly once the fault has passed.
        editor.rename_node(targets["rename"], "zhalf")
        assert [entry[1] for entry in server.document().update_log] == \
            ["rename"]


class TestGracefulShutdown:
    def test_threaded_stop_waits_for_inflight(self, outsourced):
        _, tree = outsourced
        server = ThreadedSearchServer(SearchServer(tree),
                                      drain_timeout_s=5.0)
        server.start()
        host, port = server.address
        adapter, channel = connect_socket(host, port, tree.ring)
        try:
            assert adapter.frontier([tree.root_id], [3],
                                    include_children=True).children
        finally:
            channel.close()
        server.stop()     # drains cleanly with nothing in flight


class TestControlPlaneAccounting:
    """Every admitted request is accounted exactly once, even under chaos."""

    @staticmethod
    def _reconciled(server):
        accounting = server.accounting()
        assert accounting["admitted"] == (accounting["completed"]
                                          + accounting["shed"]
                                          + accounting["failed"])
        assert accounting["inflight"] == 0
        return accounting

    def test_transport_killed_mid_coalesced_round(self, outsourced):
        """Stop the transport under live sessions; the ledger balances.

        Several socket sessions hammer coalesced lookups while the
        transport is torn down beneath them.  Whatever each session saw
        (a completed answer, a connection reset, a half-written frame),
        the serving core must account every admitted request exactly
        once: admitted == completed + shed + failed with nothing left
        in flight.
        """
        import time as _time

        client, tree = outsourced
        server = SearchServer(tree)
        transport = ThreadedSearchServer(server, drain_timeout_s=2.0).start()
        stop = threading.Event()

        def session(index):
            while not stop.is_set():
                try:
                    adapter, channel = connect_socket(
                        *transport.address, tree.ring, timeout_s=5.0)
                    try:
                        run_queries(client, adapter)
                    finally:
                        channel.close()
                except Exception:
                    return      # the transport died underneath us: expected

        threads = [threading.Thread(target=session, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        _time.sleep(0.3)        # let a few coalesced rounds get going
        transport.stop()
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        accounting = self._reconciled(server)
        assert accounting["admitted"] > 0
        assert accounting["completed"] > 0

    def test_quota_sheds_reconcile_and_recover(self, outsourced):
        """Deterministic quota exhaustion: sheds counted, bucket refills."""
        from repro.net.engine import DEFAULT_DOCUMENT, DocumentRegistry
        from repro.net.messages import PruneNotice
        from repro.obs import FairShareAdmission

        _, tree = outsourced
        clock = {"now": 0.0}
        admission = FairShareAdmission(clock=lambda: clock["now"])
        registry = DocumentRegistry(admission=admission)
        server = SearchServer(tree, registry=registry)
        registry.configure_quota(DEFAULT_DOCUMENT, 1.0, burst=3)

        for _ in range(3):      # the burst allowance
            server.handle(PruneNotice([tree.root_id]))
        shed = 0
        for _ in range(4):
            with pytest.raises(ServerBusyError) as excinfo:
                server.handle(PruneNotice([tree.root_id]))
            assert excinfo.value.retry_after_s > 0
            shed += 1
        clock["now"] += 2.0     # two tokens refill at rate 1/s
        for _ in range(2):
            server.handle(PruneNotice([tree.root_id]))

        accounting = self._reconciled(server)
        assert accounting["shed"] == shed
        assert accounting["completed"] == 5
        ledger = registry.quota_ledger()
        # No tenant ledger leaks: only the configured tenant appears, and
        # its ledger matches the registry's own counters.
        assert set(ledger) == {DEFAULT_DOCUMENT}
        assert ledger[DEFAULT_DOCUMENT]["admitted"] == 5
        assert ledger[DEFAULT_DOCUMENT]["shed"] == shed
        assert ledger[DEFAULT_DOCUMENT]["borrowed"] == 0.0

    def test_backpressure_sheds_carry_reason_label(self, outsourced,
                                                   reference, store_gate):
        """Transport-queue sheds reconcile with reason="backpressure".

        Session A's pass blocks in the store, B's request queues, and C's
        is shed; C's retry waits until A and B are answered, so exactly
        one request is shed.  Then each session runs the workload alone.
        """
        client, tree = outsourced
        server = SearchServer(store_gate.wrap(tree))
        transport = ThreadedSearchServer(server, queue_limit=1,
                                         busy_retry_after_s=0.0).start()
        root = tree.root_id
        expected = connect(SearchServer(tree))[0].frontier(
            [root], [3], include_children=True)
        rounds = {}

        def first_round(index):
            rounds[index] = sessions[index][0].frontier([root], [3],
                                                        include_children=True)

        threads = [threading.Thread(target=first_round, args=(index,))
                   for index in range(3)]

        def after_a_and_b(_seconds):
            for thread in threads[:2]:
                thread.join(timeout=10.0)

        sessions = [connect_resilient_socket(
            *transport.address, tree.ring,
            policy=fast_policy(sleep=after_a_and_b)) for _ in range(3)]
        try:
            threads[0].start()
            assert store_gate.entered.wait(timeout=10.0)
            threads[1].start()
            store_gate.wait_for(lambda: transport.queue_depth == 1)
            threads[2].start()
            store_gate.wait_for(lambda: sessions[2][1].busy_waits == 1)
            store_gate.open()
            for thread in threads:
                thread.join(timeout=30.0)
            assert all((result.evaluations, result.children)
                       == (expected.evaluations, expected.children)
                       for result in rounds.values()) and len(rounds) == 3
            for adapter, _ in sessions:
                assert run_queries(client, adapter) == reference
        finally:
            for _, channel in sessions:
                channel.close()
            transport.stop()
        accounting = self._reconciled(server)
        assert accounting["shed"] == 1
        assert transport.shed_requests == 1
        assert server.metrics.counter_total("coalescer_shed_total") == 1
        assert server.metrics.counter_total(
            "server_requests_shed_total", reason="backpressure") == 1