"""Tests for the multi-document server engine, the hello negotiation and
the batched frontier protocol, including concurrent query handling."""

import sys
import threading

import pytest

from repro.baselines import PlaintextSearchIndex
from repro.core import AdvancedStrategy, VerificationMode, outsource_document
from repro.core.query import LocalServerAdapter
from repro.errors import ProtocolError
from repro.net import (
    DEFAULT_DOCUMENT,
    DocumentRegistry,
    FaultPlan,
    FaultyChannel,
    InstrumentedChannel,
    RemoteServerAdapter,
    RetryPolicy,
    SQLiteShareStore,
    SearchServer,
    ServingCore,
    connect,
    connect_in_process,
    connect_resilient,
)
from repro.net.messages import (
    PROTOCOL_VERSION,
    FrontierRequest,
    HelloRequest,
    HelloResponse,
    PruneNotice,
    decode_message,
)
from repro.workloads import (
    CatalogConfig,
    RandomXmlConfig,
    generate_catalog_document,
    generate_random_document,
)


@pytest.fixture
def two_document_server(catalog_document):
    """A server hosting two catalogs plus the matching client contexts."""
    other_document = generate_catalog_document(
        CatalogConfig(customers=4, products=3, seed=23))
    server = SearchServer()
    clients = {}
    for document_id, document in (("north", catalog_document),
                                  ("south", other_document)):
        client, tree, _ = outsource_document(
            document, seed=b"tenant-" + document_id.encode())
        server.add_document(document_id, tree)
        clients[document_id] = client
    return server, clients


class TestHelloNegotiation:
    def test_highest_common_version_wins(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        response = server.handle(HelloRequest([1, 2, 3, PROTOCOL_VERSION, 99]))
        assert isinstance(response, HelloResponse)
        assert response.version == PROTOCOL_VERSION
        assert response.documents == [DEFAULT_DOCUMENT]
        assert response.root_id == server_tree.root_id
        assert response.node_count == server_tree.node_count()

    @pytest.mark.parametrize("versions", [[99, 100], [1, 2, 3], [5]])
    def test_unknown_versions_rejected_loudly(self, outsourced_catalog,
                                              versions):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        with pytest.raises(ProtocolError, match="no common version"):
            server.handle(HelloRequest(versions))

    def test_adapter_negotiates(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        adapter, _, channel = connect_in_process(server_tree)
        assert channel.transcript == [("hello", "hello-ok")]
        assert adapter.root_id() == server_tree.root_id

    def test_adapter_refuses_a_version_it_did_not_offer(self):
        channel = InstrumentedChannel(
            lambda message: HelloResponse(PROTOCOL_VERSION + 1))
        with pytest.raises(ProtocolError, match="did not offer"):
            RemoteServerAdapter(channel, None)

    def test_reconnect_refuses_a_hello_with_another_version(
            self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        plan = FaultPlan.single("frontier:send", "reset-before-send", call=1)
        versions = iter([PROTOCOL_VERSION, PROTOCOL_VERSION + 1])

        def channel_factory():
            version = next(versions)

            def handler(message):
                response = server.handle(message)
                if isinstance(response, HelloResponse):
                    response.version = version
                return response

            return FaultyChannel(InstrumentedChannel(handler), plan)

        adapter, _ = connect_resilient(
            channel_factory, server_tree.ring,
            policy=RetryPolicy(sleep=lambda _s: None))
        with pytest.raises(ProtocolError, match="re-negotiated"):
            adapter.frontier([server_tree.root_id], [3], include_children=True)
        assert plan.fires

    def test_hello_does_not_leak_other_tenants(self, two_document_server):
        server, _ = two_document_server
        response = server.handle(HelloRequest().for_document("north"))
        assert response.documents == ["north"]
        # Unknown documents are rejected without enumerating hosted tenants.
        with pytest.raises(ProtocolError) as excinfo:
            server.handle(HelloRequest().for_document("nowhere"))
        assert "north" not in str(excinfo.value)
        assert "south" not in str(excinfo.value)

    def test_hello_survives_wire_roundtrip(self):
        message = decode_message(HelloRequest([1, 2]).encode())
        assert message.versions == [1, 2]
        response = decode_message(
            HelloResponse(2, ["a", "b"], root_id=0, node_count=7).encode())
        assert (response.version, response.documents) == (2, ["a", "b"])
        assert (response.root_id, response.node_count) == (0, 7)


class TestDocumentRegistry:
    def test_add_get_remove(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        registry = DocumentRegistry()
        registry.add("docs", server_tree)
        assert "docs" in registry and len(registry) == 1
        assert registry.get("docs").store.node_count() == server_tree.node_count()
        assert registry.total_storage_bits() == server_tree.storage_bits()
        with pytest.raises(ProtocolError):
            registry.add("docs", server_tree)
        registry.remove("docs")
        assert "docs" not in registry
        with pytest.raises(ProtocolError):
            registry.get("docs")
        with pytest.raises(ProtocolError):
            registry.remove("docs")

    def test_resolve_defaulting(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        registry = DocumentRegistry()
        # A single hosted document answers unaddressed requests.
        registry.add("only", server_tree)
        assert registry.resolve(None).document_id == "only"
        # With several documents, unaddressed requests are ambiguous...
        registry.add("second", server_tree)
        with pytest.raises(ProtocolError, match="address one explicitly"):
            registry.resolve(None)
        # ...unless one of them is literally the default document.
        registry.add(DEFAULT_DOCUMENT, server_tree)
        assert registry.resolve(None).document_id == DEFAULT_DOCUMENT


class TestMultiDocumentServer:
    def test_sessions_are_isolated_per_document(self, two_document_server):
        server, clients = two_document_server
        expected = {}
        for document_id, client in clients.items():
            tree = server.document(document_id).store
            expected[document_id] = client.lookup(tree, "customer").matches
        for document_id, client in clients.items():
            adapter, _ = connect(server, document_id=document_id)
            assert client.lookup(adapter, "customer").matches == \
                expected[document_id]

    def test_unknown_document_rejected(self, two_document_server):
        server, _ = two_document_server
        with pytest.raises(ProtocolError, match="unknown document"):
            connect(server, document_id="nowhere")
        request = FrontierRequest([0], [3]).for_document("nowhere")
        with pytest.raises(ProtocolError, match="unknown document"):
            server.handle(request)

    def test_unaddressed_request_on_multi_tenant_server(self, two_document_server):
        server, _ = two_document_server
        with pytest.raises(ProtocolError, match="address one explicitly"):
            server.handle(FrontierRequest([0], [3]))

    def test_per_document_observations(self, two_document_server):
        server, clients = two_document_server
        adapter, _ = connect(server, document_id="north")
        clients["north"].lookup(adapter, "customer",
                                verification=VerificationMode.NONE)
        north = server.document("north").observations.as_dict()
        south = server.document("south").observations.as_dict()
        assert north["evaluation_requests"] > 0
        assert south["evaluation_requests"] == 0
        aggregate = server.observations.as_dict()
        assert aggregate["evaluation_requests"] == north["evaluation_requests"]

    def test_storage_bits_aggregates_documents(self, two_document_server):
        server, _ = two_document_server
        total = sum(server.document(document_id).store.storage_bits()
                    for document_id in server.registry.document_ids())
        assert server.storage_bits() == total

    def test_mixed_backends_identical(self, two_document_server, tmp_path,
                                      catalog_document):
        server, clients = two_document_server
        north_tree = server.document("north").store
        store = SQLiteShareStore.from_tree(str(tmp_path / "north.db"),
                                           north_tree)
        server.add_document("north-disk", store)
        mem_adapter, _ = connect(server, document_id="north")
        disk_adapter, _ = connect(server, document_id="north-disk")
        client = clients["north"]
        for tag in ("customer", "product", "location"):
            assert client.lookup(mem_adapter, tag).matches == \
                client.lookup(disk_adapter, tag).matches
        store.close()


class TestBatchedProtocol:
    def test_xpath_matches_the_lookahead_0_reference_in_fewer_round_trips(
            self, outsourced_catalog):
        # The in-process server answers at lookahead 0; the wire session
        # speculates a level per round, so its descent needs fewer rounds.
        client, server_tree, _ = outsourced_catalog
        reference = client.xpath(LocalServerAdapter(server_tree),
                                 "//customer/order")
        adapter, channel = connect(SearchServer(server_tree))
        batched = client.xpath(adapter, "//customer/order")
        assert batched.matches == reference.matches
        assert batched.stats.round_trips < reference.stats.round_trips
        assert channel.stats.round_trips == batched.stats.round_trips + 1

    def test_frontier_request_round_trip(self):
        message = FrontierRequest([1, 2], [3], prune=[9], include_children=True,
                                  fetch_polynomials=[4], fetch_constants=[5],
                                  lookahead=2).for_document("docs")
        decoded = decode_message(message.encode())
        assert decoded.node_ids == [1, 2]
        assert decoded.points == [3]
        assert decoded.prune == [9]
        assert decoded.include_children is True
        assert decoded.fetch_polynomials == [4]
        assert decoded.fetch_constants == [5]
        assert decoded.lookahead == 2
        assert decoded.document_id == "docs"

    def test_frontier_carries_prunes(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        root = server_tree.root_id
        children = server_tree.child_ids(root)
        server.handle(FrontierRequest([root], [3], prune=children))
        assert server.observations.pruned_nodes == len(children)

    def test_ledger_stays_bounded(self, outsourced_catalog):
        # The ledger counts what the server observed; it keeps no ids, so
        # a long-running server's ledger does not grow with its traffic.
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        root = server_tree.root_id
        request = FrontierRequest([root], [3, 5], prune=server_tree.child_ids(root),
                                  fetch_polynomials=[root], lookahead=2)

        def ledger_bytes(observations):
            return sum(sys.getsizeof(getattr(observations, slot))
                       for slot in type(observations).__slots__)

        ledgers = (server.observations, server.document().observations)
        server.handle(request)
        after_one = [ledger_bytes(ledger) for ledger in ledgers]
        one = server.observations.as_dict()
        for _ in range(199):
            server.handle(request)
        for ledger, size in zip(ledgers, after_one):
            assert ledger_bytes(ledger) <= size
        assert server.observations.as_dict() == {
            key: value * 200 if key != "distinct_points_seen" else value
            for key, value in one.items()}

    def test_lookahead_expands_evaluations(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        root = server_tree.root_id
        flat_request = FrontierRequest([root], [3])
        deep_request = FrontierRequest([root], [3], lookahead=1)
        flat = server.handle(flat_request).bind(flat_request)
        deep = server.handle(deep_request).bind(deep_request)
        assert set(flat.evaluations[3]) == {root}
        assert set(deep.evaluations[3]) == {root} | set(server_tree.child_ids(root))
        # Speculated nodes come with their child lists for frontier building.
        assert set(deep.children) == set(deep.evaluations[3])

    def test_lookahead_evaluates_a_held_node_once(self, monkeypatch):
        # A left-to-right //T//U descends from nested context nodes, so a
        # round can list a node beside its parent.  The parent's lookahead
        # must not evaluate the node again, nor count it twice in the
        # ledger's evaluation_requests.
        document = generate_random_document(
            RandomXmlConfig(element_count=120, tag_vocabulary_size=8, seed=3))
        client, server_tree, _ = outsource_document(document, seed=b"held")
        observed = []
        observe = ServingCore._observe_points

        def record(core, hosted, point, node_ids):
            observed.append(list(node_ids))
            observe(core, hosted, point, node_ids)

        monkeypatch.setattr(ServingCore, "_observe_points", record)
        adapter, _ = connect(SearchServer(server_tree))
        query = "//tag3//tag0"
        result = client.xpath(adapter, query,
                              strategy=AdvancedStrategy.LEFT_TO_RIGHT)
        assert result.matches == \
            PlaintextSearchIndex(document).query(query).matches
        assert observed
        assert [ids for ids in observed if len(set(ids)) != len(ids)] == []

    def test_a_repeated_tag_is_one_point(self):
        # //tag0//tag1//tag0 names tag0 twice.  Each round sends its point
        # once and the client counts each evaluation it receives once, so
        # the query's evaluations are the server's evaluation requests.
        document = generate_random_document(RandomXmlConfig(
            element_count=200, tag_vocabulary_size=4, max_depth=8, seed=3))
        client, server_tree, _ = outsource_document(document, seed=b"rep")
        plaintext = PlaintextSearchIndex(document)
        for query in ("//tag0//tag1//tag0", "//tag0//tag1"):
            server = SearchServer(server_tree)
            adapter, _ = connect(server)
            result = client.xpath(adapter, query)
            assert result.matches == plaintext.query(query).matches
            assert result.stats.evaluations == \
                server.document().observations.evaluation_requests

    def test_verification_closure_fetch(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        root = server_tree.root_id
        for include_children, expected in [
                (True, [root] + server_tree.child_ids(root)),
                (False, [root])]:
            request = FrontierRequest(include_children=include_children,
                                      fetch_polynomials=[root])
            response = server.handle(request).bind(request)
            assert list(response.rows) == expected


class TestConcurrentQueries:
    TAGS = ("customer", "product", "location", "order")

    def _serial_answers(self, client, server, document_id=None):
        answers = []
        for tag in self.TAGS:
            adapter, _ = connect(server, document_id=document_id)
            answers.append(tuple(client.lookup(adapter, tag).matches))
        return answers

    def test_threads_match_serial_single_document(self, outsourced_catalog):
        client, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        expected = self._serial_answers(client, server)

        results = {}
        sessions = {}

        def worker(index):
            adapter, channel = connect(server)
            sessions[index] = channel
            results[index] = [tuple(client.lookup(adapter, tag).matches)
                              for tag in self.TAGS]

        requests_before = server.observations.requests_handled
        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert all(outcome == expected for outcome in results.values())
        # Per-session channel accounting adds up to the server's ledger.
        session_requests = sum(channel.stats.requests
                               for channel in sessions.values())
        assert session_requests == \
            server.observations.requests_handled - requests_before
        assert all(channel.stats.round_trips > 0
                   for channel in sessions.values())

    def test_threads_match_serial_two_documents(self, two_document_server):
        server, clients = two_document_server
        expected = {document_id: self._serial_answers(client, server, document_id)
                    for document_id, client in clients.items()}

        results = {}

        def worker(index, document_id):
            adapter, _ = connect(server, document_id=document_id)
            results[index] = (document_id,
                              [tuple(clients[document_id].lookup(adapter,
                                                                 tag).matches)
                               for tag in self.TAGS])

        threads = [threading.Thread(target=worker,
                                    args=(index, ("north", "south")[index % 2]))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for document_id, answers in results.values():
            assert answers == expected[document_id]

    def test_threads_on_sqlite_backend(self, outsourced_catalog, tmp_path):
        client, server_tree, _ = outsourced_catalog
        store = SQLiteShareStore.from_tree(str(tmp_path / "conc.db"), server_tree)
        server = SearchServer(store)
        expected = self._serial_answers(client, server)

        results = {}

        def worker(index):
            adapter, _ = connect(server)
            results[index] = [tuple(client.lookup(adapter, tag).matches)
                              for tag in self.TAGS]

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcome == expected for outcome in results.values())
        store.close()


class TestDocumentTransactions:
    def test_transaction_holds_the_document_lock(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        document = server.document()
        answered = threading.Event()

        def query():
            server.handle(PruneNotice([server_tree.root_id]))
            answered.set()

        with document.transaction() as txn:
            assert txn is not None
            worker = threading.Thread(target=query)
            worker.start()
            # The handler needs the document lock, which the open
            # transaction holds: it must not answer yet.
            assert not answered.wait(0.2)
        worker.join(timeout=5)
        assert answered.is_set()

    def test_updates_under_document_lock_stay_consistent(self,
                                                         outsourced_catalog):
        """Lookups racing update batches see pre- or post-update, nothing else."""
        from repro.core import UpdatableTree, choose_fp_ring
        from repro.xmltree import XmlElement

        document_src = generate_catalog_document(
            CatalogConfig(customers=3, products=2, seed=9))
        ring = choose_fp_ring(len(document_src.distinct_tags()) + 4)
        client, tree, _ = outsource_document(document_src, ring=ring,
                                             seed=b"locked-updates")
        server = SearchServer(tree)
        document = server.document()
        editor = UpdatableTree(client.ring, client.mapping,
                               client.share_generator, document.store,
                               lock=document.lock)
        client.mapping.extend(["annex", "shelf"])
        stop = threading.Event()
        errors = []

        adapter, _ = connect(server)

        def reader():
            try:
                while not stop.is_set():
                    # Through the engine: every request round takes the
                    # document lock the editor holds across each batch.
                    matches = client.lookup(adapter, "annex",
                                            verification=VerificationMode.NONE,
                                            ).matches
                    # Subtrees are inserted then deleted whole: any count
                    # in between would be a torn intermediate state.
                    if len(matches) not in (0, 1):
                        errors.append(f"torn annex count {len(matches)}")
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                errors.append(repr(exc))

        worker = threading.Thread(target=reader)
        worker.start()
        try:
            for _ in range(5):
                subtree = XmlElement("annex")
                subtree.add("shelf")
                report = editor.insert_subtree(tree.root_id, subtree)
                editor.delete_subtree(report.new_node_ids[0])
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not errors

    def test_lookup_restarts_when_a_round_names_a_removed_node(self):
        """A subtree removed between two rounds of one lookup: the round
        naming it is refused with a conflict, and the lookup restarts from
        the root and answers as of the later state."""
        from repro.core import UpdatableTree, choose_fp_ring
        from repro.xmltree import XmlElement

        document_src = generate_catalog_document(
            CatalogConfig(customers=3, products=2, seed=9))
        ring = choose_fp_ring(len(document_src.distinct_tags()) + 4)
        client, tree, _ = outsource_document(document_src, ring=ring,
                                             seed=b"restarted-lookup")
        server = SearchServer(tree)
        document = server.document()
        editor = UpdatableTree(client.ring, client.mapping,
                               client.share_generator, document.store,
                               lock=document.lock)
        client.mapping.extend(["annex", "shelf"])
        subtree = XmlElement("annex")
        subtree.add("shelf")
        annex, shelf = editor.insert_subtree(tree.root_id,
                                             subtree).new_node_ids
        adapter, channel = connect(server)
        rounds = []

        def remove_before_the_second_round(message):
            if isinstance(message, FrontierRequest):
                rounds.append(list(message.node_ids))
                if len(rounds) == 2:
                    editor.delete_subtree(annex)
            return server.handle(message)

        channel.handler = remove_before_the_second_round
        outcome = client.lookup(adapter, "annex",
                                verification=VerificationMode.NONE)
        assert outcome.matches == []
        assert rounds[:3] == [[tree.root_id], [shelf], [tree.root_id]]
        assert server.accounting()["failed"] == 1
