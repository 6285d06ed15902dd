"""Tests for the multi-document server engine, the hello negotiation and
the batched v2 frontier protocol, including concurrent query handling."""

import threading

import pytest

from repro.core import VerificationMode, outsource_document
from repro.errors import ProtocolError
from repro.net import (
    DEFAULT_DOCUMENT,
    DocumentRegistry,
    SQLiteShareStore,
    SearchServer,
    connect,
    connect_in_process,
)
from repro.net.messages import (
    PROTOCOL_VERSION,
    EvaluateRequest,
    FrontierRequest,
    HelloRequest,
    HelloResponse,
    StructureRequest,
    decode_message,
)
from repro.workloads import CatalogConfig, generate_catalog_document


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
        response = server.handle(HelloRequest([1, 2, 99]))
        assert isinstance(response, HelloResponse)
        assert response.version == 2
        assert response.documents == [DEFAULT_DOCUMENT]
        assert response.root_id == server_tree.root_id
        assert response.node_count == server_tree.node_count()

    def test_unknown_versions_rejected_loudly(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        with pytest.raises(ProtocolError, match="no common version"):
            server.handle(HelloRequest([99, 100]))

    def test_adapter_negotiates(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        adapter, _, _ = connect_in_process(server_tree)
        assert adapter.protocol_version == PROTOCOL_VERSION
        assert adapter.batched_rounds

    def test_forced_v1_session_is_hello_free(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        adapter, _, channel = connect_in_process(server_tree, protocol_version=1)
        assert adapter.protocol_version == 1
        assert not adapter.batched_rounds
        assert channel.transcript == []

    def test_hello_does_not_leak_other_tenants(self, two_document_server):
        server, _ = two_document_server
        response = server.handle(HelloRequest([1, 2]).for_document("north"))
        assert response.documents == ["north"]
        # Unknown documents are rejected without enumerating hosted tenants.
        with pytest.raises(ProtocolError) as excinfo:
            server.handle(HelloRequest([1, 2]).for_document("nowhere"))
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
        request = EvaluateRequest([0], 3).for_document("nowhere")
        with pytest.raises(ProtocolError, match="unknown document"):
            server.handle(request)

    def test_unaddressed_request_on_multi_tenant_server(self, two_document_server):
        server, _ = two_document_server
        with pytest.raises(ProtocolError, match="address one explicitly"):
            server.handle(StructureRequest())

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
                                           north_tree.tree)
        server.add_document("north-disk", store)
        mem_adapter, _ = connect(server, document_id="north")
        disk_adapter, _ = connect(server, document_id="north-disk")
        client = clients["north"]
        for tag in ("customer", "product", "location"):
            assert client.lookup(mem_adapter, tag).matches == \
                client.lookup(disk_adapter, tag).matches
        store.close()


class TestBatchedProtocol:
    def test_v2_lookup_matches_v1(self, outsourced_catalog):
        client, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        for tag in ("customer", "product", "location", "warehouse"):
            v1, _ = connect(server, protocol_version=1)
            v2, _ = connect(server, protocol_version=2)
            for mode in VerificationMode:
                assert client.lookup(v1, tag, verification=mode).matches == \
                    client.lookup(v2, tag, verification=mode).matches

    def test_v2_xpath_matches_v1_with_fewer_round_trips(self, outsourced_catalog):
        client, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        totals = {}
        for version in (1, 2):
            adapter, channel = connect(server, protocol_version=version)
            result = client.xpath(adapter, "//customer/order")
            totals[version] = (result.matches, channel.stats.round_trips)
        assert totals[1][0] == totals[2][0]
        assert totals[2][1] < totals[1][1]

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
        assert server.observations.pruned_nodes == children

    def test_lookahead_expands_evaluations(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        root = server_tree.root_id
        flat = server.handle(FrontierRequest([root], [3]))
        deep = server.handle(FrontierRequest([root], [3], lookahead=1))
        assert set(flat.evaluations[3]) == {root}
        assert set(deep.evaluations[3]) == {root} | set(server_tree.child_ids(root))
        # Speculated nodes come with their child lists for frontier building.
        assert set(deep.children) == set(deep.evaluations[3])

    def test_verification_closure_fetch(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        root = server_tree.root_id
        response = server.handle(FrontierRequest(include_children=True,
                                                 fetch_polynomials=[root]))
        assert set(response.polynomials) == {root} | set(server_tree.child_ids(root))
        response = server.handle(FrontierRequest(include_children=False,
                                                 fetch_polynomials=[root]))
        assert set(response.polynomials) == {root}


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
            server.handle(StructureRequest())
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
