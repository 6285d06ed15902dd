"""Tests for the instrumented transport: messages, channel, server, client
adapter and persistence."""

import json

import pytest

from repro.core import VerificationMode, outsource_document
from repro.core.share_tree import CoefficientRows
from repro.errors import ProtocolError
from repro.net import (
    ChannelStats,
    InstrumentedChannel,
    LatencyModel,
    SearchServer,
    connect_in_process,
    decode_message,
    ring_from_dict,
    ring_to_dict,
    share_tree_from_dict,
    share_tree_to_dict,
)
from repro.net.messages import (
    Acknowledgement,
    BlobRequest,
    BlobResponse,
    FrontierRequest,
    FrontierResponse,
    HelloRequest,
    HelloResponse,
    PruneNotice,
)


class TestMessages:
    @pytest.mark.parametrize("message", [
        HelloRequest([6]),
        HelloResponse(6, ["default"], root_id=0, node_count=17),
        FrontierRequest([1, 2, 3], [4], fetch_constants=[0, 1]),
        FrontierResponse([4], [[3, 0]], [2, 0], [1, 2],
                         CoefficientRows([0], 4, rows=[[1, 2, 3, 4]]),
                         [-12, 7]),
        PruneNotice([9, 10]),
        Acknowledgement(),
        BlobRequest(),
        BlobResponse(b"\x00\x01\xffbinary"),
    ])
    def test_encode_decode_roundtrip(self, message):
        decoded = decode_message(message.encode())
        assert type(decoded) is type(message)
        assert decoded.payload() == message.payload()
        assert decoded.encode() == message.encode()

    def test_byte_size_matches_encoding(self):
        message = FrontierRequest([1, 2, 3], [9])
        assert message.byte_size() == len(message.encode())

    def test_malformed_messages_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json at all")
        with pytest.raises(ProtocolError):
            decode_message(json.dumps({"kind": "martian"}).encode())

    def test_negative_coefficients_survive(self):
        response = FrontierResponse(
            rows=CoefficientRows([0], 2, rows=[[-45, -265]]))
        request = FrontierRequest(include_children=False,
                                  fetch_polynomials=[7])
        assert dict(decode_message(response.encode()).bind(request)
                    .rows) == {7: [-45, -265]}


class TestChannel:
    def test_counts_bytes_and_round_trips(self):
        channel = InstrumentedChannel(lambda message: Acknowledgement())
        channel.request(PruneNotice([1, 2, 3]))
        channel.request(PruneNotice([4]))
        stats = channel.stats
        assert stats.requests == stats.responses == 2
        assert stats.round_trips == 2
        assert stats.bytes_to_server > stats.bytes_to_client > 0
        assert stats.total_bytes == stats.bytes_to_server + stats.bytes_to_client
        assert channel.transcript == [("prune", "ack"), ("prune", "ack")]

    def test_reset(self):
        channel = InstrumentedChannel(lambda message: Acknowledgement())
        channel.request(BlobRequest())
        channel.reset()
        assert channel.stats.total_bytes == 0
        assert channel.transcript == []

    def test_handler_must_return_message(self):
        channel = InstrumentedChannel(lambda message: "nope")
        with pytest.raises(ProtocolError):
            channel.request(BlobRequest())

    def test_latency_model(self):
        model = LatencyModel(latency_s=0.05, bandwidth_bytes_per_s=1000)
        stats = ChannelStats()
        stats.record_request(500)
        stats.record_response(250)
        stats.record_response(250)
        assert model.simulated_seconds(stats) == pytest.approx(2 * 0.05 * 2 + 1.0)
        with pytest.raises(ValueError):
            LatencyModel(latency_s=-1)
        channel = InstrumentedChannel(lambda m: Acknowledgement(), latency_model=model)
        channel.request(BlobRequest())
        assert channel.simulated_seconds() > 0
        assert InstrumentedChannel(lambda m: Acknowledgement()).simulated_seconds() == 0.0


class TestSearchServer:
    def test_handles_all_request_kinds(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree, encrypted_blob=b"blob")
        hello = server.handle(HelloRequest())
        assert hello.node_count == server_tree.node_count()
        request = FrontierRequest([hello.root_id], [3])
        frontier = server.handle(request).bind(request)
        assert frontier.children[hello.root_id]
        assert set(frontier.evaluations[3]) == {hello.root_id}
        request = FrontierRequest(include_children=False,
                                  fetch_polynomials=[0], fetch_constants=[0])
        fetched = server.handle(request).bind(request)
        assert len(fetched.rows[0]) == server_tree.ring.degree_bound
        assert 0 in fetched.constants
        assert isinstance(server.handle(PruneNotice([1])), Acknowledgement)
        assert server.handle(BlobRequest()).blob == b"blob"
        assert server.storage_bits() > 0

    def test_observations_recorded(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        server = SearchServer(server_tree)
        server.handle(FrontierRequest([0, 1, 2], [5], include_children=False))
        server.handle(PruneNotice([2]))
        observed = server.observations.as_dict()
        assert observed["distinct_points_seen"] == 1
        assert observed["evaluation_requests"] == 3
        assert observed["pruned_nodes"] == 1
        assert observed["requests_handled"] == 2

    def test_blob_without_configuration_rejected(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        with pytest.raises(ProtocolError):
            SearchServer(server_tree).handle(BlobRequest())

    def test_unknown_message_rejected(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        with pytest.raises(ProtocolError):
            SearchServer(server_tree).handle(Acknowledgement())


class TestRemoteAdapter:
    def test_queries_through_channel_match_local(self, outsourced_catalog,
                                                  catalog_document):
        client, server_tree, _ = outsourced_catalog
        adapter, _, channel = connect_in_process(server_tree)
        local = client.lookup(server_tree, "customer")
        remote = client.lookup(adapter, "customer")
        assert remote.matches == local.matches
        assert channel.stats.round_trips > 0
        assert channel.stats.total_bytes > 0

    def test_structure_summary_cached(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        adapter, _, channel = connect_in_process(server_tree)
        assert adapter.root_id() == server_tree.root_id
        # The hello carried the root id: nothing else crosses.
        assert channel.transcript == [("hello", "hello-ok")]

    def test_download_blob(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        adapter, _, _ = connect_in_process(server_tree, encrypted_blob=b"payload")
        assert adapter.download_blob() == b"payload"

    def test_verification_bytes_ordering(self, outsourced_catalog):
        """FULL verification moves more bytes than CONSTANT_ONLY, which moves
        more than NONE — the §4.3 bandwidth/security trade-off."""
        client, server_tree, _ = outsourced_catalog
        totals = {}
        for mode in VerificationMode:
            adapter, _, channel = connect_in_process(server_tree)
            client.lookup(adapter, "product", verification=mode)
            totals[mode] = channel.stats.total_bytes
        assert totals[VerificationMode.FULL] > totals[VerificationMode.CONSTANT_ONLY]
        assert totals[VerificationMode.CONSTANT_ONLY] > totals[VerificationMode.NONE]


class TestPersistence:
    def test_ring_serialisation_roundtrip(self, fp_ring, int_ring):
        assert ring_from_dict(ring_to_dict(fp_ring)) == fp_ring
        assert ring_from_dict(ring_to_dict(int_ring)) == int_ring
        with pytest.raises(ProtocolError):
            ring_from_dict({"kind": "weird"})

    def test_share_tree_roundtrip_in_memory(self, outsourced_catalog):
        client, server_tree, _ = outsourced_catalog
        restored = share_tree_from_dict(share_tree_to_dict(server_tree))
        assert restored.node_ids() == server_tree.node_ids()
        for node_id in server_tree.node_ids():
            assert restored.share_of(node_id) == server_tree.share_of(node_id)
        # Queries keep working against the restored tree.
        assert client.lookup(restored, "customer").matches == \
            client.lookup(server_tree, "customer").matches

    def test_int_ring_persistence(self, paper_document):
        from repro.core import choose_int_ring

        client, server_tree, _ = outsource_document(
            paper_document, ring=choose_int_ring(2), seed=b"persist-int")
        restored = share_tree_from_dict(share_tree_to_dict(server_tree))
        assert client.lookup(restored, "client").matches == [1, 3]
