"""End-to-end integration tests across all subsystems.

Each test exercises a complete user journey: outsource a realistic
document over the instrumented network transport, run queries in both
rings, verify answers against the plaintext oracle, restart the server
from persisted state, and audit what leaked.
"""

import pytest

from repro.analysis import audit_server_view, storage_report
from repro.baselines import (
    DownloadAllClient,
    PlaintextSearchIndex,
    build_bloom_index,
    build_linear_scan,
)
from repro.core import (
    AdvancedStrategy,
    ClientContext,
    VerificationMode,
    choose_int_ring,
    outsource_document,
)
from repro.net import SQLiteShareStore, connect_in_process
from repro.prg import DeterministicPRG
from repro.workloads import (
    CatalogConfig,
    XMarkConfig,
    generate_catalog_document,
    generate_xmark_document,
)


class TestFullJourneyCatalog:
    def test_outsource_query_persist_restart(self, tmp_path):
        document = generate_catalog_document(CatalogConfig(customers=8, products=6))
        plaintext = PlaintextSearchIndex(document)

        # 1. Outsource.
        client, server_tree, _ = outsource_document(document, seed=b"journey")

        # 2. Query over the wire with full verification.
        adapter, server, channel = connect_in_process(server_tree)
        queries = ["//customer", "//customer/order//product", "//warehouse//quantity"]
        for query in queries:
            result = client.xpath(adapter, query)
            assert result.matches == plaintext.query(query).matches
        assert channel.stats.total_bytes > 0

        # 3. The server never saw a tag name and the audit reflects the traffic.
        report = audit_server_view(server)
        assert report.tag_names_seen == 0
        assert report.distinct_points_seen >= 3

        # 4. Persist the server state, close and reopen the store, and keep
        #    querying with a client rebuilt purely from its secret state
        #    (seed + mapping).
        path = str(tmp_path / "outsourced.db")
        SQLiteShareStore.from_tree(path, server_tree).close()
        restored_client = ClientContext.from_secret_state(
            client.ring, client.secret_state())
        with SQLiteShareStore(path) as restarted:
            for query in queries:
                assert restored_client.xpath(restarted, query).matches == \
                    plaintext.query(query).matches

    def test_all_systems_agree_on_answers(self):
        document = generate_catalog_document(CatalogConfig(customers=5, products=4))
        plaintext = PlaintextSearchIndex(document)
        scheme_client, server_tree, _ = outsource_document(document, seed=b"agree")
        linear_client, linear_index = build_linear_scan(document)
        bloom_client, bloom_index = build_bloom_index(document)
        download_client = DownloadAllClient(DeterministicPRG(b"agree-dl"))
        download_server = download_client.outsource(document)

        for tag in document.distinct_tags():
            expected = plaintext.lookup(tag).matches
            assert scheme_client.lookup(server_tree, tag).matches == expected
            assert linear_client.lookup(linear_index, tag).matches == expected
            assert bloom_client.lookup(bloom_index, tag).matches == expected
            assert download_client.lookup(download_server, tag).matches == expected

    def test_storage_ordering_matches_section5(self):
        document = generate_catalog_document(CatalogConfig(customers=5, products=4))
        client, _, _ = outsource_document(document, seed=b"storage")
        rows = storage_report(document, client.mapping, fp_ring=client.ring,
                              int_ring=choose_int_ring(2))
        measured = {row.representation: row.measured_bits for row in rows}
        plaintext_bits = measured["plaintext"]
        assert all(bits > plaintext_bits for name, bits in measured.items()
                   if name != "plaintext")


class TestFullJourneyXmark:
    @pytest.mark.parametrize("verification", [VerificationMode.FULL,
                                              VerificationMode.NONE])
    def test_both_rings_answer_xmark_queries(self, verification):
        document = generate_xmark_document(XMarkConfig(items_per_region=2, people=6,
                                                       open_auctions=3))
        plaintext = PlaintextSearchIndex(document)
        for ring in (None, choose_int_ring(2)):       # None = auto F_p
            client, server_tree, _ = outsource_document(
                document, ring=ring, seed=b"xmark-journey", verification=verification)
            for query in ("//item", "//person/name", "//open_auction/bidder"):
                truth = set(plaintext.query(query).matches)
                result = client.xpath(server_tree, query)
                if verification is VerificationMode.FULL:
                    assert set(result.matches) == truth
                else:
                    assert truth <= set(result.matches) | set()

    def test_strategies_and_transport_compose(self):
        document = generate_xmark_document(XMarkConfig(items_per_region=3, people=8,
                                                       open_auctions=5))
        plaintext = PlaintextSearchIndex(document)
        client, server_tree, _ = outsource_document(document, seed=b"compose")
        adapter, _, channel = connect_in_process(server_tree)
        query = "//open_auction/bidder/personref/person"
        truth = plaintext.query(query).matches
        single = client.xpath(adapter, query, strategy=AdvancedStrategy.SINGLE_PASS)
        bytes_single = channel.stats.total_bytes
        channel.reset()
        naive = client.xpath(adapter, query, strategy=AdvancedStrategy.LEFT_TO_RIGHT)
        bytes_naive = channel.stats.total_bytes
        assert single.matches == naive.matches == truth
        assert bytes_single > 0 and bytes_naive > 0
