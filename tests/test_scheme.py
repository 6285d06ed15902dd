"""Tests for the high-level facade (ring choice, outsourcing, client state)."""

import pytest

from repro.algebra import FpQuotientRing, IntQuotientRing, is_prime
from repro.core import (
    ClientContext,
    TagMapping,
    VerificationMode,
    choose_fp_ring,
    choose_int_ring,
    outsource_document,
)
from repro.errors import MappingCapacityError
from repro.workloads import (
    RandomXmlConfig,
    figure1_document,
    generate_catalog_document,
    generate_random_document,
)


class TestRingChoice:
    def test_prime_large_enough_for_tags(self):
        document = generate_catalog_document()
        ring = choose_fp_ring(document)
        assert is_prime(ring.p)
        assert ring.p >= len(document.distinct_tags()) + 2

    def test_accepts_tag_count_directly(self):
        assert choose_fp_ring(3, strict=False, minimum_prime=2).p == 5
        assert choose_fp_ring(3, strict=True, minimum_prime=2).p == 5
        assert choose_fp_ring(10).p >= 12

    def test_rejects_empty_vocabulary(self):
        with pytest.raises(MappingCapacityError):
            choose_fp_ring(0)

    def test_int_ring_default_modulus(self):
        ring = choose_int_ring()
        assert isinstance(ring, IntQuotientRing)
        assert ring.degree_bound == 2
        assert choose_int_ring(3).degree_bound == 3


class TestOutsourcing:
    def test_returns_consistent_triple(self, paper_document):
        client, server_tree, tree = outsource_document(paper_document, seed=b"s")
        assert server_tree.node_count() == len(tree) == paper_document.size()
        assert isinstance(client.ring, FpQuotientRing)
        # Shares recombine to the encoded polynomials.
        for node in tree.iter_preorder():
            combined = client.ring.add(client.share_generator.share_for(node.node_id),
                                       server_tree.share_of(node.node_id))
            assert combined == node.polynomial

    def test_mapping_generated_when_absent(self, paper_document):
        client, _, _ = outsource_document(paper_document, seed=b"s")
        assert set(client.mapping.tags()) == set(paper_document.distinct_tags())

    def test_existing_mapping_extended(self, paper_document):
        mapping = TagMapping({"customers": 1})
        client, _, _ = outsource_document(paper_document, mapping=mapping, seed=b"s")
        assert "client" in client.mapping and "name" in client.mapping

    def test_random_mapping_with_rng(self, paper_document):
        import random

        client, _, _ = outsource_document(paper_document, seed=b"s",
                                          mapping_rng=random.Random(3))
        values = set(client.mapping.as_dict().values())
        assert len(values) == 3

    def test_strict_mode_avoids_p_minus_one(self, catalog_document):
        client, _, _ = outsource_document(catalog_document, seed=b"s", strict=True)
        assert isinstance(client.ring, FpQuotientRing)
        assert client.ring.p - 1 not in client.mapping.values()

    def test_random_seed_generated_when_absent(self, paper_document):
        client_a, _, _ = outsource_document(paper_document)
        client_b, _, _ = outsource_document(paper_document)
        assert client_a.prg.seed != client_b.prg.seed


class TestClientContext:
    def test_secret_state_roundtrip(self, paper_document):
        client, server_tree, _ = outsource_document(paper_document, seed=b"persist")
        restored = ClientContext.from_secret_state(client.ring, client.secret_state(),
                                                   verification=VerificationMode.FULL)
        # The restored client answers queries identically.
        assert restored.lookup(server_tree, "client").matches == \
            client.lookup(server_tree, "client").matches

    def test_tag_of_and_tag_path_of(self, paper_document):
        client, server_tree, _ = outsource_document(paper_document, seed=b"paths")
        assert client.tag_of(server_tree, 0) == "customers"
        assert client.tag_path_of(server_tree, 2) == "customers/client/name"
        assert client.tag_path_of(server_tree, 0) == "customers"

    def test_tag_path_via_remote_adapter(self, paper_document):
        """Over a session the structure is walked from the root once, up
        to the node's level, and the path's tags come in one closure
        fetch: at most depth + 2 round trips."""
        from repro.net import SearchServer, connect, connect_in_process

        client, server_tree, _ = outsource_document(paper_document, seed=b"paths")
        adapter, _, _ = connect_in_process(server_tree)
        assert client.tag_path_of(adapter, 4) == "customers/client/name"

        document = generate_random_document(RandomXmlConfig(
            element_count=200, tag_vocabulary_size=6, max_depth=9, seed=4))
        client, server_tree, _ = outsource_document(document, seed=b"deep-path")
        deepest = max(server_tree.node_ids(), key=server_tree.depth_of)
        depth = server_tree.depth_of(deepest)
        assert depth >= 6
        adapter, channel = connect(SearchServer(server_tree))
        before = channel.stats.round_trips
        assert client.tag_path_of(adapter, deepest) == \
            client.tag_path_of(server_tree, deepest)
        assert channel.stats.round_trips - before <= depth + 2

    def test_adapt_accepts_adapter_and_tree(self, paper_document):
        from repro.core import LocalServerAdapter

        client, server_tree, _ = outsource_document(paper_document, seed=b"adapt")
        adapter = LocalServerAdapter(server_tree)
        assert ClientContext.adapt(adapter) is adapter
        assert ClientContext.adapt(server_tree).share_tree is server_tree

    def test_default_verification_mode_is_used(self, paper_document):
        client, server_tree, _ = outsource_document(
            paper_document, seed=b"mode", verification=VerificationMode.NONE)
        engine = client.engine(ClientContext.adapt(server_tree))
        assert engine.verification is VerificationMode.NONE
