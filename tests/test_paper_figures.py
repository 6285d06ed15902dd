"""Exact reproduction of the paper's worked example (figures 1–6).

These are the tightest checks in the suite: the encoded polynomials, the
share sums and the query evaluation trees must equal the values printed in
the paper.
"""

import pytest

from repro.algebra import Polynomial, ZZ
from repro.core import LocalServerAdapter, encode_document, outsource_document
from repro.workloads import (
    expected_figure2_fp_polynomials,
    expected_figure2_int_polynomials,
    expected_figure5_sums,
    expected_figure6_sums,
    figure1_document,
    figure1_fp_ring,
    figure1_int_ring,
    figure1_mapping,
)


def _polynomials_by_tag_path(document, tree):
    elements = document.elements()
    return {elements[node.node_id].tag_path(): node.polynomial
            for node in tree.iter_preorder()}


class TestFigure1:
    def test_document_shape(self):
        document = figure1_document()
        assert document.size() == 5
        assert document.root.tag == "customers"
        assert [c.tag for c in document.root.children] == ["client", "client"]
        assert all(c.children[0].tag == "name" for c in document.root.children)

    def test_mapping_values(self):
        mapping = figure1_mapping()
        assert mapping.value("client") == 2
        assert mapping.value("customers") == 3
        assert mapping.value("name") == 4

    def test_nonreduced_root_polynomial(self):
        """Figure 1(c): customers = (x-3)((x-2)(x-4))^2 over Z[x]."""
        mapping = figure1_mapping()
        client = Polynomial.from_roots([2, 4], ZZ)
        root = Polynomial.linear_root(3, ZZ) * client * client
        # Expand by evaluating at a few points (uniquely determines degree-5 poly).
        for x in range(-3, 8):
            assert root.evaluate(x) == (x - 3) * ((x - 2) * (x - 4)) ** 2


class TestFigure2:
    def test_fp_polynomials_match_exactly(self):
        document = figure1_document()
        tree = encode_document(document, figure1_mapping(), figure1_fp_ring())
        by_path = _polynomials_by_tag_path(document, tree)
        for path, coefficients in expected_figure2_fp_polynomials().items():
            assert list(by_path[path].coeffs) == coefficients, path

    def test_int_polynomials_match_exactly(self):
        document = figure1_document()
        tree = encode_document(document, figure1_mapping(), figure1_int_ring())
        by_path = _polynomials_by_tag_path(document, tree)
        for path, coefficients in expected_figure2_int_polynomials().items():
            assert list(by_path[path].coeffs) == coefficients, path

    def test_pretty_printing_matches_paper_rendering(self):
        document = figure1_document()
        tree = encode_document(document, figure1_mapping(), figure1_fp_ring())
        assert str(tree.polynomial(0)) == "3x^3 + 3x^2 + 3x + 3"
        assert str(tree.polynomial(1)) == "x^2 + 4x + 3"
        assert str(tree.polynomial(2)) == "x + 1"
        int_tree = encode_document(figure1_document(), figure1_mapping(),
                                   figure1_int_ring())
        assert str(int_tree.polynomial(0)) == "265x + 45"
        assert str(int_tree.polynomial(1)) == "-6x + 7"
        assert str(int_tree.polynomial(2)) == "x - 4"


@pytest.mark.parametrize("ring_factory,expected_sums", [
    (figure1_fp_ring, expected_figure5_sums),
    (figure1_int_ring, expected_figure6_sums),
])
class TestFigures3To6:
    def test_shares_sum_to_figure2(self, ring_factory, expected_sums):
        """Figures 3 and 4: client + server share equals the original polynomial."""
        document = figure1_document()
        ring = ring_factory()
        client, server_tree, tree = outsource_document(
            document, ring=ring, mapping=figure1_mapping(), seed=b"fig34",
            strict=False)
        for node in tree.iter_preorder():
            combined = ring.add(client.share_generator.share_for(node.node_id),
                                server_tree.share_of(node.node_id))
            assert combined == node.polynomial

    def test_query_sum_tree_matches_figure(self, ring_factory, expected_sums):
        """Figures 5 and 6: per-node sums for the query x = 2 (//client)."""
        document = figure1_document()
        ring = ring_factory()
        client, server_tree, tree = outsource_document(
            document, ring=ring, mapping=figure1_mapping(), seed=b"fig56",
            strict=False)
        elements = document.elements()
        point = figure1_mapping().value("client")
        expected = expected_sums()
        generator = client.share_generator
        for node in tree.iter_preorder():
            client_value = ring.evaluate(generator.share_for(node.node_id), point)
            server_value = server_tree.evaluate(node.node_id, point)
            total = ring.evaluation_add(client_value, server_value, point)
            assert total == expected[elements[node.node_id].tag_path()]

    def test_protocol_outcome_matches_figure(self, ring_factory, expected_sums):
        """The dead branches and answers of the //client query match the text."""
        document = figure1_document()
        client, server_tree, _ = outsource_document(
            document, ring=ring_factory(), mapping=figure1_mapping(), seed=b"fig56",
            strict=False)
        adapter = LocalServerAdapter(server_tree)
        outcome = client.lookup(adapter, "client")
        assert outcome.matches == [1, 3]                       # the two client nodes
        assert set(outcome.pruned_nodes) == {2, 4}             # the name leaves are dead
        assert set(outcome.zero_nodes) == {0, 1, 3}
        # The server saw the point x=2 but never a tag name.
        assert set(adapter.observations.point_counts) == {2}
