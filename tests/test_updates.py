"""Tests for dynamic updates to an outsourced document."""

import random

import pytest

from repro.baselines import PlaintextSearchIndex
from repro.core import (
    ClientShareGenerator,
    UpdatableTree,
    choose_fp_ring,
    choose_int_ring,
    decode_tree,
    outsource_document,
    reconstruct_tree,
)
from repro.errors import QueryError
from repro.prg import DeterministicPRG
from repro.workloads import CatalogConfig, generate_catalog_document
from repro.xmltree import XmlElement, parse_element


def _editor(client, server_tree):
    return UpdatableTree(client.ring, client.mapping, client.share_generator,
                         server_tree)


def _decoded_tags(client, server_tree):
    tree = reconstruct_tree(client.share_generator, server_tree)
    return [element.tag for element in decode_tree(tree, client.mapping).iter()]


@pytest.fixture(params=["fp", "int"])
def editable_setup(request, catalog_document, share_backend):
    ring = None if request.param == "fp" else choose_int_ring(2)
    # Leave headroom in the F_p mapping so inserts can introduce new tags.
    if request.param == "fp":
        ring = choose_fp_ring(len(catalog_document.distinct_tags()) + 4)
    client, server_tree, _ = outsource_document(catalog_document, ring=ring,
                                                seed=b"update-seed")
    # ``share_backend`` routes the tree through the REPRO_STORE_BACKEND
    # backend (identity by default, a durable SQLite store in the CI
    # matrix leg), so every update test also runs against the durable
    # store's one-transaction batch path.
    return catalog_document, client, share_backend(server_tree)


class TestInsert:
    def test_inserted_subtree_becomes_searchable(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        before = client.lookup(server_tree, "order").matches

        new_order = parse_element(
            "<order><date>2026-06-14</date>"
            "<item><product>SKU-0001</product><quantity>2</quantity></item></order>")
        customer_id = client.lookup(server_tree, "customer").matches[0]
        report = editor.insert_subtree(customer_id, new_order)

        after = client.lookup(server_tree, "order")
        assert len(after.matches) == len(before) + 1
        assert set(report.new_node_ids) <= set(after.stats.as_dict() and
                                               server_tree.node_ids())
        # The new order is reachable through its ancestors via a path query.
        path_matches = client.xpath(server_tree, "//customer/order/item/product").matches
        assert set(report.new_node_ids) & set(server_tree.node_ids())
        assert any(node in path_matches for node in report.new_node_ids)

    def test_insert_only_touches_the_ancestor_path(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        customer_id = client.lookup(server_tree, "customer").matches[-1]
        new_leaf = XmlElement("note")
        report = editor.insert_subtree(customer_id, new_leaf)
        assert report.affected_ancestors[0] == customer_id
        assert report.affected_ancestors[-1] == server_tree.root_id
        assert report.shares_rewritten == len(report.affected_ancestors) + 1

    def test_insert_new_tag_extends_mapping(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        editor.insert_subtree(server_tree.root_id, XmlElement("annex"))
        assert "annex" in client.mapping
        assert client.lookup(server_tree, "annex").matches

    def test_unknown_parent_rejected(self, editable_setup):
        _, client, server_tree = editable_setup
        with pytest.raises(QueryError):
            _editor(client, server_tree).insert_subtree(10_000, XmlElement("x"))

    def test_document_decodes_correctly_after_insert(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        editor.insert_subtree(server_tree.root_id, parse_element("<audit><entry/></audit>"))
        tags = _decoded_tags(client, server_tree)
        assert tags.count("audit") == 1 and tags.count("entry") == 1
        assert len(tags) == document.size() + 2


class TestInsertCost:
    """Inserting an n-node subtree costs n ring products and one id query.

    The subtree is encoded bottom-up once (one product per edge, n − 1)
    and multiplied into its only ancestor, the root; its ids come from one
    ``max_node_id`` call.  An editor that recomputes every node's
    descendant product, or queries the ids per node, is quadratic in n
    and fails the count.
    """

    @pytest.mark.parametrize("size", [8, 128])
    def test_insert_under_root_counts_work(self, editable_setup, monkeypatch,
                                           size):
        _, client, server_tree = editable_setup
        tags = sorted(client.mapping.tags())
        rng = random.Random(size)
        nodes = [XmlElement(tags[0])]
        for index in range(1, size):
            parent = nodes[rng.randrange(index)]
            nodes.append(parent.add(tags[index % len(tags)]))
        calls = {"mul": 0, "max_node_id": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(client.ring, "mul",
                            counted("mul", client.ring.mul))
        monkeypatch.setattr(server_tree, "max_node_id",
                            counted("max_node_id", server_tree.max_node_id))
        report = _editor(client, server_tree).insert_subtree(
            server_tree.root_id, nodes[0])
        assert len(report.new_node_ids) == size
        assert calls == {"mul": size, "max_node_id": 1}


class TestDelete:
    def test_deleted_subtree_disappears_from_queries(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        victims = client.lookup(server_tree, "order").matches
        target = victims[0]
        size_before = server_tree.node_count()

        report = editor.delete_subtree(target)
        assert target in report.removed_node_ids
        assert server_tree.node_count() == size_before - len(report.removed_node_ids)
        remaining = client.lookup(server_tree, "order").matches
        assert target not in remaining
        assert len(remaining) == len(victims) - 1

    def test_sibling_subtrees_unaffected(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        customers = client.lookup(server_tree, "customer").matches
        editor.delete_subtree(customers[0])
        assert len(client.lookup(server_tree, "customer").matches) == len(customers) - 1
        # Unrelated parts of the document still answer correctly.
        assert client.lookup(server_tree, "warehouse").matches

    def test_root_cannot_be_deleted(self, editable_setup):
        _, client, server_tree = editable_setup
        with pytest.raises(QueryError):
            _editor(client, server_tree).delete_subtree(server_tree.root_id)

    def test_unknown_node_rejected(self, editable_setup):
        _, client, server_tree = editable_setup
        with pytest.raises(QueryError):
            _editor(client, server_tree).delete_subtree(10_000)

    def test_document_decodes_correctly_after_delete(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        order = client.lookup(server_tree, "order").matches[0]
        removed = editor.delete_subtree(order)
        tags = _decoded_tags(client, server_tree)
        assert len(tags) == document.size() - len(removed.removed_node_ids)


class TestRename:
    def test_rename_changes_query_results(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        orders = client.lookup(server_tree, "order").matches
        target = orders[0]
        report = editor.rename_node(target, "archived_order")
        assert report.affected_ancestors[0] == target
        assert target not in client.lookup(server_tree, "order").matches
        assert client.lookup(server_tree, "archived_order").matches == [target]
        # Descendants of the renamed node are untouched.
        assert client.xpath(server_tree, "//archived_order/item").matches

    def test_rename_leaf(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        leaf = client.lookup(server_tree, "city").matches[0]
        editor.rename_node(leaf, "municipality")
        assert leaf in client.lookup(server_tree, "municipality").matches


class TestRefresh:
    def test_refresh_preserves_data_and_invalidates_old_seed(self, editable_setup):
        document, client, server_tree = editable_setup
        editor = _editor(client, server_tree)
        expected = client.lookup(server_tree, "customer").matches

        new_prg = DeterministicPRG(b"rotated-seed")
        new_generator = ClientShareGenerator(client.ring, new_prg)
        report = editor.refresh_shares(new_generator)
        assert report.shares_rewritten == server_tree.node_count()

        # Queries with the new generator still work and agree with plaintext.
        refreshed = reconstruct_tree(new_generator, server_tree)
        decoded = decode_tree(refreshed, client.mapping)
        assert [e.tag for e in decoded.iter()] == [e.tag for e in document.iter()]

        # The old seed no longer combines with the new server shares.
        stale = reconstruct_tree(client.share_generator, server_tree)
        assert any(stale.polynomial(i) != refreshed.polynomial(i)
                   for i in server_tree.node_ids())
        plaintext = PlaintextSearchIndex(document)
        assert plaintext.lookup("customer").matches == expected
