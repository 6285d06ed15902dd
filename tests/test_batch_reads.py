"""Set-at-a-time server reads: batch child lists and coefficient rows.

The serving engine reads structure one descent level at a time
(:meth:`ShareStore.child_lists`) and serves every polynomial or constant
fetch from one batch share read (:meth:`ShareStore.coefficient_rows`).
These tests pin both batch reads to the per-node reads they replace, on
both stores: across ``IN (...)`` chunk boundaries, with duplicate and
unknown ids, after committed batches and after a forced rollback, and at
the wire (responses byte-identical across backends).
"""

import random
import re

import pytest

from repro.algebra.vkernels import VecFpKernel
from repro.core import outsource_document
from repro.errors import SharingError
from repro.net import SQLiteShareStore, SearchServer
from repro.net.messages import FrontierRequest
from repro.net.storage import share_tree_from_dict, share_tree_to_dict
from repro.net.store import _SQL_CHUNK
from repro.workloads import RandomXmlConfig, generate_random_document


@pytest.fixture(scope="module")
def outsourced_large():
    """A tree comfortably larger than one SQL chunk."""
    document = generate_random_document(
        RandomXmlConfig(element_count=1300, tag_vocabulary_size=10, seed=5))
    client, tree, _ = outsource_document(document, seed=b"batch-reads")
    return client, share_tree_to_dict(tree)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, outsourced_large, tmp_path):
    """A fresh store of each backend over the same tree."""
    tree = share_tree_from_dict(outsourced_large[1])
    if request.param == "memory":
        yield tree
        return
    durable = SQLiteShareStore.from_tree(str(tmp_path / "batch.db"), tree)
    yield durable
    durable.close()


def per_node_children(store, node_ids):
    return {node_id: store.child_ids(node_id) for node_id in node_ids}


def per_node_rows(store, node_ids):
    width = store.ring.degree_bound
    return {node_id: [int(store.share_of(node_id).coefficient(i))
                      for i in range(width)]
            for node_id in node_ids}


def shuffled_ids_with_duplicates(store, seed=3):
    node_ids = store.node_ids()
    picked = random.Random(seed).sample(node_ids, len(node_ids))
    return picked + picked[:40] + picked[7:9]


class TestChildLists:
    def test_match_per_node_reads_across_chunks(self, store):
        node_ids = shuffled_ids_with_duplicates(store)
        assert len(set(node_ids)) > _SQL_CHUNK
        assert store.child_lists(node_ids) == per_node_children(store, node_ids)

    def test_unknown_id_is_named(self, store):
        root = store.root_id
        with pytest.raises(SharingError, match="987654"):
            store.child_lists([root, 987654, 987655])
        with pytest.raises(SharingError, match="987654"):
            store.child_ids(987654)

    def test_subtree_ids_keep_the_stack_walk_order(self, store):
        anchor = store.child_ids(store.root_id)[0]
        expected, stack = [], [anchor]
        while stack:
            current = stack.pop()
            expected.append(current)
            stack.extend(store.child_ids(current))
        assert store.subtree_ids(anchor) == expected


class TestCoefficientRows:
    def test_match_per_node_reads_across_chunks(self, store):
        node_ids = shuffled_ids_with_duplicates(store)
        # Warm part of the cache through the evaluation path first, so the
        # batch read mixes cached entries with loaded misses.
        store.evaluate_many(node_ids[:300], 3)
        rows = store.coefficient_rows(node_ids)
        assert rows == per_node_rows(store, node_ids)
        # Both stores serve the vectorized tier's rows as one int64 block.
        vectorized = isinstance(store.ring.field.kernel(), VecFpKernel)
        assert (rows.matrix is not None) == vectorized

    def test_rows_are_padded_to_the_degree_bound(self, store):
        rows = store.coefficient_rows(store.node_ids()[:50])
        assert {len(row) for row in rows.values()} == {store.ring.degree_bound}
        assert all(type(c) is int for row in rows.values() for c in row)

    def test_unknown_id_is_named(self, store):
        with pytest.raises(SharingError, match="987654"):
            store.coefficient_rows([store.root_id, 987654])


def mutate(store, rng):
    """One batch: three inserted nodes and one removed subtree."""
    ring = store.ring
    root = store.root_id
    doomed = store.child_ids(root)[-1]
    fresh = store.max_node_id() + 1
    with store.transaction() as txn:
        removed = txn.remove_subtree(doomed)
        txn.add_node(fresh, root, ring.random_element(rng))
        txn.add_node(fresh + 1, fresh, ring.random_element(rng))
        txn.add_node(fresh + 2, fresh, ring.random_element(rng))
    return removed, [fresh, fresh + 1, fresh + 2]


class TestAfterMutations:
    def test_batch_reads_follow_committed_batches(self, store):
        removed, added = mutate(store, random.Random(11))
        node_ids = store.node_ids()
        assert set(added) <= set(node_ids)
        assert not set(removed) & set(node_ids)
        assert store.child_lists(node_ids) == per_node_children(store, node_ids)
        assert store.coefficient_rows(node_ids) == per_node_rows(store, node_ids)
        assert store.child_lists([added[0]])[added[0]] == added[1:]
        with pytest.raises(SharingError, match=str(removed[0])):
            store.child_lists([store.root_id, removed[0]])
        with pytest.raises(SharingError, match=str(removed[0])):
            store.coefficient_rows([removed[0]])

    def test_batch_reads_after_forced_rollback(self, outsourced_large,
                                               tmp_path):
        # Crash points exist on the durable backend only.
        store = SQLiteShareStore.from_tree(
            str(tmp_path / "rollback.db"),
            share_tree_from_dict(outsourced_large[1]))
        try:
            node_ids = store.node_ids()
            before_children = store.child_lists(node_ids)
            before_rows = store.coefficient_rows(node_ids)

            def crash(step):
                if step == 2:
                    raise RuntimeError("injected crash")

            store.fault_injection_hook = crash
            with pytest.raises(RuntimeError, match="injected crash"):
                mutate(store, random.Random(12))
            store.fault_injection_hook = None
            assert store.last_recovery == "rolled-back"
            assert store.node_ids() == node_ids
            assert store.child_lists(node_ids) == before_children
            assert store.coefficient_rows(node_ids) == before_rows
            assert store.child_lists(node_ids) == per_node_children(store, node_ids)
            assert store.coefficient_rows(node_ids) == per_node_rows(store, node_ids)
        finally:
            store.close()


class TestStatementShapes:
    def test_in_lists_are_padded_to_powers_of_two(self, outsourced_large,
                                                 tmp_path):
        tree = share_tree_from_dict(outsourced_large[1])
        store = SQLiteShareStore.from_tree(str(tmp_path / "shapes.db"), tree)
        statements = []
        store._conn.set_trace_callback(statements.append)
        node_ids = store.node_ids()
        rng = random.Random(4)
        try:
            for _ in range(40):
                picked = rng.sample(node_ids, rng.randint(1, 1200))
                store.child_lists(picked)
                store.coefficient_rows(picked)
                store.evaluate_many(picked, 5)
        finally:
            store._conn.set_trace_callback(None)
            store.close()
        # The trace shows expanded SQL: count the values inside each IN list.
        widths = {len(match.split(","))
                  for sql in statements
                  for match in re.findall(r" IN \(([^)]*)\)", sql)}
        assert widths
        assert all(width & (width - 1) == 0 and width <= 512
                   for width in widths), sorted(widths)


class TestServedFetches:
    def requests(self, store):
        root = store.root_id
        children = store.child_ids(root)
        grandchildren = store.child_ids(children[0])
        return [
            FrontierRequest([root], [3], lookahead=2),
            FrontierRequest(children, [3, 4], lookahead=1,
                            fetch_polynomials=children[:2]),
            FrontierRequest([root], [4], include_children=True,
                            fetch_polynomials=[root] + grandchildren),
            FrontierRequest(children[:1], [3], include_children=False,
                            fetch_polynomials=grandchildren,
                            fetch_constants=children[:3]),
            FrontierRequest([], [], include_children=True,
                            fetch_constants=children),
        ]

    def test_responses_identical_across_backends(self, outsourced_large,
                                                 tmp_path):
        tree = share_tree_from_dict(outsourced_large[1])
        durable = SQLiteShareStore.from_tree(str(tmp_path / "wire.db"),
                                             share_tree_from_dict(
                                                 outsourced_large[1]))
        try:
            memory_server = SearchServer(tree)
            durable_server = SearchServer(durable)
            some = tree.node_ids()[::7]
            messages = self.requests(durable) + [
                FrontierRequest(some, [], include_children=True),
                FrontierRequest(include_children=False,
                                fetch_polynomials=some),
                FrontierRequest(include_children=False,
                                fetch_constants=some)]
            for message in messages:
                assert memory_server.handle(message).encode() == \
                    durable_server.handle(message).encode()
        finally:
            durable.close()

    def test_exact_fetches_equal_per_node_reads(self, store):
        some = store.node_ids()[::5]
        request = FrontierRequest(include_children=False,
                                  fetch_polynomials=some, fetch_constants=some)
        response = SearchServer(store).handle(request).bind(request)
        assert dict(response.rows) == per_node_rows(store, some)
        assert response.constants == {
            node_id: int(store.share_of(node_id).constant_term)
            for node_id in some}
