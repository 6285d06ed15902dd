"""The share-row cache shared by the durable store and the client generator.

:class:`ShareRowCache` keeps shares in exact LRU order, as int64 rows in
one slot matrix on the vectorized tier's rings and as polynomials
otherwise.  These tests hold it to a reference ``OrderedDict`` LRU step by
step (rows, hit and miss counts, evicted ids, order) in both forms, and
hold the durable store's reads through it to a freshly opened store after
oversized miss batches, committed batches, injected failures and
overflowing heads.
"""

import random
import re
import sys
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import FpQuotientRing
from repro.algebra.vkernels import numpy_or_none
from repro.core import outsource_document
from repro.core.share_tree import ShareRowCache
from repro.net import SQLiteShareStore
from repro.workloads import RandomXmlConfig, generate_random_document

share_tree_module = sys.modules["repro.core.share_tree"]

numpy_present = pytest.mark.skipif(numpy_or_none() is None,
                                   reason="the slot matrix needs numpy")

P = 13
WIDTH = P - 1


def make_cache(capacity, rows):
    """A cache over ``F_13[x]`` in the row form, or the polynomial form."""
    ring = FpQuotientRing(P)
    if rows:
        return ring, ShareRowCache(capacity, ring)
    with mock.patch.object(share_tree_module, "numpy_or_none", lambda: None):
        return ring, ShareRowCache(capacity, ring)


def truth_row(node_id, version):
    """A reduced row for ``node_id``; often with trailing zeros, sometimes all zero."""
    rng = random.Random(f"{node_id}/{version}")
    row = [rng.randrange(P) for _ in range(WIDTH)]
    zeros = rng.choice([0, 0, 1, 5, WIDTH])
    return row[:WIDTH - zeros] + [0] * zeros


def padded(share):
    coeffs = list(share.coeffs)
    return coeffs + [0] * (WIDTH - len(coeffs))


class ReferenceLRU:
    """The contract, over one ``OrderedDict`` of rows (misses put one by one)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.hits = self.misses = 0

    def _append(self, node_id, row):
        if not self.capacity:
            return
        if len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)
        self.entries[node_id] = row

    def fetch(self, node_ids, truth):
        rows, missing = [], []
        for node_id in node_ids:
            if node_id in self.entries:
                self.entries.move_to_end(node_id)
                self.hits += 1
            elif node_id not in missing:
                missing.append(node_id)
            rows.append(truth[node_id])
        self.misses += len(missing)
        for node_id in missing:
            self._append(node_id, truth[node_id])
        return rows, missing

    def get(self, node_id):
        if node_id not in self.entries:
            self.misses += 1
            return None
        self.entries.move_to_end(node_id)
        self.hits += 1
        return self.entries[node_id]

    def put(self, node_id, row):
        if node_id in self.entries:
            self.entries[node_id] = row
        else:
            self._append(node_id, row)


ID_SPACE = 100
ids = st.integers(0, ID_SPACE - 1)
operations = st.lists(st.one_of(
    st.tuples(st.just("fetch"), st.lists(ids, max_size=80)),
    st.tuples(st.just("get"), ids),
    st.tuples(st.just("put"), ids),
    st.tuples(st.just("discard"), ids),
    st.tuples(st.just("clear"), st.none()),
), max_size=40)
forms = st.booleans() if numpy_or_none() is not None else st.just(False)


@settings(max_examples=200, deadline=None)
@given(capacity=st.sampled_from([0, 1, 2, 7, 64]), rows=forms, steps=operations)
def test_matches_reference_lru(capacity, rows, steps):
    check_against_reference(capacity, rows, steps)


#: Steps the generated cases may miss: an all-hit batch that reorders,
#: discarded slots reused before the matrix is full, a batch longer than
#: the cache, repeats within a batch, in-place writes, and a clear.
SCENARIO = [("fetch", [1, 2, 3, 4]), ("fetch", [4, 2, 1, 3]),
            ("discard", 2), ("discard", 3), ("fetch", [5, 6, 7, 8, 9]),
            ("put", 1), ("get", 9), ("fetch", [9, 9, 10, 10, 1, 11]),
            ("fetch", list(range(20, 90)) + [20, 21]), ("put", 95),
            ("clear", None), ("fetch", [3, 1, 3]), ("discard", 1),
            ("fetch", [2, 4, 6, 8])]


@pytest.mark.parametrize("rows", [True, False] if numpy_or_none() is not None
                         else [False])
@pytest.mark.parametrize("capacity", [0, 1, 2, 7, 64])
def test_scenario_matches_reference_lru(capacity, rows):
    check_against_reference(capacity, rows, SCENARIO)


def check_against_reference(capacity, rows, steps):
    """Run ``steps`` on a cache and on :class:`ReferenceLRU`; compare each step."""
    ring, cache = make_cache(capacity, rows)
    reference = ReferenceLRU(capacity)
    versions = {}
    truth = {node_id: truth_row(node_id, 0) for node_id in range(ID_SPACE)}

    def load(node_ids):
        loads.append(list(node_ids))
        if rows:
            return numpy_or_none().array([truth[node_id] for node_id in node_ids],
                                         dtype=numpy_or_none().int64
                                         ).reshape(len(node_ids), WIDTH)
        return [ring.from_coefficients(truth[node_id]) for node_id in node_ids]

    for kind, argument in steps:
        before = set(reference.entries)
        loads = []
        if kind == "fetch":
            fetched = cache.fetch(argument, load)
            expected, missing = reference.fetch(argument, truth)
            got = (fetched.tolist() if rows
                   else [padded(share) for share in fetched])
            assert got == expected
            assert loads == ([missing] if missing else [])
            if rows:
                assert fetched.shape == (len(argument), WIDTH)
        elif kind == "get":
            share = cache.get(argument)
            row = reference.get(argument)
            assert (share is None) == (row is None)
            if share is not None:
                assert padded(share) == row
        elif kind == "put":
            versions[argument] = versions.get(argument, 0) + 1
            truth[argument] = truth_row(argument, versions[argument])
            cache.put(argument, ring.from_coefficients(truth[argument]))
            reference.put(argument, truth[argument])
        elif kind == "discard":
            cache.discard(argument)
            reference.entries.pop(argument, None)
        else:
            cache.clear()
            reference.entries.clear()
        after = set(reference.entries)
        assert before - set(cache._order) == before - after     # evicted ids
        assert list(cache._order) == list(reference.entries)    # LRU order
        assert (cache.hits.value, cache.misses.value) == (
            reference.hits, reference.misses)
        assert len(cache) <= capacity
        if rows and len(cache):
            slots = list(cache._order.values())
            assert len(set(slots)) == len(slots) and max(slots) < capacity
            assert cache._slots[slots].tolist() == [
                truth[node_id] for node_id in cache._order]


@numpy_present
def test_rows_do_not_alias_the_cache():
    ring, cache = make_cache(4, rows=True)
    np = numpy_or_none()

    def load(node_ids):
        return np.full((len(node_ids), WIDTH), 3, dtype=np.int64)

    missed = cache.fetch([1, 2], load)
    missed[:] = 0
    hit = cache.fetch([1, 2], load)
    assert hit.tolist() == [[3] * WIDTH] * 2
    hit[:] = 0
    assert cache.fetch([2, 1], load).tolist() == [[3] * WIDTH] * 2
    assert padded(cache.get(1)) == [3] * WIDTH


@numpy_present
def test_slot_matrix_takes_memory_only_where_written():
    """Allocated on the first insert; untouched slots stay unbacked."""
    ring = FpQuotientRing(53)
    cache = ShareRowCache(100_000, ring)
    assert cache.width == 52 and cache._slots is None

    def resident_kb():
        try:
            with open("/proc/self/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except OSError:
            pass
        pytest.skip("needs /proc/self/status")

    np = numpy_or_none()
    before = resident_kb()
    cache.fetch(list(range(8)),
                lambda node_ids: np.ones((len(node_ids), 52), dtype=np.int64))
    grown = resident_kb() - before
    assert cache._slots.nbytes == 100_000 * 52 * 8          # 41.6 MB reserved
    assert grown < 8 * 1024, grown


# -- the durable store through the cache ---------------------------------------------

@pytest.fixture(scope="module")
def outsourced():
    document = generate_random_document(
        RandomXmlConfig(element_count=160, tag_vocabulary_size=8, seed=20))
    client, tree, _ = outsource_document(document, ring=FpQuotientRing(53),
                                         seed=b"row-cache")
    return client, tree


def all_rows(store):
    node_ids = store.node_ids()
    return dict(store.coefficient_rows(node_ids).items())


def fresh_rows(path):
    fresh = SQLiteShareStore(path, cache_size=0)
    try:
        return all_rows(fresh), {
            node_id: fresh.share_of(node_id) for node_id in fresh.node_ids()}
    finally:
        fresh.close()


def assert_reads_like_fresh(store, path):
    rows, shares = fresh_rows(path)
    assert all_rows(store) == rows
    assert {node_id: store.share_of(node_id) for node_id in store.node_ids()} == shares
    node_ids = store.node_ids()
    assert list(store.evaluate_many(node_ids, 3).values()) == \
        store.ring.evaluate_many([shares[node_id] for node_id in node_ids], 3)


class TestStoreReads:
    def test_miss_batch_larger_than_the_cache(self, outsourced, tmp_path):
        _, tree = outsourced
        path = str(tmp_path / "small.db")
        store = SQLiteShareStore.from_tree(path, tree, cache_size=8)
        try:
            node_ids = store.node_ids()[:50]
            first = store.coefficient_rows(node_ids)
            assert store.cached_share_count() == 8
            assert [node_id for node_id in node_ids if node_id in store._cache] \
                == node_ids[-8:]
            assert dict(store.coefficient_rows(node_ids).items()) == \
                dict(first.items())
            assert_reads_like_fresh(store, path)
        finally:
            store.close()

    def test_committed_batch_is_folded_in(self, outsourced, tmp_path):
        _, tree = outsourced
        path = str(tmp_path / "fold.db")
        store = SQLiteShareStore.from_tree(path, tree, cache_size=64)
        try:
            rng = random.Random(5)
            store.evaluate_many(store.node_ids(), 2)            # warm
            root = store.root_id
            cached = [node_id for node_id in store.node_ids()
                      if node_id in store._cache and node_id != root][:3]
            doomed = store.child_ids(root)[0]
            fresh = store.max_node_id() + 1
            with store.transaction() as txn:
                for node_id in cached:
                    if node_id not in store.subtree_ids(doomed):
                        txn.replace_share(node_id, store.ring.random_element(rng))
                txn.remove_subtree(doomed)
                txn.add_node(fresh, root, store.ring.random_element(rng))
            assert fresh in store._cache
            assert doomed not in store._cache
            assert_reads_like_fresh(store, path)
        finally:
            store.close()

    @pytest.mark.parametrize("crash_at", ["before-commit", "after-commit"])
    def test_injected_failure_reloads(self, outsourced, tmp_path, crash_at):
        _, tree = outsourced
        path = str(tmp_path / "fault.db")
        store = SQLiteShareStore.from_tree(path, tree, cache_size=64)
        try:
            store.evaluate_many(store.node_ids(), 4)            # warm
            target = store.node_ids()[5]
            ops = 1

            def hook(step):
                if step == (1 if crash_at == "before-commit" else ops + 1):
                    raise RuntimeError("injected failure")

            store.fault_injection_hook = hook
            with pytest.raises(RuntimeError, match="injected failure"):
                store.replace_share(target,
                                    store.ring.random_element(random.Random(9)))
            store.fault_injection_hook = None
            assert store.cached_share_count() == 0
            assert_reads_like_fresh(store, path)
        finally:
            store.close()

    @pytest.mark.parametrize("page_bytes", [16, 49])
    def test_pages_read_only_for_full_heads(self, outsourced, tmp_path,
                                            page_bytes):
        """At p = 53 a share is a 49-byte blob: 16-byte pages overflow it,
        and 49-byte pages fill the head exactly with nothing after it."""
        _, tree = outsourced
        assert tree.ring.degree_bound == 52
        path = str(tmp_path / f"pages-{page_bytes}.db")
        SQLiteShareStore.from_tree(path, tree, page_bytes=page_bytes).close()
        store = SQLiteShareStore(path, cache_size=0)
        statements = []
        store._conn.set_trace_callback(statements.append)
        try:
            node_ids = store.node_ids()
            assert store.evaluate_many(node_ids, 3) == \
                tree.evaluate_many(node_ids, 3)
            assert all(store.share_of(node_id) == tree.share_of(node_id)
                       for node_id in node_ids[:20])
        finally:
            store._conn.set_trace_callback(None)
        page_reads = [sql for sql in statements if re.search(r"FROM pages", sql)]
        assert page_reads
        overflowing = store._conn.execute(
            "SELECT COUNT(DISTINCT node_id) FROM pages").fetchone()[0]
        assert (overflowing > 0) == (page_bytes == 16)
        store.close()

    def test_no_page_reads_when_heads_hold_the_share(self, outsourced, tmp_path):
        _, tree = outsourced
        store = SQLiteShareStore.from_tree(str(tmp_path / "heads.db"), tree,
                                           cache_size=0)
        statements = []
        store._conn.set_trace_callback(statements.append)
        try:
            node_ids = store.node_ids()
            store.evaluate_many(node_ids, 3)
            store.coefficient_rows(node_ids)
            store.share_of(node_ids[0])
        finally:
            store._conn.set_trace_callback(None)
            store.close()
        assert statements
        assert not [sql for sql in statements if "FROM pages" in sql]
