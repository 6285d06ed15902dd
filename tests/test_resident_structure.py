"""The durable store's resident structure.

:class:`~repro.net.store.SQLiteShareStore` answers every structural read
(child lists, subtrees, parents, existence, root, counts) from a
:class:`~repro.core.share_tree.TreeStructure` loaded by one scan of the
node table, and applies each batch to it inside the batch's transaction.
These tests drive random batches with a failure injected at every crash
point, before and after the ``COMMIT``, and check after each batch that
the live store's structure equals a fresh load of the file and the same
edits on the in-memory backend.  Two cases pin what the in-transaction
application must keep: a batch whose removal would sweep up a node the
same batch added is refused and rolled back, and lists handed to callers
are copies.
"""

import os
import random
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import FpQuotientRing
from repro.core import ServerShareTree
from repro.errors import SharingError
from repro.net import SQLiteShareStore

RING = FpQuotientRing(5)


def _tree(rng, size=24):
    """A random tree of ``size`` nodes with random shares."""
    tree = ServerShareTree(RING)
    tree.add_node(0, None, RING.random_element(rng))
    for node_id in range(1, size):
        tree.add_node(node_id, rng.randrange(node_id), RING.random_element(rng))
    return tree


def _snapshot(store):
    """Structure and shares as every read method reports them."""
    node_ids = store.node_ids()
    return {
        "root": store.root_id,
        "count": store.node_count(),
        "max": store.max_node_id(),
        "nodes": {node_id: (store.parent_id(node_id), store.child_ids(node_id),
                            tuple(store.share_of(node_id).coeffs))
                  for node_id in node_ids},
        "lists": store.child_lists(node_ids),
        "contained": all(node_id in store for node_id in node_ids),
    }


def _fresh_snapshot(path):
    fresh = SQLiteShareStore(path)
    try:
        return _snapshot(fresh)
    finally:
        fresh.close()


def _record(txn, store, rng, script, next_id):
    """Record ``script`` on ``txn``; ops the transaction refuses are skipped."""
    added = []
    for kind, selector in script:
        node_ids = store.node_ids() + added
        target = node_ids[selector % len(node_ids)]
        try:
            if kind == "add":
                txn.add_node(next_id, target, RING.random_element(rng))
                added.append(next_id)
                next_id += 1
            elif kind == "replace":
                txn.replace_share(target, RING.random_element(rng))
            else:
                txn.remove_subtree(target)
        except SharingError:
            continue
    return next_id


batch_scripts = st.lists(
    st.lists(st.tuples(st.sampled_from(["add", "add", "replace", "remove"]),
                       st.integers(min_value=0, max_value=10 ** 6)),
             min_size=1, max_size=6),
    min_size=1, max_size=4)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scripts=batch_scripts, fail_seed=st.integers(min_value=0, max_value=10 ** 6),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_structure_survives_batches_and_injected_failures(scripts, fail_seed, seed):
    directory = tempfile.mkdtemp(prefix="resident-")
    path = os.path.join(directory, "store.db")
    store = SQLiteShareStore.from_tree(path, _tree(random.Random(seed)))
    reference = _tree(random.Random(seed))
    chooser = random.Random(fail_seed)
    next_id = store.node_count()
    try:
        for index, script in enumerate(scripts):
            before = _snapshot(store)
            # Both sides record the same script from equal states with
            # equal rngs, so they buffer the same ops and shares.
            txn = store.transaction()
            recorded_next = _record(txn, store, random.Random(index), script,
                                    next_id)
            planned = reference.transaction()
            _record(planned, reference, random.Random(index), script, next_id)
            ops = txn.ops
            # 0: no failure; 1..len(ops): after that op is written inside
            # the transaction; len(ops) + 1: after the COMMIT.
            fail_at = chooser.randint(0, len(ops) + 1) if ops else 0

            def hook(step, fail_at=fail_at):
                if step == fail_at:
                    raise RuntimeError(f"injected failure at step {step}")

            store.fault_injection_hook = hook
            committed = True
            try:
                store.apply_batch(ops)
                assert not fail_at
            except RuntimeError:
                # Injected: before the COMMIT the batch is rolled back.
                committed = fail_at == len(ops) + 1
            except SharingError as exc:
                # Refused by the in-transaction checks, e.g. a removal
                # whose subtree gained a node the same batch added.
                assert "changed between transaction recording" in str(exc)
                committed = False
            store.fault_injection_hook = None
            if committed:
                reference.apply_batch(planned.ops)
                next_id = recorded_next
            else:
                assert store.last_recovery == "rolled-back"
                assert _snapshot(store) == before
            assert _snapshot(store) == _snapshot(reference)
            assert _snapshot(store) == _fresh_snapshot(path)
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)


@pytest.fixture
def store(tmp_path):
    durable = SQLiteShareStore.from_tree(str(tmp_path / "store.db"),
                                         _tree(random.Random(7)))
    yield durable
    durable.close()


def test_removal_that_sweeps_up_an_added_node_is_rolled_back(store):
    # Recorded against the pre-batch state, the removal expects the
    # ancestor's old subtree; applied after the add, that subtree also
    # holds the new node, so the batch is refused whole.
    before = _snapshot(store)
    ancestor = next(child for child in store.child_ids(store.root_id)
                    if store.child_ids(child))
    parent = store.child_ids(ancestor)[0]
    fresh_id = store.max_node_id() + 1
    with pytest.raises(SharingError, match="changed between transaction "
                                           "recording and apply"):
        with store.transaction() as txn:
            txn.add_node(fresh_id, parent, RING.random_element(random.Random(1)))
            txn.remove_subtree(ancestor)
    assert store.last_recovery == "rolled-back"
    assert fresh_id not in store
    assert _snapshot(store) == before
    assert _snapshot(store) == _fresh_snapshot(store.path)


def test_returned_lists_are_copies(store):
    before = _snapshot(store)
    root = store.root_id
    store.child_ids(root).append(10 ** 6)
    for children in store.child_lists(store.node_ids()).values():
        children.clear()
    store.subtree_ids(root).clear()
    store.node_ids().clear()
    assert _snapshot(store) == before
    assert _snapshot(store) == _fresh_snapshot(store.path)
