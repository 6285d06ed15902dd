"""Multi-writer conflict handling for the v3 update protocol.

Two remote writers edit the same hosted document.  Because every update
rewrites the ancestor shares up to the root, *any* two concurrent
batches overlap at shared ancestors — so the losing writer's batch is
rejected with a :class:`~repro.net.messages.ConflictResponse` and
:class:`~repro.net.client.RemoteUpdatableTree` transparently rebases:
merge the reported versions, re-mirror the document, recompute, resend.

The contract proven here:

* **Disjoint subtrees** — both writers commit (the loser silently
  rebases) and the final store is bit-identical to the same edits
  applied sequentially in-process: deterministic regardless of who wins
  the race, over the in-process channel and both socket servers.
* **Overlapping subtrees** — when the second writer's anchor node was
  removed by the first, the conflict surfaces as
  :class:`~repro.errors.UpdateConflictError` and nothing half-applies.
* Exactly one ``ConflictResponse`` crosses the wire for one stale
  batch, and a writer with no rebase budget fails loudly.
"""

import os
import threading

import pytest

from repro.core import UpdatableTree, choose_fp_ring, outsource_document
from repro.errors import UpdateConflictError
from repro.net import (
    ConflictResponse,
    InstrumentedChannel,
    RemoteServerAdapter,
    RemoteUpdatableTree,
    SearchServer,
    ThreadedSearchServer,
    connect,
    connect_socket,
    share_tree_from_dict,
    share_tree_to_dict,
)
from repro.workloads import CatalogConfig, generate_catalog_document

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def store_state(store):
    return {
        node_id: (store.parent_id(node_id),
                  tuple(store.child_ids(node_id)),
                  tuple(store.share_of(node_id).coeffs))
        for node_id in store.node_ids()
    }


def outsourced_pair():
    document = generate_catalog_document(
        CatalogConfig(customers=5, products=4, seed=47))
    ring = choose_fp_ring(len(document.distinct_tags()) + 6)
    client, tree, _ = outsource_document(document, ring=ring,
                                         seed=b"conflict-tests")
    reference = share_tree_from_dict(share_tree_to_dict(tree))
    return client, tree, reference


def remote_editor(client, adapter, **kwargs):
    return RemoteUpdatableTree(adapter, client.mapping,
                               client.share_generator, **kwargs)


def disjoint_rename_targets(tree):
    """Two sets of nodes in different root-child subtrees (plus new tags)."""
    first, second = tree.child_ids(tree.root_id)[:2]
    targets_one = [(first, "wone")] + \
        [(child, "wonea") for child in tree.child_ids(first)[:1]]
    targets_two = [(second, "wtwo")] + \
        [(child, "wtwoa") for child in tree.child_ids(second)[:1]]
    return targets_one, targets_two


def sequential_reference(client, reference, targets_one, targets_two):
    editor = UpdatableTree(client.ring, client.mapping,
                           client.share_generator, reference)
    for node_id, tag in targets_one + targets_two:
        editor.rename_node(node_id, tag)
    return store_state(reference)


class TestDisjointWriters:
    """Disjoint edits both commit; the race's outcome is deterministic."""

    def _race(self, client, make_adapter, targets_one, targets_two):
        """Run both rename sets from two threads through fresh sessions."""
        barrier = threading.Barrier(2)
        editors = {}
        errors = []

        def writer(name, targets):
            try:
                adapter, cleanup = make_adapter()
                try:
                    editor = remote_editor(client, adapter)
                    editors[name] = editor
                    barrier.wait(timeout=30.0)
                    for node_id, tag in targets:
                        editor.rename_node(node_id, tag)
                finally:
                    cleanup()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((name, exc))

        threads = [threading.Thread(target=writer, args=("w1", targets_one)),
                   threading.Thread(target=writer, args=("w2", targets_two))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, f"a disjoint writer failed: {errors}"
        return editors

    def test_in_process_race(self, share_backend):
        client, tree, reference = outsourced_pair()
        targets_one, targets_two = disjoint_rename_targets(tree)
        server = SearchServer(share_backend(tree))

        def make_adapter():
            adapter, _ = connect(server)
            return adapter, lambda: None

        self._race(client, make_adapter, targets_one, targets_two)
        expected = sequential_reference(client, reference,
                                        targets_one, targets_two)
        assert store_state(server.document().store) == expected
        # One committed batch per rename, regardless of how many
        # conflicted attempts were rejected along the way.
        assert len(server.document().update_log) == \
            len(targets_one) + len(targets_two)

    def test_socket_race(self, share_backend):
        client, tree, reference = outsourced_pair()
        targets_one, targets_two = disjoint_rename_targets(tree)
        core = SearchServer(share_backend(tree))
        transport = ThreadedSearchServer(core).start()
        address = transport.address
        try:
            def make_adapter():
                adapter, channel = connect_socket(address[0], address[1],
                                                  tree.ring)
                return adapter, channel.close

            self._race(client, make_adapter, targets_one, targets_two)
        finally:
            transport.stop()
        expected = sequential_reference(client, reference,
                                        targets_one, targets_two)
        assert store_state(core.document().store) == expected
        assert len(core.document().update_log) == \
            len(targets_one) + len(targets_two)


class TestOverlappingWriters:
    """Stale batches: one conflict frame, transparent or loud rebase."""

    def test_stale_writer_gets_exactly_one_conflict_response(self):
        client, tree, reference = outsourced_pair()
        targets_one, targets_two = disjoint_rename_targets(tree)
        server = SearchServer(tree)
        conflicts = []

        def counting_handler(message):
            response = server.handle(message)
            if isinstance(response, ConflictResponse):
                conflicts.append(response)
            return response

        first, _ = connect(server)
        writer_one = remote_editor(client, first)
        writer_two = RemoteUpdatableTree(
            RemoteServerAdapter(InstrumentedChannel(counting_handler),
                                tree.ring),
            client.mapping, client.share_generator)

        # Writer one commits first: every ancestor version (including the
        # root's) moves past what writer two mirrored.
        node_one, tag_one = targets_one[0]
        writer_one.rename_node(node_one, tag_one)
        # Writer two edits a *disjoint* subtree, but its base versions are
        # stale at the shared root — exactly one conflict round trip, then
        # the rebased batch commits.
        node_two, tag_two = targets_two[0]
        writer_two.rename_node(node_two, tag_two)
        assert len(conflicts) == 1
        assert writer_two.rebases == 1
        expected = sequential_reference(client, reference,
                                        [(node_one, tag_one)],
                                        [(node_two, tag_two)])
        assert store_state(server.document().store) == expected
        assert len(server.document().update_log) == 2

    def test_removed_anchor_surfaces_conflict(self):
        client, tree, reference = outsourced_pair()
        server = SearchServer(tree)
        victim = tree.child_ids(tree.root_id)[1]
        inside = tree.child_ids(victim)[0]

        first, _ = connect(server)
        second, _ = connect(server)
        writer_one = remote_editor(client, first)
        writer_two = remote_editor(client, second)
        writer_two.mirror.prefetch([inside])   # mirror is now stale-able

        writer_one.delete_subtree(victim)
        with pytest.raises(UpdateConflictError):
            writer_two.rename_node(inside, "zlost")

        # Only the delete committed; nothing from writer two half-applied.
        ref_editor = UpdatableTree(client.ring, client.mapping,
                                   client.share_generator, reference)
        ref_editor.delete_subtree(victim)
        assert store_state(server.document().store) == store_state(reference)
        assert [entry[1] for entry in server.document().update_log] == \
            ["delete"]

    def test_no_rebase_budget_fails_loudly(self):
        client, tree, _ = outsourced_pair()
        targets_one, targets_two = disjoint_rename_targets(tree)
        server = SearchServer(tree)
        first, _ = connect(server)
        second, _ = connect(server)
        writer_one = remote_editor(client, first)
        writer_two = remote_editor(client, second, max_rebases=0)

        node_one, tag_one = targets_one[0]
        writer_one.rename_node(node_one, tag_one)
        node_two, tag_two = targets_two[0]
        with pytest.raises(UpdateConflictError):
            writer_two.rename_node(node_two, tag_two)
        assert writer_two.rebases == 0
        assert len(server.document().update_log) == 1
