"""The v3 update protocol: remote edits are bit-identical to local ones.

Three layers of proof, bottom up:

* **Handler** — ``UpdateRequest`` batches against the serving core
  directly: version checks, conflict answers, version bumping, the
  commit audit trail (``HostedDocument.update_log``) and idempotent
  replay of both outcomes (committed and conflicted).
* **Transports** — the same edit script applied through
  :class:`~repro.net.client.RemoteUpdatableTree` over the in-process
  channel, the threaded socket server, the asyncio socket server and a
  resilient session must leave the hosted store bit-identical to the
  script applied by an in-process :class:`~repro.core.UpdatableTree` on
  an identically seeded clone.
* **Acceptance** — a 120k-node document served over real TCP, edited by
  a resilient remote client while 5% of all channel operations fault,
  converges to the in-process result with every batch applied exactly
  once (``REPRO_UPDATE_SCALE`` shrinks the document for quick local
  runs).
"""

import asyncio
import json
import os

import pytest

from repro.core import (
    UpdatableTree,
    choose_fp_ring,
    outsource_document,
)
from repro.errors import ProtocolError, UpdateConflictError
from repro.net import (
    ConflictResponse,
    FaultPlan,
    FaultyChannel,
    InstrumentedChannel,
    RemoteUpdatableTree,
    SearchServer,
    SocketChannel,
    ThreadedSearchServer,
    UpdateRequest,
    UpdateResponse,
    connect,
    connect_resilient,
    connect_socket,
    share_tree_from_dict,
    share_tree_to_dict,
    start_async_server,
)
from repro.net.aio import AsyncServerInterface
from repro.net.messages import PROTOCOL_VERSION, decode_message
from repro.net.retry import RetryPolicy
from repro.workloads import (
    CatalogConfig,
    RandomXmlConfig,
    generate_catalog_document,
    generate_random_document,
)
from repro.xmltree import XmlElement, parse_element

#: The CI chaos matrix shifts every seed; locally they default to 0.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Node count for the acceptance-scale test (the paper-scale default can
#: be shrunk locally, e.g. ``REPRO_UPDATE_SCALE=2000`` for quick runs).
ACCEPT_NODES = int(os.environ.get("REPRO_UPDATE_SCALE", "120000"))


def fast_policy(**overrides):
    """A retry policy that never really sleeps."""
    settings = dict(max_attempts=12, deadline_s=None, base_backoff_s=0.0,
                    max_backoff_s=0.0, jitter=0.0, seed=CHAOS_SEED,
                    sleep=lambda _s: None)
    settings.update(overrides)
    return RetryPolicy(**settings)


def store_state(store):
    """Full bit-level fingerprint of a share store (structure + shares)."""
    return {
        node_id: (store.parent_id(node_id),
                  tuple(store.child_ids(node_id)),
                  tuple(store.share_of(node_id).coeffs))
        for node_id in store.node_ids()
    }


def clone_tree(tree):
    """An independent, bit-identical copy of a server share tree."""
    return share_tree_from_dict(share_tree_to_dict(tree))


def outsourced_pair():
    """(client, hosted_tree, reference_clone) with F_p headroom for edits."""
    document = generate_catalog_document(
        CatalogConfig(customers=5, products=4, seed=31))
    ring = choose_fp_ring(len(document.distinct_tags()) + 6)
    client, tree, _ = outsource_document(document, ring=ring,
                                         seed=b"update-protocol")
    return client, tree, clone_tree(tree)


def pick_targets(tree):
    """Deterministic, structurally disjoint targets for the edit script."""
    children = tree.child_ids(tree.root_id)
    assert len(children) >= 3
    rename_target = (tree.child_ids(children[2]) or [children[2]])[0]
    return {
        "insert_parent": children[0],
        "delete": children[1],
        "rename": rename_target,
        "insert_parent2": tree.root_id,
    }


def apply_script(editor, targets):
    """The canonical four-batch edit script used by every comparison."""
    return [
        editor.insert_subtree(targets["insert_parent"],
                              parse_element("<note><flag/></note>")),
        editor.rename_node(targets["rename"], "znote"),
        editor.delete_subtree(targets["delete"]),
        editor.insert_subtree(targets["insert_parent2"], XmlElement("annex")),
    ]


def local_editor(client, tree):
    return UpdatableTree(client.ring, client.mapping, client.share_generator,
                         tree)


class TestUpdateHandler:
    """UpdateRequest batches straight against the serving core."""

    def test_stale_base_version_conflicts(self):
        _, tree, _ = outsourced_pair()
        server = SearchServer(tree)
        root = tree.root_id
        response = server.handle(UpdateRequest("noop", [], {root: 5}))
        assert isinstance(response, ConflictResponse)
        assert response.conflicts == [root]
        # The node still exists, so its *current* version is reported.
        assert response.versions == {root: 0}
        assert server.document().update_log == []

    def test_unknown_base_node_conflicts_without_version(self):
        _, tree, _ = outsourced_pair()
        server = SearchServer(tree)
        response = server.handle(UpdateRequest("noop", [], {987654: 0}))
        assert isinstance(response, ConflictResponse)
        assert response.conflicts == [987654]
        # Absent from versions == the node does not exist any more.
        assert response.versions == {}

    def test_replace_commits_bumps_version_and_logs(self):
        _, tree, _ = outsourced_pair()
        server = SearchServer(tree)
        root = tree.root_id
        coeffs = list(tree.share_of(root).coeffs)
        before = store_state(server.document().store)

        response = server.handle(
            UpdateRequest("touch", [["replace", root, coeffs]], {root: 0}))
        assert isinstance(response, UpdateResponse)
        assert response.applied == 1
        assert response.versions == {root: 1}
        assert server.document().versions == {root: 1}
        assert server.document().update_log == [(None, "touch", 1)]
        # Same coefficients written back: the store is bit-identical.
        assert store_state(server.document().store) == before

        # The base the first batch rode on is stale now.
        rejected = server.handle(
            UpdateRequest("touch", [["replace", root, coeffs]], {root: 0}))
        assert isinstance(rejected, ConflictResponse)
        assert rejected.versions == {root: 1}
        # ... while the fresh base commits and bumps again.
        accepted = server.handle(
            UpdateRequest("touch", [["replace", root, coeffs]], {root: 1}))
        assert isinstance(accepted, UpdateResponse)
        assert accepted.versions == {root: 2}

    def test_remove_shape_mismatch_conflicts_and_applies_nothing(self):
        _, tree, _ = outsourced_pair()
        server = SearchServer(tree)
        target = tree.child_ids(tree.root_id)[0]
        before = store_state(server.document().store)
        response = server.handle(UpdateRequest(
            "delete", [["remove", target, [target, 424242]]], {target: 0}))
        assert isinstance(response, ConflictResponse)
        assert response.conflicts == [target]
        assert response.versions == {target: 0}
        assert store_state(server.document().store) == before
        assert server.document().update_log == []

    def test_committed_batch_replay_is_cached(self):
        _, tree, _ = outsourced_pair()
        server = SearchServer(tree)
        root = tree.root_id
        coeffs = list(tree.share_of(root).coeffs)
        request = UpdateRequest("touch", [["replace", root, coeffs]],
                                {root: 0}).with_request_id("upd-1")
        first = server.handle(request).encode()
        again = server.handle(request).encode()
        assert again == first
        # Applied exactly once: one log entry, one version bump.
        assert server.document().update_log == [("upd-1", "touch", 1)]
        assert server.document().versions == {root: 1}

    def test_conflict_replay_is_cached(self):
        _, tree, _ = outsourced_pair()
        server = SearchServer(tree)
        request = UpdateRequest("noop", [], {tree.root_id: 9}) \
            .with_request_id("upd-2")
        first = server.handle(request).encode()
        assert server.handle(request).encode() == first
        assert server.document().update_log == []

    def test_malformed_ops_rejected_loudly(self):
        with pytest.raises(ValueError):
            UpdateRequest("x", [["frob", 1]], {})
        with pytest.raises(ValueError):
            UpdateRequest("x", [["replace", 1]], {})
        # The same guard fires while decoding a tampered frame.
        valid = UpdateRequest("x", [["replace", 1, [2, 3]]], {1: 0}).encode()
        body = json.loads(valid.decode("utf-8"))
        body["ops"] = [["replace", 1]]
        tampered = json.dumps(body).encode("utf-8")
        with pytest.raises(ProtocolError):
            decode_message(tampered)

    def test_wire_round_trip_is_exact(self):
        request = UpdateRequest(
            "insert",
            [["add", 7, 3, [1, 0, 4]], ["replace", 3, [2]],
             ["remove", 9, [9, 10]]],
            {3: 2, 9: 0}).with_request_id("rt-1")
        decoded = decode_message(request.encode())
        assert isinstance(decoded, UpdateRequest)
        assert decoded.encode() == request.encode()
        assert decoded.ops == request.ops
        assert decoded.base_versions == {3: 2, 9: 0}
        assert decoded.request_id == "rt-1"


class TestRemoteMatchesLocal:
    """One edit script, every transport, bit-identical stores."""

    def _run_remote(self, adapter, client, targets):
        editor = RemoteUpdatableTree(adapter, client.mapping,
                                     client.share_generator)
        reports = apply_script(editor, targets)
        assert editor.rebases == 0       # single writer: no conflicts
        return reports

    def _check(self, server, reference, client, targets, reports):
        expected = apply_script(local_editor(client, reference), targets)
        assert store_state(server.document().store) == store_state(reference)
        log = server.document().update_log
        assert [entry[1] for entry in log] == \
            ["insert", "rename", "delete", "insert"]
        for remote_report, local_report in zip(reports, expected):
            assert remote_report.new_node_ids == local_report.new_node_ids
            assert remote_report.removed_node_ids == \
                local_report.removed_node_ids
            assert remote_report.affected_ancestors == \
                local_report.affected_ancestors

    def test_in_process(self, share_backend):
        client, tree, reference = outsourced_pair()
        targets = pick_targets(tree)
        server = SearchServer(share_backend(tree))
        adapter, _ = connect(server)
        reports = self._run_remote(adapter, client, targets)
        self._check(server, reference, client, targets, reports)

    def test_threaded_socket(self, share_backend):
        client, tree, reference = outsourced_pair()
        targets = pick_targets(tree)
        server = ThreadedSearchServer(SearchServer(share_backend(tree)))
        server.start()
        try:
            host, port = server.address
            adapter, channel = connect_socket(host, port, tree.ring)
            try:
                reports = self._run_remote(adapter, client, targets)
            finally:
                channel.close()
        finally:
            server.stop()
        self._check(server.core, reference, client, targets, reports)

    def test_async_socket(self, share_backend):
        client, tree, reference = outsourced_pair()
        targets = pick_targets(tree)
        core = SearchServer(share_backend(tree))
        handle = start_async_server(core)
        try:
            adapter, channel = connect_socket("127.0.0.1", handle.port,
                                              tree.ring)
            try:
                reports = self._run_remote(adapter, client, targets)
            finally:
                channel.close()
        finally:
            handle.stop()
        self._check(core, reference, client, targets, reports)

    def test_resilient_session_stamps_unique_request_ids(self, share_backend):
        client, tree, reference = outsourced_pair()
        targets = pick_targets(tree)
        server = SearchServer(share_backend(tree))
        adapter, _ = connect_resilient(
            lambda: InstrumentedChannel(server.handle),
            tree.ring, policy=fast_policy())
        reports = self._run_remote(adapter, client, targets)
        self._check(server, reference, client, targets, reports)
        ids = [entry[0] for entry in server.document().update_log]
        assert all(ids), "resilient sessions must stamp idempotency keys"
        assert len(set(ids)) == len(ids)

    def test_v2_session_cannot_update(self):
        client, tree, _ = outsourced_pair()
        server = SearchServer(tree)
        adapter, _ = connect(server, protocol_version=2)
        with pytest.raises(ProtocolError):
            adapter.apply_update(UpdateRequest("noop", [], {}))
        with pytest.raises(ProtocolError):
            RemoteUpdatableTree(adapter, client.mapping,
                                client.share_generator)


class TestAsyncUpdateInterface:
    """The coroutine twin of apply_update."""

    def test_async_update_commit_and_conflict(self):
        _, tree, _ = outsourced_pair()
        handle = start_async_server(SearchServer(tree))
        try:
            async def scenario():
                session = await AsyncServerInterface.open(
                    "127.0.0.1", handle.port, tree.ring)
                try:
                    assert session.protocol_version == PROTOCOL_VERSION
                    root = await session.root_id()
                    share = (await session.fetch_polynomials([root]))[root]
                    coeffs = list(share.coeffs)
                    batch = [["replace", root, coeffs]]
                    response = await session.update(
                        UpdateRequest("touch", batch, {root: 0}))
                    assert response.versions == {root: 1}
                    assert response.applied == 1
                    with pytest.raises(UpdateConflictError) as excinfo:
                        await session.update(
                            UpdateRequest("touch", batch, {root: 0}))
                    assert excinfo.value.conflicts == [root]
                    assert excinfo.value.versions == {root: 1}
                    # The session survives the conflict.
                    again = await session.update(
                        UpdateRequest("touch", batch, {root: 1}))
                    assert again.versions == {root: 2}
                finally:
                    await session.close()

            asyncio.run(scenario())
        finally:
            handle.stop()

    def test_async_v2_session_cannot_update(self):
        _, tree, _ = outsourced_pair()
        handle = start_async_server(SearchServer(tree))
        try:
            async def scenario():
                session = await AsyncServerInterface.open(
                    "127.0.0.1", handle.port, tree.ring, protocol_version=2)
                try:
                    with pytest.raises(ProtocolError):
                        await session.update(UpdateRequest("noop", [], {}))
                finally:
                    await session.close()

            asyncio.run(scenario())
        finally:
            handle.stop()


class TestAcceptanceScale:
    """ISSUE acceptance: 120k nodes, real TCP, 5% faults, exact convergence."""

    def test_large_document_over_faulty_tcp_converges(self):
        document = generate_random_document(RandomXmlConfig(
            element_count=ACCEPT_NODES, tag_vocabulary_size=48, tag_skew=1.6,
            max_depth=14, seed=8))
        ring = choose_fp_ring(len(document.distinct_tags()) + 8)
        client, tree, _ = outsource_document(document, ring=ring,
                                             seed=b"accept-seed")
        reference = clone_tree(tree)
        targets = pick_targets(tree)
        expected_reports = apply_script(local_editor(client, reference),
                                        targets)

        server = ThreadedSearchServer(SearchServer(tree))
        server.start()
        try:
            host, port = server.address
            plan = FaultPlan.at_rate(
                0.05, kinds=["reset-after-send", "reset-before-send"],
                seed=CHAOS_SEED + 29)
            adapter, channel = connect_resilient(
                lambda: FaultyChannel(SocketChannel(host, port), plan),
                tree.ring, policy=fast_policy(max_attempts=40))
            try:
                editor = RemoteUpdatableTree(adapter, client.mapping,
                                             client.share_generator)
                reports = apply_script(editor, targets)
            finally:
                channel.close()
            document_state = server.core.document()
        finally:
            server.stop()

        # Faults really flowed at the configured rate ...
        assert plan.fires, "no fault fired over the whole edit session"
        # ... yet the hosted store converged bit-identically.
        assert store_state(document_state.store) == store_state(reference)
        for remote_report, local_report in zip(reports, expected_reports):
            assert remote_report.new_node_ids == local_report.new_node_ids
            assert remote_report.removed_node_ids == \
                local_report.removed_node_ids
        # Every batch applied exactly once despite retries and replays:
        # four committed batches, each with a distinct idempotency key.
        log = document_state.update_log
        assert len(log) == 4
        ids = [entry[0] for entry in log]
        assert all(ids) and len(set(ids)) == len(ids)
