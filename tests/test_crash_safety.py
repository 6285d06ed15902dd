"""Crash tests for the durable share store.

Every :class:`~repro.core.updates.UpdatableTree` operation is one batch on
:class:`~repro.net.store.SQLiteShareStore`, written inside one SQLite
transaction.  These tests kill a real process at *every* crash point of
every operation — after each op written inside the transaction, and after
the COMMIT — with ``os._exit`` (no close, rollback or flush), then reopen
the file and assert the store is bit-identical to the full pre-update
state before the COMMIT and to the full post-update state after it (itself
verified bit-identical to the same edit on the in-memory backend).  Torn
in-between states must be unobservable.

The remaining tests cover a batch that fails inside a surviving process,
and the drain of the ``wal`` table that an earlier build's write-ahead log
may have left in a store file.
"""

import copy
import os
import random
import shutil
import signal
import sqlite3
import time
import traceback

import pytest

from repro.core import (
    ClientShareGenerator,
    UpdatableTree,
    choose_fp_ring,
    outsource_document,
)
from repro.errors import ProtocolError
from repro.net import SQLiteShareStore
from repro.net.pages import encode_coefficients
from repro.prg import DeterministicPRG
from repro.workloads import CatalogConfig, generate_catalog_document
from repro.xmltree import parse_element

#: Exit codes of the forked child that runs an operation.
KILLED, FINISHED, FAILED = 70, 71, 72


def _snapshot(store):
    """Canonical bit-exact image: structure, child order and coefficients."""
    return {
        node_id: (store.parent_id(node_id),
                  tuple(store.child_ids(node_id)),
                  tuple(int(c) for c in store.share_of(node_id).coeffs))
        for node_id in store.node_ids()
    }


def _editor(client, target):
    return UpdatableTree(client.ring, client.mapping, client.share_generator,
                         target)


OPERATIONS = {
    "insert": lambda client, editor, marks: editor.insert_subtree(
        marks["root"],
        parse_element("<annex><shelf/><shelf><box/></shelf></annex>")),
    "delete": lambda client, editor, marks: editor.delete_subtree(
        marks["victim"]),
    "rename": lambda client, editor, marks: editor.rename_node(
        marks["victim"], "vip"),
    "refresh": lambda client, editor, marks: editor.refresh_shares(
        ClientShareGenerator(client.ring, DeterministicPRG(b"rotated-seed"))),
}


@pytest.fixture(scope="module")
def crash_env(tmp_path_factory):
    """A small outsourced document persisted once as the pristine v2 store."""
    document = generate_catalog_document(
        CatalogConfig(customers=2, products=1, seed=3))
    ring = choose_fp_ring(len(document.distinct_tags()) + 4)
    client, server_tree, _ = outsource_document(document, ring=ring,
                                                seed=b"crash-seed")
    base = tmp_path_factory.mktemp("crash")
    pristine = str(base / "pristine.db")
    store = SQLiteShareStore.from_tree(pristine, server_tree)
    marks = {"root": store.root_id,
             "victim": client.lookup(store, "customer").matches[0]}
    pre = _snapshot(store)
    store.close()
    return {"client": client, "server_tree": server_tree, "pristine": pristine,
            "marks": marks, "pre": pre, "base": base}


def _fresh_copy(env, name):
    path = str(env["base"] / name)
    shutil.copy(env["pristine"], path)
    return path


def _run_without_crash(env, operation, name):
    """The reference run: post-state snapshot plus the crash-point count."""
    path = _fresh_copy(env, name)
    store = SQLiteShareStore(path)
    steps = []
    store.fault_injection_hook = steps.append
    OPERATIONS[operation](env["client"], _editor(env["client"], store), env["marks"])
    post = _snapshot(store)
    store.close()
    return post, len(steps)


def _kill_child(env, operation, path, crash_at, cache_pages=None,
                timeout=60.0):
    """Run ``operation`` on ``path`` in a forked child that dies at ``crash_at``.

    The child opens its own store, so no connection crosses the fork, and
    leaves through ``os._exit``: at the crash point nothing is closed,
    rolled back or flushed.  ``cache_pages`` shrinks the child's page
    cache so uncommitted pages spill into the ``-wal`` file before the
    kill.  Returns the child's exit code.
    """
    pid = os.fork()
    if pid == 0:                            # the child never returns
        code = FAILED
        try:
            store = SQLiteShareStore(path)
            if cache_pages is not None:
                store._conn.execute(f"PRAGMA cache_size={cache_pages}")

            def hook(step):
                if step == crash_at:
                    os._exit(KILLED)

            store.fault_injection_hook = hook
            OPERATIONS[operation](env["client"], _editor(env["client"], store),
                                  env["marks"])
            code = FINISHED
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    deadline = time.monotonic() + timeout
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"{operation} child hung before crash point {crash_at}")
        time.sleep(0.002)


def _kill_at_every_point(env, operation, cache_pages=None):
    """Kill ``operation`` at each crash point and check each reopened file.

    Returns the ``-wal`` file size each kill left behind, by crash point.
    """
    label = f"{operation}-{cache_pages}"
    post, crash_points = _run_without_crash(env, operation,
                                            f"reference-{label}.db")
    assert post != env["pre"]
    # Crash points 1..n follow the batch's n ops, point n + 1 its COMMIT;
    # the smallest operation still has one op before the COMMIT.
    assert crash_points >= 2

    outcomes = set()
    journal_bytes = {}
    for crash_at in range(1, crash_points + 1):
        path = _fresh_copy(env, f"kill-{label}-{crash_at}.db")
        code = _kill_child(env, operation, path, crash_at, cache_pages)
        assert code == KILLED, f"{operation} child exited {code}, not killed"
        journal = path + "-wal"
        journal_bytes[crash_at] = (os.path.getsize(journal)
                                   if os.path.exists(journal) else 0)

        reopened = SQLiteShareStore(path)
        # SQLite's own journal recovery is invisible to the store.
        assert reopened.last_recovery == "clean"
        recovered = _snapshot(reopened)
        reopened.close()
        committed = crash_at == crash_points
        assert recovered == (post if committed else env["pre"]), (
            f"{operation} killed at point {crash_at} of {crash_points} left "
            "the wrong state")
        outcomes.add("post" if committed else "pre")
    assert outcomes == {"pre", "post"}
    return journal_bytes


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_crash_at_every_mutation_boundary(crash_env, operation):
    _kill_at_every_point(crash_env, operation)


def test_crash_with_uncommitted_pages_in_the_journal(crash_env):
    """With a one-page cache the batch's dirty pages spill into the ``-wal``
    file before the kill; SQLite must still ignore them on reopen."""
    journal_bytes = _kill_at_every_point(crash_env, "refresh", cache_pages=1)
    before_commit = [size for point, size in sorted(journal_bytes.items())][:-1]
    assert any(before_commit), "no uncommitted page reached the -wal file"


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_post_state_bit_identical_to_in_memory_backend(crash_env, operation):
    env = crash_env
    post, _ = _run_without_crash(env, operation, f"bitident-{operation}.db")

    memory_tree = copy.deepcopy(env["server_tree"])
    OPERATIONS[operation](env["client"], _editor(env["client"], memory_tree),
                          env["marks"])
    assert post == _snapshot(memory_tree)


def test_surviving_process_recovers_in_place(crash_env):
    """A batch that fails *without* killing the process rolls back."""
    env = crash_env
    path = _fresh_copy(env, "inplace.db")
    store = SQLiteShareStore(path)

    def hook(step):
        if step == 2:
            raise RuntimeError("transient I/O error")

    store.fault_injection_hook = hook
    with pytest.raises(RuntimeError):
        OPERATIONS["insert"](env["client"], _editor(env["client"], store),
                             env["marks"])
    store.fault_injection_hook = None
    # The same still-open store rolled itself back and stays usable.
    assert store.last_recovery == "rolled-back"
    assert _snapshot(store) == env["pre"]
    report = OPERATIONS["insert"](env["client"], _editor(env["client"], store),
                                  env["marks"])
    assert report.new_node_ids
    store.close()


def test_surviving_process_keeps_a_batch_that_failed_after_commit(crash_env):
    """A failure after the COMMIT keeps the batch; the store stays usable."""
    env = crash_env
    post, crash_points = _run_without_crash(env, "insert",
                                            "after-commit-reference.db")
    path = _fresh_copy(env, "after-commit.db")
    store = SQLiteShareStore(path)

    def hook(step):
        if step == crash_points:
            raise RuntimeError("failure after COMMIT")

    store.fault_injection_hook = hook
    with pytest.raises(RuntimeError):
        OPERATIONS["insert"](env["client"], _editor(env["client"], store),
                             env["marks"])
    store.fault_injection_hook = None
    # Nothing was rolled back: the committed batch is the state.
    assert store.last_recovery == "clean"
    assert _snapshot(store) == post
    report = OPERATIONS["insert"](env["client"], _editor(env["client"], store),
                                  env["marks"])
    # The sibling-order counter was re-read: the new subtree comes last.
    assert store.child_ids(env["marks"]["root"])[-1] == report.new_node_ids[0]
    store.close()


def test_recovery_is_itself_idempotent(crash_env):
    """After a kill, every reopen sees the same pre-state."""
    env = crash_env
    path = _fresh_copy(env, "rerecover.db")
    assert _kill_child(env, "refresh", path, crash_at=1, cache_pages=1) == KILLED
    # Open twice in a row: same pre-state both times.
    for _ in range(2):
        reopened = SQLiteShareStore(path)
        assert _snapshot(reopened) == env["pre"]
        reopened.close()


# -- files from earlier builds: the legacy ``wal`` table --------------------------------

def _legacy_log(path, records):
    """Give a store file an earlier build's ``wal`` table holding ``records``.

    Each record is ``(op, node_id, parent, ord, after, before)``, trailing
    fields optional.
    """
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "CREATE TABLE wal (seq INTEGER PRIMARY KEY AUTOINCREMENT, "
            "op TEXT NOT NULL, node_id INTEGER, parent INTEGER, ord INTEGER, "
            "after BLOB, before BLOB)")
        conn.executemany(
            "INSERT INTO wal (op, node_id, parent, ord, after, before) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            [tuple(record) + (None,) * (6 - len(record)) for record in records])
    conn.close()


def _has_wal_table(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT 1 FROM sqlite_master "
                            "WHERE type = 'table' AND name = 'wal'"
                            ).fetchone() is not None
    finally:
        conn.close()


def _blob(share):
    return encode_coefficients([int(c) for c in share.coeffs])


def _legacy_batch(env):
    """One logged legacy batch (add, replace, remove) and its post-state."""
    tree = copy.deepcopy(env["server_tree"])
    rng = random.Random(5)
    root, replaced = env["marks"]["root"], env["marks"]["victim"]
    leaf = max(node_id for node_id in tree.node_ids()
               if not tree.child_ids(node_id) and node_id != replaced)
    conn = sqlite3.connect(env["pristine"])
    leaf_parent, leaf_ord = conn.execute(
        "SELECT parent, ord FROM nodes WHERE node_id = ?", (leaf,)).fetchone()
    conn.close()
    fresh = max(env["pre"]) + 1
    added, rewritten = tree.ring.random_element(rng), tree.ring.random_element(rng)
    records = [
        ("add", fresh, root, len(env["pre"]), _blob(added)),
        ("replace", replaced, None, None, _blob(rewritten),
         _blob(tree.share_of(replaced))),
        ("remove", leaf, leaf_parent, leaf_ord, None, _blob(tree.share_of(leaf))),
    ]
    tree.add_node(fresh, root, added)
    tree.replace_share(replaced, rewritten)
    tree.remove_subtree(leaf)
    return records, _snapshot(tree)


def test_new_store_has_no_wal_table(crash_env):
    assert not _has_wal_table(crash_env["pristine"])


def test_empty_legacy_log_is_dropped(crash_env):
    env = crash_env
    path = _fresh_copy(env, "legacy-empty.db")
    _legacy_log(path, [])
    reopened = SQLiteShareStore(path)
    assert reopened.last_recovery == "clean"
    assert _snapshot(reopened) == env["pre"]
    reopened.close()
    assert not _has_wal_table(path)


def test_committed_legacy_log_is_replayed(crash_env):
    env = crash_env
    records, post = _legacy_batch(env)
    path = _fresh_copy(env, "legacy-committed.db")
    _legacy_log(path, [("begin",)] + records + [("commit",)])
    reopened = SQLiteShareStore(path)
    assert reopened.last_recovery == "replayed"
    assert _snapshot(reopened) == post
    reopened.close()
    assert not _has_wal_table(path)
    again = SQLiteShareStore(path)
    assert again.last_recovery == "clean"
    assert _snapshot(again) == post
    again.close()


def test_uncommitted_legacy_log_is_rolled_back(crash_env):
    """Without a commit marker the batch is undone, however far it got:
    from a file where none of it landed and from one where all of it did."""
    env = crash_env
    records, post = _legacy_batch(env)
    untouched = _fresh_copy(env, "legacy-uncommitted-none.db")
    applied = _fresh_copy(env, "legacy-uncommitted-all.db")
    _legacy_log(applied, [("begin",)] + records + [("commit",)])
    SQLiteShareStore(applied).close()           # replays: all of it landed
    for path in (untouched, applied):
        _legacy_log(path, [("begin",)] + records)
        reopened = SQLiteShareStore(path)
        assert reopened.last_recovery == "rolled-back"
        assert _snapshot(reopened) == env["pre"]
        reopened.close()
        assert not _has_wal_table(path)


def test_log_truncated_mid_record_rolls_back_cleanly(crash_env):
    """A legacy log truncated mid-record (torn intent) drains without raising.

    A crash while an earlier build wrote its intent — or an external tool
    truncating the log — leaves records missing the images their undo
    would need.  Such an intent never committed, so it was never applied:
    the drain must roll back to the pre-batch state and must NOT crash on
    the partial records.
    """
    env = crash_env
    path = _fresh_copy(env, "torn-intent.db")
    existing = max(env["pre"])
    _legacy_log(path, [
        ("begin",),
        # A complete record (an 'add' of a node that was never applied) ...
        ("add", existing + 1, env["marks"]["root"], 0, b"\x00"),
        # ... followed by torn ones: a 'replace' missing its before-image,
        # a 'remove' missing image and order, and a record with no node.
        ("replace", existing),
        ("remove", existing),
        ("add",),
        # No commit marker: the batch never became durable.
    ])

    reopened = SQLiteShareStore(path)
    assert reopened.last_recovery == "rolled-back"
    assert _snapshot(reopened) == env["pre"]
    # The log is dropped; a second open is clean.
    reopened.close()
    assert not _has_wal_table(path)
    again = SQLiteShareStore(path)
    assert again.last_recovery == "clean"
    assert _snapshot(again) == env["pre"]
    again.close()


def test_committed_log_missing_redo_image_is_loud(crash_env):
    """A commit marker proves the intent was complete — a missing redo
    image there is real corruption and must raise, not be skipped."""
    env = crash_env
    path = _fresh_copy(env, "corrupt-committed.db")
    existing = max(env["pre"])
    _legacy_log(path, [("begin",), ("add", existing + 1), ("commit",)])

    with pytest.raises(ProtocolError) as excinfo:
        SQLiteShareStore(path)
    assert "redo image" in str(excinfo.value)
    # The failed drain changed nothing: the log is still there.
    assert _has_wal_table(path)
