"""Tests for the pluggable share-store backends (in-memory and SQLite)."""

import pytest

from repro.core import UpdatableTree, outsource_document
from repro.errors import ProtocolError, SharingError
from repro.net import (
    InMemoryShareStore,
    ShareStore,
    SQLiteShareStore,
    as_share_store,
    migrate_share_store,
    open_share_store,
    save_share_tree,
    write_v1_share_store,
)
from repro.xmltree import XmlElement


@pytest.fixture
def sqlite_store(outsourced_catalog, tmp_path):
    _, server_tree, _ = outsourced_catalog
    store = SQLiteShareStore.from_tree(str(tmp_path / "catalog.db"), server_tree)
    yield store
    store.close()


class TestInMemoryShareStore:
    def test_mirrors_tree(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        store = InMemoryShareStore(server_tree)
        assert store.root_id == server_tree.root_id
        assert store.node_count() == server_tree.node_count()
        assert store.node_ids() == server_tree.node_ids()
        assert store.storage_bits() == server_tree.storage_bits()
        node = server_tree.node_ids()[1]
        assert store.share_of(node) == server_tree.share_of(node)
        assert store.child_ids(node) == server_tree.child_ids(node)
        assert store.parent_id(node) == server_tree.parent_id(node)
        assert node in store and -1 not in store

    def test_as_share_store(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        store = as_share_store(server_tree)
        assert isinstance(store, InMemoryShareStore)
        assert as_share_store(store) is store
        with pytest.raises(ProtocolError):
            as_share_store("nonsense")


class TestSQLiteShareStore:
    def test_round_trips_structure_and_shares(self, outsourced_catalog,
                                              sqlite_store):
        _, server_tree, _ = outsourced_catalog
        assert sqlite_store.root_id == server_tree.root_id
        assert sqlite_store.node_ids() == server_tree.node_ids()
        for node_id in server_tree.node_ids():
            assert sqlite_store.share_of(node_id) == server_tree.share_of(node_id)
            assert sqlite_store.child_ids(node_id) == server_tree.child_ids(node_id)
            assert sqlite_store.parent_id(node_id) == server_tree.parent_id(node_id)
        assert sqlite_store.storage_bits() == server_tree.storage_bits()

    def test_lazy_loading(self, outsourced_catalog, tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "lazy.db")
        SQLiteShareStore.from_tree(path, server_tree).close()
        store = SQLiteShareStore(path)
        # Opening materialises nothing; shares load on demand.
        assert store.cached_share_count() == 0
        store.share_of(server_tree.root_id)
        assert store.cached_share_count() == 1
        store.close()

    def test_cache_eviction_bounded(self, outsourced_catalog, tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "small-cache.db")
        SQLiteShareStore.from_tree(path, server_tree).close()
        store = SQLiteShareStore(path, cache_size=4)
        for node_id in server_tree.node_ids():
            store.share_of(node_id)
        assert store.cached_share_count() == 4
        store.close()

    def test_cache_bounded_during_inserts(self, outsourced_catalog, tmp_path):
        _, server_tree, _ = outsourced_catalog
        store = SQLiteShareStore(str(tmp_path / "bulk.db"), ring=server_tree.ring,
                                 cache_size=4)
        for node_id in server_tree.node_ids():
            store.add_node(node_id, server_tree.parent_id(node_id),
                           server_tree.share_of(node_id))
        assert store.cached_share_count() == 4
        store.close()

    def test_queries_identical_to_in_memory(self, outsourced_catalog,
                                            sqlite_store):
        client, server_tree, _ = outsourced_catalog
        for tag in ("customer", "product", "location"):
            assert client.lookup(sqlite_store, tag).matches == \
                client.lookup(server_tree, tag).matches
        assert client.xpath(sqlite_store, "//customer/order").matches == \
            client.xpath(server_tree, "//customer/order").matches

    def test_int_ring_supported(self, paper_document, tmp_path):
        from repro.core import choose_int_ring

        client, server_tree, _ = outsource_document(
            paper_document, ring=choose_int_ring(2), seed=b"store-int")
        store = SQLiteShareStore.from_tree(str(tmp_path / "int.db"), server_tree)
        assert client.lookup(store, "client").matches == \
            client.lookup(server_tree, "client").matches
        store.close()

    def test_reopen_after_close(self, outsourced_catalog, tmp_path):
        client, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "durable.db")
        SQLiteShareStore.from_tree(path, server_tree).close()
        store = SQLiteShareStore(path)
        assert client.lookup(store, "customer").matches == \
            client.lookup(server_tree, "customer").matches
        store.close()

    def test_ring_mismatch_rejected(self, outsourced_catalog, tmp_path):
        from repro.algebra import FpQuotientRing

        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "ring.db")
        SQLiteShareStore.from_tree(path, server_tree).close()
        with pytest.raises(ProtocolError):
            SQLiteShareStore(path, ring=FpQuotientRing(5))

    def test_unknown_format_rejected(self, outsourced_catalog, tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "format.db")
        store = SQLiteShareStore.from_tree(path, server_tree)
        with store._conn:
            store._set_meta("format", "share-store-sqlite-v99")
        store.close()
        with pytest.raises(ProtocolError):
            SQLiteShareStore(path)

    def test_missing_store_requires_ring(self, tmp_path):
        with pytest.raises(ProtocolError):
            SQLiteShareStore(str(tmp_path / "fresh.db"))

    def test_write_protocol_enforced(self, outsourced_catalog, sqlite_store):
        _, server_tree, _ = outsourced_catalog
        share = sqlite_store.share_of(sqlite_store.root_id)
        with pytest.raises(SharingError):
            sqlite_store.add_node(sqlite_store.root_id, None, share)
        with pytest.raises(SharingError):
            sqlite_store.add_node(10 ** 6, 10 ** 6 + 1, share)
        with pytest.raises(SharingError):
            sqlite_store.replace_share(10 ** 6, share)
        with pytest.raises(SharingError):
            sqlite_store.remove_subtree(sqlite_store.root_id)

    def test_max_node_id(self, outsourced_catalog, sqlite_store):
        _, server_tree, _ = outsourced_catalog
        assert sqlite_store.max_node_id() == max(server_tree.node_ids())
        assert server_tree.max_node_id() == max(server_tree.node_ids())
        assert InMemoryShareStore(server_tree).max_node_id() == \
            max(server_tree.node_ids())

    def test_evaluate_many_batched_matches_generic(self, outsourced_catalog,
                                                   tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "batched.db")
        SQLiteShareStore.from_tree(path, server_tree).close()
        store = SQLiteShareStore(path, cache_size=8)
        node_ids = server_tree.node_ids()
        for point in (1, 3, 5):
            # Cold cache, warm cache and the generic per-node fallback all
            # agree with the in-memory tree.
            assert store.evaluate_many(node_ids, point) == \
                server_tree.evaluate_many(node_ids, point)
            assert store.evaluate_many(node_ids, point) == \
                ShareStore.evaluate_many(store, node_ids, point)
        assert store.cached_share_count() == 8
        with pytest.raises(SharingError):
            store.evaluate_many(node_ids + [10 ** 6], 3)
        store.close()

    def test_evaluate_many_spans_parameter_chunks(self, outsourced_catalog,
                                                  tmp_path, monkeypatch):
        from repro.net import store as store_module

        _, server_tree, _ = outsourced_catalog
        monkeypatch.setattr(store_module, "_SQL_CHUNK", 7)
        store = SQLiteShareStore.from_tree(str(tmp_path / "chunks.db"),
                                           server_tree, cache_size=0)
        node_ids = server_tree.node_ids()
        assert store.evaluate_many(node_ids, 2) == \
            server_tree.evaluate_many(node_ids, 2)
        store.close()

    def test_overflow_pages_round_trip(self, outsourced_catalog, tmp_path):
        _, server_tree, _ = outsourced_catalog
        store = SQLiteShareStore.from_tree(str(tmp_path / "overflow.db"),
                                           server_tree, page_bytes=16)
        for node_id in server_tree.node_ids():
            assert store.share_of(node_id) == server_tree.share_of(node_id)
        store.close()
        reopened = SQLiteShareStore(str(tmp_path / "overflow.db"),
                                    cache_size=0)
        assert reopened.evaluate_many(server_tree.node_ids(), 3) == \
            server_tree.evaluate_many(server_tree.node_ids(), 3)
        reopened.close()


class TestStoreTransactions:
    def test_batch_applies_on_clean_exit(self, outsourced_catalog, sqlite_store):
        _, server_tree, _ = outsourced_catalog
        new_id = sqlite_store.max_node_id() + 1
        share = sqlite_store.share_of(sqlite_store.root_id)
        with sqlite_store.transaction() as txn:
            txn.add_node(new_id, sqlite_store.root_id, share)
            txn.replace_share(new_id, share)
            # Buffered: the store itself is untouched until exit.
            assert new_id not in sqlite_store
        assert new_id in sqlite_store
        assert sqlite_store.child_ids(sqlite_store.root_id)[-1] == new_id

    def test_batch_discarded_on_exception(self, outsourced_catalog,
                                          sqlite_store):
        _, server_tree, _ = outsourced_catalog
        new_id = sqlite_store.max_node_id() + 1
        share = sqlite_store.share_of(sqlite_store.root_id)
        with pytest.raises(RuntimeError):
            with sqlite_store.transaction() as txn:
                txn.add_node(new_id, sqlite_store.root_id, share)
                raise RuntimeError("caller changed its mind")
        assert new_id not in sqlite_store

    def test_recording_validates_against_pre_state(self, outsourced_catalog,
                                                   sqlite_store):
        _, server_tree, _ = outsourced_catalog
        root = sqlite_store.root_id
        share = sqlite_store.share_of(root)
        victim = sqlite_store.child_ids(root)[0]
        with sqlite_store.transaction() as txn:
            with pytest.raises(SharingError):
                txn.add_node(root, None, share)          # duplicate root
            with pytest.raises(SharingError):
                txn.replace_share(10 ** 6, share)        # unknown node
            with pytest.raises(SharingError):
                txn.remove_subtree(root)                 # root removal
            removed = txn.remove_subtree(victim)
            assert victim in removed
            with pytest.raises(SharingError):
                txn.replace_share(victim, share)         # removed earlier
            with pytest.raises(SharingError):
                txn.add_node(sqlite_store.max_node_id() + 1, victim, share)
        assert victim not in sqlite_store

    def test_second_root_in_one_batch_rejected(self, outsourced_catalog,
                                               tmp_path):
        _, server_tree, _ = outsourced_catalog
        store = SQLiteShareStore(str(tmp_path / "fresh.db"),
                                 ring=server_tree.ring)
        share = server_tree.share_of(server_tree.root_id)
        with store.transaction() as txn:
            txn.add_node(1, None, share)
            with pytest.raises(SharingError, match="already has a root"):
                txn.add_node(2, None, share)
            txn.add_node(2, 1, share)
        assert store.root_id == 1
        store.close()

    def test_in_memory_transaction_writes_through(self, outsourced_catalog):
        _, server_tree, _ = outsourced_catalog
        store = as_share_store(server_tree)
        new_id = server_tree.max_node_id() + 1
        with store.transaction() as txn:
            txn.add_node(new_id, server_tree.root_id,
                         server_tree.share_of(server_tree.root_id))
        assert new_id in server_tree


class TestMigration:
    def test_v1_file_rejected_with_migration_hint(self, outsourced_catalog,
                                                  tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "legacy.db")
        write_v1_share_store(path, server_tree)
        with pytest.raises(ProtocolError, match="migrate-store"):
            SQLiteShareStore(path)
        with pytest.raises(ProtocolError, match="migrate-store"):
            open_share_store(path)

    def test_migration_is_lossless(self, outsourced_catalog, tmp_path):
        client, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "legacy.db")
        write_v1_share_store(path, server_tree)
        stats = migrate_share_store(path)
        assert stats["nodes"] == server_tree.node_count()
        store = SQLiteShareStore(path)
        assert store.node_ids() == server_tree.node_ids()
        for node_id in server_tree.node_ids():
            assert store.share_of(node_id) == server_tree.share_of(node_id)
            assert store.child_ids(node_id) == server_tree.child_ids(node_id)
        assert client.lookup(store, "customer").matches == \
            client.lookup(server_tree, "customer").matches
        store.close()

    def test_migration_idempotent_and_guarded(self, outsourced_catalog,
                                              tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "legacy.db")
        write_v1_share_store(path, server_tree)
        first = migrate_share_store(path)
        second = migrate_share_store(path)     # already v2: a no-op
        assert second["before_bytes"] == second["after_bytes"]
        assert first["nodes"] == second["nodes"]
        json_path = tmp_path / "tree.json"
        save_share_tree(server_tree, str(json_path))
        with pytest.raises(ProtocolError):
            migrate_share_store(str(json_path))

    def test_foreign_sqlite_database_rejected(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "foreign.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(ProtocolError, match="not a share store"):
            migrate_share_store(path)


@pytest.fixture
def roomy_catalog(catalog_document):
    """An outsourced catalog whose ring has headroom for new tags."""
    from repro.core import choose_fp_ring

    ring = choose_fp_ring(len(catalog_document.distinct_tags()) + 4)
    return outsource_document(catalog_document, ring=ring, seed=b"store-updates")


class TestUpdatesAgainstStores:
    def _editor(self, client, store):
        return UpdatableTree(client.ring, client.mapping, client.share_generator,
                             store)

    def test_updates_persist_in_sqlite(self, roomy_catalog, tmp_path):
        client, server_tree, _ = roomy_catalog
        path = str(tmp_path / "updates.db")
        store = SQLiteShareStore.from_tree(path, server_tree)

        subtree = XmlElement("annex")
        subtree.add("shelf")
        report = self._editor(client, store).insert_subtree(
            server_tree.root_id, subtree)
        assert report.new_node_ids
        store.close()

        reopened = SQLiteShareStore(path)
        assert client.lookup(reopened, "annex").matches == report.new_node_ids[:1]
        # The same edit against the in-memory tree gives identical results.
        self._editor(client, server_tree).insert_subtree(server_tree.root_id,
                                                         XmlElement("annex"))
        reopened.close()

    def test_delete_and_rename_on_sqlite(self, roomy_catalog, tmp_path):
        client, server_tree, _ = roomy_catalog
        store = SQLiteShareStore.from_tree(str(tmp_path / "edit.db"), server_tree)
        editor = self._editor(client, store)

        victim = client.lookup(store, "customer").matches[0]
        removed = editor.delete_subtree(victim).removed_node_ids
        assert victim in removed
        assert victim not in store
        assert victim not in client.lookup(store, "customer").matches

        target = client.lookup(store, "customer").matches[0]
        editor.rename_node(target, "vip")
        assert target in client.lookup(store, "vip").matches
        store.close()


class TestOpenShareStore:
    def test_sniffs_sqlite(self, outsourced_catalog, tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "sniff.db")
        SQLiteShareStore.from_tree(path, server_tree).close()
        store = open_share_store(path)
        assert isinstance(store, SQLiteShareStore)
        store.close()

    def test_sniffs_json(self, outsourced_catalog, tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = str(tmp_path / "sniff.json")
        save_share_tree(server_tree, path)
        store = open_share_store(path)
        assert isinstance(store, InMemoryShareStore)
        assert store.node_count() == server_tree.node_count()

    def test_empty_file_rejected_loudly(self, tmp_path):
        path = tmp_path / "empty.db"
        path.write_bytes(b"")
        with pytest.raises(ProtocolError, match="empty"):
            open_share_store(str(path))

    def test_truncated_sqlite_header_rejected_loudly(self, tmp_path):
        path = tmp_path / "truncated.db"
        path.write_bytes(b"SQLite f")       # a partial magic header
        with pytest.raises(ProtocolError, match="truncated"):
            open_share_store(str(path))

    def test_garbage_rejected_with_sniffed_header(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x89PNG\r\n\x1a\n not a store at all")
        with pytest.raises(ProtocolError) as excinfo:
            open_share_store(str(path))
        assert "garbage.bin" in str(excinfo.value)
        assert "PNG" in str(excinfo.value)

    def test_truncated_json_rejected_loudly(self, outsourced_catalog,
                                            tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = tmp_path / "torn.json"
        save_share_tree(server_tree, str(path))
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ProtocolError, match="torn.json"):
            open_share_store(str(path))


class TestAtomicSave:
    def test_no_temp_files_left(self, outsourced_catalog, tmp_path):
        _, server_tree, _ = outsourced_catalog
        path = tmp_path / "server.json"
        size = save_share_tree(server_tree, str(path))
        assert size == path.stat().st_size
        assert [p.name for p in tmp_path.iterdir()] == ["server.json"]

    def test_overwrite_is_atomic_replace(self, outsourced_catalog, tmp_path):
        from repro.net import load_share_tree

        _, server_tree, _ = outsourced_catalog
        path = tmp_path / "server.json"
        save_share_tree(server_tree, str(path))
        first_inode = path.stat().st_ino
        save_share_tree(server_tree, str(path))
        # A fresh inode replaced the old file; the content stays loadable.
        assert path.stat().st_ino != first_inode
        assert load_share_tree(str(path)).node_count() == server_tree.node_count()

    def test_failed_write_preserves_existing_file(self, outsourced_catalog,
                                                  tmp_path, monkeypatch):
        from repro.net import load_share_tree, storage

        _, server_tree, _ = outsourced_catalog
        path = tmp_path / "server.json"
        save_share_tree(server_tree, str(path))
        original = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(storage.os, "replace", explode)
        with pytest.raises(OSError):
            save_share_tree(server_tree, str(path))
        monkeypatch.undo()
        # The original file is untouched and no temp debris remains.
        assert path.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == ["server.json"]
        assert load_share_tree(str(path)).node_count() == server_tree.node_count()
