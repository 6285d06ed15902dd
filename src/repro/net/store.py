"""The durable server-side share store, and the server file it keeps.

The server engine does not care *where* its half of the shared polynomial
tree lives; it talks to a :class:`~repro.core.share_tree.ShareStore`.  Two
stores implement it:

* :class:`~repro.core.share_tree.ServerShareTree` — everything lives in
  process memory (the fastest option, and what outsourcing produces);
* :class:`SQLiteShareStore` — a durable single-file backend, and the only
  server file format.  The public structure (parents and sibling order)
  is held in memory, loaded by one scan of the node table on first use,
  so it costs O(n) memory (about 160 bytes per node); the share
  polynomials stay on disk and load *lazily* through an LRU cache, and a
  restart needs no separate load step.

Both expose the same read/write surface (what
:class:`~repro.net.server.SearchServer` and
:class:`~repro.core.updates.UpdatableTree` need), so every code path —
queries, verification, dynamic updates — works identically against
either store.  Tests assert bit-identical query results across them.

The durable backend is **crash-safe under multi-mutation updates**: every
:class:`~repro.core.updates.UpdatableTree` operation travels as one
:meth:`~repro.core.share_tree.ShareStore.transaction` batch, and
:meth:`SQLiteShareStore.apply_batch` writes each batch inside one
``BEGIN IMMEDIATE … COMMIT``, so SQLite's own journal makes it
all-or-nothing across exceptions and process death.
Format ``share-store-sqlite-v2`` stores coefficients as binary pages
(:mod:`repro.net.pages`) instead of the v1 JSON text rows; v1 files are
migrated losslessly with :func:`migrate_share_store`
(``python -m repro.cli migrate-store``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing
from ..algebra.vkernels import VecFpKernel, numpy_or_none
from ..core.share_tree import (
    CoefficientRows,
    ServerShareTree,
    ShareRowCache,
    ShareStore,
    TreeStructure,
)
from ..errors import ProtocolError, SharingError
from .pages import (
    DEFAULT_PAGE_BYTES,
    blob_extent,
    decode_coefficients,
    decode_coefficients_batch,
    encode_coefficient_rows,
    encode_coefficients,
    join_pages,
    split_pages,
)
from .storage import ring_from_dict, ring_to_dict

__all__ = [
    "SQLiteShareStore",
    "open_share_store",
    "migrate_share_store",
]

#: Format marker written into every SQLite store; unknown formats are
#: rejected loudly (same spirit as the client's ``share_derivation`` marker).
SQLITE_STORE_FORMAT = "share-store-sqlite-v2"

#: Advisory memory-map budget for the SQLite page cache (256 MiB): batched
#: reads of the overflow-page region stream from the mapped file instead of
#: going through read() copies.
SQLITE_MMAP_BYTES = 256 * 1024 * 1024

#: The PR-2 format (JSON coefficient text rows, rowid child order).  Files
#: in this format are readable only through :func:`migrate_share_store`.
LEGACY_SQLITE_STORE_FORMAT = "share-store-sqlite-v1"

_SQLITE_MAGIC = b"SQLite format 3\x00"

#: SQLite caps host parameters per statement; stay well under the limit.
_SQL_CHUNK = 500

#: Coefficients of share rows :meth:`SQLiteShareStore.from_tree` encodes
#: at once (128 KiB of int64), which bounds its array temporaries.
_WRITE_COEFFS = 1 << 14


def _id_chunks(node_ids: Sequence[int]) -> Iterator[Tuple[str, List[int]]]:
    """``IN (...)`` placeholders and parameters for chunks of ``node_ids``.

    Each chunk is padded to the next power of two by repeating its last id
    (a repeat is harmless inside ``IN``), so every statement kind compiles
    to at most ten shapes instead of one per distinct list length, and
    sqlite3's per-connection statement cache stays small.
    """
    for start in range(0, len(node_ids), _SQL_CHUNK):
        chunk = list(node_ids[start:start + _SQL_CHUNK])
        width = 1 << (len(chunk) - 1).bit_length()
        chunk.extend([chunk[-1]] * (width - len(chunk)))
        yield ",".join("?" * width), chunk


def _row_blobs(block: Any) -> Iterator[Tuple[int, bytes]]:
    """``(node_id, blob)`` of a row-backed share tree in pre-order (its id
    order), encoded :data:`_WRITE_COEFFS` coefficients of rows at a time."""
    step = max(1, _WRITE_COEFFS // block.shape[1])
    for start in range(0, len(block), step):
        yield from enumerate(encode_coefficient_rows(block[start:start + step]),
                             start)


# -- node rows (shared by the batch writer, from_tree, migration and the drain) --------

def _upsert_node(conn: sqlite3.Connection, node_id: int,
                 parent: Optional[int], ord_: int) -> None:
    """Write a node's structure row (idempotent).

    A fresh row starts with an empty head segment; :func:`_write_node_pages`
    fills it in the same transaction.
    """
    conn.execute(
        "INSERT INTO nodes (node_id, parent, ord, head) VALUES (?, ?, ?, X'') "
        "ON CONFLICT(node_id) DO UPDATE SET parent = excluded.parent, "
        "ord = excluded.ord",
        (node_id, parent, ord_))


def _delete_node(conn: sqlite3.Connection, node_id: int) -> None:
    """Remove a node's structure row and every overflow page (idempotent)."""
    conn.execute("DELETE FROM pages WHERE node_id = ?", (node_id,))
    conn.execute("DELETE FROM nodes WHERE node_id = ?", (node_id,))


def _write_node_pages(conn: sqlite3.Connection, node_id: int, blob: bytes,
                      page_bytes: int, fresh: bool = False) -> bool:
    """Replace a node's coefficient segments with the paged ``blob``.

    Segment 0 (the head) goes inline into the node row; segments 1+ are
    written as overflow page rows, after dropping the stale ones (none
    when ``fresh``: the node was first written in this transaction to a
    new file).  Returns ``False``, writing nothing, when no node row has
    this id.
    """
    segments = split_pages(blob, page_bytes)
    if not conn.execute("UPDATE nodes SET head = ? WHERE node_id = ?",
                        (segments[0], node_id)).rowcount:
        return False
    if not fresh:
        conn.execute("DELETE FROM pages WHERE node_id = ?", (node_id,))
    if len(segments) > 1:
        conn.executemany(
            "INSERT INTO pages (node_id, page_no, payload) VALUES (?, ?, ?)",
            [(node_id, page_no, payload)
             for page_no, payload in enumerate(segments[1:], start=1)])
    return True


def _drain_legacy_log(conn: sqlite3.Connection, page_bytes: int) -> str:
    """Finish a batch that an earlier build left in its ``wal`` table.

    Earlier builds logged every batch in a ``wal`` table (a ``begin``
    marker, one row per mutation with redo and undo images, a ``commit``
    marker) and applied it one commit per mutation.  A log with a commit
    marker is replayed; one without is undone in reverse order, skipping
    torn records (an unfinished intent was never applied).  The drain and
    the ``DROP TABLE`` are one transaction.  Returns ``"clean"`` (no
    table, or an empty one), ``"replayed"`` or ``"rolled-back"``.
    """
    if conn.execute("SELECT 1 FROM sqlite_master "
                    "WHERE type = 'table' AND name = 'wal'").fetchone() is None:
        return "clean"
    with conn:
        conn.execute("BEGIN IMMEDIATE")
        rows = conn.execute("SELECT op, node_id, parent, ord, after, before "
                            "FROM wal ORDER BY seq").fetchall()
        for row in rows:
            if row[0] not in ("begin", "commit", "add", "replace", "remove"):
                raise ProtocolError(
                    f"the legacy write-ahead log contains an unknown record "
                    f"kind {row[0]!r}; refusing to guess at recovery")
        records = [row for row in rows if row[0] in ("add", "replace", "remove")]
        committed = any(row[0] == "commit" for row in rows)
        if committed:
            for op, node_id, parent, ord_, after, _ in records:
                if op == "remove":
                    _delete_node(conn, node_id)
                    continue
                if node_id is None or after is None:
                    raise ProtocolError(
                        f"legacy WAL {op!r} record for node {node_id!r} is "
                        "missing its redo image; the log is corrupt")
                if op == "add":
                    _upsert_node(conn, node_id, parent, ord_)
                _write_node_pages(conn, node_id, after, page_bytes)
        else:
            for op, node_id, parent, ord_, _, before in reversed(records):
                if node_id is None:
                    continue                    # torn: never applied
                if op == "add":
                    _delete_node(conn, node_id)
                elif op == "replace" and before is not None:
                    _write_node_pages(conn, node_id, before, page_bytes)
                elif op == "remove" and before is not None and ord_ is not None:
                    _upsert_node(conn, node_id, parent, ord_)
                    _write_node_pages(conn, node_id, before, page_bytes)
        conn.execute("DROP TABLE wal")
    if not rows:
        return "clean"
    return "replayed" if committed else "rolled-back"


class SQLiteShareStore(ShareStore):
    """Durable single-file backend with lazy share loading (format v2).

    The structure table (``node_id``, ``parent``, explicit sibling order
    ``ord``) and the binary coefficient pages (:mod:`repro.net.pages`)
    live in SQLite under ``PRAGMA journal_mode=WAL``.  The structure is
    also held in memory as a :class:`~repro.core.share_tree.TreeStructure`,
    loaded by one scan of ``nodes`` on the first structural read; every
    structural read (child lists, subtrees, parents, existence, root,
    counts) is answered from it.  Share polynomials are decoded on demand
    and kept in a :class:`~repro.core.share_tree.ShareRowCache` of
    ``cache_size`` shares (on the vectorized tier's rings one int64 slot
    matrix of at most ``cache_size × (p − 1) × 8`` bytes), so the shares
    never all sit in memory.  All access is serialised by an internal
    lock; the connection is shared across threads.  The store assumes it is the file's only
    writer: another process that edits the file is not seen by the
    resident structure or the share cache.

    Every mutation commits through :meth:`apply_batch`, which writes a
    whole batch in one SQLite transaction and applies it to the resident
    structure as it goes; the single-mutation methods are one-op batches.
    A batch that raises before its ``COMMIT`` is rolled back and
    ``last_recovery`` reads ``"rolled-back"``; after a crash, SQLite's
    journal does the same on the next open, unseen by the store.
    A ``wal`` table left by an earlier build's write-ahead log is drained
    and dropped on open (``last_recovery`` says how).
    """

    def __init__(self, path: str, ring: Optional[EncodingRing] = None,
                 cache_size: int = 4096,
                 page_bytes: int = DEFAULT_PAGE_BYTES) -> None:
        self.path = path
        self.cache_size = cache_size
        # The resident structure and the next free sibling-order value,
        # loaded together by `_tree_locked`; None until the first read.
        self._structure: Optional[TreeStructure] = None
        self._next_ord = 0
        self._lock = threading.RLock()
        #: Test-only crash-point hook; called with the batch's 1-based op
        #: index after each op is written inside the transaction, and with
        #: ``len(ops) + 1`` after COMMIT.  Raising from it fails the batch.
        self.fault_injection_hook = None
        #: The last recovery the store made: "clean", "replayed" or
        #: "rolled-back" (see the class docstring).
        self.last_recovery = "clean"
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # Map the database read-only into the address space: large batched
        # SELECTs over the overflow-page region then stream straight from
        # the page cache's mmap view instead of read() copies.  SQLite
        # treats the pragma as advisory, so this is a no-op where mmap is
        # unavailable.
        self._conn.execute(f"PRAGMA mmap_size={SQLITE_MMAP_BYTES}")
        existing = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        if existing:
            stored_format = self._meta("format")
            if stored_format == LEGACY_SQLITE_STORE_FORMAT:
                self._conn.close()
                raise ProtocolError(
                    f"share store {path!r} uses the legacy JSON-row format "
                    f"{LEGACY_SQLITE_STORE_FORMAT!r}; migrate it losslessly "
                    "with `python -m repro.cli migrate-store PATH` and reopen")
            if stored_format != SQLITE_STORE_FORMAT:
                self._conn.close()
                raise ProtocolError(
                    f"share store {path!r} uses format {stored_format!r} but this "
                    f"version reads {SQLITE_STORE_FORMAT!r}; refusing to guess")
            self.ring = ring_from_dict(json.loads(self._meta("ring")))
            if ring is not None and ring_to_dict(ring) != ring_to_dict(self.ring):
                self._conn.close()
                raise ProtocolError(
                    f"share store {path!r} was written for ring {self.ring.name} "
                    f"but ring {ring.name} was requested")
            self.page_bytes = int(self._meta("page_bytes") or DEFAULT_PAGE_BYTES)
            try:
                self.last_recovery = _drain_legacy_log(self._conn,
                                                       self.page_bytes)
            except BaseException:
                self._conn.close()
                raise
        else:
            if ring is None:
                self._conn.close()
                raise ProtocolError(
                    f"{path!r} is not an existing share store; creating one "
                    "requires an encoding ring")
            self.ring = ring
            self.page_bytes = page_bytes
            with self._conn:
                self._conn.execute(
                    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
                self._conn.execute(
                    "CREATE TABLE nodes (node_id INTEGER PRIMARY KEY, "
                    "parent INTEGER, ord INTEGER NOT NULL, "
                    "head BLOB NOT NULL)")
                self._conn.execute(
                    "CREATE TABLE pages (node_id INTEGER NOT NULL, "
                    "page_no INTEGER NOT NULL, payload BLOB NOT NULL, "
                    "PRIMARY KEY (node_id, page_no)) WITHOUT ROWID")
                self._set_meta("format", SQLITE_STORE_FORMAT)
                self._set_meta("ring", json.dumps(ring_to_dict(ring),
                                                  separators=(",", ":")))
                self._set_meta("page_bytes", str(page_bytes))
        # The share LRU: int64 rows in one slot matrix on the vectorized
        # tier's rings, decoded polynomials otherwise.
        self._cache = ShareRowCache(cache_size, self.ring)

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_tree(cls, path: str, tree: ServerShareTree,
                  cache_size: int = 4096,
                  page_bytes: int = DEFAULT_PAGE_BYTES) -> "SQLiteShareStore":
        """Create (or overwrite) a store file from an in-memory share tree.

        Each node is written with one upsert and one head write, in
        pre-order, in one transaction.  A row-backed tree
        (:meth:`ServerShareTree.share_rows`) has its blobs encoded from
        its share block in array passes
        (:func:`~repro.net.pages.encode_coefficient_rows`, byte-identical
        to the per-share encoder), so the file is the same byte for byte.
        """
        if os.path.exists(path):
            os.remove(path)
        store = cls(path, ring=tree.ring, cache_size=cache_size,
                    page_bytes=page_bytes)
        block = tree.share_rows()
        if block is None:
            blobs = ((node_id, store._encode_share(tree.share_of(node_id)))
                     for node_id in store._preorder(tree))
        else:
            blobs = _row_blobs(block)
        with store._lock, store._conn:
            for ord_, (node_id, blob) in enumerate(blobs):
                _upsert_node(store._conn, node_id, tree.parent_id(node_id),
                             ord_)
                _write_node_pages(store._conn, node_id, blob, store.page_bytes,
                                  fresh=True)
        return store

    @staticmethod
    def _preorder(tree: ServerShareTree) -> Iterator[int]:
        if tree.root_id is None:
            return
        stack = [tree.root_id]
        while stack:
            node_id = stack.pop()
            yield node_id
            stack.extend(reversed(tree.child_ids(node_id)))

    @staticmethod
    def _encode_share(share: Polynomial) -> bytes:
        return encode_coefficients([int(c) for c in share.coeffs])

    def _decode_share(self, blob: bytes) -> Polynomial:
        # The count is checked before decoding: a corrupt width-0 head
        # announces any count at no payload cost.
        count = blob_extent(blob)[2]
        if count > self.ring.degree_bound:
            raise ProtocolError(
                f"share store {self.path!r} holds a share of {count} "
                f"coefficients but its ring {self.ring.name} allows "
                f"{self.ring.degree_bound}; the store is corrupt")
        return self.ring.from_coefficients(decode_coefficients(blob))

    # -- meta table -----------------------------------------------------------------
    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value", (key, value))

    # -- read side -------------------------------------------------------------------
    def _tree_locked(self) -> TreeStructure:
        """The resident structure, loaded by one scan of ``nodes`` if absent.

        Rows stream in ``ord`` order, so child lists keep the stored
        sibling order; the next free ``ord`` is read with it.
        """
        if self._structure is None:
            self._structure = TreeStructure.from_rows(self._conn.execute(
                "SELECT node_id, parent FROM nodes ORDER BY ord"))
            last_ord = self._conn.execute("SELECT MAX(ord) FROM nodes").fetchone()[0]
            self._next_ord = 0 if last_ord is None else last_ord + 1
        return self._structure

    @property
    def root_id(self) -> Optional[int]:
        with self._lock:
            return self._tree_locked().root_id

    def node_count(self) -> int:
        with self._lock:
            return len(self._tree_locked())

    def node_ids(self) -> List[int]:
        with self._lock:
            return self._tree_locked().node_ids()

    def max_node_id(self) -> Optional[int]:
        with self._lock:
            return self._tree_locked().max_node_id()

    def child_ids(self, node_id: int) -> List[int]:
        with self._lock:
            return self._tree_locked().children(node_id)

    def child_lists(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        with self._lock:
            return self._tree_locked().child_lists(node_ids)

    def subtree_ids(self, node_id: int) -> List[int]:
        with self._lock:
            return self._tree_locked().subtree(node_id)

    def parent_id(self, node_id: int) -> Optional[int]:
        with self._lock:
            return self._tree_locked().parent(node_id)

    def share_of(self, node_id: int) -> Polynomial:
        with self._lock:
            fetched = self._cache.fetch([node_id], self._load_locked)
        return self._as_shares(fetched)[0]

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        """Evaluate many node shares at one point: one lock round, one
        ``SELECT ... IN`` per chunk of cache misses, one batched ring pass.

        On the vectorized tier the cached rows and the decoded misses form
        one int64 block (:meth:`ShareRowCache.fetch`) evaluated in a single
        :meth:`VecFpKernel.evaluate_matrix` pass, whose values are reduced
        mod ``p`` as :meth:`EncodingRing.evaluate_many`'s are; no
        coefficient becomes a Python int.  The other tiers evaluate
        polynomials, which stays bit-identical.
        """
        ring = self.ring
        kernel = ring.coefficient_ring.kernel()
        with self._lock:
            fetched = self._cache.fetch(node_ids, self._load_locked)
        if isinstance(kernel, VecFpKernel):
            values = kernel.evaluate_matrix(
                fetched, ring.coefficient_ring.coerce(point))
        else:
            values = ring.evaluate_many(self._as_shares(fetched), point)
        return dict(zip(node_ids, values))

    def coefficient_rows(self, node_ids: Sequence[int]) -> CoefficientRows:
        """Share coefficients of many nodes from one cache pass and one
        chunked load of the misses (the loader :meth:`evaluate_many` uses).

        On the vectorized tier's rings the rows are the int64 block the
        cache returns: no Python int per coefficient and no
        :class:`Polynomial` per node.
        """
        width = self.ring.degree_bound
        node_ids = list(dict.fromkeys(node_ids))
        with self._lock:
            fetched = self._cache.fetch(node_ids, self._load_locked)
        if self._cache.width is not None:
            return CoefficientRows(node_ids, width, matrix=fetched)
        rows: List[List[int]] = []
        for share in fetched:
            row = list(share.coeffs)
            row.extend([0] * (width - len(row)))
            rows.append(row)
        return CoefficientRows(node_ids, width, rows=rows)

    def _as_shares(self, fetched: Any) -> List[Polynomial]:
        """What the cache fetched, as polynomials (rows are converted)."""
        if self._cache.width is None:
            return fetched
        return [self.ring.element_from_row(row) for row in fetched]

    def _load_locked(self, node_ids: List[int]) -> Any:
        """The stored shares of ``node_ids``, in the cache's form.

        Heads come with one ``SELECT ... IN`` per chunk; ``pages`` is read
        only for heads that fill a whole page, the only ones that can
        continue there.  In row form each header group decodes straight
        into one ``(len, width)`` block.
        """
        heads: Dict[int, bytes] = {}
        for marks, chunk in _id_chunks(node_ids):
            heads.update(self._conn.execute(
                f"SELECT node_id, head FROM nodes WHERE node_id IN ({marks})",
                chunk))
        full = [node_id for node_id, head in heads.items()
                if len(head) >= self.page_bytes]
        overflow: Dict[int, List[bytes]] = {}
        for marks, chunk in _id_chunks(full):
            for node_id, payload in self._conn.execute(
                    f"SELECT node_id, payload FROM pages "
                    f"WHERE node_id IN ({marks}) ORDER BY node_id, page_no",
                    chunk):
                overflow.setdefault(node_id, []).append(payload)
        blobs: List[bytes] = []
        for node_id in node_ids:
            head = heads.get(node_id)
            if head is None:
                raise SharingError(f"unknown node id {node_id}")
            pages = overflow.get(node_id)
            blobs.append(head if pages is None else join_pages([head] + pages))
        width = self._cache.width
        if width is None:
            return [self._decode_share(blob) for blob in blobs]
        np = numpy_or_none()
        block = np.empty((len(blobs), width), dtype=np.int64)
        # Called through the module global on purpose: profilers wrap it there.
        if decode_coefficients_batch(blobs, out=block) is None:
            raise ProtocolError(
                f"share store {self.path!r} holds coefficients wider than "
                f"its ring {self.ring.name} allows; the store is corrupt")
        return block

    def __contains__(self, node_id: int) -> bool:
        with self._lock:
            return node_id in self._tree_locked()

    def bind_metrics(self, metrics: Any, document_id: str) -> None:
        """Bind instruments, back-reporting the open-time recovery outcome.

        The share LRU counts its hits and misses straight into the bound
        ``store_cache_*_total`` counters from here on.  A store that
        drained a legacy log did so *before* it was hosted; recording it at
        bind time means the event still shows up in
        ``store_recovery_total`` for operators.
        """
        super().bind_metrics(metrics, document_id)
        self._cache.hits = self._cache_hits
        self._cache.misses = self._cache_misses
        self._record_recovery(self.last_recovery)

    def cached_share_count(self) -> int:
        """How many share polynomials are currently resident (lazy-load probe)."""
        with self._lock:
            return len(self._cache)

    def storage_bits(self) -> int:
        # Stream over the tables instead of share_of() so a full scan does
        # not evict the query working set from the LRU cache.
        with self._lock:
            rows = self._conn.execute(
                "SELECT node_id, head FROM nodes ORDER BY node_id").fetchall()
            overflow_rows = self._conn.execute(
                "SELECT node_id, page_no, payload FROM pages "
                "ORDER BY node_id, page_no").fetchall()
        blobs: Dict[int, List[bytes]] = {int(node_id): [head]
                                         for node_id, head in rows}
        for node_id, _, payload in overflow_rows:
            blobs[int(node_id)].append(payload)
        return sum(self.ring.element_storage_bits(
                       self._decode_share(join_pages(payloads)))
                   for payloads in blobs.values())

    def file_bytes(self) -> int:
        """Current on-disk size of the store file (WAL folded in)."""
        with self._lock:
            self._conn.commit()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return os.path.getsize(self.path)

    # -- write side: one transaction per batch ------------------------------------------
    def add_node(self, node_id: int, parent_id: Optional[int],
                 share: Polynomial) -> None:
        with self._lock, self.transaction() as txn:
            txn.add_node(node_id, parent_id, share)

    def replace_share(self, node_id: int, share: Polynomial) -> None:
        with self._lock, self.transaction() as txn:
            txn.replace_share(node_id, share)

    def remove_subtree(self, node_id: int) -> List[int]:
        with self._lock, self.transaction() as txn:
            return txn.remove_subtree(node_id)

    def apply_batch(self, ops: Sequence[Tuple]) -> None:
        """Apply a mutation batch as one SQLite transaction.

        ``BEGIN IMMEDIATE`` takes the write lock before the batch's own
        reads (the existence and subtree checks), so they and the writes
        see one snapshot, and the single ``COMMIT`` makes the batch
        durable.  Each op is applied to the resident structure as it is
        written, so later ops of the batch (a removal's subtree check)
        see earlier ones.  A batch that raises before its ``COMMIT`` (a
        failed check, an I/O error, the fault hook) is rolled back whole,
        so a surviving process never observes a torn batch either.  After
        the commit the batch is folded into the share LRU and the
        sibling-order counter; after any failure, before or after the
        commit, the structure and the LRU are dropped and reloaded from
        disk instead.
        """
        if not ops:
            return
        started = time.perf_counter()
        try:
            with self._lock:
                self._apply_batch_locked(ops)
        finally:
            if self._txn_seconds is not None:
                self._txn_seconds.observe(time.perf_counter() - started)

    def _apply_batch_locked(self, ops: Sequence[Tuple]) -> None:
        try:
            with self._conn:            # COMMIT on success, ROLLBACK on raise
                self._conn.execute("BEGIN IMMEDIATE")
                written = self._write_ops(ops)
        except BaseException:
            self.last_recovery = "rolled-back"
            self._record_recovery(self.last_recovery)
            self._reload_cache_state()
            raise
        try:
            self._fault_point(len(ops) + 1)
            for node_id, share, added in written:
                if share is None:
                    self._cache.discard(node_id)
                elif added or node_id in self._cache:
                    self._cache.put(node_id, share)
                if added:
                    self._next_ord += 1
        except BaseException:
            self._reload_cache_state()
            raise

    def _write_ops(self, ops: Sequence[Tuple]
                   ) -> List[Tuple[int, Optional[Polynomial], bool]]:
        """Check and write ``ops`` inside the open transaction.

        Returns one ``(node_id, share, added)`` entry per written node row,
        in order (``share`` is ``None`` for a removal), for the cache fold.
        """
        written: List[Tuple[int, Optional[Polynomial], bool]] = []
        tree = self._tree_locked()
        next_ord = self._next_ord
        for step, op in enumerate(ops, start=1):
            kind = op[0]
            if kind in ("add", "replace"):
                # ("add", id, parent, share) or ("replace", id, share)
                node_id, share = op[1], op[-1]
                share = (share if self.ring.is_canonical(share)
                         else self.ring.reduce(share))
                if kind == "add":
                    tree.add(node_id, op[2])
                    _upsert_node(self._conn, node_id, op[2], next_ord)
                    next_ord += 1
                if not _write_node_pages(self._conn, node_id,
                                         self._encode_share(share),
                                         self.page_bytes):
                    raise SharingError(f"unknown node id {node_id}")
                written.append((node_id, share, kind == "add"))
            elif kind == "remove_subtree":
                _, node_id, expected = op
                removed = tree.remove_subtree(node_id)
                if sorted(removed) != sorted(expected):
                    raise SharingError(
                        f"subtree {node_id} changed between transaction "
                        "recording and apply; refusing the batch")
                for current in removed:
                    _delete_node(self._conn, current)
                    written.append((current, None, False))
            else:
                raise ProtocolError(f"unknown batch op {kind!r}")
            self._fault_point(step)
        return written

    def _reload_cache_state(self) -> None:
        """Drop the share LRU and the resident structure (with its
        sibling-order counter); the next read reloads them from disk."""
        self._cache.clear()
        self._structure = None

    def _fault_point(self, step: int) -> None:
        hook = self.fault_injection_hook
        if hook is not None:
            hook(step)

    # -- lifecycle -------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()

    def __repr__(self) -> str:
        return f"<SQLiteShareStore path={self.path!r}>"


def open_share_store(path: str) -> SQLiteShareStore:
    """Open a server file: a SQLite share store, whose shares load lazily.

    Any other file — empty, truncated, or the JSON share tree that older
    builds wrote — is rejected with a :class:`~repro.errors.ProtocolError`
    naming the path and the sniffed header instead of dying inside a
    decoder.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_SQLITE_MAGIC))
    if magic == _SQLITE_MAGIC:
        return SQLiteShareStore(path)
    if not magic:
        raise ProtocolError(f"share store {path!r} is empty, not a SQLite "
                            "share store")
    if _SQLITE_MAGIC.startswith(magic):
        raise ProtocolError(
            f"share store {path!r} is a truncated SQLite file "
            f"(header {magic!r}, {len(magic)} of {len(_SQLITE_MAGIC)} magic "
            "bytes); restore it from a backup")
    raise ProtocolError(
        f"{path!r} is not a SQLite share store (header {magic!r}); the JSON "
        "share-tree files of older builds are no longer read: re-run "
        "`python -m repro.cli outsource` to write a SQLite server file")


def migrate_share_store(path: str,
                        page_bytes: int = DEFAULT_PAGE_BYTES) -> Dict[str, int]:
    """Migrate a legacy v1 store file to the v2 format, in place and lossless.

    The v2 file is built alongside the original and atomically
    :func:`os.replace`-d over it, so a crash mid-migration leaves the v1
    file untouched.  Returns ``{"nodes", "before_bytes", "after_bytes"}``.
    A file already in v2 format is left alone (``nodes`` still reported).
    """
    with open(path, "rb") as handle:
        if handle.read(len(_SQLITE_MAGIC)) != _SQLITE_MAGIC:
            raise ProtocolError(
                f"{path!r} is not a SQLite share store; only "
                f"{LEGACY_SQLITE_STORE_FORMAT!r} files need migration")
    before_bytes = os.path.getsize(path)
    conn = sqlite3.connect(path)
    try:
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'format'").fetchone()
            stored_format = None if row is None else row[0]
            if stored_format == SQLITE_STORE_FORMAT:
                nodes = int(conn.execute(
                    "SELECT COUNT(*) FROM nodes").fetchone()[0])
                return {"nodes": nodes, "before_bytes": before_bytes,
                        "after_bytes": before_bytes}
            if stored_format != LEGACY_SQLITE_STORE_FORMAT:
                raise ProtocolError(
                    f"share store {path!r} has format {stored_format!r}; only "
                    f"{LEGACY_SQLITE_STORE_FORMAT!r} files can be migrated")
            ring = ring_from_dict(json.loads(conn.execute(
                "SELECT value FROM meta WHERE key = 'ring'").fetchone()[0]))
            rows = conn.execute(
                "SELECT node_id, parent, coefficients FROM nodes "
                "ORDER BY rowid").fetchall()
        except sqlite3.Error as exc:
            raise ProtocolError(
                f"{path!r} is a SQLite database but not a share store "
                f"({exc})") from exc
    finally:
        conn.close()

    temp_path = f"{path}.migrate-{os.getpid()}"
    try:
        store = SQLiteShareStore(temp_path, ring=ring, page_bytes=page_bytes)
        with store._lock, store._conn:
            for ord_, (node_id, parent, coefficients) in enumerate(rows):
                share = ring.from_coefficients(json.loads(coefficients))
                _upsert_node(store._conn, int(node_id),
                             None if parent is None else int(parent), ord_)
                _write_node_pages(store._conn, int(node_id),
                                  store._encode_share(share), store.page_bytes)
        after_bytes = store.file_bytes()
        store.close()
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise
    return {"nodes": len(rows), "before_bytes": before_bytes,
            "after_bytes": after_bytes}
