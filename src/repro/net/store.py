"""Pluggable server-side share-store backends.

The server engine does not care *where* its half of the shared polynomial
tree lives; it talks to a :class:`ShareStore`.  Two backends ship with the
reproduction:

* :class:`InMemoryShareStore` — wraps a
  :class:`~repro.core.share_tree.ServerShareTree`; everything lives in
  process memory (the PR-1 behaviour, and still the fastest option);
* :class:`SQLiteShareStore` — a durable single-file backend that keeps the
  node table on disk and loads share polynomials *lazily* through an LRU
  cache, so a server can host documents far larger than its memory and
  restart without a separate load step.

Both expose the same read/write surface as ``ServerShareTree`` (the store
API is a strict superset of what :class:`~repro.net.server.SearchServer`
and :class:`~repro.core.updates.UpdatableTree` need), so every code path —
queries, verification, dynamic updates — works identically against either
backend.  Tests assert bit-identical query results across backends.

The durable backend is **crash-safe under multi-mutation updates**: every
:class:`~repro.core.updates.UpdatableTree` operation travels as one
:meth:`ShareStore.transaction` batch, and :meth:`SQLiteShareStore.apply_batch`
writes each batch inside one ``BEGIN IMMEDIATE … COMMIT``, so SQLite's own
journal makes it all-or-nothing across exceptions and process death.
Format ``share-store-sqlite-v2`` stores coefficients as binary pages
(:mod:`repro.net.pages`) instead of the v1 JSON text rows; v1 files are
migrated losslessly with :func:`migrate_share_store`
(``python -m repro.cli migrate-store``).
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing
from ..algebra.vkernels import VecFpKernel, numpy_or_none
from ..core.query import CoefficientRows
from ..core.share_tree import ServerShareTree
from ..errors import ProtocolError, SharingError
from .pages import (
    DEFAULT_PAGE_BYTES,
    decode_coefficients,
    decode_coefficients_batch,
    encode_coefficients,
    join_pages,
    split_pages,
)

__all__ = [
    "ShareStore",
    "StoreTransaction",
    "InMemoryShareStore",
    "SQLiteShareStore",
    "as_share_store",
    "open_share_store",
    "migrate_share_store",
    "write_v1_share_store",
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
                      page_bytes: int) -> bool:
    """Replace a node's coefficient segments with the paged ``blob``.

    Segment 0 (the head) goes inline into the node row; segments 1+ are
    written as overflow page rows, after dropping the stale ones.  Returns
    ``False``, writing nothing, when no node row has this id.
    """
    segments = split_pages(blob, page_bytes)
    if not conn.execute("UPDATE nodes SET head = ? WHERE node_id = ?",
                        (segments[0], node_id)).rowcount:
        return False
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


class ShareStore(abc.ABC):
    """Storage backend for one document's server share tree."""

    #: The encoding ring of the stored polynomials.
    ring: EncodingRing

    # Metrics instruments, bound when the store becomes a hosted document
    # (:meth:`bind_metrics`); ``None`` until then, so an unhosted store
    # pays nothing.
    _metrics = None
    _metrics_document = ""
    _txn_seconds = None
    _cache_hits = None
    _cache_misses = None

    # -- observability ----------------------------------------------------------------
    def bind_metrics(self, metrics: Any, document_id: str) -> None:
        """Emit this store's operational signals into ``metrics``.

        Called by :meth:`~repro.net.engine.DocumentRegistry.add` when the
        store is hosted.  Binds transaction latency
        (``store_transaction_seconds``) and page-cache hit/miss counters
        (``store_cache_hits_total``/``store_cache_misses_total``), all
        labelled with the hosting document; durable backends additionally
        report recovery events (``store_recovery_total``).
        """
        self._metrics = metrics
        self._metrics_document = str(document_id)
        self._txn_seconds = metrics.histogram(
            "store_transaction_seconds", document=self._metrics_document)
        self._cache_hits = metrics.counter(
            "store_cache_hits_total", document=self._metrics_document)
        self._cache_misses = metrics.counter(
            "store_cache_misses_total", document=self._metrics_document)

    def _record_recovery(self, result: str) -> None:
        """Count one recovery outcome ("replayed"/"rolled-back")."""
        if self._metrics is not None and result != "clean":
            self._metrics.counter(
                "store_recovery_total", document=self._metrics_document,
                result=result).inc()

    # -- read side (what the query protocol needs) ---------------------------------
    @property
    @abc.abstractmethod
    def root_id(self) -> Optional[int]:
        """Identifier of the root node (``None`` for an empty store)."""

    @abc.abstractmethod
    def node_count(self) -> int:
        """Number of nodes stored."""

    @abc.abstractmethod
    def node_ids(self) -> List[int]:
        """All node identifiers, sorted."""

    @abc.abstractmethod
    def child_ids(self, node_id: int) -> List[int]:
        """Public child list of a node (document order)."""

    def child_lists(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        """Child lists of many nodes in one read (one per descent level).

        Raises :class:`~repro.errors.SharingError` naming the first unknown
        id.  The base implementation loops over :meth:`child_ids`, which is
        all a memory-backed store needs; the durable backend answers with
        one chunked ``SELECT``.
        """
        return {node_id: self.child_ids(node_id) for node_id in node_ids}

    def subtree_ids(self, node_id: int) -> List[int]:
        """``node_id`` and all its descendants, read one level at a time.

        The ids come in the order of a stack walk (a node, then its
        subtrees from the last child to the first), the order
        ``ServerShareTree.remove_subtree`` returns.
        """
        lists: Dict[int, List[int]] = {}
        level = [node_id]
        while level:
            lists.update(self.child_lists(level))
            level = [child for parent in level for child in lists[parent]]
        ordered: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            ordered.append(current)
            stack.extend(lists[current])
        return ordered

    @abc.abstractmethod
    def parent_id(self, node_id: int) -> Optional[int]:
        """Public parent of a node."""

    @abc.abstractmethod
    def share_of(self, node_id: int) -> Polynomial:
        """The stored share polynomial of a node."""

    @abc.abstractmethod
    def __contains__(self, node_id: int) -> bool:
        """Whether the store holds a node with this id."""

    def max_node_id(self) -> Optional[int]:
        """Largest stored node id (``None`` for an empty store).

        Used by :class:`~repro.core.updates.UpdatableTree` to allocate
        fresh ids with one query per batch instead of one full id scan per
        inserted node.  Backends with an index on the id column should
        override this.
        """
        ids = self.node_ids()
        return max(ids) if ids else None

    # -- write side (outsourcing and dynamic updates) ------------------------------
    @abc.abstractmethod
    def add_node(self, node_id: int, parent_id: Optional[int],
                 share: Polynomial) -> None:
        """Insert one node's share; parents must precede children."""

    @abc.abstractmethod
    def replace_share(self, node_id: int, share: Polynomial) -> None:
        """Overwrite the share of an existing node (dynamic updates)."""

    @abc.abstractmethod
    def remove_subtree(self, node_id: int) -> List[int]:
        """Remove a node and every descendant; returns the removed ids."""

    # -- transactional batches -------------------------------------------------------
    def transaction(self) -> "StoreTransaction":
        """Open a buffered mutation batch (a context manager).

        Mutations recorded on the returned :class:`StoreTransaction` are
        validated immediately against the pre-batch state but applied only
        when the ``with`` block exits cleanly, through
        :meth:`apply_batch` — on the durable backend as one SQLite
        transaction, atomic across crashes, which is what makes multi-node
        dynamic updates safe.
        """
        return StoreTransaction(self)

    def apply_batch(self, ops: Sequence[Tuple]) -> None:
        """Apply a validated batch of mutation ops.

        The base implementation simply replays the ops through the
        single-mutation methods; it provides batching semantics (one call
        site, one lock round on backends that lock per call) but no crash
        atomicity — memory-backed stores have no durable state to tear.
        """
        started = time.perf_counter()
        try:
            self._apply_ops(ops)
        finally:
            if self._txn_seconds is not None:
                self._txn_seconds.observe(time.perf_counter() - started)

    def _apply_ops(self, ops: Sequence[Tuple]) -> None:
        for op in ops:
            kind = op[0]
            if kind == "add":
                _, node_id, parent_id, share = op
                self.add_node(node_id, parent_id, share)
            elif kind == "replace":
                _, node_id, share = op
                self.replace_share(node_id, share)
            elif kind == "remove_subtree":
                _, node_id, expected = op
                removed = self.remove_subtree(node_id)
                if sorted(removed) != sorted(expected):
                    raise SharingError(
                        f"subtree {node_id} changed between transaction "
                        "recording and apply; refusing the batch")
            else:
                raise ProtocolError(f"unknown batch op {kind!r}")

    # -- generic helpers (shared by every backend) ----------------------------------
    def evaluate(self, node_id: int, point: int) -> int:
        """Evaluate the stored share of a node at a query point."""
        return self.ring.evaluate(self.share_of(node_id), point)

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        """Evaluate many node shares at one point (one batched pass)."""
        shares = [self.share_of(node_id) for node_id in node_ids]
        return dict(zip(node_ids, self.ring.evaluate_many(shares, point)))

    def coefficient_rows(self, node_ids: Sequence[int]) -> CoefficientRows:
        """Share coefficients of many nodes, as the wire carries them.

        Each row is ascending and zero-padded to the ring's degree bound;
        repeated ids are served once, in first-seen order.  The base
        implementation reads :meth:`share_of` per node; the durable
        backend serves the batch from one cache pass plus one chunked load
        of the misses, as one int64 block on the vectorized tier.
        """
        width = self.ring.degree_bound
        node_ids = list(dict.fromkeys(node_ids))
        rows: List[List[int]] = []
        for node_id in node_ids:
            row = list(self.share_of(node_id).coeffs[:width])
            row.extend([0] * (width - len(row)))
            rows.append(row)
        return CoefficientRows(node_ids, width, rows=rows)

    def storage_bits(self) -> int:
        """Measured storage of all share polynomials (the §5 server cost)."""
        return sum(self.ring.element_storage_bits(self.share_of(node_id))
                   for node_id in self.node_ids())

    def close(self) -> None:
        """Release backend resources (no-op for memory-backed stores)."""

    def __len__(self) -> int:
        return len(self.node_ids())

    def __enter__(self) -> "ShareStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class StoreTransaction:
    """A buffered batch of mutations against one :class:`ShareStore`.

    Mutations are validated against the **pre-batch** state when recorded
    and applied together on clean exit; an exception inside the ``with``
    block discards the batch without touching the store.  Reads performed
    while the transaction is open still see the pre-batch state — callers
    (:class:`~repro.core.updates.UpdatableTree`) therefore compute every
    new polynomial first and only then record the writes.

    Structural ops may not overlap within one batch: a node removed by the
    batch cannot also be added or replaced by it (and vice versa).  The
    update layer never needs that.
    """

    def __init__(self, store: ShareStore) -> None:
        self._store = store
        self._ops: List[Tuple] = []
        self._added: set = set()
        self._replaced: set = set()
        self._removed: set = set()
        self._added_root = False
        self._done = False

    # -- recording -----------------------------------------------------------------
    def _open_check(self, node_id: int) -> None:
        if self._done:
            raise ProtocolError("this store transaction has already finished")
        if node_id in self._removed:
            raise SharingError(
                f"node {node_id} was removed earlier in this transaction")

    def add_node(self, node_id: int, parent_id: Optional[int],
                 share: Polynomial) -> None:
        """Buffer one node insertion (parents must precede children)."""
        self._open_check(node_id)
        if node_id in self._added or node_id in self._store:
            raise SharingError(f"duplicate node id {node_id}")
        if parent_id is None:
            if self._store.root_id is not None or self._added_root:
                raise SharingError("the share tree already has a root")
            self._added_root = True
        elif parent_id not in self._added and (
                parent_id not in self._store or parent_id in self._removed):
            raise SharingError(f"parent {parent_id} of node {node_id} is unknown")
        self._added.add(node_id)
        self._ops.append(("add", node_id, parent_id, share))

    def replace_share(self, node_id: int, share: Polynomial) -> None:
        """Buffer one share overwrite of an existing (or just-added) node."""
        self._open_check(node_id)
        if node_id not in self._added and node_id not in self._store:
            raise SharingError(f"unknown node id {node_id}")
        self._replaced.add(node_id)
        self._ops.append(("replace", node_id, share))

    def remove_subtree(self, node_id: int) -> List[int]:
        """Buffer the removal of a whole subtree; returns the doomed ids."""
        self._open_check(node_id)
        if node_id not in self._store:
            raise SharingError(f"unknown node id {node_id}")
        if self._store.parent_id(node_id) is None:
            raise SharingError("the root node cannot be removed")
        removed = self._store.subtree_ids(node_id)
        overlap = set(removed) & (self._added | self._replaced)
        if overlap:
            raise SharingError(
                f"nodes {sorted(overlap)} were touched earlier in this "
                "transaction and cannot also be removed by it")
        self._removed.update(removed)
        self._ops.append(("remove_subtree", node_id, removed))
        return removed

    # -- lifecycle -----------------------------------------------------------------
    @property
    def ops(self) -> List[Tuple]:
        """The buffered ops (recorded order)."""
        return list(self._ops)

    def __enter__(self) -> "StoreTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._done:
            return
        self._done = True
        if exc_type is None and self._ops:
            self._store.apply_batch(self._ops)


class InMemoryShareStore(ShareStore):
    """A :class:`ShareStore` view over an in-memory ``ServerShareTree``."""

    def __init__(self, tree: ServerShareTree) -> None:
        #: The wrapped tree (shared, not copied).
        self.tree = tree
        self.ring = tree.ring

    @property
    def root_id(self) -> Optional[int]:
        return self.tree.root_id

    def node_count(self) -> int:
        return self.tree.node_count()

    def node_ids(self) -> List[int]:
        return self.tree.node_ids()

    def max_node_id(self) -> Optional[int]:
        return self.tree.max_node_id()

    def child_ids(self, node_id: int) -> List[int]:
        return self.tree.child_ids(node_id)

    def parent_id(self, node_id: int) -> Optional[int]:
        return self.tree.parent_id(node_id)

    def share_of(self, node_id: int) -> Polynomial:
        return self.tree.share_of(node_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.tree

    def add_node(self, node_id: int, parent_id: Optional[int],
                 share: Polynomial) -> None:
        self.tree.add_node(node_id, parent_id, share)

    def replace_share(self, node_id: int, share: Polynomial) -> None:
        self.tree.replace_share(node_id, share)

    def remove_subtree(self, node_id: int) -> List[int]:
        return self.tree.remove_subtree(node_id)

    def evaluate(self, node_id: int, point: int) -> int:
        return self.tree.evaluate(node_id, point)

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        """Batched evaluation; rides the vectorized kernel tier when active.

        The resident shares are scattered into one padded int64 matrix and
        evaluated in a single :meth:`VecFpKernel.evaluate_matrix` pass —
        the same point coercion and final reduction as
        :meth:`EncodingRing.evaluate_many`, so the result stays
        bit-identical to the generic path (asserted by the tier-identity
        suite).  Without numpy, on the flat/generic tiers, or for rings
        beyond the native width, this falls back to the wrapped tree's
        batched path unchanged.
        """
        kernel = self.ring.coefficient_ring.kernel()
        if node_ids and isinstance(kernel, VecFpKernel):
            shares = [self.tree.share_of(node_id) for node_id in node_ids]
            longest = max(len(share.coeffs) for share in shares)
            if longest:
                np = numpy_or_none()
                matrix = np.zeros((len(shares), longest), dtype=np.int64)
                for index, share in enumerate(shares):
                    if share.coeffs:
                        matrix[index, :len(share.coeffs)] = share.coeffs
                coerced = self.ring.coefficient_ring.coerce(point)
                values = kernel.evaluate_matrix(matrix, coerced)
                modulus = self.ring.evaluation_modulus(point)
                if modulus is not None:
                    values = [value % modulus for value in values]
                return dict(zip(node_ids, values))
        return self.tree.evaluate_many(node_ids, point)

    def storage_bits(self) -> int:
        return self.tree.storage_bits()

    def __repr__(self) -> str:
        return f"<InMemoryShareStore nodes={self.tree.node_count()}>"


class SQLiteShareStore(ShareStore):
    """Durable single-file backend with lazy share loading (format v2).

    The structure table (``node_id``, ``parent``, explicit sibling order
    ``ord``) and the binary coefficient pages (:mod:`repro.net.pages`)
    live in SQLite under ``PRAGMA journal_mode=WAL``; share polynomials
    are decoded on demand and kept in a bounded LRU cache, so opening a
    store does *not* materialise the tree and resident memory stays flat
    in the document size.  All access is serialised by an internal lock;
    the connection is shared across threads.

    Every mutation commits through :meth:`apply_batch`, which writes a
    whole batch in one SQLite transaction; the single-mutation methods are
    one-op batches.  A batch that raises before its ``COMMIT`` is rolled
    back and ``last_recovery`` reads ``"rolled-back"``; after a crash,
    SQLite's journal does the same on the next open, unseen by the store.
    A ``wal`` table left by an earlier build's write-ahead log is drained
    and dropped on open (``last_recovery`` says how).
    """

    def __init__(self, path: str, ring: Optional[EncodingRing] = None,
                 cache_size: int = 4096,
                 page_bytes: int = DEFAULT_PAGE_BYTES) -> None:
        # Imported here: storage.py imports this module at load time.
        from .storage import ring_from_dict, ring_to_dict

        self.path = path
        self.cache_size = cache_size
        # Entries are Polynomials, or decoded int64 coefficient rows when
        # the vectorized read path filled them; `_entry_share` converts on
        # first structural access and replaces the entry in place.
        self._cache: "OrderedDict[int, Any]" = OrderedDict()
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
                self._conn.execute("CREATE INDEX nodes_parent ON nodes (parent)")
                self._conn.execute(
                    "CREATE TABLE pages (node_id INTEGER NOT NULL, "
                    "page_no INTEGER NOT NULL, payload BLOB NOT NULL, "
                    "PRIMARY KEY (node_id, page_no)) WITHOUT ROWID")
                self._set_meta("format", SQLITE_STORE_FORMAT)
                self._set_meta("ring", json.dumps(ring_to_dict(ring),
                                                  separators=(",", ":")))
                self._set_meta("page_bytes", str(page_bytes))
        self._next_ord = self._max_ord() + 1

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_tree(cls, path: str, tree: ServerShareTree,
                  cache_size: int = 4096,
                  page_bytes: int = DEFAULT_PAGE_BYTES) -> "SQLiteShareStore":
        """Create (or overwrite) a store file from an in-memory share tree."""
        if os.path.exists(path):
            os.remove(path)
        store = cls(path, ring=tree.ring, cache_size=cache_size,
                    page_bytes=page_bytes)
        with store._lock, store._conn:
            for ord_, node_id in enumerate(store._preorder(tree)):
                _upsert_node(store._conn, node_id, tree.parent_id(node_id),
                             ord_)
                _write_node_pages(store._conn, node_id,
                                  store._encode_share(tree.share_of(node_id)),
                                  store.page_bytes)
            store._next_ord = tree.node_count()
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

    def _max_ord(self) -> int:
        row = self._conn.execute("SELECT MAX(ord) FROM nodes").fetchone()
        return -1 if row is None or row[0] is None else int(row[0])

    # -- read side -------------------------------------------------------------------
    @property
    def root_id(self) -> Optional[int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT node_id FROM nodes WHERE parent IS NULL").fetchone()
        return None if row is None else int(row[0])

    def node_count(self) -> int:
        with self._lock:
            return int(self._conn.execute("SELECT COUNT(*) FROM nodes").fetchone()[0])

    def node_ids(self) -> List[int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT node_id FROM nodes ORDER BY node_id").fetchall()
        return [int(row[0]) for row in rows]

    def max_node_id(self) -> Optional[int]:
        with self._lock:
            row = self._conn.execute("SELECT MAX(node_id) FROM nodes").fetchone()
        return None if row is None or row[0] is None else int(row[0])

    def child_ids(self, node_id: int) -> List[int]:
        return self.child_lists([node_id])[node_id]

    def child_lists(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        """Child lists of many nodes: per chunk of ids, one existence check
        and one ``WHERE parent IN (...) ORDER BY parent, ord``."""
        lists: Dict[int, List[int]] = {node_id: [] for node_id in node_ids}
        wanted = list(lists)
        found = set()
        with self._lock:
            for marks, chunk in _id_chunks(wanted):
                found.update(row[0] for row in self._conn.execute(
                    f"SELECT node_id FROM nodes WHERE node_id IN ({marks})",
                    chunk))
                for parent, child in self._conn.execute(
                        f"SELECT parent, node_id FROM nodes "
                        f"WHERE parent IN ({marks}) ORDER BY parent, ord",
                        chunk):
                    lists[parent].append(child)
        if len(found) < len(wanted):
            for node_id in wanted:
                if node_id not in found:
                    raise SharingError(f"unknown node id {node_id}")
        return lists

    def parent_id(self, node_id: int) -> Optional[int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT parent FROM nodes WHERE node_id = ?", (node_id,)).fetchone()
        if row is None:
            raise SharingError(f"unknown node id {node_id}")
        return None if row[0] is None else int(row[0])

    def _load_blob(self, node_id: int) -> Optional[bytes]:
        row = self._conn.execute(
            "SELECT head FROM nodes WHERE node_id = ?", (node_id,)).fetchone()
        if row is None:
            return None
        rows = self._conn.execute(
            "SELECT payload FROM pages WHERE node_id = ? ORDER BY page_no",
            (node_id,)).fetchall()
        return join_pages([row[0]] + [overflow[0] for overflow in rows])

    def _cache_put(self, node_id: int, entry: Any) -> None:
        if self.cache_size > 0:
            if not isinstance(entry, Polynomial):
                # Decoded rows from a batch decode are views into one group
                # matrix; copy so a cached row never pins its whole batch.
                entry = entry.copy()
            self._cache[node_id] = entry
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _entry_share(self, node_id: int, entry: Any) -> Polynomial:
        """A cache entry as a Polynomial, upgrading int64 rows in place."""
        if isinstance(entry, Polynomial):
            return entry
        share = self.ring.from_coefficients(entry.tolist())
        if node_id in self._cache:
            self._cache[node_id] = share
        return share

    def share_of(self, node_id: int) -> Polynomial:
        with self._lock:
            entry = self._cache.get(node_id)
            if entry is not None:
                self._cache.move_to_end(node_id)
                if self._cache_hits is not None:
                    self._cache_hits.inc()
                return self._entry_share(node_id, entry)
            if self._cache_misses is not None:
                self._cache_misses.inc()
            blob = self._load_blob(node_id)
            if blob is None:
                raise SharingError(f"unknown node id {node_id}")
            share = self._decode_share(blob)
            self._cache_put(node_id, share)
            return share

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        """Evaluate many node shares at one point: one lock round, one
        ``SELECT ... IN`` per chunk of cache misses, one batched ring pass.

        When the ring's kernel is the vectorized tier, cache misses never
        become Python coefficient lists at all: the head+overflow blobs are
        batch-decoded into int64 rows (:func:`decode_coefficients_batch`),
        scattered into one padded matrix together with any cached entries,
        and evaluated in a single :meth:`VecFpKernel.evaluate_matrix` pass —
        one chunked SELECT, one array decode, one batched ring pass.  Any
        fallback condition (no numpy, flat/generic tier, limbs beyond the
        native width) reverts to the decoded-Polynomial path, which remains
        bit-identical.
        """
        ring = self.ring
        kernel = ring.coefficient_ring.kernel()
        vec = kernel if isinstance(kernel, VecFpKernel) else None
        with self._lock:
            entries, as_rows = self._entries_locked(node_ids, vec is not None)
            if vec is not None and as_rows:
                return dict(zip(node_ids, self._evaluate_rows_locked(
                    vec, node_ids, entries, point)))
            ordered = [self._entry_share(node_id, entries[node_id])
                       for node_id in node_ids]
        return dict(zip(node_ids, ring.evaluate_many(ordered, point)))

    def coefficient_rows(self, node_ids: Sequence[int]) -> CoefficientRows:
        """Share coefficients of many nodes from one cache pass and one
        chunked load of the misses (the loader :meth:`evaluate_many` uses).

        On the vectorized tier the rows come back as one int64 block built
        straight from the decoded and cached entries: no Python int per
        coefficient and no :class:`Polynomial` per node.
        """
        kernel = self.ring.coefficient_ring.kernel()
        width = self.ring.degree_bound
        node_ids = list(dict.fromkeys(node_ids))
        with self._lock:
            entries, as_rows = self._entries_locked(
                node_ids, isinstance(kernel, VecFpKernel))
            if as_rows:
                matrix = self._row_matrix(node_ids, entries, width)
                if matrix is not None:
                    return CoefficientRows(node_ids, matrix.shape[1],
                                           matrix=matrix)
            rows: List[List[int]] = []
            for node_id in node_ids:
                entry = entries[node_id]
                row = (list(entry.coeffs) if isinstance(entry, Polynomial)
                       else entry.tolist())
                row.extend([0] * (width - len(row)))
                rows.append(row)
        return CoefficientRows(node_ids, width, rows=rows)

    def _entries_locked(self, node_ids: Sequence[int], as_rows: bool
                        ) -> Tuple[Dict[int, Any], bool]:
        """Cache entries for ``node_ids``, loading the misses in one pass.

        Misses are read with one ``SELECT ... IN`` per chunk and, when
        ``as_rows``, batch-decoded into int64 rows; the returned flag says
        whether that decode happened (``False`` when it fell back to
        Polynomials, e.g. limbs beyond the native width).
        """
        entries: Dict[int, Any] = {}
        misses: List[int] = []
        for node_id in node_ids:
            cached = self._cache.get(node_id)
            if cached is not None:
                self._cache.move_to_end(node_id)
                entries[node_id] = cached
            elif node_id not in entries:
                entries[node_id] = None
                misses.append(node_id)
        if self._cache_hits is not None:
            hits = len(entries) - len(misses)
            if hits:
                self._cache_hits.inc(hits)
            if misses:
                self._cache_misses.inc(len(misses))
        if not misses:
            return entries, as_rows
        blobs: Dict[int, List[bytes]] = {}
        for marks, chunk in _id_chunks(misses):
            rows = self._conn.execute(
                f"SELECT node_id, head FROM nodes "
                f"WHERE node_id IN ({marks})", chunk).fetchall()
            for row_node, head in rows:
                blobs[int(row_node)] = [head]
            rows = self._conn.execute(
                f"SELECT node_id, page_no, payload FROM pages "
                f"WHERE node_id IN ({marks}) ORDER BY node_id, page_no",
                chunk).fetchall()
            for row_node, _, payload in rows:
                blobs[int(row_node)].append(payload)
        joined: List[bytes] = []
        for node_id in misses:
            payloads = blobs.get(node_id)
            if payloads is None:
                raise SharingError(f"unknown node id {node_id}")
            joined.append(join_pages(payloads))
        # Called through the module global on purpose: profilers wrap it there.
        rows64 = decode_coefficients_batch(joined) if as_rows else None
        if rows64 is None:
            for node_id, blob in zip(misses, joined):
                share = self._decode_share(blob)
                entries[node_id] = share
                self._cache_put(node_id, share)
            return entries, False
        for node_id, row in zip(misses, rows64):
            entries[node_id] = row
            self._cache_put(node_id, row)
        return entries, True

    @staticmethod
    def _row_matrix(node_ids: Sequence[int], entries: Dict[int, Any],
                    width: int = 0):
        """Mixed row/Polynomial entries as one zero-padded int64 matrix.

        At least ``width`` columns wide (wider if an entry is longer);
        ``None`` when a cached polynomial's coefficient exceeds int64.
        """
        np = numpy_or_none()
        longest = width
        for entry in entries.values():
            length = (len(entry.coeffs) if isinstance(entry, Polynomial)
                      else int(entry.size))
            if length > longest:
                longest = length
        matrix = np.zeros((len(node_ids), longest), dtype=np.int64)
        try:
            for index, node_id in enumerate(node_ids):
                entry = entries[node_id]
                if isinstance(entry, Polynomial):
                    if entry.coeffs:
                        matrix[index, :len(entry.coeffs)] = entry.coeffs
                elif entry.size:
                    matrix[index, :entry.size] = entry
        except OverflowError:
            return None
        return matrix

    def _evaluate_rows_locked(self, vec: VecFpKernel,
                              node_ids: Sequence[int],
                              entries: Dict[int, Any],
                              point: int) -> List[int]:
        """One padded-matrix evaluation over mixed row/Polynomial entries.

        Mirrors :meth:`EncodingRing.evaluate_many` exactly: same point
        coercion, same final reduction — the property suite asserts the
        results bit-identical to the generic path.
        """
        ring = self.ring
        matrix = self._row_matrix(node_ids, entries)
        coerced = ring.coefficient_ring.coerce(point)
        values = vec.evaluate_matrix(matrix, coerced)
        modulus = ring.evaluation_modulus(point)
        if modulus is None:
            return values
        return [value % modulus for value in values]

    def __contains__(self, node_id: int) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM nodes WHERE node_id = ?", (node_id,)).fetchone()
        return row is not None

    def bind_metrics(self, metrics: Any, document_id: str) -> None:
        """Bind instruments, back-reporting the open-time recovery outcome.

        A store that drained a legacy log did so *before* it was hosted;
        recording it at bind time means the event still shows up in
        ``store_recovery_total`` for operators.
        """
        super().bind_metrics(metrics, document_id)
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
        durable.  A batch that raises before its ``COMMIT`` (a failed
        check, an I/O error, the fault hook) is rolled back whole, so a
        surviving process never observes a torn batch either.  After the
        commit the batch is folded into the share LRU and the sibling-order
        counter; after any failure both are rebuilt from disk instead.
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
                    self._cache.pop(node_id, None)
                elif added or node_id in self._cache:
                    self._cache_put(node_id, share)
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
        next_ord = self._next_ord
        for step, op in enumerate(ops, start=1):
            kind = op[0]
            if kind in ("add", "replace"):
                # ("add", id, parent, share) or ("replace", id, share)
                node_id, share = op[1], op[-1]
                share = (share if self.ring.is_canonical(share)
                         else self.ring.reduce(share))
                if kind == "add":
                    _upsert_node(self._conn, node_id, op[2], next_ord)
                    next_ord += 1
                if not _write_node_pages(self._conn, node_id,
                                         self._encode_share(share),
                                         self.page_bytes):
                    raise SharingError(f"unknown node id {node_id}")
                written.append((node_id, share, kind == "add"))
            elif kind == "remove_subtree":
                _, node_id, expected = op
                removed = self.subtree_ids(node_id)
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
        """Drop the share LRU and re-read the sibling-order counter."""
        self._cache.clear()
        self._next_ord = self._max_ord() + 1

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


def as_share_store(source: Any) -> ShareStore:
    """Coerce a tree or store into a :class:`ShareStore` (stores pass through)."""
    if isinstance(source, ShareStore):
        return source
    if isinstance(source, ServerShareTree):
        return InMemoryShareStore(source)
    raise ProtocolError(f"cannot build a share store from {type(source).__name__}")


def open_share_store(path: str) -> ShareStore:
    """Open a server file written by either backend, sniffing the format.

    SQLite files are recognised by their magic header and opened lazily;
    anything else is treated as the JSON format of
    :func:`repro.net.storage.load_share_tree` (fully materialised).
    Empty, truncated or unrecognisable files are rejected with a
    :class:`~repro.errors.ProtocolError` naming the path and the sniffed
    header instead of dying inside a decoder.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_SQLITE_MAGIC))
    if magic == _SQLITE_MAGIC:
        return SQLiteShareStore(path)
    if not magic:
        raise ProtocolError(
            f"share store {path!r} is empty — neither a SQLite store nor a "
            "JSON share tree")
    if _SQLITE_MAGIC.startswith(magic):
        raise ProtocolError(
            f"share store {path!r} is a truncated SQLite file "
            f"(header {magic!r}, {len(magic)} of {len(_SQLITE_MAGIC)} magic "
            "bytes); restore it from a backup")
    from .storage import load_share_tree

    try:
        return InMemoryShareStore(load_share_tree(path))
    except ProtocolError:
        raise
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(
            f"cannot open share store {path!r}: header {magic!r} is not "
            f"SQLite and the JSON loader failed ({exc})") from exc


# -- legacy v1 format -----------------------------------------------------------------

def write_v1_share_store(path: str, tree: ServerShareTree) -> int:
    """Write a legacy ``share-store-sqlite-v1`` file (JSON coefficient rows).

    Kept so migration tooling, tests and the BENCH_4 size comparison can
    fabricate the PR-2 on-disk format; new stores are always v2.  Returns
    the file size in bytes.
    """
    from .storage import ring_to_dict

    if os.path.exists(path):
        os.remove(path)
    conn = sqlite3.connect(path)
    try:
        with conn:
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
            conn.execute("CREATE TABLE nodes (node_id INTEGER PRIMARY KEY, "
                         "parent INTEGER, coefficients TEXT NOT NULL)")
            conn.execute("CREATE INDEX nodes_parent ON nodes (parent)")
            conn.execute("INSERT INTO meta (key, value) VALUES ('format', ?)",
                         (LEGACY_SQLITE_STORE_FORMAT,))
            conn.execute("INSERT INTO meta (key, value) VALUES ('ring', ?)",
                         (json.dumps(ring_to_dict(tree.ring),
                                     separators=(",", ":")),))
            for node_id in SQLiteShareStore._preorder(tree):
                conn.execute(
                    "INSERT INTO nodes (node_id, parent, coefficients) "
                    "VALUES (?, ?, ?)",
                    (node_id, tree.parent_id(node_id),
                     json.dumps([int(c) for c in tree.share_of(node_id).coeffs],
                                separators=(",", ":"))))
    finally:
        conn.close()
    return os.path.getsize(path)


def migrate_share_store(path: str,
                        page_bytes: int = DEFAULT_PAGE_BYTES) -> Dict[str, int]:
    """Migrate a legacy v1 store file to the v2 format, in place and lossless.

    The v2 file is built alongside the original and atomically
    :func:`os.replace`-d over it, so a crash mid-migration leaves the v1
    file untouched.  Returns ``{"nodes", "before_bytes", "after_bytes"}``.
    A file already in v2 format is left alone (``nodes`` still reported).
    """
    from .storage import ring_from_dict

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
