"""Splitting the polynomial tree into client and server shares (§4.2).

The client builds a tree with the same structure as the encoded document
but with *random* polynomials, and hands the server the difference tree:
``server_share = polynomial - client_share`` per node, so the two shares
sum to the original polynomial (figures 3 and 4).

Because the client polynomials come from a seeded deterministic PRG
(:class:`repro.prg.DeterministicPRG`), the client does not need to store
its tree at all — it keeps the seed and regenerates the share of any node
on demand ("only the seed has to be stored on the client").

The server's half is a :class:`ShareStore`: the read and write surface
that the serving engine and the update planner use.  Two stores implement
it: :class:`ServerShareTree` keeps everything in process memory, and
:class:`repro.net.store.SQLiteShareStore` keeps the shares in one durable
file.
"""

from __future__ import annotations

import abc
import contextlib
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from itertools import compress, islice
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..algebra.kernels import _trim
from ..algebra.poly import Polynomial
from ..algebra.quotient import EncodingRing, FpQuotientRing
from ..algebra.vkernels import VecFpKernel, fits_native_width, numpy_or_none
from ..errors import ProtocolError, SharingError
from ..obs.metrics import Counter
from ..prg import DeterministicPRG, XofStream
from ..sharing.additive import combine_additive
from .encoder import MATERIALISE_LOCK, PolynomialTree

__all__ = ["ClientShareGenerator", "ShareRowCache", "TreeStructure",
           "CoefficientRows", "ShareStore", "StoreTransaction",
           "ServerShareTree", "share_tree", "reconstruct_tree"]

_SHARE_LABEL = "node-share"

#: Uncached coefficients (misses times ``p - 1``) below which a batch
#: derives node by node: the bulk derivation's fixed array cost (~18 us)
#: outweighs its saving there.  Measured crossovers on a 2-vCPU x86 host
#: (median of 600 cold batches): 2 nodes at p = 53, 1 at p = 251 and at
#: p = 1021.
BULK_MIN_COEFFS = 100

#: Largest block :meth:`ClientShareGenerator.iter_shares` derives at once,
#: in coefficients (2 MiB of int64), so a whole-tree pass holds one bounded
#: block whatever the tree's size and the prime.
BULK_BLOCK_COEFFS = 1 << 18


def _row_kernel(ring: EncodingRing) -> Optional[VecFpKernel]:
    """The vectorized kernel when ``ring``'s shares take the row form
    (int64 coefficient blocks), else None."""
    if not isinstance(ring, FpQuotientRing):
        return None
    kernel = ring.field.kernel()
    return kernel if isinstance(kernel, VecFpKernel) else None


class ClientShareGenerator:
    """Regenerates the client's random share for any node from the seed.

    Shares are deterministic in ``(seed, node_id)``, so an LRU cache makes
    repeated queries (which re-derive the same PRG share polynomials on
    every descent and verification) cost one derivation per node instead of
    one per use.  ``cache_size=0`` disables the cache.

    On the vectorized kernel tier (an ``F_p`` ring whose field dispatches to
    :class:`~repro.algebra.vkernels.VecFpKernel`, the rule
    :meth:`FpQuotientRing.evaluation_domain` uses) batches are served as
    int64 coefficient rows: the uncached nodes of a batch are derived
    together (:meth:`XofStream.fork_residues`, bit-identical to
    :meth:`share_for`) and evaluated or verified as one block.  The cache
    is a :class:`ShareRowCache`: a batch's cached rows come out in one
    gather, and :meth:`share_for` builds its polynomial from the row.
    """

    def __init__(self, ring: EncodingRing, prg: DeterministicPRG,
                 cache_size: int = 1024) -> None:
        self.ring = ring
        self.prg = prg
        self.cache_size = cache_size
        self._cache = ShareRowCache(cache_size, ring)
        # Shares are deterministic, so concurrent sessions may safely share
        # one generator; the lock guards the cache, never a derivation.
        self._cache_lock = threading.Lock()
        # Keyed SHAKE-256 root for shares: a node's stream is a copy of its
        # absorbed key state (no per-node seed derivation or key schedule).
        self._share_root = XofStream(prg.derive(_SHARE_LABEL))

    @property
    def cache_hits(self) -> int:
        """Shares served from the cache so far."""
        return self._cache.hits.value

    @property
    def cache_misses(self) -> int:
        """Shares derived because the cache lacked them (once per id per call)."""
        return self._cache.misses.value

    def share_for(self, node_id: int) -> Polynomial:
        """The client's share polynomial for ``node_id`` (deterministic)."""
        with self._cache_lock:
            share = self._cache.get(node_id)
        if share is None:
            share = self.ring.random_element_from_stream(
                self._share_root.fork(node_id))
            with self._cache_lock:
                self._cache.put(node_id, share)
        return share

    def evaluate(self, node_id: int, point: int) -> int:
        """Evaluate the client's share of ``node_id`` at a query point."""
        return self.ring.evaluate(self.share_for(node_id), point)

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        """Evaluate the client's shares of many nodes at one point."""
        return dict(zip(node_ids, self.evaluate_points(node_ids, [point])[point]))

    def evaluate_points(self, node_ids: Sequence[int],
                        points: Sequence[int]) -> Dict[int, List[int]]:
        """Share values of ``node_ids`` at every point, in ``node_ids`` order.

        The shares are gathered once for all points: one row block
        evaluated by :meth:`VecFpKernel.evaluate_matrix` per point on the
        vectorized tier, one list of polynomials otherwise.
        """
        ring = self.ring
        kernel = _row_kernel(self.ring)
        if kernel is None or not node_ids:
            shares = [self.share_for(node_id) for node_id in node_ids]
            return {point: ring.evaluate_many(shares, point) for point in points}
        rows = self._rows(node_ids)
        field = ring.coefficient_ring
        return {point: kernel.evaluate_matrix(rows, field.coerce(point))
                for point in points}

    def shares_for(self, node_ids: Iterable[int]) -> Dict[int, Polynomial]:
        """Client shares for several nodes at once, keyed by node id."""
        return dict(self.iter_shares(dict.fromkeys(node_ids)))

    def iter_shares(self, node_ids: Iterable[int]
                    ) -> Iterator[Tuple[int, Polynomial]]:
        """``(node_id, share_for(node_id))`` for each of ``node_ids``, in order.

        On the vectorized tier the uncached ones are derived in bulk, one
        block of at most :data:`BULK_BLOCK_COEFFS` coefficients at a time,
        so a pass over a whole tree (outsourcing, reconstruction, share
        refresh) never holds more than one such block.
        """
        if _row_kernel(self.ring) is None:
            for node_id in node_ids:
                yield node_id, self.share_for(node_id)
            return
        ring = self.ring
        remaining = iter(node_ids)
        step = max(1, BULK_BLOCK_COEFFS // ring.degree_bound)
        while True:
            chunk = list(islice(remaining, step))
            if not chunk:
                return
            for node_id, row in zip(chunk, self._rows(chunk)):
                yield node_id, ring.element_from_row(row)

    def share_rows(self, node_ids: Sequence[int]):
        """The shares of ``node_ids`` as one ``(len, p - 1)`` int64 block.

        Row ``i`` is ``share_for(node_ids[i]).coeffs`` zero-padded to the
        degree bound.  ``None`` off the vectorized tier, where callers use
        :meth:`share_for` per node.
        """
        if _row_kernel(self.ring) is None:
            return None
        return self._rows(node_ids)

    def _rows(self, node_ids: Sequence[int]):
        """:meth:`share_rows` on the vectorized tier: hits gathered under
        the cache lock, misses derived outside it."""
        return self._cache.fetch(node_ids, self._derive_rows, self._cache_lock)

    def _derive_rows(self, node_ids: List[int]):
        """Rows of uncached shares: one bulk block, or node by node when
        they hold fewer than :data:`BULK_MIN_COEFFS` coefficients."""
        ring = self.ring
        if len(node_ids) * ring.degree_bound >= BULK_MIN_COEFFS:
            return ring.random_rows_from_forks(self._share_root, node_ids)
        np = numpy_or_none()
        rows = np.zeros((len(node_ids), ring.degree_bound), dtype=np.int64)
        for row, node_id in zip(rows, node_ids):
            coeffs = ring.random_element_from_stream(
                self._share_root.fork(node_id)).coeffs
            row[:len(coeffs)] = coeffs
        return rows


class TreeStructure:
    """The public shape of a share tree: parent links and ordered child lists.

    The server knows this shape by design: §4.3 descends it, and the
    leakage audit counts it as public.  Every node has a parent entry
    (``None`` for the root); only nodes with children have a child list,
    kept in insertion order, which is document order.  Reads hand out
    copies, so a caller that edits a returned list never edits the tree.
    """

    __slots__ = ("_parents", "_children", "root_id")

    def __init__(self) -> None:
        self._parents: Dict[int, Optional[int]] = {}
        self._children: Dict[int, List[int]] = {}
        #: Identifier of the root node (``None`` while the tree is empty).
        self.root_id: Optional[int] = None

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[int, Optional[int]]]
                  ) -> "TreeStructure":
        """Bulk-load ``(node_id, parent_id)`` rows given in sibling order.

        Unchecked, for rows a store wrote through :meth:`add`: parents may
        come after their children, and the last parentless row is the root.
        """
        tree = cls()
        parents = tree._parents
        children = tree._children
        for node_id, parent_id in rows:
            parents[node_id] = parent_id
            if parent_id is None:
                tree.root_id = node_id
            elif parent_id in children:
                children[parent_id].append(node_id)
            else:
                children[parent_id] = [node_id]
        return tree

    # -- mutations --------------------------------------------------------------
    def add(self, node_id: int, parent_id: Optional[int]) -> None:
        """Attach ``node_id`` as the last child of ``parent_id`` (or as root)."""
        parents = self._parents
        if node_id in parents:
            raise SharingError(f"duplicate node id {node_id}")
        if parent_id is None:
            if self.root_id is not None:
                raise SharingError("the share tree already has a root")
            self.root_id = node_id
        elif parent_id not in parents:
            raise SharingError(f"parent {parent_id} of node {node_id} is unknown")
        else:
            self._children.setdefault(parent_id, []).append(node_id)
        parents[node_id] = parent_id

    def remove_subtree(self, node_id: int) -> List[int]:
        """Detach ``node_id`` and every descendant; returns :meth:`subtree`.

        The root cannot be removed (the tree would lose its anchor).
        """
        parent_id = self.parent(node_id)
        if parent_id is None:
            raise SharingError("the root node cannot be removed")
        removed = self.subtree(node_id)
        for current in removed:
            del self._parents[current]
            self._children.pop(current, None)
        siblings = self._children[parent_id]
        siblings.remove(node_id)
        if not siblings:
            del self._children[parent_id]
        return removed

    # -- reads ------------------------------------------------------------------
    def children(self, node_id: int) -> List[int]:
        """A copy of the child list of ``node_id`` (document order)."""
        if node_id not in self._parents:
            raise SharingError(f"unknown node id {node_id}")
        return list(self._children.get(node_id, ()))

    def child_lists(self, node_ids: Iterable[int]) -> Dict[int, List[int]]:
        """Copies of the child lists of ``node_ids``; names the first unknown id."""
        parents = self._parents
        children = self._children
        lists: Dict[int, List[int]] = {}
        for node_id in node_ids:
            if node_id not in parents:
                raise SharingError(f"unknown node id {node_id}")
            lists[node_id] = list(children.get(node_id, ()))
        return lists

    def subtree(self, node_id: int) -> List[int]:
        """``node_id`` and its descendants in stack-walk order.

        A node, then its subtrees from the last child to the first.
        """
        if node_id not in self._parents:
            raise SharingError(f"unknown node id {node_id}")
        children = self._children
        ordered: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            ordered.append(current)
            stack.extend(children.get(current, ()))
        return ordered

    def parent(self, node_id: int) -> Optional[int]:
        """Parent of ``node_id`` (``None`` for the root)."""
        try:
            return self._parents[node_id]
        except KeyError:
            raise SharingError(f"unknown node id {node_id}") from None

    def depth(self, node_id: int) -> int:
        """Number of edges between ``node_id`` and the root."""
        depth = 0
        current = self.parent(node_id)
        while current is not None:
            depth += 1
            current = self._parents[current]
        return depth

    def node_ids(self) -> List[int]:
        """All node identifiers, sorted."""
        return sorted(self._parents)

    def max_node_id(self) -> Optional[int]:
        """Largest node id (``None`` for an empty tree)."""
        return max(self._parents) if self._parents else None

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._parents

    def __len__(self) -> int:
        return len(self._parents)


class ShareRowCache:
    """A bounded LRU of share polynomials keyed by node id.

    One class serves the durable store (server shares read from disk) and
    the client generator (shares derived from the seed).  When the ring
    can run on the vectorized tier (an ``F_p`` ring of native width, numpy
    present) ``width`` is ``p - 1`` and the shares are held as int64
    coefficient rows in one ``(capacity, width)`` slot matrix:
    :meth:`fetch` reads a batch's hits out with one fancy-index read and
    writes its misses in with one fancy-index write.  Otherwise ``width``
    is ``None`` and the id map holds the polynomials themselves.  Either
    way the id map is an ``OrderedDict`` in exact LRU order.  The matrix is
    allocated zeroed on the first insert, so it never takes more than
    ``capacity × width × 8`` bytes and untouched slots take no resident
    memory.

    ``hits`` counts shares served from the cache, ``misses`` the distinct
    ids a call found uncached.  Not thread-safe by itself: the store calls
    it under its own lock, and the generator hands its lock to
    :meth:`fetch`, which holds it to look up (copying the rows out) and to
    insert, but not while the misses load.
    """

    __slots__ = ("capacity", "width", "hits", "misses", "_ring", "_order",
                 "_free", "_slots")

    def __init__(self, capacity: int, ring: EncodingRing) -> None:
        self.capacity = max(0, int(capacity))
        #: Row length of the slot matrix; ``None`` when polynomials are kept.
        self.width: Optional[int] = (
            ring.degree_bound if isinstance(ring, FpQuotientRing)
            and numpy_or_none() is not None and fits_native_width(ring.p)
            else None)
        self.hits = Counter()
        self.misses = Counter()
        self._ring = ring
        # node id -> slot (row form) or polynomial, least recent first.
        self._order: "OrderedDict[int, Any]" = OrderedDict()
        # Slots freed by discard(); slots from len(_order) up are unused.
        self._free: List[int] = []
        self._slots = None

    def get(self, node_id: int) -> Optional[Polynomial]:
        """The cached share of ``node_id`` (now the most recent), or ``None``."""
        entry = self._order.get(node_id)
        if entry is None:
            self.misses.inc()
            return None
        self._order.move_to_end(node_id)
        self.hits.inc()
        if self.width is None:
            return entry
        return self._ring.element_from_row(self._slots[entry])

    def put(self, node_id: int, share: Polynomial) -> None:
        """Cache ``share``: in place when ``node_id`` is cached, else as the
        most recent entry, evicting the least recent one when full."""
        if not self.capacity:
            return
        entry = self._order.get(node_id)
        if entry is None:
            entry = self._take(1)[0]
        if self.width is None:
            self._order[node_id] = share
            return
        self._order[node_id] = entry
        row = self._matrix()[entry]
        coeffs = share.coeffs
        row[:len(coeffs)] = coeffs
        row[len(coeffs):] = 0

    def fetch(self, node_ids: Sequence[int],
              load: Callable[[List[int]], Any], lock: Any = None) -> Any:
        """The shares of ``node_ids``, the uncached ones loaded in one call.

        A ``(len(node_ids), width)`` int64 block in row form, else a list
        of polynomials.  Cached ids are refreshed in the order given.
        ``load`` receives the distinct uncached ids in first-seen order
        and returns their shares in the same form; the last ``capacity``
        of them are cached, except ids another caller cached meanwhile.
        ``lock``, when given, is held to look up and to insert, but not
        around ``load``.
        """
        guard = contextlib.nullcontext() if lock is None else lock
        with guard:
            order = self._order
            entries = list(map(order.get, node_ids))
            if None not in entries:
                self._refresh(node_ids)
                self.hits.inc(len(entries))
                return self._gather(entries)
            cached = [entry is not None for entry in entries]
            hit_at = list(compress(range(len(entries)), cached))
            self._refresh(compress(node_ids, cached))
            found = self._gather(list(compress(entries, cached)))
            self.hits.inc(len(hit_at))
            miss_at = [index for index, hit in enumerate(cached) if not hit]
            missing = list(dict.fromkeys([node_ids[index] for index in miss_at]))
            self.misses.inc(len(missing))
        loaded = load(missing)
        with guard:
            self._insert(missing, loaded)
        sources: Any = range(len(missing))
        if len(missing) != len(miss_at):
            position = {node_id: index for index, node_id in enumerate(missing)}
            sources = [position[node_ids[index]] for index in miss_at]
        if self.width is None:
            fetched = [None] * len(node_ids)
            for index, share in zip(hit_at, found):
                fetched[index] = share
            for index, source in zip(miss_at, sources):
                fetched[index] = loaded[source]
            return fetched
        if not hit_at and len(missing) == len(miss_at):
            return loaded
        np = numpy_or_none()
        fetched = np.empty((len(node_ids), self.width), dtype=np.int64)
        if hit_at:
            fetched[hit_at] = found
        fetched[miss_at] = loaded if isinstance(sources, range) else loaded[sources]
        return fetched

    def discard(self, node_id: int) -> None:
        """Forget ``node_id`` if it is cached."""
        entry = self._order.pop(node_id, None)
        if entry is not None and self.width is not None:
            self._free.append(entry)

    def clear(self) -> None:
        """Forget every share (the counts stay)."""
        self._order.clear()
        self._free.clear()

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._order

    def __len__(self) -> int:
        return len(self._order)

    def _refresh(self, node_ids: Iterable[int]) -> None:
        """Make cached ``node_ids`` the most recent entries, in order."""
        move = self._order.move_to_end
        for node_id in node_ids:
            move(node_id)

    def _gather(self, entries: List[Any]) -> Any:
        """Cached entries as shares: one fancy-index read in row form."""
        if self.width is None:
            return entries
        if not entries:
            np = numpy_or_none()
            return np.empty((0, self.width), dtype=np.int64)
        return self._slots[entries]

    def _insert(self, node_ids: List[int], loaded: Any) -> None:
        """Cache the last ``capacity`` of ``node_ids`` (distinct) that are
        not cached yet, in order, with one matrix write in row form."""
        start = max(0, len(node_ids) - self.capacity)
        order = self._order
        kept: Any = range(start, len(node_ids))
        if any(map(order.__contains__, node_ids[start:])):
            kept = [index for index in kept if node_ids[index] not in order]
        if not kept:
            return
        slots = self._take(len(kept))
        if self.width is None:
            order.update((node_ids[index], loaded[index]) for index in kept)
            return
        order.update(zip([node_ids[index] for index in kept], slots))
        self._matrix()[slots] = (loaded[start:] if isinstance(kept, range)
                                 else loaded[kept])

    def _take(self, count: int) -> List[int]:
        """Slots for ``count`` new entries (at most ``capacity``), evicting
        the least recent entries to make room."""
        order = self._order
        popitem = order.popitem
        taken = [popitem(last=False)[1]
                 for _ in range(len(order) + count - self.capacity)]
        free = self._free
        reused = min(len(free), count - len(taken))
        if reused:
            taken.extend(free[-reused:])
            del free[-reused:]
        top = len(order) + len(free) + len(taken)
        taken.extend(range(top, top + count - len(taken)))
        return taken

    def _matrix(self):
        if self._slots is None:
            np = numpy_or_none()
            self._slots = np.zeros((self.capacity, self.width), dtype=np.int64)
        return self._slots


class CoefficientRows(Mapping):
    """Share coefficient rows keyed by node id, held as one row-major block.

    ``ids`` is the row order and ``width`` the row length.  ``matrix`` is
    the whole block as one ``(len(ids), width)`` int64 ndarray when the
    producer had one (numpy present, every value within int64), else
    ``None`` and the rows are kept as lists of Python ints.  Indexing
    returns one row as a list of Python ints either way, so nothing that
    builds a :class:`Polynomial` from a row ever sees a numpy scalar.  The
    durable store serves fetches in this form, the wire decodes into it,
    and FULL verification hands ``matrix`` to the evaluation domain
    whole.
    """

    __slots__ = ("ids", "width", "matrix", "_rows", "_index")

    def __init__(self, ids: Sequence[int], width: int, matrix: Any = None,
                 rows: Optional[List[List[int]]] = None) -> None:
        self.ids = list(ids)
        self.width = int(width)
        self.matrix = matrix
        self._rows = rows
        self._index: Optional[Dict[int, int]] = None

    def constant_terms(self) -> List[int]:
        """The first coefficient of every row, in ``ids`` order."""
        if self.matrix is not None:
            return self.matrix[:, 0].tolist()
        return [row[0] for row in self._rows]

    def keyed(self, ids: Sequence[int]) -> "CoefficientRows":
        """The same rows, in the same order, keyed by ``ids`` (one per row)."""
        return CoefficientRows(ids, self.width, self.matrix, self._rows)

    def flat(self) -> Any:
        """Every coefficient, row after row: the matrix's flat view, or a list."""
        if self.matrix is not None:
            return self.matrix.ravel()
        return [value for row in self._rows for value in row]

    def matrix_rows(self, node_ids: Sequence[int]) -> Any:
        """The rows of ``node_ids`` (each held here) as one int64 block,
        in that order; for blocks whose ``matrix`` is set."""
        position = self._position()
        return self.matrix[[position[node_id] for node_id in node_ids]]

    def _position(self) -> Dict[int, int]:
        if self._index is None:
            self._index = {node_id: index
                           for index, node_id in enumerate(self.ids)}
        return self._index

    def __getitem__(self, node_id: int) -> List[int]:
        index = self._position()[node_id]
        if self._rows is not None:
            return self._rows[index]
        return self.matrix[index].tolist()

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._position()

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"<CoefficientRows rows={len(self.ids)} width={self.width}>"


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
        id.  The base implementation loops over :meth:`child_ids`; stores
        that hold a :class:`~repro.core.share_tree.TreeStructure` answer
        from it.  The lists are the caller's to change.
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
        inserted node.  Stores that hold their structure override this.
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


class ServerShareTree(ShareStore):
    """The server's half of the shared data: public structure + share polynomials.

    This is everything the untrusted server stores.  It intentionally has no
    reference to the tag mapping, the client seed or the original document.
    It is the in-memory :class:`ShareStore`: a server hosts it as it is,
    and its mutation batches (:meth:`ShareStore.transaction`) apply in one
    go, with no durable state to tear.

    A tree built by :meth:`from_rows` holds its shares as one int64
    coefficient block and builds the share polynomials on the first read
    of :attr:`shares` (every share read goes through it), under a lock, so
    concurrent readers build them once; a mutation reads them first.
    Structural reads never build them.
    """

    def __init__(self, ring: EncodingRing) -> None:
        self.ring = ring
        self._shares: Dict[int, Polynomial] = {}
        #: The public structure (parents and ordered child lists).
        self.structure = TreeStructure()
        # The int64 share block until the polynomials are built.
        self._rows: Any = None

    @classmethod
    def from_rows(cls, ring: EncodingRing, structure: TreeStructure,
                  block: Any) -> "ServerShareTree":
        """A tree of ``structure`` whose node ``i`` has the canonical share
        coefficients ``block[i]`` (int64, zero-padded to the degree bound).
        The structure's ids must be its pre-order positions
        ``0 .. len(block) - 1``, as :func:`encode_element` numbers nodes."""
        tree = cls(ring)
        tree.structure = structure
        tree._rows = block
        return tree

    @property
    def shares(self) -> Dict[int, Polynomial]:
        """Share polynomials by node id (built on first use for row-backed trees)."""
        if self._rows is not None:
            self._materialise()
        return self._shares

    def share_rows(self) -> Any:
        """The int64 share block of a row-backed tree whose polynomials are
        not built yet (row ``i`` is node ``i``), else ``None``."""
        return self._rows

    def _materialise(self) -> None:
        with MATERIALISE_LOCK:
            block = self._rows
            if block is None:
                return
            field = self.ring.coefficient_ring
            shares: Dict[int, Polynomial] = {}
            step = max(1, BULK_BLOCK_COEFFS // block.shape[1])
            for start in range(0, len(block), step):
                for node_id, coeffs in enumerate(
                        block[start:start + step].tolist(), start):
                    shares[node_id] = Polynomial._from_canonical(
                        _trim(coeffs), field)
            self._shares = shares
            self._rows = None

    @property
    def root_id(self) -> Optional[int]:
        """Identifier of the root node (``None`` for an empty tree)."""
        return self.structure.root_id

    # -- construction -----------------------------------------------------------
    def add_node(self, node_id: int, parent_id: Optional[int],
                 share: Polynomial) -> None:
        """Insert one node's share; parents must precede children."""
        shares = self.shares
        # Shares produced by ring operations are already canonical; only
        # reduce foreign polynomials (e.g. deserialized or hand-built ones).
        share = share if self.ring.is_canonical(share) else self.ring.reduce(share)
        self.structure.add(node_id, parent_id)
        shares[node_id] = share

    def replace_share(self, node_id: int, share: Polynomial) -> None:
        """Overwrite the share of an existing node (dynamic updates)."""
        shares = self.shares
        if node_id not in shares:
            raise SharingError(f"unknown node id {node_id}")
        shares[node_id] = (share if self.ring.is_canonical(share)
                           else self.ring.reduce(share))

    def remove_subtree(self, node_id: int) -> List[int]:
        """Remove ``node_id`` and every descendant; returns the removed ids.

        The root cannot be removed (the tree would lose its anchor).
        """
        shares = self.shares
        removed = self.structure.remove_subtree(node_id)
        for current in removed:
            del shares[current]
        return removed

    # -- queries the server can answer --------------------------------------------
    def share_of(self, node_id: int) -> Polynomial:
        """The stored share polynomial of a node."""
        try:
            return self.shares[node_id]
        except KeyError:
            raise SharingError(f"unknown node id {node_id}") from None

    def coefficient_rows(self, node_ids: Sequence[int]) -> CoefficientRows:
        """Share coefficients of many nodes, as the wire carries them.

        On the vectorized tier the rows are one ``(n, p - 1)`` int64
        block filled from the polynomials.  The other tiers build one
        list per node, as the base class does.
        """
        if _row_kernel(self.ring) is None:
            return super().coefficient_rows(node_ids)
        node_ids = list(dict.fromkeys(node_ids))
        shares = [self.share_of(node_id) for node_id in node_ids]
        width = self.ring.degree_bound
        matrix = numpy_or_none().zeros((len(node_ids), width), dtype="int64")
        for row, share in zip(matrix, shares):
            row[:len(share.coeffs)] = share.coeffs
        return CoefficientRows(node_ids, width, matrix=matrix)

    def child_ids(self, node_id: int) -> List[int]:
        """Public child list of a node."""
        return self.structure.children(node_id)

    def child_lists(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        """Copies of the child lists of ``node_ids``, from the structure."""
        return self.structure.child_lists(node_ids)

    def subtree_ids(self, node_id: int) -> List[int]:
        """``node_id`` and its descendants, from the structure."""
        return self.structure.subtree(node_id)

    def parent_id(self, node_id: int) -> Optional[int]:
        """Public parent of a node."""
        return self.structure.parent(node_id)

    def node_ids(self) -> List[int]:
        """All node identifiers."""
        return self.structure.node_ids()

    def max_node_id(self) -> Optional[int]:
        """Largest stored node id (``None`` for an empty tree).

        One pass over the id set; update batches call this once and then
        count locally instead of rescanning per inserted node.
        """
        return self.structure.max_node_id()

    def node_count(self) -> int:
        """Number of nodes stored."""
        return len(self.structure)

    def depth_of(self, node_id: int) -> int:
        """Depth computed from the public structure."""
        return self.structure.depth(node_id)

    def storage_bits(self) -> int:
        """Measured storage of all share polynomials (the server-side cost, §5)."""
        return sum(self.ring.element_storage_bits(share)
                   for share in self.shares.values())

    def __len__(self) -> int:
        return len(self.structure)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.structure

    def __repr__(self) -> str:
        return f"<ServerShareTree ring={self.ring.name} nodes={len(self)}>"


def share_tree(tree: PolynomialTree, prg: DeterministicPRG,
               generator: Optional[ClientShareGenerator] = None,
               ) -> Tuple[ClientShareGenerator, ServerShareTree]:
    """Split an encoded tree into the client generator and the server tree.

    Passing an existing ``generator`` (e.g. the one owned by a
    :class:`~repro.core.scheme.ClientContext`) leaves its share cache warm
    for the queries that follow outsourcing.

    A row-backed tree (:meth:`PolynomialTree.from_rows`) on the vectorized
    tier is split as arrays into a row-backed server tree: the client rows
    come from the generator's bulk path in :meth:`iter_shares`' blocks of
    at most :data:`BULK_BLOCK_COEFFS` coefficients, and each block of
    server rows is ``(coefficients - client) mod p``, written in place.
    """
    generator = generator or ClientShareGenerator(tree.ring, prg)
    form = tree.row_form()
    if form is not None and _row_kernel(generator.ring) is not None:
        return generator, _split_rows(tree.ring, form, generator)
    server = ServerShareTree(tree.ring)
    node_ids = (node.node_id for node in tree.iter_preorder())
    for node_id, client_share in generator.iter_shares(node_ids):
        node = tree.nodes[node_id]
        server.add_node(node_id, node.parent_id,
                        tree.ring.sub(node.polynomial, client_share))
    return generator, server


def _split_rows(ring: FpQuotientRing, form: Tuple[List[Optional[int]], List[int], Any],
                generator: ClientShareGenerator) -> ServerShareTree:
    """The row-backed server tree of a row-backed plaintext tree."""
    np = numpy_or_none()
    parents, _, block = form
    server = np.empty_like(block)
    step = max(1, BULK_BLOCK_COEFFS // ring.degree_bound)
    for start in range(0, len(block), step):
        stop = min(len(block), start + step)
        rows = server[start:stop]
        np.subtract(block[start:stop], generator._rows(list(range(start, stop))),
                    out=rows)
        rows %= ring.p
    structure = TreeStructure.from_rows(enumerate(parents))
    return ServerShareTree.from_rows(ring, structure, server)


def reconstruct_tree(client: ClientShareGenerator,
                     server: ServerShareTree) -> PolynomialTree:
    """Recombine both halves into the original polynomial tree.

    Only the client can do this (it owns the seed); used in tests and by the
    verification path of the query protocol.
    """
    if client.ring != server.ring and client.ring.name != server.ring.name:
        raise SharingError("client and server use different rings")
    tree = PolynomialTree(server.ring)
    for node_id, client_share in client.iter_shares(server.node_ids()):
        combined = combine_additive(
            server.ring, [client_share, server.share_of(node_id)])
        parent_id = server.parent_id(node_id)
        # Parents come first (add_node requires it), so their depth is known.
        depth = tree.nodes[parent_id].depth + 1 if parent_id in tree.nodes else 0
        tree.add_node(node_id, parent_id, combined, depth)
    return tree
