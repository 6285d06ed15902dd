"""The transport-agnostic serving engine and multi-document tenancy.

A production deployment of the scheme hosts many outsourced documents for
many tenants in one server process.  :class:`DocumentRegistry` owns that
mapping: each :class:`HostedDocument` bundles a pluggable
:class:`~repro.core.share_tree.ShareStore` with a per-document lock (so
concurrent sessions on *different* documents never contend, and concurrent
sessions on the *same* document serialise store access) and its own
:class:`ServerObservations` ledger — the honest-but-curious view is
accounted per tenant, exactly as the leakage analysis of the source paper
requires.

:class:`ServingCore` is the engine itself: it answers every protocol
message of :mod:`repro.net.messages` against the registry and knows
nothing about transports.  Two share it unchanged:

* the in-process :class:`~repro.net.server.SearchServer` (a thin facade
  kept for the historical API),
* the socket server :class:`~repro.net.server.ThreadedSearchServer`
  (thread per session), which funnels concurrent frontier requests into
  :meth:`ServingCore.frontier_batch` — one lock acquisition and one
  batched store pass for all the requests that queued together, instead
  of one per session.

The registry is the architectural seam future sharding PRs plug into: a
shard is a registry subset, and a distributed deployment routes
``document_id`` to a registry replica.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.query import ServerObservations
from ..core.share_tree import CoefficientRows, ShareStore
from ..errors import (
    ProtocolError,
    ReproError,
    ServerBusyError,
    SharingError,
    TransientServerError,
    UpdateConflictError,
)
from ..obs import FairShareAdmission, MetricsRegistry
from .messages import (
    SUPPORTED_PROTOCOL_VERSIONS,
    Acknowledgement,
    BlobRequest,
    BlobResponse,
    BusyResponse,
    ConflictResponse,
    ErrorResponse,
    FrontierRequest,
    FrontierResponse,
    HealthRequest,
    HealthResponse,
    HelloRequest,
    HelloResponse,
    Message,
    PruneNotice,
    StatsRequest,
    StatsResponse,
    UpdateRequest,
    UpdateResponse,
    decode_message,
    frontier_layout,
)

__all__ = [
    "DEFAULT_DOCUMENT",
    "ServerObservations",
    "HostedDocument",
    "DocumentRegistry",
    "ServingCore",
]

#: Document id used when a client does not name one.
DEFAULT_DOCUMENT = "default"


class _UpdateConflict(Exception):
    """Internal: abort an update transaction that turned out conflicting.

    Raised *inside* the ``with store.transaction()`` block so the buffered
    batch is discarded without touching the store (application happens on
    clean exit only), then translated into a
    :class:`~repro.net.messages.ConflictResponse`.  Deliberately not a
    :class:`~repro.errors.ReproError`: it must never escape the handler
    as an in-band error.
    """

    def __init__(self, conflicts: Sequence[int]) -> None:
        super().__init__(f"conflicting nodes {sorted(conflicts)}")
        self.conflicts = [int(n) for n in conflicts]


class HostedDocument:
    """One outsourced document inside a server: store + lock + observations."""

    __slots__ = ("document_id", "store", "lock", "observations",
                 "encrypted_blob", "versions", "update_log")

    def __init__(self, document_id: str, store: ShareStore,
                 encrypted_blob: Optional[bytes] = None) -> None:
        self.document_id = document_id
        self.store = store
        #: Serialises store access; reentrant so a handler may sub-dispatch.
        self.lock = threading.RLock()
        #: What an honest-but-curious server learns about *this* tenant.
        self.observations = ServerObservations()
        #: Optional opaque blob served to download-everything clients.
        self.encrypted_blob = encrypted_blob
        #: Per-node version counters for multi-writer conflict detection.
        #: A node absent from the map is at version 0; every committed
        #: update batch bumps the versions of the nodes it added or
        #: replaced and drops the nodes it removed.  Versions live with
        #: the *hosting*, not the store file — a fresh hosting starts
        #: every node at 0, matching clients that mirror it from scratch.
        self.versions: Dict[int, int] = {}
        #: ``(request_id, operation, op_count)`` per *committed* update
        #: batch, in commit order — the audit trail the chaos suite uses
        #: to prove a replayed update applied at most once.
        self.update_log: List[Tuple[Optional[str], str, int]] = []

    @contextlib.contextmanager
    def transaction(self) -> Iterator[Any]:
        """An atomic update batch against this document, under its lock.

        Yields a :class:`~repro.core.share_tree.StoreTransaction` while holding
        the document lock for the whole batch — the same lock every
        handler and every coalesced :meth:`ServingCore.frontier_batch`
        pass acquires — so concurrent query traffic observes either the
        full pre-batch or the full post-batch store, never a half-applied
        update.  Editors that compute their own polynomials
        (:class:`~repro.core.updates.UpdatableTree`) should instead be
        constructed with ``lock=document.lock`` so their *reads* are
        covered too; this context manager is for callers that already hold
        their inputs.
        """
        with self.lock:
            with self.store.transaction() as txn:
                yield txn

    def __repr__(self) -> str:
        return (f"<HostedDocument {self.document_id!r} "
                f"nodes={self.store.node_count()}>")


class DocumentRegistry:
    """Thread-safe name → :class:`HostedDocument` mapping.

    The registry also owns the serving stack's control plane: one
    :class:`~repro.obs.MetricsRegistry` (every component of the stack
    emits into it) and one :class:`~repro.obs.FairShareAdmission`
    instance holding per-tenant token-bucket quotas, configured through
    :meth:`configure_quota` and consulted by :meth:`admit`.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 admission: Optional[FairShareAdmission] = None) -> None:
        self._documents: Dict[str, HostedDocument] = {}
        self._lock = threading.Lock()
        #: The serving stack's single metrics registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Declarative per-tenant quotas (weighted fair-share admission).
        self.quotas = admission if admission is not None else FairShareAdmission()

    def add(self, document_id: str, store: ShareStore,
            encrypted_blob: Optional[bytes] = None) -> HostedDocument:
        """Host a document's store (an in-memory tree or a durable file)."""
        if not isinstance(store, ShareStore):
            raise ProtocolError(
                f"cannot host a {type(store).__name__} as a share store")
        document = HostedDocument(str(document_id), store,
                                  encrypted_blob=encrypted_blob)
        with self._lock:
            if document.document_id in self._documents:
                raise ProtocolError(
                    f"document {document.document_id!r} is already hosted")
            self._documents[document.document_id] = document
        store.bind_metrics(self.metrics, document.document_id)
        return document

    def remove(self, document_id: str) -> HostedDocument:
        """Stop hosting a document (its store is returned, not closed)."""
        with self._lock:
            try:
                return self._documents.pop(document_id)
            except KeyError:
                raise ProtocolError(f"unknown document {document_id!r}") from None

    def get(self, document_id: str) -> HostedDocument:
        """Look up a hosted document; unknown ids are rejected loudly.

        The error names only the requested id — enumerating the hosted
        documents would leak other tenants' identifiers to the client.
        """
        with self._lock:
            document = self._documents.get(document_id)
        if document is None:
            raise ProtocolError(f"unknown document {document_id!r}")
        return document

    def resolve(self, document_id: Optional[str]) -> HostedDocument:
        """Like :meth:`get`, with defaulting for ``None``.

        ``None`` addresses :data:`DEFAULT_DOCUMENT` when hosted, or the
        single hosted document when there is exactly one — so a client
        that names no document works against any single-tenant server.
        """
        if document_id is not None:
            return self.get(document_id)
        with self._lock:
            if DEFAULT_DOCUMENT in self._documents:
                return self._documents[DEFAULT_DOCUMENT]
            if len(self._documents) == 1:
                return next(iter(self._documents.values()))
            hosted_count = len(self._documents)
        raise ProtocolError(
            "the request names no document and the server hosts "
            f"{hosted_count} documents; address one explicitly")

    def configure_quota(self, document_id: str, rate_per_s: float,
                        burst: Optional[float] = None,
                        weight: float = 1.0) -> None:
        """Give a tenant a guaranteed token-bucket quota and a fair-share weight.

        ``rate_per_s`` requests per second accrue up to ``burst`` (default:
        one second's worth).  When the tenant's own bucket is empty it may
        borrow from the shared pool configured via
        :meth:`configure_shared_pool`, weighted by ``weight``.  Requests
        over quota are shed gracefully with an in-band busy reply carrying
        a retry-after hint.
        """
        self.quotas.set_quota(str(document_id), rate_per_s, burst, weight)

    def configure_shared_pool(self, rate_per_s: float,
                              burst: Optional[float] = None) -> None:
        """Configure the shared overflow pool tenants borrow from."""
        self.quotas.set_pool(rate_per_s, burst)

    def clear_quota(self, document_id: str) -> None:
        """Remove a tenant's quota (it becomes unlimited again)."""
        self.quotas.clear_quota(str(document_id))

    def quota_ledger(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant admitted/shed/borrowed accounting from the quota layer."""
        return self.quotas.ledger()

    def admit(self, document: HostedDocument) -> None:
        """Consult the tenant's quota; raises ``ServerBusyError`` to shed.

        Shedding is graceful: the request is answered with a
        :class:`~repro.net.messages.BusyResponse` carrying the bucket's
        retry-after hint, and the session survives.
        """
        retry_after_s = self.quotas.try_admit(document.document_id)
        if retry_after_s is not None:
            raise ServerBusyError(
                f"document {document.document_id!r} is over its admission "
                "quota", retry_after_s=retry_after_s)

    def document_ids(self) -> List[str]:
        """All hosted document ids, sorted."""
        with self._lock:
            return sorted(self._documents)

    def total_storage_bits(self) -> int:
        """Aggregate share storage across every hosted document (§5)."""
        with self._lock:
            documents = list(self._documents.values())
        return sum(document.store.storage_bits() for document in documents)

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    def __contains__(self, document_id: str) -> bool:
        with self._lock:
            return document_id in self._documents

    def __repr__(self) -> str:
        return f"<DocumentRegistry documents={self.document_ids()}>"


class ServingCore:
    """Message handlers of the §4.3 server role, shared by every transport.

    The core owns the :class:`DocumentRegistry` and the aggregate
    observation ledger.  All ledgers are double-entry: the per-document
    ledger feeds tenant-level leakage audits, the aggregate
    ``observations`` the whole-server view.

    Transports call :meth:`handle` for one request at a time, or
    :meth:`frontier_batch` with every
    :class:`~repro.net.messages.FrontierRequest` that queued during the
    previous pass — the batch is answered with **one** lock acquisition
    and **one** batched ``evaluate_many`` pass per distinct query point
    for the whole batch, while staying bit-identical to handling each
    request alone (evaluations are per-share deterministic, so slicing a
    union pass equals a per-request pass).
    """

    #: Retained encoded responses per idempotency key (LRU).
    IDEMPOTENCY_CACHE_SIZE = 4096

    #: Message kinds that address the server, not a document, when
    #: unqualified — they never trigger document resolution for labels.
    CONTROL_KINDS = ("hello", "stats", "health")

    def __init__(self, registry: Optional[DocumentRegistry] = None,
                 idempotency_cache_size: int = IDEMPOTENCY_CACHE_SIZE) -> None:
        self.registry = registry if registry is not None else DocumentRegistry()
        #: The serving stack's single metrics registry (owned by the
        #: document registry so stores, transports, and the engine all
        #: emit into one place).
        self.metrics = self.registry.metrics
        self._inflight = self.metrics.gauge("server_inflight_requests")
        #: Aggregate honest-but-curious view across every hosted document.
        self.observations = ServerObservations()
        # The aggregate ledger is shared by every session and document;
        # per-document ledgers are written under the same lock because a
        # handler may update both in one go.
        self._observations_lock = threading.Lock()
        # Idempotency cache: (document_id, request_id) -> encoded response.
        # A request replayed after an ambiguous transport failure is
        # answered from here bit-identically, without touching the store
        # or the observation ledgers a second time.  Encoded bytes (not
        # message objects) are retained so the replay's wire bytes equal
        # the lost original's exactly.  Only successful responses are
        # cached — a transient failure must be re-attempted on replay.
        self._idempotency_cache_size = int(idempotency_cache_size)
        self._idempotent: "OrderedDict[Tuple[Optional[str], str], bytes]" = (
            OrderedDict())
        self._idempotent_lock = threading.Lock()

    # -- idempotency ---------------------------------------------------------------
    def _idempotent_lookup(self, message: Message) -> Optional[Message]:
        """The cached response to a replayed request, decoded, if any."""
        if message.request_id is None or not self._idempotency_cache_size:
            return None
        key = (message.document_id, message.request_id)
        with self._idempotent_lock:
            encoded = self._idempotent.get(key)
            if encoded is None:
                return None
            self._idempotent.move_to_end(key)
        return decode_message(encoded, request_bytes=message.byte_size())

    def _idempotent_store(self, message: Message, response: Message) -> None:
        if message.request_id is None or not self._idempotency_cache_size:
            return
        if isinstance(response, (ErrorResponse, BusyResponse)):
            return
        key = (message.document_id, message.request_id)
        with self._idempotent_lock:
            self._idempotent[key] = response.encode()
            self._idempotent.move_to_end(key)
            while len(self._idempotent) > self._idempotency_cache_size:
                self._idempotent.popitem(last=False)

    @staticmethod
    def error_response(exc: ReproError) -> Message:
        """The in-band reply for a failed request, preserving its class.

        Busy shedding travels as a :class:`~repro.net.messages.BusyResponse`
        with the retry-after hint, a conflict (a frontier naming removed
        nodes) as a :class:`~repro.net.messages.ConflictResponse`,
        transient failures as a *retryable*
        :class:`~repro.net.messages.ErrorResponse`, everything else as a
        plain error — so resilient clients reconstruct the exception
        taxonomy of :mod:`repro.errors` across the wire.
        """
        if isinstance(exc, ServerBusyError):
            return BusyResponse(retry_after_s=exc.retry_after_s)
        if isinstance(exc, UpdateConflictError):
            return ConflictResponse(exc.conflicts, exc.versions)
        return ErrorResponse(str(exc),
                             retryable=isinstance(exc, TransientServerError))

    # -- accounting ----------------------------------------------------------------
    def _document_label(self, message: Message) -> str:
        """The ``document`` label a request's metrics are filed under."""
        if message.document_id is not None:
            return message.document_id
        if message.kind in self.CONTROL_KINDS:
            return "-"
        try:
            return self.registry.resolve(None).document_id
        except ReproError:
            return DEFAULT_DOCUMENT

    def _request_admitted(self, kind: str, document: str) -> None:
        self.metrics.counter("server_requests_total",
                             document=document, kind=kind).inc()
        self._inflight.inc()

    def _request_finished(self, kind: str, document: str, outcome: str,
                          elapsed_s: float, reason: str = "admission") -> None:
        self._inflight.dec()
        if outcome == "shed":
            self.metrics.counter("server_requests_shed_total",
                                 document=document, kind=kind,
                                 reason=reason).inc()
        elif outcome == "failed":
            self.metrics.counter("server_requests_failed_total",
                                 document=document, kind=kind).inc()
        else:
            self.metrics.counter("server_requests_completed_total",
                                 document=document, kind=kind).inc()
        self.metrics.histogram("server_request_seconds",
                               document=document,
                               kind=kind).observe(elapsed_s)

    def count_transport_shed(self, message: Message,
                             reason: str = "backpressure") -> None:
        """Account a request a transport shed before it reached the engine.

        The socket transport's coalescer sheds on a full queue without
        calling :meth:`handle`; counting the shed here keeps the reconciliation
        invariant (total = completed + shed + failed) true across the
        whole stack, not just inside the engine.
        """
        label = self._document_label(message)
        self.metrics.counter("server_requests_total",
                             document=label, kind=message.kind).inc()
        self.metrics.counter("server_requests_shed_total",
                             document=label, kind=message.kind,
                             reason=reason).inc()

    def accounting(self, document_id: Optional[str] = None) -> Dict[str, int]:
        """The reconciliation view: admitted vs completed + shed + failed.

        Sums the request counters across every label set (optionally
        restricted to one ``document``).  At any quiescent moment
        ``admitted == completed + shed + failed`` and ``inflight == 0``;
        the chaos suite asserts exactly that.
        """
        labels = {} if document_id is None else {"document": document_id}
        return {
            "admitted": self.metrics.counter_total(
                "server_requests_total", **labels),
            "completed": self.metrics.counter_total(
                "server_requests_completed_total", **labels),
            "shed": self.metrics.counter_total(
                "server_requests_shed_total", **labels),
            "failed": self.metrics.counter_total(
                "server_requests_failed_total", **labels),
            "inflight": int(self._inflight.value),
        }

    def health(self) -> Dict[str, Any]:
        """Coarse, tenant-free vitals for health probes and the scrape endpoint."""
        return {
            "status": "ok",
            "documents": len(self.registry),
            "inflight": int(self._inflight.value),
            "requests_total": self.metrics.counter_total(
                "server_requests_total"),
        }

    # -- message dispatch ----------------------------------------------------------
    def handle(self, message: Message) -> Message:
        """Answer one request message.

        Every request is accounted in the metrics registry: admitted on
        entry, then exactly one of completed / shed (a busy reply) /
        failed (an error) on exit, plus a latency observation — replays
        answered from the idempotency cache count as completed.
        """
        started = time.perf_counter()
        label = self._document_label(message)
        self._request_admitted(message.kind, label)
        outcome = "failed"
        try:
            response = self._handle_inner(message)
        except ServerBusyError:
            outcome = "shed"
            raise
        else:
            outcome = "completed"
            return response
        finally:
            self._request_finished(message.kind, label, outcome,
                                   time.perf_counter() - started)

    def _handle_inner(self, message: Message) -> Message:
        cached = self._idempotent_lookup(message)
        if cached is not None:
            return cached
        with self._observations_lock:
            self.observations.requests_handled += 1
        # The operational probes are hello-exempt (no negotiation needed)
        # and admission-exempt (a shed tenant may still observe that it
        # is being shed).
        if isinstance(message, HelloRequest):
            return self._handle_hello(message)
        if isinstance(message, StatsRequest):
            return self._handle_stats(message)
        if isinstance(message, HealthRequest):
            return self._handle_health(message)
        document = self.registry.resolve(message.document_id)
        self.registry.admit(document)
        with self._observations_lock:
            document.observations.requests_handled += 1
        response = self._dispatch_locked(document, message)
        self._idempotent_store(message, response)
        return response

    __call__ = handle

    def _dispatch_locked(self, document: HostedDocument,
                         message: Message) -> Message:
        with document.lock:
            if isinstance(message, FrontierRequest):
                return self._frontier_batch_locked(document, [message])[0]
            if isinstance(message, PruneNotice):
                return self._handle_prune(document, message)
            if isinstance(message, UpdateRequest):
                return self._handle_update(document, message)
            if isinstance(message, BlobRequest):
                return self._handle_blob(document)
        raise ProtocolError(f"the server cannot handle {message.kind!r} requests")

    def frontier_batch(self, messages: Sequence[FrontierRequest]
                       ) -> List[Message]:
        """Answer many concurrent frontier requests in coalesced passes.

        Requests are grouped by addressed document; each group is served
        under a single acquisition of that document's lock, with the share
        evaluations of every request in the group folded into one
        ``evaluate_many`` call per distinct query point.  Responses come
        back in request order and are bit-identical to what
        :meth:`handle` would have returned for each request alone.

        Failures are isolated per request: a message naming an unknown
        document, or one whose coalesced group fails (unknown node id,
        backend error of any exception class), is answered with an in-band
        :class:`~repro.net.messages.ErrorResponse` and accounted as failed
        once, while every other request is served normally.  A failed
        group is retried request by request, so only the actual offenders
        error (requests already counted stay counted once; the retried
        group's point/prune observations may be recorded again, mirroring
        the partial observations a failing sequential handler leaves
        behind).
        """
        groups: Dict[str, Tuple[HostedDocument, List[int]]] = {}
        responses: List[Optional[Message]] = [None] * len(messages)
        started = time.perf_counter()
        labels: List[str] = []
        for index, message in enumerate(messages):
            if not isinstance(message, FrontierRequest):
                raise ProtocolError(
                    f"frontier_batch cannot handle {message.kind!r} requests")
            label = self._document_label(message)
            labels.append(label)
            self._request_admitted(message.kind, label)
            cached = self._idempotent_lookup(message)
            if cached is not None:
                # A replay: answer bit-identically without re-counting it
                # in the observation ledgers or folding it into the
                # coalesced passes (metrics file it as completed).
                responses[index] = cached
                self._request_finished(message.kind, label, "completed",
                                       time.perf_counter() - started)
                continue
            with self._observations_lock:
                self.observations.requests_handled += 1
            try:
                document = self.registry.resolve(message.document_id)
                self.registry.admit(document)
            except ReproError as exc:
                responses[index] = self.error_response(exc)
                outcome = ("shed" if isinstance(exc, ServerBusyError)
                           else "failed")
                self._request_finished(message.kind, label, outcome,
                                       time.perf_counter() - started)
                continue
            with self._observations_lock:
                document.observations.requests_handled += 1
            groups.setdefault(document.document_id, (document, []))[1].append(index)
        for document, indices in groups.values():
            group = [messages[index] for index in indices]
            try:
                with document.lock:
                    answered: List[Message] = list(
                        self._frontier_batch_locked(document, group))
            except Exception:  # noqa: BLE001 - retried request by request
                answered = []
                for message in group:
                    try:
                        with document.lock:
                            answered.append(
                                self._frontier_batch_locked(document,
                                                            [message])[0])
                    except ReproError as exc:
                        answered.append(self.error_response(exc))
                    except Exception as exc:  # noqa: BLE001 - answered in-band
                        answered.append(ErrorResponse(str(exc)))
            elapsed = time.perf_counter() - started
            for index, message, response in zip(indices, group, answered):
                responses[index] = response
                self._idempotent_store(message, response)
                outcome = "completed"
                if isinstance(response, BusyResponse):
                    outcome = "shed"
                elif isinstance(response, (ErrorResponse, ConflictResponse)):
                    outcome = "failed"
                self._request_finished(message.kind, labels[index], outcome,
                                       elapsed)
        return responses  # type: ignore[return-value]

    # -- observation plumbing ---------------------------------------------------------
    def _observe_points(self, document: HostedDocument, point: int,
                        node_ids: List[int]) -> None:
        with self._observations_lock:
            for ledger in (self.observations, document.observations):
                ledger.point_counts[point] += 1
                ledger.evaluation_requests += len(node_ids)

    def _observe_prune(self, document: HostedDocument, node_ids: List[int]) -> None:
        with self._observations_lock:
            for ledger in (self.observations, document.observations):
                ledger.pruned_nodes += len(node_ids)

    def _observe_served(self, document: HostedDocument, attribute: str,
                        node_ids: List[int]) -> None:
        with self._observations_lock:
            for ledger in (self.observations, document.observations):
                setattr(ledger, attribute,
                        getattr(ledger, attribute) + len(node_ids))

    # -- handlers --------------------------------------------------------------------
    def _handle_hello(self, message: HelloRequest) -> HelloResponse:
        """Version negotiation: highest common generation, or a loud error.

        The response describes only the document the session addressed —
        tenants must not learn which other documents the server hosts.
        """
        common = set(message.versions) & set(SUPPORTED_PROTOCOL_VERSIONS)
        if not common:
            raise ProtocolError(
                f"client speaks protocol versions {sorted(message.versions)} but "
                f"this server supports {list(SUPPORTED_PROTOCOL_VERSIONS)}; "
                "no common version — upgrade one side")
        version = max(common)
        documents: List[str] = []
        root_id = node_count = None
        if len(self.registry) > 0:
            try:
                document = self.registry.resolve(message.document_id)
            except ProtocolError:
                if message.document_id is not None:
                    raise        # an explicitly named unknown document is an error
            else:
                documents = [document.document_id]
                root_id = document.store.root_id
                node_count = document.store.node_count()
        return HelloResponse(version, documents=documents,
                             root_id=root_id, node_count=node_count)

    def _handle_stats(self, message: StatsRequest) -> StatsResponse:
        """Tenant-filtered metrics snapshot.

        Label privacy mirrors :meth:`_handle_hello`: a request without a
        ``document_id`` gets only label-free, server-wide instruments
        plus aggregate accounting; a request addressing a document gets
        those plus the instruments labelled with *that* document — never
        another tenant's labels or traffic figures.
        """
        wanted = message.document_id
        snapshot = self.metrics.snapshot()
        instruments: Dict[str, List[Dict[str, Any]]] = {}
        for section, entries in snapshot.items():
            kept = []
            for entry in entries:
                labels = entry.get("labels", {})
                document_label = labels.get("document")
                if document_label is None or document_label == wanted:
                    kept.append(entry)
            instruments[section] = kept
        metrics: Dict[str, Any] = {
            "instruments": instruments,
            "accounting": self.accounting(wanted),
        }
        if wanted is not None:
            ledger = self.registry.quota_ledger().get(wanted)
            if ledger is not None:
                metrics["quota"] = ledger
        return StatsResponse(metrics)

    def _handle_health(self, message: HealthRequest) -> HealthResponse:
        """Liveness probe: always answers while the engine is running."""
        detail = self.health()
        return HealthResponse(detail.pop("status"), detail)

    def _frontier_batch_locked(self, document: HostedDocument,
                               messages: Sequence[FrontierRequest]
                               ) -> List[FrontierResponse]:
        """Serve one document's frontier requests under its (held) lock.

        A request naming nodes the document no longer holds (another
        writer removed them between the client's rounds) raises
        :class:`~repro.errors.UpdateConflictError` naming them, so the
        client can restart its query from the root instead of failing.
        """
        try:
            return self._serve_frontiers_locked(document, messages)
        except SharingError as exc:
            store = document.store
            missing = sorted({node_id for message in messages
                              for node_id in (*message.node_ids,
                                              *message.fetch_polynomials,
                                              *message.fetch_constants)
                              if node_id not in store})
            if not missing:
                raise
            raise UpdateConflictError(
                f"nodes {missing} are not in the document (another writer "
                "removed them, or they never existed); restart the query "
                "from the root",
                conflicts=missing) from exc

    def _serve_frontiers_locked(self, document: HostedDocument,
                                messages: Sequence[FrontierRequest]
                                ) -> List[FrontierResponse]:
        """Answer frontier requests whose nodes the store holds.

        Each response follows its request's :func:`frontier_layout`,
        whose child lists come through one cache per batch: one store
        read per layout level for the nodes the batch has not read yet.
        Share evaluations run once per (node, point) per batch and each
        fetch is one batch share read; each request's response is then
        sliced out of the union passes.
        """
        store = document.store
        child_cache: Dict[int, List[int]] = {}

        def child_lists(node_ids: List[int]) -> List[List[int]]:
            missing = [node_id for node_id in node_ids
                       if node_id not in child_cache]
            if missing:
                child_cache.update(store.child_lists(missing))
            return list(map(child_cache.__getitem__, node_ids))

        # Pass 1: prune notices, then every request's layout: its frontier
        # plus up to ``lookahead`` further levels, the listed child lists
        # and the fetched nodes.
        for message in messages:
            if message.prune:
                self._observe_prune(document, message.prune)
        layouts = [frontier_layout(message, child_lists) for message in messages]

        # Pass 2: the coalesced evaluation — one batched store pass per
        # distinct query point over the union of every request's expansion.
        point_nodes: Dict[int, Dict[int, None]] = {}
        for message, layout in zip(messages, layouts):
            for point in message.points:
                point_nodes.setdefault(point, {}).update(
                    dict.fromkeys(layout.expansion))
        point_values = {point: store.evaluate_many(list(node_ids), point)
                        for point, node_ids in point_nodes.items()}

        # Pass 3: each request's response, in its layout's orders.
        responses: List[FrontierResponse] = []
        for message, layout in zip(messages, layouts):
            expansion = layout.expansion
            for point in message.points:
                self._observe_points(document, point, expansion)
            points = sorted(message.points) if expansion else []
            values = [list(map(point_values[point].__getitem__, expansion))
                      for point in points]
            rows: Optional[CoefficientRows] = None
            if layout.polynomials:
                self._observe_served(document, "polynomials_served",
                                     layout.polynomials)
                rows = store.coefficient_rows(layout.polynomials)
            constants: List[int] = []
            if layout.constants:
                self._observe_served(document, "constants_served",
                                     layout.constants)
                constants = store.coefficient_rows(
                    layout.constants).constant_terms()
            responses.append(FrontierResponse(
                points, values, list(map(len, layout.children)),
                list(chain.from_iterable(layout.children)), rows, constants))
        return responses

    def _handle_prune(self, document: HostedDocument,
                      message: PruneNotice) -> Acknowledgement:
        self._observe_prune(document, message.node_ids)
        return Acknowledgement()

    def _handle_update(self, document: HostedDocument,
                       message: UpdateRequest) -> Message:
        """Apply one mutation batch, or reject it with a conflict.

        Runs under the document lock (via :meth:`_dispatch_locked`), so
        the base-version check and the batch application are one atomic
        step with respect to every other writer and every query handler.
        The batch goes through the store's transactional path — on the
        durable backend one SQLite transaction, so a crash mid-batch still
        tears nothing.  Nothing is applied on conflict.
        """
        store = document.store
        versions = document.versions
        stale: Dict[int, Optional[int]] = {}
        for node_id, base in message.base_versions.items():
            if node_id not in store:
                stale[node_id] = None          # removed by another writer
            elif versions.get(node_id, 0) != base:
                stale[node_id] = versions.get(node_id, 0)
        if stale:
            return ConflictResponse(
                stale, {nid: current for nid, current in stale.items()
                        if current is not None})
        ring = store.ring
        try:
            with store.transaction() as txn:
                for op in message.ops:
                    if op[0] == "add":
                        txn.add_node(op[1], op[2],
                                     ring.from_coefficients(op[3]))
                    elif op[0] == "replace":
                        txn.replace_share(op[1], ring.from_coefficients(op[2]))
                    else:
                        removed = txn.remove_subtree(op[1])
                        if sorted(removed) != sorted(op[2]):
                            # The subtree gained or lost members since the
                            # client computed the batch: a structural
                            # conflict, not a protocol violation.
                            raise _UpdateConflict([op[1]])
        except _UpdateConflict as exc:
            return ConflictResponse(
                exc.conflicts,
                {nid: versions.get(nid, 0) for nid in exc.conflicts
                 if nid in store})
        new_versions: Dict[int, int] = {}
        for op in message.ops:
            if op[0] in ("add", "replace"):
                versions[op[1]] = versions.get(op[1], 0) + 1
                new_versions[op[1]] = versions[op[1]]
            else:
                for removed_id in op[2]:
                    versions.pop(removed_id, None)
                    new_versions.pop(removed_id, None)
        document.update_log.append(
            (message.request_id, message.operation, len(message.ops)))
        return UpdateResponse(new_versions, applied=len(message.ops))

    def _handle_blob(self, document: HostedDocument) -> BlobResponse:
        if document.encrypted_blob is None:
            raise ProtocolError("this server has no download-all blob configured")
        return BlobResponse(document.encrypted_blob)

    # -- reporting -----------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Measured storage across every hosted document (§5)."""
        return self.registry.total_storage_bits()
