"""The untrusted search server: in-process facade and the socket transport.

The message handlers themselves live in the transport-agnostic
:class:`~repro.net.engine.ServingCore`; this module provides the two ways
of running one:

* :class:`SearchServer` — the historical in-process server object.  It
  *is* a ``ServingCore`` (every test and benchmark that calls
  ``server.handle(message)`` keeps working unchanged) plus the
  single-document conveniences the original construction exposed.
* :class:`ThreadedSearchServer` — the TCP transport: one OS thread per
  client session, length-prefixed frames (:mod:`repro.net.framing`)
  carrying the message encodings unchanged.  Concurrent frontier
  requests coalesce into shared
  :meth:`~repro.net.engine.ServingCore.frontier_batch` passes without a
  dispatcher thread: a session thread that finds no pass running answers
  its request itself, requests that arrive during a pass queue up, and
  the next pass, run by the first queued request's own thread, answers
  them together.

The server never sees tag names, the mapping function, the client seed or
full polynomials — only its own shares, the query points and the prune
notices, which is exactly the view analysed by
:mod:`repro.analysis.leakage` (and accounted both globally and per hosted
document).
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.share_tree import ShareStore
from ..errors import ProtocolError, ReproError
from .channel import ChannelStats
from .engine import (
    DEFAULT_DOCUMENT,
    DocumentRegistry,
    HostedDocument,
    ServerObservations,
    ServingCore,
)
from .framing import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameAssembler,
    encode_frame,
)
from .messages import (
    REQUEST_KINDS,
    BusyResponse,
    ErrorResponse,
    FrontierRequest,
    Message,
    decode_message,
)

__all__ = ["ServerObservations", "SearchServer", "ThreadedSearchServer"]


class SearchServer(ServingCore):
    """In-process server object implementing the server role of §4.3.

    ``SearchServer(share_tree)`` keeps the historical single-document
    construction (the tree is hosted as the default document); additional
    documents are attached with :meth:`add_document`.  The message
    handlers are inherited from :class:`~repro.net.engine.ServingCore`, so
    the same instance can back the in-process channel and the socket
    transport at the same time.
    """

    def __init__(self, share_tree: Optional[ShareStore] = None,
                 encrypted_blob: Optional[bytes] = None,
                 registry: Optional[DocumentRegistry] = None) -> None:
        super().__init__(registry)
        if share_tree is not None:
            self.add_document(DEFAULT_DOCUMENT, share_tree,
                              encrypted_blob=encrypted_blob)

    # -- hosting ----------------------------------------------------------------------
    def add_document(self, document_id: str,
                     store: ShareStore,
                     encrypted_blob: Optional[bytes] = None) -> HostedDocument:
        """Host another outsourced document under ``document_id``."""
        return self.registry.add(document_id, store, encrypted_blob=encrypted_blob)

    def remove_document(self, document_id: str) -> HostedDocument:
        """Stop hosting a document."""
        return self.registry.remove(document_id)

    def document(self, document_id: Optional[str] = None) -> HostedDocument:
        """A hosted document (the default one when ``document_id`` is None)."""
        return self.registry.resolve(document_id)

    @property
    def share_tree(self) -> ShareStore:
        """The default document's store (kept for single-document callers)."""
        return self.registry.resolve(None).store

    @property
    def encrypted_blob(self) -> Optional[bytes]:
        """The default document's download-all blob (legacy accessor)."""
        return self.registry.resolve(None).encrypted_blob


class _Queued:
    """A frontier request waiting for a pass: its answer, or the lead."""

    __slots__ = ("message", "response", "ready")

    def __init__(self, message: FrontierRequest) -> None:
        self.message = message
        self.response: Optional[Message] = None
        self.ready = threading.Event()


class ThreadedSearchServer:
    """TCP transport: one thread per session, coalesced frontier passes.

    Every request of a session is read, answered and written back by the
    session's own thread, in order, so pipelined frames are answered in
    the order they were sent.  Frontier requests take the coalescing path
    described in the module docstring; everything else goes to
    :meth:`~repro.net.engine.ServingCore.handle`.  Failures are answered
    in-band as :class:`~repro.net.messages.ErrorResponse` frames and the
    session survives; an unframeable byte stream gets one error frame and
    then the session is dropped, because there is no point at which to
    resynchronise.
    """

    def __init__(self, core: ServingCore, host: str = "127.0.0.1",
                 port: int = 0, max_frame_bytes: int = MAX_FRAME_BYTES,
                 session_timeout_s: Optional[float] = 30.0,
                 drain_timeout_s: float = 10.0,
                 queue_limit: int = 0,
                 busy_retry_after_s: float = 0.05,
                 tick_size: int = 0) -> None:
        self.core = core
        self.max_frame_bytes = max_frame_bytes
        #: Per-session read/write inactivity bound; ``None`` disables it.
        #: A session that neither sends a frame nor accepts a response
        #: within the bound is dropped, so one stuck peer cannot pin a
        #: thread forever.
        self.session_timeout_s = session_timeout_s
        #: How long :meth:`stop` waits for in-flight requests to finish
        #: before it closes the live sessions.
        self.drain_timeout_s = float(drain_timeout_s)
        #: Coalescer backlog bound; ``0`` means unbounded.  A frontier
        #: request arriving while the queue-depth gauge is at the limit is
        #: shed with an in-band :class:`~repro.net.messages.BusyResponse`
        #: carrying ``busy_retry_after_s``; the session survives.
        self.queue_limit = int(queue_limit)
        self.busy_retry_after_s = float(busy_retry_after_s)
        #: Cap on how many queued frontier requests one pass answers;
        #: ``0`` means everything queued, ``1`` disables coalescing.
        self.tick_size = int(tick_size)
        #: Per-session byte/round-trip accounting, in accept order.  Bounded
        #: so a long-lived daemon does not keep one entry per connection
        #: ever made; the newest sessions win.
        self.session_stats: Deque[ChannelStats] = deque(maxlen=4096)
        # Transport and coalescer accounting flows into the serving
        # stack's registry; the attribute API below is views over it.
        metrics = core.metrics
        self._bytes_in = metrics.counter("transport_bytes_to_server",
                                         transport="threaded")
        self._bytes_out = metrics.counter("transport_bytes_to_client",
                                          transport="threaded")
        self._sessions_gauge = metrics.gauge("transport_active_sessions",
                                             transport="threaded")
        self._shed = metrics.counter("coalescer_shed_total")
        self._batches = metrics.counter("coalescer_batches_total")
        self._batched_requests = metrics.counter("coalescer_requests_total")
        self._largest_batch = metrics.gauge("coalescer_largest_batch")
        self._queue_depth = metrics.gauge("coalescer_queue_depth")
        self._listener = socket.create_server((host, port))
        #: The bound ``(host, port)`` address.
        self.address: tuple = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None
        # One lock guards the coalescer queue, the pass flag, the live
        # sessions and the in-flight count.
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._queue: Deque[_Queued] = deque()
        #: True while a pass runs or has been handed to the queue head.
        self._passing = False
        self._sessions: Dict[socket.socket, threading.Thread] = {}
        self._inflight = 0
        self._stopped = False

    # -- registry-backed accounting views ---------------------------------------------
    @property
    def shed_requests(self) -> int:
        """Frontier requests shed with a busy reply (backpressure)."""
        return self._shed.value

    @property
    def coalesced_batches(self) -> int:
        """How many frontier passes the server ran."""
        return self._batches.value

    @property
    def coalesced_requests(self) -> int:
        """How many frontier requests those passes answered."""
        return self._batched_requests.value

    @property
    def largest_batch(self) -> int:
        """Largest number of frontier requests answered in one pass."""
        return int(self._largest_batch.value)

    @property
    def queue_depth(self) -> int:
        """Live coalescer backlog (the scraped gauge's current value)."""
        return int(self._queue_depth.value)

    # -- lifecycle -------------------------------------------------------------------
    def start(self) -> "ThreadedSearchServer":
        """Accept sessions in a background thread (returns self for chaining)."""
        self._accept_thread = threading.Thread(target=self._accept_forever,
                                               name="search-server-accept",
                                               daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: close the listener, drain, then close sessions.

        No new session is accepted once the listener is closed.  Requests
        already being answered get up to ``drain_timeout_s`` to produce
        their responses — a round that already cost a store pass is
        answered, not lost — and then every live session is closed and
        its thread joined.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        try:
            # Wakes the accept() blocked in the background thread.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._idle:
            self._idle.wait_for(lambda: self._inflight == 0,
                                timeout=self.drain_timeout_s)
            sessions = dict(self._sessions)
        for sock in sessions:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in sessions.values():
            thread.join(timeout=5.0)

    def _accept_forever(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return          # the listener was closed by stop()
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                sock.close()    # the peer is already gone
                continue
            thread = threading.Thread(target=self._serve_session,
                                      args=(sock,), name="search-session",
                                      daemon=True)
            with self._lock:
                if self._stopped:
                    sock.close()
                    return
                self._sessions[sock] = thread
            thread.start()

    # -- sessions --------------------------------------------------------------------
    def _serve_session(self, sock: socket.socket) -> None:
        stats = ChannelStats()
        self.session_stats.append(stats)
        self._sessions_gauge.inc()
        assembler = FrameAssembler(self.max_frame_bytes)
        try:
            sock.settimeout(self.session_timeout_s)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return
                try:
                    payloads = assembler.feed(chunk)
                except ProtocolError as exc:
                    self._send(sock, ErrorResponse(str(exc)), stats)
                    return
                for payload in payloads:
                    stats.record_request(len(payload))
                    self._bytes_in.inc(len(payload))
                    # In flight until the response is written: stop()
                    # drains answers, not just handler calls.
                    with self._lock:
                        self._inflight += 1
                    try:
                        self._send(sock, self._answer(payload), stats)
                    finally:
                        with self._idle:
                            self._inflight -= 1
                            if self._inflight == 0:
                                self._idle.notify_all()
        except OSError:
            return              # timed out, reset, or closed by stop()
        finally:
            self._sessions_gauge.dec()
            with self._lock:
                self._sessions.pop(sock, None)
            sock.close()

    def _send(self, sock: socket.socket, response: Message,
              stats: ChannelStats) -> None:
        try:
            frame = encode_frame(response.encode(), self.max_frame_bytes)
        except ProtocolError as exc:
            # A response above the frame limit (e.g. a fetch over a huge
            # closure): the session still gets an answer, in order.
            frame = encode_frame(
                ErrorResponse(f"response exceeds the frame limit: "
                              f"{exc}").encode(), self.max_frame_bytes)
        sock.sendall(frame)
        size = len(frame) - FRAME_HEADER_BYTES
        stats.record_response(size)
        self._bytes_out.inc(size)

    def _answer(self, payload: bytes) -> Message:
        """Handle one framed request; failures become in-band errors."""
        try:
            message = decode_message(payload, REQUEST_KINDS)
            if isinstance(message, FrontierRequest):
                return self._answer_frontier(message)
            return self.core.handle(message)
        except ReproError as exc:
            # Busy shedding and transient failures keep their class on
            # the wire (BusyResponse / retryable error).
            return ServingCore.error_response(exc)
        except Exception as exc:  # noqa: BLE001 - answered in-band
            return ErrorResponse(str(exc))

    # -- the coalescer ---------------------------------------------------------------
    def _answer_frontier(self, message: FrontierRequest) -> Message:
        """Answer a frontier request in a pass, leading one if none runs."""
        entry = _Queued(message)
        with self._lock:
            if self.queue_limit and self._queue_depth.value >= self.queue_limit:
                self._shed.inc()
                self.core.count_transport_shed(message, reason="backpressure")
                return BusyResponse(retry_after_s=self.busy_retry_after_s)
            if self._passing:
                self._queue.append(entry)
                self._queue_depth.inc()
                batch = None
            else:
                self._passing = True
                batch = [entry]
        if batch is None:
            entry.ready.wait()
            if entry.response is not None:
                return entry.response
            # The previous pass handed the lead to this request, which is
            # at the head of the queue: take it and what queued behind it.
            with self._lock:
                count = len(self._queue)
                if self.tick_size > 0:
                    count = min(count, self.tick_size)
                batch = [self._queue.popleft() for _ in range(count)]
                self._queue_depth.set(len(self._queue))
        self._run_pass(batch)
        return entry.response

    def _run_pass(self, batch: List[_Queued]) -> None:
        """Answer ``batch`` in one pass, then hand the lead to the queue head."""
        try:
            responses = self.core.frontier_batch(
                [queued.message for queued in batch])
            for queued, response in zip(batch, responses):
                queued.response = response
        except Exception as exc:  # noqa: BLE001 - the queue must move on
            for queued in batch:
                queued.response = ErrorResponse(str(exc))
        finally:
            # Even a pass that died answers its requests and hands on the
            # lead, so no thread is left waiting for a leader.
            for queued in batch:
                if queued.response is None:
                    queued.response = ErrorResponse("the frontier pass failed")
            with self._lock:
                self._batches.inc()
                self._batched_requests.inc(len(batch))
                if len(batch) > self._largest_batch.value:
                    self._largest_batch.set(len(batch))
                next_leader = self._queue[0] if self._queue else None
                self._passing = next_leader is not None
            for queued in batch[1:]:
                queued.ready.set()
            if next_leader is not None:
                next_leader.ready.set()
