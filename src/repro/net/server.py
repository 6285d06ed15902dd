"""The untrusted search server: in-process facade and blocking sockets.

The message handlers themselves live in the transport-agnostic
:class:`~repro.net.engine.ServingCore`; this module provides the two
synchronous ways of running one:

* :class:`SearchServer` — the historical in-process server object.  It
  *is* a ``ServingCore`` (every test and benchmark that calls
  ``server.handle(message)`` keeps working unchanged) plus the
  single-document conveniences the original construction exposed.
* :class:`ThreadedSearchServer` — a blocking TCP transport: one OS thread
  per client session, length-prefixed frames
  (:mod:`repro.net.framing`) carrying the unchanged v1/v2 message
  encodings.  This is the baseline the asyncio transport
  (:mod:`repro.net.aio`) is benchmarked against in BENCH_3.

The server never sees tag names, the mapping function, the client seed or
full polynomials — only its own shares, the query points and the prune
notices, which is exactly the view analysed by
:mod:`repro.analysis.leakage` (and accounted both globally and per hosted
document).
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Optional, Union

from ..core.share_tree import ServerShareTree
from ..errors import ProtocolError, ReproError
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
from .messages import REQUEST_KINDS, ErrorResponse, decode_message
from .store import InMemoryShareStore, ShareStore

__all__ = ["ServerObservations", "SearchServer", "ThreadedSearchServer"]


class SearchServer(ServingCore):
    """In-process server object implementing the server role of §4.3.

    ``SearchServer(share_tree)`` keeps the historical single-document
    construction (the tree is hosted as the default document); additional
    documents are attached with :meth:`add_document`.  The message
    handlers are inherited from :class:`~repro.net.engine.ServingCore`, so
    the same instance can simultaneously back the in-process channel, the
    threaded socket transport and the asyncio transport.
    """

    def __init__(self, share_tree: Optional[Union[ServerShareTree, ShareStore]] = None,
                 encrypted_blob: Optional[bytes] = None,
                 registry: Optional[DocumentRegistry] = None) -> None:
        super().__init__(registry)
        if share_tree is not None:
            self.add_document(DEFAULT_DOCUMENT, share_tree,
                              encrypted_blob=encrypted_blob)

    # -- hosting ----------------------------------------------------------------------
    def add_document(self, document_id: str,
                     store: Union[ServerShareTree, ShareStore],
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
    def share_tree(self) -> Union[ServerShareTree, ShareStore]:
        """The default document's data (kept for single-document callers)."""
        store = self.registry.resolve(None).store
        if isinstance(store, InMemoryShareStore):
            return store.tree
        return store

    @property
    def encrypted_blob(self) -> Optional[bytes]:
        """The default document's download-all blob (legacy accessor)."""
        return self.registry.resolve(None).encrypted_blob


class _FrameSessionHandler(socketserver.BaseRequestHandler):
    """One blocking client session: read frame, handle, write frame."""

    def handle(self) -> None:  # noqa: D102 - socketserver protocol
        server: "ThreadedSearchServer" = self.server  # type: ignore[assignment]
        server._sessions_gauge.inc()
        try:
            self._serve_session(server)
        finally:
            server._sessions_gauge.dec()

    def _serve_session(self, server: "ThreadedSearchServer") -> None:
        assembler = FrameAssembler(server.max_frame_bytes)
        self.request.settimeout(server.session_timeout_s)
        while True:
            try:
                chunk = self.request.recv(65536)
            except (socket.timeout, OSError):
                break
            if not chunk:
                break
            try:
                payloads = assembler.feed(chunk)
            except ProtocolError:
                break  # unframeable stream: drop the session
            for payload in payloads:
                server._request_started()
                server._bytes_in.inc(len(payload))
                try:
                    response = server.core.handle(
                        decode_message(payload, REQUEST_KINDS))
                except ReproError as exc:
                    # Busy shedding and transient failures keep their
                    # class on the wire (BusyResponse / retryable error).
                    response = ServingCore.error_response(exc)
                except Exception as exc:  # noqa: BLE001 - answered in-band
                    response = ErrorResponse(str(exc))
                finally:
                    server._request_finished()
                try:
                    frame = encode_frame(response.encode(),
                                         server.max_frame_bytes)
                except ProtocolError as exc:
                    frame = encode_frame(
                        ErrorResponse(f"response exceeds the frame limit: "
                                      f"{exc}").encode(),
                        server.max_frame_bytes)
                try:
                    self.request.sendall(frame)
                except OSError:
                    return
                server._bytes_out.inc(len(frame) - FRAME_HEADER_BYTES)


class ThreadedSearchServer(socketserver.ThreadingTCPServer):
    """Blocking TCP transport: one thread per session, framed messages.

    This is the conventional way to serve the synchronous
    :class:`~repro.net.engine.ServingCore` — every session gets its own
    thread and every request is handled individually, so N concurrent
    sessions descending the same document each pay their own store pass
    behind the per-document lock.  The asyncio transport exists precisely
    to beat this baseline by coalescing those passes; BENCH_3 measures the
    gap.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, core: ServingCore, host: str = "127.0.0.1",
                 port: int = 0, max_frame_bytes: int = MAX_FRAME_BYTES,
                 session_timeout_s: float = 30.0,
                 drain_timeout_s: float = 10.0) -> None:
        self.core = core
        self.max_frame_bytes = max_frame_bytes
        self.session_timeout_s = session_timeout_s
        #: How long :meth:`stop` waits for in-flight requests to finish.
        self.drain_timeout_s = drain_timeout_s
        # Transport accounting flows into the serving stack's registry.
        metrics = core.metrics
        self._bytes_in = metrics.counter("transport_bytes_to_server",
                                         transport="threaded")
        self._bytes_out = metrics.counter("transport_bytes_to_client",
                                          transport="threaded")
        self._sessions_gauge = metrics.gauge("transport_active_sessions",
                                             transport="threaded")
        super().__init__((host, port), _FrameSessionHandler)
        self._serve_thread: Optional[threading.Thread] = None
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # -- in-flight accounting (graceful shutdown) ---------------------------------
    def _request_started(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def _request_finished(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_cv.notify_all()

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` address."""
        return self.server_address[:2]

    def start(self) -> "ThreadedSearchServer":
        """Serve in a background thread (returns self for chaining)."""
        self._serve_thread = threading.Thread(target=self.serve_forever,
                                              name="threaded-search-server",
                                              daemon=True)
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: close the listener, drain, then tear down.

        ``shutdown()`` stops the accept loop first (no new sessions),
        then in-flight request handling gets up to ``drain_timeout_s``
        to produce its responses before the process-level teardown —
        rounds that already cost a store pass are answered, not lost.
        Session threads are daemonic; those still blocked on an idle
        ``recv`` die with their clients or the process.
        """
        self.shutdown()
        with self._inflight_cv:
            self._inflight_cv.wait_for(lambda: self._inflight == 0,
                                       timeout=self.drain_timeout_s)
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
