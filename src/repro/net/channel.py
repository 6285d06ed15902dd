"""Instrumented request/response channels between client and server.

The paper's protocol is strictly synchronous (the client sends a request,
the server answers), so every channel models exactly that and records:

* bytes sent client→server and server→client,
* number of request/response exchanges (round trips),
* a full transcript of message kinds (for the leakage audit).

Two transports share the accounting:

* :class:`InstrumentedChannel` — the in-process "network" used by the
  bandwidth experiments; what matters there are the counted costs, not
  sockets.
* :class:`SocketChannel` — one real TCP session against the socket
  server (:class:`~repro.net.server.ThreadedSearchServer`), speaking the
  same message encodings inside length-prefixed frames.  Each session owns its own
  :class:`ChannelStats`, so byte and round-trip totals stay per-tenant
  even when many sessions hit one server.

A latency model can be attached to translate round trips and bytes into
simulated wall-clock time.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import (
    ProtocolError,
    ServerBusyError,
    TransientServerError,
    TransportError,
)
from ..obs import MetricsRegistry
from .framing import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    decode_frame_length,
    encode_frame,
)
from .messages import BusyResponse, ErrorResponse, Message, decode_message

__all__ = ["ChannelStats", "LatencyModel", "InstrumentedChannel",
           "SocketChannel"]


class ChannelStats:
    """Byte and message accounting for one channel, as a registry view.

    A view over four :class:`~repro.obs.metrics.Counter` instruments, so
    channel accounting flows through the same
    :class:`~repro.obs.MetricsRegistry` as every other operational signal.
    A transport records each message with :meth:`record_request` or
    :meth:`record_response`, which add its bytes and one message; the
    totals are read-only attributes.

    Constructed bare (``ChannelStats()``) the view owns a private
    registry, so per-session accounting stays isolated.  Passing
    ``registry=`` (plus optional label dimensions)
    shares instruments with a serving stack's registry instead.
    """

    __slots__ = ("registry", "_to_server", "_to_client", "_requests",
                 "_responses")

    def __init__(self, registry: Optional["MetricsRegistry"] = None,
                 **labels: str) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._to_server = registry.counter("channel_bytes_to_server", **labels)
        self._to_client = registry.counter("channel_bytes_to_client", **labels)
        self._requests = registry.counter("channel_requests_total", **labels)
        self._responses = registry.counter("channel_responses_total", **labels)

    def record_request(self, size: int) -> None:
        """Count one client→server message of ``size`` bytes."""
        self._to_server.inc(size)
        self._requests.inc()

    def record_response(self, size: int) -> None:
        """Count one server→client message of ``size`` bytes."""
        self._to_client.inc(size)
        self._responses.inc()

    @property
    def bytes_to_server(self) -> int:
        """Bytes sent client→server."""
        return self._to_server.value

    @property
    def bytes_to_client(self) -> int:
        """Bytes sent server→client."""
        return self._to_client.value

    @property
    def requests(self) -> int:
        """Requests sent."""
        return self._requests.value

    @property
    def responses(self) -> int:
        """Responses received."""
        return self._responses.value

    @property
    def total_bytes(self) -> int:
        """Bytes in both directions."""
        return self.bytes_to_server + self.bytes_to_client

    @property
    def round_trips(self) -> int:
        """Completed request/response exchanges."""
        return self.responses

    def as_dict(self) -> Dict[str, int]:
        """Dictionary form for tabular reporting."""
        return {
            "bytes_to_server": self.bytes_to_server,
            "bytes_to_client": self.bytes_to_client,
            "total_bytes": self.total_bytes,
            "round_trips": self.round_trips,
        }

    def reset(self) -> None:
        """Zero all counters."""
        self._to_server.reset()
        self._to_client.reset()
        self._requests.reset()
        self._responses.reset()

    def __repr__(self) -> str:
        return (f"ChannelStats(to_server={self.bytes_to_server}B, "
                f"to_client={self.bytes_to_client}B, round_trips={self.round_trips})")


class LatencyModel:
    """Translate counted traffic into simulated time.

    ``latency_s`` is the one-way network latency; ``bandwidth_bytes_per_s``
    the link throughput.  A round trip therefore costs
    ``2*latency + bytes/bandwidth`` seconds of simulated time.
    """

    def __init__(self, latency_s: float = 0.01,
                 bandwidth_bytes_per_s: float = 125_000.0) -> None:
        if latency_s < 0 or bandwidth_bytes_per_s <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        self.latency_s = latency_s
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s

    def simulated_seconds(self, stats: ChannelStats) -> float:
        """Simulated transfer time for the traffic recorded in ``stats``."""
        transfer = stats.total_bytes / self.bandwidth_bytes_per_s
        return 2 * self.latency_s * stats.round_trips + transfer


class InstrumentedChannel:
    """Synchronous request/response channel with byte-level accounting.

    The server side is a handler callable ``Message -> Message``; requests
    are serialised, counted, decoded on the "server side", handled, and the
    response travels back the same way.  Serialising on both hops keeps the
    accounting honest: what is counted is exactly what crosses the link.
    """

    def __init__(self, handler: Callable[[Message], Message],
                 latency_model: Optional[LatencyModel] = None) -> None:
        self.handler = handler
        self.stats = ChannelStats()
        self.latency_model = latency_model
        #: Sequence of (request_kind, response_kind) pairs (the server's view).
        self.transcript: List[Tuple[str, str]] = []
        # Accounting is guarded so sessions may share a channel across
        # threads; the handler itself runs outside the lock (the server
        # engine has its own per-document locking).
        self._stats_lock = threading.Lock()

    def request(self, message: Message) -> Message:
        """Send ``message`` to the server and return the decoded response.

        Handler exceptions propagate directly (there is no wire for them
        to be reported in-band on), but a handler that *answers* with an
        in-band failure reply — a busy shed or an error frame, as the
        socket servers do — gets the same mapping as
        :meth:`SocketChannel.request`, so resilient clients behave
        identically over both transports.
        """
        encoded = message.encode()
        with self._stats_lock:
            self.stats.record_request(len(encoded))
        server_view = decode_message(encoded)
        response = self.handler(server_view)
        if not isinstance(response, Message):
            raise ProtocolError("the server handler must return a Message")
        encoded_response = response.encode()
        with self._stats_lock:
            self.stats.record_response(len(encoded_response))
            self.transcript.append((server_view.kind, response.kind))
        decoded = decode_message(encoded_response, request_bytes=len(encoded))
        if isinstance(decoded, BusyResponse):
            raise ServerBusyError(
                f"the server shed the {message.kind!r} request "
                f"(retry after {decoded.retry_after_s}s)",
                retry_after_s=decoded.retry_after_s)
        if isinstance(decoded, ErrorResponse) and decoded.retryable:
            raise TransientServerError(decoded.error)
        return decoded

    def simulated_seconds(self) -> float:
        """Simulated time of the recorded traffic (0.0 without a latency model)."""
        if self.latency_model is None:
            return 0.0
        return self.latency_model.simulated_seconds(self.stats)

    def reset(self) -> None:
        """Clear counters and transcript (e.g. between benchmark iterations)."""
        self.stats.reset()
        self.transcript.clear()


class SocketChannel:
    """One client session over a real TCP socket, with per-session stats.

    Speaks the framed wire protocol of :mod:`repro.net.framing`: each
    request is one frame carrying an unchanged message encoding, and each
    response one frame back.  The channel is strictly synchronous
    from the caller's view (send, then wait), which is exactly what
    :class:`~repro.net.client.RemoteServerAdapter` needs — the adapter
    works over this channel and the in-process one interchangeably.

    Server-side failures arrive as
    :class:`~repro.net.messages.ErrorResponse` frames and are re-raised
    here as :class:`~repro.errors.ProtocolError`, mirroring the exception
    the in-process channel would have propagated.
    """

    def __init__(self, host: str, port: int,
                 latency_model: Optional[LatencyModel] = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 timeout_s: Optional[float] = 30.0) -> None:
        self.stats = ChannelStats()
        self.latency_model = latency_model
        self.max_frame_bytes = max_frame_bytes
        #: Sequence of (request_kind, response_kind) pairs (this session's view).
        self.transcript: List[Tuple[str, str]] = []
        try:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout_s)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            # The connected socket must not leak even when option setup
            # fails (e.g. the peer already reset the connection).
            self.close()
            raise
        self._lock = threading.Lock()

    def _recv_exactly(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except OSError as exc:
                raise TransportError(
                    f"connection failed mid-frame: {exc}") from exc
            if not chunk:
                raise TransportError(
                    "the server closed the connection mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def request(self, message: Message) -> Message:
        """Send one framed request and return the decoded framed response.

        Transport failures (reset connections, truncated frames) raise
        :class:`~repro.errors.TransportError`; in-band server failures
        re-raise as :class:`~repro.errors.ProtocolError` (with the
        ``retryable`` flag mapped to
        :class:`~repro.errors.TransientServerError`) and a shed request as
        :class:`~repro.errors.ServerBusyError` — so a resilient caller can
        tell "reconnect and replay" from "retry in place" from "give up".
        """
        encoded = message.encode()
        frame = encode_frame(encoded, self.max_frame_bytes)
        with self._lock:
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise TransportError(
                    f"cannot send the request frame: {exc}") from exc
            self.stats.record_request(len(encoded))
            header = self._recv_exactly(FRAME_HEADER_BYTES)
            length = decode_frame_length(header, self.max_frame_bytes)
            payload = self._recv_exactly(length)
            self.stats.record_response(len(payload))
            response = decode_message(payload, request_bytes=len(encoded))
            self.transcript.append((message.kind, response.kind))
        if isinstance(response, BusyResponse):
            raise ServerBusyError(
                f"the server shed the {message.kind!r} request "
                f"(retry after {response.retry_after_s}s)",
                retry_after_s=response.retry_after_s)
        if isinstance(response, ErrorResponse):
            if response.retryable:
                raise TransientServerError(response.error)
            raise ProtocolError(response.error)
        return response

    def simulated_seconds(self) -> float:
        """Simulated time of the recorded traffic (0.0 without a latency model)."""
        if self.latency_model is None:
            return 0.0
        return self.latency_model.simulated_seconds(self.stats)

    def close(self) -> None:
        """Close the underlying socket."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SocketChannel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
