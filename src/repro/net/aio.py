"""Asyncio socket transport with coalesced frontier rounds.

This module is the serving tentpole on top of the transport-agnostic
:class:`~repro.net.engine.ServingCore`:

* :class:`AsyncSearchServer` multiplexes many client sessions over one
  event loop.  Frames are length-prefixed (:mod:`repro.net.framing`) and
  carry the unchanged v1–v3 message encodings, so any framed client —
  the blocking :class:`~repro.net.channel.SocketChannel`, the async
  :class:`AsyncServerInterface`, or a from-spec implementation of
  ``docs/protocol.md`` — talks to it.  v3 update batches
  (:class:`~repro.net.messages.UpdateRequest`) need no transport support
  of their own: they route through the executor like any non-frontier
  request and serialise on the document lock inside
  :class:`~repro.net.engine.ServingCore`, so a coalesced tick never
  observes a half-applied batch.

* The headline optimisation: concurrent
  :class:`~repro.net.messages.FrontierRequest` s are not handled one by
  one.  Every frontier request that arrives while the previous batch is
  being evaluated queues up in the coalescer, and the whole tick is
  answered through :meth:`~repro.net.engine.ServingCore.frontier_batch`
  — **one** lock acquisition per document and **one** batched
  ``evaluate_many`` store pass per distinct query point for the entire
  batch.  N sessions descending the same document at the same points
  therefore cost roughly one session's worth of share evaluations
  instead of N.  Responses are bit-identical to per-request handling
  (share evaluation is deterministic per (node, point)), which the test
  suite asserts.

* Sessions are pipelined: the reader keeps accepting frames while
  earlier requests are still being evaluated, and responses are written
  strictly in request order.  A client may then overlap its own share
  generation with server evaluation (see
  :meth:`AsyncServerInterface.begin_frontier`).

Request handling runs in a thread-pool executor so the event loop stays
responsive for frame I/O; errors are reported in-band as
:class:`~repro.net.messages.ErrorResponse` frames, so one bad request
does not kill a session (an unframeable byte stream does — there is no
way to resynchronise).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from collections import deque

from ..core.query import FrontierResult
from ..errors import (
    ProtocolError,
    ReproError,
    ServerBusyError,
    TransientServerError,
)
from .channel import ChannelStats
from .engine import ServingCore
from .framing import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameAssembler,
    encode_frame,
)
from .messages import (
    SUPPORTED_PROTOCOL_VERSIONS,
    BusyResponse,
    ErrorResponse,
    FrontierRequest,
    FrontierResponse,
    HelloRequest,
    HelloResponse,
    Message,
    PruneNotice,
    StructureRequest,
    StructureResponse,
    decode_message,
)
from .server import SearchServer

__all__ = [
    "AsyncSearchServer",
    "AsyncServerInterface",
    "AsyncServerHandle",
    "start_async_server",
]


def _raise_in_band_failure(response: Message) -> None:
    """Re-raise the server's in-band failure replies as their exceptions."""
    if isinstance(response, BusyResponse):
        raise ServerBusyError(
            f"the server shed the request (retry after "
            f"{response.retry_after_s}s)",
            retry_after_s=response.retry_after_s)
    if isinstance(response, ErrorResponse):
        if response.retryable:
            raise TransientServerError(response.error)
        raise ProtocolError(response.error)


class AsyncSearchServer:
    """Asyncio TCP server multiplexing framed sessions over one event loop.

    ``core`` may be a :class:`~repro.net.engine.ServingCore` (shared with
    other transports) or anything :class:`~repro.net.server.SearchServer`
    accepts as a document source.  All CPU-bound message handling runs in
    the event loop's default thread-pool executor; frontier requests take
    the coalescing path described in the module docstring.
    """

    def __init__(self, core: Union[ServingCore, object],
                 host: str = "127.0.0.1", port: int = 0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 queue_limit: int = 0,
                 busy_retry_after_s: float = 0.05,
                 session_timeout_s: Optional[float] = 300.0,
                 drain_timeout_s: float = 10.0,
                 tick_size: int = 0) -> None:
        self.core = core if isinstance(core, ServingCore) else SearchServer(core)
        self.host = host
        self.requested_port = port
        self.max_frame_bytes = max_frame_bytes
        #: Coalescer backlog bound; ``0`` means unbounded.  The threshold
        #: is enforced against the live queue-depth *gauge* (the same
        #: number operators scrape): a frontier request arriving while
        #: the gauge is at the limit is shed with an in-band
        #: :class:`~repro.net.messages.BusyResponse` carrying
        #: ``busy_retry_after_s`` — graceful degradation, not a dropped
        #: connection.
        self.queue_limit = int(queue_limit)
        self.busy_retry_after_s = float(busy_retry_after_s)
        #: Cap on how many queued frontier requests one coalesced tick
        #: drains; ``0`` means "everything queued" (the adaptive
        #: default).  ``1`` disables coalescing entirely — the knob the
        #: BENCH_3/BENCH_7 tick-size sweeps turn.
        self.tick_size = int(tick_size)
        #: Per-session read/write inactivity bound; ``None`` disables it.
        #: A session that neither sends a parseable frame nor accepts a
        #: response within the bound is dropped, so one stuck peer cannot
        #: pin session resources forever.
        self.session_timeout_s = session_timeout_s
        #: How long :meth:`stop` waits for in-flight requests to finish
        #: before cancelling what remains.
        self.drain_timeout_s = float(drain_timeout_s)
        #: Per-session byte/round-trip accounting, in accept order.  Bounded
        #: so a long-lived daemon does not accumulate one entry per
        #: connection ever made; the newest sessions win.
        self.session_stats: Deque[ChannelStats] = deque(maxlen=4096)
        # Coalescer accounting lives in the serving stack's metrics
        # registry; the attribute API below is read-only views over it.
        metrics = self.core.metrics
        self._shed = metrics.counter("coalescer_shed_total")
        self._batches = metrics.counter("coalescer_batches_total")
        self._batched_requests = metrics.counter("coalescer_requests_total")
        self._largest_batch = metrics.gauge("coalescer_largest_batch")
        #: Live backlog of the coalescer queue; drives the backpressure
        #: decision in :meth:`_submit_frontier`.
        self._queue_depth = metrics.gauge("coalescer_queue_depth")
        self._bytes_in = metrics.counter("transport_bytes_to_server",
                                         transport="async")
        self._bytes_out = metrics.counter("transport_bytes_to_client",
                                          transport="async")
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._coalescer_task: Optional[asyncio.Task] = None
        self._sessions: set = set()
        #: Outstanding per-request handler tasks (for graceful draining).
        self._inflight: set = set()

    # -- registry-backed accounting views ---------------------------------------------
    @property
    def shed_requests(self) -> int:
        """Requests shed with a busy reply (backpressure)."""
        return self._shed.value

    @property
    def coalesced_batches(self) -> int:
        """How many coalesced store passes the server ran."""
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
    @property
    def port(self) -> int:
        """The bound TCP port (only valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ProtocolError("the async server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "AsyncSearchServer":
        """Bind the listener and start the coalescer (returns self).

        The queue itself is unbounded; the backpressure bound is enforced
        in :meth:`_submit_frontier` against the queue-depth gauge so the
        shed decision and the scraped number can never disagree.
        """
        self._queue = asyncio.Queue()
        self._coalescer_task = asyncio.create_task(self._coalesce_forever())
        self._server = await asyncio.start_server(
            self._handle_session, self.host, self.requested_port)
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled (used by ``repro.cli serve --async``)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight rounds, close.

        The listener closes first (no new sessions), then in-flight
        request handling gets up to ``drain_timeout_s`` to produce its
        responses — a round that already cost a store pass is answered,
        not thrown away — and only then are the remaining session tasks
        cancelled and the coalescer stopped.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._inflight and self.drain_timeout_s > 0:
            await asyncio.wait(list(self._inflight),
                               timeout=self.drain_timeout_s)
        for task in list(self._sessions):
            task.cancel()
        if self._sessions:
            await asyncio.gather(*self._sessions, return_exceptions=True)
        if self._coalescer_task is not None:
            assert self._queue is not None
            await self._queue.put(None)
            await self._coalescer_task
            self._coalescer_task = None

    # -- the coalescer ---------------------------------------------------------------
    async def _submit_frontier(self, message: FrontierRequest) -> Message:
        """Queue a frontier request for the next coalesced pass.

        With a bounded queue, a full coalescer backlog sheds the request
        via an in-band busy reply instead of queueing unboundedly: the
        client's session (and its negotiated state) survives, and the
        carried retry-after hint paces its retry.
        """
        assert self._queue is not None
        if self.queue_limit and self._queue_depth.value >= self.queue_limit:
            self._shed.inc()
            self.core.count_transport_shed(message, reason="backpressure")
            return BusyResponse(retry_after_s=self.busy_retry_after_s)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((message, future))
        self._queue_depth.inc()
        return await future

    async def _coalesce_forever(self) -> None:
        """Drain the frontier queue in ticks: everything queued, one pass.

        While a pass is being evaluated in the executor, newly arriving
        requests pile up in the queue and form the next tick's batch —
        under concurrent load the batch size converges on the number of
        active sessions without any timer.  A non-zero :attr:`tick_size`
        caps the drain (``1`` disables coalescing) so the tick-size
        sweeps can measure what the batching is actually worth.
        """
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                return
            self._queue_depth.dec()
            batch: List[Tuple[FrontierRequest, asyncio.Future]] = [item]
            while self.tick_size <= 0 or len(batch) < self.tick_size:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    await self._finish_batch(loop, batch)
                    return
                self._queue_depth.dec()
                batch.append(extra)
            await self._finish_batch(loop, batch)

    async def _finish_batch(self, loop: asyncio.AbstractEventLoop,
                            batch: List[Tuple[FrontierRequest, asyncio.Future]]
                            ) -> None:
        messages = [message for message, _ in batch]
        try:
            # frontier_batch isolates per-request failures itself (a bad
            # request comes back as an in-band ErrorResponse); anything
            # that still escapes is a backend failure affecting the whole
            # tick — it must never kill the coalescer, so it is mapped to
            # error responses here and the loop carries on.
            responses: Sequence[Message] = await loop.run_in_executor(
                None, self.core.frontier_batch, messages)
        except Exception as exc:  # noqa: BLE001 - coalescer must survive
            responses = [ErrorResponse(str(exc)) for _ in batch]
        self._batches.inc()
        self._batched_requests.inc(len(batch))
        if len(batch) > self._largest_batch.value:
            self._largest_batch.set(len(batch))
        for (_, future), response in zip(batch, responses):
            if not future.done():
                future.set_result(response)

    # -- sessions --------------------------------------------------------------------
    async def _handle_session(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._sessions.add(task)
            task.add_done_callback(self._sessions.discard)
        stats = ChannelStats()
        self.session_stats.append(stats)
        assembler = FrameAssembler(self.max_frame_bytes)
        pending: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(
            self._write_responses(writer, pending, stats))
        try:
            while True:
                read = reader.read(65536)
                if self.session_timeout_s is not None:
                    read = asyncio.wait_for(read, self.session_timeout_s)
                try:
                    chunk = await read
                except asyncio.TimeoutError:
                    break     # idle/stuck session: reclaim its resources
                if not chunk:
                    break
                try:
                    payloads = assembler.feed(chunk)
                except ProtocolError as exc:
                    # Unframeable stream: report once, then drop the
                    # session (there is no resynchronisation point).
                    await pending.put(self._immediate(ErrorResponse(str(exc))))
                    break
                for payload in payloads:
                    stats.bytes_to_server += len(payload)
                    stats.requests += 1
                    self._bytes_in.inc(len(payload))
                    # Pipelining: keep reading while this request is
                    # handled; the writer preserves request order.
                    answer = asyncio.ensure_future(self._answer(payload))
                    self._inflight.add(answer)
                    answer.add_done_callback(self._inflight.discard)
                    await pending.put(answer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            await pending.put(None)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            except Exception:  # noqa: BLE001 - cleanup must always run
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # stop() cancels sessions mid-close; nothing to flush

    @staticmethod
    def _immediate(message: Message) -> "asyncio.Future":
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        future.set_result(message)
        return future

    async def _answer(self, payload: bytes) -> Message:
        """Handle one framed request; failures become in-band errors.

        Every request — even a cheap structural one — goes through the
        executor: any handler may block on a document lock held by a
        long coalesced pass, and the event loop must keep serving frame
        I/O for every other session while it waits.
        """
        try:
            message = decode_message(payload)
        except ReproError as exc:
            return ErrorResponse(str(exc))
        try:
            if isinstance(message, FrontierRequest):
                return await self._submit_frontier(message)
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, self.core.handle, message)
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            # Preserves the failure class in-band: busy shedding becomes
            # a BusyResponse, transient store failures a retryable error.
            return ServingCore.error_response(exc)
        except Exception as exc:  # noqa: BLE001 - answered in-band
            return ErrorResponse(str(exc))

    async def _write_responses(self, writer: asyncio.StreamWriter,
                               pending: asyncio.Queue,
                               stats: ChannelStats) -> None:
        while True:
            future = await pending.get()
            if future is None:
                return
            response: Message = await future
            try:
                frame = encode_frame(response.encode(), self.max_frame_bytes)
            except ProtocolError as exc:
                # The handler produced a response above the frame limit
                # (e.g. a verification fetch over a huge closure); the
                # session must still get *an* answer in order.
                response = ErrorResponse(
                    f"response exceeds the frame limit: {exc}")
                frame = encode_frame(response.encode(), self.max_frame_bytes)
            writer.write(frame)
            drain = writer.drain()
            if self.session_timeout_s is not None:
                drain = asyncio.wait_for(drain, self.session_timeout_s)
            try:
                await drain
            except asyncio.TimeoutError:
                # The peer stopped reading: drop the session rather than
                # buffer responses for it indefinitely.
                return
            stats.bytes_to_client += len(frame) - FRAME_HEADER_BYTES
            stats.responses += 1
            self._bytes_out.inc(len(frame) - FRAME_HEADER_BYTES)


class AsyncServerInterface:
    """Async-native client session against a framed socket server.

    Mirrors :class:`~repro.net.client.RemoteServerAdapter` method for
    method, with every call a coroutine, and adds
    :meth:`begin_frontier`: the request frame goes out immediately and
    the caller gets a future for the response, so client-side share
    generation for the round overlaps the server's evaluation of it
    (pipelined rounds).  Responses are matched to requests by order —
    the session is the only writer on its connection, and the server
    answers in request order even when it pipelines internally.

    Open with :meth:`open`; close with :meth:`close`.  Byte and
    round-trip totals land in :attr:`stats` (one
    :class:`~repro.net.channel.ChannelStats` per session, as with every
    other transport).
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, ring,
                 document_id: Optional[str] = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.ring = ring
        self.document_id = document_id
        self.max_frame_bytes = max_frame_bytes
        self.stats = ChannelStats()
        self.protocol_version: Optional[int] = None
        self._reader = reader
        self._writer = writer
        self._assembler = FrameAssembler(max_frame_bytes)
        self._pending: Deque[asyncio.Future] = deque()
        self._pending_prune: List[int] = []
        self._structure: Optional[Tuple[int, int]] = None
        #: Terminal session failure; set once the reader dies so later
        #: requests fail fast instead of hanging on a never-resolved future.
        self._failure: Optional[ProtocolError] = None
        self._reader_task = asyncio.create_task(self._read_responses())

    @classmethod
    async def open(cls, host: str, port: int, ring,
                   document_id: Optional[str] = None,
                   protocol_version: Optional[int] = None,
                   max_frame_bytes: int = MAX_FRAME_BYTES
                   ) -> "AsyncServerInterface":
        """Connect, run the hello negotiation, and return a live session."""
        reader, writer = await asyncio.open_connection(host, port)
        session = cls(reader, writer, ring, document_id=document_id,
                      max_frame_bytes=max_frame_bytes)
        try:
            if protocol_version == 1:
                session.protocol_version = 1   # legacy: no hello exchange in v1
            else:
                versions = (SUPPORTED_PROTOCOL_VERSIONS
                            if protocol_version is None else [protocol_version])
                response = await session._request(HelloRequest(versions),
                                                  HelloResponse)
                if response.version not in versions:
                    raise ProtocolError(
                        f"server negotiated protocol version "
                        f"{response.version}, which this client did not "
                        f"offer ({list(versions)})")
                session.protocol_version = response.version
                if response.root_id is not None:
                    session._structure = (response.root_id,
                                          response.node_count)
        except BaseException:
            await session.close()   # no leaked socket/reader on failed hello
            raise
        return session

    @property
    def batched_rounds(self) -> bool:
        """v2 sessions answer whole frontier rounds in one exchange."""
        return (self.protocol_version or 0) >= 2

    # -- plumbing --------------------------------------------------------------------
    async def _read_responses(self) -> None:
        try:
            while True:
                chunk = await self._reader.read(65536)
                if not chunk:
                    raise ProtocolError("the server closed the connection")
                for payload in self._assembler.feed(chunk):
                    self.stats.bytes_to_client += len(payload)
                    self.stats.responses += 1
                    if not self._pending:
                        raise ProtocolError("unsolicited response frame")
                    future = self._pending.popleft()
                    if not future.done():
                        future.set_result(decode_message(payload))
        except (asyncio.CancelledError, ConnectionError, ProtocolError) as exc:
            cancelled = isinstance(exc, asyncio.CancelledError)
            if not cancelled:
                self._failure = (exc if isinstance(exc, ProtocolError)
                                 else ProtocolError(str(exc)))
            while self._pending:
                future = self._pending.popleft()
                if not future.done():
                    if cancelled:
                        future.cancel()
                    else:
                        future.set_exception(self._failure)

    def _send(self, message: Message) -> "asyncio.Future":
        """Write one request frame now; return a future for its response."""
        if self._failure is not None:
            raise self._failure
        if self._reader_task.done():
            raise ProtocolError("the session is closed")
        if self.document_id is not None:
            message.for_document(self.document_id)
        encoded = message.encode()
        self._writer.write(encode_frame(encoded, self.max_frame_bytes))
        self.stats.bytes_to_server += len(encoded)
        self.stats.requests += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        return future

    async def _request(self, message: Message, expected: type) -> Message:
        response = await self._send(message)
        await self._drain()
        _raise_in_band_failure(response)
        if not isinstance(response, expected):
            raise ProtocolError(f"unexpected response {response.kind!r}")
        return response

    async def _drain(self) -> None:
        try:
            await self._writer.drain()
        except ConnectionError as exc:
            raise ProtocolError(str(exc)) from exc

    def _take_prunes(self) -> List[int]:
        pending, self._pending_prune = self._pending_prune, []
        return pending

    async def _structure_summary(self) -> Tuple[int, int]:
        if self._structure is None:
            response = await self._request(StructureRequest(), StructureResponse)
            self._structure = (response.root_id, response.node_count)
        return self._structure

    # -- the async ServerInterface surface -------------------------------------------
    async def root_id(self) -> int:
        """Identifier of the root node."""
        return (await self._structure_summary())[0]

    async def node_count(self) -> int:
        """Total number of nodes stored (public)."""
        return (await self._structure_summary())[1]

    async def children_of(self, node_ids: Sequence[int]) -> Dict[int, List[int]]:
        """Public child lists for a batch of nodes."""
        from .messages import ChildrenRequest, ChildrenResponse

        response = await self._request(ChildrenRequest(node_ids),
                                       ChildrenResponse)
        return response.children

    async def evaluate(self, node_ids: Sequence[int], point: int
                       ) -> Dict[int, int]:
        """Server-share evaluations at ``point`` for a batch of nodes."""
        from .messages import EvaluateRequest, EvaluateResponse

        response = await self._request(EvaluateRequest(node_ids, point),
                                       EvaluateResponse)
        return response.values

    async def fetch_polynomials(self, node_ids: Sequence[int]
                                ) -> Dict[int, object]:
        """Full server-share polynomials."""
        return {node_id: self.ring.from_coefficients(row)
                for node_id, row in
                (await self.fetch_polynomial_rows(node_ids)).items()}

    async def fetch_polynomial_rows(self, node_ids: Sequence[int]
                                    ) -> Dict[int, Sequence[int]]:
        """Server-share coefficient rows as decoded (FULL verification)."""
        from .messages import FetchPolynomialsRequest, FetchPolynomialsResponse

        if self.batched_rounds:
            request = FrontierRequest(prune=self._take_prunes(),
                                      include_children=False,
                                      fetch_polynomials=node_ids)
            response = await self._request(request, FrontierResponse)
            return {node_id: response.polynomials[node_id]
                    for node_id in node_ids}
        response = await self._request(FetchPolynomialsRequest(node_ids),
                                       FetchPolynomialsResponse)
        return response.coefficients

    async def fetch_constants(self, node_ids: Sequence[int]) -> Dict[int, int]:
        """Constant coefficients of server shares (CONSTANT_ONLY mode)."""
        from .messages import FetchConstantsRequest, FetchConstantsResponse

        if self.batched_rounds:
            request = FrontierRequest(prune=self._take_prunes(),
                                      include_children=False,
                                      fetch_constants=node_ids)
            response = await self._request(request, FrontierResponse)
            return {node_id: response.constants[node_id]
                    for node_id in node_ids}
        response = await self._request(FetchConstantsRequest(node_ids),
                                       FetchConstantsResponse)
        return response.constants

    async def prune(self, node_ids: Sequence[int]) -> None:
        """Notify dead branches (buffered onto the next v2 request)."""
        if self.batched_rounds:
            self._pending_prune.extend(node_ids)
            return
        await self._request(PruneNotice(node_ids), Message)

    async def update(self, request: "Message") -> "Message":
        """Send one v3 update batch; returns the UpdateResponse.

        The async twin of
        :meth:`~repro.net.client.RemoteServerAdapter.apply_update`: a
        :class:`~repro.net.messages.ConflictResponse` raises
        :class:`~repro.errors.UpdateConflictError` with the conflicting
        ids and current versions, an in-band error raises its mapped
        exception, anything else must be an
        :class:`~repro.net.messages.UpdateResponse`.
        """
        from ..errors import UpdateConflictError
        from .messages import ConflictResponse, UpdateResponse

        if self.protocol_version < 3:
            raise ProtocolError(
                f"remote updates need protocol v3; this session negotiated "
                f"v{self.protocol_version}")
        response = await self._request(request, Message)
        if isinstance(response, ConflictResponse):
            raise UpdateConflictError(
                f"update batch rejected: nodes {response.conflicts} changed "
                "under this client (refetch and rebase)",
                conflicts=response.conflicts, versions=response.versions)
        if not isinstance(response, UpdateResponse):
            raise ProtocolError(f"unexpected response {response.kind!r}")
        return response

    def begin_frontier(self, node_ids: Sequence[int], points: Sequence[int],
                       prune: Sequence[int] = (),
                       include_children: bool = True,
                       lookahead: int = 0) -> "asyncio.Future":
        """Fire a frontier request *now*, answer later (pipelined round).

        The frame is written immediately; the returned future resolves to
        the raw :class:`~repro.net.messages.FrontierResponse`.  Between
        the two the caller is free to evaluate its own shares for the
        round — that client-side work overlaps the server's store pass.
        v2 sessions only: v1 has no frontier message.
        """
        if not self.batched_rounds:
            raise ProtocolError(
                "begin_frontier needs a v2 session; this session speaks "
                f"protocol version {self.protocol_version}")
        self._pending_prune.extend(prune)
        request = FrontierRequest(node_ids, points, prune=self._take_prunes(),
                                  include_children=include_children,
                                  lookahead=lookahead)
        return self._send(request)

    async def frontier_round(self, node_ids: Sequence[int],
                             points: Sequence[int],
                             prune: Sequence[int] = (),
                             include_children: bool = True,
                             lookahead: int = 0) -> FrontierResult:
        """One whole descent round: single exchange on v2, composed on v1."""
        if not self.batched_rounds:
            # v1: compose the per-kind primitives, one exchange each,
            # exactly like the sync RemoteServerAdapter's fallback.
            round_trips = 0
            if prune:
                await self.prune(list(prune))
                round_trips += 1
            evaluations: Dict[int, Dict[int, int]] = {}
            for point in points:
                evaluations[point] = await self.evaluate(node_ids, point)
                round_trips += 1
            children: Dict[int, List[int]] = {}
            if include_children and node_ids:
                children = await self.children_of(node_ids)
                round_trips += 1
            return FrontierResult(evaluations, children, round_trips)
        future = self.begin_frontier(node_ids, points, prune=prune,
                                     include_children=include_children,
                                     lookahead=lookahead)
        await self._drain()
        response = await future
        _raise_in_band_failure(response)
        if not isinstance(response, FrontierResponse):
            raise ProtocolError(f"unexpected response {response.kind!r}")
        return FrontierResult(response.evaluations, response.children,
                              round_trips=1)

    async def verification_bundle(self, node_ids: Sequence[int],
                                  constants_only: bool = False
                                  ) -> Tuple[Dict[int, List[int]],
                                             Dict[int, object], int]:
        """Child lists plus share data for ``node_ids`` and their children.

        Share data as the sync adapter returns it: coefficient rows as
        decoded (or constant coefficients when ``constants_only``).
        """
        if not self.batched_rounds:
            # v1: a children exchange plus a fetch over the closure.
            children = await self.children_of(node_ids)
            needed = sorted(set(node_ids) | {
                child for node_id in node_ids for child in children[node_id]})
            if constants_only:
                data: Dict[int, object] = dict(
                    await self.fetch_constants(needed))
            else:
                data = dict(await self.fetch_polynomial_rows(needed))
            return children, data, 2
        request = FrontierRequest(
            prune=self._take_prunes(), include_children=True,
            fetch_constants=node_ids if constants_only else (),
            fetch_polynomials=() if constants_only else node_ids)
        response = await self._request(request, FrontierResponse)
        if constants_only:
            data = dict(response.constants)
        else:
            data = dict(response.polynomials)
        children = {node_id: response.children[node_id] for node_id in node_ids}
        return children, data, 1

    async def close(self) -> None:
        """Tear the session down (cancels the response reader)."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class AsyncServerHandle:
    """A running :class:`AsyncSearchServer` on a background event loop.

    Lets synchronous code (the CLI, BENCH_3, pytest) start and stop the
    asyncio transport without owning an event loop.  Use as a context
    manager or call :meth:`stop` explicitly.
    """

    def __init__(self, server: AsyncSearchServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        """The TCP port the server listens on."""
        return self.server.port

    def stop(self) -> None:
        """Stop the server and join the loop thread."""
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop).result(timeout=10.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "AsyncServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_async_server(core: Union[ServingCore, object],
                       host: str = "127.0.0.1", port: int = 0,
                       max_frame_bytes: int = MAX_FRAME_BYTES,
                       queue_limit: int = 0,
                       busy_retry_after_s: float = 0.05,
                       session_timeout_s: Optional[float] = 300.0,
                       drain_timeout_s: float = 10.0,
                       tick_size: int = 0) -> AsyncServerHandle:
    """Run an :class:`AsyncSearchServer` on a fresh background event loop."""
    loop = asyncio.new_event_loop()
    server = AsyncSearchServer(core, host=host, port=port,
                               max_frame_bytes=max_frame_bytes,
                               queue_limit=queue_limit,
                               busy_retry_after_s=busy_retry_after_s,
                               session_timeout_s=session_timeout_s,
                               drain_timeout_s=drain_timeout_s,
                               tick_size=tick_size)
    started = threading.Event()
    failure: List[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # pragma: no cover - bind failures
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=run, name="async-search-server",
                              daemon=True)
    thread.start()
    started.wait(timeout=10.0)
    if failure:
        raise failure[0]
    return AsyncServerHandle(server, loop, thread)
