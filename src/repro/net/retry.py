"""Retry policy and the resilient client: reconnect, replay, resume.

The query protocol is a strict request/response ladder, which makes
client-side fault tolerance unusually clean: the client's descent state
(the frontier, accumulated evaluations, pending prunes) lives entirely in
:class:`~repro.core.query.QueryEngine` and
:class:`~repro.net.client.RemoteServerAdapter`, so recovering from a dead
connection only requires (1) a fresh channel, (2) replaying the HELLO
negotiation to confirm the session's protocol version, and (3) retrying
the one in-flight request.  The descent then *resumes* from the current
frontier — no restart from the root.

Failure taxonomy (see :mod:`repro.errors`):

* :class:`~repro.errors.TransportError` / ``ConnectionError`` /
  ``OSError`` — the connection died.  *Ambiguous*: the server may have
  processed the request before the reply was lost.  The resilient channel
  reconnects, re-negotiates HELLO, and replays the request **with the
  same idempotency key**, so a server that did process it answers
  bit-identically from its idempotency cache instead of processing (and
  observing) it twice.  This is exactly what makes
  :class:`~repro.net.messages.UpdateRequest` batches safe to replay: a
  batch that *committed* before the reply was lost is answered with the
  cached :class:`~repro.net.messages.UpdateResponse` (or cached
  :class:`~repro.net.messages.ConflictResponse`) instead of being
  applied — or version-checked — a second time.
* :class:`~repro.errors.ServerBusyError` — the server shed the request
  in-band.  The session is healthy: no reconnect, wait the server's
  ``retry_after_s`` hint (or the policy backoff, whichever is larger) and
  retry.
* :class:`~repro.errors.TransientServerError` — the request failed
  server-side but is expected to succeed on retry (e.g. a store hiccup).
  Retry on the same session.
* any other :class:`~repro.errors.ProtocolError` — a real protocol
  violation; retrying would repeat it, so it propagates immediately.

Retries are bounded three ways by :class:`RetryPolicy` — attempts per
request, a per-request deadline, and a per-session retry *budget* — and
spaced by capped exponential backoff with **seeded** jitter, so tests and
benchmarks replay identical schedules.
"""

from __future__ import annotations

import random
import time
import uuid
from typing import Callable, List, Optional, Tuple

from ..errors import (
    ProtocolError,
    RetryExhaustedError,
    ServerBusyError,
    TransientServerError,
    TransportError,
)
from ..obs import MetricsRegistry
from .channel import ChannelStats, LatencyModel, SocketChannel
from .client import RemoteServerAdapter
from .messages import HelloRequest, HelloResponse, Message

__all__ = [
    "RetryPolicy",
    "ResilientChannel",
    "ResilientServerInterface",
    "connect_resilient",
    "connect_resilient_socket",
]


class RetryPolicy:
    """Bounds and pacing for a resilient client's retries.

    * ``max_attempts`` — tries per request (first attempt included);
    * ``deadline_s`` — wall-clock budget per request (``None`` = none);
    * ``retry_budget`` — total retries across the whole session
      (``None`` = unlimited): a session burning its budget fails fast
      instead of grinding through a dead server one deadline at a time;
    * ``base_backoff_s``/``max_backoff_s`` — capped exponential backoff:
      attempt *n* waits ``min(base * 2**(n-1), max)`` seconds, scaled by
      a seeded jitter factor in ``[1 - jitter, 1]`` so synchronized
      clients desynchronize deterministically.

    ``sleep`` and ``clock`` are injectable; chaos tests pass a no-op
    sleep so hundreds of injected faults retry without real waiting.
    """

    def __init__(self, max_attempts: int = 6,
                 deadline_s: Optional[float] = 30.0,
                 base_backoff_s: float = 0.05,
                 max_backoff_s: float = 2.0,
                 jitter: float = 0.5,
                 retry_budget: Optional[int] = None,
                 seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_attempts = int(max_attempts)
        self.deadline_s = deadline_s
        self.base_backoff_s = float(base_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.jitter = float(jitter)
        self.retry_budget = retry_budget
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.sleep = sleep
        self.clock = clock

    def backoff_s(self, attempt: int) -> float:
        """Jittered delay before retry number ``attempt`` (1-based)."""
        raw = min(self.base_backoff_s * (2 ** max(attempt - 1, 0)),
                  self.max_backoff_s)
        if self.jitter:
            raw *= 1.0 - self.jitter * self._rng.random()
        return raw


class ResilientChannel:
    """A channel that survives resets, busy shedding and transient errors.

    Wraps a *factory* of plain channels rather than one channel: on a
    transport failure the current channel is closed and the factory
    produces a replacement, over which the HELLO exchange is replayed
    before the in-flight request.  Every non-HELLO request is stamped
    with a unique idempotency key on its first attempt and replayed with
    the same key, making ambiguous failures safe (see module docstring).

    ``stats`` is the *logical* ledger — each request() call that
    ultimately succeeds counts once, replays excluded — mirroring what a
    fault-free run of the same lookups would record, so bandwidth
    figures stay comparable under injected faults.  The physical cost of
    recovery is reported separately via ``retries``, ``reconnects`` and
    ``busy_waits`` — read-only views over counters in the channel's
    :class:`~repro.obs.MetricsRegistry`, next to two latency histograms:
    ``client_attempt_physical_seconds`` times every individual wire
    attempt (failures included), ``client_request_logical_seconds``
    times whole ``request()`` calls — backoff sleeps, reconnects and
    replays folded in — so the gap between the two distributions *is*
    the client-visible cost of recovery.
    """

    def __init__(self, channel_factory: Callable[[], object],
                 policy: Optional[RetryPolicy] = None,
                 request_id_prefix: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.channel_factory = channel_factory
        self.policy = policy if policy is not None else RetryPolicy()
        #: Unique per session so two clients never collide on a key;
        #: injectable for byte-deterministic tests.
        self.request_id_prefix = (request_id_prefix if request_id_prefix
                                  is not None else uuid.uuid4().hex[:12])
        #: Private per client unless a shared registry is passed in.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ChannelStats(self.metrics)
        self.transcript: List[Tuple[str, str]] = []
        self._retry_counter = self.metrics.counter("client_retries_total")
        self._reconnect_counter = self.metrics.counter(
            "client_reconnects_total")
        self._busy_counter = self.metrics.counter("client_busy_waits_total")
        self._physical_seconds = self.metrics.histogram(
            "client_attempt_physical_seconds")
        self._logical_seconds = self.metrics.histogram(
            "client_request_logical_seconds")
        self._channel: Optional[object] = None
        self._request_counter = 0
        self._retries_spent = 0
        self._hello_request: Optional[HelloRequest] = None
        self._negotiated_version: Optional[int] = None

    # -- registry-backed accounting views --------------------------------------
    @property
    def retries(self) -> int:
        """Replayed attempts across the session (all failure classes)."""
        return self._retry_counter.value

    @property
    def reconnects(self) -> int:
        """Fresh channels built after a transport failure."""
        return self._reconnect_counter.value

    @property
    def busy_waits(self) -> int:
        """In-band busy replies honoured with a paced wait."""
        return self._busy_counter.value

    # -- connection management -------------------------------------------------
    def _drop_channel(self) -> None:
        channel, self._channel = self._channel, None
        if channel is not None:
            close = getattr(channel, "close", None)
            if close is not None:
                try:
                    close()
                except OSError:
                    pass

    def _ensure_channel(self, negotiating: bool):
        """Return a live channel, re-negotiating HELLO after a reconnect."""
        if self._channel is not None:
            return self._channel
        channel = self.channel_factory()
        if self.stats.requests or self.retries or self._hello_request is not None:
            self._reconnect_counter.inc()
        if self._hello_request is not None and not negotiating:
            # Restore the session contract on the new connection before
            # replaying the interrupted request.  A server that now
            # negotiates a different version would silently change the
            # wire semantics mid-descent — refuse loudly instead.
            try:
                response = channel.request(self._hello_request)
            except BaseException:
                close = getattr(channel, "close", None)
                if close is not None:
                    try:
                        close()
                    except OSError:
                        pass
                raise
            if not isinstance(response, HelloResponse):
                raise ProtocolError(
                    f"unexpected response {response.kind!r} to the replayed "
                    "hello")
            if response.version != self._negotiated_version:
                raise ProtocolError(
                    f"server re-negotiated protocol version "
                    f"{response.version} after reconnect; the session was "
                    f"on version {self._negotiated_version}")
        self._channel = channel
        return channel

    # -- the retry loop --------------------------------------------------------
    def request(self, message: Message) -> Message:
        policy = self.policy
        negotiating = isinstance(message, HelloRequest)
        if not negotiating and message.request_id is None:
            self._request_counter += 1
            message.with_request_id(
                f"{self.request_id_prefix}-{self._request_counter}")
        started = policy.clock()
        deadline = (started + policy.deadline_s
                    if policy.deadline_s is not None else None)
        attempt = 0
        while True:
            attempt += 1
            failure: Exception
            attempt_started = policy.clock()
            try:
                channel = self._ensure_channel(negotiating)
                # The inner channel counts the attempt's bytes as they cross
                # the wire; its delta leaves out a reconnect's hello.
                sent = channel.stats.bytes_to_server
                received = channel.stats.bytes_to_client
                response = channel.request(message)
            except ServerBusyError as exc:
                # The session is healthy — honour the server's hint.
                failure = exc
                delay = max(exc.retry_after_s, policy.backoff_s(attempt))
                self._busy_counter.inc()
            except TransientServerError as exc:
                failure = exc
                delay = policy.backoff_s(attempt)
            except (TransportError, ConnectionError, OSError) as exc:
                failure = exc
                delay = policy.backoff_s(attempt)
                self._drop_channel()
            else:
                if negotiating:
                    self._hello_request = message
                    self._negotiated_version = response.version
                self.stats.record_request(channel.stats.bytes_to_server - sent)
                self.stats.record_response(
                    channel.stats.bytes_to_client - received)
                self.transcript.append((message.kind, response.kind))
                self._logical_seconds.observe(policy.clock() - started)
                return response
            finally:
                # Physical timing covers every individual wire attempt,
                # failed ones included; the logical histogram above only
                # sees whole successful request() calls.
                self._physical_seconds.observe(
                    policy.clock() - attempt_started)
            if attempt >= policy.max_attempts:
                raise RetryExhaustedError(
                    f"{message.kind!r} request failed after {attempt} "
                    f"attempts: {failure}") from failure
            if (policy.retry_budget is not None
                    and self._retries_spent >= policy.retry_budget):
                raise RetryExhaustedError(
                    f"session retry budget ({policy.retry_budget}) spent; "
                    f"giving up on {message.kind!r}: {failure}") from failure
            if deadline is not None and policy.clock() + delay > deadline:
                raise RetryExhaustedError(
                    f"{message.kind!r} request deadline "
                    f"({policy.deadline_s}s) exceeded after {attempt} "
                    f"attempts: {failure}") from failure
            self._retries_spent += 1
            self._retry_counter.inc()
            policy.sleep(delay)

    # -- channel surface -------------------------------------------------------
    def simulated_seconds(self) -> float:
        if self._channel is None:
            return 0.0
        simulated = getattr(self._channel, "simulated_seconds", None)
        return simulated() if simulated is not None else 0.0

    def close(self) -> None:
        self._drop_channel()

    def __enter__(self) -> "ResilientChannel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ResilientServerInterface(RemoteServerAdapter):
    """A :class:`~repro.net.client.RemoteServerAdapter` that rides out faults.

    Identical to the plain adapter — same descent, same batched
    rounds, same byte-for-byte messages modulo the idempotency key — but
    every exchange goes through a :class:`ResilientChannel`, so the
    query engine on top never sees a reset connection or a shed request,
    only (at worst) :class:`~repro.errors.RetryExhaustedError`.  Because
    the adapter's frontier state lives client-side, a reconnect resumes
    the descent exactly where it stopped.
    """

    def __init__(self, channel_factory: Callable[[], object], ring,
                 document_id: Optional[str] = None,
                 policy: Optional[RetryPolicy] = None,
                 request_id_prefix: Optional[str] = None) -> None:
        resilient = ResilientChannel(channel_factory, policy=policy,
                                     request_id_prefix=request_id_prefix)
        try:
            super().__init__(resilient, ring, document_id=document_id)
        except BaseException:
            resilient.close()
            raise

    def close(self) -> None:
        """Close the underlying channel (and its socket, if any)."""
        self.channel.close()


def connect_resilient(channel_factory: Callable[[], object], ring,
                      document_id: Optional[str] = None,
                      policy: Optional[RetryPolicy] = None,
                      request_id_prefix: Optional[str] = None
                      ) -> Tuple[ResilientServerInterface, ResilientChannel]:
    """Open a resilient session over channels produced by ``channel_factory``.

    The factory runs once per (re)connect; composing it with
    :class:`~repro.net.faults.FaultyChannel` is how the chaos tests
    build clients whose transport fails on schedule.
    """
    adapter = ResilientServerInterface(channel_factory, ring,
                                       document_id=document_id,
                                       policy=policy,
                                       request_id_prefix=request_id_prefix)
    return adapter, adapter.channel


def connect_resilient_socket(host: str, port: int, ring,
                             document_id: Optional[str] = None,
                             policy: Optional[RetryPolicy] = None,
                             latency_model: Optional[LatencyModel] = None,
                             timeout_s: Optional[float] = 30.0,
                             request_id_prefix: Optional[str] = None
                             ) -> Tuple[ResilientServerInterface,
                                        ResilientChannel]:
    """Resilient TCP session: :func:`connect_socket` plus reconnect/replay."""
    def factory() -> SocketChannel:
        return SocketChannel(host, port, latency_model=latency_model,
                             timeout_s=timeout_s)

    return connect_resilient(factory, ring, document_id=document_id,
                             policy=policy,
                             request_id_prefix=request_id_prefix)
