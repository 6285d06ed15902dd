"""Seeded, deterministic fault injection for the serving stack.

Chaos testing is only useful when a failing run can be replayed exactly,
so every fault decision here is a pure function of a :class:`FaultPlan`'s
seed and call counters — never of wall-clock time or process state.  The
same plan against the same request sequence fires the same faults, which
is what lets `tests/test_chaos_serving.py` assert *bit-identical* lookup
results under failure.

The plan is consulted at named **fault points**:

* channel points — ``"<message kind>:send"`` just before a request frame
  leaves the client and ``"<message kind>:recv"`` just after its response
  arrives (e.g. ``"hello:send"``, ``"frontier:recv"``);
* store points — ``"store:<operation>"`` around share-store calls on the
  server (e.g. ``"store:evaluate_many"``).

Rules match points by exact name or ``fnmatch`` pattern (``"*:send"``,
``"store:*"``) and fire either on explicit call numbers (the Nth call to
that point, 1-based) or at a seeded rate.  A rule fires only at points
where its kind acts (:data:`KIND_PHASES`): a connection reset before the
send is meaningless once the response is back, so a pattern rule skips
such points without drawing, logging or counting, and a rule naming an
exact point its kind cannot act at is refused.  Two wrappers consume plans:

* :class:`FaultyChannel` — wraps any client channel and injects transport
  faults (connection reset before/after the exchange, truncated response,
  injected busy, delay) without caring whether the underlying transport
  is the in-process :class:`~repro.net.channel.InstrumentedChannel` or a
  real :class:`~repro.net.channel.SocketChannel`.  "Reset after send" is
  modelled faithfully: the underlying exchange *completes* (the server
  processed the request and recorded its observations) and only the
  response is lost — the ambiguous failure that idempotency keys exist
  for.
* :class:`FaultyStore` — wraps a :class:`~repro.core.share_tree.ShareStore` and
  fails chosen operations with
  :class:`~repro.errors.TransientServerError`, which the serving engine
  reports in-band as a retryable error.
"""

from __future__ import annotations

import random
import threading
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.poly import Polynomial
from ..core.share_tree import ShareStore
from ..errors import ServerBusyError, TransientServerError, TransportError
from .messages import Message

__all__ = [
    "FAULT_KINDS",
    "KIND_PHASES",
    "FaultRule",
    "FaultPlan",
    "FaultyChannel",
    "FaultyStore",
]

#: Every fault kind a rule may name.
FAULT_KINDS = (
    "reset-before-send",   # connection dies before the request is sent
    "reset-after-send",    # request processed, response lost (ambiguous)
    "truncate-response",   # response frame cut short mid-read
    "busy",                # ServerBusyError, as a shed request's reply raises
    "delay",               # request delayed by ``delay_s`` then served
    "store-error",         # store operation fails transiently
)

#: The fault-point phases at which each kind acts: ``"send"`` and
#: ``"recv"`` are :class:`FaultyChannel`'s two points per exchange,
#: ``"store"`` is :class:`FaultyStore`'s.
KIND_PHASES = {
    "reset-before-send": ("send",),
    "reset-after-send": ("recv",),
    "truncate-response": ("recv",),
    "busy": ("send", "recv"),
    "delay": ("send", "recv", "store"),
    "store-error": ("store",),
}


def _point_phase(point: str) -> Optional[str]:
    """``"store"``, ``"send"`` or ``"recv"`` for a fault point; ``None``
    for a name that is none of the three."""
    if point.startswith("store:"):
        return "store"
    kind, _, phase = point.rpartition(":")
    return phase if kind and phase in ("send", "recv") else None


class FaultRule:
    """One deterministic fault source: where, what, and when it fires.

    ``point`` is an exact fault-point name or an ``fnmatch`` pattern.
    ``calls`` lists explicit 1-based call numbers of that point at which
    the rule fires ("fail the 3rd frontier exchange"); ``rate`` fires the
    rule on a seeded coin flip per call.  ``max_fires`` caps the total
    number of firings (the default for ``calls`` rules is ``len(calls)``,
    for rate rules unlimited) so a plan can model "the network blips once"
    without the retry then looping forever.  An exact ``point`` whose
    phase its ``kind`` does not act at (:data:`KIND_PHASES`) is refused.
    """

    def __init__(self, point: str, kind: str, rate: float = 0.0,
                 calls: Sequence[int] = (), max_fires: Optional[int] = None,
                 delay_s: float = 0.0, retry_after_s: float = 0.0) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.point = str(point)
        phase = _point_phase(self.point)
        if (phase not in (None, *KIND_PHASES[kind])
                and not any(c in "*?[" for c in self.point)):
            raise ValueError(f"a {kind!r} fault cannot act at {point!r}; it "
                             f"acts at {' and '.join(KIND_PHASES[kind])} "
                             "points")
        self.kind = kind
        self.rate = float(rate)
        self.calls = frozenset(int(c) for c in calls)
        if any(c < 1 for c in self.calls):
            raise ValueError("explicit call numbers are 1-based")
        if max_fires is None and self.calls and not self.rate:
            max_fires = len(self.calls)
        self.max_fires = max_fires
        self.delay_s = float(delay_s)
        self.retry_after_s = float(retry_after_s)
        self.fired = 0

    def matches(self, point: str) -> bool:
        """Whether this rule watches the given fault point and can act there."""
        return ((self.point == point or fnmatchcase(point, self.point))
                and _point_phase(point) in KIND_PHASES[self.kind])

    def __repr__(self) -> str:
        where = f"calls={sorted(self.calls)}" if self.calls else f"rate={self.rate}"
        return f"FaultRule({self.point!r}, {self.kind!r}, {where}, fired={self.fired})"


class FaultPlan:
    """A seeded set of fault rules with per-point call counters.

    The decision procedure is deterministic: call counters advance once
    per :meth:`decide` and the rate coin flips come from one
    ``random.Random(seed)`` stream, so replaying the same request sequence
    replays the same faults.  The plan is thread-safe (server-side stores
    are shared across sessions) and keeps a ``fires`` log of
    ``(point, call_number, kind)`` so tests can assert that the fault they
    scheduled actually happened.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._counters: Dict[str, int] = {}
        self.fires: List[Tuple[str, int, str]] = []
        self._lock = threading.Lock()

    @classmethod
    def single(cls, point: str, kind: str, call: int = 1,
               seed: int = 0, **kwargs) -> "FaultPlan":
        """A plan with exactly one scheduled fault (the common test shape)."""
        return cls([FaultRule(point, kind, calls=[call], **kwargs)], seed=seed)

    @classmethod
    def at_rate(cls, rate: float, kinds: Sequence[str] = ("reset-after-send",),
                point: str = "*", seed: int = 0) -> "FaultPlan":
        """A plan firing each listed kind at ``rate`` on every matching
        point where that kind acts."""
        return cls([FaultRule(point, kind, rate=rate) for kind in kinds],
                   seed=seed)

    def decide(self, point: str) -> Optional[FaultRule]:
        """Advance the counter for ``point`` and return the firing rule, if any.

        Explicit call schedules win over rate rules; at most one rule
        fires per call so a fault is never double-injected.  Rules whose
        kind cannot act at ``point`` are skipped before any coin flip.
        """
        with self._lock:
            call = self._counters.get(point, 0) + 1
            self._counters[point] = call
            chosen: Optional[FaultRule] = None
            for rule in self.rules:
                if not rule.matches(point):
                    continue
                if rule.max_fires is not None and rule.fired >= rule.max_fires:
                    continue
                if call in rule.calls:
                    chosen = rule
                    break
                if rule.rate and self._rng.random() < rule.rate and chosen is None:
                    chosen = rule
                    # keep scanning: an explicit schedule later in the
                    # list still takes precedence over this rate hit.
            if chosen is not None:
                chosen.fired += 1
                self.fires.append((point, call, chosen.kind))
            return chosen

    def calls_seen(self, point: str) -> int:
        """How many times a fault point has been consulted."""
        with self._lock:
            return self._counters.get(point, 0)

    def reset(self) -> None:
        """Rewind counters, firing log and the seeded stream (exact replay)."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self._counters.clear()
            self.fires.clear()
            for rule in self.rules:
                rule.fired = 0

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
                f"fires={len(self.fires)})")


class FaultyChannel:
    """A client channel wrapper that injects transport faults from a plan.

    Exposes the same surface the :class:`~repro.net.client.RemoteServerAdapter`
    needs (``request``, ``stats``, ``transcript``, ``close``), so it can
    stand in for either channel flavour.  Fault points are
    ``"<kind>:send"`` (consulted before the exchange) and
    ``"<kind>:recv"`` (after it).  ``sleep`` is injectable so tests can
    run delay faults without real waiting.  ``injected`` logs the
    ``(point, kind)`` of every fault this channel injected.
    """

    def __init__(self, channel, plan: FaultPlan,
                 sleep: Optional[Callable[[float], None]] = None) -> None:
        self.channel = channel
        self.plan = plan
        self.injected: List[Tuple[str, str]] = []
        if sleep is None:
            import time
            sleep = time.sleep
        self._sleep = sleep

    @property
    def stats(self):
        return self.channel.stats

    @property
    def transcript(self):
        return self.channel.transcript

    def request(self, message: Message) -> Message:
        point = f"{message.kind}:send"
        rule = self.plan.decide(point)
        if rule is not None:
            if rule.kind == "reset-before-send":
                # The server never saw the request: replaying it cannot
                # double-count anything, but the client can't know that.
                self.injected.append((point, rule.kind))
                raise TransportError(
                    f"injected connection reset before sending "
                    f"{message.kind!r} (call {self.plan.calls_seen(point)})")
            self._busy_or_delay(point, rule, message)
        response = self.channel.request(message)
        point = f"{message.kind}:recv"
        rule = self.plan.decide(point)
        if rule is not None:
            if rule.kind in ("reset-after-send", "truncate-response"):
                # The exchange completed server-side; only the reply is
                # lost.  This is the ambiguous failure idempotency keys
                # exist for: a replay must be answered from the server's
                # idempotency cache, not re-processed.
                detail = ("connection reset after send"
                          if rule.kind == "reset-after-send"
                          else "response frame truncated")
                self.injected.append((point, rule.kind))
                raise TransportError(
                    f"injected {detail} for {message.kind!r} (call "
                    f"{self.plan.calls_seen(point)})")
            self._busy_or_delay(point, rule, message)
        return response

    def _busy_or_delay(self, point: str, rule: FaultRule,
                       message: Message) -> None:
        """Inject the two kinds that act in either phase."""
        if rule.kind == "busy":
            self.injected.append((point, rule.kind))
            raise ServerBusyError(
                f"injected busy shedding of {message.kind!r}",
                retry_after_s=rule.retry_after_s)
        if rule.kind == "delay":
            self.injected.append((point, rule.kind))
            self._sleep(rule.delay_s)

    def simulated_seconds(self) -> float:
        simulated = getattr(self.channel, "simulated_seconds", None)
        return simulated() if simulated is not None else 0.0

    def close(self) -> None:
        close = getattr(self.channel, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "FaultyChannel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FaultyStore(ShareStore):
    """A share store that fails chosen operations per a fault plan.

    Read and write operations consult ``"store:<operation>"`` before
    delegating; a firing rule raises
    :class:`~repro.errors.TransientServerError` (kind ``store-error``) or
    delays the call (kind ``delay``).  The serving engine converts the
    transient error into an in-band retryable
    :class:`~repro.net.messages.ErrorResponse`, so the session survives
    and a resilient client retries.
    """

    def __init__(self, store: ShareStore, plan: FaultPlan,
                 sleep: Optional[Callable[[float], None]] = None) -> None:
        self.store = store
        self.plan = plan
        self.ring = store.ring
        if sleep is None:
            import time
            sleep = time.sleep
        self._sleep = sleep

    def _maybe_fail(self, operation: str) -> None:
        rule = self.plan.decide(f"store:{operation}")
        if rule is None:
            return
        if rule.kind == "delay":
            self._sleep(rule.delay_s)
            return
        raise TransientServerError(
            f"injected store failure in {operation!r} (call "
            f"{self.plan.calls_seen(f'store:{operation}')})")

    # -- read side -------------------------------------------------------------
    @property
    def root_id(self) -> Optional[int]:
        return self.store.root_id

    def node_count(self) -> int:
        return self.store.node_count()

    def node_ids(self) -> List[int]:
        return self.store.node_ids()

    def max_node_id(self) -> Optional[int]:
        return self.store.max_node_id()

    def child_ids(self, node_id: int) -> List[int]:
        self._maybe_fail("child_ids")
        return self.store.child_ids(node_id)

    def parent_id(self, node_id: int) -> Optional[int]:
        return self.store.parent_id(node_id)

    def share_of(self, node_id: int) -> Polynomial:
        self._maybe_fail("share_of")
        return self.store.share_of(node_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.store

    def evaluate(self, node_id: int, point: int) -> int:
        self._maybe_fail("evaluate")
        return self.store.evaluate(node_id, point)

    def evaluate_many(self, node_ids: Sequence[int], point: int) -> Dict[int, int]:
        self._maybe_fail("evaluate_many")
        return self.store.evaluate_many(node_ids, point)

    def storage_bits(self) -> int:
        return self.store.storage_bits()

    # -- write side ------------------------------------------------------------
    def add_node(self, node_id: int, parent_id: Optional[int],
                 share: Polynomial) -> None:
        self._maybe_fail("add_node")
        self.store.add_node(node_id, parent_id, share)

    def replace_share(self, node_id: int, share: Polynomial) -> None:
        self._maybe_fail("replace_share")
        self.store.replace_share(node_id, share)

    def remove_subtree(self, node_id: int) -> List[int]:
        self._maybe_fail("remove_subtree")
        return self.store.remove_subtree(node_id)

    def apply_batch(self, ops: Sequence[Tuple]) -> None:
        self._maybe_fail("apply_batch")
        self.store.apply_batch(ops)

    def close(self) -> None:
        self.store.close()

    def __repr__(self) -> str:
        return f"FaultyStore({self.store!r}, plan={self.plan!r})"
