"""Span recording for the traced run, on both sides of the wire.

Spans are kept in memory as ``(span_id, parent_id, name, start_ns, end_ns,
op)`` tuples and written out when the run ends.  Times come from
``time.perf_counter_ns``, which is CLOCK_MONOTONIC on Linux and therefore
shared by the benchmark process and the server child: a server span that
starts inside a client ``wire`` span belongs to that span's operation.

The wrappers go around public calls only.  Client-side ones are bound to
instances in the benchmark process; server-side ones replace methods of
the public classes in the server child before it starts serving.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, int, int, int]

#: ClientShareGenerator calls wrapped on the benchmark's instance.
CLIENT_SHARE_CALLS = ("share_for", "shares_for", "evaluate", "evaluate_many")
#: Server-side store calls wrapped on SQLiteShareStore.
STORE_CALLS = ("child_ids", "parent_id", "share_of", "evaluate_many",
               "node_count", "node_ids", "max_node_id", "apply_batch")


class Recorder:
    """Collects spans from any thread; ``op`` tags client spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Index of the timed operation in progress (-1 outside the window).
        self.op = -1
        #: Calls made inside a span of the same layer during timed
        #: operations: counted, not recorded, so a share derivation inside
        #: a batch evaluation costs a counter bump instead of a span.
        self.nested_calls: Dict[str, int] = {}
        #: Query points of the operation in progress (for verify.confirm_ratio).
        self.points: frozenset = frozenset()
        #: Tag recoveries inside lookups/XPaths, and how many hit a query point.
        self.verified = 0
        self.confirmed = 0
        self.mutations = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, function: Callable,
             on_call: Optional[Callable[..., None]] = None,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """``function`` recording one span per call under ``name``.

        The layer is the part of ``name`` before the first dot.
        """
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns
        nested = self.nested_calls
        layer = name.split(".")[0]
        recorder = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            if stack and stack[-1][1] == layer:
                if recorder.op >= 0:
                    nested[name] = nested.get(name, 0) + 1
                result = function(*args, **kwargs)
            else:
                span_id = next(ids)
                parent = stack[-1][0] if stack else -1
                stack.append((span_id, layer))
                start = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((span_id, parent, name, start, end, recorder.op))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def instrument_client(recorder: Recorder, client: Any, channel: Any,
                      editor: Any) -> None:
    """Wrap the benchmark process's client objects (instances only)."""
    for name in ("lookup", "xpath"):
        setattr(client, name, recorder.wrap("query", getattr(client, name)))
    generator = client.share_generator
    for name in CLIENT_SHARE_CALLS:
        setattr(generator, name,
                recorder.wrap(f"client_shares.{name}", getattr(generator, name)))
    ring = client.ring
    ring.random_element_from_stream = recorder.wrap(
        "client_shares.derive", ring.random_element_from_stream)

    def confirm(value: Any) -> None:
        if recorder.points:
            recorder.verified += 1
            recorder.confirmed += value in recorder.points

    ring.recover_tag = recorder.wrap("verify", ring.recover_tag,
                                     on_result=confirm)

    def count_mutations(message: Any) -> None:
        if message.kind == "update":
            recorder.mutations += len(message.ops)

    channel.request = recorder.wrap("wire", channel.request,
                                    on_call=count_mutations)
    for name in ("insert_subtree", "delete_subtree"):
        setattr(editor, name, recorder.wrap("update", getattr(editor, name)))


def instrument_server(recorder: Recorder) -> None:
    """Wrap the serving classes' public calls (run before the server starts)."""
    from repro.algebra.vkernels import VecFpKernel
    from repro.net import store as store_module
    from repro.net.engine import ServingCore
    from repro.net.store import SQLiteShareStore

    for name in ("handle", "frontier_batch"):
        setattr(ServingCore, name, recorder.wrap("engine", getattr(ServingCore, name)))
    for name in STORE_CALLS:
        setattr(SQLiteShareStore, name,
                recorder.wrap(f"store.{name}", getattr(SQLiteShareStore, name)))
    VecFpKernel.evaluate_matrix = recorder.wrap(
        "kernel.evaluate", VecFpKernel.evaluate_matrix)
    # net.store calls the batch decoder through its own module global.
    store_module.decode_coefficients_batch = recorder.wrap(
        "pages.decode", store_module.decode_coefficients_batch)


def attach_server_spans(server_spans: Iterable[Sequence],
                        op_windows: Sequence[Tuple[int, int]]) -> List[Span]:
    """Tag server spans with the timed operation whose window holds them."""
    starts = [window[0] for window in op_windows]
    tagged: List[Span] = []
    for span_id, parent, name, start, end, _ in server_spans:
        index = bisect.bisect_right(starts, start) - 1
        if index >= 0 and start <= op_windows[index][1]:
            tagged.append((span_id, parent, name, start, end, index))
    return tagged


class Layers:
    """Per-name totals of the spans that fall inside timed operations."""

    def __init__(self, spans: Iterable[Span]) -> None:
        spans = [span for span in spans if span[5] >= 0]
        by_id = {span[0]: span for span in spans}
        self.calls: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.layer_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        child_ns: Dict[int, int] = {}
        for span in spans:
            if span[1] in by_id:
                child_ns[span[1]] = child_ns.get(span[1], 0) + span[4] - span[3]
        #: Wire time spent under each "update" span (its server round trips).
        self.update_wire_ns = 0
        for span_id, parent, name, start, end, _ in spans:
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = (self.self_ns.get(name, 0) + duration
                                  - child_ns.get(span_id, 0))
            # Spans never nest inside their own layer (see Recorder.wrap).
            layer = name.split(".")[0]
            self.layer_ns[layer] = self.layer_ns.get(layer, 0) + duration
            if name == "wire" and "update" in self._ancestor_names(by_id, parent):
                self.update_wire_ns += duration

    @staticmethod
    def _ancestor_names(by_id: Dict[int, Span], parent: int) -> List[str]:
        names = []
        while parent in by_id:
            span = by_id[parent]
            names.append(span[2])
            parent = span[1]
        return names

    def ms(self, name: str, table: str = "total_ns") -> float:
        """Summed milliseconds of ``name`` from one of the per-name tables."""
        return getattr(self, table).get(name, 0) / 1e6


__all__ = ["Recorder", "instrument_client", "instrument_server",
           "attach_server_spans", "Layers"]
