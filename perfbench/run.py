"""Benchmark of the search protocol as served: one workload, one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-lookup --seed 1 --seconds 30 \\
        --trace 0 [--out RESULTS_DIR]

Builds the workload's document from the seed, outsources it to a SQLite
store, starts ``repro.cli serve --async`` on it as a separate process and
drives it from one closed-loop session over TCP with full Theorem-1/2
verification.  Every answer is checked against the plaintext baseline.
The run, the server and a reference task share one CPU, and latencies are
reported in ref-ms: wall time divided by the reference task's time at the
moment each operation ran, so that they do not follow the host's speed.
The last line of standard output is the result object; with ``--trace 1``
its metrics are the per-layer ones of a run with span wrappers installed.
``--out`` additionally writes the full result (and, traced, the spans)
there.  See ``perfbench/METHOD.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import sqlite3
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores and spans, inside the checkout (disk-backed).
WORK = ROOT / ".perfbench"
#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Loop length of the reference task (about 1 ms on the reference host) and
#: how many timings of it give one reading of the host's speed.
REFERENCE_ITERATIONS = 4000
REFERENCE_REPEATS = 3

END_TO_END_UNITS = {
    "lookup_p50_ms": "ref-ms", "lookup_p90_ms": "ref-ms", "xpath_p50_ms": "ref-ms",
    "ops_per_s": "1/ref-s",
    "bytes_per_query": "B", "round_trips_per_query": "count",
    "evaluations_per_query": "count", "polynomials_per_query": "count",
    "setup_s": "s", "server_rss_mb": "MB", "store_bytes_per_element": "B",
}

PER_LAYER_UNITS = {
    "query.self_ms": "ms", "query.nodes_touched": "count",
    "query.prune_ratio": "ratio", "query.speculation_ratio": "ratio",
    "client_shares.ms": "ms", "client_shares.derivations": "count",
    "client_shares.hit_ratio": "ratio",
    "verify.ms": "ms", "verify.candidates": "count",
    "verify.confirm_ratio": "ratio",
    "wire.ms": "ms", "wire.overhead_ms": "ms",
    "wire.bytes_to_server": "B", "wire.bytes_to_client": "B",
    "engine.ms": "ms", "engine.requests": "count", "engine.failed": "count",
    "engine.shed": "count",
    "store.child_ids_calls": "count", "store.child_ids_ms": "ms",
    "store.share_of_calls": "count", "store.share_of_ms": "ms",
    "store.evaluate_many_ms": "ms", "store.cache_hit_ratio": "ratio",
    "pages.decode_ms": "ms", "kernel.evaluate_ms": "ms",
    "store.txn_ms_per_edit": "ms", "store.write_bytes_per_edit": "B",
    "store.write_calls_per_edit": "count",
    "update.client_ms_per_edit": "ms", "update.mutations_per_edit": "count",
    "update.rebases_per_edit": "count",
    "client.cpu_ms": "ms", "server.cpu_ms": "ms", "server.rss_growth_kb": "kB",
    "setup.parse_s": "s", "setup.outsource_s": "s",
    "setup.store_write_s": "s", "setup.server_ready_s": "s",
    "trace.lookup_p50_ms": "ref-ms", "trace.spans_per_op": "count",
}


class WrongAnswer(Exception):
    """An operation's answer differs from the plaintext reference."""

    def __init__(self, message: str, attempted: int) -> None:
        super().__init__(message)
        self.attempted = attempted


def reference_task(iterations: int = REFERENCE_ITERATIONS) -> int:
    """A fixed pure-Python loop (dict reads and writes, integer arithmetic)."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 63
        total += (table.get(key, 0) * 31 + i) % 1009
        table[key] = total & 1023
    return total


def reference_ms() -> float:
    """The host's speed just now: the best of a few timings of the reference task.

    It runs on the CPU the client and the server share, so it slows down
    exactly when they do.  One ``ref-ms`` of an operation is the time this
    returns at the moment the operation ran.
    """
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        reference_task()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def pin_to_one_cpu() -> int:
    """Confine this process, and so the server child it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Session:
    """One set-up: store on disk, server process, client context, session."""

    def __init__(self, plan: Any, work: Path, index: int, traced: bool) -> None:
        from repro.core import ClientContext, outsource_document
        from repro.net import SQLiteShareStore, connect_socket, ring_from_dict, ring_to_dict
        from repro.xmltree import parse_document
        from serving import ServerProcess

        self.store_path = work / f"store-{index}.db"
        self.spans_path = work / f"server-spans-{index}.json" if traced else None
        client_path = work / f"client-{index}.json"
        started = time.perf_counter()
        document = parse_document(plan.xml_text)
        parsed = time.perf_counter()
        client, server_tree, _ = outsource_document(
            document, seed=f"perfbench-{plan.seed}".encode())
        outsourced = time.perf_counter()
        store = SQLiteShareStore.from_tree(str(self.store_path), server_tree)
        store.close()
        with open(client_path, "w", encoding="utf-8") as handle:
            json.dump({"ring": ring_to_dict(client.ring),
                       "secrets": client.secret_state()}, handle)
        written = time.perf_counter()
        self.server = ServerProcess(self.store_path, SRC, work / f"server-{index}.log",
                                    self.spans_path)
        try:
            # Rebuilt from the secret state as the CLI does: the client's
            # share cache starts empty.
            with open(client_path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
            self.ring = ring_from_dict(state["ring"])
            self.client = ClientContext.from_secret_state(self.ring, state["secrets"])
            self.adapter, self.channel = connect_socket(
                "127.0.0.1", self.server.port, self.ring, timeout_s=120.0)
        except BaseException:
            self.server.kill()
            raise
        ready = time.perf_counter()
        self.timings = {"setup_s": ready - started, "parse_s": parsed - started,
                        "outsource_s": outsourced - parsed,
                        "store_write_s": written - outsourced,
                        "server_ready_s": ready - written}

    def close(self) -> None:
        self.channel.close()
        self.server.stop()


def run_workload(args: argparse.Namespace) -> Tuple[Dict[str, Any], int, int]:
    """One run; returns the full result and the attempted/failed counts."""
    import inputs
    import serving
    import tracing
    from repro.errors import ProtocolError
    from repro.net import RemoteUpdatableTree

    workload = inputs.WORKLOADS[args.workload]
    plan = inputs.build_plan(workload, args.seed)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traced = bool(args.trace)
    recorder = tracing.Recorder() if traced else None
    sessions: List[Session] = []
    try:
        for index in range(SETUPS):
            if sessions:
                sessions[-1].close()
                sessions[-1].store_path.unlink()
            sessions.append(Session(plan, work, index, traced))
        session = sessions[-1]
        setups = [s.timings for s in sessions]
        client, adapter, channel = session.client, session.adapter, session.channel
        editor = RemoteUpdatableTree(adapter, client.mapping, client.share_generator)
        if recorder is not None:
            tracing.instrument_client(recorder, client, channel, editor)

        samples: Dict[str, List[float]] = {"lookup": [], "xpath": [], "edit": []}
        query_totals = {"bytes": 0, "requests": 0, "evaluations": 0,
                        "polynomials": 0, "touched": 0, "lookup_pruned": 0,
                        "lookup_evaluations": 0, "lookup_touched": 0}
        failed = attempted = 0
        skip_delete = False

        def run_op(op: Any, edit_index: int, timed: bool) -> Optional[float]:
            """Runs and checks ``op``; returns its wall time, or None if it failed."""
            nonlocal failed, attempted, skip_delete
            if timed:
                attempted += 1
            if op.kind == "delete" and skip_delete:
                skip_delete = False
                failed += timed
                return None
            if recorder is not None:
                recorder.points = frozenset(
                    client.mapping.value(tag) for tag in _query_tags(op))
            bytes_before = channel.stats.total_bytes
            requests_before = channel.stats.requests
            started = time.perf_counter()
            try:
                if op.kind == "lookup":
                    result = client.lookup(adapter, op.target)
                elif op.kind == "xpath":
                    result = client.xpath(adapter, op.target)
                elif op.kind == "insert":
                    edit = plan.edits[edit_index]
                    report = editor.insert_subtree(edit.anchor_id, edit.subtree)
                else:
                    edit = plan.edits[edit_index]
                    report = editor.delete_subtree(edit.new_ids[0])
            except (ProtocolError, OSError) as exc:
                print(f"perfbench: {op.kind} {op.target} failed: {exc}",
                      file=sys.stderr)
                failed += timed
                skip_delete = op.kind == "insert"
                return None
            elapsed = time.perf_counter() - started
            if op.kind in ("lookup", "xpath"):
                query = f"//{op.target}" if op.kind == "lookup" else op.target
                expected = plan.references[(query, edit_index if op.inserted else -1)]
                if tuple(result.matches) != expected:
                    raise WrongAnswer(f"{query} answered {result.matches}, "
                                      f"expected {list(expected)}", attempted)
                if timed:
                    samples[op.kind].append(elapsed)
                    stats = result.stats
                    query_totals["bytes"] += channel.stats.total_bytes - bytes_before
                    query_totals["requests"] += channel.stats.requests - requests_before
                    query_totals["evaluations"] += stats.evaluations
                    query_totals["polynomials"] += stats.polynomials_fetched
                    query_totals["touched"] += stats.nodes_evaluated
                    if op.kind == "lookup":
                        query_totals["lookup_pruned"] += stats.nodes_pruned
                        query_totals["lookup_evaluations"] += stats.evaluations
                        query_totals["lookup_touched"] += stats.nodes_evaluated
            else:
                got = tuple(sorted(report.new_node_ids if op.kind == "insert"
                                   else report.removed_node_ids))
                if got != tuple(sorted(edit.new_ids)):
                    raise WrongAnswer(f"{op.kind} touched nodes {list(got)}, "
                                      f"expected {list(edit.new_ids)}", attempted)
                if timed:
                    samples["edit"].append(elapsed)
            return elapsed

        # Untimed warm-up over the whole rotation.
        for op, edit_index in inputs.schedule(plan, 1):
            run_op(op, edit_index, timed=False)

        ops = inputs.schedule(plan, inputs.rotations_for(workload, args.seconds))
        before = _counters(session, channel, editor, args.cpu)
        op_windows: List[Tuple[int, int]] = []
        # Each operation's wall time in ref-ms: divided by the mean of the
        # host-speed readings taken just before and just after it.
        scaled: Dict[str, List[float]] = {"lookup": [], "xpath": [], "edit": []}
        references = [reference_ms()]
        window_start = time.perf_counter()
        for index, (op, edit_index) in enumerate(ops):
            if recorder is not None:
                recorder.op = index
            op_start = time.perf_counter_ns()
            elapsed = run_op(op, edit_index, timed=True)
            op_windows.append((op_start, time.perf_counter_ns()))
            references.append(reference_ms())
            if elapsed is not None:
                kind = op.kind if op.kind in ("lookup", "xpath") else "edit"
                scaled[kind].append(elapsed * 1e3 / statistics.fmean(references[-2:]))
        window_s = time.perf_counter() - window_start
        if recorder is not None:
            recorder.op = -1
        after = _counters(session, channel, editor, args.cpu)
        accounting = serving.reconcile(session.server.port)
        for finished in sessions:
            finished.close()
        sessions = []

        edits = len(samples["edit"])
        queries = len(samples["lookup"]) + len(samples["xpath"])
        completed = attempted - failed
        elements = int(plan.inputs["elements"])
        delta = {key: after[key] - before[key] for key in after}
        scaled_window_s = sum(sum(values) for values in scaled.values()) / 1e3
        metrics: Dict[str, float] = {
            "lookup_p50_ms": percentile(scaled["lookup"], 50),
            "lookup_p90_ms": percentile(scaled["lookup"], 90),
            "xpath_p50_ms": percentile(scaled["xpath"], 50),
            "ops_per_s": completed / scaled_window_s,
            "bytes_per_query": query_totals["bytes"] / queries,
            "round_trips_per_query": query_totals["requests"] / queries,
            "evaluations_per_query": query_totals["evaluations"] / queries,
            "polynomials_per_query": query_totals["polynomials"] / queries,
            "setup_s": statistics.median(t["setup_s"] for t in setups),
            "server_rss_mb": after["VmHWM"] / 1024.0,
            "store_bytes_per_element": serving.file_bytes(session.store_path) / elements,
        }
        per_op = max(completed, 1)
        # Read-only workloads make no edits; their per-edit metrics read 0.
        per_edit = edits or math.inf
        counters = {
            "wire.bytes_to_server": delta["to_server"] / per_op,
            "wire.bytes_to_client": delta["to_client"] / per_op,
            "engine.ms": delta["server_request_seconds_sum"] * 1e3 / per_op,
            "engine.requests": delta["server_requests_total"] / per_op,
            "engine.failed": delta["server_requests_failed_total"] / per_op,
            "engine.shed": delta["server_requests_shed_total"] / per_op,
            "store.cache_hit_ratio": _ratio(
                delta["store_cache_hits_total"],
                delta["store_cache_hits_total"] + delta["store_cache_misses_total"]),
            "store.txn_ms_per_edit": delta["store_transaction_seconds_sum"] * 1e3 / per_edit,
            "store.write_bytes_per_edit": delta["write_bytes"] / per_edit,
            "store.write_calls_per_edit": delta["syscw"] / per_edit,
            "update.rebases_per_edit": delta["rebases"] / per_edit,
            "client.cpu_ms": delta["client_cpu_s"] * 1e3 / per_op,
            "server.cpu_ms": delta["cpu_s"] * 1e3 / per_op,
            "server.rss_growth_kb": delta["VmRSS"] / per_op,
            "query.nodes_touched": query_totals["touched"] / max(queries, 1),
            # Lookups only: one point per descent, one descent per query.
            "query.prune_ratio": _ratio(query_totals["lookup_pruned"],
                                        query_totals["lookup_touched"]),
            "query.speculation_ratio": _ratio(query_totals["lookup_evaluations"],
                                              query_totals["lookup_touched"]),
        }
        for phase in ("parse_s", "outsource_s", "store_write_s", "server_ready_s"):
            counters[f"setup.{phase}"] = statistics.median(t[phase] for t in setups)
        if recorder is not None:
            counters.update(_traced_layers(recorder, session, op_windows, counters,
                                           per_op, per_edit))
            counters["trace.lookup_p50_ms"] = metrics["lookup_p50_ms"]
        stamp = _stamp(plan, args, session, accounting, len(ops), window_s,
                       samples, failed, attempted)
        # Time the hypervisor ran other guests on the pinned vCPU during
        # the window, as a share of the window.
        stamp["host_steal_share"] = delta["host_steal_s"] / window_s
        # The scaled metrics in plain wall time, which follows the host's speed.
        stamp["wall"] = {"lookup_p50_ms": percentile(samples["lookup"], 50) * 1e3,
                         "lookup_p90_ms": percentile(samples["lookup"], 90) * 1e3,
                         "xpath_p50_ms": percentile(samples["xpath"], 50) * 1e3,
                         "ops_per_s": completed / window_s}
        stamp["reference_ms"] = dict(zip(("q1", "median", "q3"),
                                         statistics.quantiles(references, n=4)))
        stamp["reference_ms"].update(min=min(references), max=max(references))
        # Measured and reported, but without a bound: their spread between
        # runs follows the host's fsync latency (see METHOD.md).
        if samples["edit"]:
            stamp["edit_p50_ms"] = percentile(samples["edit"], 50) * 1e3
            stamp["edit_p90_ms"] = percentile(samples["edit"], 90) * 1e3
        result = {"stamp": stamp, "end_to_end": metrics, "per_layer": counters,
                  "samples_ms": {kind: [value * 1e3 for value in values]
                                 for kind, values in samples.items()}}
        if args.out is not None:
            _write_out(args.out, result, recorder, session, op_windows)
        return result, attempted, failed
    finally:
        for leftover in sessions:
            leftover.channel.close()
            leftover.server.kill()
        shutil.rmtree(work, ignore_errors=True)


def _query_tags(op: Any) -> List[str]:
    if op.kind == "lookup":
        return [op.target]
    if op.kind == "xpath":
        return [step for step in op.target.replace("//", "/").split("/") if step]
    return []


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _counters(session: Session, channel: Any, editor: Any, cpu: int) -> Dict[str, float]:
    """Every cheap counter at one instant (no tracing needed)."""
    import serving

    counters = serving.proc_counters(session.server.pid)
    totals = serving.server_counters(session.server.port)
    for name in ("server_request_seconds_sum", "server_requests_total",
                 "server_requests_failed_total", "server_requests_shed_total",
                 "store_cache_hits_total", "store_cache_misses_total",
                 "store_transaction_seconds_sum"):
        counters[name] = totals.get(name, 0.0)
    counters["to_server"] = channel.stats.bytes_to_server
    counters["to_client"] = channel.stats.bytes_to_client
    counters["rebases"] = editor.rebases
    counters["client_cpu_s"] = time.process_time()
    counters["host_steal_s"] = serving.host_steal_seconds(cpu)
    return counters


def _traced_layers(recorder: Any, session: Session, op_windows: List[Tuple[int, int]],
                   counters: Dict[str, float], per_op: int, per_edit: float
                   ) -> Dict[str, float]:
    import tracing

    with open(session.spans_path, "r", encoding="utf-8") as handle:
        server_spans = tracing.attach_server_spans(json.load(handle), op_windows)
    client = tracing.Layers(recorder.spans)
    server = tracing.Layers(server_spans)

    def calls(name: str) -> int:
        return client.calls.get(name, 0) + recorder.nested_calls.get(name, 0)

    share_calls = calls("client_shares.share_for")
    derivations = calls("client_shares.derive")
    verified = calls("verify")
    wire_ms = client.ms("wire")
    layers = {
        "query.self_ms": client.ms("query", "self_ns") / per_op,
        "client_shares.ms": client.ms("client_shares", "layer_ns") / per_op,
        "client_shares.derivations": derivations / per_op,
        "client_shares.hit_ratio": 1.0 - _ratio(derivations, share_calls),
        "verify.ms": client.ms("verify") / per_op,
        "verify.candidates": verified / per_op,
        "verify.confirm_ratio": _ratio(recorder.confirmed, recorder.verified),
        "wire.ms": wire_ms / per_op,
        "wire.overhead_ms": wire_ms / per_op - counters["engine.ms"],
        "store.child_ids_calls": server.calls.get("store.child_ids", 0) / per_op,
        "store.child_ids_ms": server.ms("store.child_ids") / per_op,
        "store.share_of_calls": server.calls.get("store.share_of", 0) / per_op,
        "store.share_of_ms": server.ms("store.share_of") / per_op,
        "store.evaluate_many_ms": server.ms("store.evaluate_many") / per_op,
        "pages.decode_ms": server.ms("pages.decode") / per_op,
        "kernel.evaluate_ms": server.ms("kernel.evaluate") / per_op,
        "update.client_ms_per_edit": (client.ms("update") - client.update_wire_ns / 1e6)
                                     / per_edit,
        "update.mutations_per_edit": recorder.mutations / per_edit,
        "trace.spans_per_op": (len(recorder.spans) + len(server_spans)) / per_op,
    }
    return layers


def _stamp(plan: Any, args: argparse.Namespace, session: Session,
           accounting: Dict[str, int], ops: int, window_s: float,
           samples: Dict[str, List[float]], failed: int, attempted: int
           ) -> Dict[str, Any]:
    import serving
    from repro.algebra import numpy_or_none

    numpy = numpy_or_none()
    kernel = session.ring.coefficient_ring.kernel()
    connection = sqlite3.connect(str(session.store_path))
    try:
        journal = connection.execute("PRAGMA journal_mode").fetchone()[0]
        synchronous = connection.execute("PRAGMA synchronous").fetchone()[0]
    finally:
        connection.close()
    return {
        "workload": plan.workload.name,
        "inputs": plan.inputs,
        "xml_bytes": len(plan.xml_text.encode("utf-8")),
        "seconds": args.seconds,
        "operations": ops,
        "samples": {kind: len(values) for kind, values in samples.items()},
        "window_s": window_s,
        "failed_op_ratio": _ratio(failed, attempted),
        "server_accounting": accounting,
        "python": platform.python_version(),
        "numpy": None if numpy is None else numpy.__version__,
        "kernel_tier": "generic" if kernel is None else type(kernel).__name__,
        "nproc": args.nproc,
        "pinned_cpu": args.cpu,
        "platform": platform.platform(),
        "store_filesystem": serving.mount_of(session.store_path.parent),
        "store_flush": {"journal_mode": journal,
                        "synchronous": {0: "OFF", 1: "NORMAL", 2: "FULL",
                                        3: "EXTRA"}.get(synchronous, synchronous)},
        "setups": SETUPS,
        "traced": bool(args.trace),
    }


def _write_out(out: Path, result: Dict[str, Any], recorder: Any, session: Session,
               op_windows: List[Tuple[int, int]]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stamp = result["stamp"]
    stem = f"{stamp['workload']}-seed{stamp['inputs']['seed']}-trace{int(stamp['traced'])}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    if recorder is not None:
        shutil.copyfile(session.spans_path, out / f"{stem}-server-spans.json")
        with open(out / f"{stem}-client-spans.json", "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans, "op_windows": op_windows}, handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-lookup", "read-write"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the full result and, traced, the spans")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # The client, the server child and the reference task share one CPU,
    # so the reference task reads the speed the operations ran at.
    args.nproc = len(os.sched_getaffinity(0))
    args.cpu = pin_to_one_cpu()
    # A terminated run still stops its server and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, attempted, failed = run_workload(args)
    except WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(exc.attempted, 1),
                          "failed": 0, "metrics": {}}))
        return 1
    section, units = (("per_layer", PER_LAYER_UNITS) if args.trace
                      else ("end_to_end", END_TO_END_UNITS))
    values = result[section]
    print("stamp: " + json.dumps(result["stamp"], sort_keys=True))
    if args.trace:
        print("traced end-to-end: " + json.dumps(result["end_to_end"], sort_keys=True))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
