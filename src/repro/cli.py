"""Command-line interface to the scheme.

A small operational tool so the library can be driven without writing
Python: outsource an XML file, inspect what the server would store, run
queries against a stored server file, and decode results.  The client's
secrets (seed + mapping) live in a separate JSON file that never needs to
leave the client machine; the server file, a SQLite share store, contains
only what the untrusted server is allowed to see.

Usage::

    python -m repro.cli outsource data.xml --server-out server.db \
        --client-out client.json --seed my-secret
    python -m repro.cli query server.db client.json "//client/name"
    python -m repro.cli lookup server.db client.json client --mode none
    python -m repro.cli inspect server.db
    python -m repro.cli decode server.db client.json 3
    python -m repro.cli bench --quick --out BENCH_1.json
    python -m repro.cli bench --concurrency 16 --out BENCH_3.json
    python -m repro.cli bench --ops --out BENCH_7.json
    python -m repro.cli serve server.db --port 9653 \
        --metrics-port 9100 --quota docs=50:100:2 --shared-pool 25
    python -m repro.cli stats --port 9653 --json
    python -m repro.cli edit client.json rename 5 --tag price --port 9653
    python -m repro.cli edit client.json insert 2 --xml "<note/>" --port 9653
    python -m repro.cli migrate-store server.db
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from typing import Optional, Sequence

from . import __version__
from .core import (
    AdvancedStrategy,
    ClientContext,
    VerificationMode,
    choose_fp_ring,
    choose_int_ring,
    outsource_document,
)
from .errors import ReproError
from .net import SQLiteShareStore, open_share_store, ring_to_dict
from .xmltree import parse_document

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Searchable secret-shared XML outsourcing "
                    "(Brinkman/Doumen/Jonker, SDM 2004 reproduction)")
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    outsource = commands.add_parser(
        "outsource", help="encode, split and store an XML document")
    outsource.add_argument("xml_file", help="path to the plaintext XML document")
    outsource.add_argument("--server-out", required=True,
                           help="where to write the server's share store "
                                "(a SQLite file)")
    outsource.add_argument("--client-out", required=True,
                           help="where to write the client's secret state (JSON)")
    outsource.add_argument("--seed", default=None,
                           help="client seed (hex or passphrase); random if omitted")
    outsource.add_argument("--ring", choices=["fp", "int"], default="fp",
                           help="encoding ring: F_p[x]/(x^(p-1)-1) or Z[x]/(x^2+1)")
    outsource.add_argument("--allow-p-minus-one", action="store_true",
                           help="allow mapping values equal to p-1 (paper's example)")

    lookup = commands.add_parser("lookup", help="run the element lookup //tag")
    lookup.add_argument("server_file")
    lookup.add_argument("client_file")
    lookup.add_argument("tag")
    lookup.add_argument("--mode", choices=[m.value for m in VerificationMode],
                        default=VerificationMode.FULL.value,
                        help="verification mode (default: full)")

    query = commands.add_parser("query", help="run an XPath-subset query")
    query.add_argument("server_file")
    query.add_argument("client_file")
    query.add_argument("xpath")
    query.add_argument("--strategy", choices=[s.value for s in AdvancedStrategy],
                       default=AdvancedStrategy.SINGLE_PASS.value)

    inspect = commands.add_parser(
        "inspect", help="show what the (untrusted) server stores")
    inspect.add_argument("server_file")

    decode = commands.add_parser(
        "decode", help="recover the tag path of a node id from the shares")
    decode.add_argument("server_file")
    decode.add_argument("client_file")
    decode.add_argument("node_id", type=int)

    serve = commands.add_parser(
        "serve", help="host a stored server file over TCP (framed wire "
                      "protocol; see docs/protocol.md)")
    serve.add_argument("server_file")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=9653,
                       help="TCP port; 0 picks a free one (default: 9653)")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="accepted for compatibility; has no effect (there "
                            "is one transport, which coalesces concurrent "
                            "frontier rounds)")
    serve.add_argument("--document-id", default=None,
                       help="host the document under this id "
                            "(default: the server's default document)")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                       help="also serve plaintext /metrics and /health on "
                            "this HTTP port (0 picks a free one)")
    serve.add_argument("--quota", action="append", default=[],
                       metavar="DOC=RATE[:BURST[:WEIGHT]]",
                       help="per-tenant admission quota: requests/second, "
                            "optional burst size and fair-share weight "
                            "(repeatable, one per document id)")
    serve.add_argument("--shared-pool", default=None, metavar="RATE[:BURST]",
                       help="shared overflow pool tenants may borrow from "
                            "in proportion to their weights")

    edit = commands.add_parser(
        "edit", help="edit a *served* document over the wire (update "
                     "batches with transparent conflict rebase)")
    edit.add_argument("client_file",
                      help="the client secret state written by `outsource`")
    edit.add_argument("operation", choices=["insert", "delete", "rename"],
                      help="which mutation to apply")
    edit.add_argument("node_id", type=int,
                      help="target node: the insert parent, the root of the "
                           "subtree to delete, or the node to rename")
    edit.add_argument("--xml", default=None,
                      help="plaintext subtree to insert (insert only)")
    edit.add_argument("--tag", default=None,
                      help="the new tag name (rename only)")
    edit.add_argument("--host", default="127.0.0.1",
                      help="server host (default: 127.0.0.1)")
    edit.add_argument("--port", type=int, default=9653,
                      help="server TCP port (default: 9653)")
    edit.add_argument("--document-id", default=None,
                      help="address this hosted document id "
                           "(default: the server's default document)")
    edit.add_argument("--max-rebases", type=int, default=4,
                      help="conflict rounds to absorb by refetch-and-rebase "
                           "before giving up (default: 4)")

    stats = commands.add_parser(
        "stats", help="query a running server's metrics snapshot over the "
                      "wire (the stats probe)")
    stats.add_argument("--host", default="127.0.0.1",
                       help="server host (default: 127.0.0.1)")
    stats.add_argument("--port", type=int, default=9653,
                       help="server TCP port (default: 9653)")
    stats.add_argument("--document-id", default=None,
                       help="filter the snapshot to this tenant's view "
                            "(default: the whole-server view)")
    stats.add_argument("--health", action="store_true",
                       help="fetch the health summary instead of metrics")
    stats.add_argument("--json", dest="as_json", action="store_true",
                       help="print the raw JSON payload")

    migrate = commands.add_parser(
        "migrate-store",
        help="migrate a legacy share-store-sqlite-v1 file (JSON coefficient "
             "rows) to the v2 format (binary coefficient pages), losslessly "
             "and atomically")
    migrate.add_argument("server_file", help="path to the v1 SQLite store")

    bench = commands.add_parser(
        "bench", help="run the quick kernel benchmark suite and write a "
                      "JSON perf snapshot")
    bench.add_argument("--out", default=None,
                       help="snapshot path (default: BENCH_1.json, or the "
                            "selected suite's BENCH_N.json)")
    bench.add_argument("--quick", action="store_true",
                       help="smaller sizes/degrees for a fast smoke run")
    bench.add_argument("--repeat", type=int, default=3,
                       help="timing repetitions per measurement (default: 3)")
    bench.add_argument("--concurrency", type=int, default=None, metavar="N",
                       help="run the BENCH_3 concurrent-throughput benchmark "
                            "(the socket transport at 1/4/16/64 sessions up to "
                            "N, plus a coalescing tick-size sweep) instead of "
                            "the kernel suite")
    bench.add_argument("--ops", action="store_true",
                       help="run the BENCH_7 control-plane benchmark "
                            "(per-session latency percentiles under "
                            "concurrency, coalescing tick-size sweep, quota "
                            "enforcement overhead, durable-write overhead) "
                            "instead of the kernel suite")
    return parser


def _load_client(path: str, server_tree) -> ClientContext:
    with open(path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    if state.get("ring") != ring_to_dict(server_tree.ring):
        raise ReproError("the client state was created for a different ring "
                         "than the server file")
    return ClientContext.from_secret_state(server_tree.ring, state["secrets"])


def _seed_bytes(seed: Optional[str]):
    if seed is None:
        return None
    try:
        return bytes.fromhex(seed)
    except ValueError:
        return seed.encode("utf-8")


def _cmd_outsource(args: argparse.Namespace) -> int:
    with open(args.xml_file, "r", encoding="utf-8") as handle:
        document = parse_document(handle.read())
    strict = not args.allow_p_minus_one
    ring = (choose_fp_ring(document, strict=strict) if args.ring == "fp"
            else choose_int_ring(2))
    client, server_tree, _ = outsource_document(
        document, ring=ring, seed=_seed_bytes(args.seed), strict=strict)

    store = SQLiteShareStore.from_tree(args.server_out, server_tree)
    size = store.file_bytes()
    store.close()
    with open(args.client_out, "w", encoding="utf-8") as handle:
        json.dump({"ring": ring_to_dict(ring), "secrets": client.secret_state()},
                  handle, indent=2)

    print(f"outsourced {document.size()} elements "
          f"({len(document.distinct_tags())} distinct tags) in ring {ring.name}")
    print(f"server share tree: {args.server_out} ({size} bytes)")
    print(f"client secret state: {args.client_out} (keep this private)")
    return 0


def _cmd_lookup(args: argparse.Namespace) -> int:
    server_tree = open_share_store(args.server_file)
    client = _load_client(args.client_file, server_tree)
    outcome = client.lookup(server_tree, args.tag,
                            verification=VerificationMode(args.mode))
    print(f"//{args.tag}: {len(outcome.matches)} match(es)")
    for node_id in outcome.matches:
        print(f"  node {node_id}: {client.tag_path_of(server_tree, node_id)}")
    if outcome.unverified_candidates:
        print(f"  unverified candidates: {outcome.unverified_candidates}")
    stats = outcome.stats
    print(f"  evaluated {stats.nodes_evaluated}/{server_tree.node_count()} nodes, "
          f"pruned {stats.nodes_pruned}, {stats.round_trips} round trips")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    server_tree = open_share_store(args.server_file)
    client = _load_client(args.client_file, server_tree)
    result = client.xpath(server_tree, args.xpath,
                          strategy=AdvancedStrategy(args.strategy))
    print(f"{args.xpath}: {len(result.matches)} match(es)")
    for node_id in result.matches:
        print(f"  node {node_id}: {client.tag_path_of(server_tree, node_id)}")
    print(f"  evaluations: {result.stats.evaluations}, "
          f"round trips: {result.stats.round_trips}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    server_tree = open_share_store(args.server_file)
    print(f"backend:     {type(server_tree).__name__}")
    print(f"ring:        {server_tree.ring.name}")
    print(f"nodes:       {server_tree.node_count()}")
    storage_bits = server_tree.storage_bits()
    print(f"storage:     {storage_bits} bits "
          f"({storage_bits // 8} bytes of share polynomials)")
    # The height from one child_lists read per level of the tree.
    height = -1
    level = [] if server_tree.root_id is None else [server_tree.root_id]
    while level:
        height += 1
        lists = server_tree.child_lists(level)
        level = [child for parent in level for child in lists[parent]]
    print(f"tree height: {max(height, 0)}")
    print("note: the server sees structure and share polynomials only; "
          "tag names, the mapping and the seed never appear in this file")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    server_tree = open_share_store(args.server_file)
    client = _load_client(args.client_file, server_tree)
    print(client.tag_path_of(server_tree, args.node_id))
    return 0


def _cmd_edit(args: argparse.Namespace) -> int:
    from .net import RemoteUpdatableTree, connect_socket, ring_from_dict
    from .xmltree import parse_element

    if args.operation == "insert" and not args.xml:
        raise ReproError("insert needs --xml with the subtree to add")
    if args.operation == "rename" and not args.tag:
        raise ReproError("rename needs --tag with the new tag name")

    # The ring travels inside the client state, so editing needs no local
    # copy of the server file — only the live session.
    with open(args.client_file, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    ring = ring_from_dict(state["ring"])
    client = ClientContext.from_secret_state(ring, state["secrets"])

    adapter, channel = connect_socket(args.host, args.port, ring,
                                      document_id=args.document_id)
    try:
        editor = RemoteUpdatableTree(adapter, client.mapping,
                                     client.share_generator,
                                     max_rebases=args.max_rebases)
        if args.operation == "insert":
            report = editor.insert_subtree(args.node_id,
                                           parse_element(args.xml))
        elif args.operation == "delete":
            report = editor.delete_subtree(args.node_id)
        else:
            report = editor.rename_node(args.node_id, args.tag)
    finally:
        channel.close()

    summary = ", ".join(f"{key}={value}"
                        for key, value in report.as_dict().items())
    print(f"committed: {summary}")
    if editor.rebases:
        print(f"rebased {editor.rebases} time(s) around concurrent writers")
    return 0


def _parse_quota_spec(spec: str) -> tuple:
    """``DOC=RATE[:BURST[:WEIGHT]]`` -> (document, rate, burst, weight)."""
    document, sep, numbers = spec.partition("=")
    if not sep or not document:
        raise ReproError(f"malformed --quota {spec!r}: expected "
                         "DOC=RATE[:BURST[:WEIGHT]]")
    parts = numbers.split(":")
    if not 1 <= len(parts) <= 3:
        raise ReproError(f"malformed --quota {spec!r}: expected "
                         "DOC=RATE[:BURST[:WEIGHT]]")
    try:
        rate = float(parts[0])
        burst = float(parts[1]) if len(parts) > 1 else None
        weight = float(parts[2]) if len(parts) > 2 else 1.0
    except ValueError as exc:
        raise ReproError(f"malformed --quota {spec!r}: {exc}") from None
    return document, rate, burst, weight


def _parse_pool_spec(spec: str) -> tuple:
    """``RATE[:BURST]`` -> (rate, burst)."""
    parts = spec.split(":")
    if not 1 <= len(parts) <= 2:
        raise ReproError(f"malformed --shared-pool {spec!r}: expected "
                         "RATE[:BURST]")
    try:
        return float(parts[0]), float(parts[1]) if len(parts) > 1 else None
    except ValueError as exc:
        raise ReproError(f"malformed --shared-pool {spec!r}: {exc}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    from .net import SearchServer, ThreadedSearchServer
    from .obs import MetricsServer

    store = open_share_store(args.server_file)
    if args.document_id is None:
        server = SearchServer(store)
    else:
        server = SearchServer()
        server.add_document(args.document_id, store)
    for spec in args.quota:
        document, rate, burst, weight = _parse_quota_spec(spec)
        server.registry.configure_quota(document, rate, burst=burst,
                                        weight=weight)
    if args.shared_pool is not None:
        rate, burst = _parse_pool_spec(args.shared_pool)
        server.registry.configure_shared_pool(rate, burst=burst)
    metrics_server = None
    try:
        if args.metrics_port is not None:
            metrics_server = MetricsServer(server.metrics,
                                           port=args.metrics_port,
                                           host=args.host,
                                           health=server.health).start()
        transport = ThreadedSearchServer(server, host=args.host,
                                         port=args.port).start()
        host, port = transport.address
        print(f"serving {args.server_file} on {host}:{port} "
              f"[threaded transport, {store.node_count()} nodes]")
        if metrics_server is not None:
            print(f"metrics on http://{args.host}:{metrics_server.port}"
                  f"/metrics (health on /health)")
        if args.quota:
            print(f"admission quotas on {len(args.quota)} tenant(s)"
                  + (", shared overflow pool enabled"
                     if args.shared_pool is not None else ""))
        print("press Ctrl-C to stop")
        try:
            while True:
                threading.Event().wait(3600)
        except KeyboardInterrupt:
            pass
        finally:
            transport.stop()
    finally:
        if metrics_server is not None:
            metrics_server.stop()
        store.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .net.channel import SocketChannel
    from .net.messages import (
        HealthRequest,
        HealthResponse,
        StatsRequest,
        StatsResponse,
    )

    # The stats/health probes are hello-exempt, so the CLI needs no ring
    # and no negotiation — one framed request over a raw socket channel.
    channel = SocketChannel(args.host, args.port)
    try:
        if args.health:
            request = HealthRequest()
        else:
            request = StatsRequest()
        if args.document_id is not None:
            request.for_document(args.document_id)
        response = channel.request(request)
    finally:
        channel.close()

    if args.health:
        if not isinstance(response, HealthResponse):
            raise ReproError(f"unexpected response {response.kind!r}")
        payload = {"status": response.status, **response.detail}
        if args.as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for key in sorted(payload):
                print(f"{key}: {payload[key]}")
        return 0 if response.status == "ok" else 1

    if not isinstance(response, StatsResponse):
        raise ReproError(f"unexpected response {response.kind!r}")
    if args.as_json:
        print(json.dumps(response.metrics, indent=2, sort_keys=True))
        return 0
    accounting = response.metrics.get("accounting", {})
    if accounting:
        summary = ", ".join(f"{key}={accounting[key]}"
                            for key in sorted(accounting))
        print(f"accounting: {summary}")
    quota = response.metrics.get("quota")
    if quota:
        print(f"quota: {json.dumps(quota, sort_keys=True)}")
    instruments = response.metrics.get("instruments", {})
    for section in ("counters", "gauges"):
        for entry in instruments.get(section, []):
            labels = ",".join(f"{k}={v}"
                              for k, v in sorted(entry.get("labels", {}).items()))
            suffix = f"{{{labels}}}" if labels else ""
            print(f"{entry['name']}{suffix} {entry['value']}")
    for entry in instruments.get("histograms", []):
        labels = ",".join(f"{k}={v}"
                          for k, v in sorted(entry.get("labels", {}).items()))
        suffix = f"{{{labels}}}" if labels else ""
        print(f"{entry['name']}{suffix} count={entry['count']} "
              f"p50={entry['p50']} p95={entry['p95']} p99={entry['p99']}")
    return 0


def _cmd_migrate_store(args: argparse.Namespace) -> int:
    from .net import migrate_share_store

    stats = migrate_share_store(args.server_file)
    if stats["before_bytes"] == stats["after_bytes"]:
        print(f"{args.server_file}: already in the current format "
              f"({stats['nodes']} nodes, {stats['before_bytes']} bytes)")
    else:
        ratio = stats["before_bytes"] / max(stats["after_bytes"], 1)
        note = (f"{ratio:.2f}x smaller" if ratio >= 1 else
                "larger — SQLite page granularity dominates tiny stores")
        print(f"migrated {args.server_file}: {stats['nodes']} nodes, "
              f"{stats['before_bytes']} -> {stats['after_bytes']} bytes "
              f"({note})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        format_concurrency_summary,
        format_ops_summary,
        format_summary,
        run_benchmarks,
        run_concurrency_benchmarks,
        run_ops_benchmarks,
        write_snapshot,
    )

    if args.concurrency is not None and args.ops:
        print("error: --concurrency and --ops select different benchmark "
              "suites; pass one of them", file=sys.stderr)
        return 2
    if args.ops:
        results = run_ops_benchmarks(quick=args.quick)
        out = args.out or "BENCH_7.json"
        write_snapshot(results, out)
        print(format_ops_summary(results))
    elif args.concurrency is not None:
        if args.concurrency < 1:
            print("error: --concurrency needs at least one session",
                  file=sys.stderr)
            return 2
        session_counts = [n for n in (1, 4, 16, 64) if n < args.concurrency]
        session_counts.append(args.concurrency)
        results = run_concurrency_benchmarks(quick=args.quick,
                                             session_counts=session_counts)
        out = args.out or "BENCH_3.json"
        write_snapshot(results, out)
        print(format_concurrency_summary(results))
    else:
        results = run_benchmarks(quick=args.quick, repeat=args.repeat)
        out = args.out or "BENCH_1.json"
        write_snapshot(results, out)
        print(format_summary(results))
    print(f"snapshot written to {out}")
    return 0


_HANDLERS = {
    "outsource": _cmd_outsource,
    "lookup": _cmd_lookup,
    "query": _cmd_query,
    "inspect": _cmd_inspect,
    "decode": _cmd_decode,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "edit": _cmd_edit,
    "migrate-store": _cmd_migrate_store,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `... stats | head`); the
        # interpreter would otherwise print a traceback while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":       # pragma: no cover - exercised via tests of main()
    sys.exit(main())
