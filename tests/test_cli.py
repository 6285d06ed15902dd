"""Tests for the command-line interface."""

import json
import os
import select
import signal
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.workloads import figure1_document
from repro.xmltree import serialize_document


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "customers.xml"
    path.write_text(serialize_document(figure1_document()), encoding="utf-8")
    return str(path)


@pytest.fixture
def outsourced_files(tmp_path, xml_file, capsys):
    server = str(tmp_path / "server.db")
    client = str(tmp_path / "client.json")
    code = main(["outsource", xml_file, "--server-out", server,
                 "--client-out", client, "--seed", "cli-test-seed",
                 "--allow-p-minus-one"])
    capsys.readouterr()
    assert code == 0
    return server, client


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_known_commands(self):
        parser = build_parser()
        for command in ("outsource", "lookup", "query", "inspect", "decode",
                        "serve", "bench"):
            assert command in parser.format_help()

    def test_serve_options(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "server.db", "--port", "0",
                                  "--async", "--document-id", "docs"])
        assert args.command == "serve"
        assert args.use_async and args.port == 0
        assert args.document_id == "docs"


class TestOutsource:
    def test_creates_both_files(self, tmp_path, xml_file, capsys):
        from repro.algebra import FpQuotientRing
        from repro.net import SQLiteShareStore, open_share_store

        server = tmp_path / "server.db"
        client = tmp_path / "client.json"
        code = main(["outsource", xml_file, "--server-out", str(server),
                     "--client-out", str(client), "--seed", "deadbeef"])
        output = capsys.readouterr().out
        assert code == 0
        assert "outsourced 5 elements" in output
        with open_share_store(str(server)) as store:
            assert isinstance(store, SQLiteShareStore)
            assert isinstance(store.ring, FpQuotientRing)
            assert store.node_count() == 5
        client_data = json.loads(client.read_text())
        assert "secrets" in client_data and "mapping" in client_data["secrets"]
        # No tag name leaks into the server file.
        assert b"customers" not in server.read_bytes()

    def test_int_ring_option(self, tmp_path, xml_file, capsys):
        from repro.algebra import IntQuotientRing
        from repro.net import open_share_store

        server = tmp_path / "server.db"
        client = tmp_path / "client.json"
        code = main(["outsource", xml_file, "--server-out", str(server),
                     "--client-out", str(client), "--ring", "int"])
        assert code == 0
        with open_share_store(str(server)) as store:
            assert isinstance(store.ring, IntQuotientRing)
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["outsource", str(tmp_path / "missing.xml"),
                     "--server-out", str(tmp_path / "s.db"),
                     "--client-out", str(tmp_path / "c.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestQueries:
    def test_lookup(self, outsourced_files, capsys):
        server, client = outsourced_files
        code = main(["lookup", server, client, "client"])
        output = capsys.readouterr().out
        assert code == 0
        assert "2 match(es)" in output
        assert "customers/client" in output

    def test_lookup_modes(self, outsourced_files, capsys):
        server, client = outsourced_files
        for mode in ("full", "constant-only", "none"):
            assert main(["lookup", server, client, "name", "--mode", mode]) == 0
        capsys.readouterr()

    def test_query_command(self, outsourced_files, capsys):
        server, client = outsourced_files
        code = main(["query", server, client, "//client/name"])
        output = capsys.readouterr().out
        assert code == 0
        assert "2 match(es)" in output

    def test_query_strategies(self, outsourced_files, capsys):
        server, client = outsourced_files
        for strategy in ("single-pass", "left-to-right"):
            assert main(["query", server, client, "//customers/client",
                         "--strategy", strategy]) == 0
        capsys.readouterr()

    def test_client_state_of_the_hmac_derivation_is_refused(
            self, outsourced_files, capsys):
        server, client = outsourced_files
        with open(client, encoding="utf-8") as handle:
            state = json.load(handle)
        state["secrets"]["share_derivation"] = "hmac-stream-v2"
        with open(client, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        code = main(["lookup", server, client, "client"])
        error = capsys.readouterr().err
        assert code == 1
        assert "'hmac-stream-v2'" in error
        assert "'shake256-xof-v3'" in error
        assert "re-outsource" in error

    def test_unknown_tag_is_reported_as_error(self, outsourced_files, capsys):
        server, client = outsourced_files
        code = main(["lookup", server, client, "nonexistent"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestInspectAndDecode:
    def test_inspect(self, outsourced_files, capsys):
        server, _ = outsourced_files
        assert main(["inspect", server]) == 0
        output = capsys.readouterr().out
        assert "backend:     SQLiteShareStore" in output
        assert "nodes:       5" in output
        assert "tree height: 2" in output
        assert "structure and share polynomials only" in output

    def test_decode(self, outsourced_files, capsys):
        server, client = outsourced_files
        assert main(["decode", server, client, "4"]) == 0
        assert capsys.readouterr().out.strip() == "customers/client/name"

    def test_mismatched_client_and_server(self, tmp_path, xml_file, capsys):
        # Outsource twice with different rings; mixing the files must fail.
        fp_server, fp_client = str(tmp_path / "s1.db"), str(tmp_path / "c1.json")
        int_server, int_client = str(tmp_path / "s2.db"), str(tmp_path / "c2.json")
        main(["outsource", xml_file, "--server-out", fp_server,
              "--client-out", fp_client, "--allow-p-minus-one"])
        main(["outsource", xml_file, "--server-out", int_server,
              "--client-out", int_client, "--ring", "int"])
        capsys.readouterr()
        code = main(["lookup", fp_server, int_client, "client"])
        assert code == 1
        assert "different ring" in capsys.readouterr().err


class TestEdit:
    def test_edit_options(self):
        parser = build_parser()
        args = parser.parse_args(["edit", "client.json", "rename", "4",
                                  "--tag", "client", "--port", "0"])
        assert args.command == "edit"
        assert args.node_id == 4 and args.tag == "client"
        assert args.max_rebases == 4

    def test_remote_rename_and_delete(self, outsourced_files, capsys):
        from repro.net import (
            SearchServer,
            ThreadedSearchServer,
            open_share_store,
        )

        server_file, client_file = outsourced_files
        store = open_share_store(server_file)
        server = ThreadedSearchServer(SearchServer(store))
        server.start()
        try:
            host, port = server.address
            code = main(["edit", client_file, "rename", "4",
                         "--tag", "client",
                         "--host", host, "--port", str(port)])
            output = capsys.readouterr().out
            assert code == 0
            assert "committed" in output and "operation=rename" in output
            code = main(["edit", client_file, "delete", "2",
                         "--host", host, "--port", str(port)])
            assert code == 0
            assert "operation=delete" in capsys.readouterr().out
        finally:
            server.stop()
        # The hosted store really was edited over the wire.
        assert 2 not in store.node_ids()

    def test_insert_requires_xml(self, outsourced_files, capsys):
        _, client_file = outsourced_files
        assert main(["edit", client_file, "insert", "1"]) == 1
        assert "--xml" in capsys.readouterr().err

    def test_rename_requires_tag(self, outsourced_files, capsys):
        _, client_file = outsourced_files
        assert main(["edit", client_file, "rename", "1"]) == 1
        assert "--tag" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_snapshot(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_TEST.json")
        assert main(["bench", "--quick", "--repeat", "1", "--out", out]) == 0
        output = capsys.readouterr().out
        assert "snapshot BENCH_1" in output
        assert "end-to-end" in output
        with open(out, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["snapshot"] == "BENCH_1"
        assert "poly_mul_fp" in snapshot
        assert "quotient_reduce" in snapshot
        # Shape only — threshold checks live in benchmarks/test_bench_kernels.py
        # where timing is controlled; asserting a ratio here would be flaky.
        assert snapshot["end_to_end"]["speedup"] > 0.0

    def test_bench_command_listed(self):
        assert "bench" in build_parser().format_help()

    def test_bench_concurrency_writes_bench3_snapshot(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_3_TEST.json")
        assert main(["bench", "--concurrency", "2", "--quick",
                     "--out", out]) == 0
        output = capsys.readouterr().out
        assert "snapshot BENCH_3" in output
        with open(out, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["snapshot"] == "BENCH_3"
        concurrency = snapshot["concurrency"]
        assert concurrency["identical_to_reference"] is True
        assert set(concurrency["by_sessions"]) == {"1", "2"}
        assert set(concurrency["tick_sweep"]["ticks"]) == {"1", "4", "0"}
        # Shape only: throughput on a quick run's tiny workload says
        # nothing, so no ratio is asserted.
        rows = list(concurrency["by_sessions"].values()) + \
            list(concurrency["tick_sweep"]["ticks"].values())
        for row in rows:
            assert row["lookups_per_s"] > 0.0
            assert row["accounting_reconciles"] is True

    def test_bench_ops_writes_bench7_snapshot(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_7_TEST.json")
        assert main(["bench", "--ops", "--quick", "--out", out]) == 0
        assert "snapshot BENCH_7" in capsys.readouterr().out
        with open(out, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["snapshot"] == "BENCH_7"
        assert snapshot["config"]["identical_to_reference"] is True
        rows = list(snapshot["latency_by_sessions"].values()) + \
            list(snapshot["tick_sweep"]["ticks"].values())
        assert all(row["accounting_reconciles"] is True for row in rows)
        assert snapshot["quota_overhead"]["quota_shed"] == 0
        # Shape only, as above: the durable-write section inserts and
        # deletes subtrees through both backends; no ratio is asserted.
        assert set(snapshot["wal_overhead"]["backends"]) == {"sqlite_wal",
                                                             "in_memory"}

    def test_bench_concurrency_rejects_zero_sessions(self, capsys):
        assert main(["bench", "--concurrency", "0"]) == 2
        assert "at least one session" in capsys.readouterr().err

    def test_bench_suite_flags_are_mutually_exclusive(self, capsys):
        assert main(["bench", "--concurrency", "2", "--ops"]) == 2
        err = capsys.readouterr().err
        assert "--concurrency" in err and "--ops" in err


class TestServe:
    """``serve`` as a child process: banner, one verified lookup, Ctrl-C."""

    @pytest.mark.parametrize("flags", [[], ["--async"]],
                             ids=["plain", "async-flag"])
    def test_serve_answers_a_full_lookup_and_exits_cleanly(
            self, tmp_path, xml_file, outsourced_files, flags):
        from repro.baselines import PlaintextSearchIndex
        from repro.core import ClientContext, VerificationMode
        from repro.net import connect_socket, ring_from_dict
        from repro.xmltree import parse_document

        server_file, client_file = outsourced_files
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        child = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", server_file,
             "--port", "0"] + flags,
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            assert select.select([child.stdout], [], [], 60.0)[0]
            banner = child.stdout.readline()
            assert banner.startswith(f"serving {server_file} on 127.0.0.1:")
            port = int(banner.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            with open(client_file, "r", encoding="utf-8") as handle:
                state = json.load(handle)
            ring = ring_from_dict(state["ring"])
            client = ClientContext.from_secret_state(ring, state["secrets"])
            adapter, channel = connect_socket("127.0.0.1", port, ring)
            try:
                outcome = client.lookup(adapter, "name",
                                        verification=VerificationMode.FULL)
            finally:
                channel.close()
            with open(xml_file, "r", encoding="utf-8") as handle:
                document = parse_document(handle.read())
            assert outcome.matches == \
                PlaintextSearchIndex(document).lookup("name").matches
            assert outcome.matches
        finally:
            child.send_signal(signal.SIGINT)
            try:
                child.wait(timeout=30.0)
            finally:
                child.kill()
                child.stdout.close()
                child.stderr.close()
        assert child.returncode == 0
