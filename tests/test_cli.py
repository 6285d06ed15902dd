"""Tests for the command-line interface."""

import json

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
    server = str(tmp_path / "server.json")
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
        server = tmp_path / "server.json"
        client = tmp_path / "client.json"
        code = main(["outsource", xml_file, "--server-out", str(server),
                     "--client-out", str(client), "--seed", "deadbeef"])
        output = capsys.readouterr().out
        assert code == 0
        assert "outsourced 5 elements" in output
        server_data = json.loads(server.read_text())
        client_data = json.loads(client.read_text())
        assert server_data["ring"]["kind"] == "fp"
        assert "secrets" in client_data and "mapping" in client_data["secrets"]
        # No tag name leaks into the server file.
        assert "customers" not in server.read_text()

    def test_int_ring_option(self, tmp_path, xml_file, capsys):
        server = tmp_path / "server.json"
        client = tmp_path / "client.json"
        code = main(["outsource", xml_file, "--server-out", str(server),
                     "--client-out", str(client), "--ring", "int"])
        assert code == 0
        assert json.loads(server.read_text())["ring"]["kind"] == "int"
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["outsource", str(tmp_path / "missing.xml"),
                     "--server-out", str(tmp_path / "s.json"),
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
        assert "nodes:       5" in output
        assert "tree height: 2" in output
        assert "structure and share polynomials only" in output

    def test_inspect_sqlite_store(self, tmp_path, xml_file, outsourced_files,
                                  capsys):
        server = str(tmp_path / "server.db")
        assert main(["outsource", xml_file, "--server-out", server,
                     "--client-out", str(tmp_path / "client-db.json"),
                     "--seed", "cli-test-seed", "--allow-p-minus-one",
                     "--store", "sqlite"]) == 0
        capsys.readouterr()
        assert main(["inspect", server]) == 0
        output = capsys.readouterr().out
        assert "backend:     SQLiteShareStore" in output
        assert "nodes:       5" in output
        assert "tree height: 2" in output
        # Same shares as the JSON file of the same seed: same storage line.
        assert main(["inspect", outsourced_files[0]]) == 0
        storage = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("storage:")]
        assert storage and storage[0] in output

    def test_decode(self, outsourced_files, capsys):
        server, client = outsourced_files
        assert main(["decode", server, client, "4"]) == 0
        assert capsys.readouterr().out.strip() == "customers/client/name"

    def test_mismatched_client_and_server(self, tmp_path, xml_file, capsys):
        # Outsource twice with different rings; mixing the files must fail.
        fp_server, fp_client = str(tmp_path / "s1.json"), str(tmp_path / "c1.json")
        int_server, int_client = str(tmp_path / "s2.json"), str(tmp_path / "c2.json")
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
        assert set(concurrency["modes"]) == {"sync_threaded", "async_coalesced"}
        # Shape only — the async-beats-sync assertion needs the full-size
        # document and lives in the recorded BENCH_3.json, not in a quick
        # run on a tiny workload.
        for mode in concurrency["modes"].values():
            for row in mode.values():
                assert row["lookups_per_s"] > 0.0

    def test_bench_concurrency_rejects_zero_sessions(self, capsys):
        assert main(["bench", "--concurrency", "0"]) == 2
        assert "at least one session" in capsys.readouterr().err

    def test_bench_suite_flags_are_mutually_exclusive(self, capsys):
        assert main(["bench", "--kernels", "--faults"]) == 2
        err = capsys.readouterr().err
        assert "--kernels" in err and "--faults" in err
        assert main(["bench", "--kernels", "--updates"]) == 2

    def test_bench_kernels_flag_parses(self):
        args = build_parser().parse_args(["bench", "--kernels", "--quick"])
        assert args.kernels is True and args.quick is True
