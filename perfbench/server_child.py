"""Traced server: ``repro.cli serve STORE --port 0 --async`` with span wrappers.

Usage (with ``src`` on ``PYTHONPATH``)::

    python perfbench/server_child.py --spans SPANS.json STORE

Installs the server-side wrappers of :mod:`tracing`, then runs the CLI's
``serve`` command unchanged.  When the server stops (SIGINT, as Ctrl-C),
the recorded spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, instrument_server  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("store")
    args = parser.parse_args()

    from repro.cli import main as cli_main

    recorder = Recorder()
    instrument_server(recorder)
    try:
        return cli_main(["serve", args.store, "--port", "0", "--async"])
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
