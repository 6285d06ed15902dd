"""The server process, the cheap counters read around it, and its probes.

The server is a child process started exactly as
``python -m repro.cli serve STORE --port 0 --async`` starts it, so the
load generator and the server never share an interpreter lock.  Traced
runs start it through ``perfbench/server_child.py``, which installs the
server-side span wrappers and then calls the same CLI entry point.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.net.channel import SocketChannel
from repro.net.engine import DEFAULT_DOCUMENT
from repro.net.messages import StatsRequest, StatsResponse

HERE = Path(__file__).resolve().parent

#: How long the server may take to print its listening line.
READY_TIMEOUT_S = 60.0
#: How long a stopped server may take to close its store and exit.
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``repro.cli serve --async`` child on a SQLite store."""

    def __init__(self, store_path: Path, src: Path, log_path: Path,
                 spans_path: Optional[Path] = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(src))
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro.cli", "serve",
                       str(store_path), "--port", "0", "--async"]
        else:
            command = [sys.executable, "-u", str(HERE / "server_child.py"),
                       "--spans", str(spans_path), str(store_path)]
        self.log_path = log_path
        with open(log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
        self.pid = self.process.pid
        try:
            self.port = self._await_listening()
        except BaseException:
            self.kill()
            raise

    def _await_listening(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stdout.readline()
            if not line:
                break
            # "serving STORE on HOST:PORT [async (coalesced) transport, N nodes]"
            if line.startswith("serving "):
                address = line.split(" on ", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise RuntimeError("the server did not start: "
                           + self.log_path.read_text(encoding="utf-8")[-2000:])

    def stop(self) -> None:
        """Interrupt the server as Ctrl-C would and wait until it has exited.

        The CLI closes the store on the way out, so file sizes read after
        this are the closed store's.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
        self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"the server exited with code {self.process.returncode}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def proc_counters(pid: int) -> Dict[str, float]:
    """CPU, memory and write I/O of a live process from ``/proc``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        # Fields after the parenthesised command name; utime and stime are
        # fields 14 and 15 of the whole line.
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    counters = {"cpu_s": (int(fields[11]) + int(fields[12])) / ticks}
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                counters[key] = float(value.split()[0])       # kB
    with open(f"/proc/{pid}/io", "r", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("write_bytes", "syscw"):
                counters[key] = float(value)
    return counters


def host_steal_seconds(cpu: int) -> float:
    """CPU time the hypervisor gave to other guests on one CPU."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            # cpuN user nice system idle iowait irq softirq steal ...
            if fields[0] == f"cpu{cpu}":
                steal = int(fields[8]) if len(fields) > 8 else 0
                return steal / os.sysconf("SC_CLK_TCK")
    return 0.0


def stats_probe(port: int, document_id: Optional[str] = None) -> Dict:
    """One v3 ``stats`` probe over a fresh raw socket (hello-exempt)."""
    channel = SocketChannel("127.0.0.1", port)
    try:
        request = StatsRequest()
        if document_id is not None:
            request.for_document(document_id)
        response = channel.request(request)
    finally:
        channel.close()
    if not isinstance(response, StatsResponse):
        raise RuntimeError(f"unexpected stats reply {response.kind!r}")
    return response.metrics


def server_counters(port: int) -> Dict[str, float]:
    """Sums of the serving stack's request, cache and transaction instruments.

    Stats probes themselves are left out, so the probes that open and
    close a timed window do not count as its work.
    """
    metrics = stats_probe(port, DEFAULT_DOCUMENT)
    instruments = metrics["instruments"]
    totals: Dict[str, float] = {}
    for entry in instruments.get("counters", []):
        if entry.get("labels", {}).get("kind") == "stats":
            continue
        totals[entry["name"]] = totals.get(entry["name"], 0.0) + entry["value"]
    for entry in instruments.get("histograms", []):
        if entry.get("labels", {}).get("kind") == "stats":
            continue
        for field in ("sum", "count"):
            key = f"{entry['name']}_{field}"
            totals[key] = totals.get(key, 0.0) + (entry.get(field) or 0.0)
    return totals


def reconcile(port: int) -> Dict[str, int]:
    """Whole-server accounting; every request but this probe must be settled."""
    accounting = stats_probe(port)["accounting"]
    settled = (accounting["completed"] + accounting["shed"]
               + accounting["failed"])
    if accounting["admitted"] - 1 != settled or accounting["inflight"] != 1:
        raise RuntimeError(f"server accounting does not reconcile: {accounting}")
    return accounting


def mount_of(path: Path) -> Dict[str, str]:
    """Filesystem type and mount point holding ``path``."""
    target = str(path.resolve())
    best = ("/", "unknown")
    with open("/proc/mounts", "r", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            mount_point, fstype = fields[1], fields[2]
            if (target == mount_point or target.startswith(
                    mount_point.rstrip("/") + "/")) and len(mount_point) >= len(best[0]):
                best = (mount_point, fstype)
    return {"mount": best[0], "fstype": best[1]}


def file_bytes(store_path: Path) -> int:
    """Bytes of the store and any SQLite side files left next to it."""
    total = 0
    for suffix in ("", "-wal", "-shm"):
        candidate = Path(str(store_path) + suffix)
        if candidate.exists():
            total += candidate.stat().st_size
    return total


__all__: List[str] = ["ServerProcess", "proc_counters", "host_steal_seconds",
                      "stats_probe",
                      "server_counters", "reconcile", "mount_of", "file_bytes"]
