"""Plaintext metrics scrape endpoint over stdlib ``http.server``.

``serve --metrics-port N`` boots a :class:`MetricsServer` next to the
search transport.  It exposes two routes:

* ``GET /metrics`` — Prometheus-style plaintext rendering of the
  registry (see :meth:`repro.obs.metrics.MetricsRegistry.render_text`).
* ``GET /health`` — a one-line liveness probe with the health payload
  supplied by the serving layer.

The server runs on a daemon thread and holds no references into the
request path; scraping never takes engine locks beyond the per-metric
locks inside the registry.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional

from .metrics import MetricsRegistry

__all__ = ["MetricsServer"]


class _ScrapeHandler(BaseHTTPRequestHandler):
    """Request handler for /metrics and /health."""

    # Set by MetricsServer before the server starts.
    registry: MetricsRegistry
    health: Callable[[], Dict[str, object]]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve /metrics (plaintext) or /health (JSON)."""
        if self.path.split("?", 1)[0] == "/metrics":
            body = self.registry.render_text().encode("utf-8")
            self._reply(200, body, "text/plain; version=0.0.4; charset=utf-8")
        elif self.path.split("?", 1)[0] == "/health":
            payload = self.health()
            status = 200 if payload.get("status") == "ok" else 503
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self._reply(status, body, "application/json")
        else:
            self._reply(404, b"not found\n", "text/plain")

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence per-request logging (scrapes are high-frequency)."""


class MetricsServer:
    """Daemon-thread HTTP server exposing a registry for scraping."""

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        health: Optional[Callable[[], Dict[str, object]]] = None,
    ) -> None:
        """Bind the scrape server; port 0 picks an ephemeral port."""
        handler = type(
            "_BoundScrapeHandler",
            (_ScrapeHandler,),
            {
                "registry": registry,
                "health": staticmethod(health or (lambda: {"status": "ok"})),
            },
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self._httpd.server_address[1]

    def start(self) -> "MetricsServer":
        """Start serving on a daemon thread; returns self for chaining."""
        thread = threading.Thread(
            target=self._serve,
            name="metrics-scrape",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def _serve(self) -> None:
        """Answer scrapes until :meth:`stop`.

        Each ``handle_request`` blocks until the listener is readable, so
        :meth:`stop` wakes the loop at once by shutting the listener down,
        where ``serve_forever`` would notice a stop only at its next
        0.5 s poll.
        """
        while not self._stopping.is_set():
            self._httpd.handle_request()

    def stop(self) -> None:
        """Shut the server down and join the serving thread."""
        self._stopping.set()
        try:
            # Wakes the handle_request() blocked in the serving thread.
            self._httpd.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        """Context-manager entry: start the server."""
        return self.start()

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: stop the server."""
        self.stop()
