"""Stdlib-only live metrics endpoint: ``/metrics``, ``/healthz``, ``/events``.

A :class:`MetricsServer` runs a daemon ``ThreadingHTTPServer`` next to a
long experiment run (``python -m repro table2 --serve-metrics 8321``)
and serves the active telemetry session:

* ``GET /metrics``  — the wrapped metrics snapshot (the same
  ``{"snapshot_schema": N, "instruments": {...}}`` JSON that manifests
  and BENCH records persist);
* ``GET /healthz``  — liveness plus uptime and telemetry status;
* ``GET /events``   — the structured-log buffer as a JSON array.

No third-party dependencies, no write endpoints, binds loopback by
default.  ``port=0`` asks the OS for an ephemeral port (used by tests);
the bound port is available as :attr:`MetricsServer.port` after
:meth:`start`.

The payload builders are module-level functions so other surfaces —
``repro serve`` wires its ``/metrics`` and ``/healthz`` endpoints
through them — serve the exact same read-side contract without running
this exporter.  Snapshots are taken under the metrics registry's own
lock (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`), so a
concurrent worker thread registering new instruments can neither crash
the serialisation nor leak a half-registered view of the counters.
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING

from repro.obs import state as _state
from repro.obs.metrics import wrap_snapshot

if TYPE_CHECKING:
    # Imported where a server is built: http.server pulls in http.client,
    # ssl, email and socketserver, which ``import repro`` need not load.
    from http.server import ThreadingHTTPServer


def metrics_payload() -> tuple[int, dict]:
    """``(status, payload)`` of the wrapped live metrics snapshot.

    503 with a hint when telemetry is disabled.  The snapshot itself is
    consistent by construction: the registry serialises under its own
    synchronization, so no partial counter state can leak out however
    many threads are mutating the registry.
    """
    session = _state._active
    if session is None:
        return 503, {"error": "telemetry disabled",
                     "hint": "enable telemetry (repro.obs.enable) or "
                             "run with --serve-metrics"}
    return 200, wrap_snapshot(session.metrics.snapshot())


def healthz_payload(uptime_s: float = 0.0) -> tuple[int, dict]:
    """``(status, payload)`` of the liveness report."""
    session = _state._active
    return 200, {
        "status": "ok",
        "uptime_s": round(uptime_s, 3),
        "telemetry": session is not None,
        "instruments": 0 if session is None else len(session.metrics),
        "events": 0 if session is None else len(session.log.events),
    }


def events_payload() -> tuple[int, dict]:
    """``(status, payload)`` of the structured-log buffer.

    ``dropped`` counts events the bounded ring evicted before this
    read — a non-zero value tells the caller the array is a suffix of
    the session's history, not the whole of it.
    """
    session = _state._active
    if session is None:
        return 503, {"error": "telemetry disabled"}
    return 200, {"events": list(session.log.events),
                 "dropped": session.log.dropped}


class MetricsServer:
    """Background HTTP exporter for the active telemetry session."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("metrics server already started")
        from http.server import ThreadingHTTPServer

        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self.port = self._httpd.server_address[1]
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_s(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- payloads (module-level builders; also used by ``repro serve``) -------

    def metrics_payload(self) -> tuple[int, dict]:
        return metrics_payload()

    def healthz_payload(self) -> tuple[int, dict]:
        return healthz_payload(self.uptime_s)

    def events_payload(self) -> tuple[int, dict]:
        return events_payload()


def _make_handler(server: MetricsServer):
    from http.server import BaseHTTPRequestHandler

    class _Handler(BaseHTTPRequestHandler):
        server_version = "repro-metrics/1"

        def log_message(self, *args) -> None:  # keep CLI output clean
            pass

        def do_GET(self) -> None:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/metrics":
                status, payload = server.metrics_payload()
            elif path == "/healthz":
                status, payload = server.healthz_payload()
            elif path == "/events":
                status, payload = server.events_payload()
            else:
                status, payload = 404, {
                    "error": f"unknown path {path!r}",
                    "endpoints": ["/metrics", "/healthz", "/events"]}
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    return _Handler
