"""The asyncio HTTP front end of ``repro serve``.

A stdlib-only HTTP/1.1 server (``asyncio.start_server``; no
third-party frameworks) that frames requests and routes them:

* ``POST /predict``   → :func:`repro.serve.service.handle_predict`
* ``POST /recommend`` → :func:`repro.serve.service.handle_recommend`
* ``GET /metrics``    → the wrapped telemetry snapshot plus the
  rolling-window block (:func:`repro.obs.export.metrics_payload` — the
  same read-side contract the ``--serve-metrics`` exporter serves)
* ``GET /healthz``    → liveness plus the SLO block; ``status`` flips
  to ``degraded`` while an error-budget fast burn is in progress
* ``GET /events``     → the structured-log ring (with ``dropped``)
* ``GET /debug/requests`` → recent/slowest requests with span trees
  (``?id=<request-id>`` looks one up, ``?limit=N`` bounds the lists)
* ``GET /dashboard``  → self-contained inline-SVG live dashboard

Every request gets a ``request_id`` (honouring a well-formed
client-supplied ``X-Repro-Request-Id``), echoed on the response and
stamped on the ``serve.request`` span.  A request whose every flow cell
is already in the flow cache (and whose calibrated profile is memoized)
is answered by the handler on the event loop: it is a handful of
dictionary lookups, cheaper than the thread hop.  Every request that
needs a solve runs on a small thread pool (``run_in_executor``) under
``contextvars.copy_context()``, so a cold solve never stalls framing,
and spans the solver opens in a pool thread parent to the dispatching
request's span instead of orphaning — that is what makes the
``/debug/requests`` trace trees complete on both paths.

Every response path — including malformed-framing rejections — is
recorded exactly once on the server's
:class:`~repro.serve.stats.ServiceTelemetry`, so windowed error rates
have trustworthy denominators.

Connections are keep-alive by default (HTTP/1.1), closed on
``Connection: close``, malformed framing, or a read (the head, or the
body) that takes longer than ``read_timeout_s``.  Bodies are capped at
:data:`MAX_BODY_BYTES`.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import re
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs

from repro import obs
from repro.obs.export import events_payload, healthz_payload, metrics_payload
from repro.obs.tracing import Span
from repro.serve.service import (
    handle_predict,
    handle_recommend,
    predict_memoized,
    recommend_memoized,
)
from repro.serve.stats import ServiceTelemetry

#: Largest accepted request body; predict/recommend bodies are tiny.
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request head (request line + headers).
_MAX_HEAD_BYTES = 1 << 14

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

_ENDPOINTS = ["/predict", "/recommend", "/metrics", "/healthz", "/events",
              "/debug/requests", "/dashboard"]

#: Accepted shape of a client-supplied ``X-Repro-Request-Id``.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def new_request_id() -> str:
    """A fresh 16-hex-char request id."""
    return uuid.uuid4().hex[:16]


class PredictionServer:
    """One ``repro serve`` instance bound to ``host:port``.

    ``port=0`` binds an ephemeral port (tests); the real port is
    available as :attr:`port` after :meth:`start`.  Use as an async
    context manager.  ``stats`` (a
    :class:`~repro.serve.stats.ServiceTelemetry`) is injectable so tests
    can drive the rolling windows and SLO clocks.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8321, *,
                 workers: int = 4, read_timeout_s: float = 30.0,
                 stats: ServiceTelemetry | None = None) -> None:
        self.host = host
        self.port = port
        self.read_timeout_s = read_timeout_s
        self.stats = stats if stats is not None else ServiceTelemetry()
        self._workers = workers
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._started_at: float | None = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "PredictionServer":
        if self._server is not None:
            raise RuntimeError("prediction server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix="repro-serve-worker")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        return self

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "PredictionServer":
        return await self.start()

    async def __aexit__(self, *exc) -> bool:
        await self.stop()
        return False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_s(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- request handling -----------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read(self, read, writer: asyncio.StreamWriter) -> bytes:
        """Await ``read`` under a ``read_timeout_s`` deadline.

        The deadline is a loop timer that aborts the transport, not a
        ``wait_for`` task: the aborted read raises the
        ``IncompleteReadError`` / ``ConnectionError`` that
        :meth:`_serve_connection` already treats as a closed connection.
        """
        deadline = asyncio.get_running_loop().call_later(
            self.read_timeout_s, writer.transport.abort)
        try:
            return await read
        finally:
            deadline.cancel()

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Frame and answer one request; returns keep-alive?"""
        head = await self._read(reader.readuntil(b"\r\n\r\n"), writer)
        t0 = time.perf_counter()
        if len(head) > _MAX_HEAD_BYTES:
            await self._finish(
                writer, 400, {"error": "request head too large"}, close=True,
                t0=t0, method="?", path="?", request_id=new_request_id())
            return False
        try:
            method, path, headers = _parse_head(head)
        except ValueError as exc:
            await self._finish(
                writer, 400, {"error": str(exc)}, close=True,
                t0=t0, method="?", path="?", request_id=new_request_id())
            return False
        request_id = headers.get("x-repro-request-id", "")
        if not _REQUEST_ID_RE.match(request_id):
            request_id = new_request_id()
        close = headers.get("connection", "").lower() == "close"

        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            await self._finish(
                writer, 400, {"error": "malformed Content-Length"},
                close=True, t0=t0, method=method, path=path,
                request_id=request_id)
            return False
        if length < 0 or length > MAX_BODY_BYTES:
            await self._finish(
                writer, 413, {
                    "error": f"body of {length} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte limit"},
                close=True, t0=t0, method=method, path=path,
                request_id=request_id)
            return False
        raw = b""
        if length:
            raw = await self._read(reader.readexactly(length), writer)

        status, payload, trace = await self._route(
            method, path, raw, request_id)
        await self._finish(writer, status, payload, close=close, t0=t0,
                           method=method, path=path, request_id=request_id,
                           trace=trace)
        return not close

    async def _finish(self, writer: asyncio.StreamWriter, status: int,
                      payload, *, close: bool, t0: float, method: str,
                      path: str, request_id: str,
                      trace: dict | None = None) -> None:
        """Record one finished request (exactly once) and write the response."""
        self.stats.record(
            method=method, path=path.split("?", 1)[0], status=status,
            duration_s=time.perf_counter() - t0, request_id=request_id,
            trace=trace)
        await _respond(writer, status, payload, close=close,
                       request_id=request_id)

    async def _route(self, method: str, path: str, raw: bytes,
                     request_id: str) -> tuple[int, object, dict | None]:
        """Dispatch one framed request; returns (status, payload, trace)."""
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        if path in ("/predict", "/recommend"):
            if method != "POST":
                return 405, {"error": f"{path} wants POST, got {method}"}, None
            return await self._handle_post(path, raw, request_id)
        if path in ("/metrics", "/healthz", "/events", "/debug/requests",
                    "/dashboard"):
            if method != "GET":
                return 405, {"error": f"{path} wants GET, got {method}"}, None
            return (*self._handle_get(path, query), None)
        return 404, {
            "error": f"unknown path {path!r}",
            "endpoints": _ENDPOINTS}, None

    async def _handle_post(self, path: str, raw: bytes, request_id: str
                           ) -> tuple[int, object, dict | None]:
        """Decode, trace and answer one handler call, on the loop or the pool.

        The ``serve.request`` span carries the ``request_id`` label.
        When the caches already hold the answer the handler runs right
        here, inside this context; otherwise it runs on the pool inside
        a *copy* of it.  Either way solver spans nest under the request
        span and structured log events emitted below pick the id up.

        The cache look and the handler call are not atomic: a pool
        thread may evict an entry in between.  The answer stays correct
        (the handler solves what it misses) and only that one request
        solves on the loop.
        """
        try:
            body = json.loads(raw.decode("utf-8")) if raw else None
        # json.loads raises RecursionError on over-deep nesting.
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            return 400, {"error": f"request body is not JSON: {exc}"}, None
        if body is None:
            return 400, {"error": "request body must be a JSON object"}, None
        if path == "/predict":
            handler, memoized = handle_predict, predict_memoized
        else:
            handler, memoized = handle_recommend, recommend_memoized
        with obs.span("serve.request", request_id=request_id,
                      path=path) as req_span:
            if memoized(body):
                status, payload = handler(body)
            else:
                loop = asyncio.get_running_loop()
                ctx = contextvars.copy_context()
                status, payload = await loop.run_in_executor(
                    self._executor, ctx.run, handler, body)
        trace = None
        if isinstance(req_span, Span):
            # Move the finished tree out of the session tracer (bounding
            # its memory over a long-running service) and into the
            # request ring, where /debug/requests can find it by id.
            req_span.tracer.detach_root(req_span)
            trace = req_span.to_dict()
        return status, payload, trace

    def _handle_get(self, path: str, query: str) -> tuple[int, object]:
        if path == "/metrics":
            status, payload = metrics_payload()
            if status == 200:
                payload["windows"] = self.stats.windows_payload()
            return status, payload
        if path == "/healthz":
            status, payload = healthz_payload(self.uptime_s)
            slo = self.stats.slo_state()
            payload["slo"] = slo
            payload["status"] = slo["status"]
            return status, payload
        if path == "/events":
            return events_payload()
        if path == "/debug/requests":
            params = parse_qs(query)
            try:
                limit = int(params.get("limit", ["32"])[0])
            except ValueError:
                return 400, {"error": "limit must be an integer"}
            req_id = params.get("id", [None])[0]
            payload = self.stats.debug_payload(limit=limit, request_id=req_id)
            return (404 if "error" in payload else 200), payload
        assert path == "/dashboard"
        from repro.serve.dashboard import render_dashboard
        return 200, render_dashboard(self)


def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """Split a request head into (method, path, lower-cased headers)."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise ValueError("undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, path, headers


async def _respond(writer: asyncio.StreamWriter, status: int, payload, *,
                   close: bool, request_id: str | None = None) -> None:
    """Serialise and write one response.

    ``payload`` is a dict (JSON) or a pre-rendered HTML string (the
    dashboard).  The request id, when present, is echoed in the
    ``X-Repro-Request-Id`` header on every path, success or error.
    """
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/html; charset=utf-8"
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        content_type = "application/json"
    reason = _REASONS.get(status, "Unknown")
    rid_header = f"X-Repro-Request-Id: {request_id}\r\n" if request_id else ""
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{rid_header}"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n")
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


__all__ = ["PredictionServer", "MAX_BODY_BYTES", "new_request_id"]
