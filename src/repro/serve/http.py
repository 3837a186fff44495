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
stamped on the ``serve.request`` span.  A ``/predict`` or ``/recommend``
body is first looked up, before JSON decoding, in
:data:`repro.perf.response_cache` under (path, SHA-256 of the raw
body): a hit is answered on the event loop with the stored bytes.  A
miss runs its handler on a small thread pool (``run_in_executor``)
under ``contextvars.copy_context()``, so a cold solve never stalls
framing, and spans the solver opens in a pool thread parent to the
dispatching request's span instead of orphaning — that is what makes
the ``/debug/requests`` trace trees complete.  Only a 200 whose every
solve ran on the exact rung fills the memo, and while a flow fault is
armed the memo is neither read nor filled.

Every response path — including malformed-framing rejections — is
recorded exactly once on the server's
:class:`~repro.serve.stats.ServiceTelemetry`, so windowed error rates
have trustworthy denominators.

Connections are keep-alive by default (HTTP/1.1), closed on
``Connection: close``, malformed framing, or a read (the head, or the
body) that takes longer than ``read_timeout_s``.  A request with a
``Transfer-Encoding`` gets 501 and one with a repeated or non-decimal
``Content-Length`` gets 400; bodies are capped at
:data:`MAX_BODY_BYTES`.  :meth:`PredictionServer.stop` stops accepting,
closes connections waiting for a request head and returns once the
in-flight responses are written.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import json
import re
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs

from repro import obs
from repro.obs import names
from repro.obs.export import events_payload, healthz_payload, metrics_payload
from repro.obs.tracing import Span
from repro.perf.cache import MISS, response_cache
from repro.resilience.faultinject import solver_fault_armed
from repro.runtime.flow import FLOW_SITE
from repro.serve.service import exact_answer, handle_predict, handle_recommend
from repro.serve.stats import ServiceTelemetry

#: Largest accepted request body; predict/recommend bodies are tiny.
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request head (request line + headers).
_MAX_HEAD_BYTES = 1 << 14

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 501: "Not Implemented",
            503: "Service Unavailable"}

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
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()  # awaiting a head
        self._closing = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "PredictionServer":
        if self._server is not None:
            raise RuntimeError("prediction server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix="repro-serve-worker")
        self._closing = False
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        return self

    async def stop(self) -> None:
        """Stop accepting, close idle connections, drain the in-flight ones.

        A connection waiting for a request head is closed at once; one
        reading a body or being answered writes that response (with
        ``Connection: close``) and then closes.
        """
        if self._server is None:
            return
        self._server.close()
        self._closing = True
        for writer in list(self._idle):
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
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

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Start one connection's task, tracked so :meth:`stop` can drain it."""
        if self._closing:  # accepted before stop(), connected after it
            writer.close()
            return
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while not self._closing:
                if not await self._serve_one(reader, writer):
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
        self._idle.add(writer)
        try:
            head = await self._read(reader.readuntil(b"\r\n\r\n"), writer)
        finally:
            self._idle.discard(writer)
        if self._closing:  # stop() closed the socket under a buffered head
            return False
        t0 = time.perf_counter()
        method = path = "?"
        headers: dict[str, str] = {}
        rejected: _Rejected | None = None
        try:
            if len(head) > _MAX_HEAD_BYTES:
                raise _Rejected(400, "request head too large")
            method, path, headers = _parse_head(head)
            length = _content_length(headers)
        except _Rejected as exc:
            rejected = exc
        request_id = headers.get("x-repro-request-id", "")
        if not _REQUEST_ID_RE.match(request_id):
            request_id = new_request_id()
        if rejected is not None:
            await self._finish(
                writer, rejected.status, {"error": str(rejected)},
                close=True, t0=t0, method=method, path=path,
                request_id=request_id)
            return False
        raw = b""
        if length:
            raw = await self._read(reader.readexactly(length), writer)

        status, payload, trace = await self._route(
            method, path, raw, request_id)
        close = self._closing \
            or headers.get("connection", "").lower() == "close"
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
        """Answer one POST from the response memo or a handler on the pool.

        The ``serve.request`` span carries the ``request_id`` label.  A
        memo hit is answered inside it on the loop, bumping the outcome
        counter the handler would; a miss runs the handler on the pool
        inside a *copy* of this context, so solver spans nest under the
        request span and structured log events emitted below pick the
        id up.
        """
        if path == "/predict":
            handler, counter = handle_predict, names.SERVE_PREDICTIONS
        else:
            handler, counter = handle_recommend, names.SERVE_RECOMMENDATIONS
        key = (path, hashlib.sha256(raw).digest())
        memo = not solver_fault_armed(FLOW_SITE)
        answer = response_cache.get(key) if memo else MISS
        if answer is MISS:
            try:
                body = json.loads(raw.decode("utf-8")) if raw else None
            # json.loads raises RecursionError on over-deep nesting.
            except (json.JSONDecodeError, UnicodeDecodeError,
                    RecursionError) as exc:
                return 400, {"error": f"request body is not JSON: {exc}"}, None
            if body is None:
                return 400, {"error": "request body must be a JSON object"}, None
        with obs.span("serve.request", request_id=request_id,
                      path=path) as req_span:
            if answer is not MISS:
                obs.counter(counter)
                status = 200
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
        if answer is MISS:
            answer = payload
            # Checked again: a fault armed mid-solve can fail attempt 0, and
            # the exact-rung retry at heavier damping differs in low bits.
            if status == 200 and memo and exact_answer(payload) \
                    and not solver_fault_armed(FLOW_SITE):
                answer = json.dumps(payload, sort_keys=True).encode()
                response_cache.put(key, answer)
        return status, answer, trace

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


class _Rejected(ValueError):
    """Refused framing: answered with ``status``, then the connection closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """Split a request head into (method, path, lower-cased headers).

    A repeated header's values are joined with ``", "`` (RFC 9110
    §5.3), so a repeated ``Content-Length`` cannot pass as one.
    """
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _Rejected(400, f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _Rejected(400, f"malformed header line {line!r}")
        name, value = name.strip().lower(), value.strip(" \t")
        headers[name] = f"{headers[name]}, {value}" if name in headers \
            else value
    return method, path, headers


def _content_length(headers: dict[str, str]) -> int:
    """The body length a parsed head announces, or :class:`_Rejected`.

    Transfer codings are not implemented (501, RFC 9112 §6.1);
    ``Content-Length`` must be one run of ASCII digits (400) of at most
    :data:`MAX_BODY_BYTES` (413).
    """
    if "transfer-encoding" in headers:
        raise _Rejected(501, "Transfer-Encoding is not supported; "
                             "send a Content-Length")
    text = headers.get("content-length", "0")
    if not (text.isascii() and text.isdigit()):
        raise _Rejected(400, f"malformed Content-Length {text!r}")
    # Past the limit's own digit count the value is too large; int()
    # would even refuse a long enough run (over 4,300 digits).
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) \
            or int(digits) > MAX_BODY_BYTES:
        raise _Rejected(413, f"Content-Length over the "
                             f"{MAX_BODY_BYTES}-byte limit")
    return int(digits)


async def _respond(writer: asyncio.StreamWriter, status: int, payload, *,
                   close: bool, request_id: str | None = None) -> None:
    """Serialise and write one response.

    ``payload`` is a dict (JSON), already-encoded JSON bytes (a memoized
    answer, written unchanged) or a pre-rendered HTML string (the
    dashboard).  The request id, when present, is echoed in the
    ``X-Repro-Request-Id`` header on every path, success or error.
    """
    content_type = "application/json"
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/html; charset=utf-8"
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
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
