"""The asyncio HTTP front end of ``repro serve``.

A stdlib-only HTTP/1.1 server (an ``asyncio.BufferedProtocol`` per
connection; no third-party frameworks) that frames requests and routes
them:

* ``POST /predict``   → :func:`repro.serve.service.handle_predict`
* ``POST /recommend`` → :func:`repro.serve.service.handle_recommend`
* ``GET /metrics``    → the wrapped telemetry snapshot (the schema
  manifests persist) plus the rolling-window block
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
body): a hit is answered with the stored bytes inside
``data_received`` — one outcome counter, a one-node trace, one record
and one ``transport.write``, and no task, future, timer or span
object.  A miss runs its
handler on a small thread pool (``run_in_executor``) under
``contextvars.copy_context()``, so a cold solve never stalls framing,
and spans the solver opens in a pool thread parent to the dispatching
request's span instead of orphaning — that is what makes the
``/debug/requests`` trace trees complete.  Only a 200 whose every solve
ran on the exact rung fills the memo, and while a flow fault is armed
the memo is neither read nor filled.

Every response path — including malformed-framing rejections — is
recorded exactly once on the server's
:class:`~repro.serve.stats.ServiceTelemetry`, so windowed error rates
have trustworthy denominators.  Only the server's event-loop thread
writes and reads it, so it takes no lock.

Connections (:class:`_Connection`):

* **Framing.**  Received bytes are buffered and cut into requests at
  the blank line that ends a head and the ``Content-Length`` it
  announces.  A request with a ``Transfer-Encoding`` gets 501, one with
  a repeated or non-decimal ``Content-Length`` 400, a body over
  :data:`MAX_BODY_BYTES` 413 and a head over 16 KiB 400, each followed
  by a close; a head with no end within 64 KiB closes the connection
  unanswered.  Connections are keep-alive (HTTP/1.1) until
  ``Connection: close``.
* **Ordering.**  One answer at a time, in the order the requests
  arrived: while a miss is on the pool, reading pauses and later bytes
  stay buffered.
* **Deadline.**  A connection that waits longer than ``read_timeout_s``
  for the client is aborted: for a head or the rest of a body (with no
  response and no record), while its write buffer is full, or while it
  is closing with answers the client has not read.  One timer per
  connection enforces it: each wait notes when it began, and a timer
  that fires early re-arms for the time left, so a steady keep-alive
  stream arms no timer per request and is never cut.
* **Backpressure.**  From ``pause_writing`` to ``resume_writing`` the
  connection frames nothing, pauses reading and waits, so the bytes it
  buffers stay bounded whatever the client sends, and a client that
  never reads cannot hold ``stop()`` past the deadline.
* **Stopping.**  :meth:`PredictionServer.stop` stops accepting, closes
  every connection waiting for a head (a partial head included), lets
  in-flight answers and bodies still being read finish with
  ``Connection: close``, and returns once those answers are written.
  A head that completes after ``stop()`` began is neither routed nor
  recorded.
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
from repro.obs.metrics import wrap_snapshot
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

#: How far a head's end is looked for before the connection is closed.
_MAX_FRAME_BYTES = 1 << 16

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
        self._connections: set[_Connection] = set()
        self._closing = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "PredictionServer":
        if self._server is not None:
            raise RuntimeError("prediction server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix="repro-serve-worker")
        self._closing = False
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port)
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
        for conn in list(self._connections):
            conn.close_if_idle()
        # Shielded: a cancelled stop() (a wait_for timeout, a second
        # Ctrl-C) must not cancel the futures the next stop() awaits.
        await asyncio.gather(*(asyncio.shield(conn.finished)
                               for conn in self._connections))
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

    def _route(self, method: str, path: str, raw: bytes, request_id: str):
        """Dispatch one framed request.

        Returns ``(status, payload, trace)``, or for a memo miss a
        coroutine that solves it on the pool and returns the same.
        """
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        if path in ("/predict", "/recommend"):
            if method != "POST":
                return 405, {"error": f"{path} wants POST, got {method}"}, None
            return self._handle_post(path, raw, request_id)
        if path in ("/metrics", "/healthz", "/events", "/debug/requests",
                    "/dashboard"):
            if method != "GET":
                return 405, {"error": f"{path} wants GET, got {method}"}, None
            return (*self._handle_get(path, query), None)
        return 404, {
            "error": f"unknown path {path!r}",
            "endpoints": _ENDPOINTS}, None

    def _handle_post(self, path: str, raw: bytes, request_id: str):
        """Answer one POST from the response memo, or hand it to the pool.

        The memo is looked up once, before JSON decoding.  A hit bumps
        the outcome counter the handler would, timed as a one-node
        ``serve.request`` trace (``Tracer.leaf``: nothing nests under
        it); an undecodable body is a 400 here; anything else is
        returned as the coroutine :meth:`_solve`.
        """
        if path == "/predict":
            handler, counter = handle_predict, names.SERVE_PREDICTIONS
        else:
            handler, counter = handle_recommend, names.SERVE_RECOMMENDATIONS
        key = None
        if not solver_fault_armed(FLOW_SITE):
            key = (path, hashlib.sha256(raw).digest())
            answer = response_cache.get(key)
            if answer is not MISS:
                session = obs.session()
                if session is None:
                    return 200, answer, None
                tracer = session.tracer
                start = tracer.now()
                session.metrics.counter(counter).inc()
                return 200, answer, tracer.leaf(
                    "serve.request", start, request_id=request_id, path=path)
        try:
            body = json.loads(raw.decode("utf-8")) if raw else None
        # json.loads raises RecursionError on over-deep nesting.
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            return 400, {"error": f"request body is not JSON: {exc}"}, None
        if body is None:
            return 400, {"error": "request body must be a JSON object"}, None
        return self._solve(path, handler, body, request_id, key)

    async def _solve(self, path: str, handler, body, request_id: str,
                     key: tuple | None) -> tuple[int, object, dict | None]:
        """Run a memo miss's handler on the pool; memoize an exact 200.

        The handler runs inside a *copy* of this context, so solver spans
        nest under the request span and structured log events emitted
        below pick the id up.  ``key`` is ``None`` while a flow fault is
        armed: the memo is then neither read nor filled.
        """
        with obs.span("serve.request", request_id=request_id,
                      path=path) as req_span:
            loop = asyncio.get_running_loop()
            ctx = contextvars.copy_context()
            status, payload = await loop.run_in_executor(
                self._executor, ctx.run, handler, body)
        trace = _detached(req_span)
        # Checked again: a fault armed mid-solve can fail attempt 0, and
        # the exact-rung retry at heavier damping differs in low bits.
        if status == 200 and key is not None and exact_answer(payload) \
                and not solver_fault_armed(FLOW_SITE):
            payload = json.dumps(payload, sort_keys=True).encode()
            response_cache.put(key, payload)
        return status, payload, trace

    def _handle_get(self, path: str, query: str) -> tuple[int, object]:
        """Answer a read route from the active telemetry session.

        ``/metrics`` wraps the registry's snapshot, taken under its own
        lock, so concurrent writers never leak a half-registered view.
        ``/healthz`` counts instruments and events before ``slo_state()``
        registers its gauges or logs a transition.
        """
        session = obs.session()
        if path == "/metrics":
            if session is None:
                return 503, {"error": "telemetry disabled",
                             "hint": "enable telemetry (repro.obs.enable) "
                                     "or run with --serve-metrics"}
            payload = wrap_snapshot(session.metrics.snapshot())
            payload["windows"] = self.stats.windows_payload()
            return 200, payload
        if path == "/healthz":
            payload = {
                "uptime_s": round(self.uptime_s, 3),
                "telemetry": session is not None,
                "instruments": 0 if session is None else len(session.metrics),
                "events": 0 if session is None else len(session.log.events),
            }
            slo = payload["slo"] = self.stats.slo_state()
            payload["status"] = slo["status"]
            return 200, payload
        if path == "/events":
            if session is None:
                return 503, {"error": "telemetry disabled"}
            # ``dropped`` counts events the bounded ring evicted: non-zero
            # means the array is a suffix of the session's history.
            return 200, {"events": list(session.log.events),
                         "dropped": session.log.dropped}
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


def _detached(span) -> dict | None:
    """A finished ``serve.request`` span as the request ring stores it.

    Moves the tree out of the session tracer (bounding its memory over
    a long-running service) and into the request ring, where
    ``/debug/requests`` can find it by id.
    """
    if not isinstance(span, Span):
        return None
    span.tracer.detach_root(span)
    return span.to_dict()


class _Connection(asyncio.BufferedProtocol):
    """One client connection: frames, answers and times out its requests.

    A framed request is ``(t0, method, path, request_id, close,
    length)``: ``t0`` is when its head was complete, ``close`` whether
    the client asked for ``Connection: close``, ``length`` its body's.

    The transport reads into one buffer the connection keeps, as large
    as the largest head it accepts.  For a plain ``asyncio.Protocol`` the selector transport allocates 256 KiB
    per read and shrinks it to what arrived; when the heap's top sits
    near glibc's trim threshold, that grows and trims the heap, two
    page faults, on every request.
    """

    def __init__(self, server: PredictionServer) -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        self._received = memoryview(bytearray(_MAX_HEAD_BYTES))
        self._request: tuple | None = None   # head framed, body pending
        self._pending: asyncio.Task | None = None   # a miss on the pool
        self._paused = False                 # the write buffer is full
        self._eof = False
        self._closed = False
        self._wait_since: float | None = None  # start of the wait for bytes
        self._timer: asyncio.TimerHandle | None = None
        #: Done once the connection is closed and nothing is in flight.
        self.finished = self._loop.create_future()

    # -- transport callbacks --------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._server._closing:  # accepted before stop(), made after it
            transport.close()
            return
        self._server._connections.add(self)
        self._frame()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._received

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._received[:nbytes])

    def data_received(self, data: bytes | memoryview) -> None:
        self._buffer += data
        self._frame()

    def eof_received(self) -> bool:
        # Kept open: an answer in flight is still written, then closed.
        self._eof = True
        if self._pending is None and not self._paused:
            self._frame()
        return True

    def pause_writing(self) -> None:
        # A full write buffer is a wait for the client, under the deadline.
        self._paused = True
        self._transport.pause_reading()
        self._wait()

    def resume_writing(self) -> None:
        self._paused = False
        self._wait_since = None
        if self._pending is None:
            self._transport.resume_reading()
            self._frame()

    def connection_lost(self, exc) -> None:
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._pending is None:
            self._end()

    def close_if_idle(self) -> None:
        """Close the connection if it is waiting for a head (``stop()``)."""
        if self._pending is None and self._request is None:
            self._transport.close()

    def _end(self) -> None:
        self._server._connections.discard(self)
        self.finished.set_result(None)

    # -- framing --------------------------------------------------------------

    def _frame(self) -> None:
        """Answer the buffered requests in order until one must wait.

        Frames nothing while a miss is on the pool, while writing is
        paused or once the connection is closing.  When the next head or
        body is not all here, or the connection is closing (as it does
        after the client's EOF), a wait for the client begins: for its
        bytes, or for it to read what is still buffered.
        """
        buf = self._buffer
        while self._pending is None and not self._paused:
            if self._transport.is_closing():
                break
            if self._request is None:
                end = buf.find(b"\r\n\r\n")
                if end < 0 and len(buf) <= _MAX_FRAME_BYTES:
                    break
                if end < 0 or end > _MAX_FRAME_BYTES \
                        or self._server._closing:
                    # No head within the limit, or stop() began: the
                    # head is neither routed nor recorded.
                    self._transport.close()
                    break
                self._wait_since = None
                self._request = self._parse(bytes(buf[:end + 4]))
                del buf[:end + 4]
                if self._request is None:    # refused: answered, closing
                    break
            length = self._request[5]
            if len(buf) < length:
                break
            request, self._request = self._request, None
            raw = bytes(buf[:length])
            del buf[:length]
            self._wait_since = None
            self._answer(request, raw)
        else:
            return
        if self._eof:
            self._transport.close()
        if self._wait_since is None:
            self._wait()

    def _wait(self) -> None:
        """Begin a wait for the client; arm the timer if none is armed."""
        self._wait_since = self._loop.time()
        if self._timer is None:
            self._timer = self._loop.call_at(
                self._wait_since + self._server.read_timeout_s, self._expire)

    def _expire(self) -> None:
        """The deadline: abort a wait that ran out, else re-arm.

        Closing does not end a wait: ``close()`` leaves the transport
        open until its write buffer drains, which a client that never
        reads never lets happen.
        """
        self._timer = None
        if self._wait_since is None:
            return          # answering: the next wait arms a timer again
        due = self._wait_since + self._server.read_timeout_s
        if self._loop.time() < due:
            self._timer = self._loop.call_at(due, self._expire)
        else:
            self._transport.abort()

    def _parse(self, head: bytes) -> tuple | None:
        """Frame one head; a refused one is answered here (``None``)."""
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
            self._respond((t0, method, path, request_id, True, 0),
                          rejected.status, {"error": str(rejected)})
            return None
        close = headers.get("connection", "").lower() == "close"
        return t0, method, path, request_id, close, length

    # -- answering ------------------------------------------------------------

    def _answer(self, request: tuple, raw: bytes) -> None:
        """Answer now, or hand a memo miss to the pool and hold the rest."""
        _, method, path, request_id, _, _ = request
        answer = self._server._route(method, path, raw, request_id)
        if isinstance(answer, tuple):
            self._respond(request, *answer)
            return
        self._transport.pause_reading()
        self._pending = self._loop.create_task(
            self._answer_miss(request, answer))

    async def _answer_miss(self, request: tuple, solving) -> None:
        try:
            self._respond(request, *await solving)
        except BaseException:
            self._transport.abort()
            raise
        finally:
            self._pending = None
            if self._closed:
                self._end()
        if not self._closed and not self._paused:
            self._transport.resume_reading()
            self._frame()

    def _respond(self, request: tuple, status: int, payload,
                 trace: dict | None = None) -> None:
        """Record one finished request (exactly once) and write its answer."""
        t0, method, path, request_id, close, _ = request
        close = close or self._server._closing
        self._server.stats.record(
            method=method, path=path.split("?", 1)[0], status=status,
            duration_s=time.perf_counter() - t0, request_id=request_id,
            trace=trace)
        self._transport.write(_response(status, payload, close=close,
                                        request_id=request_id))
        if close:
            self._transport.close()


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


def _response(status: int, payload, *, close: bool,
              request_id: str | None = None) -> bytes:
    """Serialise one response.

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
    return head.encode("latin-1") + body


__all__ = ["PredictionServer", "MAX_BODY_BYTES", "new_request_id"]
