"""Per-server request statistics: rolling windows, SLOs, request ring.

One :class:`ServiceTelemetry` lives on each
:class:`repro.serve.http.PredictionServer` and is the single place a
finished request is recorded.  Each :meth:`record` call feeds

* the cumulative session metrics (``serve.requests`` total and per
  ``status_class``, the ``serve.request_seconds`` timer) — when a
  telemetry session is active;
* the rolling windows (:mod:`repro.obs.window`): a fast 60×1 s ring
  and a slow 60×1 m ring, each slot holding its requests' latency bins
  and 5xx count.  They are the only windowed record of a request: the
  ``/metrics`` request rates and the SLO burn rates
  (:mod:`repro.obs.slo`) behind the ``degraded`` state on ``/healthz``
  read them;
* a bounded ring of recent and slowest requests — each entry carrying
  its ``request_id`` and, for traced requests, the span tree — behind
  ``/debug/requests``.

Unlike the session metrics, the windows and the request ring live on
the *server object*, so they work (and the dashboard renders) even when
telemetry is disabled, and two servers in one process never mix
streams.  The clock is injectable for tests.

The server's event loop is the one thread that records
(``_Connection._respond``) and reads (the ``GET`` routes, the
dashboard) all of this, so none of it takes a lock.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from typing import Callable

from repro import obs
from repro.obs import names
from repro.obs.slo import SLOTracker
from repro.obs.window import WINDOW_SCHEMA, RollingHistogram

#: How many recent / slowest requests ``/debug/requests`` retains.
REQUEST_LOG_SIZE = 128

#: Requests at or above this duration are logged as slow via
#: ``serve.request_logged`` structured-log events.
SLOW_REQUEST_S = 0.25


def _rounded_slower_first(entry: tuple) -> float:
    return -round(entry[5], 6)


def _as_dict(entry: tuple) -> dict:
    """A request-ring entry as ``/debug/requests`` serves it."""
    request_id, ts_unix, method, path, status, duration_s, trace = entry
    return {"request_id": request_id, "ts_unix": round(ts_unix, 6),
            "method": method, "path": path, "status": status,
            "duration_s": round(duration_s, 6), "trace": trace}


class RequestLog:
    """Bounded ring of recent requests plus a bounded slowest-N board.

    An entry is the tuple ``(request_id, ts_unix, method, path, status,
    duration_s, trace)`` with raw times; reads return dicts with both
    times rounded to 6 places.  The board is kept in descending rounded
    duration, ties in arrival order: what appending, stable-sorting and
    truncating those dicts would retain.  ``round`` is monotone, so a
    request at or under the board's last raw duration is turned away by
    one comparison; the rounded durations decide the rest, ties
    included.  Not thread-safe: one owner thread calls it.
    """

    def __init__(self, size: int = REQUEST_LOG_SIZE) -> None:
        if size < 1:
            raise ValueError("request log size must be >= 1")
        self.size = size
        self.total = 0
        self._recent: deque[tuple] = deque(maxlen=size)
        self._slowest: list[tuple] = []

    def add(self, entry: tuple) -> None:
        self.total += 1
        self._recent.append(entry)
        slowest = self._slowest
        if len(slowest) == self.size:
            last = slowest[-1][5]
            if entry[5] <= last or round(entry[5], 6) <= round(last, 6):
                return
            slowest.pop()
        bisect.insort_right(slowest, entry, key=_rounded_slower_first)

    def recent(self, limit: int | None = None) -> list[dict]:
        """Most recent requests, newest first."""
        out = list(reversed(self._recent))
        return [_as_dict(e) for e in (out[:limit] if limit else out)]

    def slowest(self, limit: int | None = None) -> list[dict]:
        """Slowest retained requests, slowest first."""
        out = self._slowest
        return [_as_dict(e) for e in (out[:limit] if limit else out)]

    def find(self, request_id: str) -> dict | None:
        """Look a request up by id across both boards."""
        for entry in reversed(self._recent):
            if entry[0] == request_id:
                return _as_dict(entry)
        for entry in self._slowest:
            if entry[0] == request_id:
                return _as_dict(entry)
        return None


class ServiceTelemetry:
    """The per-server aggregation point for finished requests."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self.requests_fast = RollingHistogram(
            names.WINDOW_LATENCY_SECONDS, 1.0, 60, clock)
        self.requests_slow = RollingHistogram(
            names.WINDOW_LATENCY_SECONDS, 60.0, 60, clock)
        self.slo = SLOTracker((self.requests_fast, self.requests_slow))
        self.request_log = RequestLog()
        self._eval_epoch: int | None = None
        # The session instruments, bound on the first record of a session.
        self._session = None
        self._requests = self._seconds = None
        self._by_class: dict[int, object] = {}

    # -- ingest ---------------------------------------------------------------

    def record(self, *, method: str, path: str, status: int,
               duration_s: float, request_id: str,
               trace: dict | None = None) -> None:
        """Record one finished request on every aggregation surface.

        Called exactly once per response the HTTP layer writes — error
        paths and malformed-framing rejections included — so windowed
        error rates and ``serve.requests{status_class=...}`` are
        trustworthy denominators.
        """
        now = self._clock()
        error = status >= 500

        session = obs.session()
        if session is not None:
            if session is not self._session:
                self._bind(session)
            by_class = self._by_class.get(status // 100)
            if by_class is None:
                by_class = self._by_class[status // 100] = \
                    session.metrics.counter(
                        names.SERVE_REQUESTS,
                        status_class=f"{status // 100}xx")
            self._requests.inc()
            by_class.inc()
            self._seconds.observe(duration_s)

        self.requests_fast.observe(duration_s, now, error)
        self.requests_slow.observe(duration_s, now, error)

        self.request_log.add((request_id, time.time(), method, path,
                              status, duration_s, trace))
        if error or duration_s >= SLOW_REQUEST_S:
            obs.log_event(
                names.EVENT_SERVE_REQUEST,
                level="error" if error else "warning",
                request_id=request_id, method=method, path=path,
                status=status, duration_s=round(duration_s, 6))

        # Re-evaluate SLO burn rates at most once per second: transition
        # events fire promptly under load without a per-request scan of
        # 240 ring slots.
        epoch = int(now)
        if epoch != self._eval_epoch:
            self._eval_epoch = epoch
            self.slo.evaluate(now)

    def _bind(self, session) -> None:
        """Look the session's request instruments up once, not per record.

        The ``status_class`` counters are bound on their class's first
        request, so the registry holds only the classes seen, as before.
        """
        self._session = session
        self._requests = session.metrics.counter(names.SERVE_REQUESTS)
        self._seconds = session.metrics.timer(names.SERVE_REQUEST_SECONDS)
        self._by_class = {}

    # -- read side ------------------------------------------------------------

    def windows_payload(self, now: float | None = None) -> dict:
        """The ``windows`` block ``/metrics`` serves next to the snapshot."""
        now = self._clock() if now is None else now
        out: dict = {"window_schema": WINDOW_SCHEMA}
        for label, ring in (("fast", self.requests_fast),
                            ("slow", self.requests_slow)):
            summary = ring.summary(now=now)
            total = summary["count"]
            errs = sum(ring.error_series(now=now))
            out[label] = {
                "bucket_s": ring.bucket_s,
                "buckets": ring.buckets,
                names.WINDOW_REQUESTS: {
                    "total": total,
                    "rate_per_s": round(total / ring.span_s(now), 3),
                    "series": [float(n) for n in ring.series(now=now)],
                },
                names.WINDOW_ERRORS: {
                    "total": errs,
                    "error_rate": round(errs / total, 6) if total else 0.0,
                },
                names.WINDOW_LATENCY_SECONDS: summary,
            }
        return out

    def slo_state(self, now: float | None = None) -> dict:
        """Evaluate and return the SLO block ``/healthz`` embeds.

        Goes through :meth:`SLOTracker.evaluate` (not the pure
        :meth:`~SLOTracker.state`) so a recovery that happens while no
        requests arrive still emits its transition event on the next
        health probe.
        """
        now = self._clock() if now is None else now
        return self.slo.evaluate(now)

    def debug_payload(self, limit: int = 32,
                      request_id: str | None = None) -> dict:
        """The ``/debug/requests`` payload: by id, or recent + slowest."""
        if request_id is not None:
            entry = self.request_log.find(request_id)
            if entry is None:
                return {"error": f"no retained request with id "
                                 f"{request_id!r}",
                        "retained": self.request_log.total}
            return {"request": entry}
        limit = max(1, min(limit, self.request_log.size))
        return {
            "capacity": self.request_log.size,
            "total": self.request_log.total,
            "recent": self.request_log.recent(limit),
            "slowest": self.request_log.slowest(limit),
        }


__all__ = ["ServiceTelemetry", "RequestLog", "REQUEST_LOG_SIZE",
           "SLOW_REQUEST_S"]
