"""Per-server request statistics: rolling windows, SLOs, request ring.

One :class:`ServiceTelemetry` lives on each
:class:`repro.serve.http.PredictionServer` and is the single place a
finished request is recorded.  Each :meth:`record` call feeds

* the cumulative session metrics (``serve.requests`` total and per
  ``status_class``, the ``serve.request_seconds`` timer) — when a
  telemetry session is active;
* the rolling windows (:mod:`repro.obs.window`): request rate, error
  rate and windowed latency quantiles over a fast 60×1 s ring and a
  slow 60×1 m ring;
* the SLO tracker (:mod:`repro.obs.slo`), whose burn rates drive the
  ``degraded`` state on ``/healthz``;
* a bounded ring of recent and slowest requests — each entry carrying
  its ``request_id`` and, for traced requests, the detached span tree
  — behind ``/debug/requests``.

Unlike the session metrics, the windows and the request ring live on
the *server object*, so they work (and the dashboard renders) even when
telemetry is disabled, and two servers in one process never mix
streams.  The clock is injectable for tests.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Callable

from repro import obs
from repro.obs import names
from repro.obs.slo import DEFAULT_OBJECTIVES, SLOTracker
from repro.obs.window import WINDOW_SCHEMA, RollingCounter, RollingHistogram

#: How many recent / slowest requests ``/debug/requests`` retains.
REQUEST_LOG_SIZE = 128

#: Requests at or above this duration are logged as slow via
#: ``serve.request_logged`` structured-log events.
SLOW_REQUEST_S = 0.25


def _slower_first(entry: dict) -> float:
    return -entry["duration_s"]


class RequestLog:
    """Bounded ring of recent requests plus a bounded slowest-N board.

    The board is kept in descending duration, ties in arrival order:
    what appending, stable-sorting and truncating would retain, at the
    cost of one comparison for a request that does not make the board.
    """

    def __init__(self, size: int = REQUEST_LOG_SIZE) -> None:
        if size < 1:
            raise ValueError("request log size must be >= 1")
        self.size = size
        self.total = 0
        self._recent: deque[dict] = deque(maxlen=size)
        self._slowest: list[dict] = []
        self._lock = threading.Lock()

    def add(self, entry: dict) -> None:
        with self._lock:
            self.total += 1
            self._recent.append(entry)
            slowest = self._slowest
            if len(slowest) == self.size:
                if entry["duration_s"] <= slowest[-1]["duration_s"]:
                    return
                slowest.pop()
            bisect.insort_right(slowest, entry, key=_slower_first)

    def recent(self, limit: int | None = None) -> list[dict]:
        """Most recent requests, newest first."""
        with self._lock:
            out = list(reversed(self._recent))
        return out[:limit] if limit else out

    def slowest(self, limit: int | None = None) -> list[dict]:
        """Slowest retained requests, slowest first."""
        with self._lock:
            out = list(self._slowest)
        return out[:limit] if limit else out

    def find(self, request_id: str) -> dict | None:
        """Look a request up by id across both boards."""
        with self._lock:
            for entry in reversed(self._recent):
                if entry["request_id"] == request_id:
                    return entry
            for entry in self._slowest:
                if entry["request_id"] == request_id:
                    return entry
        return None


class ServiceTelemetry:
    """The per-server aggregation point for finished requests."""

    def __init__(self, clock: Callable[[], float] = time.monotonic, *,
                 objectives=DEFAULT_OBJECTIVES,
                 request_log_size: int = REQUEST_LOG_SIZE,
                 slow_request_s: float = SLOW_REQUEST_S) -> None:
        self._clock = clock
        self.slow_request_s = slow_request_s
        self.requests_fast = RollingCounter(
            names.WINDOW_REQUESTS, 1.0, 60, clock)
        self.requests_slow = RollingCounter(
            names.WINDOW_REQUESTS, 60.0, 60, clock)
        self.errors_fast = RollingCounter(names.WINDOW_ERRORS, 1.0, 60, clock)
        self.errors_slow = RollingCounter(names.WINDOW_ERRORS, 60.0, 60, clock)
        self.latency_fast = RollingHistogram(
            names.WINDOW_LATENCY_SECONDS, 1.0, 60, clock)
        self.latency_slow = RollingHistogram(
            names.WINDOW_LATENCY_SECONDS, 60.0, 60, clock)
        self.slo = SLOTracker(objectives, clock=clock)
        self.request_log = RequestLog(request_log_size)
        self._eval_epoch: int | None = None

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
        status_class = f"{status // 100}xx"
        error = status >= 500

        obs.counter(names.SERVE_REQUESTS)
        obs.counter(names.SERVE_REQUESTS, status_class=status_class)
        session = obs.session()
        if session is not None:
            session.metrics.timer(
                names.SERVE_REQUEST_SECONDS).observe(duration_s)

        self.requests_fast.inc(1.0, now=now)
        self.requests_slow.inc(1.0, now=now)
        if error:
            self.errors_fast.inc(1.0, now=now)
            self.errors_slow.inc(1.0, now=now)
        self.latency_fast.observe(duration_s, now=now)
        self.latency_slow.observe(duration_s, now=now)
        self.slo.record(error=error, duration_s=duration_s, now=now)

        self.request_log.add({
            "request_id": request_id,
            "ts_unix": round(time.time(), 6),
            "method": method,
            "path": path,
            "status": status,
            "duration_s": round(duration_s, 6),
            "trace": trace,
        })
        if error or duration_s >= self.slow_request_s:
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

    # -- read side ------------------------------------------------------------

    def windows_payload(self, now: float | None = None) -> dict:
        """The ``windows`` block ``/metrics`` serves next to the snapshot."""
        now = self._clock() if now is None else now
        out: dict = {"window_schema": WINDOW_SCHEMA}
        for label, requests, errors, latency in (
                ("fast", self.requests_fast, self.errors_fast,
                 self.latency_fast),
                ("slow", self.requests_slow, self.errors_slow,
                 self.latency_slow)):
            total = requests.total(now=now)
            errs = errors.total(now=now)
            out[label] = {
                "bucket_s": requests.bucket_s,
                "buckets": requests.buckets,
                names.WINDOW_REQUESTS: {
                    "total": int(total),
                    "rate_per_s": round(requests.rate(now=now), 3),
                    "series": requests.series(now=now),
                },
                names.WINDOW_ERRORS: {
                    "total": int(errs),
                    "error_rate": round(errs / total, 6) if total else 0.0,
                },
                names.WINDOW_LATENCY_SECONDS: latency.summary(now=now),
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
