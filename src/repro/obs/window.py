"""The rolling request window: a time-bucketed ring of latency bins.

The cumulative instruments in :mod:`repro.obs.metrics` answer "what
happened since the process started"; a long-running service also needs
"what is happening *now*".  A :class:`RollingHistogram` slices time
into fixed buckets arranged in a ring — by default 60 buckets, so a
1 s bucket width gives a 60 s window and a 60 s width gives a 1 h
window — and lazily reclaims stale slots on write, so cost is O(1) per
observation with zero background threads.

Each slot holds one bucket's requests: their durations in the
power-of-two bin layout of :class:`repro.obs.metrics.Histogram` (same
``bin_index`` / ``bin_edges`` math, so windowed p50/p95/p99 are
directly comparable with the cumulative snapshot's quantiles, bucket
for bucket) and how many of them were 5xx.  One ring per window is
therefore the whole windowed record of a request.

Clocks are injectable (``time.monotonic`` by default) and every read
method accepts an explicit ``now``, which is what lets tests inject an
old latency spike and watch it age out without sleeping.

A ring takes no lock: one owner thread writes and reads it (for
``repro serve``, the server's event loop).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.metrics import Histogram, check_metric_name

#: Schema version of the ``windows`` block served by ``/metrics``;
#: bump on breaking changes (the serve benchmark is a tolerant reader).
WINDOW_SCHEMA = 1

# Slot layout: [epoch, bins, count, sum, min, max, errors].
_COUNT, _ERRORS = 2, 6


class RollingHistogram:
    """A power-of-two-binned distribution over the trailing window.

    Slot ``epoch % buckets`` holds data for epoch ``floor(now /
    bucket_s)``; a slot whose stored epoch has fallen out of the live
    window is reset on next use and skipped on reads.  Not thread-safe:
    only the owning thread may call it.
    """

    def __init__(self, name: str, bucket_s: float = 1.0, buckets: int = 60,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if bucket_s <= 0 or buckets < 2:
            raise ValueError(
                f"want bucket_s > 0 and buckets >= 2, got "
                f"bucket_s={bucket_s} buckets={buckets}")
        self.name = check_metric_name(name)
        self.bucket_s = float(bucket_s)
        self.buckets = int(buckets)
        self._clock = clock
        self._created = clock()
        self._slots: list = [None] * self.buckets

    @property
    def window_s(self) -> float:
        """Nominal window span in seconds."""
        return self.bucket_s * self.buckets

    def _epoch(self, now: float) -> int:
        return int(now // self.bucket_s)

    def _live(self, now: float, last: int | None = None) -> list:
        """Live slot payloads, oldest first.

        ``last`` restricts to the most recent ``last`` buckets — how the
        SLO tracker carves a 5 m sub-window out of the 1 h ring.
        """
        span = self.buckets if last is None else min(last, self.buckets)
        cur = self._epoch(now)
        out = []
        for epoch in range(cur - span + 1, cur + 1):
            slot = self._slots[epoch % self.buckets]
            if slot is not None and slot[0] == epoch:
                out.append(slot)
        return out

    def span_s(self, now: float) -> float:
        """Effective averaging span: the window, capped by the lifetime.

        The lifetime counts as at least one bucket.  Rates divide by
        this, so a service two seconds old reports its actual rate on
        the 60×1 s ring instead of one diluted over an empty minute,
        while the 60×1 min ring still divides by a full minute.
        """
        alive = max(now - self._created, self.bucket_s)
        return min(self.window_s, alive)

    def observe(self, v: float, now: float | None = None,
                error: bool = False) -> None:
        """Record one request of duration ``v``; ``error`` if it was a 5xx."""
        now = self._clock() if now is None else now
        epoch = int(now // self.bucket_s)     # _epoch, inlined: per request
        idx = epoch % self.buckets
        e = Histogram.bin_index(v)
        slot = self._slots[idx]
        if slot is None or slot[0] != epoch:
            self._slots[idx] = slot = [epoch, {}, 0, 0.0, v, v, 0]
        bins = slot[1]
        bins[e] = bins.get(e, 0) + 1
        slot[2] += 1
        slot[3] += v
        if v < slot[4]:
            slot[4] = v
        if v > slot[5]:
            slot[5] = v
        if error:
            slot[6] += 1

    def merged(self, now: float | None = None,
               last: int | None = None) -> Histogram:
        """A transient cumulative :class:`Histogram` over the live window."""
        now = self._clock() if now is None else now
        hist = Histogram(self.name)
        for _epoch, bins, count, total, vmin, vmax, _ in self._live(now, last):
            for e, c in bins.items():
                hist.bins[e] = hist.bins.get(e, 0) + c
            hist.count += count
            hist.sum += total
            hist.min = vmin if hist.min is None else min(hist.min, vmin)
            hist.max = vmax if hist.max is None else max(hist.max, vmax)
        return hist

    def counts(self, at_least: float, now: float | None = None,
               last: int | None = None) -> tuple[int, int, int]:
        """``(observations, observations >= at_least, 5xx)`` in the window.

        Exact when ``at_least`` is a bin's lower edge: a power of two
        inside the bin range, as latency SLO thresholds must be.
        """
        now = self._clock() if now is None else now
        low = Histogram.bin_index(at_least)
        total = over = errors = 0
        for slot in self._live(now, last):
            total += slot[2]
            errors += slot[6]
            if slot[5] >= at_least:     # else no bin reaches the edge
                for e, n in slot[1].items():
                    if e >= low:
                        over += n
        return total, over, errors

    def summary(self, now: float | None = None,
                last: int | None = None) -> dict:
        """The standard histogram summary (count/sum/mean/min/max/p*)."""
        now = self._clock() if now is None else now
        out = self.merged(now, last).summary()
        out.pop("bins", None)  # window payloads stay compact
        return out

    def _per_bucket(self, field: int, now: float | None) -> list[int]:
        now = self._clock() if now is None else now
        cur = self._epoch(now)
        out = [0] * self.buckets
        for i, epoch in enumerate(range(cur - self.buckets + 1, cur + 1)):
            slot = self._slots[epoch % self.buckets]
            if slot is not None and slot[0] == epoch:
                out[i] = slot[field]
        return out

    def series(self, now: float | None = None) -> list[int]:
        """Per-bucket observation counts, oldest to newest."""
        return self._per_bucket(_COUNT, now)

    def error_series(self, now: float | None = None) -> list[int]:
        """Per-bucket 5xx counts, oldest to newest; stale buckets read 0."""
        return self._per_bucket(_ERRORS, now)

    def bucket_quantiles(self, q: float,
                         now: float | None = None) -> list[float | None]:
        """Per-bucket quantile (``None`` for empty buckets), oldest first.

        The dashboard's tail-latency sparkline: one p99 per time bucket.
        """
        now = self._clock() if now is None else now
        cur = self._epoch(now)
        out: list[float | None] = [None] * self.buckets
        for i, epoch in enumerate(range(cur - self.buckets + 1, cur + 1)):
            slot = self._slots[epoch % self.buckets]
            if slot is None or slot[0] != epoch or not slot[2]:
                continue
            hist = Histogram(self.name)
            hist.bins = dict(slot[1])
            hist.count = slot[2]
            hist.sum = slot[3]
            hist.min, hist.max = slot[4], slot[5]
            out[i] = hist.quantile(q)
        return out
