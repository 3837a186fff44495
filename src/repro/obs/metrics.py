"""Metrics registry: counters, gauges, log-binned histograms and timers.

Instruments are addressed by dotted names (``desim.events_processed``)
plus optional labels (``machine="intel_numa"``); the registry
deduplicates on ``(name, labels)`` so hot call sites can re-request an
instrument without allocating.  Everything is dependency-free and cheap:
a :class:`Histogram` observation is one ``math.frexp`` plus a dict
increment.

The registry never does I/O; :meth:`MetricsRegistry.snapshot` produces a
plain-dict summary that the CLI, run manifests and benchmark perf
records serialise as JSON.
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import Iterator

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Schema version of wrapped metrics snapshots (mirrors ``MANIFEST_SCHEMA``);
#: bump on breaking changes to the per-instrument summary shape.
SNAPSHOT_SCHEMA = 1

#: Histogram bin exponent range: bin ``e`` covers ``[2**(e-1), 2**e)``.
#: 2**-30 ~ 1 ns (seconds-scale timings) up to 2**40 ~ 1e12 (cycle counts).
HIST_MIN_EXP = -30
HIST_MAX_EXP = 40


def check_metric_name(name: str) -> str:
    """Validate a dotted metric name (lowercase, digits, underscores)."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"bad metric name {name!r}: want dotted lowercase segments, "
            "e.g. 'desim.events_processed'")
    return name


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n

    def summary(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-written value, with the running min/max retained."""

    __slots__ = ("name", "labels", "value", "min", "max")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float | None = None
        self.min: float | None = None
        self.max: float | None = None

    def set(self, v: float) -> None:
        self.value = v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    def set_max(self, v: float) -> None:
        """Keep the maximum of the written values (high-water mark)."""
        if self.value is None or v > self.value:
            self.set(v)

    def summary(self) -> dict:
        return {"value": self.value, "min": self.min, "max": self.max}


class Histogram:
    """Fixed log-scale (power-of-two) binned distribution.

    Bin ``e`` counts observations in ``[2**(e-1), 2**e)``; zero and
    negative values land in a dedicated underflow bin.  The edges are
    fixed, so histograms from different runs merge and diff cleanly.
    """

    __slots__ = ("name", "labels", "bins", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.bins: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    @staticmethod
    def bin_index(v: float) -> int:
        """The bin exponent for value ``v``.

        ``2**(e-1) <= v < 2**e`` maps to ``e``; non-positive values map to
        the underflow bin ``HIST_MIN_EXP - 1``; huge values clamp to
        ``HIST_MAX_EXP``.
        """
        if v <= 0.0:
            return HIST_MIN_EXP - 1
        # frexp: v = m * 2**e with 0.5 <= m < 1, so e is the upper edge
        # exponent; exact powers of two sit at the *bottom* of their bin.
        e = math.frexp(v)[1]
        if e <= HIST_MIN_EXP:
            return HIST_MIN_EXP
        if e > HIST_MAX_EXP:
            return HIST_MAX_EXP
        return e

    @staticmethod
    def bin_edges(e: int) -> tuple[float, float]:
        """``(low, high)`` edges of bin ``e`` (low inclusive, high exclusive)."""
        if e == HIST_MIN_EXP - 1:
            return (float("-inf"), 2.0 ** HIST_MIN_EXP / 2.0)
        return (2.0 ** (e - 1), 2.0 ** e)

    def observe(self, v: float) -> None:
        e = self.bin_index(v)
        self.bins[e] = self.bins.get(e, 0) + 1
        self.count += 1
        self.sum += v
        # What min() and max() keep, without calling them.
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        """Mean of the observations; ``nan`` (with a warning counter
        bump) for an empty series — there is no meaningful value to
        fabricate."""
        if not self.count:
            _warn_empty_series(self.name)
            return float("nan")
        return self.sum / self.count

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the covering bin.

        An empty series yields ``nan`` and bumps the
        ``obs.empty_series_warnings`` counter instead of inventing a
        zero or raising.  A single-observation series returns that
        observation exactly — every quantile of one sample *is* the
        sample, and the bin edge would overstate it by up to 2x.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q={q} must be in [0, 1]")
        if not self.count:
            _warn_empty_series(self.name)
            return float("nan")
        if self.count == 1:
            assert self.min is not None
            return self.min
        target = q * self.count
        acc = 0
        for e in sorted(self.bins):
            acc += self.bins[e]
            if acc >= target:
                return self.bin_edges(e)[1]
        return self.bin_edges(max(self.bins))[1]  # pragma: no cover

    def summary(self) -> dict:
        if not self.count:
            # Empty series: derived statistics are undefined.  ``None``
            # (not nan) keeps snapshots JSON-round-trippable, and the
            # short-circuit avoids spurious empty-series warnings from
            # merely *serialising* an instrument nothing observed.
            return {"count": 0, "sum": 0.0, "mean": None, "min": None,
                    "max": None, "p50": None, "p95": None, "p99": None,
                    "bins": {}}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "bins": {str(e): c for e, c in sorted(self.bins.items())},
        }


class Timer(Histogram):
    """A histogram of durations in seconds, usable as a context manager."""

    __slots__ = ("_t0",)
    kind = "timer"

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.observe(time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """Instruments keyed by ``(name, labels)``; get-or-create semantics.

    Structurally thread-safe: instrument registration and snapshotting
    synchronize on one reentrant lock, so a server worker thread
    creating a new instrument can never corrupt (or be half-seen by) a
    concurrent ``/metrics`` snapshot.  Individual instrument updates
    (``inc``/``observe``) stay lock-free — a snapshot is a point-in-time
    read and a racing float add is indistinguishable from the update
    landing just after the snapshot.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}
        self._lock = threading.RLock()

    def _get(self, cls, name: str, labels: dict) -> object:
        key = (name, tuple(sorted(labels.items())) if labels else ())
        # Fast path outside the lock: dict reads are atomic, and an
        # instrument, once registered, is never replaced or removed.
        inst = self._instruments.get(key)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(key)
                if inst is None:
                    check_metric_name(name)
                    inst = cls(name, key[1])
                    self._instruments[key] = inst
        if type(inst) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}")
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def timer(self, name: str, **labels) -> Timer:
        return self._get(Timer, name, labels)

    def __iter__(self) -> Iterator[object]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """Serializable summary of every instrument.

        Keys are ``name`` or ``name{label=value,...}``; values are the
        per-kind summaries plus a ``kind`` tag.
        """
        with self._lock:
            instruments = sorted(self._instruments.items(),
                                 key=lambda kv: kv[0])
        out: dict[str, dict] = {}
        for (name, labels), inst in instruments:
            key = name
            if labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            out[key] = {"kind": inst.kind, **inst.summary()}
        return out

    def merge_snapshot(self, snapshot: dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        The merge used by the parallel experiment runner to surface
        worker-process telemetry in the parent session: counters add,
        gauge and histogram extrema combine, histogram bins add (the
        fixed power-of-two edges make bins from different runs line up).
        Label values arrive stringified — the string form is the merge
        identity for labelled instruments.
        """
        for key, summary in snapshot.items():
            name, labels = _parse_snapshot_key(key)
            kind = summary.get("kind", "counter")
            if kind == "counter":
                self.counter(name, **labels).inc(summary.get("value", 0.0))
            elif kind == "gauge":
                gauge = self.gauge(name, **labels)
                for v in (summary.get("min"), summary.get("max"),
                          summary.get("value")):
                    if v is not None:
                        gauge.set(v)
            elif kind in ("histogram", "timer"):
                hist = self.timer(name, **labels) if kind == "timer" \
                    else self.histogram(name, **labels)
                for e, c in summary.get("bins", {}).items():
                    e = int(e)
                    hist.bins[e] = hist.bins.get(e, 0) + c
                hist.count += summary.get("count", 0)
                hist.sum += summary.get("sum", 0.0)
                for attr in ("min", "max"):
                    v = summary.get(attr)
                    if v is None:
                        continue
                    cur = getattr(hist, attr)
                    merged = v if cur is None else \
                        (min(cur, v) if attr == "min" else max(cur, v))
                    setattr(hist, attr, merged)
            else:
                raise ValueError(f"cannot merge instrument kind {kind!r}")


def _warn_empty_series(name: str) -> None:
    """Count a statistics request against an empty series.

    Lazy imports keep this module free of a circular dependency on the
    session state (``repro.obs.state`` imports this module); when
    telemetry is disabled the warning has nowhere to land and the call
    is a cheap no-op.
    """
    from repro.obs import names, state

    s = state._active
    if s is not None:
        s.metrics.counter(names.OBS_EMPTY_SERIES_WARNINGS).inc()


def wrap_snapshot(instruments: dict[str, dict]) -> dict:
    """Version-stamp a :meth:`MetricsRegistry.snapshot` for persistence.

    The wrapped form ``{"snapshot_schema": N, "instruments": {...}}``
    mirrors the manifest's ``schema`` field so archived metrics files
    and BENCH records carry their own version.
    """
    return {"snapshot_schema": SNAPSHOT_SCHEMA,
            "instruments": dict(instruments)}


def unwrap_snapshot(payload: dict | None) -> dict[str, dict]:
    """The instruments mapping of a snapshot, wrapped or legacy-flat.

    Accepts the wrapped :func:`wrap_snapshot` form, the historical flat
    ``{name: summary}`` form, and ``None`` (no metrics recorded).  A
    wrapped snapshot newer than :data:`SNAPSHOT_SCHEMA` raises — the
    reader cannot know what the summaries mean.
    """
    if payload is None:
        return {}
    if "snapshot_schema" in payload:
        schema = payload["snapshot_schema"]
        if schema > SNAPSHOT_SCHEMA:
            raise ValueError(
                f"metrics snapshot schema {schema} is newer than supported "
                f"({SNAPSHOT_SCHEMA})")
        return dict(payload.get("instruments") or {})
    return dict(payload)


def _parse_snapshot_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a snapshot key back into ``(name, labels)``."""
    if not key.endswith("}"):
        return key, {}
    name, _, label_part = key[:-1].partition("{")
    labels: dict[str, str] = {}
    for item in label_part.split(","):
        if item:
            k, _, v = item.partition("=")
            labels[k] = v
    return name, labels
