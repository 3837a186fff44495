"""Bounded LRU memoization caches for the analytical solvers.

Four process-global caches back the fast path:

* :data:`flow_cache` — full ``runtime.flow`` solutions, keyed on the
  content hash of (machine, profile, allocation);
* :data:`mva_cache` — closed-network solutions: ``ClosedNetwork.solve``
  results and the flow solver's internal per-chain throughputs;
* :data:`profile_cache` — calibrated memory profiles, keyed on
  (program, class, machine fingerprint), so equal requests share one
  profile object and its identity-memoized fingerprint;
* :data:`response_cache` — the encoded bytes of exact ``repro serve``
  answers, keyed on (path, SHA-256 of the request body), so a repeated
  ``/predict`` or ``/recommend`` body is answered before JSON decoding.

All are enabled by default, bounded (LRU eviction) and observable: each
lookup bumps local hit/miss counters, mirrored into the active telemetry
session as ``perf.cache.<name>.hits`` / ``.misses`` / ``.evictions`` so
BENCH records and run manifests show cache effectiveness alongside the
solver-call counters they suppress.

Set ``REPRO_PERF_CACHE=0`` in the environment to disable every cache
(used by the regression gate to measure the uncached baseline), or call
:func:`set_enabled` / :func:`clear_caches` programmatically.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from repro.obs import state as _obs_state
from repro.obs.names import perf_cache_metric

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISS = object()


class MemoCache:
    """A bounded LRU map with hit/miss/eviction accounting.

    Keys are any hashable value (tuples, digest strings); values are
    treated as immutable — callers that cache structures with interior
    mutability must copy on the way in or out.

    Thread-safe: ``repro serve`` dispatches solver calls to worker
    threads, so ``get``/``put`` recency updates and evictions race
    without a lock (``move_to_end`` on a concurrently evicted key raises
    ``KeyError``; interleaved evictions corrupt the ordering).  Every
    ``OrderedDict`` access happens under one reentrant lock; telemetry
    mirroring stays outside it, ordered after the local counters.
    """

    __slots__ = ("name", "maxsize", "enabled", "hits", "misses",
                 "evictions", "_data", "_lock", "_metric_hits",
                 "_metric_misses", "_metric_evictions")

    def __init__(self, name: str, maxsize: int = 4096,
                 enabled: bool = True) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        # Telemetry names are built once per cache, not per lookup.
        self._metric_hits = perf_cache_metric(name, "hits")
        self._metric_misses = perf_cache_metric(name, "misses")
        self._metric_evictions = perf_cache_metric(name, "evictions")

    def get(self, key) -> object:
        """The cached value, or :data:`MISS`; bumps hit/miss counters."""
        if not self.enabled:
            return MISS
        with self._lock:
            value = self._data.get(key, MISS)
            if value is MISS:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        tel = _obs_state._active
        if tel is not None:
            metric = self._metric_misses if value is MISS \
                else self._metric_hits
            tel.metrics.counter(metric).inc()
        return value

    def put(self, key, value) -> None:
        """Insert ``key -> value``, evicting the LRU entry when full."""
        if not self.enabled:
            return
        evicted = False
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
                data[key] = value
                return
            data[key] = value
            if len(data) > self.maxsize:
                data.popitem(last=False)
                self.evictions += 1
                evicted = True
        if evicted:
            tel = _obs_state._active
            if tel is not None:
                tel.metrics.counter(self._metric_evictions).inc()

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are cumulative)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> dict:
        """Plain-dict summary (mirrors the telemetry counters)."""
        with self._lock:
            size = len(self._data)
            hits, misses = self.hits, self.misses
            evictions = self.evictions
        total = hits + misses
        return {
            "name": self.name,
            "size": size,
            "maxsize": self.maxsize,
            "enabled": self.enabled,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": hits / total if total else 0.0,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


def _env_enabled() -> bool:
    return os.environ.get("REPRO_PERF_CACHE", "1") not in ("0", "false", "")


#: Full flow solutions; one entry per (machine, profile, allocation).
flow_cache = MemoCache("flow", maxsize=4096, enabled=_env_enabled())
#: Closed-network solutions (MVA results and per-chain throughputs).
mva_cache = MemoCache("mva", maxsize=32768, enabled=_env_enabled())
#: Calibrated memory profiles; one entry per (program, class, machine).
profile_cache = MemoCache("profile", maxsize=1024, enabled=_env_enabled())
#: Encoded exact service answers; one entry per (path, body digest).
response_cache = MemoCache("response", maxsize=1024, enabled=_env_enabled())

_ALL = (flow_cache, mva_cache, profile_cache, response_cache)


def set_enabled(flag: bool) -> None:
    """Enable or disable every cache (disabling also clears them)."""
    for cache in _ALL:
        cache.enabled = flag
        if not flag:
            cache.clear()


def caches_enabled() -> bool:
    """True when every cache is active."""
    return all(c.enabled for c in _ALL)


def clear_caches() -> None:
    """Empty every cache (size goes to zero; counters persist)."""
    for cache in _ALL:
        cache.clear()


def cache_stats() -> dict[str, dict]:
    """``{cache name: stats dict}`` for every cache."""
    return {c.name: c.stats() for c in _ALL}


def configure(flow_maxsize: int | None = None,
              mva_maxsize: int | None = None) -> None:
    """Adjust cache size bounds; shrinking evicts LRU entries."""
    for cache, maxsize in ((flow_cache, flow_maxsize),
                           (mva_cache, mva_maxsize)):
        if maxsize is None:
            continue
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        with cache._lock:
            cache.maxsize = maxsize
            while len(cache._data) > maxsize:
                cache._data.popitem(last=False)
                cache.evictions += 1
