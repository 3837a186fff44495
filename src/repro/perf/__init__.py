"""Fast-path performance layer: solver memoization and cache policy.

``repro.perf`` holds the content-addressed caches that let repeated
analytical solves — identical (machine, profile, allocation) triples in
``runtime.flow``, and the per-chain MVA throughputs inside them — return
previously computed results bit-identically instead of re-running the
MVA recursions, plus the memo of calibrated profiles those solves key on
and the memo of encoded ``repro serve`` answers.  Hit/miss/eviction
counters are mirrored into the ``repro.obs`` telemetry session as
``perf.cache.<name>.*``.

Disable with :func:`set_enabled`.
"""

from repro.perf.cache import (
    MISS,
    MemoCache,
    cache_stats,
    caches_enabled,
    clear_caches,
    flow_cache,
    mva_cache,
    profile_cache,
    response_cache,
    set_enabled,
)
from repro.perf.keys import fingerprint, flow_key

__all__ = [
    "MISS",
    "MemoCache",
    "cache_stats",
    "caches_enabled",
    "clear_caches",
    "fingerprint",
    "flow_cache",
    "flow_key",
    "mva_cache",
    "profile_cache",
    "response_cache",
    "set_enabled",
]
