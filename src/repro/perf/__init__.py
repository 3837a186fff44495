"""Fast-path performance layer: solver memoization and cache policy.

``repro.perf`` holds the content-addressed caches that let repeated
analytical solves — identical (machine, profile, allocation) triples in
``runtime.flow`` and identical closed networks in ``qnet.mva`` — return
previously computed results bit-identically instead of re-running the
MVA recursions, plus the memo of calibrated profiles those solves key on
and the memo of encoded ``repro serve`` answers.  Hit/miss/eviction
counters are mirrored into the ``repro.obs`` telemetry session as
``perf.cache.<name>.*``.

Disable with ``REPRO_PERF_CACHE=0`` or :func:`set_enabled`.
"""

from repro.perf.cache import (
    MISS,
    MemoCache,
    cache_stats,
    caches_enabled,
    clear_caches,
    configure,
    flow_cache,
    mva_cache,
    profile_cache,
    response_cache,
    set_enabled,
)
from repro.perf.keys import fingerprint, flow_key, mva_key

__all__ = [
    "MISS",
    "MemoCache",
    "cache_stats",
    "caches_enabled",
    "clear_caches",
    "configure",
    "fingerprint",
    "flow_cache",
    "flow_key",
    "mva_cache",
    "mva_key",
    "profile_cache",
    "response_cache",
    "set_enabled",
]
