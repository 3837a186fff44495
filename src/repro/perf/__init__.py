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

from repro import _export

_EXPORTS = {
    "MISS": "cache",
    "MemoCache": "cache",
    "cache_stats": "cache",
    "caches_enabled": "cache",
    "clear_caches": "cache",
    "fingerprint": "keys",
    "flow_cache": "cache",
    "flow_key": "keys",
    "mva_cache": "cache",
    "profile_cache": "cache",
    "response_cache": "cache",
    "set_enabled": "cache",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
