"""Tests of the fast-path memoization layer (:mod:`repro.perf`).

The load-bearing property: caching is *exact*.  A cached flow solve must
be bit-identical to an uncached one for every observable field — the
cache trades memory for time, never accuracy.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.machine import CoreAllocation, amd_numa, intel_numa, intel_uma
from repro.perf.cache import MemoCache, _env_enabled
from repro.perf.keys import cached_fingerprint, fingerprint, flow_key
from repro.runtime.flow import solve_flow
from test_flow_properties import make_profile, profiles

MACHINES = {"uma": intel_uma(), "numa": intel_numa()}


@pytest.fixture(autouse=True)
def _cache_isolation():
    """Leave the process-global caches enabled and empty around each test."""
    was_enabled = perf.caches_enabled()
    perf.clear_caches()
    yield
    perf.set_enabled(was_enabled)
    perf.clear_caches()


class TestFlowCacheExactness:
    @given(profiles(), st.sampled_from(["uma", "numa"]), st.integers(1, 24))
    @settings(max_examples=25, deadline=None)
    def test_cached_solve_bit_identical(self, profile, mkey, n):
        machine = MACHINES[mkey]
        n = 1 + (n - 1) % (8 if mkey == "uma" else 24)
        alloc = CoreAllocation.paper_policy(machine, n)

        perf.set_enabled(False)
        uncached = solve_flow(profile, machine, alloc)

        perf.set_enabled(True)
        perf.clear_caches()
        miss = solve_flow(profile, machine, alloc)   # populates the cache
        hit = solve_flow(profile, machine, alloc)    # served from it

        for result in (miss, hit):
            # Exact equality on every float, deliberately not approx:
            # the cache must never change a value by even one ulp.
            assert dataclasses.asdict(result) == dataclasses.asdict(uncached)

    def test_hit_counters_and_fresh_dict(self, inuma):
        profile = make_profile()
        alloc = CoreAllocation.paper_policy(inuma, 4)
        first = solve_flow(profile, inuma, alloc)
        stats0 = perf.cache_stats()["flow"]
        second = solve_flow(profile, inuma, alloc)
        stats1 = perf.cache_stats()["flow"]
        assert stats1["hits"] == stats0["hits"] + 1
        # Mutation safety: a hit hands back its own utilisation dict.
        assert second.controller_utilisation is not first.controller_utilisation
        second.controller_utilisation["poisoned"] = 1.0
        assert "poisoned" not in solve_flow(profile, inuma,
                                            alloc).controller_utilisation

    def test_distinct_inputs_distinct_keys(self, inuma):
        base = make_profile()
        alloc = CoreAllocation.paper_policy(inuma, 4)
        keys = {
            flow_key(base, inuma, alloc),
            flow_key(base.with_misses(base.llc_misses * 2), inuma, alloc),
            flow_key(base, inuma, CoreAllocation.paper_policy(inuma, 5)),
            flow_key(base, intel_uma(),
                     CoreAllocation.paper_policy(intel_uma(), 4)),
        }
        assert len(keys) == 4

    def test_disabled_caches_store_nothing(self, inuma):
        perf.set_enabled(False)
        profile = make_profile()
        alloc = CoreAllocation.paper_policy(inuma, 2)
        solve_flow(profile, inuma, alloc)
        assert len(perf.flow_cache) == 0
        assert len(perf.mva_cache) == 0


class TestMemoCache:
    def test_size_bound_and_lru_eviction(self):
        cache = MemoCache("t", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh a: b is now LRU
        cache.put("c", 3)                   # evicts b
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("b") is perf.MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_clear_resets_entries_not_counters(self):
        cache = MemoCache("t", maxsize=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is perf.MISS
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_env_switch(self, monkeypatch):
        for off in ("0", "false", ""):
            monkeypatch.setenv("REPRO_PERF_CACHE", off)
            assert _env_enabled() is False
        monkeypatch.setenv("REPRO_PERF_CACHE", "1")
        assert _env_enabled() is True
        monkeypatch.delenv("REPRO_PERF_CACHE")
        assert _env_enabled() is True


class TestThreadSafety:
    def test_threaded_get_put_preserves_invariants(self):
        # The serve worker pool hits the process-global caches from
        # several threads at once; before the RLock landed, the
        # OrderedDict move_to_end/popitem pair could corrupt the dict
        # or lose counter bumps.  Hammer one cache from many threads
        # and check the bookkeeping adds up exactly.
        import threading

        cache = MemoCache("hammer", maxsize=32)
        threads, per_thread = 8, 400
        errors = []

        def worker(tid: int) -> None:
            try:
                for i in range(per_thread):
                    # A hot set that fits (hits) plus a cold scan that
                    # overflows (misses + evictions), interleaved.
                    key = i % 8 if i % 2 else (tid * per_thread + i) % 48
                    if cache.get(key) is perf.MISS:
                        cache.put(key, key * 2)
                    else:
                        assert cache.get(key) in (perf.MISS, key * 2)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert not errors
        assert len(cache) <= 32
        stats = cache.stats()
        # Every put() follows a miss, and each either landed an entry
        # or displaced one: the ledger must balance under races.
        assert stats["size"] + stats["evictions"] <= stats["misses"]
        assert stats["hits"] > 0 and stats["misses"] > 0
        for key in list(cache._data):
            assert cache.get(key) == key * 2

    def test_threaded_shrink_while_hammering(self):
        import threading

        cache = MemoCache("shrink", maxsize=64)
        for i in range(64):
            cache.put(i, i)
        stop = threading.Event()
        errors = []

        def reader() -> None:
            try:
                i = 0
                while not stop.is_set():
                    cache.get(i % 128)
                    cache.put(128 + (i % 64), i)
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=reader) for _ in range(4)]
        for t in pool:
            t.start()
        # Shrink the live cache under load, as perf.configure() does.
        for size in (32, 16, 8, 4):
            with cache._lock:
                while len(cache._data) > size:
                    cache._data.popitem(last=False)
                    cache.evictions += 1
        stop.set()
        for t in pool:
            t.join()
        assert not errors
        assert len(cache) <= 64 + 64


class TestFingerprints:
    def test_deterministic_and_discriminating(self, inuma):
        assert fingerprint(make_profile()) == fingerprint(make_profile())
        assert fingerprint(make_profile()) != fingerprint(
            make_profile(misses=2e8))
        # Machine objects hold an Interconnect, whose identity comes from
        # the __cache_tokens__ protocol; it must fingerprint all the same.
        assert cached_fingerprint(inuma) == cached_fingerprint(inuma)
        assert cached_fingerprint(inuma) != cached_fingerprint(intel_uma())

    @pytest.mark.parametrize("factory, digest", [
        (intel_uma, "4aee31a2ee20dca29835ba2dbeb004e9"
                    "86d9f96faff77a2a63db18e045c64436"),
        (intel_numa, "890ed603409a2386309b5890257bb200"
                     "5cd2559356de9b48e3880659f9298ec4"),
        (amd_numa, "8e6d4370870390606d198da329f2885d"
                   "0ccb06819a3f0227e0f99a809c1eb8c8"),
    ], ids=["intel_uma", "intel_numa", "amd_numa"])
    def test_preset_digests_pinned(self, factory, digest):
        # Frozen values: a preset's cache identity (hop distances
        # included) must not move when its internals are rewritten.
        assert fingerprint(factory()) == digest
