"""Process under test for the sweep and burst workloads.

Usage: ``python perfbench/worker.py {sweep|burst} SEED [--setup-only]
[--spans PATH]``.  Prints one JSON line when set-up is done (``import
repro`` and the machine presets), then runs the workload and prints one
JSON result line.  With ``--spans`` the layer wrappers are installed and
telemetry is on; the spans are written to PATH at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import inputs
import ledger
from checks import canonical


def _emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def run_sweep(seed: int) -> dict:
    from repro import perf
    from repro.experiments import runner
    from repro.resilience.errors import ReproError

    ops = []
    t0 = time.perf_counter()
    for name in inputs.SWEEP_DRIVERS:
        perf.clear_caches()
        t = time.perf_counter()
        try:
            result = runner.run_experiment(name, rng=seed)
        except ReproError as exc:
            ops.append({"name": name, "ok": False, "error": str(exc),
                        "s": time.perf_counter() - t})
            continue
        ops.append({
            "name": name, "ok": result.ok, "s": time.perf_counter() - t,
            "digest": hashlib.sha256(
                canonical(result.data).encode()).hexdigest()})
    return {"wall_s": time.perf_counter() - t0, "ops": ops}


def run_burst(seed: int) -> dict:
    import numpy as np

    from repro.burst import (
        ccdf_at,
        estimate_hurst,
        fit_loglog_tail,
        is_heavy_tailed,
    )
    from repro.counters.sampler import BurstSampler
    from repro.experiments.paper_data import FIG4_X_GRID
    from repro.machine import intel_numa
    from repro.util.validation import ValidationError

    sampler = BurstSampler(intel_numa())
    streams = inputs.burst_streams(seed)
    ops = []
    t0 = time.perf_counter()
    for program, size in inputs.BURST_SERIES:
        t = time.perf_counter()
        counts = np.concatenate([
            sampler.sample(program, size, n_windows=inputs.BURST_WINDOWS,
                           rng=stream).counts
            for stream in streams])
        probs = ccdf_at(counts, FIG4_X_GRID)
        heavy = is_heavy_tailed(counts)
        try:
            r2 = fit_loglog_tail(counts).r2
        except ValidationError:
            r2 = None
        try:
            hurst = estimate_hurst(counts).hurst
        except ValidationError:
            hurst = None
        stats = canonical([[float(p) for p in probs], heavy, r2, hurst])
        ops.append({
            "name": f"{program}.{size}", "ok": True,
            "s": time.perf_counter() - t, "heavy": bool(heavy),
            "digest": hashlib.sha256(
                counts.tobytes() + stats.encode()).hexdigest()})
    return {"wall_s": time.perf_counter() - t0, "ops": ops}


def _counters() -> dict:
    """Counts the program keeps: telemetry counters and cache stats."""
    from repro import obs, perf

    out = {f"perf.cache.{name}.{key}": stats[key]
           for name, stats in perf.cache_stats().items()
           for key in ("hits", "misses", "evictions")}
    session = obs.session()
    if session is not None:
        for key, summary in session.metrics.snapshot().items():
            if summary.get("kind") == "counter":
                out[key] = summary["value"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("sweep", "burst"))
    parser.add_argument("seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import repro  # noqa: F401  (set-up: the import users pay)
    from repro.machine import amd_numa, intel_numa, intel_uma

    for preset in (intel_uma, intel_numa, amd_numa):
        preset()
    rec = None
    if args.spans:
        from repro import obs

        rec = ledger.Recorder()
        ledger.install(rec)
        obs.enable()
    _emit({"ready": True})
    if args.setup_only:
        return 0
    work = run_sweep if args.workload == "sweep" else run_burst
    result = work(args.seed)
    result["counters"] = _counters()
    if rec is not None:
        rec.write(args.spans)
    _emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
