#!/usr/bin/env python
"""Benchmark regression gate: fresh BENCH records vs committed baselines.

Compares the perf records produced by a fresh benchmark run against the
baselines committed under ``benchmarks/perf/`` and fails (exit 1) when
the run regressed:

* **Gated counters** — deterministic work counters (names ending in
  ``.calls``, ``.solves``, ``.iterations`` or ``.events_processed``,
  excluding the ``perf.cache.*`` bookkeeping) must not grow by more than
  the threshold (default 25%).  These are machine-independent, so they
  gate unconditionally.
* **Wall time** — gated with the same threshold, but *only* when the
  fresh record and the baseline carry the same ``environment.hostname``
  and ``environment.cpu_count``; wall times from another host, or from
  the same host with another CPU count, are reported as warnings
  instead of failures.
* **Per-cell solve latency** — the ``latency.*`` p99 percentiles (flow
  solves, MVA solves/batches) are gated like wall time: same-host
  only.  The histograms behind them bucket at powers of two, so a p99
  sitting on a bucket boundary jitters by exactly 2x run to run;
  the gate therefore fails only past ``max(threshold, one bucket)``
  of growth and downgrades within-one-bucket drift to a warning.
  Baselines written before the ``latency`` block existed produce a
  warning, never a failure.
* **Improvement lock** — when a same-host wall time or latency p99
  *improves* by more than the threshold, the gate passes but prints a
  ``re-baseline recommended`` notice: a stale, slower baseline leaves
  that much headroom for future regressions to hide in, so the record
  should be refreshed to lock the win in.

Usage::

    # Generate a fresh fast-mode table2 record and gate it (what CI runs):
    PYTHONPATH=src python benchmarks/check_regression.py --run table2 --fast

    # Gate pre-generated records in a directory against the baselines:
    PYTHONPATH=src python benchmarks/check_regression.py --fresh /tmp/perf

See docs/PERFORMANCE.md for how the baselines are refreshed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_record  # noqa: E402

from repro.obs.drift import is_gated_counter  # noqa: E402

DEFAULT_THRESHOLD = 0.25


def load_record(path: str) -> dict:
    """Read one BENCH json record."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def gated_counters(record: dict) -> dict[str, float]:
    """The work counters a record is judged on: ``{name: value}``.

    Tolerates records written by older perf_record versions: the
    ``metrics`` block may be a schema-wrapped snapshot
    (``{"snapshot_schema": N, "instruments": {...}}``, the current
    form), a bare instrument dict (pre-wrapping), and metric summaries
    may be plain numbers instead of ``{"kind": ..., "value": ...}``
    dicts (pre-environment-block schema); malformed entries are skipped
    rather than raising.
    """
    metrics = record.get("metrics") or {}
    if isinstance(metrics, dict) and "snapshot_schema" in metrics:
        metrics = metrics.get("instruments") or {}
    out: dict[str, float] = {}
    for key, summary in metrics.items():
        if isinstance(summary, dict):
            if summary.get("kind") != "counter":
                continue
            value = summary.get("value", 0.0)
        else:
            # Old-schema record: a bare number is a counter sample.
            value = summary
        if not is_gated_counter(key):
            continue
        try:
            out[key] = float(value)
        except (TypeError, ValueError):
            continue
    return out


def latency_p99s(record: dict) -> dict[str, float]:
    """The ``{series: p99_seconds}`` a record's latency SLOs are judged on.

    Prefers the dedicated ``latency`` block (current records); falls
    back to deriving from ``latency.*`` instrument summaries in the
    ``metrics`` block, so records written between the latency
    instruments and the block landing still gate.  Records with
    neither — legacy baselines — return empty, which downgrades the
    latency gate to a warning.
    """
    block = record.get("latency")
    out: dict[str, float] = {}
    if isinstance(block, dict):
        for key, summary in block.items():
            if not isinstance(summary, dict):
                continue
            try:
                out[key] = float(summary["p99"])
            except (KeyError, TypeError, ValueError):
                continue
        return out
    metrics = record.get("metrics") or {}
    if isinstance(metrics, dict) and "snapshot_schema" in metrics:
        metrics = metrics.get("instruments") or {}
    if not isinstance(metrics, dict):
        return out
    for key, summary in metrics.items():
        if not key.startswith("latency.") or not isinstance(summary, dict):
            continue
        try:
            out[key] = float(summary["p99"])
        except (KeyError, TypeError, ValueError):
            continue
    return out


def _host_mismatch(baseline: dict, fresh: dict) -> str | None:
    """Why the two records' timings are not comparable, or ``None``.

    They are comparable only when both carry the same non-null hostname
    and the same CPU count.  Records predating the ``environment`` block
    (or with it set to null) compare as different hosts, so their wall
    times are warned about rather than gated.
    """
    base_env = baseline.get("environment")
    fresh_env = fresh.get("environment")
    if not isinstance(base_env, dict) or not isinstance(fresh_env, dict):
        return "different host"
    base_host = base_env.get("hostname")
    if base_host is None or base_host != fresh_env.get("hostname"):
        return "different host"
    base_cpus, fresh_cpus = base_env.get("cpu_count"), \
        fresh_env.get("cpu_count")
    if base_cpus != fresh_cpus:
        return f"different CPU count {base_cpus} -> {fresh_cpus}"
    return None


def compare_records(baseline: dict, fresh: dict,
                    threshold: float = DEFAULT_THRESHOLD,
                    ) -> tuple[list[str], list[str]]:
    """Judge one fresh record against its baseline.

    Returns ``(failures, warnings)`` — human-readable lines; an empty
    failure list means the record passes the gate.
    """
    failures: list[str] = []
    warnings: list[str] = []
    name = fresh.get("benchmark", "?")
    limit = 1.0 + threshold

    base_counters = gated_counters(baseline)
    fresh_counters = gated_counters(fresh)
    for key, base_value in sorted(base_counters.items()):
        if key not in fresh_counters:
            warnings.append(
                f"{name}: counter {key} missing from fresh record "
                f"(baseline {base_value:g})")
            continue
        fresh_value = fresh_counters[key]
        if base_value <= 0.0:
            if fresh_value > 0.0:
                warnings.append(
                    f"{name}: counter {key} appeared "
                    f"(0 -> {fresh_value:g}); baseline has no budget")
            continue
        ratio = fresh_value / base_value
        if ratio > limit:
            failures.append(
                f"{name}: counter {key} regressed "
                f"{base_value:g} -> {fresh_value:g} "
                f"({ratio:.2f}x > {limit:.2f}x allowed)")
    for key in sorted(set(fresh_counters) - set(base_counters)):
        warnings.append(
            f"{name}: new gated counter {key} = {fresh_counters[key]:g} "
            "(no baseline; commit a refreshed record to start gating it)")

    lock = 1.0 - threshold
    base_wall = baseline.get("wall_time_s")
    fresh_wall = fresh.get("wall_time_s")
    mismatch = _host_mismatch(baseline, fresh)
    if base_wall and fresh_wall:
        ratio = fresh_wall / base_wall
        line = (f"{name}: wall time {base_wall:.3f}s -> {fresh_wall:.3f}s "
                f"({ratio:.2f}x)")
        if mismatch:
            warnings.append(line + f" [{mismatch}: not gated]")
        elif ratio > limit:
            failures.append(line + f" > {limit:.2f}x allowed")
        elif ratio < lock:
            warnings.append(
                line + " improved past the threshold; re-baseline "
                "recommended to lock the win in")

    base_lat = latency_p99s(baseline)
    fresh_lat = latency_p99s(fresh)
    if not base_lat and fresh_lat:
        warnings.append(
            f"{name}: baseline predates latency percentiles; commit a "
            "refreshed record to start gating p99")
    for key, base_p99 in sorted(base_lat.items()):
        fresh_p99 = fresh_lat.get(key)
        if fresh_p99 is None:
            warnings.append(
                f"{name}: latency series {key} missing from fresh record "
                f"(baseline p99 {base_p99:.4g}s)")
            continue
        if base_p99 <= 0.0:
            continue
        ratio = fresh_p99 / base_p99
        line = (f"{name}: {key} p99 {base_p99:.4g}s -> {fresh_p99:.4g}s "
                f"({ratio:.2f}x)")
        # One power-of-two histogram bucket of p99 drift is measurement
        # resolution, not a regression; only fail beyond it.
        lat_limit = max(limit, 2.0)
        if mismatch:
            warnings.append(line + f" [{mismatch}: not gated]")
        elif ratio > lat_limit:
            failures.append(line + f" > {lat_limit:.2f}x allowed")
        elif ratio > limit:
            warnings.append(
                line + " within one histogram bucket of baseline; "
                "not gated")
        elif ratio < lock:
            warnings.append(
                line + " improved past the threshold; re-baseline "
                "recommended to lock the win in")
    return failures, warnings


def run_gate(baseline_dir: str, fresh_dir: str,
             threshold: float = DEFAULT_THRESHOLD) -> int:
    """Gate every fresh record that has a committed baseline; exit code."""
    fresh_names = sorted(f for f in os.listdir(fresh_dir)
                         if f.startswith("BENCH_") and f.endswith(".json"))
    if not fresh_names:
        print(f"error: no BENCH_*.json records in {fresh_dir}",
              file=sys.stderr)
        return 2
    all_failures: list[str] = []
    compared = 0
    for fname in fresh_names:
        base_path = os.path.join(baseline_dir, fname)
        if not os.path.exists(base_path):
            print(f"skip: {fname} has no committed baseline in "
                  f"{baseline_dir}")
            continue
        compared += 1
        failures, warnings = compare_records(
            load_record(base_path), load_record(os.path.join(fresh_dir,
                                                             fname)),
            threshold)
        for line in warnings:
            print(f"warn: {line}")
        for line in failures:
            print(f"FAIL: {line}")
        if not failures:
            print(f"ok:   {fname}")
        all_failures.extend(failures)
    if not compared:
        print("error: no fresh record matched a committed baseline",
              file=sys.stderr)
        return 2
    if all_failures:
        print(f"\nregression gate FAILED: {len(all_failures)} regression(s) "
              f"over the {threshold:.0%} threshold")
        return 1
    print(f"\nregression gate passed ({compared} record(s) compared)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="gate fresh BENCH records against committed baselines")
    parser.add_argument("--baseline", default=perf_record.DEFAULT_PERF_DIR,
                        metavar="DIR",
                        help="committed baseline directory "
                             "(default: benchmarks/perf)")
    parser.add_argument("--fresh", default=None, metavar="DIR",
                        help="directory of freshly generated records to gate")
    parser.add_argument("--run", action="append", default=None,
                        metavar="NAME",
                        help="generate a fresh record for this experiment "
                             "first (repeatable)")
    parser.add_argument("--fast", action="store_true",
                        help="with --run: use the fast-mode sweep "
                             "(gates against BENCH_<name>_fast.json)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        metavar="FRAC",
                        help="allowed fractional growth (default 0.25)")
    args = parser.parse_args(argv)

    if not args.run and not args.fresh:
        parser.error("need --run NAME and/or --fresh DIR")
    fresh_dir = args.fresh
    tmp = None
    if args.run:
        if fresh_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-bench-")
            fresh_dir = tmp.name
        for name in args.run:
            path = perf_record.generate_record(name, fast=args.fast,
                                               out_dir=fresh_dir)
            print(f"generated {path}")
    try:
        return run_gate(args.baseline, fresh_dir, args.threshold)
    finally:
        if tmp is not None:
            tmp.cleanup()


if __name__ == "__main__":
    sys.exit(main())
