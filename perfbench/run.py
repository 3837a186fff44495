#!/usr/bin/env python3
"""The repository benchmark: the program measured from outside, by workload.

Usage::

    python3 perfbench/run.py --workload serve-warm --seed 7 --seconds 10
    python3 perfbench/run.py --workload sweep --trace 1
    python3 perfbench/run.py --workload all

Each workload runs the program in processes of its own, repeats a fixed
pass until ``--seconds`` have gone by, checks the outputs, and prints
every metric by name and unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``; per-layer metrics and the
tracing overhead from a separate traced pass with ``--trace 1``).  A
failed correctness check exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from statistics import median

import batch
import checks
import serving
from util import (
    CPUS,
    DEFAULT_SEED,
    NPROC,
    SRC,
    WORK,
    BenchError,
    env_stamp,
    percentile,
)

WORKLOADS = ("serve-warm", "serve-cold", "sweep", "burst")

#: Set-up is measured at least this many times per run.
MIN_SETUPS = 3

END_TO_END = (("setup_s", "s"), ("throughput_rps", "req/s"),
              ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
              ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: Printed but left out of the result line: on a shared two-CPU host its
#: run-to-run spread exceeds any bound the benchmark may set (README.md).
UNGATED = ("latency_p99_ms",)

#: Per-layer metrics: (metric, unit, layer, field of the layer totals).
LAYER_FIELDS = (
    ("serve.service.calls", "count", "serve.service", "calls"),
    ("serve.service.failed", "count", "serve.service", "n"),
    ("serve.service.self_s", "s", "serve.service", "self_s"),
    ("serve.stats.self_s", "s", "serve.stats", "self_s"),
    ("obs.trace.self_s", "s", "obs.trace", "self_s"),
    ("serve.pool.wait_s", "s", "serve.pool", "self_s"),
    ("core.predict.calls", "count", "core.predict", "calls"),
    ("core.predict.self_s", "s", "core.predict", "self_s"),
    ("runtime.calibration.calls", "count", "runtime.calibration", "calls"),
    ("runtime.calibration.self_s", "s", "runtime.calibration", "self_s"),
    ("perf.keys.calls", "count", "perf.keys", "calls"),
    ("perf.keys.self_s", "s", "perf.keys", "self_s"),
    ("runtime.flow.calls", "count", "runtime.flow", "calls"),
    ("runtime.flow.cells", "count", "runtime.flow", "n"),
    ("runtime.flow.self_s", "s", "runtime.flow", "self_s"),
    ("qnet.mva.calls", "count", "qnet.mva", "calls"),
    ("qnet.mva.rows", "count", "qnet.mva", "n"),
    ("qnet.mva.self_s", "s", "qnet.mva", "self_s"),
    ("experiments.self_s", "s", "experiments", "self_s"),
    ("runtime.measurement.self_s", "s", "runtime.measurement", "self_s"),
    ("runtime.noise.calls", "count", "runtime.noise", "calls"),
    ("runtime.noise.self_s", "s", "runtime.noise", "self_s"),
    ("core.fit.calls", "count", "core.fit", "calls"),
    ("core.fit.self_s", "s", "core.fit", "self_s"),
    ("counters.sampler.calls", "count", "counters.sampler", "calls"),
    ("counters.sampler.windows", "count", "counters.sampler", "n"),
    ("counters.sampler.self_s", "s", "counters.sampler", "self_s"),
    ("counters.envelope.self_s", "s", "counters.envelope", "self_s"),
    ("desim.arrivals.calls", "count", "desim.arrivals", "calls"),
    ("desim.arrivals.arrivals", "count", "desim.arrivals", "n"),
    ("desim.arrivals.self_s", "s", "desim.arrivals", "self_s"),
    ("burst.stats.calls", "count", "burst.stats", "calls"),
    ("burst.stats.self_s", "s", "burst.stats", "self_s"),
)

#: Per-layer metrics read from the program's own counters.
COUNTER_FIELDS = (
    ("runtime.flow.solves", "count", "runtime.flow.solves"),
    ("runtime.flow.fallbacks", "count", "perf.batch.fallbacks"),
    ("perf.cache.flow.evictions", "count", "perf.cache.flow.evictions"),
    ("resilience.retries", "count", "resilience.retries"),
    ("resilience.degradations", "count", "resilience.degradations"),
)

#: Per-layer metrics computed from several sources (see per_layer()).
DERIVED = (("serve.http.requests", "count"), ("serve.http.self_s", "s"),
           ("serve.coverage", "ratio"), ("client.transport_s", "s"),
           ("perf.cache.flow.hit_ratio", "ratio"),
           ("perf.cache.mva.hit_ratio", "ratio"),
           ("runtime.flow.fallback_ratio", "ratio"))

PER_LAYER = tuple((m, u) for m, u, _, _ in LAYER_FIELDS) \
    + tuple((m, u) for m, u, _ in COUNTER_FIELDS) + DERIVED \
    + tuple((f"trace_overhead.{m}", "ratio") for m, _ in END_TO_END)

UNITS = dict(END_TO_END + PER_LAYER)


def one_pass(workload: str, seed: int, work, tag: str, traced: bool,
             setup_only: bool = False) -> dict:
    if workload.startswith("serve"):
        return serving.serve_pass(workload, seed, work, tag, traced,
                                  connections=min(2, NPROC),
                                  setup_only=setup_only)
    return batch.batch_pass(workload, seed, work, tag, traced, setup_only)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def hit_ratio(counters: dict, cache: str) -> float:
    hits = counters.get(f"perf.cache.{cache}.hits", 0)
    return _ratio(hits, hits + counters.get(f"perf.cache.{cache}.misses", 0))


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    latencies = [x for p in passes for x in p["latencies_s"]]
    return {
        "setup_s": median(setups),
        "throughput_rps": median([p["ok"] / p["wall_s"] for p in passes]),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "wall_s": median([p["wall_s"] for p in passes]),
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
    }


def per_layer(traced: dict) -> dict:
    """Every per-layer metric of one traced pass (0 where not exercised)."""
    layers, counters = traced["layers"], traced["counters"]
    out = {m: layers.get(layer, {}).get(field, 0)
           for m, _, layer, field in LAYER_FIELDS}
    out.update({m: counters.get(name, 0) for m, _, name in COUNTER_FIELDS})
    req = traced.get("requests", {})
    out["serve.http.requests"] = req.get("requests", 0)
    out["serve.http.self_s"] = req.get("http_self_s", 0.0)
    out["serve.coverage"] = _ratio(req.get("layers_s", 0.0),
                                   req.get("server_s", 0.0))
    out["client.transport_s"] = traced.get("transport_s", 0.0)
    out["perf.cache.flow.hit_ratio"] = hit_ratio(counters, "flow")
    out["perf.cache.mva.hit_ratio"] = hit_ratio(counters, "mva")
    out["runtime.flow.fallback_ratio"] = _ratio(
        counters.get("perf.batch.fallbacks", 0),
        counters.get("perf.batch.cells", 0))
    return out


def problems_of(workload: str, seed: int, passes: list[dict]) -> list[str]:
    if workload == "sweep":
        return checks.check_sweep(seed, [p["ops"] for p in passes])
    if workload == "burst":
        return checks.check_burst([p["ops"] for p in passes])
    return [msg for p in passes for msg in p["problems"]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work) -> dict:
    """Measure one workload; returns the result object plus report lines."""
    t0 = time.perf_counter()
    notes = []
    if trace:
        plain = one_pass(workload, seed, work, "u", traced=False)
        traced = one_pass(workload, seed, work, "v", traced=True)
        passes = [plain, traced]
        base = end_to_end([plain], [plain["setup_s"]])
        slow = end_to_end([traced], [traced["setup_s"]])
        metrics = per_layer(traced)
        for m, _ in END_TO_END:
            metrics[f"trace_overhead.{m}"] = (slow[m] - base[m]) / base[m]
    else:
        passes = []
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(one_pass(workload, seed, work, str(len(passes)),
                                   traced=False))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(one_pass(workload, seed, work, f"p{len(setups)}",
                                   traced=False, setup_only=True)["setup_s"])
        metrics = end_to_end(passes, setups)
        notes.append(f"samples: {len(setups)} set-ups, {len(passes)} "
                     f"passes, {sum(len(p['latencies_s']) for p in passes)}"
                     " latencies")
    if workload.startswith("serve"):
        ratios = ", ".join(f"{hit_ratio(p['counters'], 'flow'):.4f}"
                           for p in passes)
        notes.append(f"flow-cache hit ratio of the timed phase, from "
                     f"/metrics: {ratios}")
    if workload == "burst":
        ops = passes[0]["ops"]
        differ = checks.paper_agreement(ops)
        notes.append(f"heavy-tail verdicts equal to the paper's: "
                     f"{len(ops) - len(differ)}/{len(ops)} "
                     f"(differ: {', '.join(differ) or 'none'})")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes.append(f"failed_share = {_ratio(failed, attempted):.6g} ratio "
                 f"({failed}/{attempted})")
    problems = problems_of(workload, seed, passes)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "notes": notes,
            "problems": problems}


def report(workload: str, seed: int, trace: bool, result: dict) -> None:
    print(f"== {workload} seed={seed} trace={int(trace)} "
          f"env={json.dumps(env_stamp(), sort_keys=True)}")
    for name, value in result["metrics"].items():
        print(f"  {name:<32} {value:.6g} {UNITS[name]}")
    for note in result["notes"]:
        print(f"  {note}")
    for problem in result["problems"]:
        print(f"  MISMATCH {problem}", file=sys.stderr)


def result_line(result: dict, prefix: str = "") -> dict:
    return {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {prefix + name: {"value": value, "unit": UNITS[name]}
                    for name, value in result["metrics"].items()
                    if name not in UNGATED}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops the processes it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if CPUS[1] is not None:
        os.sched_setaffinity(0, CPUS[1])
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), work)
            report(name, args.seed, bool(args.trace), result)
            lines.append(result_line(
                result, prefix="" if len(names) == 1 else f"{name}/"))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    final = {"correct": all(line["correct"] for line in lines),
             "attempted": sum(line["attempted"] for line in lines),
             "failed": sum(line["failed"] for line in lines),
             "metrics": {k: v for line in lines
                         for k, v in line["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
