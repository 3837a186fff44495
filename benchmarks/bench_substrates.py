"""Microbenchmarks of the substrates themselves.

Not a paper artefact: these time the building blocks (exact MVA, the
flow fixed point, the cache simulator, burst sampling) so performance
regressions in the simulation engine are visible.
"""

import numpy as np
import pytest


def test_exact_mva_48(benchmark):
    """The exact recursion at N = 48 on one think-plus-three-queue row.

    ``exact_throughputs_cells`` is the entry the flow solver's ladder
    runs; no cache sits in front of it, so every round recurses.  A
    batch this small recurses on Python floats.
    """
    from repro.qnet.mva import exact_throughputs_cells

    row = (np.array([[50.0, 1.0, 1.0, 0.4]]),
           np.array([[False, True, True, True]]),
           np.ones((1, 4)), np.array([48]))
    (x,) = benchmark(exact_throughputs_cells, [row])
    assert x[0] > 0


def test_exact_mva_64_rows(benchmark):
    """The same row tiled to 64 rows, populations 1..48 out of order.

    A batch this large runs the numpy recursion, ``_exact_recursion``.
    """
    from repro.qnet.mva import exact_throughputs_cells

    rows = 64
    block = (np.tile([[50.0, 1.0, 1.0, 0.4]], (rows, 1)),
             np.tile([[False, True, True, True]], (rows, 1)),
             np.ones((rows, 4)), 1 + np.arange(rows) % 48)
    (x,) = benchmark(exact_throughputs_cells, [block])
    assert (x > 0).all()


@pytest.mark.parametrize("preset, n", [
    ("intel_uma", 4), ("intel_numa", 13), ("amd_numa", 30)])
def test_flow_solver_cold_cell(benchmark, preset, n):
    """One cold single-cell solve, shaped like a serve-cold ``/predict``.

    The caches are cleared before every round, so each timed call
    solves instead of copying a flow-cache hit.
    """
    from repro import perf
    from repro.machine import CoreAllocation, presets
    from repro.runtime.calibration import calibrate_profile
    from repro.runtime.flow import solve_flow

    machine = getattr(presets, preset)()
    profile = calibrate_profile("CG", "C", machine)
    alloc = CoreAllocation.paper_policy(machine, n)
    result = benchmark.pedantic(solve_flow, args=(profile, machine, alloc),
                                setup=perf.clear_caches, rounds=50,
                                warmup_rounds=2)
    assert result.total_cycles > 0


def test_flow_solver_pooled_grid(benchmark):
    """One cold ``solve_flow_cells`` over a sweep-shaped grid of 320 cells.

    CG, EP, SP and FT (class C) at every active-core count of the three
    presets, pooled into one lock-step call.
    """
    from repro import perf
    from repro.machine import CoreAllocation, amd_numa, intel_numa, intel_uma
    from repro.runtime.calibration import calibrate_profile
    from repro.runtime.flow import solve_flow_cells

    cells = [(calibrate_profile(program, "C", machine), machine,
              CoreAllocation.paper_policy(machine, n))
             for machine in (intel_uma(), intel_numa(), amd_numa())
             for program in ("CG", "EP", "SP", "FT")
             for n in range(1, machine.n_cores + 1)]
    results = benchmark.pedantic(solve_flow_cells, args=(cells,),
                                 setup=perf.clear_caches, rounds=5)
    assert len(results) == 320


def test_measurement_sweep_intel_numa(benchmark):
    from repro.machine import intel_numa
    from repro.runtime.measurement import MeasurementRun

    machine = intel_numa()

    def sweep():
        return MeasurementRun("CG", "C", machine).sweep([1, 12, 24])

    result = benchmark(sweep)
    assert result[24].total_cycles > result[1].total_cycles


def test_cache_simulation_throughput(benchmark, rng=None):
    from repro.machine.caches import CacheConfig, CacheHierarchy
    from repro.workloads import get_workload

    hier = CacheHierarchy([
        CacheConfig("L1", 32, 8).to_level(),
        CacheConfig("L2", 512, 8).to_level(),
    ])
    trace = get_workload("CG").address_trace(50_000, rng=7)

    def run():
        hier.reset()
        return hier.access(trace)

    out = benchmark(run)
    assert out["llc_miss_mask"].shape == trace.shape


def test_burst_sampling_100k_windows(benchmark):
    from repro.counters.sampler import BurstSampler
    from repro.machine import intel_numa

    sampler = BurstSampler(intel_numa())
    trace = benchmark(sampler.sample, "CG", "A", None, 100_000)
    assert trace.n_windows == 100_000


@pytest.mark.parametrize("size, kind, heavy", [
    pytest.param("A", "OnOffArrivals", True, id="onoff-pareto"),
    pytest.param("B", "OnOffArrivals", False, id="onoff-exp"),
    pytest.param("C", "DeterministicArrivals", None, id="deterministic")])
def test_counts_in_windows(benchmark, size, kind, heavy):
    """One burst-sampler stream: 1,250 five-microsecond window counts.

    The process is what ``arrival_process_for`` builds for CG at ``size``
    from its calibrated profile on ``intel_numa`` with all 24 cores (the
    sampler itself raises CG.A's rate by its phase envelope).  Every
    round counts with a fresh generator at the same seed.
    """
    from repro.counters.sampler import arrival_process_for
    from repro.machine import intel_numa
    from repro.runtime.calibration import calibrate_profile

    machine = intel_numa()
    process = arrival_process_for(calibrate_profile("CG", size, machine),
                                  machine, 24)
    assert type(process).__name__ == kind
    assert getattr(process, "heavy_tailed", None) == heavy

    def count():
        return process.counts_in_windows(5e-6, 1250,
                                         rng=np.random.default_rng(20110913))

    counts = benchmark(count)
    assert counts.shape == (1250,) and counts.sum() > 0


def test_model_fit_and_validate(benchmark):
    from repro.core import fit_model, validate_model
    from repro.machine import intel_numa
    from repro.runtime.measurement import MeasurementRun

    machine = intel_numa()
    sweep = MeasurementRun("CG", "C", machine).sweep()

    def fit_validate():
        model = fit_model(machine, sweep)
        return validate_model(model, sweep)

    report = benchmark(fit_validate)
    assert report.mean_relative_error_cycles < 0.2


def test_fft3d_32cubed(benchmark):
    from repro.workloads.ft import fft3d

    rng = np.random.default_rng(7)
    grid = rng.random((32, 32, 32)) + 1j * rng.random((32, 32, 32))
    out = benchmark(fft3d, grid)
    assert np.allclose(out, np.fft.fftn(grid))


def test_penta_solve_4096_lines(benchmark):
    from repro.workloads.sp import model_bands, penta_solve

    rng = np.random.default_rng(7)
    bands = model_bands(4096, 64, rng)
    rhs = rng.random((4096, 64))
    x = benchmark(penta_solve, bands, rhs)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("session", ["on", "off"])
def test_service_telemetry_record(benchmark, session):
    """One 2xx through the server's request accounting, in-process."""
    from repro import obs
    from repro.serve.stats import ServiceTelemetry

    if session == "on":
        obs.enable(fresh=True)
    else:
        obs.disable()
    try:
        stats = ServiceTelemetry()
        benchmark(stats.record, method="POST", path="/predict", status=200,
                  duration_s=0.001, request_id="0123456789abcdef")
    finally:
        obs.disable()
    assert stats.request_log.total > 0


@pytest.mark.parametrize("traffic", ["healthy", "burning"])
def test_service_telemetry_slo_state(benchmark, traffic):
    """One SLO evaluation over an hour of traffic, every ring slot live.

    ``healthy``: 1 request in 1,000 is a 5xx and 1 in 1,000 takes
    0.5 s.  ``burning``: a quarter are 5xx and half take 0.25 s or
    more, so every slot holds requests on both sides of the latency
    threshold.
    """
    from repro import obs
    from repro.serve.stats import ServiceTelemetry

    def request(i):
        if traffic == "burning":
            return (200, 200, 404, 500)[i % 4], (0.001, 0.01, 0.25, 0.5)[i % 4]
        fast = (0.0003, 0.0007, 0.0015, 0.004)[i % 4]
        return (500 if i % 1000 == 0 else 200), (
            0.5 if i % 1000 == 500 else fast)

    obs.disable()
    now = [0.0]
    stats = ServiceTelemetry(clock=lambda: now[0])
    for i in range(3600 * 3):
        now[0] = i / 3
        status, duration_s = request(i)
        stats.record(method="POST", path="/predict", status=status,
                     duration_s=duration_s, request_id=str(i))
    state = benchmark(stats.slo_state)
    assert state["objectives"]["latency"]["windows"]["1h"]["total"] == 10800
