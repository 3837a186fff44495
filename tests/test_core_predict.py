"""Tests of the pure prediction kernel (:mod:`repro.core.predict`).

The kernel's contract is *bit-identity with the driver path*: a served
prediction for (program, size, machine, n) must carry the exact floats
that :class:`repro.runtime.measurement.MeasurementRun` — the experiment
substrate — computes for the same cell, because both are thin callers
of the same calibrated profile and the same memoized flow solver.
These tests pin that down over every Table II seed anchor, then cover
the sweep batching, the recommendation ranking and the validation
surface.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs, perf
from repro.core.predict import (
    predict,
    predict_sweep,
    predict_workload,
    recommend,
    recommend_workload,
)
from repro.machine import CoreAllocation, amd_numa, intel_numa, intel_uma
from repro.obs import names
from repro.runtime.calibration import HALF_FULL, TABLE2, calibrate_profile
from repro.runtime.flow import solve_flow
from repro.runtime.measurement import MeasurementRun
from repro.runtime.noise import NOISELESS
from repro.util.validation import ValidationError
from test_flow_properties import make_profile, profiles

MACHINES = {"intel_uma": intel_uma(), "intel_numa": intel_numa(),
            "amd_numa": amd_numa()}


@pytest.fixture(autouse=True)
def _cache_isolation():
    """Leave the process-global caches enabled and empty around each test."""
    was_enabled = perf.caches_enabled()
    perf.clear_caches()
    yield
    perf.set_enabled(was_enabled)
    perf.clear_caches()
    obs.disable()


def driver_flow(program, size, machine, n):
    """The experiment drivers' solve for one cell, spelled out."""
    profile = calibrate_profile(program, size, machine)
    return solve_flow(profile, machine,
                      CoreAllocation.paper_policy(machine, n))


class TestDriverBitIdentity:
    def test_every_seed_cell_matches_the_driver_path(self):
        # Every Table II anchor at n = 1, half and full cores — the
        # cells the seed experiments measure.  Exact float ==, no approx.
        for (program, size, mkey) in sorted(TABLE2):
            machine = MACHINES[mkey]
            half, full = HALF_FULL[mkey]
            base = driver_flow(program, size, machine, 1)
            for n in (1, half, full):
                got = predict_workload(program, size, machine, n)
                want = driver_flow(program, size, machine, n)
                cell = f"{program}.{size}@{mkey} n={n}"
                assert got.total_cycles == want.total_cycles, cell
                assert got.makespan_cycles == want.makespan_cycles, cell
                assert got.work_cycles == want.work_cycles, cell
                assert got.base_stall_cycles == want.base_stall_cycles, cell
                assert got.memory_stall_cycles \
                    == want.memory_stall_cycles, cell
                assert got.llc_misses == want.llc_misses, cell
                assert got.utilisations == want.controller_utilisation, cell
                assert got.solver_stage == want.solver_stage, cell
                assert got.baseline_cycles == base.total_cycles, cell
                assert got.omega == (want.total_cycles - base.total_cycles) \
                    / base.total_cycles, cell

    def test_matches_noiseless_measurement_run(self):
        # The same identity through the measurement driver itself: with
        # the noise model off, measured counters ARE the flow solve.
        machine = MACHINES["intel_uma"]
        run = MeasurementRun(program="CG", size="C", machine=machine,
                             repetitions=1, noise=NOISELESS)
        for n in (1, 4, 8):
            sample = run.measure(n)
            pred = predict_workload("CG", "C", machine, n)
            assert sample.total_cycles == pred.total_cycles
        assert run.omega(8) == predict_workload("CG", "C", machine, 8).omega

    def test_kernel_is_pure_repeatable(self):
        machine = MACHINES["intel_numa"]
        first = predict_workload("FT", "C", machine, 12)
        perf.clear_caches()
        second = predict_workload("FT", "C", machine, 12)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)


class TestColdPredict:
    """A cold ``predict`` solves its cell, then its one-core baseline.

    Each is a one-cell :func:`solve_flow` call, which records a per-cell
    timing and no batch timing.
    """

    @staticmethod
    def _work(tel):
        metrics = tel.metrics
        return (metrics.counter(names.RUNTIME_FLOW_SOLVES).value,
                metrics.counter(names.PERF_BATCH_CELLS).value,
                metrics.timer(names.LATENCY_FLOW_BATCH_SECONDS).count,
                metrics.timer(names.LATENCY_FLOW_SOLVE_SECONDS).count)

    def test_cold_predict_solves_and_caches_two_cells(self):
        machine = MACHINES["intel_numa"]
        profile = calibrate_profile("CG", "C", machine)
        alloc = CoreAllocation.paper_policy(machine, 13)
        base = CoreAllocation(machine=machine, n_active=1,
                              n_threads=alloc.n_threads)
        want = [solve_flow(profile, machine, a) for a in (alloc, base)]
        perf.clear_caches()
        tel = obs.enable(fresh=True)
        before = self._work(tel)
        pred = predict(profile, machine, alloc)
        # Two solves and two cells, no batch timing, two per-cell ones.
        assert [b - a for a, b in zip(before, self._work(tel))] \
            == [2, 2, 0, 2]
        assert pred.total_cycles == want[0].total_cycles
        assert pred.baseline_cycles == want[1].total_cycles
        # Both cells are in the flow cache, with the same bits.
        hits = perf.flow_cache.hits
        again = [solve_flow(profile, machine, a) for a in (alloc, base)]
        assert perf.flow_cache.hits == hits + 2
        assert self._work(tel)[0] == before[0] + 2
        assert [repr(dataclasses.asdict(r)) for r in again] \
            == [repr(dataclasses.asdict(r)) for r in want]

    def test_one_core_predict_solves_once(self):
        # At n_active = 1 the cell is its own baseline: the second call
        # is answered from the cache.
        machine = MACHINES["intel_uma"]
        tel = obs.enable(fresh=True)
        before = self._work(tel)
        pred = predict(make_profile(), machine,
                       CoreAllocation.paper_policy(machine, 1))
        assert [b - a for a, b in zip(before, self._work(tel))] \
            == [1, 2, 0, 2]
        assert pred.total_cycles == pred.baseline_cycles


class TestSweepIdentity:
    @given(profiles(), st.sampled_from(sorted(MACHINES)),
           st.lists(st.integers(1, 48), min_size=1, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_sweep_matches_per_cell_predict(self, profile, mkey, ns):
        machine = MACHINES[mkey]
        ns = [1 + (n - 1) % machine.n_cores for n in ns]
        allocs = [CoreAllocation.paper_policy(machine, n) for n in ns]
        batch = predict_sweep(profile, machine, allocs)
        perf.clear_caches()
        scalar = [predict(profile, machine, a) for a in allocs]
        assert [dataclasses.asdict(p) for p in batch] \
            == [dataclasses.asdict(p) for p in scalar]

    def test_empty_sweep(self):
        assert predict_sweep(make_profile(), MACHINES["intel_uma"], []) == []

    def test_mixed_thread_counts_share_per_thread_baselines(self):
        machine = MACHINES["intel_uma"]
        profile = make_profile()
        allocs = [CoreAllocation(machine=machine, n_active=4, n_threads=4),
                  CoreAllocation(machine=machine, n_active=4, n_threads=8)]
        four, eight = predict_sweep(profile, machine, allocs)
        # Each prediction's baseline is the one-core solve at its own
        # thread count — bit-identical to solving that cell directly.
        for got, threads in ((four, 4), (eight, 8)):
            want = solve_flow(profile, machine,
                              CoreAllocation(machine=machine, n_active=1,
                                             n_threads=threads))
            assert got.baseline_cycles == want.total_cycles


class TestRecommend:
    def test_best_minimizes_makespan(self):
        machine = MACHINES["intel_uma"]
        rec = recommend_workload("CG", "C", machine)
        makespans = [c.makespan_cycles for c in rec.candidates]
        assert rec.best.makespan_cycles == min(makespans)
        assert makespans == sorted(makespans)
        assert rec.slowdowns[0] == 1.0
        assert all(s >= 1.0 for s in rec.slowdowns)
        assert len(rec.candidates) == machine.n_cores

    def test_candidates_match_the_kernel(self):
        machine = MACHINES["intel_uma"]
        rec = recommend_workload("FT", "C", machine,
                                 core_counts=[1, 2, 4, 8])
        for cand in rec.candidates:
            want = predict_workload("FT", "C", machine, cand.n_active)
            assert dataclasses.asdict(cand) == dataclasses.asdict(want)

    def test_duplicate_counts_deduplicated(self):
        machine = MACHINES["intel_uma"]
        rec = recommend(make_profile(), machine,
                        core_counts=[4, 2, 4, 2, 4])
        assert sorted(c.n_active for c in rec.candidates) == [2, 4]

    def test_ties_prefer_fewer_cores(self):
        # Ranking is (makespan, n_active): equal makespans cannot rank
        # a larger allocation ahead of a smaller one.
        machine = MACHINES["intel_uma"]
        rec = recommend(make_profile(), machine)
        for earlier, later in zip(rec.candidates, rec.candidates[1:]):
            assert (earlier.makespan_cycles, earlier.n_active) \
                <= (later.makespan_cycles, later.n_active)

    def test_rejects_bad_core_counts(self):
        machine = MACHINES["intel_uma"]
        with pytest.raises(ValidationError):
            recommend(make_profile(), machine, core_counts=[])
        with pytest.raises(ValidationError):
            recommend(make_profile(), machine, core_counts=[0])
        with pytest.raises(ValidationError):
            recommend(make_profile(), machine,
                      core_counts=[machine.n_cores + 1])


class TestSurface:
    def test_rejects_out_of_range_allocation(self):
        machine = MACHINES["intel_uma"]
        with pytest.raises(ValidationError):
            predict_workload("CG", "C", machine, 0)
        with pytest.raises(ValidationError):
            predict_workload("CG", "C", machine, machine.n_cores + 1)

    def test_to_dict_is_json_serializable(self):
        machine = MACHINES["intel_uma"]
        pred = predict_workload("CG", "C", machine, 4)
        round_tripped = json.loads(json.dumps(pred.to_dict()))
        assert round_tripped["n_active"] == 4
        assert round_tripped["program"] == "CG"
        rec = recommend_workload("CG", "C", machine, core_counts=[1, 4])
        payload = json.loads(json.dumps(rec.to_dict()))
        assert payload["candidates"][0]["slowdown"] == 1.0

    def test_omega_baseline_is_one_at_n1(self):
        machine = MACHINES["intel_numa"]
        pred = predict_workload("IS", "C", machine, 1)
        assert pred.omega == 0.0
        assert pred.total_cycles == pred.baseline_cycles
