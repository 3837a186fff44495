"""Tests of the lock-step flow driver.

The load-bearing property is *bit-identity*: pooling flow cells through
:func:`repro.runtime.flow.solve_flow_cells` must produce the exact same
floats as one :func:`solve_flow` call per cell — same fixed-point
trajectory, same MVA recursions, same degradation ladder — because
pooling is a wall-time optimisation, never a second solver.  These
tests pin that down for clean, degraded, duplicate and fault-injected
cells and the cache interplay; tests/test_flow_golden.py freezes values.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs, perf
from repro.machine import CoreAllocation, amd_numa, intel_numa, intel_uma
from repro.obs import names as _names
from repro.resilience import ConvergencePolicy, faultinject
from repro.runtime.flow import solve_flow, solve_flow_cells
from test_flow_golden import _hexed
from test_flow_properties import make_profile, profiles

MACHINES = {"uma": intel_uma(), "numa": intel_numa(), "amd": amd_numa()}


@pytest.fixture(autouse=True)
def _cache_isolation():
    """Leave the process-global caches enabled and empty around each test."""
    was_enabled = perf.caches_enabled()
    perf.clear_caches()
    yield
    perf.set_enabled(was_enabled)
    perf.clear_caches()
    obs.disable()


def assert_identical(batch, scalar):
    """Exact per-field equality (floats compared with ==, not approx)."""
    assert len(batch) == len(scalar)
    for got, want in zip(batch, scalar):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def allocs_for(machine, counts):
    return [CoreAllocation.paper_policy(machine, n) for n in counts]


def cells_for(profile, machine, allocs):
    return [(profile, machine, a) for a in allocs]


class TestBitIdentity:
    @given(profiles(), st.sampled_from(["uma", "numa", "amd"]),
           st.lists(st.integers(1, 48), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_scalar_uncached(self, profile, mkey, ns):
        machine = MACHINES[mkey]
        ns = [1 + (n - 1) % machine.n_cores for n in ns]
        perf.set_enabled(False)
        allocs = allocs_for(machine, ns)
        batch = solve_flow_cells(cells_for(profile, machine, allocs))
        scalar = [solve_flow(profile, machine, a) for a in allocs]
        assert_identical(batch, scalar)

    def test_mixed_machine_pool(self):
        perf.set_enabled(False)
        cells = []
        for machine in MACHINES.values():
            p = make_profile(misses=3e8, scv=4.0)
            for n in (1, machine.n_cores // 2, machine.n_cores):
                cells.append((p, machine,
                              CoreAllocation.paper_policy(machine, n)))
        batch = solve_flow_cells(cells)
        scalar = [solve_flow(p, m, a) for p, m, a in cells]
        assert_identical(batch, scalar)

    @given(st.tuples(*(st.lists(st.tuples(profiles(),
                                          st.integers(1, m.n_cores)),
                                min_size=1, max_size=3)
                       for m in MACHINES.values())),
           st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_mixed_machine_pool_matches_single_solves(self, draws, rnd):
        # The pool pads cells of 1-4 processors and rows of every width
        # into one set of arrays: padding must never reach another
        # cell's sums.  Every preset is in every pool, in shuffled order.
        cells = [(profile, machine, CoreAllocation.paper_policy(machine, n))
                 for machine, picks in zip(MACHINES.values(), draws)
                 for profile, n in picks]
        rnd.shuffle(cells)
        pooled = solve_flow_cells(cells)
        single = []
        for cell in cells:
            perf.clear_caches()
            single.append(solve_flow(*cell))
        assert [_hexed(dataclasses.asdict(r)) for r in pooled] \
            == [_hexed(dataclasses.asdict(r)) for r in single]

    @pytest.mark.parametrize("cached", [True, False])
    def test_duplicate_cells_in_one_batch(self, cached):
        # Followers of an identical cell must see the same bits as the
        # leader, whether the flow cache resolves them or a re-solve does.
        perf.set_enabled(cached)
        machine = MACHINES["numa"]
        p = make_profile()
        alloc = CoreAllocation.paper_policy(machine, 12)
        other = CoreAllocation.paper_policy(machine, 5)
        batch = solve_flow_cells(
            [(p, machine, alloc), (p, machine, other), (p, machine, alloc)])
        assert dataclasses.asdict(batch[0]) == dataclasses.asdict(batch[2])
        perf.clear_caches()
        scalar = [solve_flow(p, machine, a) for a in (alloc, other, alloc)]
        assert_identical(batch, scalar)

    def test_empty_batch(self):
        assert solve_flow_cells([]) == []


class TestDegradedCells:
    def test_ladder_degraded_cells_match_scalar(self):
        # A starved iteration budget forces cells down the degradation
        # ladder; the pooled call must reproduce each cell's ladder walk
        # bit for bit (cache off: custom policy).
        policy = ConvergencePolicy(max_iterations=3)
        machine = MACHINES["numa"]
        p = make_profile(misses=5e9, mlp=16.0, scv=30.0)
        allocs = allocs_for(machine, [1, 6, 12, 24])
        batch = solve_flow_cells(cells_for(p, machine, allocs), policy=policy)
        scalar = [solve_flow(p, machine, a, policy=policy) for a in allocs]
        assert_identical(batch, scalar)
        assert any(r.solver_stage != "exact" for r in batch), \
            "test profile no longer stresses the ladder"

    def test_mixed_converged_and_degraded_pool(self):
        # Cells that converge within budget finalize in lock-step while
        # their starved pool-mate walks the rest of the ladder alone.
        # (At 40 iterations the hard cell converges too; 8 starves it.)
        policy = ConvergencePolicy(max_iterations=8)
        machine = MACHINES["numa"]
        easy = make_profile(misses=1e6)
        hard = make_profile(misses=5e9, mlp=16.0, scv=30.0)
        cells = [(easy, machine, CoreAllocation.paper_policy(machine, 2)),
                 (hard, machine, CoreAllocation.paper_policy(machine, 24)),
                 (easy, machine, CoreAllocation.paper_policy(machine, 12))]
        batch = solve_flow_cells(cells, policy=policy)
        scalar = [solve_flow(p, m, a, policy=policy) for p, m, a in cells]
        assert_identical(batch, scalar)
        stages = {r.solver_stage for r in batch}
        assert "exact" in stages and len(stages) > 1, \
            "test profile no longer mixes converged and degraded cells"

    def test_degradation_counters_match_scalar(self):
        policy = ConvergencePolicy(max_iterations=3)
        machine = MACHINES["numa"]
        p = make_profile(misses=5e9, mlp=16.0, scv=30.0)
        allocs = allocs_for(machine, [12, 24])

        def counters(run):
            perf.clear_caches()
            tel = obs.enable(fresh=True)
            run()
            snap = tel.metrics.snapshot()
            obs.disable()
            return {k: v.get("value", 0.0)
                    for k, v in snap.items()
                    if k in (_names.RUNTIME_FLOW_SOLVES,
                             _names.RUNTIME_FLOW_NONCONVERGED,
                             _names.QNET_MVA_EXACT_CALLS,
                             _names.QNET_MVA_SCHWEITZER_CALLS,
                             _names.PERF_BATCH_FALLBACKS)}

        got = counters(
            lambda: solve_flow_cells(cells_for(p, machine, allocs),
                                     policy=policy))
        want = counters(
            lambda: [solve_flow(p, machine, a, policy=policy)
                     for a in allocs])
        # A cell's ladder walk and its counters do not depend on its
        # pool-mates, so work counters agree exactly.
        assert got == want
        assert got[_names.PERF_BATCH_FALLBACKS] == len(allocs)


class TestRoutedCases:
    def test_fault_injection_routes_to_scalar(self):
        # Injection plans depend only on the attempt index, so a plan
        # fails the same attempts of every cell whichever entry ran it.
        machine = MACHINES["uma"]
        p = make_profile()
        allocs = allocs_for(machine, [1, 4, 8])
        with faultinject.inject(nonconverge={"runtime.flow": 2}):
            batch = solve_flow_cells(cells_for(p, machine, allocs))
        with faultinject.inject(nonconverge={"runtime.flow": 2}):
            scalar = [solve_flow(p, machine, a) for a in allocs]
        assert_identical(batch, scalar)
        # The plan fails each cell's first two (exact) attempts, so
        # every cell walks the ladder down to Schweitzer — in both paths.
        assert all(r.solver_stage == "schweitzer" for r in batch)

    def test_non_exact_first_rung_steps_cells_alone(self):
        # Schweitzer couples its residual across rows; a ladder that
        # starts there steps its cells one at a time, never pooled.
        policy = ConvergencePolicy(ladder=("schweitzer", "bounds"))
        machine = MACHINES["numa"]
        p = make_profile()
        allocs = allocs_for(machine, [2, 12])
        batch = solve_flow_cells(cells_for(p, machine, allocs), policy=policy)
        scalar = [solve_flow(p, machine, a, policy=policy) for a in allocs]
        assert_identical(batch, scalar)
        assert all(r.solver_stage == "schweitzer" for r in batch)


class TestCacheInterplay:
    def test_batch_backfills_the_flow_cache(self):
        machine = MACHINES["numa"]
        p = make_profile()
        allocs = allocs_for(machine, [1, 6, 12])
        tel = obs.enable(fresh=True)
        batch = solve_flow_cells(cells_for(p, machine, allocs))
        solves_after_batch = \
            tel.metrics.snapshot()[_names.RUNTIME_FLOW_SOLVES]["value"]
        later = [solve_flow(p, machine, a) for a in allocs]
        snap = tel.metrics.snapshot()
        obs.disable()
        assert_identical(batch, later)
        assert solves_after_batch == len(allocs)
        # The per-point calls were all memo hits: no further solves.
        assert snap[_names.RUNTIME_FLOW_SOLVES]["value"] == solves_after_batch
        # Every cell enters the one driver, hits included.
        assert snap[_names.PERF_BATCH_CELLS]["value"] == 2 * len(allocs)

    def test_batch_consults_the_cache_first(self):
        machine = MACHINES["numa"]
        p = make_profile()
        warm = CoreAllocation.paper_policy(machine, 6)
        pre = solve_flow(p, machine, warm)
        tel = obs.enable(fresh=True)
        batch = solve_flow_cells([
            (p, machine, warm),
            (p, machine, CoreAllocation.paper_policy(machine, 12))])
        snap = tel.metrics.snapshot()
        obs.disable()
        assert dataclasses.asdict(batch[0]) == dataclasses.asdict(pre)
        # Only the cold cell solved; the warm one was a cache hit.
        assert snap[_names.RUNTIME_FLOW_SOLVES]["value"] == 1

    def test_batch_results_do_not_share_mutable_state(self):
        machine = MACHINES["uma"]
        p = make_profile()
        alloc = CoreAllocation.paper_policy(machine, 4)
        first = solve_flow_cells([(p, machine, alloc)])[0]
        second = solve_flow(p, machine, alloc)
        assert first.controller_utilisation \
            == second.controller_utilisation
        assert first.controller_utilisation \
            is not second.controller_utilisation

