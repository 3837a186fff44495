"""Tests of the degradation event log and the flow solver's exact→AMVA→bounds
ladder."""

import pytest

from repro import obs
from repro.machine import CoreAllocation
from repro.obs import names
from repro.resilience import (
    DegradationEvent,
    clear_events,
    drain_events,
    faultinject,
    peek_events,
    record_event,
)
from repro.runtime.flow import solve_flow
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _clean_event_log():
    clear_events()
    yield
    clear_events()


class TestEventLog:
    def test_record_drain_clears(self):
        record_event(DegradationEvent("s", "retry", "exact", "exact", "d"))
        assert len(peek_events()) == 1
        drained = drain_events()
        assert len(drained) == 1
        assert drain_events() == []

    def test_render_wording(self):
        retry = DegradationEvent("runtime.flow", "retry", "exact", "exact",
                                 "escalating damping")
        degrade = DegradationEvent("runtime.flow", "degrade", "exact",
                                   "schweitzer", "no convergence")
        gave_up = DegradationEvent("runtime.flow", "gave_up", "bounds",
                                   "bounds", "accepted last iterate")
        assert "retried exact -> exact" in retry.render()
        assert "degraded exact -> schweitzer" in degrade.render()
        assert "non-converged bounds iterate" in gave_up.render()
        for event in (retry, degrade, gave_up):
            assert event.render().startswith("resilience: runtime.flow")

    def test_events_mirrored_to_counters(self):
        tel = obs.enable(fresh=True)
        try:
            record_event(DegradationEvent("s", "retry", "exact", "exact", "d"))
            record_event(DegradationEvent("s", "degrade", "exact",
                                          "schweitzer", "d"))
            snap = tel.metrics.snapshot()
            keys = "\n".join(snap)
            assert names.RESILIENCE_RETRIES in keys
            assert names.RESILIENCE_DEGRADATIONS in keys
        finally:
            obs.disable()


class TestFlowDegradation:
    """The acceptance scenario: forced flow non-convergence degrades
    exact -> Schweitzer -> bounds, visible in metrics and result."""

    SITE = "runtime.flow"

    def _solve(self, machine, n=8):
        profile = get_workload("CG").profile("C", machine)
        alloc = CoreAllocation.paper_policy(machine, n)
        return solve_flow(profile, machine, alloc)

    def test_clean_solve_reports_exact(self, uma):
        result = self._solve(uma)
        assert result.solver_stage == "exact"
        assert peek_events() == []

    def test_one_fault_retries_with_heavier_damping(self, uma):
        with faultinject.inject(nonconverge={self.SITE: 1}):
            result = self._solve(uma)
        assert result.solver_stage == "exact"
        events = drain_events()
        assert [e.action for e in events] == ["retry"]

    def test_two_faults_degrade_to_schweitzer(self, uma):
        clean = self._solve(uma)
        with faultinject.inject(nonconverge={self.SITE: 2}):
            result = self._solve(uma)
        assert result.solver_stage == "schweitzer"
        assert [e.action for e in drain_events()] == ["retry", "degrade"]
        # The approximation stays close to the exact answer.
        assert result.total_cycles == pytest.approx(
            clean.total_cycles, rel=0.05)

    def test_three_faults_degrade_to_bounds(self, uma):
        clean = self._solve(uma)
        with faultinject.inject(nonconverge={self.SITE: 3}):
            result = self._solve(uma)
        assert result.solver_stage == "bounds"
        actions = [e.action for e in drain_events()]
        assert actions == ["retry", "degrade", "degrade"]
        assert result.total_cycles == pytest.approx(
            clean.total_cycles, rel=0.10)

    def test_degradations_counted_in_telemetry(self, uma):
        tel = obs.enable(fresh=True)
        try:
            with faultinject.inject(nonconverge={self.SITE: 3}):
                self._solve(uma)
            snap = tel.metrics.snapshot()
            keys = "\n".join(snap)
            assert names.RUNTIME_FLOW_NONCONVERGED in keys
            assert names.RESILIENCE_DEGRADATIONS in keys
        finally:
            obs.disable()
        clear_events()

    def test_degraded_results_never_cached(self, uma):
        clean_before = self._solve(uma)
        with faultinject.inject(nonconverge={self.SITE: 3}):
            degraded = self._solve(uma)
        clear_events()
        clean_after = self._solve(uma)
        assert degraded.solver_stage == "bounds"
        assert clean_after.solver_stage == "exact"
        assert clean_after.total_cycles == clean_before.total_cycles
