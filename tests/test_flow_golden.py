"""Frozen golden values of the flow solver.

Each case stores ``float.hex`` of every float of every
:class:`FlowResult`, each cell's ``solver_stage``, the rendered
degradation events in order, and the work counters that do not depend
on the entry.  From cleared caches and a fresh telemetry session, both
``solve_flow`` once per cell and one pooled ``solve_flow_cells`` call
must reproduce the file.  Regenerate it only for an intended change to
the model's numbers: ``PYTHONPATH=src python tests/test_flow_golden.py
--write``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro import obs, perf
from repro.machine import CoreAllocation, amd_numa, intel_numa, intel_uma
from repro.obs import names as _names
from repro.resilience import ConvergencePolicy, faultinject
from repro.resilience.degrade import clear_events, drain_events
from repro.runtime.calibration import calibrate_profile
from repro.runtime.flow import solve_flow, solve_flow_cells
from test_flow_properties import make_profile

GOLDEN = Path(__file__).parent / "data" / "flow_golden.json"

#: ``qnet.mva.exact.batches`` is left out: pooling changes how many
#: fused recursions the same rows take, not how many rows are solved.
COUNTERS = (_names.RUNTIME_FLOW_SOLVES, _names.RUNTIME_FLOW_NONCONVERGED,
            _names.QNET_MVA_EXACT_CALLS, _names.QNET_MVA_EXACT_ITERATIONS,
            _names.QNET_MVA_SCHWEITZER_CALLS)

EASY = make_profile(misses=1e6)
HARD = make_profile(misses=5e9, mlp=16.0, scv=30.0)


def _cells(profile, machine, counts):
    return [(profile, machine, CoreAllocation.paper_policy(machine, n))
            for n in counts]


def _clean_grid():
    return [cell for machine in (intel_uma(), intel_numa(), amd_numa())
            for program in ("CG", "EP")
            for cell in _cells(calibrate_profile(program, "C", machine),
                               machine, (1, machine.n_cores // 2,
                                         machine.n_cores))]


def _mixed_pool():
    numa = intel_numa()
    return (_cells(EASY, numa, (2,)) + _cells(HARD, numa, (24,))
            + _cells(EASY, numa, (12,)))


#: Case name -> (cell builder, policy, fault plan).  At 40 iterations
#: every mixed-pool cell converges exactly; at 8 the hard cell falls to
#: the bounds rung while its easy pool-mates converge.
CASES = {
    "clean-grid": (_clean_grid, None, None),
    "starved-budget": (lambda: _cells(HARD, intel_numa(), (1, 6, 12, 24)),
                       ConvergencePolicy(max_iterations=3), None),
    "mixed-pool": (_mixed_pool, ConvergencePolicy(max_iterations=40), None),
    "mixed-pool-degrading": (_mixed_pool,
                             ConvergencePolicy(max_iterations=8), None),
    "fault-plan": (lambda: _cells(make_profile(), intel_uma(), (1, 4, 8)),
                   None, {"runtime.flow": 2}),
    "schweitzer-first": (lambda: _cells(make_profile(), intel_numa(), (2, 12)),
                         ConvergencePolicy(ladder=("schweitzer", "bounds")),
                         None),
    "duplicate": (lambda: _cells(make_profile(), intel_numa(), (12, 5, 12)),
                  None, None),
}


def _hexed(value):
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def run_case(name: str, entry: str) -> dict:
    """Solve one case through one entry from cold caches."""
    build, policy, plan = CASES[name]
    cells = build()        # calibration runs before the counted session
    perf.clear_caches()
    clear_events()
    tel = obs.enable(fresh=True)
    try:
        with faultinject.inject(nonconverge=plan):   # None: inert plan
            if entry == "solve_flow":
                results = [solve_flow(p, m, a, policy) for p, m, a in cells]
            else:
                results = solve_flow_cells(cells, policy)
        snap = tel.metrics.snapshot()
    finally:
        obs.disable()
        perf.clear_caches()
    return {
        "results": [_hexed(dataclasses.asdict(r)) for r in results],
        "events": [e.render() for e in drain_events()],
        "counters": {k: snap.get(k, {}).get("value", 0) for k in COUNTERS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ["solve_flow", "solve_flow_cells"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_entry_matches_golden(golden, name, entry):
    assert run_case(name, entry) == golden[name]


def test_cases_exercise_the_ladder(golden):
    stages = {name: {r["solver_stage"] for r in case["results"]}
              for name, case in golden.items()}
    assert stages == {
        "clean-grid": {"exact"}, "starved-budget": {"bounds"},
        "mixed-pool": {"exact"}, "mixed-pool-degrading": {"exact", "bounds"},
        "fault-plan": {"schweitzer"}, "schweitzer-first": {"schweitzer"},
        "duplicate": {"exact"}}
    for name in ("starved-budget", "mixed-pool-degrading", "fault-plan"):
        assert golden[name]["events"], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    cases = {name: run_case(name, "solve_flow") for name in sorted(CASES)}
    # One line per case: the file is compared by the test, not read.
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(case, sort_keys=True)}"
        for name, case in cases.items()) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
