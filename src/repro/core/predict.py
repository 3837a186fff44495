"""The pure contention-prediction kernel behind ``repro serve``.

One prediction is a pure function of a (machine, memory profile, core
allocation) triple: solve the closed queueing network of
:func:`repro.runtime.flow.solve_flow` at the requested allocation and at
the one-core baseline, and report the paper's outputs — the cycle count
``C(n)``, the degree of memory contention ``omega(n) = (C(n) - C(1)) /
C(1)`` (Definition 1), the per-station utilisations and the wall-clock
makespan.

This module deliberately constructs **no** experiment driver, RNG
stream, noise model or measurement sweep: it is the factored-out kernel
the drivers themselves run.  ``predict_workload("CG", "C", machine, n)``
is bit-identical to what :class:`repro.runtime.measurement.MeasurementRun`
computes for the same cell, because both call the same
:func:`calibrate_profile` and the same memoized :func:`solve_flow` —
which is what makes a long-running service and the batch drivers
interchangeable witnesses of the model.

Every solve consults the content-addressed cache in :mod:`repro.perf`,
so once warm a served prediction is a memoized profile plus one flow-cache
hit per cell; the batch entry point :func:`predict_sweep` pools cold cells
through the lock-step kernel exactly like the sweep drivers do.
:func:`flow_cells` names the cells a prediction solves, so a caller can
ask the cache whether an answer needs a solve at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.machine.allocation import CoreAllocation
from repro.machine.topology import Machine
from repro.runtime.calibration import calibrate_profile
from repro.runtime.flow import FlowResult, solve_flow, solve_flow_cells
from repro.util.validation import ValidationError, check_integer
from repro.workloads.base import MemoryProfile


@dataclass(frozen=True)
class Prediction:
    """One solved (machine, profile, allocation) cell, service-shaped.

    ``omega`` follows the paper's Definition 1 against the one-core
    baseline of the *same* thread count; ``utilisations`` are the
    converged per-station (controller-group) busy fractions; the
    ``solver_stage`` records which rung of the resilience ladder
    produced the numbers (``"exact"`` unless the solve degraded).
    """

    machine: str
    n_active: int
    n_threads: int
    total_cycles: float        # C(n)
    baseline_cycles: float     # C(1)
    omega: float               # (C(n) - C(1)) / C(1)
    makespan_cycles: float
    work_cycles: float
    base_stall_cycles: float
    memory_stall_cycles: float
    llc_misses: float
    utilisations: dict[str, float]
    solver_stage: str
    program: str | None = None
    size: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready form (the ``/predict`` response body)."""
        return {
            "machine": self.machine,
            "program": self.program,
            "size": self.size,
            "n_active": self.n_active,
            "n_threads": self.n_threads,
            "total_cycles": self.total_cycles,
            "baseline_cycles": self.baseline_cycles,
            "omega": self.omega,
            "makespan_cycles": self.makespan_cycles,
            "work_cycles": self.work_cycles,
            "base_stall_cycles": self.base_stall_cycles,
            "memory_stall_cycles": self.memory_stall_cycles,
            "llc_misses": self.llc_misses,
            "utilisations": dict(self.utilisations),
            "solver_stage": self.solver_stage,
        }


@dataclass(frozen=True)
class Recommendation:
    """Scored allocation candidates, minimum-slowdown placement first.

    ``candidates`` are in ranking order: ascending makespan (the
    wall-clock of the slowest processor's cores), ties broken toward
    fewer active cores — the cheapest placement that is not slower.
    ``slowdowns[i]`` is ``makespan_i / makespan_best``.
    """

    best: Prediction
    candidates: tuple[Prediction, ...]
    slowdowns: tuple[float, ...]

    def to_dict(self) -> dict:
        """JSON-ready form (the ``/recommend`` response body)."""
        return {
            "best": self.best.to_dict(),
            "candidates": [
                {**p.to_dict(), "slowdown": s}
                for p, s in zip(self.candidates, self.slowdowns)
            ],
        }


def _prediction(machine: Machine, alloc: CoreAllocation, flow: FlowResult,
                baseline: FlowResult, program: str | None,
                size: str | None) -> Prediction:
    base = baseline.total_cycles
    return Prediction(
        machine=machine.name,
        program=program,
        size=size,
        n_active=alloc.n_active,
        n_threads=alloc.n_threads,
        total_cycles=flow.total_cycles,
        baseline_cycles=base,
        omega=(flow.total_cycles - base) / base,
        makespan_cycles=flow.makespan_cycles,
        work_cycles=flow.work_cycles,
        base_stall_cycles=flow.base_stall_cycles,
        memory_stall_cycles=flow.memory_stall_cycles,
        llc_misses=flow.llc_misses,
        utilisations=dict(flow.controller_utilisation),
        solver_stage=flow.solver_stage,
    )


def flow_cells(profile: MemoryProfile, machine: Machine,
               allocations: list[CoreAllocation]
               ) -> list[tuple[MemoryProfile, Machine, CoreAllocation]]:
    """The flow cells a prediction over ``allocations`` solves.

    Each allocation, then one one-core baseline per distinct thread
    count (in order of first appearance) — the omega denominators.
    """
    baselines = {a.n_threads: CoreAllocation(machine=machine, n_active=1,
                                             n_threads=a.n_threads)
                 for a in allocations}
    return [(profile, machine, a)
            for a in (*allocations, *baselines.values())]


def workload_allocation(machine: Machine, n_active: int,
                        n_threads: int | None = None) -> CoreAllocation:
    """The allocation :func:`predict_workload` solves.

    ``n_threads`` defaults to the paper's policy (threads fixed at the
    machine's core count).
    """
    threads = machine.n_cores if n_threads is None else n_threads
    return CoreAllocation(machine=machine, n_active=n_active,
                          n_threads=threads)


def candidate_allocations(machine: Machine,
                          core_counts: list[int] | None = None,
                          n_threads: int | None = None
                          ) -> list[CoreAllocation]:
    """The allocations :func:`recommend` scores, validated and deduplicated.

    ``core_counts`` defaults to every count ``1..n_cores``; repeats keep
    their first position.
    """
    threads = machine.n_cores if n_threads is None else n_threads
    if core_counts is None:
        core_counts = list(range(1, machine.n_cores + 1))
    if not core_counts:
        raise ValidationError("recommend needs at least one candidate "
                              "core count")
    counts: dict[int, None] = {}
    for n in core_counts:
        check_integer("core count", n, minimum=1, maximum=machine.n_cores)
        counts.setdefault(n)
    return [CoreAllocation(machine=machine, n_active=n, n_threads=threads)
            for n in counts]


def predict(profile: MemoryProfile, machine: Machine,
            alloc: CoreAllocation, *, program: str | None = None,
            size: str | None = None) -> Prediction:
    """Predict one cell: ``C(n)``, ``omega(n)`` and station utilisations.

    Two memoized flow solves (the cell and its one-core baseline); both
    are bit-identical to the driver path because they *are* the driver
    path's solver, called without the driver.  The ``flow.solve`` span
    nests under whatever the caller has open — for a served request,
    the ``serve.request`` span carrying the ``request_id``.
    """
    with obs.span("flow.solve", machine=machine.name,
                  n_active=alloc.n_active, n_threads=alloc.n_threads):
        flow, baseline = [solve_flow(*cell)
                          for cell in flow_cells(profile, machine, [alloc])]
    return _prediction(machine, alloc, flow, baseline, program, size)


def predict_workload(program: str, size: str, machine: Machine,
                     n_active: int, n_threads: int | None = None
                     ) -> Prediction:
    """Predict a named Table I workload at one allocation.

    The allocation is :func:`workload_allocation`'s; the calibrated
    profile comes from the same :func:`calibrate_profile` the
    measurement substrate uses.
    """
    check_integer("n_active", n_active, minimum=1,
                  maximum=machine.n_cores)
    profile = calibrate_profile(program, size, machine)
    alloc = workload_allocation(machine, n_active, n_threads)
    return predict(profile, machine, alloc, program=program, size=size)


def predict_sweep(profile: MemoryProfile, machine: Machine,
                  allocations: list[CoreAllocation], *,
                  program: str | None = None, size: str | None = None
                  ) -> list[Prediction]:
    """Predict many allocations of one (profile, machine) in one batch.

    Cold cells — including the shared one-core baselines — are pooled
    through one :func:`solve_flow_cells` call, so an allocation
    enumeration costs one lock-step fixed point rather than
    ``2 * len(allocations)`` single-cell solves.  Results are
    bit-identical to per-cell :func:`predict` calls: both run the same
    flow driver.
    """
    if not allocations:
        return []
    cells = flow_cells(profile, machine, allocations)
    with obs.span("flow.solve_batch", machine=machine.name,
                  cells=len(cells)):
        solved = solve_flow_cells(cells)
    n = len(allocations)
    base_flows = {a.n_threads: flow
                  for (_, _, a), flow in zip(cells[n:], solved[n:])}
    return [
        _prediction(machine, alloc, flow, base_flows[alloc.n_threads],
                    program, size)
        for alloc, flow in zip(allocations, solved[:n])
    ]


def recommend(profile: MemoryProfile, machine: Machine,
              core_counts: list[int] | None = None, *,
              n_threads: int | None = None, program: str | None = None,
              size: str | None = None) -> Recommendation:
    """Enumerate allocations and return the minimum-slowdown placement.

    Candidates default to every active-core count ``1..n_cores`` under
    the paper's fill-processor-first affinity.  The score is the
    predicted makespan — the wall-clock of the slowest processor's
    cores — because the paper's setup pins a *fixed* amount of work
    (``n_threads`` threads) on however many cores are active: more
    cores spread the work but buy memory contention, and the knee of
    that trade-off is exactly what the service is asked to find.
    """
    allocations = candidate_allocations(machine, core_counts, n_threads)
    predictions = predict_sweep(profile, machine, allocations,
                                program=program, size=size)
    ranked = sorted(predictions,
                    key=lambda p: (p.makespan_cycles, p.n_active))
    best = ranked[0]
    slowdowns = tuple(p.makespan_cycles / best.makespan_cycles
                      for p in ranked)
    return Recommendation(best=best, candidates=tuple(ranked),
                          slowdowns=slowdowns)


def recommend_workload(program: str, size: str, machine: Machine,
                       core_counts: list[int] | None = None,
                       n_threads: int | None = None) -> Recommendation:
    """Allocation recommendation for a named, calibrated workload."""
    profile = calibrate_profile(program, size, machine)
    return recommend(profile, machine, core_counts, n_threads=n_threads,
                     program=program, size=size)


__all__ = [
    "Prediction",
    "Recommendation",
    "candidate_allocations",
    "flow_cells",
    "predict",
    "predict_workload",
    "predict_sweep",
    "recommend",
    "recommend_workload",
    "workload_allocation",
]
