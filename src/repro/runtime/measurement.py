"""The experiment-facing measurement API.

:class:`MeasurementRun` reproduces the paper's experimental procedure: fix
the thread count at the machine's core count, sweep the number of active
cores under fill-processor-first affinity, run each configuration five
times, and report averaged counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.counters.papi import CounterSample
from repro.machine.allocation import CoreAllocation
from repro.machine.topology import Machine
from repro.obs import names as _names
from repro.perf.cache import caches_enabled
from repro.runtime.calibration import calibrate_profile
from repro.runtime.flow import solve_flow, solve_flow_cells
from repro.runtime.noise import NoiseModel
from repro.util.rng import resolve_rng, spawn_rng
from repro.util.validation import check_integer
from repro.workloads.base import MemoryProfile


def _average_samples(samples: list[CounterSample]) -> CounterSample:
    """Arithmetic mean of repeated counter observations (paper: 5 runs)."""
    return CounterSample(
        total_cycles=float(np.mean([s.total_cycles for s in samples])),
        instructions=float(np.mean([s.instructions for s in samples])),
        stall_cycles=float(np.mean([s.stall_cycles for s in samples])),
        llc_misses=float(np.mean([s.llc_misses for s in samples])),
    )


@dataclass
class MeasurementRun:
    """A profiled sweep of one (program, class) over active core counts.

    Parameters
    ----------
    program, size:
        Table I program name and problem class.
    machine:
        The machine model to run on.
    repetitions:
        Runs to average per configuration (paper: 5).
    noise:
        The measurement-noise model; pass
        :data:`repro.runtime.noise.NOISELESS` for deterministic output.
    rng:
        Seed or generator; child streams are spawned per configuration so
        results for one core count are independent of which others ran.
    """

    program: str
    size: str
    machine: Machine
    repetitions: int = 5
    noise: NoiseModel = field(default_factory=NoiseModel)
    rng: object = None

    def __post_init__(self) -> None:
        check_integer("repetitions", self.repetitions, minimum=1)
        self._profile: MemoryProfile = calibrate_profile(
            self.program, self.size, self.machine)
        self._rng = resolve_rng(self.rng)  # type: ignore[arg-type]
        self._streams = spawn_rng(self._rng, self.machine.n_cores)

    @property
    def profile(self) -> MemoryProfile:
        """The calibrated profile driving the run."""
        return self._profile

    def measure(self, n_active: int) -> CounterSample:
        """Averaged counters for one active-core count."""
        check_integer("n_active", n_active, minimum=1,
                      maximum=self.machine.n_cores)
        with obs.span("measure.point", program=self.program, size=self.size,
                      machine=self.machine.name, n=n_active):
            alloc = CoreAllocation.paper_policy(self.machine, n_active)
            flow = solve_flow(self._profile, self.machine, alloc)
            stream = self._streams[n_active - 1]
            samples = [
                self.noise.sample(flow, self._profile, alloc, rng=stream)
                for _ in range(self.repetitions)
            ]
            obs.counter(_names.RUNTIME_MEASUREMENTS)
            return _average_samples(samples)

    def prime(self, core_counts: list[int] | None = None) -> None:
        """Batch-solve the flow cells of an upcoming sweep (default: all).

        One :func:`repro.runtime.flow.solve_flow_cells` call runs every
        (profile, machine, allocation) cell of the sweep in lock-step
        and back-fills the flow cache, so the per-point :meth:`measure`
        calls that follow are memo hits.  Results are bit-identical to
        solving per point — both run the same flow driver — so this is
        purely a wall-time optimisation.  A no-op when the perf caches
        are off (:func:`repro.perf.set_enabled`): the per-point calls
        then solve one cell each, bit-identically.
        """
        prime_runs([(self, core_counts)])

    def sweep(self, core_counts: list[int] | None = None
              ) -> dict[int, CounterSample]:
        """Measure a list of core counts (default: 1..max).

        The sweep's flow solves are batched through :meth:`prime`; the
        per-point noise sampling and averaging are unchanged.
        """
        if core_counts is None:
            core_counts = list(range(1, self.machine.n_cores + 1))
        self.prime(core_counts)
        return {n: self.measure(n) for n in core_counts}

    def omega(self, n_active: int, baseline: CounterSample | None = None
              ) -> float:
        """Measured degree of contention at ``n_active`` (paper eq. 4)."""
        base = baseline if baseline is not None else self.measure(1)
        return (self.measure(n_active).total_cycles - base.total_cycles) \
            / base.total_cycles

    def omega_curve(self, core_counts: list[int] | None = None
                    ) -> dict[int, float]:
        """Measured omega(n) over a sweep, sharing one baseline."""
        base = self.measure(1)
        if core_counts is None:
            core_counts = list(range(1, self.machine.n_cores + 1))
        return {
            n: (self.measure(n).total_cycles - base.total_cycles)
            / base.total_cycles
            for n in core_counts
        }


def prime_runs(
        runs: list[tuple[MeasurementRun, list[int] | None]]) -> None:
    """Batch-solve the flow cells of several runs' sweeps in one call.

    The whole-grid form of :meth:`MeasurementRun.prime`: cells from
    different machines and workloads are pooled into a single lock-step
    batch (``table2`` primes its full machine x program x size grid at
    once).  Entries pair a run with the core counts it is about to
    measure (``None`` = 1..max).  No-op unless the perf cache is
    enabled — the batch back-fills the cache, which is what the later
    ``measure`` calls consult; without it, priming would solve every
    cell twice.
    """
    if not caches_enabled():
        return
    cells = []
    for run, core_counts in runs:
        if core_counts is None:
            core_counts = list(range(1, run.machine.n_cores + 1))
        for n in core_counts:
            cells.append((run.profile, run.machine,
                          CoreAllocation.paper_policy(run.machine, n)))
    if cells:
        solve_flow_cells(cells)


def measure_single(program: str, size: str, machine: Machine, n_active: int,
                   repetitions: int = 5, rng=None) -> CounterSample:
    """One-shot convenience wrapper around :class:`MeasurementRun`."""
    run = MeasurementRun(program=program, size=size, machine=machine,
                         repetitions=repetitions, rng=rng)
    return run.measure(n_active)


def measure_curve(program: str, size: str, machine: Machine,
                  core_counts: list[int] | None = None,
                  repetitions: int = 5, rng=None
                  ) -> dict[int, CounterSample]:
    """Counter sweep over active core counts (paper Fig. 3 data)."""
    run = MeasurementRun(program=program, size=size, machine=machine,
                         repetitions=repetitions, rng=rng)
    return run.sweep(core_counts)
