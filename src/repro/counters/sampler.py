"""The paper's fine-grained burst sampler.

Section III-B: "Using a very fine grained sampler we have developed, we
measure the number of last-level cache misses that occur every five
microseconds."  This module reproduces that instrument against simulated
traffic: the calibrated workload profile determines the mean off-chip
request rate, its burst profile determines the ON/OFF structure, and
:meth:`~repro.desim.arrivals.ArrivalProcess.counts_in_windows` counts the
arrivals in each five-microsecond window.  It counts against exact window
edges, exactly as binning every arrival timestamp with ``floor_divide``
would; an ON/OFF burst that starts and ends inside one window is counted
there whole, without timestamps.

Per the paper, the sampler is near-non-intrusive (<3 % perturbation of the
miss count); we model it as exactly non-intrusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.desim.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    OnOffArrivals,
)
from repro.machine.allocation import CoreAllocation
from repro.machine.topology import Machine
from repro.obs import names as _names
from repro.util.rng import resolve_rng
from repro.util.validation import check_integer, check_positive
from repro.workloads.base import MemoryProfile

#: Paper's sampling window.
DEFAULT_WINDOW_US = 5.0


@dataclass(frozen=True)
class SampledTrace:
    """Windowed LLC-miss counts from one sampling run.

    ``counts[i]`` is the number of cache lines requested off-chip during
    window ``i``; windows are ``window_us`` microseconds long.
    """

    program: str
    size: str
    machine_name: str
    n_active: int
    window_us: float
    counts: np.ndarray

    @property
    def n_windows(self) -> int:
        return int(self.counts.size)

    @property
    def total_misses(self) -> int:
        return int(self.counts.sum())

    @property
    def mean_rate_per_us(self) -> float:
        """Average misses per microsecond over the trace."""
        return self.total_misses / (self.n_windows * self.window_us)


#: During a burst, lines drain at this fraction of the machine's peak
#: controller rate (a burst is a cache-refill episode running at memory
#: speed, not an arbitrary flood).
BURST_DRAIN_FRACTION = 0.80
#: Mean lines per burst for bursty traffic; the Pareto tail index of the
#: class stretches individual bursts far beyond this mean.
MEAN_BURST_LINES = 8.0


def arrival_process_for(profile: MemoryProfile, machine: Machine,
                        n_active: int) -> ArrivalProcess:
    """Build the machine-wide off-chip arrival process for a configuration.

    The mean rate comes from the flow solution (misses divided by
    makespan); the shape comes from the class's burst profile:

    * heavy-tailed classes — ON/OFF where a burst drains lines at a
      fraction of the controllers' peak rate for a Pareto-distributed
      duration (so burst *sizes* are Pareto: the straight log-log tail of
      the paper's Fig. 4 small problems);
    * smooth, near-saturated classes (duty cycle >= 0.85) — deterministic
      spacing, the saturated-controller limit (window counts concentrate
      at the mean: the cliff-shaped CCDF of the large problems);
    * everything between — exponential ON/OFF (interrupted Poisson).
    """
    from repro.runtime.flow import solve_flow  # local: avoids package cycle

    alloc = CoreAllocation.paper_policy(machine, n_active)
    flow = solve_flow(profile, machine, alloc)
    seconds = machine.frequency.seconds_for(flow.makespan_cycles)
    rate_per_s = flow.llc_misses / seconds
    burst = profile.burst
    peak_lines_per_s = machine.total_service_rate() * machine.frequency.hz
    if burst.duty_cycle >= 0.85 or rate_per_s >= 0.8 * peak_lines_per_s:
        return DeterministicArrivals(rate_per_s)
    # Burst drain rate: fast relative to the mean, bounded so the duty
    # cycle stays meaningful even for intense small problems.
    on_rate = max(BURST_DRAIN_FRACTION * peak_lines_per_s, 2.5 * rate_per_s)
    mean_on = MEAN_BURST_LINES / on_rate
    mean_off = mean_on * (on_rate / rate_per_s - 1.0)
    return OnOffArrivals(
        on_rate=on_rate,
        mean_on=mean_on,
        mean_off=mean_off,
        heavy_tailed=burst.heavy_tailed,
        alpha=burst.alpha,
    )


#: Mean duration of a program activity phase (the slow envelope), in
#: seconds.  Iterative kernels alternate compute-heavy and memory-heavy
#: phases at millisecond scale; heavy-tailed phase durations are what
#: give bursty programs their long-range dependence (Hurst > 0.5, per
#: the self-similar-traffic literature the paper cites).
PHASE_MEAN_S = 2e-3


def phase_envelope(n_windows: int, window_s: float, duty: float,
                   alpha: float, rng) -> np.ndarray:
    """0/1 activity envelope per window: Pareto ON phases, exp OFF.

    ``duty`` is the long-run ON fraction; ``alpha`` the Pareto tail index
    of phase durations (alpha < 2 yields long-range-dependent traffic).
    """
    check_positive("window_s", window_s)
    if not 0.0 < duty <= 1.0:
        raise ValueError(f"duty={duty} must be in (0, 1]")
    if duty >= 0.999:
        return np.ones(n_windows, dtype=bool)
    horizon = n_windows * window_s
    mean_on = PHASE_MEAN_S
    mean_off = mean_on * (1.0 - duty) / duty
    xm = mean_on * (alpha - 1.0) / alpha
    env = np.zeros(n_windows, dtype=bool)
    t = 0.0
    while t < horizon:
        on = float(xm * (1.0 + rng.pareto(alpha)))
        i0 = int(t / window_s)
        i1 = min(int((t + on) / window_s) + 1, n_windows)
        env[i0:i1] = True
        t += on + float(rng.exponential(mean_off))
    return env


class BurstSampler:
    """Five-microsecond LLC-miss sampling of simulated runs."""

    def __init__(self, machine: Machine,
                 window_us: float = DEFAULT_WINDOW_US) -> None:
        check_positive("window_us", window_us)
        self.machine = machine
        self.window_us = window_us

    def sample(self, program: str, size: str, n_active: int | None = None,
               n_windows: int = 200_000, rng=None) -> SampledTrace:
        """Sample one (program, class) run.

        ``n_active`` defaults to all cores (the paper samples with 24
        threads on 24 cores on Intel NUMA).  Window counts are clipped at
        the machine's controller capacity — a physical ceiling the
        saturated large classes actually reach.
        """
        check_integer("n_windows", n_windows, minimum=1)
        from repro.runtime.calibration import calibrate_profile

        with obs.span("sampler.sample", program=program, size=size,
                      machine=self.machine.name):
            return self._sample(program, size, n_active, n_windows, rng,
                                calibrate_profile)

    def _sample(self, program: str, size: str, n_active: int | None,
                n_windows: int, rng, calibrate_profile) -> SampledTrace:
        if n_active is None:
            n_active = self.machine.n_cores
        check_integer("n_active", n_active, minimum=1,
                      maximum=self.machine.n_cores)
        rng = resolve_rng(rng)
        from repro.workloads import get_workload

        profile = calibrate_profile(program, size, self.machine)
        # The calibrated miss count is a *contention-equivalent* volume
        # (anchored so the flow model reproduces Table II); the traffic
        # the sampler observes is the physical, capacity-model volume.
        # For the large contended classes the two coincide; for small
        # classes the physical volume (cold misses of a cache-resident
        # working set) is what makes their windows sparse and bursty.
        physical = get_workload(program).profile(size, self.machine)
        if physical.llc_misses < profile.llc_misses:
            profile = profile.with_misses(physical.llc_misses)
        window_s = self.window_us * 1e-6
        burst = profile.burst
        # Controller capacity in lines per window.
        capacity_cycles = self.machine.frequency.cycles_in(window_s)
        capacity = int(self.machine.total_service_rate() * capacity_cycles)
        if burst.heavy_tailed:
            # Two timescales: millisecond program phases (Pareto -> long
            # range dependence) modulating the sub-microsecond cache-refill
            # bursts.  The fast rate is boosted so the long-run mean is
            # preserved, bounded by the controllers' capacity.
            duty = max(burst.duty_cycle, 0.02)
            env = phase_envelope(n_windows, window_s, duty, burst.alpha,
                                 rng)
            realised_duty = max(float(env.mean()), 1.0 / n_windows)
            boosted = profile.with_misses(
                max(profile.llc_misses / realised_duty, 1.0))
            process = arrival_process_for(boosted, self.machine, n_active)
            counts = process.counts_in_windows(window_s, n_windows, rng=rng)
            counts = np.where(env, counts, 0)
        else:
            process = arrival_process_for(profile, self.machine, n_active)
            counts = process.counts_in_windows(window_s, n_windows, rng=rng)
        counts = np.minimum(counts, capacity)
        if obs.enabled():
            obs.counter(_names.SAMPLER_RUNS)
            obs.counter(_names.SAMPLER_WINDOWS_BINNED, n_windows)
            obs.counter(_names.SAMPLER_ARRIVALS_GENERATED, int(counts.sum()))
        return SampledTrace(
            program=program,
            size=size,
            machine_name=self.machine.name,
            n_active=n_active,
            window_us=self.window_us,
            counts=counts,
        )
