"""Closed queueing-network solver for simulated program execution.

Model
-----
The ``r`` off-chip requests of a run are grouped into *stall episodes* of
``mlp`` overlapping requests.  Each active core cycles through:

1. a **think** (delay) station — the compute cycles between episodes,
   ``Z = (W + B) / episodes``;
2. (UMA) its processor's **front-side bus** — an FCFS station serialising
   the episode's ``mlp`` line transfers;
3. a **memory-controller group** — the target processor's controllers
   pooled into one station whose rate is ``channels / mean_service``;
   under the paper's homogeneous-affinity assumption a core on processor
   ``p`` visits processor ``q``'s group with probability ``n_q / n``;
4. (NUMA) an **interconnect delay** — the hop latency toward the visited
   controller, paid once per episode (the overlapped requests pipeline
   behind the first).

Cores of each processor form one closed chain solved by exact MVA;
processors sharing controller groups are coupled by a shadow-server fixed
point (a foreign load of utilisation ``rho`` inflates the local view of
the service demand by ``1/(1 - rho)``).

Outputs are the paper's counters: total cycles across cores, work cycles,
stall cycles and LLC misses, with cycle bookkeeping exact by construction:
``total = W + B + memory_stall``.

Fast path
---------
Three layers keep repeated solves cheap (see docs/PERFORMANCE.md):

* whole solves are memoized in :data:`repro.perf.flow_cache`, keyed on
  the content hash of (machine, profile, allocation);
* within the shadow fixed point, each Jacobi iteration assembles every
  processor's chain into one ``[chains, stations]`` batch — rows are
  canonically sorted and bitwise-deduplicated (symmetric processors
  collapse to a single MVA solve) and individual chain solutions are
  memoized in :data:`repro.perf.mva_cache`;
* once the damped iteration is in its geometric tail, the remaining
  distance to the fixed point is extrapolated in one jump instead of
  being iterated out (the loop still runs to the usual tolerance, so the
  fixed point reached is the same to within it).

One driver
----------
Experiment drivers evaluate whole (machine x workload x allocation)
grids.  :func:`solve_flow_cells` runs the fixed point of *every* cell in
lock-step: each round assembles the pending chain rows of all
unconverged cells, solves them in one MVA batch per station width, and
steps every cell once.  Converged cells freeze while stragglers keep
iterating.  :func:`solve_flow` is the one-cell call of the same driver,
so the two entries agree bit for bit.  A cell whose first attempt fails
walks the rest of the degradation ladder alone, with the same
watchdogs, degradation events and fault-injection semantics whichever
entry it came through; see docs/PERFORMANCE.md.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import cast

import numpy as np

from repro.machine.allocation import CoreAllocation
from repro.machine.topology import Machine, MemoryArchitecture
from repro.obs import names as _names, state as _obs_state
from repro.perf.cache import (
    MISS as _MISS,
    flow_cache as _flow_cache,
    mva_cache as _mva_cache,
)
from repro.perf.keys import flow_key as _flow_key
from repro.qnet.mva import (
    bound_throughputs,
    exact_throughputs_cells,
    schweitzer_throughputs,
)
from repro.resilience import faultinject
from repro.resilience.degrade import DegradationEvent, record_event
from repro.resilience.errors import SolverError
from repro.resilience.watchdog import DEFAULT_POLICY, ConvergencePolicy, Watchdog
from repro.util.validation import ValidationError, check_positive
from repro.workloads.base import MemoryProfile

#: The solver site name used in watchdog raises, degradation events and
#: fault-injection plans for this module's shadow fixed point.
FLOW_SITE = "runtime.flow"

#: Congestion gain of the shadow coupling: a station loaded by a
#: foreign/background busy fraction ``b`` looks ``(1 + GAIN * b)`` times
#: slower to the local chain.  The bounded linear law replaces the
#: open-queue pole ``1/(1 - b)``: the pole, combined with load-dependent
#: service, makes the coupled fixed point bistable — omega(r) would jump
#: discontinuously between branches instead of growing smoothly the way
#: the paper's measured curves do.
_CONGESTION_GAIN = 20.0
_RHO_CEILING = 0.98  # cap on busy fractions entering the linear law
#: Cap on the effective station SCV fed to the AMVA residual correction.
_SCV_CAP = 8.0

#: Geometric-tail extrapolation of the damped fixed point.  The 0.5-damped
#: Jacobi update converges linearly, so near the fixed point the per-key
#: deltas form a geometric series with a common ratio ``r``; once the
#: deltas are small (asymptotic regime) and the ratio is stable across
#: keys, the remaining tail ``delta * r / (1 - r)`` is added in one jump.
#: The loop still only exits at the usual 1e-9 tolerance, so a bad jump
#: costs iterations rather than accuracy.
_TAIL_DELTA = 1e-2       # only extrapolate once max_delta is below this
_TAIL_MAX_JUMPS = 6
_TAIL_RATIO_LO = 0.05    # reject non-contracting or alternating tails
_TAIL_RATIO_HI = 0.95
_TAIL_RATIO_TOL = 0.15   # per-key deviation allowed from the common ratio


@dataclass(frozen=True)
class FlowResult:
    """Counter-level outcome of one simulated (noise-free) run."""

    n_active: int
    total_cycles: float
    work_cycles: float
    base_stall_cycles: float
    memory_stall_cycles: float
    llc_misses: float
    instructions: float
    per_core_cycles: tuple[float, ...]      # indexed by processor
    controller_utilisation: dict[str, float]
    #: Which rung of the degradation ladder produced this result
    #: ("exact" unless the fixed point degraded; see docs/RESILIENCE.md).
    solver_stage: str = "exact"

    def __post_init__(self) -> None:
        # A result must describe at least one processor: an empty tuple
        # would make ``makespan_cycles`` raise a bare ``max()`` error far
        # from the construction site that caused it.
        if not self.per_core_cycles:
            raise ValidationError(
                "per_core_cycles must be non-empty: a FlowResult needs at "
                "least one processor (zero-active-core allocations are "
                "rejected upstream)")

    @property
    def stall_cycles(self) -> float:
        """PAPI_RES_STL: all stalls (base plus off-chip memory)."""
        return self.base_stall_cycles + self.memory_stall_cycles

    @property
    def makespan_cycles(self) -> float:
        """Wall-clock of the slowest processor's cores, in cycles.

        ``per_core_cycles`` is guaranteed non-empty at construction, so
        this never raises.
        """
        return max(self.per_core_cycles)


def _copy_cached(result: FlowResult) -> FlowResult:
    """Cheap copy of a memoized :class:`FlowResult` for one caller.

    The dataclass is frozen but holds one mutable dict, so each cache
    hit must hand out its own copy.  ``dataclasses.replace`` re-runs
    ``__init__``/``__post_init__`` (field iteration plus validation) on
    every hit, which is measurable at service rates; the cached value
    already passed validation at construction, so this clones the
    instance dict directly and only the mutable member is rebuilt.
    """
    out = object.__new__(FlowResult)
    out.__dict__.update(result.__dict__)
    out.__dict__["controller_utilisation"] = dict(result.controller_utilisation)
    return out


def cross_package_share(alloc: CoreAllocation) -> float:
    """Fraction of requests that leave the requesting core's processor.

    Zero while the allocation stays on one package; under homogeneous
    affinity it equals ``1 - local_fraction`` beyond that.
    """
    if len(alloc.active_processors()) <= 1:
        return 0.0
    return 1.0 - alloc.local_fraction()


def smt_paired_fraction(alloc: CoreAllocation) -> float:
    """Fraction of active logical cores whose SMT sibling is also active."""
    active = set(alloc.active_core_ids)
    cores = alloc.machine.cores()
    paired = sum(
        1 for cid in active
        if cores[cid].smt_sibling is not None and cores[cid].smt_sibling in active
    )
    return paired / len(active)


def _controller_groups(machine: Machine) -> dict[str, dict]:
    """Pool controllers into station groups.

    UMA: one shared group.  NUMA: one group per processor (its controllers
    pooled), keyed ``"mc<p>"``.  Each group records the pooled service
    time per request and its service-time SCV.
    """
    freq = machine.frequency
    groups: dict[str, dict] = {}
    if machine.architecture is MemoryArchitecture.UMA:
        ctl = machine.shared_controller
        assert ctl is not None
        groups["mc"] = {
            "processor": None,
            "service": ctl.dram.mean_service_cycles(freq) / ctl.dram.channels,
            "service_sat": ctl.dram.mean_service_cycles_at(freq, 1.0)
            / ctl.dram.channels,
            "scv": ctl.dram.service_scv(),
            "latency": ctl.dram.idle_latency_cycles(freq),
        }
        return groups
    for proc in machine.processors:
        total_channels = sum(c.dram.channels for c in proc.controllers)
        # Controllers of one processor have identical DRAM in our presets;
        # average defensively in case a custom machine mixes them.
        mean_service = sum(
            c.dram.mean_service_cycles(freq) for c in proc.controllers
        ) / len(proc.controllers)
        mean_service_sat = sum(
            c.dram.mean_service_cycles_at(freq, 1.0) for c in proc.controllers
        ) / len(proc.controllers)
        scv = sum(c.dram.service_scv() for c in proc.controllers) \
            / len(proc.controllers)
        groups[f"mc{proc.index}"] = {
            "processor": proc.index,
            "service": mean_service / total_channels,
            "service_sat": mean_service_sat / total_channels,
            "scv": scv,
            "latency": sum(
                c.dram.idle_latency_cycles(freq) for c in proc.controllers
            ) / len(proc.controllers),
        }
    return groups


def _hops_between(machine: Machine, src_proc: int, dst_proc: int) -> float:
    """Mean hop count between two processors' controller sets."""
    if machine.interconnect is None or src_proc == dst_proc:
        return 0.0
    src = [c.controller_id for c in machine.processors[src_proc].controllers]
    dst = [c.controller_id for c in machine.processors[dst_proc].controllers]
    return sum(machine.interconnect.hops(a, b) for a in src for b in dst) \
        / (len(src) * len(dst))


def _hop_cycles(machine: Machine, src_proc: int, dst_proc: int) -> float:
    """Interconnect latency (cycles) between two processors' controllers."""
    if machine.interconnect is None or src_proc == dst_proc:
        return 0.0
    src = [c.controller_id for c in machine.processors[src_proc].controllers]
    dst = [c.controller_id for c in machine.processors[dst_proc].controllers]
    ns = sum(machine.interconnect.latency_ns(a, b) for a in src for b in dst) \
        / (len(src) * len(dst))
    return machine.frequency.cycles_in(ns * 1e-9)


def solve_flow(profile: MemoryProfile, machine: Machine,
               alloc: CoreAllocation,
               policy: ConvergencePolicy | None = None) -> FlowResult:
    """Solve the closed network for one allocation; see module docstring.

    It is the one-cell call of the driver :func:`solve_flow_cells` also
    runs, so the two agree bit for bit.  Results are memoized in :data:`repro.perf.flow_cache`; a repeat solve
    of an identical (machine, profile, allocation) triple returns a copy
    of the cached result (``runtime.flow.solves`` counts actual solves,
    ``perf.cache.flow.hits`` the memoized returns).

    The shadow fixed point runs under a convergence watchdog and the
    degradation ladder of ``policy`` (default
    :data:`repro.resilience.DEFAULT_POLICY`): a non-converging attempt
    is retried with escalated damping, then degraded exact MVA →
    Schweitzer AMVA → asymptotic bounds.  Every fall is recorded via
    :func:`repro.resilience.record_event` (surfaced in experiment
    notes) and the producing rung is on ``FlowResult.solver_stage``.
    The cache is bypassed while a non-default policy or a fault
    injection targeting :data:`FLOW_SITE` is active, so degraded
    results from injected faults are never memoized.

    Under telemetry, every call — memoized or not — lands one
    observation in the ``latency.flow.solve_seconds`` histogram: the
    per-cell latency a caller actually experiences, which is what the
    service-level p99 gate watches.
    """
    cells = [(profile, machine, alloc)]
    tel = _obs_state._active
    if tel is None:
        return _solve_cells(cells, policy)[0]
    with tel.metrics.timer(_names.LATENCY_FLOW_SOLVE_SECONDS):
        return _solve_cells(cells, policy)[0]


def solve_flow_cells(
        cells: "Iterable[tuple[MemoryProfile, Machine, CoreAllocation]]",
        policy: ConvergencePolicy | None = None) -> list[FlowResult]:
    """Solve many (profile, machine, allocation) cells in lock-step.

    Results come back in cell order and are bit-identical to calling
    :func:`solve_flow` once per cell: both entries run one driver.  It
    consults the flow cache per cell first, solves only the misses and
    back-fills the cache, so a call interleaves with single-cell calls
    exactly like a sequential sweep would.  The misses run their first
    ladder attempt together, pooling their MVA rows on an exact rung; a
    cell that attempt cannot converge continues down the degradation
    ladder on its own, with the same retries, events and counters as a
    single-cell solve.

    Under telemetry the whole call is timed into
    ``latency.flow.batch_seconds`` and each cell lands one amortized
    observation in ``latency.flow.solve_seconds`` (the per-cell latency
    SLO keeps one observation per cell, whichever entry solved it).
    """
    cells = list(cells)
    if not cells:
        return []
    tel = _obs_state._active
    if tel is None:
        return _solve_cells(cells, policy)
    timer = tel.metrics.timer(_names.LATENCY_FLOW_BATCH_SECONDS)
    before = timer.sum
    with timer:
        results = _solve_cells(cells, policy)
    # Amortized per-cell latency, read back from the timer instrument
    # itself: model code takes no wall-clock reads of its own.
    each = (timer.sum - before) / len(cells)
    per_cell = tel.metrics.timer(_names.LATENCY_FLOW_SOLVE_SECONDS)
    for _ in range(len(cells)):
        per_cell.observe(each)
    return results


def _solve_cells(
        cells: "list[tuple[MemoryProfile, Machine, CoreAllocation]]",
        policy: ConvergencePolicy | None) -> list[FlowResult]:
    """The one flow driver: resolve cells against the cache, solve misses.

    ``perf.batch.cells`` counts every cell that enters.  A repeat of an
    earlier miss in the same call (a follower) is answered through the
    cache once that miss is solved, as in a sequential sweep.
    """
    tel = _obs_state._active
    if tel is not None:
        tel.metrics.counter(_names.PERF_BATCH_CELLS).inc(len(cells))
    use_cache = policy is None \
        and not faultinject.solver_fault_armed(FLOW_SITE)
    results: list[FlowResult | None] = [None] * len(cells)
    keys: list[str | None] = [None] * len(cells)
    followers: dict[str, list[int]] = {}
    misses: list[int] = []
    for i, (profile, machine, alloc) in enumerate(cells):
        if alloc.machine is not machine and alloc.machine != machine:
            raise ValidationError(
                "allocation was built for a different machine")
        if use_cache:
            key = keys[i] = _flow_key(profile, machine, alloc)
            hit = _flow_cache.get(key)
            if hit is not _MISS:
                results[i] = _copy_cached(hit)
                continue
            if key in followers:
                followers[key].append(i)
                continue
            followers[key] = []
        misses.append(i)
    pol = policy if policy is not None else DEFAULT_POLICY
    while misses:
        if tel is not None:
            tel.metrics.counter(_names.RUNTIME_FLOW_SOLVES).inc(len(misses))
        for i, result in zip(misses, _ladder([cells[i] for i in misses], pol)):
            results[i] = result
            if use_cache:
                _flow_cache.put(keys[i], result)
        # A follower the cache cannot answer (disabled, or evicted under
        # us) goes round once more as a miss, as in a sequential sweep.
        misses = []
        for key, idxs in followers.items():
            for i in idxs:
                hit = _flow_cache.get(key)
                if hit is _MISS:
                    misses.append(i)
                else:
                    results[i] = _copy_cached(hit)
        followers = {}
    return cast("list[FlowResult]", results)


def _ladder(cells: "list[tuple[MemoryProfile, Machine, CoreAllocation]]",
            policy: ConvergencePolicy) -> list[FlowResult]:
    """Walk ``cells`` down the attempt schedule of ``policy``.

    Attempt 0 runs every cell at once (``perf.batch.fallbacks`` counts
    the cells it fails).  Each failed cell continues alone, in cell
    order, from the next attempt, recording its own events and counters.
    The final rung accepts its last iterate instead of raising, so with
    the default ladder (ending in ``bounds``) this always returns; a
    custom ladder whose last rung still fails propagates that failure.
    """
    attempts = policy.attempts()
    tel = _obs_state._active
    outcomes = _attempt(cells, policy, 0)
    if tel is not None:
        fallbacks = sum(isinstance(o, SolverError) for o in outcomes)
        if fallbacks:
            tel.metrics.counter(_names.PERF_BATCH_FALLBACKS).inc(fallbacks)
    results: list[FlowResult] = []
    for cell, outcome in zip(cells, outcomes):
        k = 0
        while isinstance(outcome, SolverError):
            if tel is not None:
                tel.metrics.counter(_names.RUNTIME_FLOW_NONCONVERGED).inc()
            if k == len(attempts) - 1:
                raise outcome
            solver, damping = attempts[k]
            next_solver, next_damping = attempts[k + 1]
            if next_solver == solver:
                record_event(DegradationEvent(
                    site=FLOW_SITE, action="retry", from_stage=solver,
                    to_stage=next_solver,
                    detail=f"escalating damping {damping:g} -> "
                           f"{next_damping:g}: {outcome.message}"))
            else:
                record_event(DegradationEvent(
                    site=FLOW_SITE, action="degrade", from_stage=solver,
                    to_stage=next_solver, detail=outcome.message))
            k += 1
            outcome = _attempt([cell], policy, k)[0]
        results.append(outcome)
    return results


def _attempt(cells: "list[tuple[MemoryProfile, Machine, CoreAllocation]]",
             policy: ConvergencePolicy,
             k: int) -> "list[FlowResult | SolverError]":
    """Run attempt ``k`` of ``policy`` on every cell; one outcome each.

    An outcome is the cell's result or the :class:`SolverError` that
    failed it; injected faults are checked per cell per attempt.  On an
    exact rung all cells step in lock-step.  Schweitzer couples its
    convergence residual across the rows of one call, so on the other
    rungs cells step one at a time, in cell order.  A wall-clock budget
    (``ConvergencePolicy.time_budget_s``) runs from the attempt's start,
    so in a pooled attempt it counts the pool's wall time.
    """
    attempts = policy.attempts()
    solver, damping = attempts[k]
    final = k == len(attempts) - 1
    outcomes: list = [None] * len(cells)
    idxs = list(range(len(cells)))
    pools = [idxs] if solver == "exact" else [[i] for i in idxs]
    for pool in pools:
        live: dict[int, _FlowCell] = {}
        for i in pool:
            try:
                faultinject.maybe_fail_solver(FLOW_SITE, attempt=k)
            except SolverError as exc:
                outcomes[i] = exc
                continue
            live[i] = _FlowCell(*cells[i], solver=solver, damping=damping,
                                policy=policy, accept_nonconverged=final)
        _step(live, solver, outcomes)
    return outcomes


def _step(live: "dict[int, _FlowCell]", solver: str,
          outcomes: list) -> None:
    """Step ``live`` cells in lock-step until each converges or fails.

    Each round solves every live cell's pending chain rows in one
    :func:`_solve_rows` call, then steps every cell once; a cell leaves
    with its outcome while stragglers keep iterating.
    """
    while live:
        # Rows are keyed by content, so equal keys carry equal rows.
        rows = {row[0]: row for cell in live.values()
                for row in cell.assemble()}
        try:
            solutions = _solve_rows(solver, list(rows.values())) \
                if rows else {}
        except SolverError as exc:
            # Only Schweitzer raises here, and it never pools cells.
            for i in live:
                outcomes[i] = exc
            return
        for i, cell in list(live.items()):
            cell.absorb(solutions)
            try:
                if not cell.update():
                    continue
                outcomes[i] = cell.finalize()
            except SolverError as exc:
                outcomes[i] = exc
            del live[i]


def _solve_rows(solver: str, rows: list[tuple]) -> dict:
    """Solve deduplicated chain rows in stacked batches; memoize each.

    ``rows`` are ``(key, population, demands, is_queue, scv)`` tuples as
    produced by :meth:`_FlowCell.assemble`; ``solver`` names the ladder
    rung.  Rows are grouped by station width and stacked into one solver
    call per width: pooling cells of different machines must never pad
    a row beyond its own cell's width, because crossing numpy's
    pairwise-summation block boundaries could change the last ulp of a
    row's demand sum — the same cache key must map to the same bits no
    matter which cells shared the batch that solved it.
    """
    out: dict[tuple, float] = {}
    by_width: dict[int, list[tuple]] = {}
    for row in rows:
        by_width.setdefault(len(row[2]), []).append(row)
    batches = [batch for _, batch in sorted(by_width.items())]
    blocks = [(
        np.stack([b[2] for b in batch]),
        np.stack([b[3] for b in batch]),
        np.stack([b[4] for b in batch]),
        np.array([b[1] for b in batch]),
    ) for batch in batches]
    if solver == "exact":
        solved = exact_throughputs_cells(blocks)
    elif solver == "schweitzer":
        solved = [schweitzer_throughputs(*block) for block in blocks]
    else:
        solved = [bound_throughputs(*block) for block in blocks]
    for batch, xs in zip(batches, solved):
        for (key, _, _, _, _), xv in zip(batch, xs):
            xv = float(xv)
            _mva_cache.put(key, xv)
            out[key] = xv
    return out


class _FlowCell:
    """One (profile, machine, allocation) cell of the shadow fixed point.

    The solve is split into externally steppable phases so one driver
    loop can interleave many cells:

    * :meth:`assemble` refreshes the load-dependent station demands
      against the current utilisation state and returns the chain rows
      whose MVA solution is not already memoized;
    * :meth:`absorb` hands back the solved throughputs;
    * :meth:`update` applies the damped Jacobi step, returning ``True``
      once converged (a watchdog trip raises unless this is the final
      ladder rung);
    * :meth:`finalize` turns the fixed point into a :class:`FlowResult`.

    A cell's floating-point operations depend only on the cell: pooled
    rows are deduplicated by content and never padded past their own
    cell's width, so a cell's result is the same bits whichever cells
    share its batches.
    """

    def __init__(self, profile: MemoryProfile, machine: Machine,
                 alloc: CoreAllocation, *, solver: str, damping: float,
                 policy: ConvergencePolicy,
                 accept_nonconverged: bool) -> None:
        self.profile = profile
        self.solver = solver
        self.damping = damping
        self.accept_nonconverged = accept_nonconverged
        n = alloc.n_active
        counts = alloc.cores_per_processor()
        active = alloc.active_processors()
        freq = machine.frequency

        # --- workload aggregates under this allocation -----------------------
        share = cross_package_share(alloc)
        r = profile.llc_misses + profile.cross_package_miss_growth * share
        check_positive("off-chip requests", r)
        w_eff = profile.work_cycles * (
            1.0 + profile.smt_work_inflation * smt_paired_fraction(alloc))
        b_eff = profile.base_stall_cycles * (
            1.0 - profile.cache_bonus * (1.0 - 1.0 / n))
        episodes = r / profile.mlp
        think = (w_eff + b_eff) / episodes
        amp = profile.write_amplification

        groups = _controller_groups(machine)
        # Effective station SCV: Allen-Cunneen style blend of service
        # variability (row hit/conflict) and traffic burstiness.
        ca2 = profile.burst.arrival_scv
        for g in groups.values():
            g["scv_eff"] = min(0.5 * (g["scv"] + ca2), _SCV_CAP)

        is_uma = machine.architecture is MemoryArchitecture.UMA

        # Visit probabilities: thread-private data (first-touch) stays on
        # the requesting core's own processor; the shared fraction spreads
        # over active processors proportionally to their core counts
        # (first-touch under the paper's fixed thread count places data
        # where threads run).  UMA machines send everything to the one
        # shared group.
        sdf = profile.shared_data_fraction

        def visits(p: int) -> dict[str, float]:
            if is_uma:
                return {"mc": 1.0}
            out = {f"mc{q}": sdf * counts[q] / n for q in active}
            out[f"mc{p}"] = out.get(f"mc{p}", 0.0) + (1.0 - sdf)
            return out

        bus_cycles = 0.0
        if is_uma:
            bus = machine.processors[0].bus
            assert bus is not None
            bus_cycles = bus.transfer_cycles(freq)
        link_cycles = 0.0
        if machine.interconnect is not None:
            link_cycles = freq.cycles_in(
                machine.interconnect.link_transfer_ns() * 1e-9)
        # Coherence probes fan out to every active core, so the protocol
        # traffic riding on each remote line grows smoothly with how far
        # the allocation extends beyond the first package (Magny-Cours
        # broadcast probes; QPI snoops).  Per-core rather than per-package
        # growth keeps the measured cross-package curve close to linear —
        # which is also what the paper's near-linear measured segments
        # show.
        cpp0 = machine.processors[0].n_logical_cores
        if machine.n_cores > cpp0:
            span = max(n - cpp0, 0) / (machine.n_cores - cpp0)
        else:
            span = 0.0
        penalty_eff = profile.remote_penalty * span

        # --- shadow-utilisation fixed point ----------------------------------
        contrib: dict[tuple[int, str], float] = {
            (p, gname): 0.0 for p in active for gname in visits(p)}
        if not is_uma and link_cycles > 0.0:
            # Incoming remote lines occupy the destination processor's
            # port: chains are coupled through the ports exactly like
            # through the controllers.
            for p in active:
                for q in active:
                    if q != p:
                        contrib[(q, f"port{p}")] = 0.0
        x_proc: dict[int, float] = {p: 0.0 for p in active}
        residence_mem: dict[int, float] = {p: 0.0 for p in active}

        # --- chain templates --------------------------------------------------
        # Station values that do not move during the fixed point (think
        # time, bus demand, idle-latency delay, port base demand, SCVs)
        # are assembled once; each Jacobi iteration only refreshes the
        # load-dependent controller-group and port demands in the
        # preallocated row.
        own_bg_weight = 1.0 - 1.0 / amp
        chains: list[dict] = []
        for p in active:
            v = {g: vq for g, vq in visits(p).items() if vq > 0.0}
            fixed_delay = 0.0
            svc_scale: dict[str, float] = {}
            for gname, vq in v.items():
                g = groups[gname]
                dst = g["processor"]
                # Remote requests occupy the home controller longer than
                # local ones: the directory/probe handling, the snoop
                # round trip holding the transaction open, and the poor
                # row locality of an alien stream.  ``remote_penalty``
                # (the second calibration knob) scales that extra
                # occupancy per workload; it grows with the allocation's
                # span because probe fan-out does.
                svc_scale[gname] = 1.0 + penalty_eff \
                    if (dst is not None and dst != p) else 1.0
                # Idle access latency is paid once per episode
                # (overlapped requests pipeline behind the first), plus
                # interconnect hops for remote visits.
                fixed_delay += vq * g["latency"]
                if dst is not None:
                    fixed_delay += vq * _hop_cycles(machine, p, dst)
            port_base = 0.0
            if link_cycles > 0.0 and penalty_eff > 0.0:
                # Remote lines, their write-back companions and the
                # coherence messages riding with them occupy this
                # processor's interconnect port for one transfer per hop.
                # ``remote_penalty`` scales the occupancy per workload —
                # the hop structure (adjacent vs diagonal packages)
                # stays, which is what makes the homogeneous-latency
                # model variant lose accuracy on this machine.  (The
                # remote *share* and the hop mix already grow with the
                # span, so the port cost per core stays near-constant
                # within a package — the near-linear segments of the
                # paper's curves.)
                port_base = sum(
                    vq * _hops_between(machine, p, groups[gname]["processor"])
                    for gname, vq in v.items()
                    if groups[gname]["processor"] is not None
                    and groups[gname]["processor"] != p
                ) * profile.mlp * link_cycles * penalty_eff
            demands = [think]
            is_queue = [False]
            scvs = [1.0]
            if is_uma:
                # Write-backs and prefetches cross the front-side bus too.
                demands.append(profile.mlp * amp * bus_cycles)
                is_queue.append(True)
                scvs.append(1.0)
            group_idx: dict[str, int] = {}
            for gname in v:
                group_idx[gname] = len(demands)
                demands.append(0.0)
                is_queue.append(True)
                scvs.append(groups[gname]["scv_eff"])
            if fixed_delay > 0.0:
                demands.append(fixed_delay)
                is_queue.append(False)
                scvs.append(1.0)
            port_idx = None
            if port_base > 0.0:
                port_idx = len(demands)
                demands.append(0.0)
                is_queue.append(True)
                scvs.append(1.0)
            chains.append({
                "p": p, "pop": counts[p], "visits": v, "svc_scale": svc_scale,
                "demands": np.array(demands), "is_queue": np.array(is_queue),
                "scv": np.array(scvs), "group_idx": group_idx,
                "port_idx": port_idx, "port_base": port_base,
            })
        width = max(len(c["demands"]) for c in chains)

        self.prev_delta: dict[tuple[int, str], float] | None = None
        self.jumps = 0
        self.dog = Watchdog(FLOW_SITE, max_iterations=policy.max_iterations,
                            time_budget_s=policy.time_budget_s)

        self.n = n
        self.counts = counts
        self.active = active
        self.r = r
        self.w_eff = w_eff
        self.b_eff = b_eff
        self.think = think
        self.amp = amp
        self.groups = groups
        self.link_cycles = link_cycles
        self.penalty_eff = penalty_eff
        self.own_bg_weight = own_bg_weight
        self.chains = chains
        self.width = width
        self.contrib = contrib
        self.x_proc = x_proc
        self.residence_mem = residence_mem
        self.n_processors = machine.n_processors
        self._loaded: dict[str, float] = {}
        self._pending: dict[tuple, list[int]] = {}
        self._solved: list[float | None] = []

    def assemble(self) -> list[tuple]:
        """One Jacobi assembly against the current utilisation state.

        Every processor's network is refreshed against the *previous*
        state, then all contributions update together in :meth:`update`
        (sequential Gauss-Seidel updates would break the symmetry
        between identical processors and drift toward a spurious
        winner-takes-all fixed point).  Rows are sorted into a canonical
        station order (only the throughput is consumed, which does not
        depend on it) so symmetric processors produce bitwise-equal rows
        and collapse to a single solve.  Returns the rows that missed
        the MVA memo and still need solving.
        """
        contrib = self.contrib
        profile = self.profile
        # One insertion-order scan of the shared state groups it by
        # station; each group's entries keep their relative order, which
        # the order-sensitive float sums below depend on.
        by_group: dict[str, list[tuple[int, float]]] = {}
        for (p, g), v in contrib.items():
            by_group.setdefault(g, []).append((p, v))

        def foreign_util(gname: str, me: int) -> float:
            """Load other processors put on a group, as seen by ``me``.

            Individually capped below 1 so the shadow inflation stays
            finite; the fixed point itself keeps the joint utilisation
            physical (overload slows every contributor down).
            """
            other = sum(v for q, v in by_group.get(gname, ()) if q != me)
            return min(other, _RHO_CEILING)

        # Row-locality degradation: service grows with utilisation,
        # quadratically — a lone stream keeps its row locality until the
        # banks are genuinely crowded, so the degradation concentrates
        # near saturation (this also keeps the feedback loop's mid-range
        # gain low enough for a unique fixed point).  Hoisted per
        # iteration: the utilisation state is frozen during assembly.
        loaded: dict[str, float] = {}
        for gname, g in self.groups.items():
            rho = min(sum(v for _, v in by_group.get(gname, ())), 1.0)
            loaded[gname] = g["service"] \
                + (g["service_sat"] - g["service"]) * rho * rho
        self._loaded = loaded

        pending: dict[tuple, list[int]] = {}
        solved: list[float | None] = [None] * len(self.chains)
        rows: list[tuple] = []
        for i, c in enumerate(self.chains):
            p = c["p"]
            d = c["demands"].copy()
            for gname, idx in c["group_idx"].items():
                # Blocking demand misses compete with every foreign
                # stream *and* with this processor's own non-blocking
                # background traffic (write-backs, prefetches).
                # A chain's own write-back/prefetch background delays its
                # demand reads far less than foreign traffic does: real
                # controllers drain writebacks in read-idle gaps
                # (read-priority scheduling), so it enters the busy term
                # with a small weight.
                own_background = contrib[(p, gname)] * self.own_bg_weight
                busy = min(foreign_util(gname, p) + 0.25 * own_background,
                           _RHO_CEILING)
                inflate = 1.0 + _CONGESTION_GAIN * busy
                d[idx] = c["visits"][gname] * profile.mlp \
                    * loaded[gname] * c["svc_scale"][gname] * inflate
            if c["port_idx"] is not None:
                # Other chains' lines terminating here occupy this port
                # as well; their utilisation inflates the local view like
                # a foreign controller load.
                incoming = min(foreign_util(f"port{p}", p), _RHO_CEILING)
                d[c["port_idx"]] = c["port_base"] \
                    * (1.0 + _CONGESTION_GAIN * incoming)
            order = np.lexsort((c["scv"], d, c["is_queue"]))
            d = d[order]
            iq = c["is_queue"][order]
            sv = c["scv"][order]
            if len(d) < self.width:
                pad = self.width - len(d)
                d = np.concatenate([d, np.zeros(pad)])
                iq = np.concatenate([iq, np.zeros(pad, dtype=bool)])
                sv = np.concatenate([sv, np.ones(pad)])
            key = ("chain", self.solver, c["pop"],
                   d.tobytes(), iq.tobytes(), sv.tobytes())
            cached = _mva_cache.get(key)
            if cached is not _MISS:
                solved[i] = cached
            elif key in pending:
                pending[key].append(i)
            else:
                pending[key] = [i]
                rows.append((key, c["pop"], d, iq, sv))
        self._pending = pending
        self._solved = solved
        return rows

    def absorb(self, solutions: dict) -> None:
        """Distribute solved throughputs onto this cell's pending chains."""
        for key, idxs in self._pending.items():
            xv = solutions[key]
            for i in idxs:
                self._solved[i] = xv

    def update(self) -> bool:
        """Apply one damped Jacobi step; ``True`` once converged.

        A watchdog trip raises :class:`SolverError` unless this cell is
        the final ladder rung (``accept_nonconverged``), in which case
        the last iterate is accepted on the record — a degraded-but-
        bounded answer beats a raise or a hang.
        """
        profile = self.profile
        loaded = self._loaded
        solved = self._solved
        contrib = self.contrib
        proposed: dict[tuple[int, str], float] = {}
        for i, c in enumerate(self.chains):
            p = c["p"]
            x_new = solved[i]
            self.x_proc[p] = x_new
            self.residence_mem[p] = c["pop"] / x_new - self.think
            for gname, vq in c["visits"].items():
                # Channel occupancy includes the non-blocking write-back
                # / prefetch traffic that rides along with each demand
                # miss, and the extra occupancy of remote requests.
                proposed[(p, gname)] = \
                    x_new * vq * profile.mlp * self.amp * loaded[gname] \
                    * c["svc_scale"][gname]
                dst = self.groups[gname]["processor"]
                if self.link_cycles > 0.0 and self.penalty_eff > 0.0 \
                        and dst is not None and dst != p:
                    # Occupancy this chain's remote lines impose on the
                    # *destination* processor's port (a line terminates
                    # there exactly once, however many hops it crossed).
                    proposed[(p, f"port{dst}")] = \
                        x_new * vq * profile.mlp * self.link_cycles \
                        * self.penalty_eff
        max_delta = 0.0
        delta: dict[tuple[int, str], float] = {}
        for key, new_val in proposed.items():
            old_val = contrib[key]
            # Damped for stability; retries escalate to heavier damping
            # (smaller new-value weight).
            updated = (1.0 - self.damping) * old_val \
                + self.damping * new_val
            d_val = updated - old_val
            delta[key] = d_val
            max_delta = max(max_delta, abs(d_val))
            contrib[key] = updated
        if max_delta < 1e-9:
            return True
        try:
            self.dog.tick(max_delta)
        except SolverError as exc:
            if not self.accept_nonconverged:
                raise
            # Final ladder rung: accept the last iterate, on the record.
            record_event(DegradationEvent(
                site=FLOW_SITE, action="gave_up", from_stage=self.solver,
                to_stage=self.solver, detail=exc.message))
            return True
        if self.prev_delta is not None and self.jumps < _TAIL_MAX_JUMPS \
                and max_delta < _TAIL_DELTA:
            if _tail_jump(contrib, delta, self.prev_delta):
                self.jumps += 1
                self.prev_delta = None
                return False
        self.prev_delta = delta
        return False

    def finalize(self) -> FlowResult:
        """Counter bookkeeping of the converged fixed point."""
        profile = self.profile
        contrib = self.contrib

        def group_util(gname: str) -> float:
            """Reported utilisation of a group (capped at the physical 1.0)."""
            return min(
                sum(v for (p, g), v in contrib.items() if g == gname), 1.0)

        episodes_per_core = self.r / (self.n * profile.mlp)
        per_core = [0.0] * self.n_processors
        memory_stall = 0.0
        for p in self.active:
            cycle_time = self.think + self.residence_mem[p]
            per_core[p] = episodes_per_core * cycle_time
            memory_stall += self.counts[p] * episodes_per_core \
                * self.residence_mem[p]
        total = self.w_eff + self.b_eff + memory_stall

        return FlowResult(
            n_active=self.n,
            total_cycles=total,
            work_cycles=self.w_eff,
            base_stall_cycles=self.b_eff,
            memory_stall_cycles=memory_stall,
            llc_misses=self.r,
            instructions=profile.instructions,
            per_core_cycles=tuple(per_core),
            controller_utilisation={g: group_util(g) for g in self.groups},
            solver_stage=self.solver,
        )


def _tail_jump(contrib: dict, delta: dict, prev_delta: dict) -> bool:
    """Extrapolate the geometric tail of the damped fixed point.

    Estimates the common contraction ratio ``r`` from two consecutive
    delta vectors (least squares) and, when every significant key agrees
    with it, adds the remaining series ``delta * r / (1 - r)`` to each
    contribution.  Returns whether the jump was applied.
    """
    num = 0.0
    den = 0.0
    for key, pd in prev_delta.items():
        num += delta.get(key, 0.0) * pd
        den += pd * pd
    if den <= 0.0:
        return False
    ratio = num / den
    if not _TAIL_RATIO_LO <= ratio <= _TAIL_RATIO_HI:
        return False
    significant = max(abs(pd) for pd in prev_delta.values()) * 0.05
    for key, d_val in delta.items():
        pd = prev_delta.get(key, 0.0)
        if abs(pd) <= significant:
            continue
        if abs(d_val - ratio * pd) > _TAIL_RATIO_TOL * abs(pd):
            return False
    gain = ratio / (1.0 - ratio)
    for key, d_val in delta.items():
        contrib[key] = max(contrib[key] + d_val * gain, 0.0)
    return True
