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
point: a station loaded by a foreign busy fraction ``b`` looks
``1 + 20 b`` times slower to the local chain (the bounded linear law of
``_CONGESTION_GAIN``, which replaced the open-queue pole ``1/(1 - b)``).

Outputs are the paper's counters: total cycles across cores, work cycles,
stall cycles and LLC misses, with cycle bookkeeping exact by construction:
``total = W + B + memory_stall``.

Fast path
---------
Three layers keep repeated solves cheap (see docs/PERFORMANCE.md):

* whole solves are memoized in :data:`repro.perf.flow_cache`, keyed on
  the content hash of (machine, profile, allocation);
* the Jacobi state of every live cell is one set of
  ``[cell, processor, group, kind]`` arrays, so a round of the shadow
  fixed point runs a fixed number of numpy operations however many
  cells are live.  Each chain row is sorted into a canonical station
  order, rows are bitwise-deduplicated across cells (symmetric
  processors collapse to one solve) and memoized in
  :data:`repro.perf.mva_cache`, and the rest are solved in one MVA
  batch per station width;
* once the damped iteration is in its geometric tail, the remaining
  distance to the fixed point is extrapolated in one jump instead of
  being iterated out (the loop still runs to the usual tolerance, so the
  fixed point reached is the same to within it).

Sums across processors or keys run left to right from ``+0.0``: never
``sum()``, which adds floats with compensation since Python 3.12, and
never numpy's pairwise reductions.  A cell's bits therefore depend
neither on the interpreter nor on the cells that share its arrays.

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

import functools
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


@dataclass(frozen=True)
class _Stations:
    """Station tables of one machine.

    Controller group ``g`` of a NUMA machine pools processor ``g``'s
    controllers and is named ``"mc<g>"``; a UMA machine has the one
    shared group ``"mc"``, index 0.  Per group: the pooled service time
    per request (``service_sat`` at saturation), the service-time SCV
    and the idle access latency, in cycles.  ``hop_cycles[p][q]`` and
    ``hops[p][q]`` are the interconnect latency (cycles) and the mean
    hop count from processor ``p``'s controllers to ``q``'s; both are 0
    on the diagonal.
    """

    names: tuple[str, ...]
    uma: bool
    service: tuple[float, ...]
    service_sat: tuple[float, ...]
    scv: tuple[float, ...]
    latency: tuple[float, ...]
    hop_cycles: tuple[tuple[float, ...], ...]
    hops: tuple[tuple[float, ...], ...]
    bus_cycles: float
    link_cycles: float


def _mean(values: list[float]) -> float:
    """Mean of ``values``, summed left to right from ``+0.0``.

    Not ``sum()``: since Python 3.12 it adds floats with Neumaier
    compensation, which would tie the solver's bits to the interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


#: Station tables by machine identity.  Machines are frozen; an entry
#: holds its machine, keeping the ``id`` valid, and the memo is cleared
#: wholesale when it fills up.
_STATIONS_MEMO: dict[int, tuple[Machine, _Stations]] = {}
_STATIONS_MEMO_MAX = 64


def _stations(machine: Machine) -> _Stations:
    """The station tables of ``machine``, built once per machine."""
    hit = _STATIONS_MEMO.get(id(machine))
    if hit is not None and hit[0] is machine:
        return hit[1]
    st = _build_stations(machine)
    if len(_STATIONS_MEMO) >= _STATIONS_MEMO_MAX:
        _STATIONS_MEMO.clear()
    _STATIONS_MEMO[id(machine)] = (machine, st)
    return st


def _build_stations(machine: Machine) -> _Stations:
    """Pool each processor's controllers into one station group.

    Controllers of one processor have identical DRAM in our presets; a
    custom machine may mix them, so their times are averaged.
    """
    freq = machine.frequency
    procs = machine.processors
    uma = machine.architecture is MemoryArchitecture.UMA
    bus_cycles = 0.0
    if uma:
        ctl = machine.shared_controller
        bus = procs[0].bus
        assert ctl is not None and bus is not None
        groups = [("mc", [ctl], ctl.dram.channels)]
        bus_cycles = bus.transfer_cycles(freq)
    else:
        groups = [(f"mc{p.index}", list(p.controllers),
                   sum(c.dram.channels for c in p.controllers))
                  for p in procs]
    hop_cycles = [[0.0] * len(procs) for _ in procs]
    hops = [[0.0] * len(procs) for _ in procs]
    ic = machine.interconnect
    if ic is not None:
        for src in procs:
            for dst in procs:
                if src.index == dst.index:
                    continue
                pairs = [(a.controller_id, b.controller_id)
                         for a in src.controllers for b in dst.controllers]
                hops[src.index][dst.index] = \
                    sum(ic.hops(a, b) for a, b in pairs) / len(pairs)
                hop_cycles[src.index][dst.index] = freq.cycles_in(
                    _mean([ic.latency_ns(a, b) for a, b in pairs]) * 1e-9)
    return _Stations(
        names=tuple(name for name, _, _ in groups),
        uma=uma,
        service=tuple(_mean([c.dram.mean_service_cycles(freq) for c in ctls])
                      / channels for _, ctls, channels in groups),
        service_sat=tuple(
            _mean([c.dram.mean_service_cycles_at(freq, 1.0) for c in ctls])
            / channels for _, ctls, channels in groups),
        scv=tuple(_mean([c.dram.service_scv() for c in ctls])
                  for _, ctls, _ in groups),
        latency=tuple(_mean([c.dram.idle_latency_cycles(freq) for c in ctls])
                      for _, ctls, _ in groups),
        hop_cycles=tuple(map(tuple, hop_cycles)),
        hops=tuple(map(tuple, hops)),
        bus_cycles=bus_cycles,
        link_cycles=freq.cycles_in(ic.link_transfer_ns() * 1e-9)
        if ic is not None else 0.0,
    )


def solve_flow(profile: MemoryProfile, machine: Machine,
               alloc: CoreAllocation,
               policy: ConvergencePolicy | None = None) -> FlowResult:
    """Solve the closed network for one allocation; see module docstring.

    It is the one-cell call of the driver that :func:`solve_flow_cells`
    runs, so the two agree bit for bit.  Results are memoized in
    :data:`repro.perf.flow_cache`; a repeat solve of an identical
    (machine, profile, allocation) triple returns a copy of the cached
    result (``runtime.flow.solves`` counts actual solves,
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
        n_slots = max(cells[i][1].n_processors for i in pool)
        live: dict[int, _FlowCell] = {}
        for i in pool:
            try:
                faultinject.maybe_fail_solver(FLOW_SITE, attempt=k)
            except SolverError as exc:
                outcomes[i] = exc
                continue
            profile, machine, alloc = cells[i]
            live[i] = _FlowCell(profile, machine, alloc, _stations(machine),
                                n_slots, solver=solver, policy=policy,
                                accept_nonconverged=final)
        _step(live, solver, damping, outcomes)
    return outcomes


def _step(live: "dict[int, _FlowCell]", solver: str, damping: float,
          outcomes: list) -> None:
    """Step ``live`` cells in lock-step until each converges or fails.

    Each round assembles the chain rows of every live cell as one set of
    arrays, solves the rows the mva memo cannot answer in one
    :func:`_solve_rows` call, then steps every cell once; a cell leaves
    with its outcome while stragglers keep iterating.
    """
    if not live:
        return
    idxs = list(live)
    pool = _Pool(list(live.values()), solver, damping)
    while idxs:
        rows, *arrays = pool.assemble()
        try:
            solutions = _solve_rows(solver, rows, *arrays) if rows else {}
        except SolverError as exc:
            # Only Schweitzer raises here, and it never pools cells.
            for i in idxs:
                outcomes[i] = exc
            return
        finished = pool.update(solutions)
        if finished:
            for pos, outcome in finished.items():
                outcomes[idxs[pos]] = outcome
            idxs = [i for pos, i in enumerate(idxs) if pos not in finished]


def _solve_rows(solver: str, rows: list[tuple], demands: np.ndarray,
                is_queue: np.ndarray, scv: np.ndarray) -> dict:
    """Solve deduplicated chain rows in stacked batches; memoize each.

    ``rows`` are ``(key, population, index, width)`` tuples as produced
    by :meth:`_Pool.assemble`: row ``index`` of the ``[row, station]``
    arrays, cut to the row's cell's ``width``.  ``solver`` names the
    ladder rung.  Rows are grouped by width and stacked into one solver
    call per width: pooling cells of different machines must never pad
    a row beyond its own cell's width, because crossing numpy's
    pairwise-summation block boundaries could change the last ulp of a
    row's demand sum — the same cache key must map to the same bits no
    matter which cells shared the batch that solved it.
    """
    out: dict[tuple, float] = {}
    by_width: dict[int, list[tuple]] = {}
    for row in rows:
        by_width.setdefault(row[3], []).append(row)
    batches = [batch for _, batch in sorted(by_width.items())]
    # Each batch goes in by descending population, the order in which
    # the exact recursion retires its rows; a row's bits do not depend
    # on its place in the batch.
    ranked = [sorted(batch, key=lambda row: -row[1]) for batch in batches]
    blocks = []
    for batch in ranked:
        idx = np.array([row[2] for row in batch])
        width = batch[0][3]
        blocks.append((demands[idx, :width], is_queue[idx, :width],
                       scv[idx, :width], np.array([row[1] for row in batch])))
    if solver == "exact":
        solved = exact_throughputs_cells(blocks)
    elif solver == "schweitzer":
        solved = [schweitzer_throughputs(*block) for block in blocks]
    else:
        solved = [bound_throughputs(*block) for block in blocks]
    for batch, xs in zip(ranked, solved):
        out.update(zip((row[0] for row in batch), xs.tolist()))
    for batch in batches:
        for row in batch:
            _mva_cache.put(row[0], out[row[0]])
    return out


#: Column layout of a chain row before sorting: think time, the
#: front-side bus (UMA), the fixed idle/hop latency, one column per
#: controller group, and the processor's interconnect port.  A column a
#: chain does not have is padding: ``_PAD`` in ``kind``, demand 0, SCV 1.
#: The order of the columns does not matter: a row is sorted before it
#: is solved, and stations that tie in every sort key are identical.
_DELAY, _QUEUE, _PAD = 0, 1, 2
_GROUPS = 3     # the first controller-group column

#: The per-cell constants of :class:`_Pool`, each a ``[processor,
#: group, kind]`` table: kind 0 is the controller group, kind 1 the
#: group's processor's port.  A slot a cell does not use holds the
#: value that keeps its contribution and its row demand at ``+0.0``.
_CONSTANTS = ("visits", "mlp", "rate", "penalty", "svc_scale", "base",
              "service", "gap", "own_bg_weight")


class _FlowCell:
    """One (profile, machine, allocation) cell of the shadow fixed point.

    Holds what stays fixed while the cell iterates: the workload
    aggregates under the allocation, the constants and chain-row
    templates of every active processor (as flat lists laid out for a
    pool whose widest machine has ``n_slots`` processors; :class:`_Pool`
    stacks them into arrays and runs the fixed point), the watchdog and
    the tail-jump count.  :meth:`finalize` turns the fixed point into a
    :class:`FlowResult`.
    """

    def __init__(self, profile: MemoryProfile, machine: Machine,
                 alloc: CoreAllocation, st: _Stations, n_slots: int, *,
                 solver: str, policy: ConvergencePolicy,
                 accept_nonconverged: bool) -> None:
        self.profile = profile
        self.solver = solver
        self.accept_nonconverged = accept_nonconverged
        n = alloc.n_active
        counts = alloc.cores_per_processor()
        active = alloc.active_processors()

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
        mlp = profile.mlp

        # Effective station SCV: Allen-Cunneen style blend of service
        # variability (row hit/conflict) and traffic burstiness.
        ca2 = profile.burst.arrival_scv
        scv_eff = [min(0.5 * (scv + ca2), _SCV_CAP) for scv in st.scv]
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
        link_cycles = st.link_cycles
        # Remote lines, their write-back companions and the coherence
        # messages riding with them occupy the destination processor's
        # interconnect port: chains are coupled through the ports exactly
        # like through the controllers.
        ports = link_cycles > 0.0 and penalty_eff > 0.0
        # A chain's own write-back/prefetch background delays its demand
        # reads far less than foreign traffic does: real controllers
        # drain write-backs in read-idle gaps (read-priority scheduling).
        own_bg_weight = 1.0 - 1.0 / amp

        # --- constants and chain templates -----------------------------------
        # Station values that do not move during the fixed point (think
        # time, bus demand, idle-latency delay, port base demand, SCVs)
        # are laid out once; each round only refreshes the load-dependent
        # controller-group and port demands.  Every table is a flat
        # ``[processor, group, kind]`` list: ``visits`` holds the
        # probability that a request of processor ``p`` visits group
        # ``g`` (kind 0) and repeats it where the visit also occupies
        # processor ``g``'s port (kind 1); the rest is what a visit's
        # contribution and demand are scaled by (see :class:`_Pool`).
        slots = n_slots
        width = _GROUPS + slots + 1
        pad = slots - len(st.service)
        const = {
            "visits": [0.0, 0.0] * slots * slots,
            "mlp": [mlp, mlp] * slots * slots,
            "rate": [amp, link_cycles] * slots * slots,
            "penalty": [1.0, penalty_eff] * slots * slots,
            "svc_scale": [1.0, 1.0] * slots * slots,
            "base": [0.0, 0.0] * slots * slots,
            "service": ([x for svc in st.service for x in (svc, 1.0)]
                        + [0.0, 1.0] * pad) * slots,
            "gap": ([x for sat, svc in zip(st.service_sat, st.service)
                     for x in (sat - svc, 0.0)] + [0.0, 0.0] * pad) * slots,
            "own_bg_weight": [own_bg_weight, 0.0] * slots * slots,
        }
        visits = const["visits"]
        demands = [0.0] * (slots * width)
        kind = [_PAD] * (slots * width)
        scv = [1.0] * (slots * width)
        sdf = profile.shared_data_fraction
        for p in active:
            # Visit probabilities: thread-private data (first-touch) stays
            # on the requesting core's own processor; the shared fraction
            # spreads over active processors proportionally to their core
            # counts (first-touch under the paper's fixed thread count
            # places data where threads run).  UMA machines send
            # everything to the one shared group.
            if st.uma:
                v = {0: 1.0}
            else:
                v = {q: sdf * counts[q] / n for q in active}
                v[p] = v[p] + (1.0 - sdf)
            row = p * width
            fixed_delay = 0.0
            hops = 0.0
            for g, vq in v.items():
                if not vq > 0.0:
                    continue
                remote = not st.uma and g != p
                slot = (p * slots + g) * 2
                visits[slot] = vq
                const["base"][slot] = vq * mlp
                kind[row + _GROUPS + g] = _QUEUE
                scv[row + _GROUPS + g] = scv_eff[g]
                # Remote requests occupy the home controller longer than
                # local ones: the directory/probe handling, the snoop
                # round trip holding the transaction open, and the poor
                # row locality of an alien stream.  ``remote_penalty``
                # (the second calibration knob) scales that extra
                # occupancy per workload; it grows with the allocation's
                # span because probe fan-out does.
                if remote:
                    const["svc_scale"][slot] = 1.0 + penalty_eff
                # Idle access latency is paid once per episode
                # (overlapped requests pipeline behind the first), plus
                # interconnect hops for remote visits.
                fixed_delay += vq * st.latency[g]
                if not st.uma:
                    fixed_delay += vq * st.hop_cycles[p][g]
                if remote and ports:
                    visits[slot + 1] = vq
                    hops += vq * st.hops[p][g]
            kind[row] = _DELAY
            demands[row] = think
            if st.uma:
                # Write-backs and prefetches cross the front-side bus too.
                kind[row + 1] = _QUEUE
                demands[row + 1] = mlp * amp * st.bus_cycles
            if fixed_delay > 0.0:
                kind[row + 2] = _DELAY
                demands[row + 2] = fixed_delay
            if ports:
                # One transfer per hop crossed; ``remote_penalty`` scales
                # the occupancy per workload — the hop structure
                # (adjacent vs diagonal packages) stays, which is what
                # makes the homogeneous-latency model variant lose
                # accuracy on this machine.  (The remote *share* and the
                # hop mix already grow with the span, so the port cost
                # per core stays near-constant within a package — the
                # near-linear segments of the paper's curves.)
                port_base = hops * mlp * link_cycles * penalty_eff
                if port_base > 0.0:
                    kind[row + width - 1] = _QUEUE
                    const["base"][(p * slots + p) * 2 + 1] = port_base
        # Sorting a row puts its delay stations first, then its queueing
        # stations, then the padding, so a chain's sorted ``is_queue``
        # never changes.  A row is cut to the cell's widest chain: padded
        # to that width and no further.
        is_queue = [k == _QUEUE for p in range(slots)
                    for k in sorted(kind[p * width:(p + 1) * width])]
        self.width = max(width - kind[p * width:(p + 1) * width].count(_PAD)
                         for p in active)
        self.chains = [
            (p, counts[p], bytes(is_queue[p * width:p * width + self.width]))
            for p in active]
        self.slots = slots
        #: Flat ``[processor, group, kind]`` indices of the contributions
        #: this cell proposes, in ``proposed`` order.
        self.keys = [k for k, vq in enumerate(visits) if vq > 0.0]
        self.constants = [x for name in _CONSTANTS for x in const[name]]
        self.demands = demands
        self.kind = kind
        self.scv = scv
        self.is_queue = is_queue

        self.jumps = 0
        self.has_prev = False
        self.dog = Watchdog(FLOW_SITE, max_iterations=policy.max_iterations,
                            time_budget_s=policy.time_budget_s)

        self.n = n
        self.counts = counts
        self.active = active
        self.r = r
        self.w_eff = w_eff
        self.b_eff = b_eff
        self.think = think
        self.uma = st.uma
        self.group_names = st.names
        self.n_processors = machine.n_processors

    def finalize(self, util: list[list[float]],
                 x: list[float]) -> FlowResult:
        """Counter bookkeeping of the converged fixed point.

        ``util[p][g]`` is what processor ``p``'s chain puts on controller
        group ``g``, and ``x[p]`` is the chain's throughput.
        """
        profile = self.profile
        episodes_per_core = self.r / (self.n * profile.mlp)
        per_core = [0.0] * self.n_processors
        memory_stall = 0.0
        for p in self.active:
            residence_mem = self.counts[p] / x[p] - self.think
            per_core[p] = episodes_per_core * (self.think + residence_mem)
            memory_stall += self.counts[p] * episodes_per_core \
                * residence_mem
        total = self.w_eff + self.b_eff + memory_stall

        # Reported utilisation of a group, capped at the physical 1.0.  A
        # NUMA group of an inactive processor has no chain on it and
        # reports the int 0 of an empty sum.
        utilisation: dict[str, float] = {}
        for g, name in enumerate(self.group_names):
            if not self.uma and g not in self.active:
                utilisation[name] = 0
                continue
            busy = 0.0
            for p in self.active:
                busy += util[p][g]
            utilisation[name] = min(busy, 1.0)

        return FlowResult(
            n_active=self.n,
            total_cycles=total,
            work_cycles=self.w_eff,
            base_stall_cycles=self.b_eff,
            memory_stall_cycles=memory_stall,
            llc_misses=self.r,
            instructions=profile.instructions,
            per_core_cycles=tuple(per_core),
            controller_utilisation=utilisation,
            solver_stage=self.solver,
        )


@functools.cache
def _layout(slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of a pool whose widest machine has ``slots`` processors.

    ``skip[q, 0, 0, me]`` is 0 where processor ``q`` is ``me`` and 1
    elsewhere: weighting a column sum with it gives the load foreign to
    ``me``.  ``skip[q, 1]`` keeps every processor: the total, once per
    processor.  ``columns[p]`` picks chain ``p``'s dynamic demands out
    of a cell's flattened ``[processor, group, kind]`` table: every
    controller group, then its own processor's port.
    """
    skip = np.ones((slots, 2, 1, slots, 1, 1))
    skip[np.arange(slots), 0, 0, np.arange(slots)] = 0.0
    columns = np.array([[(p * slots + g) * 2 for g in range(slots)]
                        + [(p * slots + p) * 2 + 1] for p in range(slots)])
    return skip, columns


class _Pool:
    """The live cells of one attempt, iterated as one set of arrays.

    The Jacobi state is ``contrib[cell, processor, group, kind]``: the
    busy fraction that processor ``p``'s chain puts on controller group
    ``g`` (kind 0) and on processor ``g``'s interconnect port (kind 1).
    Slots of inactive processors, of groups a chain never visits and of
    the padding up to the pool's widest machine hold ``+0.0``; every
    contribution is ``>= 0``, so adding one is exact and a cell's sums
    see the bits they would see if the cell were solved alone.

    The constants (``_CONSTANTS``) share that shape, so a round runs a
    fixed number of numpy operations however many cells are live, and a
    constant is never broadcast.  Controller slots and port slots go
    through the same formulas; on a port slot the constants are the
    identities (a service time of 1, no own background) that reduce
    them, exactly, to the port's.  Per cell remain the mva-memo lookups,
    the watchdog tick, the tail-jump decision and the result.
    """

    #: Per-cell arrays, dropped together when cells leave the pool.
    _FIELDS = ("contrib", "prev", "demands", "kind", "scv", "is_queue")

    def __init__(self, cells: list[_FlowCell], solver: str,
                 damping: float) -> None:
        self.cells = cells
        self.solver = solver
        self.damping = damping
        slots = cells[0].slots
        n_cells = len(cells)
        rows = (n_cells, slots, _GROUPS + slots + 1)
        # ``[constant, cell, processor, group, kind]``, so each constant is
        # one contiguous block: numpy steps contiguous operands of one
        # shape without building an iterator.
        self._constants = np.array([c.constants for c in cells]).reshape(
            n_cells, len(_CONSTANTS), slots, slots, 2).transpose(
                1, 0, 2, 3, 4).copy()
        self.demands = np.array([c.demands for c in cells]).reshape(rows)
        self.kind = np.array([c.kind for c in cells],
                             dtype=np.int8).reshape(rows)
        self.scv = np.array([c.scv for c in cells]).reshape(rows)
        self.is_queue = np.array([c.is_queue for c in cells]).reshape(rows)
        self.contrib = np.zeros((n_cells, slots, slots, 2))
        self.prev = self.contrib
        self._skip, self._columns = _layout(slots)
        self._index()

    def _index(self) -> None:
        """Constants, row offsets and chains of the cells now in the pool."""
        (self.visits, self.mlp, self.rate, self.penalty, self.svc_scale,
         self.base, self.service, self.gap, self.own_bg_weight) = \
            self._constants     # in ``_CONSTANTS`` order
        slots, width = self.kind.shape[1:]
        self._offsets = (np.arange(len(self.cells) * slots)
                         * width).reshape(-1, slots, 1)
        self._chains = []
        for pos, cell in enumerate(self.cells):
            for p, pop, iq in cell.chains:
                j = pos * slots + p
                lo = 8 * j * width
                self._chains.append((j, pop, cell.width, lo,
                                     lo + 8 * cell.width, iq))

    def assemble(self) -> tuple:
        """One Jacobi assembly against the current utilisation state.

        Every processor's network is refreshed against the *previous*
        state, then all contributions update together in :meth:`update`
        (sequential Gauss-Seidel updates would break the symmetry
        between identical processors and drift toward a spurious
        winner-takes-all fixed point).  Rows are sorted into a canonical
        station order (only the throughput is consumed, which does not
        depend on it) so symmetric processors produce bitwise-equal rows
        and collapse to a single solve.  Returns the rows that missed
        the MVA memo and still need solving, one per distinct key, and
        the sorted ``[row, station]`` demands, ``is_queue`` and SCVs
        they index.
        """
        contrib = self.contrib
        n_cells, slots = contrib.shape[:2]
        # Column sums over processors, left to right from +0.0, each
        # ``[cell, processor, group, kind]``: ``foreign`` skips the
        # chain's own processor, ``total`` keeps every processor.
        foreign, total = np.add.accumulate(
            contrib.transpose(1, 0, 2, 3)[:, None, :, None] * self._skip,
            axis=0)[-1]
        # Row-locality degradation: service grows with utilisation,
        # quadratically — a lone stream keeps its row locality until the
        # banks are genuinely crowded, so the degradation concentrates
        # near saturation (this also keeps the feedback loop's mid-range
        # gain low enough for a unique fixed point).
        rho = np.minimum(total, 1.0)
        loaded = self.service + self.gap * rho * rho
        self._scale = loaded * self.penalty
        # Blocking demand misses compete with every foreign stream *and*
        # with this processor's own non-blocking background traffic
        # (write-backs, prefetches), which enters with a small weight.
        # Foreign loads are capped below 1 so the shadow inflation stays
        # finite; the fixed point itself keeps the joint utilisation
        # physical (overload slows every contributor down).  Other
        # chains' lines terminating at a processor occupy its port the
        # same way.
        busy = np.minimum(
            np.minimum(foreign, _RHO_CEILING)
            + 0.25 * (contrib * self.own_bg_weight), _RHO_CEILING)
        demand = self.base * loaded * self.svc_scale \
            * (1.0 + _CONGESTION_GAIN * busy)
        rows = self.demands
        rows[..., _GROUPS:] = demand.reshape(n_cells, -1)[:, self._columns]
        flat = np.lexsort((self.scv, rows, self.kind)) + self._offsets
        d = rows.ravel()[flat]
        sv = self.scv.ravel()[flat]
        d_bytes, sv_bytes = d.tobytes(), sv.tobytes()

        solver = self.solver
        x = [0.0] * (n_cells * slots)
        waiting: dict[tuple, list[int]] = {}
        pending: list[tuple] = []
        for j, pop, width, lo, hi, iq in self._chains:
            key = ("chain", solver, pop, d_bytes[lo:hi], iq, sv_bytes[lo:hi])
            cached = _mva_cache.get(key)
            if cached is not _MISS:
                x[j] = cached
            elif key in waiting:
                waiting[key].append(j)
            else:
                waiting[key] = [j]
                pending.append((key, pop, j, width))
        self._x = x
        self._waiting = waiting
        width = d.shape[-1]
        return (pending, d.reshape(-1, width),
                self.is_queue.reshape(-1, width), sv.reshape(-1, width))

    def update(self, solutions: dict) -> dict[int, "FlowResult | SolverError"]:
        """Apply one damped Jacobi step to every cell in the pool.

        Returns the outcome of each cell that leaves the pool, by its
        position: its result once converged, or the :class:`SolverError`
        of a watchdog trip.  On the final ladder rung a trip is recorded
        and the last iterate accepted instead — a degraded-but-bounded
        answer beats a raise or a hang.
        """
        x = self._x
        for key, waiting in self._waiting.items():
            xv = solutions[key]
            for j in waiting:
                x[j] = xv
        n_cells, n_slots = self.contrib.shape[:2]
        # Channel occupancy includes the non-blocking write-back /
        # prefetch traffic that rides along with each demand miss, and
        # the extra occupancy of remote requests; a remote line occupies
        # the destination processor's port once, however many hops it
        # crossed.  Retries escalate to heavier damping (smaller
        # new-value weight).
        proposed = np.array(x).reshape(n_cells, n_slots, 1, 1) \
            * self.visits * self.mlp * self.rate * self._scale \
            * self.svc_scale
        old = self.contrib
        new = (1.0 - self.damping) * old + self.damping * proposed
        delta = new - old
        self.contrib = new
        flat = delta.reshape(n_cells, -1)
        widest = np.fmax.reduce(np.abs(flat), axis=1, initial=0.0).tolist()
        finished: dict[int, FlowResult | SolverError] = {}
        jumpers: list[int] = []
        for pos, (cell, max_delta) in enumerate(zip(self.cells, widest)):
            if max_delta < 1e-9:
                finished[pos] = self._result(pos)
                continue
            try:
                cell.dog.tick(max_delta)
            except SolverError as exc:
                if not cell.accept_nonconverged:
                    finished[pos] = exc
                    continue
                # Final ladder rung: accept the last iterate, on the record.
                record_event(DegradationEvent(
                    site=FLOW_SITE, action="gave_up", from_stage=self.solver,
                    to_stage=self.solver, detail=exc.message))
                finished[pos] = self._result(pos)
                continue
            if cell.has_prev and cell.jumps < _TAIL_MAX_JUMPS \
                    and max_delta < _TAIL_DELTA:
                jumpers.append(pos)
            cell.has_prev = True
        if jumpers:
            rows = new.reshape(n_cells, -1)
            at: list[int] = []
            values: list[float] = []
            for pos, after, now, before in zip(
                    jumpers, rows[jumpers].tolist(), flat[jumpers].tolist(),
                    self.prev.reshape(n_cells, -1)[jumpers].tolist()):
                cell = self.cells[pos]
                jumped = _tail_jump(cell.keys, after, now, before)
                if jumped is not None:
                    cell.jumps += 1
                    cell.has_prev = False
                    at.extend(pos * rows.shape[1] + k for k in cell.keys)
                    values.extend(jumped)
            if at:
                rows.ravel()[at] = values
        self.prev = delta
        if finished and len(finished) < n_cells:
            keep = [pos for pos in range(n_cells) if pos not in finished]
            self.cells = [self.cells[pos] for pos in keep]
            for name in self._FIELDS:
                setattr(self, name, getattr(self, name)[keep])
            self._constants = self._constants[:, keep]
            self._index()
        return finished

    def _result(self, pos: int) -> FlowResult:
        """The result of the cell at ``pos`` from the current state."""
        n_slots = self.contrib.shape[1]
        return self.cells[pos].finalize(
            self.contrib[pos, :, :, 0].tolist(),
            self._x[pos * n_slots:(pos + 1) * n_slots])


def _tail_jump(keys: list[int], contrib: list[float], delta: list[float],
               prev: list[float]) -> list[float] | None:
    """Extrapolate the geometric tail of one cell's damped fixed point.

    ``contrib``, ``delta`` and ``prev`` are the cell's flattened
    ``[processor, group, kind]`` rows and ``keys`` its proposed keys, in
    ``proposed`` order: for each chain, each visited group, then that
    group's port.  Estimates the common contraction ratio ``r`` from two
    consecutive delta vectors (least squares, summed left to right from
    +0.0) and, when every significant key agrees with it, returns each
    key's contribution plus the remaining series ``delta * r / (1 - r)``;
    otherwise ``None``.
    """
    num = 0.0
    den = 0.0
    for k in keys:
        num += delta[k] * prev[k]
        den += prev[k] * prev[k]
    if den <= 0.0:
        return None
    ratio = num / den
    if not _TAIL_RATIO_LO <= ratio <= _TAIL_RATIO_HI:
        return None
    sizes = [abs(prev[k]) for k in keys]
    significant = max(sizes) * 0.05
    for k, size in zip(keys, sizes):
        if size > significant \
                and abs(delta[k] - ratio * prev[k]) > _TAIL_RATIO_TOL * size:
            return None
    gain = ratio / (1.0 - ratio)
    return [max(contrib[k] + delta[k] * gain, 0.0) for k in keys]
