"""Mean Value Analysis for single-class closed queueing networks.

The simulated machines compute their "measured" cycle counts with a closed
network: the ``n`` active cores are customers that alternate between a
compute *delay* station (think time between off-chip requests) and FCFS
*queueing* stations (front-side bus, memory controller, interconnect hops).
This closed-network treatment captures the feedback the paper's open M/M/1
model deliberately abstracts away — cores that wait longer also inject more
slowly — which is exactly why fitting the paper's model to our measurements
produces the small-but-nonzero errors the paper reports.

The degradation ladder of :mod:`repro.runtime.flow` solves every network
through three batched entries, each on ``[chains, stations]`` rows of
single-channel queueing and delay stations:

* :func:`exact_throughputs_cells` — the exact recursion (Reiser &
  Lavenberg) over every row at once, so the coupled fixed point solves
  every processor's network in one numpy pass per Jacobi iteration (a
  batch of a few narrow rows steps on Python floats, to the same bits);
* :func:`schweitzer_throughputs` — Schweitzer approximate MVA, O(sweeps)
  independent of the population;
* :func:`bound_throughputs` — the asymptotic bounds, with no iteration.

Both MVA forms add a residual-service correction for non-exponential
service (per-station SCV), the standard AMVA heuristic.  The flow solver
memoizes their per-chain throughputs in :data:`repro.perf.mva_cache`.
"""

from __future__ import annotations

import numpy as np

from repro.obs import names as _names, state as _obs_state
from repro.resilience.errors import ConvergenceError
from repro.util.validation import ValidationError


def _exact_recursion(demands: np.ndarray, is_queue: np.ndarray,
                     scv: np.ndarray, populations: np.ndarray):
    """Batched exact-MVA recursion on ``[chains, stations]`` arrays.

    Runs the Reiser–Lavenberg recursion for every chain (row) at once,
    with the SCV residual correction.  Chains may have different
    populations: rows are stably sorted by descending population, so
    the rows still stepping at ``k`` are a prefix of the batch.  A row
    leaves the prefix after step ``N`` holding its solution at its own
    ``N``; the original row order is restored on return.

    Every operation is elementwise per row (the only reduction is the
    row-local sum over stations), so a chain's solution is bit-identical
    whether it is solved alone or inside any batch — the property the
    memoization layer relies on.

    Zero total demand is checked once, at ``k = 1``, over every row:
    with ``q >= 0``, ``0 <= u <= 1`` and ``scv >= 0`` each residence is
    at least half its demand, so a later total cannot reach zero.

    Returns ``(x, residence, q, u)``: throughputs ``[C]`` and per-station
    arrays ``[C, S]``.
    """
    pops = populations.tolist()
    order = None
    if any(a < b for a, b in zip(pops, pops[1:])):
        order = np.argsort(-populations, kind="stable")
        pops = sorted(pops, reverse=True)     # stable, like ``order``
        demands, is_queue, scv = demands[order], is_queue[order], scv[order]
    qd = np.where(is_queue, demands, 0.0)
    dd = np.where(is_queue, 0.0, demands)
    scv_term = qd * (scv - 1.0) * 0.5
    # Rows ``[:m]`` are stepping.  Rows ``[hi:]`` have population 0 and
    # keep their initial values; they take part in step 1's check only.
    m = len(pops)
    hi = m
    while hi and pops[hi - 1] < 1:
        hi -= 1
    # ``x`` is kept as a column so it scales each row without an index.
    x = np.zeros((m, 1))
    res = demands
    q = u = np.zeros(demands.shape)
    done = [(x[hi:], demands[hi:], q[hi:], u[hi:])] if hi < m else []
    for k in range(1, (pops[0] if pops else 0) + 1):
        if pops[m - 1] < k and k > 1:
            lo = m
            while pops[lo - 1] < k:
                lo -= 1
            done.append((x[lo:hi], res[lo:hi], q[lo:hi], u[lo:hi]))
            m = hi = lo
            dd, qd, scv_term, q, u = (
                dd[:m], qd[:m], scv_term[:m], q[:m], u[:m])
        res = dd + qd * (1.0 + q) + u * scv_term
        total = np.add.reduce(res, axis=1, keepdims=True)
        if k == 1 and (total <= 0.0).any():
            raise ValidationError("network has zero total demand")
        x = k / total
        q = x * res
        u = np.minimum(x * qd, 1.0)
    out = [x[:hi], res[:hi], q[:hi], u[:hi]]
    if done:
        # Finished blocks sit below the prefix, last to finish first.
        done.reverse()
        out = [np.concatenate([o] + [b[i] for b in done])
               for i, o in enumerate(out)]
    out[0] = out[0][:, 0]
    if order is not None:
        back = np.argsort(order)
        out = [o[back] for o in out]
    return tuple(out)


#: Batches of at most ``_FLOAT_ROWS`` rows, each narrower than
#: ``_FLOAT_WIDTH`` stations, recurse on Python floats: there numpy's
#: per-call cost outweighs its vector speed.  From eight terms numpy
#: sums a row with eight pairwise accumulators, not left to right.
_FLOAT_ROWS = 4
_FLOAT_WIDTH = 8


def _exact_floats(demands: np.ndarray, is_queue: np.ndarray,
                  scv: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """:func:`_exact_recursion`'s throughputs, row by row on Python floats.

    Each row evaluates the recursion's expressions in the same order,
    one correctly rounded IEEE operation per element, so every
    throughput carries the bits :func:`_exact_recursion` computes.  A
    station is its ``(dd, qd, scv_term)``.  Step ``k`` forms step
    ``k - 1``'s ``q = x * res`` and ``u = minimum(x * qd, 1.0)`` as it
    uses them; starting from ``x = 0`` and ``res = 0`` they are the zeros
    the recursion starts from.  The row total adds left to right from
    ``0.0``, which is numpy's order for rows narrower than
    ``_FLOAT_WIDTH``.  ``1.0 if u > 1.0 else u`` is ``np.minimum(u,
    1.0)`` for every float, NaN included (NaN compares false), and costs
    less than ``min(v, 1.0)``.  As there, when any row steps, step 1 of
    every row (population 0 included) is checked for zero total demand,
    and a population-0 row returns ``0.0``.
    """
    pops = populations.tolist()
    stepping = max(pops, default=0) >= 1
    xs = []
    for d, iq, sv, n in zip(demands.tolist(), is_queue.tolist(),
                            scv.tolist(), pops):
        stations = []
        for v, i, s in zip(d, iq, sv):
            qd = v if i else 0.0
            stations.append((0.0 if i else v, qd, qd * (s - 1.0) * 0.5))
        x = 0.0
        res = [0.0] * len(d)
        for k in range(1, (max(n, 1) if stepping else 0) + 1):
            res = [dd + qd * (1.0 + x * r)
                   + (1.0 if (u := x * qd) > 1.0 else u) * scv_term
                   for (dd, qd, scv_term), r in zip(stations, res)]
            total = 0.0
            for r in res:
                total += r
            if k == 1 and total <= 0.0:
                raise ValidationError("network has zero total demand")
            x = k / total
        xs.append(x if n >= 1 else 0.0)
    return np.array(xs)


def _exact_throughputs(demands: np.ndarray, is_queue: np.ndarray,
                       scv: np.ndarray, populations: np.ndarray
                       ) -> np.ndarray:
    """One width batch's throughputs, on floats when the batch is small."""
    if len(populations) <= _FLOAT_ROWS and demands.shape[1] < _FLOAT_WIDTH:
        return _exact_floats(demands, is_queue, scv, populations)
    return _exact_recursion(demands, is_queue, scv, populations)[0]


def exact_throughputs_cells(
        blocks: "list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]",
) -> list[np.ndarray]:
    """Fused multi-cell exact MVA over a ``[cell, chain, station]`` tensor.

    ``blocks`` holds one ``(demands, is_queue, scv, populations)`` tuple
    per grid cell, each a ``[chain, station]`` batch of single-channel
    queueing and delay stations with per-chain populations >= 1.  Cells sharing a station width are
    concatenated into a single ``[cell x chain, station]`` recursion —
    the fused tensor flattened along its first two axes, which is exact
    because every recursion operation is row-independent — while cells
    of different widths run in separate passes: a row must never be
    padded beyond its own cell's width, or crossing numpy's pairwise-
    summation block boundaries could change the last ulp of its demand
    sums and break the bit-compatibility the memoization layer asserts.
    A fused batch of at most ``_FLOAT_ROWS`` rows, each narrower than
    ``_FLOAT_WIDTH`` stations, recurses on Python floats
    (:func:`_exact_floats`), bit for bit; larger or wider batches run
    :func:`_exact_recursion`.

    Telemetry counts one ``qnet.mva.exact.calls`` per chain row,
    ``.iterations`` per customer, and one ``.batches`` plus one
    ``latency.mva.batch_seconds`` observation per fused recursion,
    whichever path ran it.  Returns the per-cell throughput
    arrays in input order.
    """
    tel = _obs_state._active
    out: list[np.ndarray] = [np.empty(0)] * len(blocks)
    by_width: dict[int, list[int]] = {}
    for i, (d, _, _, _) in enumerate(blocks):
        by_width.setdefault(d.shape[1], []).append(i)
    for _, idxs in sorted(by_width.items()):
        if len(idxs) == 1:
            d, iq, sv, pops = blocks[idxs[0]]
        else:
            d = np.concatenate([blocks[i][0] for i in idxs])
            iq = np.concatenate([blocks[i][1] for i in idxs])
            sv = np.concatenate([blocks[i][2] for i in idxs])
            pops = np.concatenate([blocks[i][3] for i in idxs])
        if tel is None:
            x = _exact_throughputs(d, iq, sv, pops)
        else:
            with tel.metrics.timer(_names.LATENCY_MVA_BATCH_SECONDS):
                x = _exact_throughputs(d, iq, sv, pops)
            reg = tel.metrics
            reg.counter(_names.QNET_MVA_EXACT_CALLS).inc(len(pops))
            reg.counter(_names.QNET_MVA_EXACT_ITERATIONS).inc(int(pops.sum()))
            reg.counter(_names.QNET_MVA_EXACT_BATCHES).inc()
        off = 0
        for i in idxs:
            k = len(blocks[i][3])
            out[i] = x[off:off + k]
            off += k
    return out


def _schweitzer_rows(demands: np.ndarray, is_queue: np.ndarray,
                     scv: np.ndarray, pops: np.ndarray, tol: float,
                     max_iter: int):
    """The Schweitzer fixed point on ``[chains, stations]`` rows.

    Every row sweeps until the largest queue-length change over the
    whole batch falls below ``tol``, or ``max_iter`` times.  Each row
    counts one ``qnet.mva.schweitzer.calls`` (and one ``.nonconverged``
    if the batch stopped short).  Returns ``(x, iterations,
    residual)``: throughputs ``[C]``, the sweep count and its residual.
    """
    qd = np.where(is_queue, demands, 0.0)
    dd = np.where(is_queue, 0.0, demands)
    scv_term = qd * (scv - 1.0) * 0.5
    n_chains, n_stations = demands.shape
    shrink = ((pops - 1.0) / pops)[:, None]
    q = np.full_like(demands, 1.0) * (pops[:, None] / n_stations)
    x = np.zeros(n_chains)
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iter + 1):
        u = np.minimum(x[:, None] * qd, 1.0)
        residence = dd + qd * (1.0 + q * shrink) + u * scv_term
        total = residence.sum(axis=1)
        if np.any(total <= 0.0):
            raise ValidationError("network has zero total demand")
        x = pops / total
        q_new = x[:, None] * residence
        residual = float(np.max(np.abs(q_new - q)))
        q = q_new
        if residual < tol:
            break
    tel = _obs_state._active
    if tel is not None:
        reg = tel.metrics
        reg.counter(_names.QNET_MVA_SCHWEITZER_CALLS).inc(n_chains)
        reg.counter(_names.QNET_MVA_SCHWEITZER_ITERATIONS).inc(iterations)
        reg.histogram(_names.QNET_MVA_SCHWEITZER_RESIDUAL).observe(residual)
        if residual >= tol:
            reg.counter(_names.QNET_MVA_SCHWEITZER_NONCONVERGED).inc(n_chains)
    return x, iterations, residual


def schweitzer_throughputs(demands: np.ndarray, is_queue: np.ndarray,
                           scv: np.ndarray, populations: np.ndarray,
                           tol: float = 1e-10,
                           max_iter: int = 100_000) -> np.ndarray:
    """Batched Schweitzer AMVA throughputs on ``[chains, stations]`` rows.

    The degraded counterpart of :func:`exact_throughputs_cells` — same row
    layout (single-channel queueing and delay stations, padded rows
    allowed), O(iterations) independent of the populations, so the flow
    fixed point stays cheap when a chain's exact recursion is abandoned.
    Rows that have not converged after ``max_iter`` sweeps raise
    :class:`~repro.resilience.errors.ConvergenceError` — the caller is
    the ladder, which then falls to the bounds rung.
    """
    pops = populations.astype(float)
    if np.any(pops < 1):
        raise ValidationError("populations must be >= 1")
    x, iterations, residual = _schweitzer_rows(
        demands, is_queue, scv, pops, tol, max_iter)
    if residual >= tol:
        raise ConvergenceError(
            f"batched schweitzer AMVA: no convergence after {iterations} "
            f"iterations (residual {residual:.3e}, tol {tol:.1e})",
            site="qnet.mva.schweitzer", iterations=iterations,
            residual=residual, tol=tol)
    return x


def bound_throughputs(demands: np.ndarray, is_queue: np.ndarray,
                      scv: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Asymptotic-bound throughputs: ``min(N/(D+Z), 1/D_max)`` per row.

    The last rung of the degradation ladder (see docs/RESILIENCE.md):
    no iteration at all, exact in the latency-limited and saturated
    asymptotes, optimistic in between.  ``scv`` is accepted for
    signature parity with the other batched solvers and ignored —
    operational bounds are distribution-free.
    """
    del scv  # distribution-free
    pops = populations.astype(float)
    qd = np.where(is_queue, demands, 0.0)
    total_q = qd.sum(axis=1)
    think = np.where(is_queue, 0.0, demands).sum(axis=1)
    d_max = qd.max(axis=1)
    if np.any(total_q + think <= 0.0):
        raise ValidationError("network has zero total demand")
    latency_bound = pops / (total_q + think)
    with np.errstate(divide="ignore"):
        saturation_bound = np.where(d_max > 0.0, 1.0 / d_max, np.inf)
    return np.minimum(latency_bound, saturation_bound)
