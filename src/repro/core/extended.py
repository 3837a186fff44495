"""The paper's proposed model extension (Section VI, future work).

The conclusions sketch how the model could be refined "at the expense of
higher modeling cost, to factor in bus speed and bandwidth, memory size
and bandwidth, number of memory channels, service-discipline of memory
controllers".  This module implements that extension for the number of
memory channels:

The base model folds a ``c``-channel controller into one aggregate
server of rate ``mu`` (M/M/1), so its per-request time is
``1/(mu - nL)``.  The extended model keeps the channels distinct — an
M/M/c with per-channel rate ``mu/c``, where ``c`` is read off the
machine description — and predicts

    ``C(n) = r * (Wq_Erlang-C(n L, mu/c, c) + c/mu)``

Fitting uses the same measured points as the base model; only the
*shape* changes (Erlang-C instead of a single fast server), plus a
numerical refinement instead of the closed-form 1/C regression — the
"higher modeling cost" the paper anticipates.  The ablation benchmark
compares the two variants per machine: channel-awareness helps where
moderate loads dominate the sweep and can hurt where the single-server
pole is the better description of a saturating controller — the
refinement buys accuracy only in specific regimes, exactly as the paper
cautions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.uniproc import ModelError
from repro.counters.papi import CounterSample
from repro.machine.topology import Machine, MemoryArchitecture
from repro.qnet.mmc import MMc
from repro.util.validation import check_integer, check_positive


@dataclass(frozen=True)
class ChannelAwareModel:
    """Eq. 6 refined with the machine's true channel count.

    Attributes
    ----------
    mu_channel:
        Per-channel service rate in requests per cycle (fitted aggregate
        capacity divided by the hardware channel count).
    channels:
        DRAM channels on the first package's controller(s), from the
        machine description.
    ell:
        Fitted per-core arrival rate.
    r:
        Measured off-chip request count.
    """

    mu_channel: float
    channels: int
    ell: float
    r: float
    baseline_cycles: float

    def __post_init__(self) -> None:
        check_positive("mu_channel", self.mu_channel)
        check_integer("channels", self.channels, minimum=1)
        check_positive("r", self.r)
        if self.ell < 0:
            raise ModelError("fitted negative per-core rate")

    def per_request_cycles(self, n: int) -> float:
        """Mean cycles per request with ``n`` cores: Erlang-C response."""
        check_integer("n", n, minimum=1)
        lam = n * self.ell
        if lam <= 0:
            return 1.0 / self.mu_channel
        if lam >= self.channels * self.mu_channel:
            raise ModelError(
                f"extended model saturated at n={n}: "
                f"nL={lam:.3e} >= c mu={self.channels * self.mu_channel:.3e}")
        return MMc(lam=lam, mu=self.mu_channel, c=self.channels).mean_response

    def predict_cycles(self, n: int) -> float:
        """Total cycles with ``n`` active cores on this package."""
        return self.r * self.per_request_cycles(n)

    def predict_omega(self, n: int) -> float:
        """Definition 1 against the measured single-core baseline."""
        return (self.predict_cycles(n) - self.baseline_cycles) \
            / self.baseline_cycles


def machine_channel_count(machine: Machine) -> int:
    """DRAM channel count of the first package — the hardware knowledge
    the extension exploits that the base model aggregates away."""
    if machine.architecture is MemoryArchitecture.UMA:
        return machine.shared_controller.dram.channels
    proc = machine.processors[0]
    return sum(c.dram.channels for c in proc.controllers)


def fit_channel_aware(samples: Mapping[int, CounterSample],
                      machine: Machine) -> ChannelAwareModel:
    """Fit ``(mu, L)`` with the channel count known from the hardware.

    The base model's regression is kept as the starting point (it
    supplies the aggregate capacity scale); a Nelder-Mead refinement then
    minimises the squared relative cycle error of the Erlang-C form over
    the sampled in-package points.  Same data, one extra piece of
    hardware knowledge.
    """
    from repro.core.uniproc import fit_single_processor

    if 1 not in samples:
        raise ModelError("the n=1 baseline measurement is required")
    cpp = machine.processors[0].n_logical_cores
    in_pkg = {n: s for n, s in samples.items() if n <= cpp}
    if len(in_pkg) < 2:
        raise ModelError("need >= 2 in-package samples to fit")
    channels = machine_channel_count(machine)
    base = fit_single_processor(in_pkg)
    r = base.r
    n_max = max(in_pkg)

    def build(mu_total: float, ell: float) -> ChannelAwareModel:
        return ChannelAwareModel(
            mu_channel=mu_total / channels, channels=channels, ell=ell,
            r=r, baseline_cycles=samples[1].total_cycles)

    def loss(theta) -> float:
        mu_total, ell = float(theta[0]), float(theta[1])
        if mu_total <= 0 or ell < 0 or n_max * ell >= 0.999 * mu_total:
            return 1e9
        model = build(mu_total, ell)
        err = 0.0
        for n, sample in in_pkg.items():
            pred = model.predict_cycles(n)
            err += ((pred - sample.total_cycles)
                    / sample.total_cycles) ** 2
        return err

    # Start from the base fit; nudge L inside the stability region.
    ell0 = min(base.ell, 0.9 * base.mu / n_max) if base.ell > 0 \
        else 0.01 * base.mu / n_max
    x = _nelder_mead(loss, np.array([base.mu, ell0]),
                     xatol=1e-12, fatol=1e-12, maxiter=4000)
    mu_total, ell = float(x[0]), float(max(x[1], 0.0))
    if mu_total <= 0:
        raise ModelError("extended fit collapsed to non-positive capacity")
    return build(mu_total, ell)


def _nelder_mead(func: Callable[[np.ndarray], float], x0: np.ndarray,
                 xatol: float, fatol: float, maxiter: int) -> np.ndarray:
    """Minimise ``func`` from ``x0`` with the Nelder-Mead simplex method.

    A transcription of scipy 1.17's ``_minimize_neldermead`` for the
    options used here: no bounds, the standard coefficients, 5% initial
    steps (0.00025 for a zero coordinate) and no cap on evaluations.
    The same numpy expressions run in the same order, so the iterates
    are bit-identical to ``scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", options={"xatol": xatol, "fatol": fatol,
    "maxiter": maxiter})``.  Returns the best vertex.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = func(sim[k])
    # scipy sorts the initial simplex twice; argsort need not be stable
    # on ties, so both sorts are kept.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:   # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:                # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = func(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0]
