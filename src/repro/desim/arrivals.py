"""Arrival processes for memory-request traffic.

The paper's central traffic observation is that off-chip request streams of
*small* problem sizes are highly bursty (heavy-tailed burst-size CCDF) while
*large*, contention-bound problem sizes produce smooth, near-saturated
traffic.  We model both regimes:

* :class:`PoissonArrivals` — the smooth limit (SCV = 1) assumed by the
  paper's analytical M/M/1 model;
* :class:`OnOffArrivals` — an ON/OFF source whose ON periods can be
  Pareto-distributed, producing the heavy-tailed bursts of small problems;
* :class:`MMPPArrivals` — Markov-modulated Poisson, a multi-level
  generalisation used for phase-structured kernels;
* :class:`HyperexponentialArrivals` / :class:`DeterministicArrivals` —
  parametric SCV control for the flow-level G/G/1 corrections.

Each process exposes its mean rate, an (analytic or estimated) interarrival
squared coefficient of variation, sorted arrival timestamps, and the burst
sampler's per-window counts.  The counts equal binning every timestamp with
``floor_divide`` but are taken against exact window edges
(:func:`_window_edges`): renewal batches are binned as they are made, and an
ON/OFF period that starts and ends in one window adds its count there
without a timestamp per arrival.
"""

from __future__ import annotations

import abc
import functools
import math

import numpy as np

from repro.util.rng import resolve_rng
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_positive,
)


class ArrivalProcess(abc.ABC):
    """A stationary point process of memory-request arrival instants."""

    @property
    @abc.abstractmethod
    def mean_rate(self) -> float:
        """Long-run arrivals per unit time."""

    @abc.abstractmethod
    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        """Draw ``n`` consecutive interarrival times."""

    def interarrival_scv(self) -> float:
        """Squared coefficient of variation of interarrival times.

        Subclasses with a closed form override this; the default estimates
        from 200k simulated interarrivals with the library seed.
        """
        return self.estimate_interarrival_scv(200_000)

    def estimate_interarrival_scv(self, n: int, rng=None) -> float:
        """Monte-Carlo estimate of the interarrival SCV from ``n`` draws."""
        check_integer("n", n, minimum=2)
        x = self.sample_interarrivals(n, rng)
        m = float(x.mean())
        if m <= 0:
            raise ValidationError("degenerate interarrival sample")
        return float(x.var(ddof=1)) / (m * m)

    def arrival_times(self, horizon: float, rng=None) -> np.ndarray:
        """Arrival timestamps in ``[0, horizon)``, ascending.

        Default implementation accumulates interarrivals in batches; heavy
        subclasses override with direct constructions.
        """
        check_positive("horizon", horizon)
        times = np.concatenate(list(self._batches(horizon, resolve_rng(rng))))
        return times[times < horizon]

    def counts_in_windows(self, window: float, n_windows: int,
                          rng=None) -> np.ndarray:
        """Per-window arrival counts over ``n_windows`` windows of ``window``.

        This is the sampled quantity of the paper's 5 microsecond profiler.
        ``counts[i]`` holds the arrivals ``t`` of :meth:`arrival_times` with
        ``floor_divide(t, window) == i`` (clipped to the last window), drawn
        from ``rng`` exactly as :meth:`arrival_times` draws them.
        """
        check_positive("window", window)
        check_integer("n_windows", n_windows, minimum=1)
        horizon = check_positive("horizon", window * n_windows)
        return self._window_counts(_window_edges(window, n_windows), horizon,
                                   resolve_rng(rng))

    def _batches(self, horizon: float, rng):
        """Renewal arrival times in ascending batches past ``horizon``."""
        t = 0.0
        # Expected count plus slack; regenerate until horizon is covered.
        batch = max(1024, int(self.mean_rate * horizon * 1.2) + 16)
        while t < horizon:
            times = t + np.cumsum(self.sample_interarrivals(batch, rng))
            yield times
            t = float(times[-1])

    def _window_counts(self, edges: np.ndarray, horizon: float,
                       rng) -> np.ndarray:
        """Bin each renewal batch where it is made: it is already ascending."""
        counts = np.zeros(edges.size + 1, dtype=np.int64)
        for times in self._batches(horizon, rng):
            counts += _binned(times, edges, horizon)
        return counts


@functools.lru_cache(maxsize=4)
def _window_edges(window: float, n_windows: int) -> np.ndarray:
    """Exact window edges: the least float that bins into each later window.

    ``edges[i-1]`` is the least float ``t`` with
    ``np.floor_divide(t, window) >= i``, for ``i = 1..n_windows-1``.  Float
    ``floor_divide`` is the exact floor of the real quotient, hence
    monotone in ``t``, so ``searchsorted`` of ascending times against these
    edges bins them as ``clip(floor_divide(t, window), 0, n_windows - 1)``
    does.  The rounded product ``i * window`` can miss the edge by an ulp
    either way; ``floor_divide`` itself decides each ``nextafter`` step.
    A sampler asks for the same edges for every stream, so the last few
    are memoized and returned read-only.
    """
    i = np.arange(1, n_windows)
    edges = i * window
    while True:
        low = np.floor_divide(edges, window) < i
        if not low.any():
            break
        edges[low] = np.nextafter(edges[low], np.inf)
    while True:
        down = np.nextafter(edges, -np.inf)
        high = np.floor_divide(down, window) >= i
        if not high.any():
            edges.flags.writeable = False
            return edges
        edges[high] = down[high]


def _binned(times: np.ndarray, edges: np.ndarray,
            horizon: float) -> np.ndarray:
    """Per-window counts of the ascending ``times`` below ``horizon``."""
    below = int(np.searchsorted(times, horizon))
    cuts = np.searchsorted(times[:below], edges)
    return np.diff(cuts, prepend=0, append=below)


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` (SCV = 1)."""

    def __init__(self, rate: float) -> None:
        self.rate = check_positive("rate", rate)

    @property
    def mean_rate(self) -> float:
        return self.rate

    def interarrival_scv(self) -> float:
        return 1.0

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        rng = resolve_rng(rng)
        return rng.exponential(1.0 / self.rate, size=n)

    def counts_in_windows(self, window: float, n_windows: int,
                          rng=None) -> np.ndarray:
        # Direct construction: window counts of a Poisson process are iid
        # Poisson(rate * window).
        check_positive("window", window)
        check_integer("n_windows", n_windows, minimum=1)
        rng = resolve_rng(rng)
        return rng.poisson(self.rate * window, size=n_windows).astype(np.int64)


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals at ``rate`` (SCV = 0) — the saturated limit."""

    def __init__(self, rate: float) -> None:
        self.rate = check_positive("rate", rate)

    @property
    def mean_rate(self) -> float:
        return self.rate

    def interarrival_scv(self) -> float:
        return 0.0

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        return np.full(n, 1.0 / self.rate)


class HyperexponentialArrivals(ArrivalProcess):
    """Two-phase hyperexponential (H2) renewal arrivals with chosen SCV > 1.

    Uses the balanced-means fit: phase probabilities
    ``p = (1 ± sqrt((scv-1)/(scv+1)))/2`` with rates ``2 p rate`` and
    ``2 (1-p) rate``, which matches the requested mean and SCV exactly.
    """

    def __init__(self, rate: float, scv: float) -> None:
        self.rate = check_positive("rate", rate)
        if scv <= 1.0:
            raise ValidationError(f"H2 requires scv > 1, got {scv}")
        self.scv = scv
        root = math.sqrt((scv - 1.0) / (scv + 1.0))
        self.p1 = 0.5 * (1.0 + root)
        self.mu1 = 2.0 * self.p1 * rate
        self.mu2 = 2.0 * (1.0 - self.p1) * rate

    @property
    def mean_rate(self) -> float:
        return self.rate

    def interarrival_scv(self) -> float:
        return self.scv

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        rng = resolve_rng(rng)
        pick1 = rng.random(n) < self.p1
        x = np.empty(n)
        x[pick1] = rng.exponential(1.0 / self.mu1, size=int(pick1.sum()))
        x[~pick1] = rng.exponential(1.0 / self.mu2, size=int((~pick1).sum()))
        return x


def _pareto_durations(rng: np.random.Generator, alpha: float, mean: float,
                      size: int) -> np.ndarray:
    """Pareto durations with shape ``alpha`` and the requested mean.

    Requires ``alpha > 1`` so the mean exists; the scale is
    ``xm = mean (alpha - 1)/alpha``.
    """
    xm = mean * (alpha - 1.0) / alpha
    return xm * (1.0 + rng.pareto(alpha, size=size))


class OnOffArrivals(ArrivalProcess):
    """ON/OFF source: Poisson at ``on_rate`` during ON periods, silent OFF.

    ON durations are Pareto(``alpha``) with mean ``mean_on`` when
    ``heavy_tailed`` (the small-problem bursty regime) or exponential
    otherwise (an interrupted Poisson process, IPP).  OFF durations are
    exponential with mean ``mean_off``.

    The long-run mean rate is ``on_rate * mean_on / (mean_on + mean_off)``.
    """

    def __init__(self, on_rate: float, mean_on: float, mean_off: float,
                 heavy_tailed: bool = True, alpha: float = 1.5) -> None:
        self.on_rate = check_positive("on_rate", on_rate)
        self.mean_on = check_positive("mean_on", mean_on)
        self.mean_off = check_positive("mean_off", mean_off)
        self.heavy_tailed = bool(heavy_tailed)
        if heavy_tailed and alpha <= 1.0:
            raise ValidationError(f"Pareto ON needs alpha > 1, got {alpha}")
        self.alpha = alpha

    @property
    def mean_rate(self) -> float:
        return self.on_rate * self.mean_on / (self.mean_on + self.mean_off)

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the source is ON."""
        return self.mean_on / (self.mean_on + self.mean_off)

    def _period_pairs(self, rng: np.random.Generator,
                      size: int) -> tuple[np.ndarray, np.ndarray]:
        if self.heavy_tailed:
            on = _pareto_durations(rng, self.alpha, self.mean_on, size)
        else:
            on = rng.exponential(self.mean_on, size=size)
        off = rng.exponential(self.mean_off, size=size)
        return on, off

    def _periods(self, horizon: float, rng):
        """ON periods in batches ``(starts, on, counts, u)`` past ``horizon``.

        Period ``k`` starts at ``starts[k]``, lasts ``on[k]`` and holds
        ``counts[k]`` arrivals at ``starts[k] + u * on[k]``, taking its
        ``u`` from ``u`` in period order.  A batch draws
        :meth:`_period_pairs`, then the Poisson counts, then
        ``random(total)`` if it holds any arrival.
        """
        mean_cycle = self.mean_on + self.mean_off
        t = 0.0
        while t < horizon:
            batch = max(64, int((horizon - t) / mean_cycle * 1.3) + 8)
            on, off = self._period_pairs(rng, batch)
            # Alternate ON then OFF; ON period k starts at t + sum of the
            # previous full cycles.
            cycles = on + off
            starts = t + np.concatenate(([0.0], np.cumsum(cycles)[:-1]))
            counts = rng.poisson(self.on_rate * on)
            total = int(counts.sum())
            u = rng.random(total) if total else np.zeros(0)
            yield starts, on, counts, u
            t = float(starts[-1] + cycles[-1])

    def arrival_times(self, horizon: float, rng=None) -> np.ndarray:
        check_positive("horizon", horizon)
        periods = self._periods(horizon, resolve_rng(rng))
        times = np.sort(np.concatenate(
            [np.repeat(starts, counts) + u * np.repeat(on, counts)
             for starts, on, counts, u in periods]))
        return times[times < horizon]

    def _window_counts(self, edges: np.ndarray, horizon: float,
                       rng) -> np.ndarray:
        """Whole periods add their count to one window; the rest get times.

        An arrival ``s + u * on`` with ``0 <= u < 1`` lies in
        ``[s, s + on]`` because rounding is monotone, so a period whose
        start and end bin into one window, ending below ``horizon``, puts
        every arrival there.  Periods starting at or past ``horizon``
        contribute nothing; the others build their times as
        :meth:`arrival_times` does.
        """
        n = edges.size + 1
        # Window i ends at bound[i]: the next edge, or the horizon.
        bound = np.append(edges, horizon)
        out = np.zeros(n, dtype=np.int64)
        for starts, on, counts, u in self._periods(horizon, rng):
            live = int(np.searchsorted(starts, horizon))
            starts, on, k = starts[:live], on[:live], counts[:live]
            # ``starts`` ascend, so each period's window comes from the
            # number of periods starting in each window.
            first = np.repeat(np.arange(n), _binned(starts, edges, horizon))
            whole = starts + on < bound[first]
            # Float weights are exact: every sum stays below 2**53.
            out += np.bincount(first[whole], weights=k[whole],
                               minlength=n).astype(np.int64)
            straddle = np.flatnonzero(~whole & (k > 0))
            if straddle.size:
                c = k[straddle]
                # Period j's draws are u[offset[j]:offset[j] + k[j]].
                offset = (np.cumsum(k) - k)[straddle]
                pos = np.repeat(offset - (np.cumsum(c) - c), c) \
                    + np.arange(int(c.sum()))
                times = np.repeat(starts[straddle], c) \
                    + u[pos] * np.repeat(on[straddle], c)
                out += _binned(np.sort(times), edges, horizon)
        return out

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        rng = resolve_rng(rng)
        # Generate over an expanding horizon until n arrivals are collected.
        horizon = (n + 16) / self.mean_rate
        for _ in range(32):
            times = self.arrival_times(horizon, rng)
            if times.size >= n + 1:
                return np.diff(times[: n + 1])
            horizon *= 2.0
        raise ValidationError("failed to generate requested interarrivals")


class MMPPArrivals(ArrivalProcess):
    """Markov-modulated Poisson process with exponential state holding times.

    ``rates[i]`` is the Poisson rate while in state ``i``; ``mean_holding[i]``
    the mean sojourn in state ``i``.  Transitions cycle uniformly at random
    among the *other* states, which is sufficient generality for modelling
    compute/memory phase alternation in the kernels.
    """

    def __init__(self, rates, mean_holding) -> None:
        self.rates = np.asarray(rates, dtype=float)
        self.mean_holding = np.asarray(mean_holding, dtype=float)
        if self.rates.ndim != 1 or self.rates.shape != self.mean_holding.shape:
            raise ValidationError("rates and mean_holding must be equal-length 1-D")
        if self.rates.size < 2:
            raise ValidationError("MMPP needs at least two states")
        if np.any(self.rates < 0) or np.any(self.mean_holding <= 0):
            raise ValidationError("rates must be >= 0 and holdings > 0")
        if not np.any(self.rates > 0):
            raise ValidationError("at least one state rate must be positive")

    @property
    def n_states(self) -> int:
        return int(self.rates.size)

    @property
    def mean_rate(self) -> float:
        # With uniform cycling the stationary state distribution is
        # proportional to the mean holding times.
        w = self.mean_holding / self.mean_holding.sum()
        return float(np.sum(w * self.rates))

    def _sojourns(self, horizon: float, rng):
        """Arrival times of each sojourn that holds any, past ``horizon``."""
        t = 0.0
        state = int(rng.integers(self.n_states))
        while t < horizon:
            dur = float(rng.exponential(self.mean_holding[state]))
            rate = float(self.rates[state])
            if rate > 0 and dur > 0:
                k = int(rng.poisson(rate * dur))
                if k:
                    yield t + rng.random(k) * dur
            t += dur
            # Uniform jump to one of the other states.
            jump = int(rng.integers(self.n_states - 1))
            state = jump if jump < state else jump + 1

    def _sorted_times(self, horizon: float, rng) -> np.ndarray:
        return np.sort(np.concatenate([np.zeros(0),
                                       *self._sojourns(horizon, rng)]))

    def arrival_times(self, horizon: float, rng=None) -> np.ndarray:
        check_positive("horizon", horizon)
        times = self._sorted_times(horizon, resolve_rng(rng))
        return times[times < horizon]

    def _window_counts(self, edges: np.ndarray, horizon: float,
                       rng) -> np.ndarray:
        return _binned(self._sorted_times(horizon, rng), edges, horizon)

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        rng = resolve_rng(rng)
        horizon = (n + 16) / self.mean_rate
        for _ in range(32):
            times = self.arrival_times(horizon, rng)
            if times.size >= n + 1:
                return np.diff(times[: n + 1])
            horizon *= 2.0
        raise ValidationError("failed to generate requested interarrivals")
