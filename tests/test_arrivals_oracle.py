"""Window counts and arrival times pinned against a timestamp-then-bin oracle.

The oracle below transcribes the construction the arrival processes used
before window counting moved to exact window edges: every arrival gets a
timestamp (renewal batches by ``cumsum``, ON/OFF periods by
``start + u * on``, MMPP sojourns by ``t + u * dur``), the batches are
concatenated, sorted and cut at the horizon, and the times are binned with
``floor_divide`` -> ``astype`` -> ``clip`` -> ``bincount``.  The library
must return the same counts and the same times and leave a caller's
generator in the same state, so every sampled series (and each CCDF, tail
verdict and Hurst estimate computed from it) stays bit-identical.

Comparing against an oracle, rather than frozen digests, keeps these tests
valid on any numpy release.
"""

import numpy as np
import pytest

from repro.counters import sampler as sampler_module
from repro.counters.sampler import DEFAULT_WINDOW_US, BurstSampler
from repro.desim.arrivals import (
    ArrivalProcess,
    HyperexponentialArrivals,
    MMPPArrivals,
    OnOffArrivals,
)
from repro.experiments.paper_data import FIG4_HEAVY
from repro.machine import intel_numa
from repro.util.rng import resolve_rng

SEEDS = (20110913, 1, 7)
N_WINDOWS = 1250
WINDOW_S = DEFAULT_WINDOW_US * 1e-6
SERIES = tuple(f"{program}.{size}" for program, size in FIG4_HEAVY)


def _renewal_times(p, horizon, rng):
    out = []
    t = 0.0
    batch = max(1024, int(p.mean_rate * horizon * 1.2) + 16)
    while t < horizon:
        gaps = p.sample_interarrivals(batch, rng)
        times = t + np.cumsum(gaps)
        out.append(times)
        t = float(times[-1])
    all_times = np.concatenate(out)
    return all_times[all_times < horizon]


def _onoff_times(p, horizon, rng):
    mean_cycle = p.mean_on + p.mean_off
    out = []
    t = 0.0
    while t < horizon:
        batch = max(64, int((horizon - t) / mean_cycle * 1.3) + 8)
        if p.heavy_tailed:
            xm = p.mean_on * (p.alpha - 1.0) / p.alpha
            on = xm * (1.0 + rng.pareto(p.alpha, size=batch))
        else:
            on = rng.exponential(p.mean_on, size=batch)
        off = rng.exponential(p.mean_off, size=batch)
        cycles = on + off
        starts = t + np.concatenate(([0.0], np.cumsum(cycles)[:-1]))
        counts = rng.poisson(p.on_rate * on)
        total = int(counts.sum())
        if total:
            period_start = np.repeat(starts, counts)
            period_len = np.repeat(on, counts)
            out.append(period_start + rng.random(total) * period_len)
        t = float(starts[-1] + cycles[-1])
    if not out:
        return np.zeros(0)
    all_times = np.sort(np.concatenate(out))
    return all_times[all_times < horizon]


def _mmpp_times(p, horizon, rng):
    out = []
    t = 0.0
    state = int(rng.integers(p.n_states))
    while t < horizon:
        dur = float(rng.exponential(p.mean_holding[state]))
        rate = float(p.rates[state])
        if rate > 0 and dur > 0:
            k = int(rng.poisson(rate * dur))
            if k:
                out.append(t + rng.random(k) * dur)
        t += dur
        jump = int(rng.integers(p.n_states - 1))
        state = jump if jump < state else jump + 1
    if not out:
        return np.zeros(0)
    all_times = np.sort(np.concatenate(out))
    return all_times[all_times < horizon]


def oracle_times(p, horizon, rng):
    """Sorted arrival times in ``[0, horizon)``, built one by one."""
    if isinstance(p, OnOffArrivals):
        return _onoff_times(p, horizon, rng)
    if isinstance(p, MMPPArrivals):
        return _mmpp_times(p, horizon, rng)
    return _renewal_times(p, horizon, rng)


def oracle_counts(p, window, n_windows, rng):
    """Window counts by one ``floor_divide`` per arrival."""
    times = oracle_times(p, window * n_windows, rng)
    idx = np.floor_divide(times, window).astype(np.int64)
    idx = np.clip(idx, 0, n_windows - 1)
    return np.bincount(idx, minlength=n_windows).astype(np.int64)


def _oracle_method(self, window, n_windows, rng=None):
    return oracle_counts(self, window, n_windows, resolve_rng(rng))


@pytest.fixture(scope="module")
def fig4_processes():
    """The process ``arrival_process_for`` builds for each Fig. 4 series.

    Recorded from ``BurstSampler.sample`` itself, so heavy-tailed series
    carry their envelope-boosted rate exactly as the sampler sees it.
    """
    built = {}
    real = sampler_module.arrival_process_for
    sampler = BurstSampler(intel_numa())
    with pytest.MonkeyPatch.context() as mp:
        for program, size in FIG4_HEAVY:
            def record(*args, _key=f"{program}.{size}"):
                built[_key] = real(*args)
                return built[_key]

            mp.setattr(sampler_module, "arrival_process_for", record)
            sampler.sample(program, size, n_windows=N_WINDOWS,
                           rng=np.random.default_rng(SEEDS[0]))
    return built


#: Families the Fig. 4 series do not build, at burst-sampler scale.
OTHER_PROCESSES = {
    "hyperexponential": HyperexponentialArrivals(rate=6e7, scv=4.0),
    "mmpp": MMPPArrivals(rates=[0.0, 2e8, 5e7],
                         mean_holding=[2e-5, 5e-6, 1e-5]),
    # ON periods three windows long, OFF gaps a thousandth of one: nearly
    # every period straddles a window edge, and neighbours nearly touch.
    "onoff-long-exp": OnOffArrivals(on_rate=2e7, mean_on=3 * WINDOW_S,
                                    mean_off=1e-3 * WINDOW_S,
                                    heavy_tailed=False),
    "onoff-long-pareto": OnOffArrivals(on_rate=2e7, mean_on=3 * WINDOW_S,
                                       mean_off=1e-3 * WINDOW_S,
                                       heavy_tailed=True, alpha=1.3),
}


@pytest.fixture
def process(request, fig4_processes):
    name = request.param
    return fig4_processes[name] if name in fig4_processes \
        else OTHER_PROCESSES[name]


ALL_NAMES = SERIES + tuple(OTHER_PROCESSES)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("process", ALL_NAMES, indirect=True)
def test_counts_in_windows_match_oracle(process, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = process.counts_in_windows(WINDOW_S, N_WINDOWS, rng)
    want = oracle_counts(process, WINDOW_S, N_WINDOWS, oracle_rng)
    assert got.dtype == np.int64 and got.shape == (N_WINDOWS,)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("process", ALL_NAMES, indirect=True)
def test_arrival_times_match_oracle(process, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    horizon = WINDOW_S * N_WINDOWS
    got = process.arrival_times(horizon, rng)
    want = oracle_times(process, horizon, oracle_rng)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_processes_are_the_expected_families(fig4_processes):
    kinds = {key: type(p).__name__ for key, p in fig4_processes.items()}
    assert kinds["CG.C"] == "DeterministicArrivals"
    assert kinds["CG.B"] == "OnOffArrivals"
    assert not fig4_processes["CG.B"].heavy_tailed
    assert all(fig4_processes[key].heavy_tailed
               for key in SERIES if key not in ("CG.B", "CG.C"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("series", SERIES)
def test_burst_sampler_matches_oracle(series, seed, monkeypatch):
    program, size = series.split(".")
    sampler = BurstSampler(intel_numa())
    rng = np.random.default_rng(seed)
    got = sampler.sample(program, size, n_windows=N_WINDOWS, rng=rng)
    monkeypatch.setattr(ArrivalProcess, "counts_in_windows", _oracle_method)
    oracle_rng = np.random.default_rng(seed)
    want = sampler.sample(program, size, n_windows=N_WINDOWS, rng=oracle_rng)
    assert np.array_equal(got.counts, want.counts)
    assert got.counts.dtype == want.counts.dtype
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
