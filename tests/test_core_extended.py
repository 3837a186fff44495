"""Tests for the channel-aware model extension (paper Section VI)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.extended import (
    ChannelAwareModel,
    _nelder_mead,
    fit_channel_aware,
    machine_channel_count,
)
from repro.core.uniproc import ModelError
from repro.counters.papi import CounterSample
from repro.machine import amd_numa, intel_numa, intel_uma
from repro.qnet.mmc import MMc
from repro.runtime.measurement import MeasurementRun


def _sample(total, misses=1e9):
    return CounterSample(total_cycles=total, instructions=1e10,
                         stall_cycles=total * 0.6, llc_misses=misses)


class TestChannelAwareModel:
    def test_prediction_is_erlang_c(self):
        model = ChannelAwareModel(mu_channel=0.01, channels=3, ell=0.002,
                                  r=1e9, baseline_cycles=1e11)
        n = 4
        expected = 1e9 * MMc(lam=n * 0.002, mu=0.01, c=3).mean_response
        assert model.predict_cycles(n) == pytest.approx(expected)

    def test_saturation_guard(self):
        model = ChannelAwareModel(mu_channel=0.01, channels=2, ell=0.005,
                                  r=1e9, baseline_cycles=1e11)
        with pytest.raises(ModelError):
            model.predict_cycles(4)   # 4 * 0.005 = c * mu

    def test_zero_rate_is_pure_service(self):
        model = ChannelAwareModel(mu_channel=0.01, channels=2, ell=0.0,
                                  r=1e9, baseline_cycles=1e11)
        assert model.per_request_cycles(8) == pytest.approx(100.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelError):
            ChannelAwareModel(mu_channel=0.01, channels=2, ell=-1.0,
                              r=1e9, baseline_cycles=1e11)


class TestChannelCount:
    def test_counts_per_machine(self, uma, inuma, anuma):
        assert machine_channel_count(uma) == 2     # dual-channel DDR2
        assert machine_channel_count(inuma) == 3   # triple-channel DDR3
        assert machine_channel_count(anuma) == 4   # 2 controllers x 2


class TestFit:
    def test_recovers_planted_erlang_c(self, inuma):
        # Synthesise measurements that follow the Erlang-C law exactly.
        mu_c, c, ell, r = 0.01, 3, 0.0015, 1e9
        samples = {}
        for n in (1, 2, 12):
            cycles = r * MMc(lam=n * ell, mu=mu_c, c=c).mean_response
            samples[n] = _sample(cycles, misses=r)
        model = fit_channel_aware(samples, inuma)
        assert model.channels == 3
        assert model.ell == pytest.approx(ell, rel=0.05)
        assert model.mu_channel == pytest.approx(mu_c, rel=0.05)

    def test_fit_errors_bounded_on_substrate(self, uma):
        from repro.runtime.measurement import MeasurementRun

        sweep = MeasurementRun("CG", "C", uma).sweep([1, 2, 4])
        model = fit_channel_aware(sweep, uma)
        for n in (1, 2, 4):
            pred = model.predict_cycles(n)
            meas = sweep[n].total_cycles
            assert abs(pred - meas) / meas < 0.15

    def test_needs_baseline(self, uma):
        with pytest.raises(ModelError):
            fit_channel_aware({2: _sample(1e11)}, uma)

    @pytest.mark.parametrize("factory, mu_hex, ell_hex", [
        (intel_uma, "0x1.3328c3fd67082p-8", "0x1.7061d7f5ca894p-10"),
        (intel_numa, "0x1.1478c43c93fcbp-8", "0x1.c9ad709de96c8p-11"),
        (amd_numa, "0x1.1fca6abccf20fp-8", "0x1.10ca249faee41p-10"),
    ], ids=["intel_uma", "intel_numa", "amd_numa"])
    def test_ablation_fits_pinned(self, factory, mu_hex, ell_hex):
        # Frozen values: the CG.C fit of ablation_extended at the
        # default seed, on its (1, 2, cores-per-package) points.  The
        # optimiser's iterates must not move by one bit.
        machine = factory()
        cpp = machine.processors[0].n_logical_cores
        sweep = MeasurementRun("CG", "C", machine).sweep([1, 2, cpp])
        model = fit_channel_aware(sweep, machine)
        assert model.mu_channel.hex() == mu_hex
        assert model.ell.hex() == ell_hex


def _problem(kind, shift, scale, wall):
    """A shifted, scaled 2-D quadratic or Rosenbrock function.

    With ``wall``, points outside ``x0 > 0, 0 <= x1 < 10 x0`` cost 1e9,
    like fit_channel_aware's stability guard.
    """
    def f(x):
        u = (float(x[0]) - shift[0]) / scale[0]
        v = (float(x[1]) - shift[1]) / scale[1]
        if wall and (x[0] <= 0 or x[1] < 0 or x[1] >= 10 * x[0]):
            return 1e9
        if kind == "quadratic":
            return u * u + v * v
        return (1 - u) ** 2 + 100 * (v - u * u) ** 2
    return f


_coord = st.one_of(st.just(0.0), st.floats(-5, 5))


class TestNelderMead:
    @given(kind=st.sampled_from(["quadratic", "rosenbrock"]),
           shift=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
           scale=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
           wall=st.booleans(), x0=st.tuples(_coord, _coord),
           maxiter=st.sampled_from([10, 200, 4000]))
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy(self, kind, shift, scale, wall, x0, maxiter):
        # Bit-identical iterates: the same points are evaluated in the
        # same order and the same vertex is returned.
        from scipy.optimize import minimize

        f = _problem(kind, shift, scale, wall)
        ours_trace, ref_trace = [], []

        def traced(trace):
            def g(x):
                trace.append(np.asarray(x).tobytes())
                return f(x)
            return g

        x = _nelder_mead(traced(ours_trace), np.array(x0), xatol=1e-12,
                         fatol=1e-12, maxiter=maxiter)
        ref = minimize(traced(ref_trace), x0=np.array(x0),
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-12,
                                "maxiter": maxiter})
        assert x.tobytes() == ref.x.tobytes()
        assert ours_trace == ref_trace
