"""Model-boundary edge cases: saturation, stability, degenerate fits.

Hardening-sweep regression tests: each class pins a boundary where the
model must fail loudly (structured error) or stay numerically honest,
rather than dividing by zero or silently extrapolating.
"""

import math

import pytest

from repro.core.regression import linear_fit
from repro.core.uniproc import ModelError, fit_single_processor
from repro.counters.papi import CounterSample
from repro.runtime.flow import FlowResult
from repro.util.validation import ValidationError


def _sample(total, misses=1e9):
    return CounterSample(total_cycles=total, instructions=1e10,
                         stall_cycles=total * 0.6, llc_misses=misses)


def _model(mu=1.0, ell=0.1, r=1e9, ns=(1, 2, 4)):
    """A model fitted from synthetic measurements following eq. 6."""
    samples = {n: _sample(r / (mu - n * ell), misses=r) for n in ns}
    return fit_single_processor(samples)


class TestZeroCycleSamples:
    """Regression: zero measured cycles used to be a bare
    ZeroDivisionError deep inside the 1/C(n) regression."""

    def test_zero_cycles_raises_model_error_naming_the_core_count(self):
        samples = {1: _sample(100.0), 4: _sample(0.0)}
        with pytest.raises(ModelError, match="n=4"):
            fit_single_processor(samples)

    def test_multiple_zero_core_counts_all_named(self):
        samples = {1: _sample(0.0), 2: _sample(100.0), 4: _sample(0.0)}
        with pytest.raises(ModelError, match="n=1, n=4"):
            fit_single_processor(samples)

    def test_zero_cycles_error_is_catchable_as_validation(self):
        with pytest.raises(ValidationError):
            fit_single_processor({1: _sample(0.0), 2: _sample(1.0)})


class TestSaturation:
    """predict_cycles at and near ``saturation_cores`` (n = mu/L)."""

    def test_saturation_cores_value(self):
        model = _model(mu=1.0, ell=0.1)
        assert model.saturation_cores == pytest.approx(10.0)

    def test_at_saturation_raises(self):
        model = _model(mu=1.0, ell=0.1)
        with pytest.raises(ModelError, match="saturated"):
            model.predict_cycles(10)

    def test_beyond_saturation_raises(self):
        model = _model(mu=1.0, ell=0.1)
        with pytest.raises(ModelError, match="saturated"):
            model.predict_cycles(11)

    def test_just_below_saturation_finite_and_monotone(self):
        model = _model(mu=1.0, ell=0.1)
        c8 = model.predict_cycles(8)
        c9 = model.predict_cycles(9)
        assert math.isfinite(c9)
        assert c9 > c8 > 0.0

    def test_contention_free_never_saturates(self):
        model = _model(ell=0.0)
        assert model.saturation_cores == math.inf
        assert model.predict_cycles(10_000) == pytest.approx(
            model.predict_cycles(1))


class TestNearDegenerateFit:
    """linear_fit with tiny-but-nonzero x spacing must stay exact."""

    def test_tiny_spacing_recovers_the_line(self):
        eps = 1e-9
        xs = [1.0, 1.0 + eps, 1.0 + 2 * eps]
        ys = [2.0 + 3.0 * x for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(3.0, rel=1e-3)
        assert fit.predict(1.0) == pytest.approx(5.0, rel=1e-6)

    def test_exactly_degenerate_still_rejected(self):
        with pytest.raises(ValidationError, match="all equal"):
            linear_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_two_point_fit_is_exact_with_close_points(self):
        fit = linear_fit([1.0, 1.0 + 1e-6], [1.0, 1.0 + 2e-6])
        assert fit.slope == pytest.approx(2.0, rel=1e-4)
        assert fit.r2 == pytest.approx(1.0)


class TestFlowResultConstruction:
    """Regression: an empty per-core tuple used to surface as a bare
    ``max()`` ValueError only when makespan_cycles was first read."""

    def test_empty_per_core_cycles_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="per_core_cycles"):
            FlowResult(
                n_active=1, total_cycles=1.0, work_cycles=1.0,
                base_stall_cycles=0.0, memory_stall_cycles=0.0,
                llc_misses=0.0, instructions=1.0,
                per_core_cycles=(), controller_utilisation={})

    def test_makespan_fine_when_nonempty(self):
        result = FlowResult(
            n_active=2, total_cycles=3.0, work_cycles=3.0,
            base_stall_cycles=0.0, memory_stall_cycles=0.0,
            llc_misses=0.0, instructions=1.0,
            per_core_cycles=(1.0, 2.0), controller_utilisation={})
        assert result.makespan_cycles == 2.0
        assert result.solver_stage == "exact"
