"""Unit + property tests for repro.util.stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.stats import (
    RunningStats,
    coefficient_of_variation,
    geometric_mean,
    mean_relative_error,
    r_squared,
    relative_error,
)
from repro.util.validation import ValidationError


class TestRunningStats:
    def test_matches_numpy(self, rng):
        xs = rng.normal(5.0, 2.0, size=500)
        acc = RunningStats()
        acc.extend(xs)
        assert acc.count == 500
        assert acc.mean == pytest.approx(float(xs.mean()))
        assert acc.variance == pytest.approx(float(xs.var(ddof=1)))
        assert acc.minimum == pytest.approx(float(xs.min()))
        assert acc.maximum == pytest.approx(float(xs.max()))

    def test_single_sample(self):
        acc = RunningStats()
        acc.add(3.0)
        assert acc.mean == 3.0
        assert acc.variance == 0.0

    def test_empty_mean_raises(self):
        with pytest.raises(ValidationError):
            RunningStats().mean

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_welford_agrees_with_numpy(self, xs):
        acc = RunningStats()
        acc.extend(xs)
        assert acc.mean == pytest.approx(float(np.mean(xs)), abs=1e-6)
        assert acc.variance == pytest.approx(
            float(np.var(xs, ddof=1)), rel=1e-6, abs=1e-6)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.10)

    def test_symmetric_in_sign(self):
        assert relative_error(90.0, 100.0) == pytest.approx(0.10)

    def test_zero_measured_raises(self):
        with pytest.raises(ValidationError):
            relative_error(1.0, 0.0)

    def test_mean_relative_error(self):
        assert mean_relative_error([11, 9], [10, 10]) == pytest.approx(0.10)

    def test_mean_relative_error_shape_mismatch(self):
        with pytest.raises(ValidationError):
            mean_relative_error([1.0], [1.0, 2.0])


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_mean_prediction_gives_zero(self):
        y = [1.0, 2.0, 3.0]
        assert r_squared(y, [2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_constant_y_perfect(self):
        assert r_squared([5, 5, 5], [5, 5, 5]) == 1.0

    def test_constant_y_imperfect(self):
        assert r_squared([5, 5, 5], [5, 5, 6]) == 0.0

    def test_bad_fit_negative(self):
        assert r_squared([1, 2, 3], [3, 2, 1]) < 0


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            geometric_mean([1.0, 0.0])


class TestCoefficientOfVariation:
    def test_constant_is_zero(self):
        assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0

    def test_known_value(self):
        cv = coefficient_of_variation([1.0, 3.0])
        assert cv == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            coefficient_of_variation([1.0])
