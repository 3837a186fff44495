"""Unit + property tests for repro.util.stats."""

import numpy as np
import pytest

from repro.util.stats import (
    coefficient_of_variation,
    geometric_mean,
    mean_relative_error,
    r_squared,
    relative_error,
)
from repro.util.validation import ValidationError


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
