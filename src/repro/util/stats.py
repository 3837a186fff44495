"""Small statistics helpers used across measurement and validation code.

Includes the two accuracy metrics the paper reports — per-point relative
error and the R-squared of the 1/C(n) linearity (Table IV).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.validation import ValidationError, check_positive


def relative_error(predicted: float, measured: float) -> float:
    """|predicted - measured| / |measured|.

    ``measured`` must be non-zero; the paper always normalises against a
    measured quantity that is a positive cycle count.
    """
    if measured == 0:
        raise ValidationError("relative_error undefined for measured == 0")
    return abs(predicted - measured) / abs(measured)


def mean_relative_error(predicted: Sequence[float],
                        measured: Sequence[float]) -> float:
    """Average relative error across paired points (the paper's 5-14% metric)."""
    p = np.asarray(predicted, dtype=float)
    m = np.asarray(measured, dtype=float)
    if p.shape != m.shape or p.size == 0:
        raise ValidationError("predicted and measured must be equal-length, non-empty")
    if np.any(m == 0):
        raise ValidationError("measured values must be non-zero")
    return float(np.mean(np.abs(p - m) / np.abs(m)))


def r_squared(y: Sequence[float], y_fit: Sequence[float]) -> float:
    """Coefficient of determination of a fit.

    Defined as ``1 - SS_res / SS_tot``.  When the response is constant
    (``SS_tot == 0``) the fit is perfect iff the residuals are zero; we
    return 1.0 in that case and 0.0 otherwise, matching common practice.
    """
    ya = np.asarray(y, dtype=float)
    fa = np.asarray(y_fit, dtype=float)
    if ya.shape != fa.shape or ya.size == 0:
        raise ValidationError("y and y_fit must be equal-length, non-empty")
    ss_res = float(np.sum((ya - fa) ** 2))
    ss_tot = float(np.sum((ya - ya.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def geometric_mean(xs: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    arr = np.asarray(xs, dtype=float)
    if arr.size == 0:
        raise ValidationError("geometric_mean requires samples")
    if np.any(arr <= 0):
        raise ValidationError("geometric_mean requires positive samples")
    return float(np.exp(np.mean(np.log(arr))))


def coefficient_of_variation(xs: Sequence[float]) -> float:
    """Std/mean of the samples; the burstiness metrics build on this."""
    arr = np.asarray(xs, dtype=float)
    if arr.size < 2:
        raise ValidationError("coefficient_of_variation requires >= 2 samples")
    mean = float(arr.mean())
    check_positive("mean", mean)
    return float(arr.std(ddof=1)) / mean
