"""DRAM timing and memory-controller service model.

A controller serves one cache-line request per channel at a time.  Service
time is two-point distributed: a *row hit* (the line's DRAM row is already
open) completes in ``row_hit_ns``, a *row conflict* requires precharge +
activate and takes ``row_conflict_ns``.  The mix probability and the
channel count determine the controller's aggregate service rate ``mu`` in
cycles — the quantity the paper's model estimates by regression.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import Frequency, ns_to_cycles
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_nonnegative,
    check_positive,
    check_probability,
)


def two_point_service_moments(fast: float, slow: float,
                              p_slow: float) -> tuple[float, float]:
    """Mean and SCV of a two-point service time (row hit vs row conflict).

    Returns ``(mean, scv)`` for service that takes ``fast`` with
    probability ``1 - p_slow`` and ``slow`` with probability ``p_slow``.
    """
    check_positive("fast", fast)
    check_positive("slow", slow)
    if not 0.0 <= p_slow <= 1.0:
        raise ValidationError(f"p_slow={p_slow} must be in [0, 1]")
    if slow < fast:
        raise ValidationError("slow service must be >= fast service")
    mean = (1.0 - p_slow) * fast + p_slow * slow
    second = (1.0 - p_slow) * fast ** 2 + p_slow * slow ** 2
    var = second - mean ** 2
    return mean, var / (mean ** 2)


@dataclass(frozen=True)
class DramTiming:
    """Timing parameters of one memory controller's DRAM array.

    Parameters
    ----------
    row_hit_ns:
        Latency of a request that hits an open row (CAS-limited).
    row_conflict_ns:
        Latency of a request that must precharge and re-activate.
    p_conflict:
        Fraction of requests that conflict when a single stream has the
        banks to itself (light load).
    channels:
        Independent DRAM channels on this controller.
    p_conflict_saturated:
        Conflict fraction when many interleaved streams contend for the
        banks (utilisation near 1) — interleaving destroys row locality,
        so the *effective service time grows with load*.  Defaults to
        ``min(0.95, 2.5 * p_conflict)``.  This load dependence is what
        lets measured contention exceed the core-per-controller ratio, as
        the paper's SP.C (omega = 11.6 on 24 cores / 2 controllers) does.
    """

    row_hit_ns: float
    row_conflict_ns: float
    p_conflict: float
    channels: int
    p_conflict_saturated: float | None = None
    #: Fixed, pipelined access latency a request pays end-to-end even on an
    #: idle system (controller processing, CAS, data return) *beyond* the
    #: channel-occupancy service time.  Overlapped requests share it.
    idle_latency_ns: float = 0.0

    def __post_init__(self) -> None:
        check_positive("row_hit_ns", self.row_hit_ns)
        check_positive("row_conflict_ns", self.row_conflict_ns)
        if self.row_conflict_ns < self.row_hit_ns:
            raise ValueError("row conflict must be at least as slow as a hit")
        check_probability("p_conflict", self.p_conflict)
        check_integer("channels", self.channels, minimum=1)
        check_nonnegative("idle_latency_ns", self.idle_latency_ns)
        if self.p_conflict_saturated is not None:
            check_probability("p_conflict_saturated", self.p_conflict_saturated)
            if self.p_conflict_saturated < self.p_conflict:
                raise ValueError(
                    "saturated conflict fraction cannot be below the "
                    "light-load fraction")

    @property
    def p_conflict_sat(self) -> float:
        """Resolved saturated conflict fraction (see class docstring)."""
        if self.p_conflict_saturated is not None:
            return self.p_conflict_saturated
        return min(0.95, 2.5 * self.p_conflict)

    def conflict_probability_at(self, utilisation: float) -> float:
        """Conflict fraction at a given controller utilisation (linear)."""
        check_probability("utilisation", utilisation)
        return self.p_conflict + (self.p_conflict_sat - self.p_conflict) \
            * utilisation

    def mean_service_cycles_at(self, freq: Frequency,
                               utilisation: float) -> float:
        """Load-dependent mean per-channel service time in cycles."""
        p = self.conflict_probability_at(utilisation)
        mean_ns = (1.0 - p) * self.row_hit_ns + p * self.row_conflict_ns
        return ns_to_cycles(mean_ns, freq)

    def service_moments_ns(self) -> tuple[float, float]:
        """``(mean_ns, scv)`` of the per-channel service time."""
        return two_point_service_moments(
            self.row_hit_ns, self.row_conflict_ns, self.p_conflict)

    def mean_service_cycles(self, freq: Frequency) -> float:
        """Mean per-channel service time in core cycles."""
        mean_ns, _ = self.service_moments_ns()
        return ns_to_cycles(mean_ns, freq)

    def service_scv(self) -> float:
        """SCV of the per-channel service time (row-hit/conflict mix)."""
        _, scv = self.service_moments_ns()
        return scv

    def aggregate_service_rate(self, freq: Frequency) -> float:
        """Controller service rate ``mu`` in requests per core cycle.

        All channels pooled: ``channels / mean_service_cycles``.  This is
        the quantity the paper's regression recovers as ``mu``.
        """
        return self.channels / self.mean_service_cycles(freq)

    def idle_latency_cycles(self, freq: Frequency) -> float:
        """Fixed access latency in core cycles."""
        return ns_to_cycles(self.idle_latency_ns, freq) \
            if self.idle_latency_ns else 0.0

    def sample_service_ns(self, rng, size: int):
        """Draw ``size`` two-point service times in nanoseconds (for DES)."""
        import numpy as np

        conflicts = rng.random(size) < self.p_conflict
        return np.where(conflicts, self.row_conflict_ns, self.row_hit_ns)
