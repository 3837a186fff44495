"""Operational bounds analysis for closed systems.

Model-free sanity rails around the MVA solutions: with total service
demand ``D = sum D_i``, bottleneck demand ``D_max`` and think time ``Z``,
any closed interactive system obeys (Denning & Buzen's operational laws)

    ``X(N) <= min(N / (D + Z), 1 / D_max)``
    ``X(N) >= N / (N D + Z)``          (pessimistic: full queueing)
    ``R(N) >= max(D, N D_max - Z)``

The test suite checks every MVA solution against these bounds.  The
knee ``N* = (D + Z) / D_max`` is the population where the optimistic
bounds cross.  ``examples/capacity_planning.py`` does not use it: it
takes its knee from the fitted contention model, as the largest core
count whose efficiency ``C(1) / C(n)`` is still at least 50%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qnet.mva import ClosedNetwork, DelayStation, QueueingStation
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_nonnegative,
)


@dataclass(frozen=True)
class OperationalBounds:
    """Asymptotic bounds for one closed network."""

    total_demand: float
    max_demand: float
    think_time: float

    def __post_init__(self) -> None:
        check_nonnegative("total_demand", self.total_demand)
        check_nonnegative("max_demand", self.max_demand)
        check_nonnegative("think_time", self.think_time)
        if self.max_demand > self.total_demand:
            raise ValidationError(
                "bottleneck demand cannot exceed total demand")
        if self.total_demand <= 0:
            raise ValidationError("network must have positive demand")

    @classmethod
    def of(cls, network: ClosedNetwork) -> "OperationalBounds":
        """Derive the bounds from a network's stations."""
        queue_demands = [s.demand for s in network.stations
                         if isinstance(s, QueueingStation)]
        think = sum(s.demand for s in network.stations
                    if isinstance(s, DelayStation))
        if not queue_demands:
            raise ValidationError("network has no queueing stations")
        return cls(total_demand=sum(queue_demands),
                   max_demand=max(queue_demands),
                   think_time=think)

    def throughput_upper(self, n: int) -> float:
        """``X(N) <= min(N/(D+Z), 1/D_max)``."""
        check_integer("n", n, minimum=0)
        if n == 0:
            return 0.0
        return min(n / (self.total_demand + self.think_time),
                   1.0 / self.max_demand)

    def throughput_lower(self, n: int) -> float:
        """Pessimistic bound ``X(N) >= N/(N D + Z)``."""
        check_integer("n", n, minimum=0)
        if n == 0:
            return 0.0
        return n / (n * self.total_demand + self.think_time)

    def response_lower(self, n: int) -> float:
        """``R(N) >= max(D, N D_max - Z)``."""
        check_integer("n", n, minimum=1)
        return max(self.total_demand,
                   n * self.max_demand - self.think_time)

    @property
    def knee_population(self) -> float:
        """``N* = (D + Z)/D_max``: where the optimistic bounds cross.

        Below N* the system is latency-limited (adding customers adds
        throughput); above it the bottleneck saturates and extra
        customers only queue — the operational-analysis version of the
        paper's "number of cores that maximises speedup".
        """
        return (self.total_demand + self.think_time) / self.max_demand
