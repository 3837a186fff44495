"""M/M/c (Erlang-C) queue.

Memory controllers with multiple channels (the Intel NUMA testbed has
triple-channel DDR3, the AMD testbed dual-channel) are modelled as
multi-channel servers; Erlang-C gives their waiting behaviour in the
smooth-traffic limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import names as _names, state as _obs_state
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_positive,
)


def erlang_c(c: int, offered_load: float) -> float:
    """Probability an arrival waits in an M/M/c queue.

    Parameters
    ----------
    c:
        Number of channels (>= 1).
    offered_load:
        ``a = lam/mu`` in Erlangs; requires ``a < c`` for stability.
    """
    check_integer("c", c, minimum=1)
    check_positive("offered_load", offered_load)
    a = offered_load
    if a >= c:
        raise ValidationError(f"unstable M/M/c: offered load {a} >= c={c}")
    # Sum a^k/k! computed iteratively to avoid overflow for large c.
    term = 1.0
    acc = term  # k = 0
    for k in range(1, c):
        term *= a / k
        acc += term
    term *= a / c  # a^c / c!
    tail = term * (c / (c - a))
    tel = _obs_state._active
    if tel is not None:
        tel.metrics.counter(_names.QNET_MMC_ERLANG_C_CALLS).inc()
    return tail / (acc + tail)


@dataclass(frozen=True)
class MMc:
    """An M/M/c queue with per-channel service rate ``mu``."""

    lam: float
    mu: float
    c: int

    def __post_init__(self) -> None:
        check_positive("lam", self.lam)
        check_positive("mu", self.mu)
        check_integer("c", self.c, minimum=1)
        if self.lam >= self.c * self.mu:
            raise ValidationError(
                f"unstable M/M/c: lam={self.lam} >= c*mu={self.c * self.mu}")

    @property
    def offered_load(self) -> float:
        """``a = lam/mu`` in Erlangs."""
        return self.lam / self.mu

    @property
    def rho(self) -> float:
        """Per-channel utilisation ``a/c``."""
        return self.offered_load / self.c

    @property
    def prob_wait(self) -> float:
        """Erlang-C probability that an arrival queues."""
        return erlang_c(self.c, self.offered_load)

    @property
    def mean_wait(self) -> float:
        """Wq = C(c, a) / (c mu - lam)."""
        return self.prob_wait / (self.c * self.mu - self.lam)

    @property
    def mean_response(self) -> float:
        """W = Wq + 1/mu."""
        return self.mean_wait + 1.0 / self.mu

    @property
    def mean_number_in_queue(self) -> float:
        """Lq = lam Wq (Little)."""
        return self.lam * self.mean_wait

    @property
    def mean_number_in_system(self) -> float:
        """L = lam W (Little)."""
        return self.lam * self.mean_response
