"""Convergence watchdogs and the degradation policy for iterative solvers.

A :class:`Watchdog` sits inside a fixed-point loop and turns the three
silent failure modes — running forever, running too long, and diverging —
into structured :class:`~repro.resilience.errors.SolverError` raises that
the degradation ladder (:mod:`repro.resilience.degrade`) can catch and
act on.  A :class:`ConvergencePolicy` bundles the budgets and the
escalation schedule one solve is allowed to consume.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from repro.resilience.errors import ConvergenceError, SolverTimeoutError
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_positive,
)

#: The degradation ladder's solver stages, coarsest last.
LADDER = ("exact", "schweitzer", "bounds")


@dataclass(frozen=True)
class ConvergencePolicy:
    """Budgets and escalation schedule for one resilient solve.

    Attributes
    ----------
    max_iterations:
        Iteration budget per attempt of the fixed point.
    time_budget_s:
        Optional wall-clock budget per attempt; ``None`` disables it.
        In a pooled flow attempt (``solve_flow_cells``) it counts the
        whole pool's wall time, not one cell's share of it.
    dampings:
        New-value weights of the damped update, one per retry of the
        *same* solver stage — the first entry is the normal damping,
        later entries the escalations (smaller = heavier damping).
    ladder:
        Solver stages to fall through, finest first.  The final stage
        never raises: it accepts its last iterate, so a resilient solve
        always returns a (possibly degraded) answer.
    """

    max_iterations: int = 400
    time_budget_s: float | None = None
    dampings: tuple[float, ...] = (0.5, 0.25)
    ladder: tuple[str, ...] = LADDER

    def __post_init__(self) -> None:
        check_integer("max_iterations", self.max_iterations, minimum=1)
        if self.time_budget_s is not None:
            check_positive("time_budget_s", self.time_budget_s)
        if not self.dampings:
            raise ValidationError("dampings must be non-empty")
        for d in self.dampings:
            if not 0.0 < d <= 1.0:
                raise ValidationError(
                    f"damping {d} must lie in (0, 1]", damping=d)
        unknown = [s for s in self.ladder if s not in LADDER]
        if unknown:
            raise ValidationError(
                f"unknown ladder stages {unknown}; have {list(LADDER)}")
        if not self.ladder:
            raise ValidationError("ladder must be non-empty")

    def attempts(self) -> list[tuple[str, float]]:
        """The ``(solver, damping)`` schedule, finest attempt first.

        The first ladder stage is retried once per damping; later
        stages run once each at the heaviest damping.
        """
        heaviest = self.dampings[-1]
        first, *rest = self.ladder
        return [(first, d) for d in self.dampings] \
            + [(stage, heaviest) for stage in rest]


#: The default policy used by the flow solver.
DEFAULT_POLICY = ConvergencePolicy()


class Watchdog:
    """Iteration/time/divergence guard for one fixed-point attempt.

    Usage::

        dog = Watchdog("runtime.flow", max_iterations=400)
        for _ in range(10**9):
            residual = step()
            if residual < tol:
                break
            dog.tick(residual)    # raises when a budget is exhausted

    ``tick`` raises :class:`ConvergenceError` when the iteration budget
    runs out or the residual goes non-finite, and
    :class:`SolverTimeoutError` when the wall-clock budget runs out.
    """

    def __init__(self, site: str, max_iterations: int = 400,
                 time_budget_s: float | None = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        check_integer("max_iterations", max_iterations, minimum=1)
        if time_budget_s is not None:
            check_positive("time_budget_s", time_budget_s)
        self.site = site
        self.max_iterations = max_iterations
        self.time_budget_s = time_budget_s
        self._clock = clock
        self._started = clock()
        self.iterations = 0
        self.last_residual = math.inf

    def elapsed_s(self) -> float:
        return self._clock() - self._started

    def tick(self, residual: float) -> None:
        """Account one iteration; raise if any budget is exhausted."""
        self.iterations += 1
        self.last_residual = residual
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"{self.site}: residual became non-finite ({residual}) "
                f"after {self.iterations} iterations",
                site=self.site, iterations=self.iterations,
                residual=residual, diverged=True)
        if self.iterations >= self.max_iterations:
            raise ConvergenceError(
                f"{self.site}: no convergence after "
                f"{self.iterations} iterations "
                f"(residual {residual:.3e})",
                site=self.site, iterations=self.iterations,
                residual=residual)
        if self.time_budget_s is not None:
            elapsed = self.elapsed_s()
            if elapsed >= self.time_budget_s:
                raise SolverTimeoutError(
                    f"{self.site}: exceeded {self.time_budget_s:.3g} s "
                    f"budget after {self.iterations} iterations "
                    f"({elapsed:.3g} s elapsed)",
                    site=self.site, iterations=self.iterations,
                    residual=residual, elapsed_s=elapsed,
                    budget_s=self.time_budget_s)
