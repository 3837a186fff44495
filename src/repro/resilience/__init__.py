"""repro.resilience — fault tolerance across solvers, runtime, pipeline.

One bad input or one crashed worker must degrade a run, not destroy it
(docs/RESILIENCE.md).  The layer has four parts:

* a **structured error taxonomy** (:mod:`repro.resilience.errors`):
  every deliberate failure derives from :class:`ReproError` and carries
  a machine-readable ``code`` plus context;
* **convergence watchdogs** (:mod:`repro.resilience.watchdog`) and the
  event log of the flow solver's **degradation ladder**
  (:mod:`repro.resilience.degrade`): iterative solvers get
  iteration/time budgets, retries with escalated damping, and the
  graceful fall exact MVA → Schweitzer AMVA → operational bounds, every
  step recorded in telemetry and experiment notes;
* a **crash-isolated parallel runner**
  (:mod:`repro.resilience.isolation`, used by
  :func:`repro.experiments.run_experiments`): per-task futures with
  timeout and bounded retry — siblings of a failed task keep their
  results — plus checkpoint/resume of report runs
  (:mod:`repro.resilience.checkpoint`);
* a **fault-injection harness** (:mod:`repro.resilience.faultinject`)
  that deterministically injects solver non-convergence, worker
  crashes/kills and hangs, so all of the above stays testable.
"""

from repro.resilience.checkpoint import CHECKPOINT_SCHEMA, ReportCheckpoint
from repro.resilience.degrade import (
    DegradationEvent,
    clear_events,
    drain_events,
    peek_events,
    record_event,
)
from repro.resilience.errors import (
    ConvergenceError,
    ExperimentError,
    ReproError,
    SolverError,
    SolverTimeoutError,
    ValidationError,
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
)
from repro.resilience.isolation import IsolationPolicy, TaskOutcome, run_isolated
from repro.resilience.watchdog import (
    DEFAULT_POLICY,
    LADDER,
    ConvergencePolicy,
    Watchdog,
)

__all__ = [
    "ReproError", "ValidationError",
    "SolverError", "ConvergenceError", "SolverTimeoutError",
    "WorkerError", "WorkerCrashError", "WorkerTimeoutError",
    "ExperimentError",
    "ConvergencePolicy", "Watchdog", "DEFAULT_POLICY", "LADDER",
    "DegradationEvent", "record_event", "drain_events", "peek_events",
    "clear_events",
    "IsolationPolicy", "TaskOutcome", "run_isolated",
    "ReportCheckpoint", "CHECKPOINT_SCHEMA",
]
