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

from repro import _export

_EXPORTS = {
    "ReproError": "errors",
    "ValidationError": "errors",
    "SolverError": "errors",
    "ConvergenceError": "errors",
    "SolverTimeoutError": "errors",
    "WorkerError": "errors",
    "WorkerCrashError": "errors",
    "WorkerTimeoutError": "errors",
    "ExperimentError": "errors",
    "ConvergencePolicy": "watchdog",
    "Watchdog": "watchdog",
    "DEFAULT_POLICY": "watchdog",
    "LADDER": "watchdog",
    "DegradationEvent": "degrade",
    "record_event": "degrade",
    "drain_events": "degrade",
    "peek_events": "degrade",
    "clear_events": "degrade",
    "IsolationPolicy": "isolation",
    "TaskOutcome": "isolation",
    "run_isolated": "isolation",
    "ReportCheckpoint": "checkpoint",
    "CHECKPOINT_SCHEMA": "checkpoint",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
