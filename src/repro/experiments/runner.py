"""Experiment registry, result type, and the crash-isolated runner.

Failures are *per experiment*, never collective: a driver that raises
comes back as a structured error on its own :class:`ExperimentResult`
(``result.error``, machine-readable code + context) while every sibling
of a multi-experiment run keeps its output.  The parallel fan-out runs
on :func:`repro.resilience.run_isolated` — per-experiment ``submit()``
futures with optional wall-clock timeout and bounded retry — and report
runs can checkpoint completed results for ``--resume``
(docs/RESILIENCE.md).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

from repro import obs
from repro.obs import names as _names
from repro.resilience import degrade, faultinject
from repro.resilience.checkpoint import ReportCheckpoint
from repro.resilience.errors import ExperimentError, ReproError
from repro.resilience.isolation import IsolationPolicy, run_isolated
from repro.util.tables import TextTable
from repro.util.validation import ValidationError

#: name -> module path (each module exposes ``run(fast=..., rng=...)``).
_EXPERIMENTS: dict[str, str] = {
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "table3": "repro.experiments.table3",
    "fig1_fig2": "repro.experiments.fig1_fig2",
    "fig3": "repro.experiments.fig3",
    "fig4": "repro.experiments.fig4",
    "fig5": "repro.experiments.fig5",
    "fig6": "repro.experiments.fig6",
    "table4": "repro.experiments.table4",
    "sp_peak": "repro.experiments.sp_peak",
    "ablation_inputs": "repro.experiments.ablation_inputs",
    "ablation_burstiness": "repro.experiments.ablation_burstiness",
    "ablation_extended": "repro.experiments.ablation_extended",
}


@dataclass
class ExperimentResult:
    """Output of one experiment driver.

    ``tables`` render in reports; ``data`` carries the raw numbers for
    programmatic use (tests, EXPERIMENTS.md generation); ``notes`` list
    qualitative checks with pass/fail verdicts.  A failed run is still
    an ``ExperimentResult``: ``error`` holds the structured record
    (:meth:`repro.resilience.ReproError.to_dict`) and ``ok`` is False.
    """

    name: str
    title: str
    tables: list[TextTable] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Wall-clock seconds of the driver run; set by :func:`run_experiment`.
    wall_time_s: float | None = None
    #: Per-phase timings (seconds) from the span tree, when telemetry is on.
    phase_timings: dict[str, float] = field(default_factory=dict)
    #: JSON-safe fit-quality records keyed by machine/section (see
    #: :func:`repro.core.model.model_diagnostics`); drivers that fit a
    #: model populate it, and the run manifest and ``--archive`` store
    #: carry it for ``repro diff`` / ``repro doctor`` / the HTML report.
    diagnostics: dict = field(default_factory=dict)
    #: The structured run record, when telemetry is on.
    manifest: "obs.RunManifest | None" = None
    #: Structured error record when the run failed, else ``None``.
    error: dict | None = None

    @property
    def ok(self) -> bool:
        """Whether the driver completed (possibly degraded, never failed)."""
        return self.error is None

    def timing_footer(self) -> str | None:
        """One-line wall-clock summary, with top phases when traced."""
        if self.wall_time_s is None:
            return None
        line = f"wall-clock: {self.wall_time_s:.2f} s"
        if self.phase_timings:
            top = sorted(self.phase_timings.items(), key=lambda kv: -kv[1])[:4]
            line += " (" + ", ".join(
                f"{name} {dur:.2f} s" for name, dur in top) + ")"
        return line

    def render(self) -> str:
        """Full text report of the experiment."""
        parts = [f"== {self.title} =="]
        if self.error is not None:
            parts.append(
                f"FAILED [{self.error.get('code', 'repro.error')}]: "
                f"{self.error.get('message', '')}")
        for t in self.tables:
            parts.append(t.render())
        for note in self.notes:
            parts.append(f"note: {note}")
        footer = self.timing_footer()
        if footer is not None:
            parts.append(f"-- {footer}")
        return "\n\n".join(parts)


def available_experiments() -> list[str]:
    """Registered experiment names, in paper order."""
    return list(_EXPERIMENTS)


def load_driver(name: str):
    """Import the driver module registered as ``name`` and return it.

    Importing it also imports everything the driver imports, so a caller
    that times or profiles ``run_experiment`` can pay that cost first.
    """
    try:
        module_path = _EXPERIMENTS[name]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {name!r}; have {available_experiments()}"
        ) from None
    return importlib.import_module(module_path)


def _seed_of(rng) -> int | None:
    """The reproducibility seed recorded in manifests, when known."""
    from repro.util.rng import DEFAULT_SEED

    if rng is None:
        return DEFAULT_SEED
    if isinstance(rng, int) and not isinstance(rng, bool):
        return rng
    return None  # opaque Generator: seed not recoverable


def _degradation_notes() -> list[str]:
    """Drain the resilience event log into note lines."""
    return [event.render() for event in degrade.drain_events()]


def run_experiment(name: str, fast: bool = False, rng=None) -> ExperimentResult:
    """Run one registered experiment by name.

    Always records wall-clock time on the result; with telemetry enabled
    (:func:`repro.obs.enable`) it additionally wraps the driver in an
    ``experiment.<name>`` span, attaches per-phase timings from the span
    tree, and records a :class:`repro.obs.RunManifest` on both the result
    and the telemetry session.

    Solver degradations during the run (see docs/RESILIENCE.md) are
    appended to ``result.notes``.  A driver exception is re-raised as a
    structured :class:`repro.resilience.ExperimentError` that still
    carries the partial diagnostics — wall-clock time, drained
    degradation notes, and (when telemetry is on) the partial manifest,
    which is also recorded on the session — so failed runs stay
    diagnosable.
    """
    module = load_driver(name)

    tel = obs.session()
    degrade.clear_events()  # stale events must not leak into this run
    t0 = time.perf_counter()
    if tel is None:
        try:
            result = module.run(fast=fast, rng=rng)
        except Exception as exc:
            raise _wrap_driver_failure(
                name, exc, time.perf_counter() - t0, manifest=None) from exc
        result.wall_time_s = time.perf_counter() - t0
        result.notes.extend(_degradation_notes())
        return result

    # The manifest's run_id is minted up front and bound to the
    # structured log, so every event of this run — including resilience
    # events emitted deep inside the solver — correlates with the
    # manifest that describes the run.
    run_id = obs.new_run_id()
    tel.log.bind(run_id=run_id, experiment=name)
    obs.log_event(_names.EVENT_EXPERIMENT_STARTED, fast=fast,
                  seed=_seed_of(rng))
    try:
        with tel.tracer.span(f"experiment.{name}", fast=fast) as exp_span:
            result = module.run(fast=fast, rng=rng)
    except Exception as exc:
        wall = time.perf_counter() - t0
        obs.log_event(_names.EVENT_EXPERIMENT_FAILED, level="error",
                      error_type=type(exc).__qualname__, error=str(exc),
                      wall_time_s=round(wall, 6))
        manifest = obs.RunManifest(
            run_id=run_id,
            experiment=name,
            seed=_seed_of(rng),
            fast=fast,
            wall_time_s=wall,
            metrics=tel.metrics.snapshot(),
            notes=[f"FAILED: {type(exc).__name__}: {exc}"]
            + _degradation_notes(),
        )
        tel.record_manifest(manifest)
        tel.log.unbind("run_id", "experiment")
        raise _wrap_driver_failure(name, exc, wall, manifest) from exc
    result.wall_time_s = time.perf_counter() - t0
    obs.log_event(_names.EVENT_EXPERIMENT_FINISHED,
                  wall_time_s=round(result.wall_time_s, 6))
    result.notes.extend(_degradation_notes())
    phases: dict[str, float] = {}
    for child in exp_span.children:
        phases[child.name] = phases.get(child.name, 0.0) \
            + (child.duration or 0.0)
    result.phase_timings = phases
    manifest = obs.RunManifest(
        run_id=run_id,
        experiment=name,
        seed=_seed_of(rng),
        fast=fast,
        wall_time_s=result.wall_time_s,
        phase_timings=phases,
        metrics=tel.metrics.snapshot(),
        diagnostics=dict(result.diagnostics),
        notes=list(result.notes),
    )
    result.manifest = tel.record_manifest(manifest)
    tel.log.unbind("run_id", "experiment")
    return result


def _wrap_driver_failure(name: str, exc: Exception, wall: float,
                         manifest) -> ExperimentError:
    """Build the structured error for a driver exception."""
    return ExperimentError(
        f"experiment {name!r} failed: {type(exc).__name__}: {exc}",
        experiment=name,
        error_type=type(exc).__qualname__,
        wall_time_s=wall,
        manifest=manifest,
        degradations=[e.render() for e in degrade.drain_events()],
    )


def _error_result(name: str, error: ReproError) -> ExperimentResult:
    """The structured per-experiment failure result."""
    wall = getattr(error, "wall_time_s", None)
    manifest = getattr(error, "manifest", None)
    notes = [f"FAILED [{error.code}]: {error.message}"]
    notes.extend(error.context.get("degradations", []))
    return ExperimentResult(
        name=name,
        title=f"{name} — FAILED",
        notes=notes,
        wall_time_s=wall,
        manifest=manifest,
        error=error.to_dict(),
    )


def _run_in_worker(name: str, fast: bool, rng, telemetry: bool,
                   plan, attempt: int
                   ) -> tuple[ExperimentResult, dict | None]:
    """Process-pool entry: run one experiment, return (result, telemetry).

    Lives at module top level so it pickles.  Each worker gets its own
    fresh telemetry session when the parent had one; the metrics
    snapshot and structured-log events travel back for the parent to
    merge.  The per-process solver caches start cold in each worker,
    which cannot change any result value — cached and uncached solves
    are bit-identical.

    ``plan`` is the parent's fault-injection snapshot (installed here so
    injection crosses the process boundary) and ``attempt`` the
    zero-based retry number from the isolation layer.
    """
    faultinject.install(plan)
    faultinject.maybe_fail_experiment(name, attempt)
    if telemetry:
        tel = obs.enable(fresh=True)
        result = run_experiment(name, fast=fast, rng=rng)
        return result, {"metrics": tel.metrics.snapshot(),
                        "events": list(tel.log.events)}
    return run_experiment(name, fast=fast, rng=rng), None


def run_experiments(names: list[str], fast: bool = False, rng=None,
                    jobs: int = 1, *, timeout_s: float | None = None,
                    retries: int = 0,
                    checkpoint: ReportCheckpoint | None = None
                    ) -> list[ExperimentResult]:
    """Run several experiments; failures stay per-experiment.

    With ``jobs <= 1`` the experiments run sequentially in-process; with
    ``jobs > 1`` they fan out over a crash-isolated process pool
    (:func:`repro.resilience.run_isolated`) with per-experiment
    ``timeout_s`` and ``retries`` budgets, and return in the order of
    ``names``; result *values* are identical to serial execution
    (experiments are deterministic given ``rng`` and independent of each
    other).  A failed experiment — driver exception, worker crash or
    death, timeout — comes back as a structured error result
    (``result.error`` set, siblings unaffected); this function only
    raises for invalid arguments.

    When the parent has telemetry enabled, every worker records its own
    session and the parent merges the worker metrics snapshots (counters
    add, extrema combine — see
    :meth:`repro.obs.MetricsRegistry.merge_snapshot`) and records each
    worker's run manifest — including the partial manifest of a failed
    worker — on its own session.

    With ``checkpoint`` set, previously completed results are restored
    instead of re-run, and every completed result is persisted as it
    lands (failed ones are not), which is what ``repro report --resume``
    builds on.
    """
    check_jobs(jobs)
    unknown = [n for n in names if n not in _EXPERIMENTS]
    if unknown:
        raise ValidationError(
            f"unknown experiments {unknown}; have {available_experiments()}")
    tel = obs.session()

    results: dict[int, ExperimentResult] = {}
    todo: list[int] = []
    for i, name in enumerate(names):
        restored = checkpoint.load(name) if checkpoint is not None else None
        if restored is not None:
            restored.notes = list(restored.notes) \
                + ["restored from checkpoint (not re-run)"]
            results[i] = restored
        else:
            todo.append(i)

    if jobs <= 1 or len(todo) <= 1:
        for i in todo:
            results[i] = _run_one_serial(names[i], fast, rng)
    else:
        outcomes = run_isolated(
            _run_in_worker,
            [(names[i], fast, rng, tel is not None, faultinject.snapshot())
             for i in todo],
            jobs=jobs,
            policy=IsolationPolicy(timeout_s=timeout_s, retries=retries),
            labels=[names[i] for i in todo])
        for i, outcome in zip(todo, outcomes):
            name = names[i]
            if outcome.ok:
                result, snap = outcome.value
                results[i] = result
                if tel is not None and snap is not None:
                    tel.metrics.merge_snapshot(snap["metrics"])
                    tel.log.events.extend(snap["events"])
                    if result.manifest is not None:
                        tel.record_manifest(result.manifest)
            else:
                results[i] = _error_result(name, outcome.error)
                manifest = getattr(outcome.error, "manifest", None)
                if tel is not None and manifest is not None:
                    tel.record_manifest(manifest)
                    tel.metrics.merge_snapshot(manifest.metrics)

    if checkpoint is not None:
        for i in todo:
            if results[i].ok:
                checkpoint.store(names[i], results[i])
    return [results[i] for i in range(len(names))]


def _run_one_serial(name: str, fast: bool, rng) -> ExperimentResult:
    """One serial experiment, failure captured as a structured result."""
    try:
        faultinject.maybe_fail_experiment(name, attempt=0)
        return run_experiment(name, fast=fast, rng=rng)
    except ExperimentError as exc:
        return _error_result(name, exc)
    except Exception as exc:  # injected crash before the driver ran
        return _error_result(name, _wrap_driver_failure(name, exc, 0.0, None))


def check_jobs(jobs: int) -> int:
    """Validate a ``--jobs`` value (a positive int)."""
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValidationError(f"jobs must be a positive integer, got {jobs!r}")
    return jobs
