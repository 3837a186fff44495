"""repro.obs — dependency-free telemetry: metrics, spans, run manifests.

Disabled by default and zero-cost when disabled: every helper below
starts with one ``is None`` check against the active session, and the
DES engine branches once per ``run()`` into an instrumented loop copy.
Enable explicitly::

    from repro import obs

    obs.enable()
    result = run_experiment("fig5", fast=True)
    obs.session().tracer.write_chrome_trace("trace.json")   # -> Perfetto
    print(obs.render_summary(obs.session()))

or from the CLI: ``python -m repro fig5 --trace trace.json --metrics``
and ``python -m repro profile fig5``.

The helpers (:func:`span`, :func:`counter`, :func:`gauge`,
:func:`observe`, :func:`timed`) are what instrumented call sites use;
they are safe to call unconditionally.  See docs/OBSERVABILITY.md for
the metric-name catalogue and the span hierarchy.
"""

from __future__ import annotations

# Bind the state module before ``from repro.obs.state import session``
# rebinds the name ``session`` to the accessor function below.
from repro.obs import state as _state
from repro.obs.diag import (
    FitDiagnostics,
    ParamEstimate,
    error_attribution,
    linear_diagnostics,
    one_param_diagnostics,
    t_quantile,
)
from repro.obs.drift import (
    DriftFinding,
    DriftReport,
    DriftThresholds,
    compare_runs,
)
from repro.obs.htmlreport import render_html, write_html
from repro.obs.log import LOG_SCHEMA, StructuredLog, check_event_name, parse_jsonl
from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest, code_version, new_run_id
from repro.obs.metrics import (
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    check_metric_name,
    unwrap_snapshot,
    wrap_snapshot,
)
from repro.obs.prof import HotSpot, Profiler, ProfileReport, parse_collapsed
from repro.obs.slo import FAST_BURN, SLO_SCHEMA, SLObjective, SLOTracker
from repro.obs.profile import (
    hotspot_table,
    metrics_table,
    render_hotspots,
    render_summary,
    span_table,
    subsystem_table,
)
from repro.obs.state import (
    NOOP_SPAN,
    TelemetrySession,
    disable,
    enable,
    enabled,
    session,
)
from repro.obs.store import ArchivedRun, RunStore, StoreError
from repro.obs.tracing import Span, Tracer
from repro.obs.window import WINDOW_SCHEMA, RollingHistogram

# NOTE: repro.obs.doctor is deliberately not imported here — it reaches
# into repro.experiments (which imports repro.obs) and must stay lazy.

__all__ = [
    "Counter", "Gauge", "Histogram", "Timer", "MetricsRegistry",
    "check_metric_name",
    "SNAPSHOT_SCHEMA", "wrap_snapshot", "unwrap_snapshot",
    "Span", "Tracer",
    "RunManifest", "MANIFEST_SCHEMA", "code_version", "new_run_id",
    "FitDiagnostics", "ParamEstimate", "linear_diagnostics",
    "one_param_diagnostics", "error_attribution", "t_quantile",
    "ArchivedRun", "RunStore", "StoreError",
    "DriftFinding", "DriftReport", "DriftThresholds", "compare_runs",
    "render_html", "write_html",
    "HotSpot", "Profiler", "ProfileReport", "parse_collapsed",
    "StructuredLog", "LOG_SCHEMA", "check_event_name", "parse_jsonl",
    "RollingHistogram", "WINDOW_SCHEMA",
    "SLObjective", "SLOTracker", "FAST_BURN", "SLO_SCHEMA",
    "TelemetrySession", "NOOP_SPAN",
    "enable", "disable", "enabled", "session",
    "span", "counter", "gauge", "gauge_max", "observe", "timed",
    "log_event",
    "span_table", "metrics_table", "render_summary",
    "hotspot_table", "subsystem_table", "render_hotspots",
]


# -- instrumentation helpers (no-ops when disabled) ---------------------------

def span(name: str, **labels):
    """A tracing span context manager, or a shared no-op when disabled."""
    s = _state._active
    if s is None:
        return NOOP_SPAN
    return s.tracer.span(name, **labels)


def counter(name: str, n: float = 1.0, **labels) -> None:
    """Increment a counter if telemetry is enabled."""
    s = _state._active
    if s is not None:
        s.metrics.counter(name, **labels).inc(n)


def gauge(name: str, value: float, **labels) -> None:
    """Set a gauge if telemetry is enabled."""
    s = _state._active
    if s is not None:
        s.metrics.gauge(name, **labels).set(value)


def gauge_max(name: str, value: float, **labels) -> None:
    """Raise a high-water-mark gauge if telemetry is enabled."""
    s = _state._active
    if s is not None:
        s.metrics.gauge(name, **labels).set_max(value)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation if telemetry is enabled."""
    s = _state._active
    if s is not None:
        s.metrics.histogram(name, **labels).observe(value)


def timed(name: str, **labels):
    """A timer context manager recording seconds, no-op when disabled."""
    s = _state._active
    if s is None:
        return NOOP_SPAN
    return s.metrics.timer(name, **labels)


def log_event(event: str, level: str = "info", **fields):
    """Emit a structured log event if telemetry is enabled.

    The innermost open span's name is stamped as the ``span`` field
    (unless the caller provides one), correlating log lines with the
    trace; a ``request_id`` label on any enclosing span is stamped the
    same way, correlating log lines with served requests; bound context
    such as ``run_id`` comes from the session log.  Returns the emitted
    record, or ``None`` when disabled.
    """
    s = _state._active
    if s is None:
        return None
    current = s.tracer.current
    if current is not None and "span" not in fields:
        fields["span"] = current.name
    if "request_id" not in fields:
        request_id = s.tracer.current_label("request_id")
        if request_id is not None:
            fields["request_id"] = request_id
    return s.log.emit(event, level=level, **fields)
