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

# The helpers below read the state module and the shared no-op span, so
# those two load with the package; every other name loads on first read.
from repro import _export
from repro.obs import state as _state
from repro.obs.state import NOOP_SPAN

_EXPORTS = {
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "Timer": "metrics",
    "MetricsRegistry": "metrics",
    "check_metric_name": "metrics",
    "SNAPSHOT_SCHEMA": "metrics",
    "wrap_snapshot": "metrics",
    "unwrap_snapshot": "metrics",
    "Span": "tracing",
    "Tracer": "tracing",
    "RunManifest": "manifest",
    "MANIFEST_SCHEMA": "manifest",
    "code_version": "manifest",
    "new_run_id": "manifest",
    "FitDiagnostics": "diag",
    "ParamEstimate": "diag",
    "linear_diagnostics": "diag",
    "one_param_diagnostics": "diag",
    "error_attribution": "diag",
    "t_quantile": "diag",
    "ArchivedRun": "store",
    "RunStore": "store",
    "StoreError": "store",
    "DriftFinding": "drift",
    "DriftReport": "drift",
    "DriftThresholds": "drift",
    "compare_runs": "drift",
    "render_html": "htmlreport",
    "write_html": "htmlreport",
    "HotSpot": "prof",
    "Profiler": "prof",
    "ProfileReport": "prof",
    "parse_collapsed": "prof",
    "StructuredLog": "log",
    "LOG_SCHEMA": "log",
    "check_event_name": "log",
    "parse_jsonl": "log",
    "RollingHistogram": "window",
    "WINDOW_SCHEMA": "window",
    "SLObjective": "slo",
    "SLOTracker": "slo",
    "FAST_BURN": "slo",
    "SLO_SCHEMA": "slo",
    "TelemetrySession": "state",
    "enable": "state",
    "disable": "state",
    "enabled": "state",
    "session": "state",
    "span_table": "profile",
    "metrics_table": "profile",
    "render_summary": "profile",
    "hotspot_table": "profile",
    "subsystem_table": "profile",
    "render_hotspots": "profile",
}

__all__ = [
    *_EXPORTS, "NOOP_SPAN",
    "span", "counter", "gauge", "gauge_max", "observe", "timed", "log_event",
]


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})


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
