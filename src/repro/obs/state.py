"""Telemetry session state and the zero-cost disabled path.

One :class:`TelemetrySession` binds a metrics registry, a tracer and the
manifests collected by the experiment runner.  The module-level active
session is ``None`` by default — every instrumentation helper in
:mod:`repro.obs` starts with a single ``is None`` check, and the hottest
site (the DES engine event loop) branches *once* per ``run()`` call into
an instrumented copy of the loop, so disabled telemetry costs nothing
per event.
"""

from __future__ import annotations

from repro.obs.log import StructuredLog
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


class _NoopSpan:
    """Stateless reentrant context manager used when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class TelemetrySession:
    """Everything one enabled run collects."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.log = StructuredLog()
        self.manifests: list[RunManifest] = []

    def record_manifest(self, manifest: RunManifest) -> RunManifest:
        self.manifests.append(manifest)
        return manifest


#: The active session, or ``None`` when telemetry is disabled (default).
_active: TelemetrySession | None = None


def enable(fresh: bool = False) -> TelemetrySession:
    """Turn telemetry on; returns the active session.

    Idempotent: re-enabling keeps the session and its accumulated data
    unless ``fresh=True``, which starts a new one.
    """
    global _active
    if _active is None or fresh:
        _active = TelemetrySession()
    return _active


def disable() -> None:
    """Turn telemetry off and drop the active session."""
    global _active
    _active = None


def session() -> TelemetrySession | None:
    """The active session, or ``None`` when disabled."""
    return _active


def enabled() -> bool:
    """Whether a telemetry session is active."""
    return _active is not None
