"""``repro serve`` — the contention-prediction service.

An asyncio HTTP front end (:class:`PredictionServer`) over the pure
prediction kernel (:mod:`repro.core.predict`): ``POST /predict``
answers one (machine, workload, allocation) cell with ``C(n)``,
``omega(n)`` and per-station utilisations; ``POST /recommend``
enumerates allocations and returns the minimum-slowdown placement.
``GET /metrics`` and ``GET /healthz`` serve the telemetry session's
snapshot and health — extended with the rolling-window block and the
SLO burn-rate state from the per-server
:class:`~repro.serve.stats.ServiceTelemetry` — and every solve goes
through the shared content-addressed caches in :mod:`repro.perf`: a
repeated body is answered on the event loop from the memo of encoded
exact answers, any other is solved on a worker pool.  Each request
carries an ``X-Repro-Request-Id`` and a span tree retrievable via
``GET /debug/requests``; ``GET /dashboard`` renders a script-free
inline-SVG live view.  See docs/SERVING.md.
"""

from repro import _export

_EXPORTS = {
    "MACHINE_PRESETS": "service",
    "MAX_BODY_BYTES": "http",
    "PredictionServer": "http",
    "REQUEST_LOG_SIZE": "stats",
    "RequestLog": "stats",
    "ServiceTelemetry": "stats",
    "get_machine": "service",
    "handle_predict": "service",
    "handle_recommend": "service",
    "new_request_id": "http",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
