"""Transport-free request handlers for the prediction service.

Each handler is a pure function from a decoded JSON body (a ``dict``)
to an ``(http_status, payload_dict)`` pair — no sockets, no asyncio, no
threads — so endpoint behaviour is testable with plain function calls
and the HTTP layer in :mod:`repro.serve.http` stays a thin framing
loop.  Handlers are thread-safe: the server runs them on a worker pool
or, when the answer is cached, on the event loop, and everything they
touch (the memoized solver caches, the telemetry registry) carries its
own synchronization.

Request shapes (see docs/SERVING.md for the full schema):

* ``POST /predict``  — ``{"machine", "program", "size", "n_active"
  [, "n_threads"]}`` → one solved cell: ``C(n)``, ``omega(n)``,
  per-station utilisations;
* ``POST /recommend`` — same identity keys plus optional
  ``"core_counts"`` → candidates scored by predicted makespan, the
  minimum-slowdown placement first.

Validation failures (unknown machine/workload, out-of-range cores,
wrong types) come back as 400 with an ``"error"`` string; only genuine
solver faults surface as 500.

:func:`predict_memoized` / :func:`recommend_memoized` tell the HTTP
layer whether a body's answer is already cached, so it can call the
handler on the event loop instead of hopping to the pool.
"""

from __future__ import annotations

from repro import obs, perf
from repro.core.predict import (
    candidate_allocations,
    flow_cells,
    predict_workload,
    recommend_workload,
    workload_allocation,
)
from repro.machine import amd_numa, intel_numa, intel_uma
from repro.machine.topology import Machine
from repro.obs import names
from repro.perf.keys import flow_key
from repro.resilience.faultinject import solver_fault_armed
from repro.runtime.calibration import memoized_profile
from repro.runtime.flow import FLOW_SITE
from repro.util.validation import ValidationError

#: Service-facing machine registry: short, URL-safe keys (the same keys
#: the calibration table uses) mapped to preset constructors.
MACHINE_PRESETS = {
    "intel_uma": intel_uma,
    "intel_numa": intel_numa,
    "amd_numa": amd_numa,
}

_machines: dict[str, Machine] = {}


def get_machine(key: str) -> Machine:
    """The shared preset instance for a service machine key.

    Machines are immutable model objects; one instance per key is built
    lazily and reused so every request fingerprints the identical
    topology (maximising solver-cache hits).
    """
    try:
        return _machines[key]
    except KeyError:
        pass
    if key not in MACHINE_PRESETS:
        raise ValidationError(
            f"unknown machine {key!r}; have {sorted(MACHINE_PRESETS)}")
    return _machines.setdefault(key, MACHINE_PRESETS[key]())


def _require(body: dict, key: str, kind: type, kindname: str):
    value = body.get(key)
    if value is None:
        raise ValidationError(f"missing required field {key!r}")
    if kind is int and isinstance(value, bool) or \
            not isinstance(value, kind):
        raise ValidationError(
            f"field {key!r} must be {kindname}, got {value!r}")
    return value


def _optional_int(body: dict, key: str):
    value = body.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"field {key!r} must be an integer, got {value!r}")
    return value


def _built_machine(key: str) -> Machine:
    """The shared preset for ``key`` if a request has built it already."""
    machine = _machines.get(key)
    if machine is None:
        raise ValidationError(f"machine {key!r} is not built yet")
    return machine


def _cell_identity(body: dict, lookup=None) -> tuple[Machine, str, str]:
    if not isinstance(body, dict):
        raise ValidationError(
            f"request body must be a JSON object, got {type(body).__name__}")
    machine = (lookup or get_machine)(
        _require(body, "machine", str, "a string"))
    program = _require(body, "program", str, "a string")
    size = _require(body, "size", str, "a string")
    return machine, program, size


def _core_counts(body: dict):
    core_counts = body.get("core_counts")
    if core_counts is not None and not isinstance(core_counts, list):
        raise ValidationError(
            f"field 'core_counts' must be a list of integers, "
            f"got {core_counts!r}")
    return core_counts


def _instrumented(counter_name: str, handler, body) -> tuple[int, dict]:
    """Run one handler with outcome accounting around it.

    Request-level accounting (``serve.requests`` with its
    ``status_class`` dimension, the ``serve.request_seconds`` timer,
    rolling windows and SLO feeds) lives in the HTTP layer's
    :class:`repro.serve.stats.ServiceTelemetry`, which sees *every*
    response path — including framing rejections that never reach a
    handler.  This wrapper owns what only the handler boundary knows:
    the outcome counters.  Cache effectiveness is the cache's own
    ``perf.cache.flow.*`` counters.
    """
    try:
        payload = handler(body)
    except ValidationError as exc:
        obs.counter(names.SERVE_BAD_REQUESTS)
        return 400, {"error": str(exc)}
    except Exception as exc:  # pragma: no cover - solver faults only
        obs.counter(names.SERVE_ERRORS)
        return 500, {"error": f"{type(exc).__name__}: {exc}"}
    obs.counter(counter_name)
    return 200, payload


def _predict_body(body: dict) -> dict:
    machine, program, size = _cell_identity(body)
    n_active = _require(body, "n_active", int, "an integer")
    prediction = predict_workload(
        program, size, machine, n_active,
        n_threads=_optional_int(body, "n_threads"))
    out = prediction.to_dict()
    out["machine"] = body["machine"]  # echo the service key, not the
    return out                        # preset's display name


def _recommend_body(body: dict) -> dict:
    machine, program, size = _cell_identity(body)
    core_counts = _core_counts(body)
    rec = recommend_workload(
        program, size, machine, core_counts=core_counts,
        n_threads=_optional_int(body, "n_threads"))
    out = rec.to_dict()
    out["best"]["machine"] = body["machine"]
    for candidate in out["candidates"]:
        candidate["machine"] = body["machine"]
    return out


def handle_predict(body) -> tuple[int, dict]:
    """``POST /predict`` — one (machine, workload, allocation) cell."""
    return _instrumented(names.SERVE_PREDICTIONS, _predict_body, body)


def handle_recommend(body) -> tuple[int, dict]:
    """``POST /recommend`` — the minimum-slowdown core allocation."""
    return _instrumented(names.SERVE_RECOMMENDATIONS, _recommend_body, body)


def _memoized(allocations, body) -> bool:
    """Whether every flow cell the handler would solve for ``body`` is cached.

    ``allocations(machine, body)`` names the allocations the handler
    solves.  A pure look: no counter, timer, gauge, span or LRU recency
    moves.  Anything that might need work answers False — caches off, a
    flow fault armed (the solver then bypasses the cache), the preset
    not built, the profile not memoized, an invalid body (the handler
    then returns its 400).
    """
    if not perf.caches_enabled() or solver_fault_armed(FLOW_SITE):
        return False
    try:
        machine, program, size = _cell_identity(body, _built_machine)
        profile = memoized_profile(program, size, machine)
        if profile is None:
            return False
        cells = flow_cells(profile, machine, allocations(machine, body))
    except ValidationError:
        return False
    return all(flow_key(*cell) in perf.flow_cache for cell in cells)


def _predict_allocations(machine: Machine, body: dict) -> list:
    return [workload_allocation(
        machine, _require(body, "n_active", int, "an integer"),
        _optional_int(body, "n_threads"))]


def _recommend_allocations(machine: Machine, body: dict) -> list:
    return candidate_allocations(machine, _core_counts(body),
                                 _optional_int(body, "n_threads"))


def predict_memoized(body) -> bool:
    """Whether :func:`handle_predict` can answer ``body`` from the caches."""
    return _memoized(_predict_allocations, body)


def recommend_memoized(body) -> bool:
    """Whether :func:`handle_recommend` can answer ``body`` from the caches."""
    return _memoized(_recommend_allocations, body)


__all__ = [
    "MACHINE_PRESETS",
    "get_machine",
    "handle_predict",
    "handle_recommend",
    "predict_memoized",
    "recommend_memoized",
]
