"""The metric-name catalogue: every instrument name, as a constant.

Instrumented call sites import these constants instead of spelling the
dotted name inline — the ``TEL001`` lint rule enforces it.  Keeping the
catalogue in one module means:

* BENCH perf records, run manifests and docs/OBSERVABILITY.md can be
  diffed against a single source of truth;
* renames are one-line changes caught by grep and the test suite;
* a typo becomes an ``ImportError`` at the call site instead of a
  silently forked time series.

Parameterised families (per-cache counters) get a name-*building* helper
here rather than an f-string at the call site, so the shape of the
family is still owned by the catalogue.
"""

from __future__ import annotations

# -- calibration --------------------------------------------------------------
CALIBRATION_FIT_SECONDS = "calibration.fit_seconds"
CALIBRATION_PROFILE_LOOKUPS = "calibration.profile_lookups"

# -- fit diagnostics ----------------------------------------------------------
DIAG_FITS = "diag.fits"
DIAG_INFLUENTIAL_POINTS = "diag.influential_points"

# -- per-cell solve latency (log-bucket histograms; p50/p95/p99 in BENCH) -----
LATENCY_FLOW_BATCH_SECONDS = "latency.flow.batch_seconds"
LATENCY_FLOW_SOLVE_SECONDS = "latency.flow.solve_seconds"
LATENCY_MVA_BATCH_SECONDS = "latency.mva.batch_seconds"

# -- discrete-event engine ----------------------------------------------------
DESIM_EVENTS_PROCESSED = "desim.events_processed"
DESIM_HEAP_DEPTH_MAX = "desim.heap_depth_max"
DESIM_PROCESSES_SPAWNED = "desim.processes_spawned"
DESIM_RUNS = "desim.runs"
DESIM_RUN_SECONDS = "desim.run_seconds"
DESIM_SIM_WALL_RATIO = "desim.sim_wall_ratio"

# -- telemetry self-diagnostics -----------------------------------------------
OBS_EMPTY_SERIES_WARNINGS = "obs.empty_series_warnings"

# -- profiler self-metrics ----------------------------------------------------
PROF_CALLS_RECORDED = "prof.calls_recorded"
PROF_FUNCTIONS_SEEN = "prof.functions_seen"
PROF_WALL_SECONDS = "prof.wall_seconds"

# -- sweep-batched solver kernel ----------------------------------------------
PERF_BATCH_CELLS = "perf.batch.cells"
PERF_BATCH_FALLBACKS = "perf.batch.fallbacks"

# -- queueing solvers ---------------------------------------------------------
QNET_MMC_ERLANG_C_CALLS = "qnet.mmc.erlang_c_calls"
QNET_MVA_EXACT_BATCHES = "qnet.mva.exact.batches"
QNET_MVA_EXACT_CALLS = "qnet.mva.exact.calls"
QNET_MVA_EXACT_ITERATIONS = "qnet.mva.exact.iterations"
QNET_MVA_SCHWEITZER_CALLS = "qnet.mva.schweitzer.calls"
QNET_MVA_SCHWEITZER_ITERATIONS = "qnet.mva.schweitzer.iterations"
QNET_MVA_SCHWEITZER_NONCONVERGED = "qnet.mva.schweitzer.nonconverged"
QNET_MVA_SCHWEITZER_RESIDUAL = "qnet.mva.schweitzer.residual"

# -- resilience layer ---------------------------------------------------------
RESILIENCE_CHECKPOINT_HITS = "resilience.checkpoint.hits"
RESILIENCE_DEGRADATIONS = "resilience.degradations"
RESILIENCE_RETRIES = "resilience.retries"
RESILIENCE_WORKER_FAILURES = "resilience.worker.failures"
RESILIENCE_WORKER_RETRIES = "resilience.worker.retries"
RESILIENCE_WORKER_TIMEOUTS = "resilience.worker.timeouts"

# -- runtime substrate --------------------------------------------------------
RUNTIME_FLOW_NONCONVERGED = "runtime.flow.nonconverged"
RUNTIME_FLOW_SOLVES = "runtime.flow.solves"
RUNTIME_MEASUREMENTS = "runtime.measurements"

# -- prediction service (``repro serve``) -------------------------------------
SERVE_REQUESTS = "serve.requests"
SERVE_ERRORS = "serve.errors"
SERVE_BAD_REQUESTS = "serve.bad_requests"
SERVE_PREDICTIONS = "serve.predictions"
SERVE_RECOMMENDATIONS = "serve.recommendations"
SERVE_REQUEST_SECONDS = "serve.request_seconds"

# -- service SLOs (burn-rate gauges; labels: objective=, window=) -------------
SERVE_SLO_BURN_RATE = "serve.slo.burn_rate"
SERVE_SLO_DEGRADED = "serve.slo.degraded"

# -- rolling windows (keys of the ``windows`` block on ``/metrics``) ----------
# Not registry instruments: these name the windowed views the serving
# layer computes from ``repro.obs.window`` ring buffers.
WINDOW_REQUESTS = "window.requests"
WINDOW_ERRORS = "window.errors"
WINDOW_LATENCY_SECONDS = "window.latency_seconds"

# -- burst sampler ------------------------------------------------------------
SAMPLER_ARRIVALS_GENERATED = "sampler.arrivals_generated"
SAMPLER_RUNS = "sampler.runs"
SAMPLER_WINDOWS_BINNED = "sampler.windows_binned"

# -- run store ----------------------------------------------------------------
STORE_ARCHIVE_SECONDS = "store.archive_seconds"
STORE_RUNS_ARCHIVED = "store.runs_archived"
STORE_RUNS_PRUNED = "store.runs_pruned"

# -- structured-log event catalogue (``EVENT_*``; not metric names) -----------
# The ``TEL004`` lint rule requires instrumented ``log_event``/``emit``
# call sites to import these instead of spelling the event inline.
EVENT_EXPERIMENT_STARTED = "experiment.started"
EVENT_EXPERIMENT_FINISHED = "experiment.finished"
EVENT_EXPERIMENT_FAILED = "experiment.failed"
EVENT_RESILIENCE_RETRY = "resilience.retry"
EVENT_RESILIENCE_DEGRADED = "resilience.degraded"
EVENT_RESILIENCE_GAVE_UP = "resilience.gave_up"
EVENT_WORKER_FAILED = "worker.failed"
EVENT_WORKER_RETRIED = "worker.retried"
EVENT_WORKER_TIMEOUT = "worker.timeout"
EVENT_SERVE_REQUEST = "serve.request_logged"
EVENT_SLO_DEGRADED = "slo.degraded"
EVENT_SLO_RECOVERED = "slo.recovered"


def perf_cache_metric(cache_name: str, event: str) -> str:
    """``perf.cache.<cache>.<event>`` — the per-cache counter family.

    ``event`` is one of ``hits`` / ``misses`` / ``evictions``; the
    family's shape lives here so the regression gate's
    ``perf.cache.`` exclusion prefix and the docs stay authoritative.
    """
    if event not in ("hits", "misses", "evictions"):
        raise ValueError(
            f"unknown perf-cache event {event!r}; "
            "want hits, misses or evictions")
    return f"perf.cache.{cache_name}.{event}"


def all_metric_names() -> list[str]:
    """Every fixed metric-name constant in the catalogue, sorted.

    Used by tests and docs tooling; the parameterised ``perf.cache.*``
    family is excluded (its members depend on the live cache names), as
    are the ``EVENT_*`` structured-log event names, which share the
    dotted shape but name log events, not time series.
    """
    return sorted(
        value for key, value in globals().items()
        if key.isupper() and isinstance(value, str)
        and not key.startswith("EVENT_"))


def all_event_names() -> list[str]:
    """Every structured-log event name in the catalogue, sorted."""
    return sorted(
        value for key, value in globals().items()
        if key.startswith("EVENT_") and isinstance(value, str))
