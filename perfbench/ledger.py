"""Layer spans recorded from outside the program, and the ledger built on them.

:func:`install` wraps the public functions of each layer where their
callers look them up: every ``repro`` module attribute bound to the
original function is rebound to the wrapper, and methods are replaced on
their class.  Each call then records one span ``[layer, start, end,
thread, parent, request_id, n]`` in memory; ``parent`` is the index of
the enclosing span on the same thread, and ``n`` is a layer-specific
count (cells solved, rows, windows, arrivals, a failure flag, or for
``serve.stats`` the server-side request duration).  Spans are written to
a file only when the process under test exits.

:func:`layer_totals` and :func:`request_ledger` turn a span list into
per-layer calls, counts and self time.  Self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYER, START, END, THREAD, PARENT, RID, N = range(7)

#: Layer name -> the public functions that enter it.
LAYERS = {
    "serve.service": ("repro.serve.service:handle_predict",
                      "repro.serve.service:handle_recommend"),
    "serve.stats": ("repro.serve.stats:ServiceTelemetry.record",),
    "obs.trace": ("repro.obs.tracing:Tracer.detach_root",
                  "repro.obs.tracing:Span.to_dict"),
    "core.predict": ("repro.core.predict:predict_workload",
                     "repro.core.predict:recommend_workload"),
    "runtime.calibration": ("repro.runtime.calibration:calibrate_profile",),
    "perf.keys": ("repro.perf.keys:flow_key",),
    "runtime.flow": ("repro.runtime.flow:solve_flow",
                     "repro.runtime.flow:solve_flow_cells"),
    "qnet.mva": ("repro.qnet.mva:exact_throughputs_cells",),
    "experiments": ("repro.experiments.runner:run_experiment",),
    "runtime.measurement": (
        "repro.runtime.measurement:MeasurementRun.measure",
        "repro.runtime.measurement:MeasurementRun.sweep",
        "repro.runtime.measurement:MeasurementRun.prime",
        "repro.runtime.measurement:MeasurementRun.omega",
        "repro.runtime.measurement:MeasurementRun.omega_curve",
        "repro.runtime.measurement:prime_runs",
        "repro.runtime.measurement:measure_single",
        "repro.runtime.measurement:measure_curve"),
    "runtime.noise": ("repro.runtime.noise:NoiseModel.sample",),
    "core.fit": ("repro.core.model:fit_model",
                 "repro.core.model:colinearity_fit",
                 "repro.core.model:colinearity_r2",
                 "repro.core.uma:fit_uma",
                 "repro.core.numa:fit_numa",
                 "repro.core.uniproc:fit_single_processor",
                 "repro.core.extended:fit_channel_aware",
                 "repro.core.validate:validate_model",
                 "repro.core.regression:linear_fit"),
    "counters.sampler": ("repro.counters.sampler:BurstSampler.sample",),
    "counters.envelope": ("repro.counters.sampler:phase_envelope",),
    "desim.arrivals": (
        "repro.desim.arrivals:ArrivalProcess.counts_in_windows",
        "repro.desim.arrivals:PoissonArrivals.counts_in_windows",
        "repro.desim.arrivals:ArrivalProcess.arrival_times",
        "repro.desim.arrivals:OnOffArrivals.arrival_times",
        "repro.desim.arrivals:MMPPArrivals.arrival_times"),
    "burst.stats": ("repro.burst.ccdf:ccdf_at",
                    "repro.burst.tail:is_heavy_tailed",
                    "repro.burst.tail:fit_loglog_tail",
                    "repro.burst.selfsimilar:estimate_hurst"),
}


def _current_request(args, kwargs):
    """The request id on the open ``serve.request`` span, if any."""
    from repro import obs

    session = obs.session()
    return session.tracer.current_label("request_id") if session else None


def _units(result) -> int:
    return len(result) if isinstance(result, list) else 1


#: Per-target hooks: ``rid`` finds a top-level span's request id,
#: ``count`` the span's ``n``.
HOOKS = {
    "repro.serve.service:handle_predict": {
        "rid": _current_request, "count": lambda a, k, r: int(r[0] >= 400)},
    "repro.serve.service:handle_recommend": {
        "rid": _current_request, "count": lambda a, k, r: int(r[0] >= 400)},
    "repro.serve.stats:ServiceTelemetry.record": {
        "rid": lambda a, k: k.get("request_id"),
        "count": lambda a, k, r: k["duration_s"]},
    "repro.obs.tracing:Tracer.detach_root": {
        "rid": lambda a, k: a[1].labels.get("request_id")},
    "repro.obs.tracing:Span.to_dict": {
        "rid": lambda a, k: a[0].labels.get("request_id")},
    "repro.core.predict:predict_workload": {"rid": _current_request},
    "repro.core.predict:recommend_workload": {"rid": _current_request},
    "repro.runtime.flow:solve_flow": {"count": lambda a, k, r: 1},
    "repro.runtime.flow:solve_flow_cells": {
        "count": lambda a, k, r: _units(r)},
    "repro.qnet.mva:exact_throughputs_cells": {
        "count": lambda a, k, r: sum(len(block[0]) for block in a[0])},
    "repro.counters.sampler:BurstSampler.sample": {
        "count": lambda a, k, r: r.n_windows},
    "repro.desim.arrivals:ArrivalProcess.counts_in_windows": {
        "count": lambda a, k, r: int(r.sum())},
    "repro.desim.arrivals:PoissonArrivals.counts_in_windows": {
        "count": lambda a, k, r: int(r.sum())},
    "repro.desim.arrivals:ArrivalProcess.arrival_times": {
        "count": lambda a, k, r: len(r)},
    "repro.desim.arrivals:OnOffArrivals.arrival_times": {
        "count": lambda a, k, r: len(r)},
    "repro.desim.arrivals:MMPPArrivals.arrival_times": {
        "count": lambda a, k, r: len(r)},
}


class Recorder:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer: str, start: float, end: float, rid=None) -> None:
        """Record a span timed by the caller (the pool hop)."""
        with self._lock:
            self.spans.append(
                [layer, start, end, threading.get_ident(), None, rid, 0])

    def wrap(self, layer: str, fn, rid=None, count=None):
        """``fn`` with a span recorded around every call."""
        spans, lock, stack_of = self.spans, self._lock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            req = rid(args, kwargs) if rid is not None and parent is None \
                else None
            span = [layer, 0.0, 0.0, threading.get_ident(), parent, req, 0]
            with lock:
                stack.append(len(spans))
                spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[N] = count(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)


def install(rec: Recorder, pool: bool = False) -> list[tuple]:
    """Wrap every layer entry point; return the patches for :func:`uninstall`.

    With ``pool`` the serve module's ``ThreadPoolExecutor`` is replaced
    by a subclass whose ``submit`` records a ``serve.pool`` span from
    submission until the handler starts on a worker thread.
    """
    patches: list[tuple] = []
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            hooks = HOOKS.get(target, {})
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original))
                setattr(cls, attr, rec.wrap(layer, original, **hooks))
                continue
            original = getattr(module, qualname)
            wrapper = rec.wrap(layer, original, **hooks)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
    if pool:
        http = importlib.import_module("repro.serve.http")
        patches.append((http, "ThreadPoolExecutor", http.ThreadPoolExecutor))
        http.ThreadPoolExecutor = _timed_pool(rec, http.ThreadPoolExecutor)
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Put back every original that :func:`install` replaced."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _timed_pool(rec: Recorder, base):
    class TimedPool(base):
        def submit(self, fn, /, *args, **kwargs):
            queued = perf_counter()
            rid = _current_request((), {})

            def timed(*a, **k):
                rec.add("serve.pool", queued, perf_counter(), rid)
                return fn(*a, **k)

            return super().submit(timed, *args, **kwargs)

    return TimedPool


# -- the ledger ----------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered(s[START], s[END], children[i])
            for i, s in enumerate(spans)]


def root_requests(spans: list[list]) -> list:
    """The request id of each span's top-level ancestor."""
    out: list = []
    for s in spans:
        out.append(s[RID] if s[PARENT] is None else out[s[PARENT]])
    return out


def layer_totals(spans: list[list], keep=None) -> dict[str, dict]:
    """Per layer: ``calls`` into it, summed ``n`` and total ``self_s``.

    A call from a layer into itself (a recursive ``to_dict``, a fit
    calling a fit) adds self time but is not counted as a call.
    ``keep`` optionally selects spans by index.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "n": 0, "self_s": 0.0})
    for i, s in enumerate(spans):
        if keep is not None and not keep[i]:
            continue
        row = out[s[LAYER]]
        row["self_s"] += selfs[i]
        parent = s[PARENT]
        if parent is None or spans[parent][LAYER] != s[LAYER]:
            row["calls"] += 1
            row["n"] += s[N]
    return dict(out)


def request_ledger(spans: list[list], prefix: str) -> dict:
    """Server-side time of the requests whose id starts with ``prefix``.

    A request's server-side time is the duration the server passes to
    ``ServiceTelemetry.record`` plus that call itself.  The layers cover
    the part of the duration that top-level spans of the same request
    fill, on any thread; ``serve.http`` is the rest (framing, JSON,
    routing).  Returns totals plus each request's server-side time.
    """
    records = {}
    selfs = self_times(spans)
    for i, s in enumerate(spans):
        if s[LAYER] == "serve.stats" and s[PARENT] is None \
                and str(s[RID]).startswith(prefix):
            records[s[RID]] = (s[START] - s[N], s[START], selfs[i])
    parts: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is None and s[RID] in records \
                and s[LAYER] != "serve.stats":
            parts[s[RID]].append((s[START], s[END]))
    http_self = server = layers = 0.0
    per_request = {}
    for rid, (start, end, record_s) in records.items():
        cover = covered(start, end, parts[rid])
        http_self += end - start - cover
        layers += cover + record_s
        per_request[rid] = end - start + record_s
        server += per_request[rid]
    return {"requests": len(records), "http_self_s": http_self,
            "server_s": server, "layers_s": layers,
            "per_request": per_request}
