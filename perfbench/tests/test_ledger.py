"""Order statistics, self time, and the layer wrappers."""

import importlib

import ledger
import pytest
from util import percentile


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(layer, start, end, parent=None, rid=None, n=0, thread=1):
    return [layer, start, end, thread, parent, rid, n]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 3.0, parent=0),
        _span("b", 2.0, 4.0, parent=0),      # overlaps its sibling
        _span("c", 8.0, 12.0, parent=0),     # clipped to the parent's end
        _span("b", 1.5, 2.5, parent=1),      # b calling b
    ]
    assert ledger.self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 4.0,
                                                      1.0])
    totals = ledger.layer_totals(spans)
    assert totals["a"] == {"calls": 1, "n": 0, "self_s": pytest.approx(5.0)}
    assert totals["b"]["calls"] == 2         # the nested b is not a call
    assert totals["b"]["self_s"] == pytest.approx(4.0)
    assert totals["c"]["self_s"] == pytest.approx(4.0)
    keep = [True, False, False, False, False]
    assert set(ledger.layer_totals(spans, keep)) == {"a"}


def test_covered_merges_and_clips():
    assert ledger.covered(0.0, 10.0, []) == 0.0
    assert ledger.covered(0.0, 10.0, [(1, 2), (2, 3), (5, 20)]) == 7.0
    assert ledger.covered(0.0, 10.0, [(-5, -1), (11, 12)]) == 0.0


def test_request_ledger_splits_server_time_across_threads():
    spans = [
        # pool hop and handler on a worker thread, request t0-0
        _span("serve.pool", 7.0, 7.5, rid="t0-0", thread=2),
        _span("serve.service", 7.5, 9.0, rid="t0-0", thread=2),
        _span("core.predict", 7.6, 8.9, parent=1, thread=2),
        # record: duration 4.0 ending at 10.0, then 0.5 s of telemetry
        _span("serve.stats", 10.0, 10.5, rid="t0-0", n=4.0),
        # a set-up request that must not count
        _span("serve.stats", 20.0, 20.1, rid="s0-0", n=1.0),
    ]
    out = ledger.request_ledger(spans, "t0-")
    assert out["requests"] == 1
    assert out["http_self_s"] == pytest.approx(2.0)
    assert out["server_s"] == pytest.approx(4.5)
    assert out["layers_s"] == pytest.approx(2.5)
    assert out["per_request"] == {"t0-0": pytest.approx(4.5)}
    assert ledger.root_requests(spans) == ["t0-0", "t0-0", "t0-0", "t0-0",
                                           "s0-0"]


def test_wrappers_record_spans_and_restore_the_originals():
    from repro.machine import intel_uma

    # ``repro.core.predict`` the function shadows the module of that name.
    predict = importlib.import_module("repro.core.predict")
    flow = importlib.import_module("repro.runtime.flow")
    http = importlib.import_module("repro.serve.http")
    stats = importlib.import_module("repro.serve.stats")
    originals = {
        "predict.solve_flow": predict.solve_flow,
        "flow.solve_flow": flow.solve_flow,
        "flow._flow_key": flow._flow_key,
        "predict.calibrate_profile": predict.calibrate_profile,
        "http.handle_predict": http.handle_predict,
        "http.ThreadPoolExecutor": http.ThreadPoolExecutor,
    }
    record = stats.ServiceTelemetry.__dict__["record"]
    rec = ledger.Recorder()
    patches = ledger.install(rec, pool=True)
    try:
        assert predict.solve_flow is not originals["predict.solve_flow"]
        assert flow._flow_key is not originals["flow._flow_key"]
        assert http.handle_predict is not originals["http.handle_predict"]
        assert stats.ServiceTelemetry.__dict__["record"] is not record
        predict.predict_workload("CG", "C", intel_uma(), 4)
    finally:
        ledger.uninstall(patches)
    layers = [s[ledger.LAYER] for s in rec.spans]
    assert layers[:2] == ["core.predict", "runtime.calibration"]
    assert layers.count("runtime.flow") == 2
    flow_span = rec.spans[layers.index("runtime.flow")]
    assert flow_span[ledger.N] == 1 and flow_span[ledger.PARENT] == 0
    keys_span = rec.spans[layers.index("perf.keys")]
    assert rec.spans[keys_span[ledger.PARENT]][ledger.LAYER] == "runtime.flow"
    restored = {
        "predict.solve_flow": predict.solve_flow,
        "flow.solve_flow": flow.solve_flow,
        "flow._flow_key": flow._flow_key,
        "predict.calibrate_profile": predict.calibrate_profile,
        "http.handle_predict": http.handle_predict,
        "http.ThreadPoolExecutor": http.ThreadPoolExecutor,
    }
    for name, original in originals.items():
        assert restored[name] is original, name
    assert stats.ServiceTelemetry.__dict__["record"] is record
