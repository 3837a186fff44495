"""Tests of the benchmark regression gate's comparison rules."""

import json
import os
import sys


sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks"))

import check_regression as cr  # noqa: E402
import perf_record  # noqa: E402


def record(calls=100.0, wall=1.0, host="hostA", extra_metrics=None):
    metrics = {
        "qnet.mva.exact.calls": {"kind": "counter", "value": calls},
        "perf.cache.flow.hits": {"kind": "counter", "value": 9999.0},
        "desim.heap_depth": {"kind": "gauge", "value": 3.0},
    }
    metrics.update(extra_metrics or {})
    return {
        "benchmark": "table2",
        "wall_time_s": wall,
        "environment": {"hostname": host, "cpu_count": 4,
                        "python_version": "3.11.7"},
        "metrics": metrics,
    }


class TestGatedCounters:
    def test_suffix_whitelist_and_exclusions(self):
        counters = cr.gated_counters(record(extra_metrics={
            "runtime.flow.solves": {"kind": "counter", "value": 7.0},
            "desim.events_processed": {"kind": "counter", "value": 5.0},
            "runtime.measurements": {"kind": "counter", "value": 60.0},
        }))
        assert counters == {
            "qnet.mva.exact.calls": 100.0,
            "runtime.flow.solves": 7.0,
            "desim.events_processed": 5.0,
        }  # perf.cache.* excluded, gauges excluded, .measurements not gated

    def test_schema_wrapped_snapshot(self):
        # The current perf_record form: metrics carry snapshot_schema +
        # instruments (repro.obs.metrics.wrap_snapshot).
        rec = record()
        rec["metrics"] = {"snapshot_schema": 1,
                          "instruments": rec["metrics"]}
        assert cr.gated_counters(rec) == {"qnet.mva.exact.calls": 100.0}

    def test_wrapped_fresh_vs_unwrapped_baseline(self):
        fresh = record(calls=102.0)
        fresh["metrics"] = {"snapshot_schema": 1,
                            "instruments": fresh["metrics"]}
        failures, _ = cr.compare_records(record(), fresh)
        assert failures == []
        fresh = record(calls=500.0)
        fresh["metrics"] = {"snapshot_schema": 1,
                            "instruments": fresh["metrics"]}
        failures, _ = cr.compare_records(record(), fresh)
        assert len(failures) == 1

    def test_wrapped_empty_instruments(self):
        assert cr.gated_counters(
            {"metrics": {"snapshot_schema": 1, "instruments": None}}) == {}

    def test_labelled_key_gated_like_drift(self):
        # One predicate (repro.obs.drift) decides for both gates: the
        # name before the labels is what is matched.
        from repro.obs.drift import _gated_counters
        metrics = {
            "qnet.mva.exact.calls{x=y}": {"kind": "counter", "value": 3.0},
            "perf.cache.flow.calls{x=y}": {"kind": "counter",
                                           "value": 4.0},
            "serve.requests{status_class=2xx}": {"kind": "counter",
                                                 "value": 5.0},
        }
        want = {"qnet.mva.exact.calls{x=y}": 3.0}
        assert cr.gated_counters({"metrics": metrics}) == want
        assert _gated_counters(metrics) == want


def old_record(calls=100.0, wall=1.0):
    """A record in the pre-environment-block schema: no ``environment``
    key, metric summaries as plain numbers."""
    return {
        "benchmark": "table2",
        "wall_time_s": wall,
        "metrics": {
            "qnet.mva.exact.calls": calls,
            "perf.cache.flow.hits": 9999.0,
        },
    }


class TestOldSchemaRecords:
    def test_plain_number_metrics_are_counters(self):
        assert cr.gated_counters(old_record(calls=42.0)) == {
            "qnet.mva.exact.calls": 42.0}

    def test_malformed_metric_values_are_skipped(self):
        rec = old_record()
        rec["metrics"]["runtime.flow.solves"] = "not-a-number"
        rec["metrics"]["desim.events_processed"] = None
        assert cr.gated_counters(rec) == {"qnet.mva.exact.calls": 100.0}

    def test_null_metrics_block(self):
        assert cr.gated_counters({"metrics": None}) == {}
        assert cr.gated_counters({}) == {}

    def test_old_baseline_vs_new_fresh_does_not_raise(self):
        failures, warnings = cr.compare_records(old_record(),
                                                record(calls=101.0))
        assert failures == []
        # Wall time cannot be host-matched without an environment block.
        assert any("different host" in w for w in warnings) or not warnings

    def test_old_records_never_gate_wall_time(self):
        failures, warnings = cr.compare_records(old_record(),
                                                old_record(wall=10.0))
        assert failures == []
        assert any("different host" in w for w in warnings)

    def test_null_environment_is_treated_as_unknown_host(self):
        base = record()
        base["environment"] = None
        failures, warnings = cr.compare_records(base, record(wall=2.0))
        assert failures == []
        assert any("different host" in w for w in warnings)

    def test_old_schema_counter_regression_still_fails(self):
        failures, _ = cr.compare_records(old_record(), old_record(calls=200.0))
        assert len(failures) == 1
        assert "qnet.mva.exact.calls" in failures[0]


class TestCompareRecords:
    def test_clean_pass(self):
        failures, _ = cr.compare_records(record(), record(calls=101, wall=1.1))
        assert failures == []

    def test_counter_regression_fails(self):
        failures, _ = cr.compare_records(record(), record(calls=130.0))
        assert len(failures) == 1
        assert "qnet.mva.exact.calls" in failures[0]

    def test_counter_improvement_passes(self):
        failures, _ = cr.compare_records(record(), record(calls=10.0))
        assert failures == []

    def test_wall_gated_same_host_only(self):
        failures, warnings = cr.compare_records(record(), record(wall=2.0))
        assert any("wall time" in f for f in failures)
        failures, warnings = cr.compare_records(
            record(), record(wall=2.0, host="hostB"))
        assert failures == []
        assert any("different host" in w for w in warnings)

    def test_wall_gated_only_at_the_same_cpu_count(self):
        def on_cpus(rec, cpus):
            rec["environment"]["cpu_count"] = cpus
            return rec

        # Same host name, same CPU count: a slower wall time fails.
        failures, _ = cr.compare_records(on_cpus(record(), 2),
                                         on_cpus(record(wall=2.0), 2))
        assert any("wall time" in f for f in failures)
        # Same host name, other CPU count: it only warns, with the reason;
        # a work counter still gates.
        failures, warnings = cr.compare_records(
            on_cpus(record(), 1), on_cpus(record(calls=200.0, wall=2.0), 2))
        assert len(failures) == 1
        assert "qnet.mva.exact.calls" in failures[0]
        assert any("wall time" in w and "different CPU count 1 -> 2" in w
                   for w in warnings)
        failures, warnings = cr.compare_records(
            on_cpus(latency_record(flow_p99=0.004), 1),
            on_cpus(latency_record(flow_p99=0.04), 2))
        assert failures == []
        assert any("p99" in w and "different CPU count" in w
                   for w in warnings)

    def test_missing_and_new_counters_warn(self):
        base = record(extra_metrics={
            "runtime.flow.solves": {"kind": "counter", "value": 7.0}})
        fresh = record(extra_metrics={
            "desim.events_processed": {"kind": "counter", "value": 5.0}})
        del fresh["metrics"]["qnet.mva.exact.calls"]
        failures, warnings = cr.compare_records(base, fresh)
        assert failures == []
        joined = "\n".join(warnings)
        assert "missing from fresh record" in joined
        assert "new gated counter" in joined

    def test_threshold_configurable(self):
        failures, _ = cr.compare_records(record(), record(calls=130.0),
                                         threshold=0.5)
        assert failures == []


def latency_record(flow_p99=0.004, mva_p99=0.0002, host="hostA", **kwargs):
    """A record carrying the per-cell latency SLO block."""
    rec = record(host=host, **kwargs)
    rec["latency"] = {
        "latency.flow.solve_seconds": {"count": 30, "p50": 0.002,
                                       "p95": flow_p99, "p99": flow_p99},
        "latency.mva.batch_seconds": {"count": 180, "p50": 0.0001,
                                      "p95": mva_p99, "p99": mva_p99},
    }
    return rec


class TestLatencyGate:
    def test_extracts_p99_from_the_latency_block(self):
        assert cr.latency_p99s(latency_record(flow_p99=0.004)) == {
            "latency.flow.solve_seconds": 0.004,
            "latency.mva.batch_seconds": 0.0002,
        }

    def test_falls_back_to_metrics_instruments(self):
        # Records written after the latency timers but before the
        # dedicated block landed still gate.
        rec = record(extra_metrics={
            "latency.flow.solve_seconds": {
                "kind": "timer", "count": 30, "p50": 0.002, "p99": 0.004}})
        assert cr.latency_p99s(rec) == {
            "latency.flow.solve_seconds": 0.004}

    def test_p99_regression_fails_same_host(self):
        failures, _ = cr.compare_records(
            latency_record(flow_p99=0.004),
            latency_record(flow_p99=0.012))  # 3x > one-bucket allowance
        assert any("latency.flow.solve_seconds" in f and "p99" in f
                   for f in failures)

    def test_p99_within_threshold_passes(self):
        failures, _ = cr.compare_records(
            latency_record(flow_p99=0.004),
            latency_record(flow_p99=0.0048))  # 1.2x
        assert failures == []

    def test_p99_single_bucket_jitter_warns_not_fails(self):
        # The power-of-two histograms quantize p99; a boundary-straddling
        # series flips by exactly 2x run to run, which must not gate.
        failures, warnings = cr.compare_records(
            latency_record(flow_p99=0.004),
            latency_record(flow_p99=0.008))  # exactly one bucket
        assert failures == []
        assert any("within one histogram bucket" in w for w in warnings)

    def test_p99_bucket_allowance_respects_larger_thresholds(self):
        failures, _ = cr.compare_records(
            latency_record(flow_p99=0.004),
            latency_record(flow_p99=0.012),  # 3x
            threshold=4.0)  # explicit looser threshold still wins
        assert failures == []

    def test_p99_cross_host_warns_instead_of_failing(self):
        failures, warnings = cr.compare_records(
            latency_record(flow_p99=0.004),
            latency_record(flow_p99=0.04, host="hostB"))
        assert failures == []
        assert any("p99" in w and "different host" in w for w in warnings)

    def test_legacy_baseline_without_latency_only_warns(self):
        # Baselines committed before the latency block must never fail
        # the gate, even against a fresh record that carries one.
        failures, warnings = cr.compare_records(
            record(), latency_record(flow_p99=10.0))
        assert failures == []
        assert any("predates latency" in w for w in warnings)

    def test_missing_fresh_series_warns(self):
        fresh = latency_record()
        del fresh["latency"]["latency.mva.batch_seconds"]
        failures, warnings = cr.compare_records(latency_record(), fresh)
        assert failures == []
        assert any("latency.mva.batch_seconds" in w and "missing" in w
                   for w in warnings)

    def test_malformed_latency_entries_are_skipped(self):
        rec = latency_record()
        rec["latency"]["latency.bad.series"] = {"p99": "not-a-number"}
        rec["latency"]["latency.worse.series"] = "nonsense"
        p99s = cr.latency_p99s(rec)
        assert "latency.bad.series" not in p99s
        assert "latency.worse.series" not in p99s

    def test_committed_baselines_carry_latency(self):
        # The shipped BENCH records must gate p99 from day one.
        # Experiment records time the flow solver; serve records time
        # the HTTP request path (docs/SERVING.md).
        for fname in os.listdir(perf_record.DEFAULT_PERF_DIR):
            if not fname.startswith("BENCH_"):
                continue
            rec = cr.load_record(
                os.path.join(perf_record.DEFAULT_PERF_DIR, fname))
            p99s = cr.latency_p99s(rec)
            expected = ("serve.request_seconds"
                        if fname.startswith("BENCH_serve")
                        else "latency.flow.solve_seconds")
            assert expected in p99s, fname
            assert all(v > 0.0 for v in p99s.values()), fname


class TestLatencyBlockBuilder:
    def test_distils_latency_series_only(self):
        snapshot = {
            "latency.flow.solve_seconds": {
                "kind": "timer", "count": 3, "p50": 0.001, "p95": 0.002,
                "p99": 0.004, "mean": 0.001, "max": 0.004},
            "qnet.mva.exact.calls": {"kind": "counter", "value": 9.0},
            "latency.not.a.series": {"kind": "gauge", "value": 1.0},
        }
        block = perf_record.latency_block(snapshot)
        assert block == {"latency.flow.solve_seconds": {
            "count": 3, "p50": 0.001, "p95": 0.002, "p99": 0.004}}


class TestImprovementLock:
    def test_wall_improvement_recommends_rebaseline(self):
        failures, warnings = cr.compare_records(record(), record(wall=0.5))
        assert failures == []
        assert any("re-baseline recommended" in w for w in warnings)

    def test_small_wall_improvement_is_silent(self):
        failures, warnings = cr.compare_records(record(), record(wall=0.9))
        assert failures == []
        assert not any("re-baseline" in w for w in warnings)

    def test_cross_host_improvement_not_noticed(self):
        # Cross-machine wall times are incomparable in both directions.
        _, warnings = cr.compare_records(
            record(), record(wall=0.2, host="hostB"))
        assert not any("re-baseline" in w for w in warnings)
        assert any("different host" in w for w in warnings)

    def test_p99_improvement_recommends_rebaseline(self):
        failures, warnings = cr.compare_records(
            latency_record(flow_p99=0.004), latency_record(flow_p99=0.001))
        assert failures == []
        assert any("re-baseline recommended" in w and
                   "latency.flow.solve_seconds" in w for w in warnings)

    def test_threshold_scales_the_lock(self):
        # 0.5x wall is an improvement notice at 25% but silent at 60%.
        _, warnings = cr.compare_records(record(), record(wall=0.5),
                                         threshold=0.6)
        assert not any("re-baseline" in w for w in warnings)


class TestRunGate:
    def _write(self, directory, rec):
        path = os.path.join(directory, "BENCH_table2.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)

    def test_exit_codes(self, tmp_path, capsys):
        base_dir, fresh_dir = str(tmp_path / "base"), str(tmp_path / "fresh")
        os.makedirs(base_dir)
        os.makedirs(fresh_dir)
        self._write(base_dir, record())
        self._write(fresh_dir, record(calls=102.0))
        assert cr.run_gate(base_dir, fresh_dir) == 0
        self._write(fresh_dir, record(calls=500.0))
        assert cr.run_gate(base_dir, fresh_dir) == 1
        capsys.readouterr()

    def test_no_matching_baseline_is_error(self, tmp_path, capsys):
        base_dir, fresh_dir = str(tmp_path / "base"), str(tmp_path / "fresh")
        os.makedirs(base_dir)
        os.makedirs(fresh_dir)
        assert cr.run_gate(base_dir, fresh_dir) == 2  # no fresh records
        self._write(fresh_dir, record())
        assert cr.run_gate(base_dir, fresh_dir) == 2  # no baseline match
        capsys.readouterr()


class TestRecordNormalization:
    def test_version_strips_dirty(self):
        assert perf_record.normalize_version("1.0.0+gabc123-dirty") \
            == "1.0.0+gabc123"
        assert perf_record.normalize_version("1.0.0+gabc123") \
            == "1.0.0+gabc123"

    def test_environment_fields(self):
        env = perf_record.environment()
        assert set(env) == {"hostname", "cpu_count", "python_version"}
        assert env["hostname"]
        assert env["cpu_count"] >= 1

    def test_record_filename(self):
        assert perf_record.record_filename("table2") == "BENCH_table2.json"
        assert perf_record.record_filename("table2", fast=True) \
            == "BENCH_table2_fast.json"

    def test_generate_record_end_to_end(self, tmp_path):
        path = perf_record.generate_record("sp_peak", fast=True,
                                           out_dir=str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        assert rec["benchmark"] == "sp_peak"
        assert rec["fast"] is True
        assert "-dirty" not in rec["version"]
        assert rec["environment"]["hostname"]
        assert cr.gated_counters(rec)  # a cold solver run emits work counters
