"""Telemetry subsystem tests: metrics, spans, manifests, CLI, overhead.

The overhead test compares the engine's disabled-telemetry path against
a copy of the pre-instrumentation event loop, because "zero-cost when
disabled" is a hard requirement of the subsystem (the engine is the
hottest loop in the package).
"""

import json
import sys
import time

import pytest

from repro import obs
from repro.desim.engine import SimulationError, Simulator, Timeout
from repro.obs.metrics import (
    HIST_MAX_EXP,
    HIST_MIN_EXP,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import Tracer


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    obs.disable()
    yield
    obs.disable()


# -- metrics registry ---------------------------------------------------------

class TestMetrics:
    def test_counter_inc_and_snapshot(self):
        reg = MetricsRegistry()
        c = reg.counter("desim.events_processed")
        c.inc()
        c.inc(41)
        assert c.value == 42
        assert reg.counter("desim.events_processed") is c  # get-or-create
        snap = reg.snapshot()
        assert snap["desim.events_processed"]["value"] == 42
        assert snap["desim.events_processed"]["kind"] == "counter"

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("qnet.mva.exact.calls", machine="uma")
        b = reg.counter("qnet.mva.exact.calls", machine="numa")
        assert a is not b
        a.inc(3)
        snap = reg.snapshot()
        assert snap["qnet.mva.exact.calls{machine=uma}"]["value"] == 3
        assert snap["qnet.mva.exact.calls{machine=numa}"]["value"] == 0

    def test_dotted_name_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("Bad-Name")
        with pytest.raises(ValueError):
            reg.counter("trailing.")
        reg.counter("ok.name_2")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ValueError):
            reg.gauge("a.b")

    def test_gauge_minmax_and_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("desim.heap_depth_max")
        g.set(5.0)
        g.set(2.0)
        assert (g.value, g.min, g.max) == (2.0, 2.0, 5.0)
        g.set_max(1.0)   # below the current value: ignored
        assert g.value == 2.0
        g.set_max(9.0)
        assert g.value == 9.0

    def test_timer_records_seconds(self):
        reg = MetricsRegistry()
        t = reg.timer("calibration.fit_seconds")
        with t:
            time.sleep(0.01)
        assert t.count == 1
        assert 0.005 < t.sum < 1.0


class TestHistogramBins:
    def test_power_of_two_bin_edges(self):
        # Bin e covers [2**(e-1), 2**e): exact powers sit at the bottom.
        assert Histogram.bin_index(1.0) == 1
        assert Histogram.bin_index(1.999) == 1
        assert Histogram.bin_index(2.0) == 2
        assert Histogram.bin_index(0.25) == -1
        lo, hi = Histogram.bin_edges(1)
        assert (lo, hi) == (1.0, 2.0)
        lo, hi = Histogram.bin_edges(-3)
        assert (lo, hi) == (0.0625, 0.125)

    def test_underflow_and_clamping(self):
        assert Histogram.bin_index(0.0) == HIST_MIN_EXP - 1
        assert Histogram.bin_index(-5.0) == HIST_MIN_EXP - 1
        assert Histogram.bin_index(1e-300) == HIST_MIN_EXP
        assert Histogram.bin_index(1e300) == HIST_MAX_EXP

    def test_every_observation_lands_in_its_bin(self):
        h = Histogram("x")
        for v in [0.3, 1.0, 1.5, 2.0, 3.9, 1000.0]:
            h.observe(v)
            e = h.bin_index(v)
            lo, hi = h.bin_edges(e)
            assert lo <= v < hi
        assert h.count == 6
        assert h.max == 1000.0
        assert h.mean == pytest.approx(sum([0.3, 1.0, 1.5, 2.0, 3.9, 1000.0]) / 6)

    def test_quantile_covers_bin_upper_edge(self):
        h = Histogram("x")
        for _ in range(99):
            h.observe(1.5)       # bin [1, 2)
        h.observe(100.0)         # bin [64, 128)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 128.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_single_observation_quantile_is_exact(self):
        # n == 1: every quantile is the observed value itself, not the
        # bin's upper edge (and certainly not nan) — the first solve of
        # a run must produce a usable p99.
        tel = obs.enable(fresh=True)
        h = tel.metrics.histogram("a.sizes")
        h.observe(0.0037)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == 0.0037
        s = h.summary()
        assert s["p50"] == s["p95"] == s["p99"] == 0.0037
        snap = tel.metrics.snapshot()
        assert snap.get("obs.empty_series_warnings") is None

    def test_quantile_accuracy_vs_exact_sample_quantiles(self):
        # The log-bucket estimate returns the covering bin's upper edge,
        # so it brackets the exact sample quantile from above by at most
        # one power of two.  Check against a deterministic heavy-ish
        # tail of latencies spanning several decades.
        import math

        values = [1e-4 * math.exp(0.05 * i) for i in range(200)]
        h = Histogram("x")
        for v in values:
            h.observe(v)
        ranked = sorted(values)
        for q in (0.05, 0.25, 0.5, 0.9, 0.95, 0.99):
            exact = ranked[min(int(math.ceil(q * len(ranked))) - 1,
                               len(ranked) - 1)]
            estimate = h.quantile(q)
            assert exact <= estimate <= 2.0 * exact, \
                f"q={q}: exact {exact:.6g} vs estimate {estimate:.6g}"

    def test_summary_includes_p95(self):
        h = Histogram("x")
        for v in (1.5, 2.5, 3.5):
            h.observe(v)
        s = h.summary()
        assert s["p50"] <= s["p95"] <= s["p99"]


# -- tracing ------------------------------------------------------------------

def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestTracing:
    def test_span_nesting_structure(self):
        tr = Tracer()
        with tr.span("experiment.fig5"):
            with tr.span("machine.uma"):
                with tr.span("measure.point", n=1):
                    pass
                with tr.span("measure.point", n=2):
                    pass
            with tr.span("machine.numa"):
                pass
        assert len(tr.roots) == 1
        root = tr.roots[0]
        assert root.name == "experiment.fig5"
        assert [c.name for c in root.children] == \
            ["machine.uma", "machine.numa"]
        assert [c.name for c in root.children[0].children] == \
            ["measure.point", "measure.point"]
        assert root.children[0].children[0].labels == {"n": 1}
        assert tr.current is None

    def test_durations_nest(self):
        # clock: epoch, outer-start, inner-start, inner-end, outer-end
        tr = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 5.0]))
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        outer, = tr.roots
        inner, = outer.children
        assert outer.start == 1.0 and outer.duration == 4.0
        assert inner.start == 2.0 and inner.duration == 1.0

    def test_aggregate_self_time(self):
        tr = Tracer(clock=_fake_clock([0.0, 0.0, 1.0, 4.0, 10.0]))
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        rows = {r["name"]: r for r in tr.aggregate()}
        assert rows["outer"]["total_s"] == 10.0
        assert rows["outer"]["self_s"] == 7.0
        assert rows["inner"]["self_s"] == 3.0

    def test_chrome_trace_schema(self):
        tr = Tracer()
        with tr.span("experiment.x", fast=True):
            with tr.span("engine.run"):
                pass
        doc = tr.chrome_trace()
        # Must be valid JSON and carry the trace-event required fields.
        doc = json.loads(json.dumps(doc))
        events = doc["traceEvents"]
        assert len(events) == 2
        for ev in events:
            assert ev["ph"] == "X"
            assert isinstance(ev["ts"], (int, float))
            assert isinstance(ev["dur"], (int, float))
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            assert isinstance(ev["name"], str)
        outer = next(e for e in events if e["name"] == "experiment.x")
        inner = next(e for e in events if e["name"] == "engine.run")
        assert outer["args"] == {"fast": True}
        # Child interval nested within the parent interval.
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_to_dict_round_trips_through_json(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b", k="v"):
                pass
        d = json.loads(json.dumps(tr.to_dict()))
        assert d["spans"][0]["name"] == "a"
        assert d["spans"][0]["children"][0]["labels"] == {"k": "v"}


# -- manifests ----------------------------------------------------------------

class TestManifest:
    def test_round_trip(self, tmp_path):
        m = obs.RunManifest(
            experiment="fig5", seed=42, fast=True,
            wall_time_s=1.5,
            phase_timings={"machine.uma": 0.5},
            metrics={"runtime.flow.solves": {"kind": "counter", "value": 17}},
            notes=["ok"])
        path = tmp_path / "m.json"
        m.write(str(path))
        back = obs.RunManifest.read(str(path))
        assert back == m

    def test_diff_ignores_identity_fields(self):
        a = obs.RunManifest(experiment="fig5", seed=1, wall_time_s=1.0)
        b = obs.RunManifest(experiment="fig5", seed=2, wall_time_s=9.0)
        d = a.diff(b)
        assert d == {"seed": (1, 2)}

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError):
            obs.RunManifest.from_dict({"experiment": "x", "schema": 999})

    def test_version_is_nonempty(self):
        assert obs.code_version()


class TestManifestDiff:
    """Direct RunManifest.diff coverage: schema, missing fields, seeds."""

    def test_cross_schema_v1_record_loads_and_diffs(self):
        # A v1 record (written before the diagnostics block existed)
        # must load with empty diagnostics and diff cleanly against v2.
        v1 = obs.RunManifest.from_dict(
            {"experiment": "fig5", "schema": 1, "seed": 7})
        assert v1.diagnostics == {}
        v2 = obs.RunManifest(
            experiment="fig5", seed=7,
            diagnostics={"m": {"quality": {"r2": 0.99}}})
        d = v1.diff(v2)
        assert d["schema"] == (1, obs.MANIFEST_SCHEMA)
        assert d["diagnostics"] == ({}, {"m": {"quality": {"r2": 0.99}}})

    def test_missing_field_in_old_record_reads_as_default(self):
        old = obs.RunManifest.from_dict({"experiment": "fig5"})
        fresh = obs.RunManifest(
            experiment="fig5",
            metrics={"a.calls": {"kind": "counter", "value": 1}})
        d = old.diff(fresh)
        assert d["metrics"] == (
            {}, {"a.calls": {"kind": "counter", "value": 1}})
        assert "notes" not in d  # both default-empty

    def test_same_experiment_different_seed_only(self):
        a = obs.RunManifest(experiment="table2", seed=1, wall_time_s=0.5)
        b = obs.RunManifest(experiment="table2", seed=99, wall_time_s=8.0)
        # run_id, timestamps and wall time differ by construction and
        # are ignored; the seed is the only reported difference.
        assert a.diff(b) == {"seed": (1, 99)}

    def test_diff_is_empty_for_equal_payloads(self):
        a = obs.RunManifest(experiment="table2", seed=1)
        b = obs.RunManifest(
            experiment="table2", seed=1, run_id=a.run_id,
            version=a.version, started_unix=a.started_unix)
        assert a.diff(b) == {}


# -- empty-series guards and snapshot schema ----------------------------------

class TestEmptySeriesGuard:
    def test_empty_histogram_statistics_are_nan(self):
        import math

        h = Histogram("a.sizes")
        assert math.isnan(h.mean)
        assert math.isnan(h.quantile(0.5))

    def test_empty_summary_uses_none_not_nan(self):
        h = Histogram("a.sizes")
        s = h.summary()
        assert s["count"] == 0
        assert s["mean"] is None and s["p50"] is None and s["p99"] is None
        json.dumps(s)  # archived snapshots must stay valid JSON

    def test_warning_counter_increments_under_telemetry(self):
        tel = obs.enable(fresh=True)
        h = tel.metrics.histogram("a.sizes")
        _ = h.mean
        _ = h.quantile(0.99)
        snap = tel.metrics.snapshot()
        assert snap["obs.empty_series_warnings"]["value"] == 2.0
        # Serializing the empty histogram itself must not warn again.
        tel.metrics.snapshot()
        assert tel.metrics.snapshot()[
            "obs.empty_series_warnings"]["value"] == 2.0

    def test_no_counter_without_session(self):
        h = Histogram("a.sizes")
        import math
        assert math.isnan(h.mean)  # no session: nan, no side effects
        assert obs.session() is None


class TestSnapshotSchema:
    def test_wrap_and_unwrap_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("a.calls").inc(3)
        snap = reg.snapshot()
        wrapped = obs.wrap_snapshot(snap)
        assert wrapped["snapshot_schema"] == obs.SNAPSHOT_SCHEMA
        assert obs.unwrap_snapshot(wrapped) == snap

    def test_unwrap_tolerates_legacy_and_empty_forms(self):
        legacy = {"a.calls": {"kind": "counter", "value": 1.0}}
        assert obs.unwrap_snapshot(legacy) == legacy
        assert obs.unwrap_snapshot(None) == {}

    def test_unwrap_rejects_newer_schema(self):
        with pytest.raises(ValueError):
            obs.unwrap_snapshot({"snapshot_schema": 999, "instruments": {}})


# -- session state and helpers ------------------------------------------------

class TestSessionState:
    def test_disabled_by_default_and_helpers_noop(self):
        assert obs.session() is None
        assert not obs.enabled()
        # None of these may raise or create state while disabled.
        with obs.span("x.y"):
            pass
        obs.counter("a.b")
        obs.gauge("a.c", 1.0)
        obs.observe("a.d", 2.0)
        with obs.timed("a.e"):
            pass
        assert obs.session() is None

    def test_enable_disable_and_fresh(self):
        tel = obs.enable()
        assert obs.session() is tel
        assert obs.enable() is tel              # idempotent
        assert obs.enable(fresh=True) is not tel
        obs.disable()
        assert obs.session() is None

    def test_helpers_record_when_enabled(self):
        tel = obs.enable(fresh=True)
        obs.counter("a.calls", 2)
        obs.gauge("a.depth", 7)
        obs.observe("a.sizes", 3.0)
        with obs.span("outer"):
            with obs.timed("a.secs"):
                pass
        snap = tel.metrics.snapshot()
        assert snap["a.calls"]["value"] == 2
        assert snap["a.depth"]["value"] == 7
        assert snap["a.sizes"]["count"] == 1
        assert snap["a.secs"]["count"] == 1
        assert tel.tracer.roots[0].name == "outer"


# -- engine instrumentation and overhead --------------------------------------

def _ticker(sim, n):
    for _ in range(n):
        yield Timeout(1.0)


def _baseline_run(sim, until=None, max_events=None):
    """Copy of the pre-telemetry engine loop (the seed's Simulator.run)."""
    n_events = 0
    while len(sim.queue):
        t = sim.queue.peek_time()
        if t is None:
            break
        if until is not None and t > until:
            sim.now = until
            return sim.now
        if max_events is not None and n_events >= max_events:
            return sim.now
        event = sim.queue.pop()
        if event.time is None:
            raise SimulationError("popped unscheduled event")
        if event.time < sim.now:
            raise SimulationError("event scheduled in the past")
        sim.now = event.time
        event._trigger()
        n_events += 1
    if until is not None:
        sim.now = until
    return sim.now


def _profile_engine(runner, n_events):
    """Calls per event of ``runner`` (Python and C), and the functions entered.

    Counted under ``sys.setprofile``, so the figure is exact and does
    not depend on how fast the host happens to be.
    """
    sim = Simulator()
    sim.process(_ticker(sim, n_events))
    calls = 0
    entered: set[tuple[str, str]] = set()

    def hook(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1
        if event == "call":
            entered.add((frame.f_globals.get("__name__", ""),
                         frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        runner(sim)
    finally:
        sys.setprofile(None)
    return calls / n_events, entered


class TestEngineTelemetry:
    def test_enabled_run_counts_events_and_spans(self):
        tel = obs.enable(fresh=True)
        sim = Simulator()
        sim.process(_ticker(sim, 10))
        sim.run()
        snap = tel.metrics.snapshot()
        # 10 timeouts + process start resume + done-event trigger.
        assert snap["desim.events_processed"]["value"] == 12
        assert snap["desim.processes_spawned"]["value"] == 1
        assert snap["desim.runs"]["value"] == 1
        assert snap["desim.heap_depth_max"]["max"] >= 1
        assert snap["desim.run_seconds"]["count"] == 1
        assert [s.name for s in tel.tracer.roots] == ["engine.run"]

    def test_instrumented_loop_matches_baseline_semantics(self):
        for kwargs in ({}, {"until": 5.0}, {"max_events": 7}):
            obs.disable()
            sim_a = Simulator()
            sim_a.process(_ticker(sim_a, 10))
            expect = _baseline_run(sim_a, **kwargs)
            obs.enable(fresh=True)
            sim_b = Simulator()
            sim_b.process(_ticker(sim_b, 10))
            got = sim_b.run(**kwargs)
            assert got == expect

    def test_obs_overhead_disabled_engine_loop(self):
        """The disabled path makes no more calls per event than the seed's loop."""
        obs.disable()
        for n in (5000, 10000):
            baseline, _ = _profile_engine(_baseline_run, n)
            disabled, entered = _profile_engine(Simulator.run, n)
            # One session check per run() call, nothing per event.
            assert not [f for f in entered if f[0].startswith("repro.obs")]
            assert ("repro.desim.engine", "_run_instrumented") not in entered
            assert disabled <= baseline, \
                f"disabled telemetry loop makes {disabled:.3f} calls per " \
                f"event against the baseline's {baseline:.3f} ({n} events)"

    def test_noop_span_helper_is_cheap(self):
        t0 = time.perf_counter()
        for _ in range(100_000):
            with obs.span("x.y"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"no-op span too slow: {elapsed:.3f}s"


# -- experiment runner integration --------------------------------------------

class TestRunnerIntegration:
    def test_wall_time_recorded_without_telemetry(self):
        from repro.experiments import run_experiment

        result = run_experiment("table1", fast=True)
        assert result.wall_time_s is not None and result.wall_time_s > 0
        assert result.manifest is None
        assert "wall-clock:" in result.render()

    def test_manifest_and_phases_with_telemetry(self):
        from repro.experiments import run_experiment
        from repro.util.rng import DEFAULT_SEED

        tel = obs.enable(fresh=True)
        result = run_experiment("fig5", fast=True)
        assert result.manifest is not None
        assert tel.manifests == [result.manifest]
        m = result.manifest
        assert m.experiment == "fig5"
        assert m.seed == DEFAULT_SEED
        assert m.fast is True
        assert m.wall_time_s == result.wall_time_s
        assert any(k.startswith("machine.") for k in m.phase_timings)
        assert "runtime.measurements" in m.metrics
        # Spans nest experiment -> machine -> measure.point.
        root = tel.tracer.roots[0]
        assert root.name == "experiment.fig5"
        machines = [c for c in root.children if c.name.startswith("machine.")]
        assert machines
        assert any(g.name == "measure.point"
                   for c in machines for g in c.children)
        # Manifest JSON round-trips.
        assert obs.RunManifest.from_json(m.to_json()) == m


# -- CLI ----------------------------------------------------------------------

class TestCLI:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_list_mentions_commands(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for word in ("report", "profile", "fig5"):
            assert word in out

    def test_trace_metrics_manifest_flags(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.json"
        manifest = tmp_path / "m.json"
        rc = main(["fig5", "--fast", "--trace", str(trace),
                   "--metrics", "--manifest", str(manifest)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics" in out and "span timings" in out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "experiment.fig5" in names
        assert any(n.startswith("machine.") for n in names)
        m = obs.RunManifest.from_json(manifest.read_text())
        assert m.experiment == "fig5"
        obs.disable()  # CLI enabled a session; do not leak it

    def test_profile_command(self, capsys):
        from repro.cli import main

        assert main(["profile", "table2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "span timings" in out
        assert "experiment.table2" in out
        obs.disable()

    def test_profile_without_target_errors(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 2
