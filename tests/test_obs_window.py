"""Tests of the service-observability substrate.

Covers the rolling-window instruments (:mod:`repro.obs.window`), the
burn-rate SLO tracker (:mod:`repro.obs.slo`) and the request windows
it reads, fed through :class:`repro.serve.stats.ServiceTelemetry`,
trace-context propagation across thread-pool hops
(:mod:`repro.obs.tracing`), and the bounded structured-log buffer
(:mod:`repro.obs.log`).  Everything time-based runs against injected
fake clocks — no sleeping.
"""

import contextvars
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs import names
from repro.obs.log import DEFAULT_LOG_BUFFER, StructuredLog, parse_jsonl
from repro.obs.slo import FAST_BURN, OBJECTIVES, SLObjective
from repro.obs.tracing import Tracer
from repro.obs.window import RollingHistogram
from repro.serve.stats import ServiceTelemetry


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    obs.disable()


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


def record(stats: ServiceTelemetry, *, error: bool = False,
           duration_s: float = 0.001, status: int | None = None) -> None:
    """One finished request: a 500 if ``error``, else a 200."""
    if status is None:
        status = 500 if error else 200
    stats.record(method="POST", path="/predict", status=status,
                 duration_s=duration_s, request_id="r")


class TestRollingCounter:
    """The rolling 5xx count each request-ring slot keeps next to its bins."""

    def test_counts_within_the_window(self):
        clock = FakeClock()
        ring = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        ring.observe(0.001, error=True)
        ring.observe(0.001)
        ring.observe(0.002, error=True)
        assert ring.counts(0.25) == (3, 0, 2)

    def test_old_buckets_age_out(self):
        clock = FakeClock()
        ring = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        for _ in range(5):
            ring.observe(0.001, error=True)
        clock.advance(30)
        ring.observe(0.001, error=True)
        assert ring.counts(0.25)[2] == 6
        clock.advance(31)          # first bucket now outside the window
        assert ring.counts(0.25)[2] == 1
        clock.advance(30)          # second bucket gone too
        assert ring.counts(0.25) == (0, 0, 0)

    def test_slot_reuse_resets_stale_data(self):
        clock = FakeClock()
        ring = RollingHistogram("window.latency_seconds", 1.0, 4, clock)
        for _ in range(9):
            ring.observe(0.001, error=True)
        clock.advance(4)           # same ring slot, four epochs later
        ring.observe(0.001)
        assert ring.counts(0.25) == (1, 0, 0)
        assert ring.error_series() == [0, 0, 0, 0]

    def test_series_is_oldest_to_newest(self):
        clock = FakeClock()
        ring = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        ring.observe(0.001, error=True)
        clock.advance(2)
        for error in (True, True, True, False):
            ring.observe(0.001, error=error)
        series = ring.error_series()
        assert len(series) == 60
        assert series[-1] == 3
        assert series[-2] == 0
        assert series[-3] == 1
        assert sum(series) == 4
        assert ring.series()[-1] == 4

    def test_last_restricts_to_recent_buckets(self):
        clock = FakeClock()
        ring = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        for _ in range(5):
            ring.observe(0.001, error=True)
        clock.advance(10)
        ring.observe(0.001, error=True)
        assert ring.counts(0.25, last=5) == (1, 0, 1)
        assert ring.counts(0.25) == (6, 0, 6)

    @pytest.mark.parametrize("bucket_s,buckets", [(0.0, 60), (-1.0, 60),
                                                  (1.0, 1), (1.0, 0)])
    def test_bad_geometry_rejected(self, bucket_s, buckets):
        with pytest.raises(ValueError):
            RollingHistogram("window.latency_seconds", bucket_s, buckets)


class TestRollingHistogram:
    def test_summary_over_live_window(self):
        clock = FakeClock()
        hist = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        for v in (0.001, 0.002, 0.004):
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["min"] == 0.001
        assert summary["max"] == 0.004
        assert "bins" not in summary

    def test_old_spike_ages_out_of_the_p99(self):
        # The acceptance scenario: inject an old latency spike, then
        # watch the windowed p99 reflect only the active window.
        clock = FakeClock()
        hist = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        hist.observe(5.0)                       # the spike
        clock.advance(30)
        for _ in range(50):
            hist.observe(0.001)                 # healthy traffic
        assert hist.summary()["p99"] >= 5.0     # spike still in window
        clock.advance(31)                       # spike bucket now aged out
        summary = hist.summary()
        assert summary["count"] == 50
        assert summary["p99"] < 0.01
        assert summary["max"] == 0.001

    def test_series_counts_per_bucket(self):
        clock = FakeClock()
        hist = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        hist.observe(0.001)
        hist.observe(0.002)
        clock.advance(1)
        hist.observe(0.003)
        series = hist.series()
        assert series[-1] == 1
        assert series[-2] == 2

    def test_bucket_quantiles_mark_empty_buckets_none(self):
        clock = FakeClock()
        hist = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        hist.observe(0.004)
        clock.advance(2)
        hist.observe(0.001)
        quantiles = hist.bucket_quantiles(0.99)
        assert len(quantiles) == 60
        assert quantiles[-1] is not None
        assert quantiles[-2] is None
        assert quantiles[-3] is not None
        assert quantiles[-3] > quantiles[-1]

    def test_counts_at_a_bin_edge_are_exact(self):
        clock = FakeClock()
        hist = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        for v in (0.125, math.nextafter(0.25, 0.0), 0.25,
                  math.nextafter(0.25, 1.0), 0.5, 9.0):
            hist.observe(v)
        clock.advance(10)
        hist.observe(0.3)
        assert hist.counts(0.25) == (7, 5, 0)
        assert hist.counts(0.25, last=5) == (1, 1, 0)
        assert hist.counts(0.5) == (7, 2, 0)
        assert hist.counts(2.0 ** -30) == (7, 7, 0)
        clock.advance(60)
        assert hist.counts(0.25) == (0, 0, 0)

    def test_merged_matches_cumulative_histogram_layout(self):
        clock = FakeClock()
        hist = RollingHistogram("window.latency_seconds", 1.0, 60, clock)
        for v in (0.001, 0.002):
            hist.observe(v)
        merged = hist.merged()
        assert merged.count == 2
        assert merged.sum == pytest.approx(0.003)


class TestSLObjective:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="throughput", target=0.9)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="availability", target=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="latency", target=0.9)

    @pytest.mark.parametrize("threshold_s", [-0.25, 0.0, 0.3, math.nan,
                                             math.inf, 2.0 ** -31,
                                             2.0 ** 40])
    def test_latency_threshold_must_be_a_power_of_two(self, threshold_s):
        # -0.25 would make every request bad and NaN or inf none; 0.3
        # falls inside a bin and 2**-31, 2**40 in the clamped end bins,
        # so the windowed bins cannot count them.
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="latency", target=0.9,
                        threshold_s=threshold_s)

    def test_power_of_two_thresholds_accepted(self):
        for threshold_s in (0.25, 1.0, 2.0 ** -30, 2.0 ** 39):
            SLObjective(name="x", kind="latency", target=0.9,
                        threshold_s=threshold_s)


class TestSLOTracker:
    """The tracker over the server's windows, fed by ``record``."""

    def test_bad_request_classification(self):
        clock = FakeClock()

        def bad_1m(error, duration_s):
            stats = ServiceTelemetry(clock=clock)
            record(stats, error=error, duration_s=duration_s)
            objectives = stats.slo.state(clock())["objectives"]
            return {name: objectives[name]["windows"]["1m"]["bad"]
                    for name in ("availability", "latency")}

        assert bad_1m(True, 0.001)["availability"] == 1
        assert bad_1m(False, 9.0)["availability"] == 0
        assert bad_1m(False, 0.25)["latency"] == 1
        assert bad_1m(False, 0.2)["latency"] == 0

    def test_burn_rate_math(self):
        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)
        for i in range(10):
            record(stats, error=(i < 5), duration_s=0.001)
        win = stats.slo.state(clock())["objectives"]["availability"][
            "windows"]
        assert win["1m"]["total"] == 10
        assert win["1m"]["bad"] == 5
        assert win["1m"]["bad_fraction"] == pytest.approx(0.5)
        # budget 0.001, bad fraction 0.5 -> burning 500x sustainable
        assert win["1m"]["burn_rate"] == pytest.approx(500.0)

    def test_degrade_needs_both_windows(self):
        # A burn confined to the 1 m window (stale 5 m confirmation)
        # must not degrade; that is the whole point of the multi-window
        # rule.  Drive the 5 m window stale by keeping bad traffic
        # inside one 60 s bucket and evaluating 6 minutes later --
        # the 1 m ring has wrapped but the slow ring still holds it.
        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)
        for _ in range(20):
            record(stats, error=True, duration_s=0.001)
        state = stats.slo.state(clock())
        assert state["status"] == "degraded"    # both windows burning
        clock.advance(90)                       # out of 1m, still in 5m
        for _ in range(200):
            record(stats, error=False, duration_s=0.001)
        state = stats.slo.state(clock())
        win = state["objectives"]["availability"]["windows"]
        assert win["5m"]["burn_rate"] >= FAST_BURN
        assert win["1m"]["burn_rate"] < FAST_BURN
        assert state["status"] == "ok"

    def test_degrade_and_recover_cycle(self):
        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)
        for _ in range(50):
            record(stats, error=True, duration_s=0.001)
        assert stats.slo.state(clock())["status"] == "degraded"
        assert "availability" in stats.slo.state(clock())[
            "degraded_objectives"]
        clock.advance(6 * 60)                   # bad epoch leaves 1m and 5m
        for _ in range(50):
            record(stats, error=False, duration_s=0.001)
        state = stats.slo.state(clock())
        assert state["status"] == "ok"
        assert state["degraded_objectives"] == []

    def test_latency_objective_counts_slow_requests_as_bad(self):
        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)
        record(stats, error=False, duration_s=0.5)     # slow but 200
        win = stats.slo.state(clock())["objectives"]
        assert win["latency"]["windows"]["1m"]["bad"] == 1
        assert win["availability"]["windows"]["1m"]["bad"] == 0

    def test_evaluate_emits_transition_events_and_gauges(self):
        tel = obs.enable(fresh=True)
        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)
        for _ in range(50):
            record(stats, error=True, duration_s=0.001)
        stats.slo_state()
        degraded = tel.log.query(names.EVENT_SLO_DEGRADED)
        assert len(degraded) == 1
        assert degraded[0]["objective"] == "availability"
        assert degraded[0]["burn_1m"] >= FAST_BURN
        snap = tel.metrics.snapshot()
        key = names.SERVE_SLO_DEGRADED + "{objective=availability}"
        assert snap[key]["value"] == 1.0
        burn_key = (names.SERVE_SLO_BURN_RATE
                    + "{objective=availability,window=1m}")
        assert snap[burn_key]["value"] >= FAST_BURN

        stats.slo_state()                       # steady state: no re-emit
        assert len(tel.log.query(names.EVENT_SLO_DEGRADED)) == 1

        clock.advance(6 * 60)
        record(stats, error=False, duration_s=0.001)
        stats.slo_state()
        assert len(tel.log.query(names.EVENT_SLO_RECOVERED)) == 1
        assert tel.metrics.snapshot()[key]["value"] == 0.0

    def test_server_holds_two_rings_and_the_tracker_none(self,
                                                         monkeypatch):
        stats = ServiceTelemetry()
        rings = [v for v in vars(stats).values()
                 if isinstance(v, RollingHistogram)]
        assert len(rings) == 2
        assert not [v for v in vars(stats.slo).values()
                    if isinstance(v, RollingHistogram)]

        writes = []
        real = RollingHistogram.observe
        monkeypatch.setattr(
            RollingHistogram, "observe",
            lambda self, *a, **k: (writes.append(self),
                                   real(self, *a, **k)))
        record(stats, status=200, duration_s=0.001)
        assert len(writes) == 2
        record(stats, status=503, duration_s=0.001)
        assert len(writes) == 2 + 2
        assert sorted(map(id, writes[2:])) == sorted(map(id, rings))


_JUMPS = [0.0, 0.01, 0.3, 0.99, 1.0, 4.5, 59.0, 61.0, 240.0, 299.0,
          301.0, 3599.0, 4000.0]
_STATUSES = [200, 400, 404, 500, 503]
_DURATIONS = [0.0, 0.001, 0.125, 0.2, math.nextafter(0.25, 0.0), 0.25,
              math.nextafter(0.25, 1.0), 0.5, 9.0]


class TestRequestWindows:
    """``/metrics`` and ``/healthz`` windows read back the raw requests."""

    def test_rate_uses_lifetime_not_window_when_young(self):
        # A two-second-old service reports its actual rate, not one
        # diluted over an empty minute.
        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)

        def rate():
            return stats.windows_payload()["fast"][names.WINDOW_REQUESTS][
                "rate_per_s"]

        for _ in range(10):
            record(stats)
        clock.advance(2)
        assert rate() == pytest.approx(5.0)
        clock.advance(120)
        for _ in range(60):
            record(stats)
        assert rate() == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_JUMPS),
                              st.sampled_from(_STATUSES),
                              st.sampled_from(_DURATIONS)),
                    min_size=1, max_size=60),
           st.sampled_from(_JUMPS))
    def test_windows_match_a_brute_force_count(self, stream, final_jump):
        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)
        requests = []
        for jump, status, duration_s in stream:
            clock.advance(jump)
            record(stats, status=status, duration_s=duration_s)
            requests.append((clock(), status, duration_s))
        now = clock.advance(final_jump)

        def live(bucket_s, buckets):
            cur = int(now // bucket_s)
            return [r for r in requests
                    if cur - buckets < int(r[0] // bucket_s) <= cur]

        def is_bad(objective, status, duration_s):
            if objective.kind == "availability":
                return status >= 500
            return duration_s >= objective.threshold_s

        windows = {"1m": live(1.0, 60), "5m": live(60.0, 5),
                   "1h": live(60.0, 60)}
        state = stats.slo.state(now)
        for obj in OBJECTIVES:
            for label, reqs in windows.items():
                got = state["objectives"][obj.name]["windows"][label]
                assert got["total"] == len(reqs)
                assert got["bad"] == sum(is_bad(obj, status, d)
                                         for _, status, d in reqs)
        payload = stats.windows_payload(now)
        for label, reqs in (("fast", windows["1m"]),
                            ("slow", windows["1h"])):
            assert payload[label][names.WINDOW_REQUESTS]["total"] \
                == len(reqs)
            assert sum(payload[label][names.WINDOW_REQUESTS]["series"]) \
                == len(reqs)
            assert payload[label][names.WINDOW_ERRORS]["total"] \
                == sum(status >= 500 for _, status, _ in reqs)
        # The fast ring's per-second 5xx series: the dashboard's error
        # chart, oldest second first.
        cur = int(now // 1.0)
        assert stats.requests_fast.error_series(now) == [
            sum(status >= 500 for t, status, _ in windows["1m"]
                if int(t // 1.0) == epoch)
            for epoch in range(cur - 59, cur + 1)]


class TestTraceContextPropagation:
    def test_copied_context_parents_spans_across_thread_hop(self):
        tracer = Tracer()

        def worker():
            with tracer.span("inner"):
                pass

        with ThreadPoolExecutor(max_workers=1) as pool:
            with tracer.span("request", request_id="r1") as root:
                ctx = contextvars.copy_context()
                pool.submit(ctx.run, worker).result()
        assert [c.name for c in root.children] == ["inner"]
        assert len(tracer.roots) == 1

    def test_uncopied_context_orphans_the_span(self):
        # Without copy_context the pool thread sees an empty stack and
        # the span lands as its own root -- the failure mode the serve
        # dispatch path exists to avoid.
        tracer = Tracer()

        def worker():
            with tracer.span("orphan"):
                pass

        with ThreadPoolExecutor(max_workers=1) as pool:
            with tracer.span("request") as root:
                pool.submit(worker).result()
        assert root.children == []
        assert [s.name for s in tracer.roots] == ["request", "orphan"]

    def test_current_and_current_label(self):
        tracer = Tracer()
        assert tracer.current is None
        assert tracer.current_label("request_id") is None
        with tracer.span("request", request_id="abc"):
            with tracer.span("inner") as inner:
                assert tracer.current is inner
                assert tracer.current_label("request_id") == "abc"
        assert tracer.current is None

    def test_detach_root(self):
        tracer = Tracer()
        with tracer.span("request") as root:
            pass
        assert tracer.detach_root(root) is True
        assert tracer.roots == []
        assert tracer.detach_root(root) is False

    def test_concurrent_threads_do_not_cross_contaminate(self):
        tracer = Tracer()
        mismatches: list[tuple] = []
        barrier = threading.Barrier(8)

        def worker(rid: str) -> None:
            barrier.wait()
            for _ in range(50):
                with tracer.span("request", request_id=rid) as root:
                    with tracer.span("inner"):
                        seen = tracer.current_label("request_id")
                        if seen != rid:
                            mismatches.append((rid, seen))
                tracer.detach_root(root)

        threads = [threading.Thread(target=worker, args=(f"r{i}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert mismatches == []
        assert tracer.roots == []

    def test_log_event_stamps_request_id_from_enclosing_span(self):
        tel = obs.enable(fresh=True)
        with obs.span("serve.request", request_id="rid-1"):
            record = obs.log_event(names.EVENT_SLO_RECOVERED,
                                   objective="availability")
        assert record["request_id"] == "rid-1"
        assert record["span"] == "serve.request"
        assert tel.log.query(request_id="rid-1")


class TestLogBufferCap:
    def test_ring_evicts_oldest_and_counts_dropped(self):
        log = StructuredLog(maxlen=3)
        for i in range(5):
            log.emit("slo.recovered", i=i)
        assert len(log.events) == 3
        assert log.dropped == 2
        assert [r["i"] for r in log.events] == [2, 3, 4]

    def test_sink_receives_every_event_despite_the_cap(self, tmp_path):
        log = StructuredLog(maxlen=2)
        path = tmp_path / "events.jsonl"
        log.open_sink(str(path))
        for i in range(5):
            log.emit("slo.recovered", i=i)
        log.close_sink()
        records = parse_jsonl(path.read_text())
        assert [r["i"] for r in records] == [0, 1, 2, 3, 4]
        assert log.dropped == 3

    def test_default_cap(self):
        assert StructuredLog().maxlen == DEFAULT_LOG_BUFFER
