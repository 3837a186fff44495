"""Live metrics endpoint tests: /metrics, /healthz, /events over HTTP.

The server binds an ephemeral loopback port, so the smoke tests make
real ``urllib`` requests; payload-shape tests call the handler's
payload methods directly.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import names
from repro.obs.export import MetricsServer


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestMetricsEndpoint:
    def test_metrics_smoke_over_http(self):
        tel = obs.enable(fresh=True)
        tel.metrics.counter(names.RUNTIME_FLOW_SOLVES).inc(3)
        with MetricsServer() as server:
            assert server.port != 0
            status, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert body["snapshot_schema"] == obs.SNAPSHOT_SCHEMA
        assert body["instruments"]["runtime.flow.solves"]["value"] == 3.0

    def test_metrics_reflect_live_updates(self):
        tel = obs.enable(fresh=True)
        with MetricsServer() as server:
            tel.metrics.counter(names.RUNTIME_FLOW_SOLVES).inc()
            _, body = _get(f"{server.url}/metrics")
            assert body["instruments"]["runtime.flow.solves"]["value"] == 1.0
            tel.metrics.counter(names.RUNTIME_FLOW_SOLVES).inc()
            _, body = _get(f"{server.url}/metrics")
            assert body["instruments"]["runtime.flow.solves"]["value"] == 2.0

    def test_healthz_and_events(self):
        tel = obs.enable(fresh=True)
        tel.log.emit(names.EVENT_EXPERIMENT_STARTED, experiment="fig5")
        with MetricsServer() as server:
            status, health = _get(f"{server.url}/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["telemetry"] is True
            assert health["uptime_s"] >= 0.0
            status, events = _get(f"{server.url}/events")
        assert status == 200
        assert events["events"][0]["event"] == "experiment.started"

    def test_uptime_survives_a_wall_clock_step(self, monkeypatch):
        import time

        with MetricsServer() as server:
            real = time.time
            monkeypatch.setattr(time, "time", lambda: real() - 3600.0)
            status, health = _get(f"{server.url}/healthz")
        assert status == 200
        assert 0.0 <= health["uptime_s"] < 60.0

    def test_unknown_path_is_404_with_hint(self):
        obs.enable(fresh=True)
        with MetricsServer() as server:
            status, body = _get(f"{server.url}/nope")
        assert status == 404
        assert "/metrics" in body["endpoints"]

    def test_disabled_telemetry_reports_503(self):
        with MetricsServer() as server:
            status, body = _get(f"{server.url}/metrics")
            assert status == 503
            assert "telemetry" in body["error"]
            status, health = _get(f"{server.url}/healthz")
            assert status == 200  # the process is alive either way
            assert health["telemetry"] is False

    def test_stop_closes_the_socket(self):
        obs.enable(fresh=True)
        server = MetricsServer()
        server.start()
        url = server.url
        server.stop()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"{url}/healthz", timeout=1)

    def test_explicit_port_is_honoured(self):
        obs.enable(fresh=True)
        with MetricsServer() as a:
            # A second server on the same port must fail loudly, not
            # silently rebind: the port is genuinely held.
            with pytest.raises(OSError):
                MetricsServer(port=a.port).start()


class TestSnapshotConsistency:
    def test_snapshot_never_sees_partial_registry_state(self):
        # A /metrics snapshot racing worker threads that register new
        # instruments used to die with "dictionary changed size during
        # iteration" (patched over by a retry loop); the registry now
        # snapshots under its own lock.  Hammer registration from
        # several threads while serializing continuously: every payload
        # must be complete and well-formed, no retries, no exceptions.
        import threading

        from repro.obs.export import metrics_payload

        tel = obs.enable(fresh=True)
        stop = threading.Event()
        errors = []

        def writer(tid: int) -> None:
            try:
                i = 0
                while not stop.is_set():
                    tel.metrics.counter(names.RUNTIME_FLOW_SOLVES,
                                        worker=str(tid), i=str(i % 199)).inc()
                    tel.metrics.histogram(
                        names.LATENCY_FLOW_SOLVE_SECONDS,
                        worker=str(tid)).observe(1e-4 * (i % 7 + 1))
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=writer, args=(t,))
                for t in range(4)]
        for t in pool:
            t.start()
        try:
            for _ in range(300):
                status, payload = metrics_payload()
                assert status == 200
                # Wrapped-schema shape, and every instrument summary is
                # fully built: the lock forbids half-registered views.
                assert payload["snapshot_schema"] == obs.SNAPSHOT_SCHEMA
                for key, summary in payload["instruments"].items():
                    assert "kind" in summary, key
                    if summary["kind"] == "counter":
                        assert summary["value"] >= 0.0
                    else:
                        assert summary["count"] >= 0
                json.dumps(payload)  # serializable end to end
        finally:
            stop.set()
            for t in pool:
                t.join()
        assert not errors

    def test_snapshot_under_live_server_and_writers(self):
        import threading

        tel = obs.enable(fresh=True)
        stop = threading.Event()

        def writer() -> None:
            i = 0
            while not stop.is_set():
                tel.metrics.counter(names.RUNTIME_MEASUREMENTS,
                                    shard=str(i % 23)).inc()
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with MetricsServer() as server:
                for _ in range(20):
                    status, body = _get(f"{server.url}/metrics")
                    assert status == 200
                    assert "instruments" in body
        finally:
            stop.set()
            thread.join()


class TestCLIServeMetrics:
    def test_serve_metrics_flag_prints_url(self, capsys):
        from repro.cli import main

        assert main(["fig5", "--fast", "--serve-metrics", "0"]) == 0
        out = capsys.readouterr().out
        assert "live metrics at http://127.0.0.1:" in out
        obs.disable()
