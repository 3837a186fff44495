"""``--serve-metrics``: ``repro serve``'s routes, live during a run.

Each test runs :func:`repro.cli.main` with ``--serve-metrics`` and
``run_experiments`` patched to scrape the announced port mid-run with
real ``urllib`` requests, so the endpoint is checked as a run sees it:
up before the first experiment, drained and closed once ``main``
returns.  The route payloads themselves are pinned in
``tests/test_serve.py``.
"""

import json
import re
import socket
import threading
import urllib.error
import urllib.request

import pytest

import repro.experiments
from repro import obs
from repro.cli import main
from repro.obs import names

ENDPOINTS = ["/predict", "/recommend", "/metrics", "/healthz", "/events",
             "/debug/requests", "/dashboard"]


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


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _url(out: str) -> str:
    return re.search(r"live metrics at (http://\S+)/metrics", out).group(1)


def run_scraping(monkeypatch, capsys, scrape, argv=("fig5", "--fast")):
    """``main([*argv, "--serve-metrics", "0"])`` with ``scrape`` as the run.

    The patched ``run_experiments`` reads the URL from the banner, calls
    ``scrape(url)`` and runs nothing.  Returns ``(url, scrape's value)``
    and asserts that ``main`` left no thread of its own running.
    """
    seen = []

    def run_experiments(names_, **kwargs):
        url = _url(capsys.readouterr().out)
        seen.append((url, scrape(url)))
        return []

    monkeypatch.setattr(repro.experiments, "run_experiments",
                        run_experiments)
    before = set(threading.enumerate())
    assert main([*argv, "--serve-metrics", "0"]) == 0
    assert [t.name for t in threading.enumerate() if t not in before] == []
    (url, value), = seen
    return url, value


class TestMetricsEndpoint:
    def test_metrics_smoke_over_http(self, monkeypatch, capsys):
        def scrape(url):
            obs.session().metrics.counter(names.RUNTIME_FLOW_SOLVES).inc(3)
            return _get(f"{url}/metrics")

        url, (status, body) = run_scraping(monkeypatch, capsys, scrape)
        assert re.fullmatch(r"http://127\.0\.0\.1:\d+", url)
        assert not url.endswith(":0")
        assert status == 200
        assert body["snapshot_schema"] == obs.SNAPSHOT_SCHEMA
        assert body["instruments"]["runtime.flow.solves"]["value"] == 3.0
        assert "fast" in body["windows"]        # repro serve's windows block

    def test_metrics_reflect_live_updates(self, monkeypatch, capsys):
        def scrape(url):
            solves = obs.session().metrics.counter(names.RUNTIME_FLOW_SOLVES)
            values = []
            for _ in range(2):
                solves.inc()
                _, body = _get(f"{url}/metrics")
                values.append(
                    body["instruments"]["runtime.flow.solves"]["value"])
            return values

        _, values = run_scraping(monkeypatch, capsys, scrape)
        assert values == [1.0, 2.0]

    def test_healthz_and_events(self, monkeypatch, capsys):
        def scrape(url):
            obs.log_event(names.EVENT_EXPERIMENT_STARTED, experiment="fig5")
            return _get(f"{url}/healthz"), _get(f"{url}/events")

        _, ((hs, health), (es, events)) = run_scraping(monkeypatch, capsys,
                                                       scrape)
        assert hs == 200
        assert health["status"] == "ok"
        assert health["telemetry"] is True
        assert health["uptime_s"] >= 0.0
        assert health["slo"]["status"] == "ok"
        assert es == 200
        assert [e["event"] for e in events["events"]] == [
            "experiment.started"]
        assert events["dropped"] == 0

    def test_unknown_path_is_404_with_hint(self, monkeypatch, capsys):
        _, (status, body) = run_scraping(
            monkeypatch, capsys, lambda url: _get(f"{url}/nope"))
        assert status == 404
        assert body["endpoints"] == ENDPOINTS

    def test_stop_closes_the_socket(self, monkeypatch, capsys):
        # A POST solves in the run's process, on the server's pool: the
        # pool's threads, like the loop's, are gone once main returns.
        body = {"machine": "intel_uma", "program": "CG", "size": "C",
                "n_active": 4}

        def scrape(url):
            return _post(f"{url}/predict", body)[0], _get(f"{url}/healthz")[0]

        url, statuses = run_scraping(monkeypatch, capsys, scrape)
        assert statuses == (200, 200)
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"{url}/healthz", timeout=1)

    def test_explicit_port_is_honoured(self, monkeypatch):
        # A taken port fails loudly instead of rebinding, before any
        # experiment runs, and leaves no thread behind.
        ran = []
        monkeypatch.setattr(repro.experiments, "run_experiments",
                            lambda *args, **kwargs: ran.append(args) or [])
        before = set(threading.enumerate())
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            with pytest.raises(OSError):
                main(["fig5", "--fast", "--serve-metrics", str(port)])
        assert ran == []
        assert [t.name for t in threading.enumerate() if t not in before] \
            == []


class TestSnapshotConsistency:
    def test_snapshot_never_sees_partial_registry_state(self, monkeypatch,
                                                        capsys):
        # A /metrics snapshot racing worker threads that register new
        # instruments used to die with "dictionary changed size during
        # iteration" (patched over by a retry loop); the registry now
        # snapshots under its own lock.  Hammer registration from
        # several threads while scraping continuously: every payload
        # must be complete and well-formed, no retries, no exceptions.
        errors = []

        def scrape(url):
            tel = obs.session()
            stop = threading.Event()

            def writer(tid: int) -> None:
                try:
                    i = 0
                    while not stop.is_set():
                        tel.metrics.counter(
                            names.RUNTIME_FLOW_SOLVES, worker=str(tid),
                            i=str(i % 199)).inc()
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
                    status, payload = _get(f"{url}/metrics")
                    assert status == 200
                    # Wrapped-schema shape, and every instrument summary
                    # is fully built: the lock forbids half-registered
                    # views.  The scrapes are recorded requests, so the
                    # server's SLO gauges appear next to the writers'.
                    assert payload["snapshot_schema"] == obs.SNAPSHOT_SCHEMA
                    for key, summary in payload["instruments"].items():
                        assert "kind" in summary, key
                        if summary["kind"] == "counter":
                            assert summary["value"] >= 0.0
                        elif summary["kind"] == "gauge":
                            assert "value" in summary, key
                        else:
                            assert summary["count"] >= 0
            finally:
                stop.set()
                for t in pool:
                    t.join()

        run_scraping(monkeypatch, capsys, scrape)
        assert not errors

    def test_snapshot_under_live_server_and_writers(self, monkeypatch,
                                                    capsys):
        def scrape(url):
            tel = obs.session()
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
                for _ in range(20):
                    status, body = _get(f"{url}/metrics")
                    assert status == 200
                    assert "instruments" in body
            finally:
                stop.set()
                thread.join()

        run_scraping(monkeypatch, capsys, scrape)


class TestCLIServeMetrics:
    def test_serve_metrics_flag_prints_url(self, capsys):
        before = set(threading.enumerate())
        assert main(["fig5", "--fast", "--serve-metrics", "0"]) == 0
        out = capsys.readouterr().out
        assert "live metrics at http://127.0.0.1:" in out
        assert [t.name for t in threading.enumerate() if t not in before] \
            == []

    def test_report_serves_the_run(self, monkeypatch, capsys):
        # repro report runs its experiments with the endpoint up, and
        # with telemetry on, as an experiment run does.
        _, (status, health) = run_scraping(
            monkeypatch, capsys, lambda url: _get(f"{url}/healthz"),
            argv=("report", "--fast", "--only", "table1"))
        assert status == 200
        assert health["telemetry"] is True

    def test_server_stops_when_the_run_raises(self, monkeypatch, capsys):
        urls = []

        def failing_run(names_, **kwargs):
            urls.append(_url(capsys.readouterr().out))
            raise RuntimeError("experiment crashed")

        monkeypatch.setattr(repro.experiments, "run_experiments",
                            failing_run)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="experiment crashed"):
            main(["fig5", "--fast", "--serve-metrics", "0"])
        assert [t.name for t in threading.enumerate() if t not in before] \
            == []
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"{urls[0]}/healthz", timeout=1)
