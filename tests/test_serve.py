"""Tests of the prediction service: pure handlers and the HTTP layer.

The handlers in :mod:`repro.serve.service` are plain functions from a
decoded body to ``(status, payload)``, so most of the endpoint contract
is tested without a socket; the :class:`repro.serve.http` tests then
cover the asyncio framing — keep-alive, malformed requests, method
routing and the shared ``/metrics``/``/healthz`` payloads — against a
real ephemeral-port server.
"""

import asyncio
import json
import logging
import os
import pathlib
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.serve.http as http_mod
from repro import obs, perf
from repro.core.predict import predict_workload
from repro.obs import names as _names
from repro.serve import PredictionServer, ServiceTelemetry, get_machine
from repro.serve.service import handle_predict, handle_recommend
from repro.serve.stats import RequestLog
from repro.util.validation import ValidationError

PREDICT_BODY = {"machine": "intel_uma", "program": "CG", "size": "C",
                "n_active": 4}
RECOMMEND_BODY = {"machine": "intel_uma", "program": "CG", "size": "C",
                  "core_counts": [1, 2, 4, 8]}


@pytest.fixture(autouse=True)
def _isolation():
    was_enabled = perf.caches_enabled()
    perf.clear_caches()
    yield
    perf.set_enabled(was_enabled)
    perf.clear_caches()
    obs.disable()


def counter_value(tel, name: str) -> float:
    return tel.metrics.snapshot().get(name, {}).get("value", 0.0)


class TestMachineRegistry:
    def test_known_keys(self):
        for key, cores in (("intel_uma", 8), ("intel_numa", 24),
                           ("amd_numa", 48)):
            assert get_machine(key).n_cores == cores

    def test_instances_are_shared(self):
        assert get_machine("intel_uma") is get_machine("intel_uma")

    def test_unknown_key(self):
        with pytest.raises(ValidationError):
            get_machine("cray_1")


class TestPredictHandler:
    def test_success_matches_the_kernel(self):
        status, payload = handle_predict(dict(PREDICT_BODY))
        assert status == 200
        want = predict_workload("CG", "C", get_machine("intel_uma"), 4)
        assert payload["total_cycles"] == want.total_cycles
        assert payload["omega"] == want.omega
        assert payload["machine"] == "intel_uma"  # service key echoed
        assert payload["utilisations"] == want.utilisations
        assert json.dumps(payload)  # JSON-clean end to end

    @pytest.mark.parametrize("missing", ["machine", "program", "size",
                                         "n_active"])
    def test_missing_field_is_400(self, missing):
        body = {k: v for k, v in PREDICT_BODY.items() if k != missing}
        status, payload = handle_predict(body)
        assert status == 400
        assert missing in payload["error"]

    @pytest.mark.parametrize("body,fragment", [
        ({**PREDICT_BODY, "machine": "cray_1"}, "unknown machine"),
        ({**PREDICT_BODY, "program": "LINPACK"}, "unknown workload"),
        ({**PREDICT_BODY, "n_active": 0}, "n_active"),
        ({**PREDICT_BODY, "n_active": 99}, "n_active"),
        ({**PREDICT_BODY, "n_active": "four"}, "n_active"),
        ({**PREDICT_BODY, "n_active": True}, "n_active"),
        ({**PREDICT_BODY, "n_threads": 2.5}, "n_threads"),
        ("not an object", "JSON object"),
        (["not", "an", "object"], "JSON object"),
    ])
    def test_bad_bodies_are_400(self, body, fragment):
        status, payload = handle_predict(body)
        assert status == 400
        assert fragment in payload["error"]

    def test_counters(self):
        tel = obs.enable(fresh=True)
        handle_predict(dict(PREDICT_BODY))
        handle_predict({**PREDICT_BODY, "machine": "cray_1"})
        # Request-level accounting (serve.requests, the request timer)
        # lives in the HTTP layer's ServiceTelemetry now; the handler
        # boundary only owns outcome counters.
        assert counter_value(tel, _names.SERVE_REQUESTS) == 0
        assert counter_value(tel, _names.SERVE_PREDICTIONS) == 1
        assert counter_value(tel, _names.SERVE_BAD_REQUESTS) == 1
        assert _names.SERVE_REQUEST_SECONDS not in tel.metrics.snapshot()

    def test_cache_hit_counters_increment_on_warm_requests(self):
        hits = _names.perf_cache_metric("flow", "hits")
        misses = _names.perf_cache_metric("flow", "misses")
        tel = obs.enable(fresh=True)
        handle_predict(dict(PREDICT_BODY))          # cold: misses only
        cold_hits = counter_value(tel, hits)
        cold_misses = counter_value(tel, misses)
        assert cold_misses >= 2                     # cell + baseline
        handle_predict(dict(PREDICT_BODY))          # warm: hits only
        assert counter_value(tel, hits) == cold_hits + 2
        assert counter_value(tel, misses) == cold_misses


class TestRecommendHandler:
    def test_success_ranks_candidates(self):
        status, payload = handle_recommend(dict(RECOMMEND_BODY))
        assert status == 200
        slowdowns = [c["slowdown"] for c in payload["candidates"]]
        assert slowdowns[0] == 1.0
        assert slowdowns == sorted(slowdowns)
        assert payload["best"]["machine"] == "intel_uma"
        assert payload["best"]["n_active"] \
            == payload["candidates"][0]["n_active"]
        assert len(payload["candidates"]) == 4

    def test_bad_core_counts_are_400(self):
        status, payload = handle_recommend(
            {**RECOMMEND_BODY, "core_counts": "all"})
        assert status == 400
        assert "core_counts" in payload["error"]
        status, _ = handle_recommend({**RECOMMEND_BODY, "core_counts": [0]})
        assert status == 400

    def test_counter(self):
        tel = obs.enable(fresh=True)
        handle_recommend(dict(RECOMMEND_BODY))
        assert counter_value(tel, _names.SERVE_RECOMMENDATIONS) == 1


async def http_request(host, port, method, path, body=None, *,
                       raw_bytes=None, close=True):
    """One scripted HTTP exchange; returns (status, payload_dict)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if raw_bytes is not None:
            writer.write(raw_bytes)
        else:
            payload = b"" if body is None else json.dumps(body).encode()
            head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    + ("Connection: close\r\n" if close else "") + "\r\n")
            writer.write(head.encode() + payload)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    status = int(data.split(b" ", 2)[1])
    return status, json.loads(data.split(b"\r\n\r\n", 1)[1])


async def _read_response(reader):
    """Read one framed response: (status, lower-cased headers, body bytes)."""
    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def http_request_full(host, port, method, path, body=None, *,
                            headers=None):
    """One exchange returning (status, response_headers, decoded_body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
             f"Content-Length: {len(payload)}\r\n{extra}"
             "Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        status, resp_headers, raw = await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    if "json" in resp_headers.get("content-type", ""):
        return status, resp_headers, json.loads(raw)
    return status, resp_headers, raw.decode("utf-8")


def run_with_server(scenario, **server_kwargs):
    """Run ``await scenario(server)`` against a fresh ephemeral server."""
    server_kwargs.setdefault("workers", 2)

    async def _main():
        async with PredictionServer(port=0, **server_kwargs) as server:
            return await scenario(server)

    return asyncio.run(_main())


class TestHTTPEndpoints:
    def test_predict_and_recommend_roundtrip(self):
        async def scenario(server):
            s1, p1 = await http_request(server.host, server.port, "POST",
                                        "/predict", PREDICT_BODY)
            s2, p2 = await http_request(server.host, server.port, "POST",
                                        "/recommend", RECOMMEND_BODY)
            return s1, p1, s2, p2

        s1, p1, s2, p2 = run_with_server(scenario)
        assert s1 == 200 and s2 == 200
        want = predict_workload("CG", "C", get_machine("intel_uma"), 4)
        assert p1["omega"] == want.omega
        assert p2["candidates"][0]["slowdown"] == 1.0

    def test_malformed_json_body_is_400(self):
        async def scenario(server):
            raw = (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Length: 9\r\nConnection: close\r\n\r\n"
                   b"{not json")
            return await http_request(server.host, server.port, "POST",
                                      "/predict", raw_bytes=raw)

        status, payload = run_with_server(scenario)
        assert status == 400
        assert "not JSON" in payload["error"]

    def test_over_deep_json_body_is_400_and_recorded_once(self):
        # json.loads raises RecursionError, not JSONDecodeError, on deep
        # nesting: the request still gets its 400 and its one record.
        tel = obs.enable(fresh=True)
        stats = ServiceTelemetry()
        body = b"[" * 100_000

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            try:
                writer.write(
                    (f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                     f"X-Repro-Request-Id: deep-1\r\n"
                     f"Content-Length: {len(body)}\r\n"
                     "Connection: close\r\n\r\n").encode() + body)
                await writer.drain()
                return await _read_response(reader)
            finally:
                writer.close()

        status, headers, raw = run_with_server(scenario, stats=stats)
        assert status == 400
        assert headers["x-repro-request-id"] == "deep-1"
        assert "not JSON" in json.loads(raw)["error"]
        assert [e["status"] for e in stats.request_log.recent()] == [400]
        snap = tel.metrics.snapshot()
        assert snap[_names.SERVE_REQUESTS]["value"] == 1
        assert snap[_names.SERVE_REQUESTS + "{status_class=4xx}"][
            "value"] == 1

    def test_uptime_survives_a_wall_clock_step(self, monkeypatch):
        async def scenario(server):
            real = time.time
            monkeypatch.setattr(time, "time", lambda: real() - 3600.0)
            return await http_request(server.host, server.port, "GET",
                                      "/healthz")

        status, payload = run_with_server(scenario)
        assert status == 200
        assert 0.0 <= payload["uptime_s"] < 60.0

    def test_empty_body_is_400(self):
        status, payload = run_with_server(
            lambda server: http_request(server.host, server.port, "POST",
                                        "/predict"))
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_unknown_path_is_404_and_lists_endpoints(self):
        status, payload = run_with_server(
            lambda server: http_request(server.host, server.port, "GET",
                                        "/nope"))
        assert status == 404
        assert "/predict" in payload["endpoints"]

    def test_wrong_method_is_405(self):
        async def scenario(server):
            a = await http_request(server.host, server.port, "GET",
                                   "/predict")
            b = await http_request(server.host, server.port, "POST",
                                   "/healthz", {})
            return a, b

        (s1, _), (s2, _) = run_with_server(scenario)
        assert s1 == 405 and s2 == 405

    def test_oversized_body_is_413(self):
        async def scenario(server):
            raw = (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Length: 99999999\r\n"
                   b"Connection: close\r\n\r\n")
            return await http_request(server.host, server.port, "POST",
                                      "/predict", raw_bytes=raw)

        status, payload = run_with_server(scenario)
        assert status == 413

    def test_keep_alive_serves_sequential_requests(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            statuses = []
            try:
                for _ in range(3):
                    body = json.dumps(PREDICT_BODY).encode()
                    writer.write(
                        (f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n").encode()
                        + body)
                    await writer.drain()
                    status_line = await reader.readline()
                    statuses.append(int(status_line.split(b" ", 2)[1]))
                    length = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b""):
                            break
                        key, _, value = \
                            line.decode().partition(":")
                        if key.strip().lower() == "content-length":
                            length = int(value.strip())
                    await reader.readexactly(length)
            finally:
                writer.close()
                await writer.wait_closed()
            return statuses

        assert run_with_server(scenario) == [200, 200, 200]

    def test_metrics_and_healthz_share_the_exporter_contract(self):
        obs.enable(fresh=True)

        async def scenario(server):
            await http_request(server.host, server.port, "POST",
                               "/predict", PREDICT_BODY)
            m = await http_request(server.host, server.port, "GET",
                                   "/metrics")
            h = await http_request(server.host, server.port, "GET",
                                   "/healthz")
            return m, h

        (ms, metrics), (hs, health) = run_with_server(scenario)
        assert ms == 200 and hs == 200
        # The exporter's wrapped-snapshot schema, verbatim.
        assert "snapshot_schema" in metrics
        instruments = metrics["instruments"]
        assert instruments[_names.SERVE_PREDICTIONS]["value"] == 1
        assert instruments[_names.SERVE_REQUESTS]["value"] == 1
        assert health["status"] == "ok"
        assert health["telemetry"] is True

    def test_metrics_without_telemetry_is_503(self):
        status, payload = run_with_server(
            lambda server: http_request(server.host, server.port, "GET",
                                        "/metrics"))
        assert status == 503
        assert "telemetry" in payload["error"]

    def test_responses_identical_to_pure_handlers(self):
        # The HTTP layer must add framing only: byte-for-byte the same
        # payload the pure handler returns.
        direct_status, direct = handle_predict(dict(PREDICT_BODY))
        perf.clear_caches()

        status, served = run_with_server(
            lambda server: http_request(server.host, server.port, "POST",
                                        "/predict", PREDICT_BODY))
        assert (status, served) == (direct_status, direct)


class TestFraming:
    """Ambiguous framing gets one response and one record, then a close."""

    BODY = json.dumps(PREDICT_BODY).encode()

    def refused(self, head: bytes, body: bytes) -> tuple[int, str]:
        stats = ServiceTelemetry()

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            try:
                writer.write(b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                             + head + b"\r\n" + body)
                await writer.drain()
                status, headers, raw = await asyncio.wait_for(
                    _read_response(reader), timeout=10)
                rest = await TestReadTimeouts.read_until_closed(reader)
                return status, headers, json.loads(raw), rest
            finally:
                await close(writer)

        status, headers, payload, rest = run_with_server(scenario,
                                                         stats=stats)
        assert headers["connection"] == "close"
        assert rest == b""                 # no second response
        assert [e["status"] for e in stats.request_log.recent()] == [status]
        return status, payload["error"]

    def test_transfer_encoding_is_501(self):
        chunked = (f"{len(self.BODY):x}\r\n".encode() + self.BODY
                   + b"\r\n0\r\n\r\n")
        status, error = self.refused(b"Transfer-Encoding: chunked\r\n",
                                     chunked)
        assert status == 501
        assert "Transfer-Encoding" in error

    def test_repeated_content_length_is_400(self):
        n = len(self.BODY)
        status, error = self.refused(
            f"Content-Length: 5\r\nContent-Length: {n}\r\n".encode(),
            self.BODY)
        assert status == 400
        assert "Content-Length" in error

    def test_a_content_length_past_int_parsing_is_413(self):
        # int() refuses a str of over 4,300 digits: the request must
        # still get its one answer, not a dead connection.
        status, _ = self.refused(b"Content-Length: " + b"9" * 5000
                                 + b"\r\n", self.BODY)
        assert status == 413

    def test_leading_zeros_are_still_digits(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            try:
                writer.write(b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: " + b"0" * 5000
                             + str(len(self.BODY)).encode()
                             + b"\r\nConnection: close\r\n\r\n"
                             + self.BODY)
                await writer.drain()
                return await asyncio.wait_for(_read_response(reader),
                                              timeout=10)
            finally:
                await close(writer)

        status, _, raw = run_with_server(scenario)
        assert status == 200
        assert json.loads(raw) == handle_predict(dict(PREDICT_BODY))[1]

    @pytest.mark.parametrize("form", ["{t}_{u}", "+{t}{u}", "{t}{u}\xa0"])
    def test_content_length_must_be_ascii_digits(self, form):
        n = len(self.BODY)
        value = form.format(t=n // 10, u=n % 10)
        status, error = self.refused(
            f"Content-Length: {value}\r\n".encode("latin-1"), self.BODY)
        assert status == 400
        assert "Content-Length" in error


class FakeClock:
    """A manually advanced monotonic clock for ServiceTelemetry."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


def _span_names(trace: dict) -> set[str]:
    out = {trace["name"]}
    for child in trace.get("children", ()):
        out |= _span_names(child)
    return out


class TestRequestObservability:
    def test_request_id_echoed_and_client_id_honoured(self):
        async def scenario(server):
            fresh = await http_request_full(server.host, server.port,
                                            "POST", "/predict", PREDICT_BODY)
            named = await http_request_full(
                server.host, server.port, "POST", "/predict", PREDICT_BODY,
                headers={"X-Repro-Request-Id": "my-id.1"})
            bad = await http_request_full(
                server.host, server.port, "GET", "/healthz",
                headers={"X-Repro-Request-Id": "spaces are not ok"})
            return fresh, named, bad

        fresh, named, bad = run_with_server(scenario)
        _, fresh_headers, _ = fresh
        assert len(fresh_headers["x-repro-request-id"]) == 16
        _, named_headers, _ = named
        assert named_headers["x-repro-request-id"] == "my-id.1"
        _, bad_headers, _ = bad
        assert bad_headers["x-repro-request-id"] != "spaces are not ok"
        assert len(bad_headers["x-repro-request-id"]) == 16

    def test_debug_requests_returns_span_tree_by_id(self):
        obs.enable(fresh=True)

        async def scenario(server):
            _, headers, _ = await http_request_full(
                server.host, server.port, "POST", "/predict", PREDICT_BODY)
            rid = headers["x-repro-request-id"]
            status, payload = await http_request(
                server.host, server.port, "GET", f"/debug/requests?id={rid}")
            return rid, status, payload

        rid, status, payload = run_with_server(scenario)
        assert status == 200
        entry = payload["request"]
        assert entry["request_id"] == rid
        assert entry["path"] == "/predict"
        trace = entry["trace"]
        assert trace["name"] == "serve.request"
        assert trace["labels"]["request_id"] == rid
        # The request span links down to at least one solver span.
        assert "flow.solve" in _span_names(trace)
        # The finished tree was detached: the session tracer's root
        # forest stays bounded over a long-running service.
        assert obs.session().tracer.roots == []

    def test_debug_requests_unknown_id_and_bad_limit(self):
        async def scenario(server):
            missing = await http_request(server.host, server.port, "GET",
                                         "/debug/requests?id=nope")
            bad = await http_request(server.host, server.port, "GET",
                                     "/debug/requests?limit=ten")
            listing = await http_request(server.host, server.port, "GET",
                                         "/debug/requests")
            return missing, bad, listing

        (ms, mp), (bs, _), (ls, lp) = run_with_server(scenario)
        assert ms == 404 and "nope" in mp["error"]
        assert bs == 400
        assert ls == 200
        assert {"capacity", "total", "recent", "slowest"} <= set(lp)

    def test_dashboard_is_inline_svg_without_scripts(self):
        async def scenario(server):
            await http_request(server.host, server.port, "POST",
                               "/predict", PREDICT_BODY)
            return await http_request_full(server.host, server.port,
                                           "GET", "/dashboard")

        status, headers, body = run_with_server(scenario)
        assert status == 200
        assert headers["content-type"].startswith("text/html")
        assert "<svg" in body
        assert "<script" not in body.lower()
        assert "/predict" in body          # the request made it to a board

    def test_every_response_path_counts_its_status_class(self):
        tel = obs.enable(fresh=True)

        async def scenario(server):
            host, port = server.host, server.port
            await http_request(host, port, "GET", "/nope")          # 404
            await http_request(host, port, "GET", "/predict")       # 405
            await http_request(host, port, "POST", "/predict",      # 400
                               raw_bytes=(b"POST /predict HTTP/1.1\r\n"
                                          b"Host: t\r\n"
                                          b"Content-Length: nine\r\n"
                                          b"Connection: close\r\n\r\n"))
            await http_request(host, port, "POST", "/predict",      # 400
                               raw_bytes=b"BOGUS\r\n\r\n")
            await http_request(host, port, "POST", "/predict",      # 413
                               raw_bytes=(b"POST /predict HTTP/1.1\r\n"
                                          b"Host: t\r\n"
                                          b"Content-Length: 99999999\r\n"
                                          b"Connection: close\r\n\r\n"))
            await http_request(host, port, "POST", "/predict",      # 200
                               PREDICT_BODY)

        run_with_server(scenario)
        snap = tel.metrics.snapshot()
        assert snap[_names.SERVE_REQUESTS]["value"] == 6
        key = _names.SERVE_REQUESTS + "{status_class=%s}"
        assert snap[key % "4xx"]["value"] == 5
        assert snap[key % "2xx"]["value"] == 1
        assert snap[_names.SERVE_REQUEST_SECONDS]["count"] == 6

    def test_metrics_carries_the_windows_block(self):
        obs.enable(fresh=True)

        async def scenario(server):
            await http_request(server.host, server.port, "POST",
                               "/predict", PREDICT_BODY)
            return await http_request(server.host, server.port, "GET",
                                      "/metrics")

        status, payload = run_with_server(scenario)
        assert status == 200
        windows = payload["windows"]
        assert windows["window_schema"] == 1
        fast = windows["fast"]
        assert fast[_names.WINDOW_REQUESTS]["total"] == 1
        assert fast[_names.WINDOW_ERRORS]["total"] == 0
        assert fast[_names.WINDOW_LATENCY_SECONDS]["count"] == 1
        assert len(fast[_names.WINDOW_REQUESTS]["series"]) == 60

    def test_events_payload_reports_dropped(self):
        obs.enable(fresh=True)

        async def scenario(server):
            return await http_request(server.host, server.port, "GET",
                                      "/events")

        status, payload = run_with_server(scenario)
        assert status == 200
        assert payload["dropped"] == 0
        assert isinstance(payload["events"], list)

    def test_concurrent_keepalive_traces_stay_separate(self):
        obs.enable(fresh=True)

        async def scenario(server):
            async def worker(wid: int) -> None:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                try:
                    for j in range(5):
                        rid = f"w{wid}-r{j}"
                        body = json.dumps(PREDICT_BODY).encode()
                        writer.write(
                            (f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                             f"X-Repro-Request-Id: {rid}\r\n"
                             f"Content-Length: {len(body)}\r\n\r\n"
                             ).encode() + body)
                        await writer.drain()
                        status, headers, _ = await _read_response(reader)
                        assert status == 200
                        assert headers["x-repro-request-id"] == rid
                finally:
                    writer.close()
                    await writer.wait_closed()

            await asyncio.gather(*(worker(i) for i in range(6)))
            _, payload = await http_request(server.host, server.port, "GET",
                                            "/debug/requests?limit=50")
            return payload

        payload = run_with_server(scenario)
        predicts = [e for e in payload["recent"] if e["path"] == "/predict"]
        assert len(predicts) == 30
        for entry in predicts:
            # Each retained trace is stamped with exactly the id of the
            # request it belongs to — no cross-contamination between
            # concurrent keep-alive connections sharing the pool.
            assert entry["trace"]["labels"]["request_id"] \
                == entry["request_id"]
        assert obs.session().tracer.roots == []

    def test_sustained_500s_degrade_healthz_then_recover(self):
        import repro.serve.service as service_mod

        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)

        def boom(*args, **kwargs):
            raise RuntimeError("injected solver fault")

        async def scenario(server):
            host, port = server.host, server.port
            real = service_mod.predict_workload
            service_mod.predict_workload = boom
            try:
                for _ in range(30):
                    status, _ = await http_request(host, port, "POST",
                                                   "/predict", PREDICT_BODY)
                    assert status == 500
                _, burning = await http_request(host, port, "GET",
                                                "/healthz")
            finally:
                service_mod.predict_workload = real
            clock.advance(6 * 60)       # error budget refills
            for _ in range(10):
                status, _ = await http_request(host, port, "POST",
                                               "/predict", PREDICT_BODY)
                assert status == 200
            _, recovered = await http_request(host, port, "GET", "/healthz")
            return burning, recovered

        burning, recovered = run_with_server(scenario, stats=stats)
        assert burning["status"] == "degraded"
        assert "availability" in burning["slo"]["degraded_objectives"]
        avail = burning["slo"]["objectives"]["availability"]
        assert avail["windows"]["1m"]["burn_rate"] \
            >= burning["slo"]["fast_burn_threshold"]
        assert recovered["status"] == "ok"
        assert recovered["slo"]["degraded_objectives"] == []


class TestRequestLog:
    @staticmethod
    def reference(entries, size):
        """The board as append, stable sort and truncate would keep it."""
        recent, slowest = [], []
        for entry in entries:
            recent = (recent + [entry])[-size:]
            slowest = sorted(slowest + [entry],
                             key=lambda e: -e["duration_s"])[:size]
        return recent, slowest

    @pytest.mark.parametrize("size", [1, 5, 128])
    def test_matches_the_sort_and_truncate_reference(self, size):
        import random

        rng = random.Random(20110913 + size)
        # Few distinct durations, so ties are common at every rank.
        entries = [{"request_id": f"r{i}",
                    "duration_s": rng.choice([0.001, 0.002, 0.002, 0.005,
                                              0.010, 0.010, 0.250])}
                   for i in range(600)]
        log = RequestLog(size)
        for entry in entries:
            log.add(entry)
        recent, slowest = self.reference(entries, size)
        assert log.total == len(entries)
        assert log.slowest() == slowest
        assert log.recent() == list(reversed(recent))
        assert log.find(slowest[-1]["request_id"]) is slowest[-1]


async def close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


class TestReadTimeouts:
    """A stalled client is disconnected after ``read_timeout_s``."""

    @staticmethod
    async def read_until_closed(reader) -> bytes:
        try:
            return await asyncio.wait_for(reader.read(), timeout=10)
        except ConnectionResetError:
            return b""

    def test_idle_keepalive_connection_is_closed(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            try:
                body = json.dumps(PREDICT_BODY).encode()
                writer.write((f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                              f"Content-Length: {len(body)}\r\n\r\n"
                              ).encode() + body)
                await writer.drain()
                status, _, _ = await asyncio.wait_for(
                    _read_response(reader), timeout=10)
                loop = asyncio.get_running_loop()
                idle_from = loop.time()
                rest = await self.read_until_closed(reader)
                return status, rest, loop.time() - idle_from
            finally:
                await close(writer)

        status, rest, idle_s = run_with_server(scenario, read_timeout_s=0.5)
        assert status == 200
        assert rest == b""               # closed, nothing (no 500) written
        assert 0.25 <= idle_s < 5        # by the deadline, not at once

    def test_stalled_body_is_closed_without_a_response(self):
        obs.enable(fresh=True)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            try:
                writer.write(b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: 50\r\n\r\n{")
                await writer.drain()
                return await self.read_until_closed(reader)
            finally:
                await close(writer)

        assert run_with_server(scenario, read_timeout_s=0.3) == b""
        snap = obs.session().metrics.snapshot()
        assert _names.SERVE_ERRORS not in snap
        assert snap.get(_names.SERVE_REQUESTS, {}).get("value", 0) == 0


class TestStop:
    """``stop()`` closes idle connections and drains in-flight ones."""

    @staticmethod
    async def send_predict(server, body=PREDICT_BODY):
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        raw = json.dumps(body).encode()
        writer.write((f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                      f"Content-Length: {len(raw)}\r\n\r\n").encode() + raw)
        await writer.drain()
        return reader, writer

    def test_idle_keepalive_client_does_not_hold_stop(self, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")

        async def main():
            server = await PredictionServer(port=0, workers=2,
                                            read_timeout_s=30).start()
            reader, writer = await self.send_predict(server)
            try:
                status, headers, _ = await asyncio.wait_for(
                    _read_response(reader), timeout=10)
                await asyncio.wait_for(server.stop(), 2)
                rest = await asyncio.wait_for(reader.read(), 2)
                return status, headers, rest
            finally:
                await close(writer)

        status, headers, rest = asyncio.run(main())
        assert status == 200 and headers["connection"] == "keep-alive"
        assert rest == b""                     # EOF, not a deadline abort
        assert not [r for r in caplog.records
                    if "Exception in callback" in r.getMessage()]

    def test_in_flight_answer_is_written_before_stop_returns(
            self, monkeypatch):
        started = threading.Event()

        def slow_predict(body):
            started.set()
            time.sleep(0.3)
            return handle_predict(body)

        monkeypatch.setattr(http_mod, "handle_predict", slow_predict)

        async def main():
            server = await PredictionServer(port=0, workers=2).start()
            reader, writer = await self.send_predict(server)
            try:
                assert await asyncio.to_thread(started.wait, 10)
                await asyncio.wait_for(server.stop(), 5)
                # stop() returned, so the answer is already on the wire.
                status, headers, raw = await asyncio.wait_for(
                    _read_response(reader), timeout=1)
                return status, headers, raw, await reader.read()
            finally:
                await close(writer)

        status, headers, raw, rest = asyncio.run(main())
        assert status == 200 and headers["connection"] == "close"
        assert json.loads(raw) == handle_predict(dict(PREDICT_BODY))[1]
        assert rest == b""

    def test_a_head_buffered_before_stop_is_not_answered(self,
                                                          monkeypatch):
        # The head is in the reader's buffer when stop() closes the idle
        # connection, but its task has not resumed: the request must be
        # neither routed, answered nor recorded.
        head_read, release = threading.Event(), asyncio.Event()
        real_read = PredictionServer._read

        async def held_read(server, read, writer):
            data = await real_read(server, read, writer)
            head_read.set()
            await release.wait()
            return data

        monkeypatch.setattr(PredictionServer, "_read", held_read)
        handled = []
        monkeypatch.setattr(http_mod, "handle_predict", handled.append)

        async def main():
            server = await PredictionServer(port=0, workers=2).start()
            reader, writer = await self.send_predict(server)
            try:
                assert await asyncio.to_thread(head_read.wait, 10)
                stopping = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0)         # stop() closes idle sockets
                release.set()
                await asyncio.wait_for(stopping, 5)
                return await asyncio.wait_for(reader.read(), 2), server
            finally:
                await close(writer)

        rest, server = asyncio.run(main())
        assert rest == b""
        assert handled == []
        assert server.stats.request_log.total == 0

    def test_sigint_drains_the_cli_server(self):
        # `repro serve` stops through stop(): an idle keep-alive client
        # sees EOF and asyncio logs no cancelled connection task.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            # readline() has no deadline of its own: read in a thread.
            lines = queue.Queue()
            threading.Thread(target=lambda: lines.put(proc.stdout.readline()),
                             daemon=True).start()
            port = int(re.search(r":(\d+)$", lines.get(timeout=20).strip())
                       .group(1))
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                raw = json.dumps(PREDICT_BODY).encode()
                sock.sendall((f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                              f"Content-Length: {len(raw)}\r\n\r\n"
                              ).encode() + raw)
                data = b""
                while not data.endswith(b"}"):
                    chunk = sock.recv(65536)
                    assert chunk, f"EOF before a full answer: {data!r}"
                    data += chunk
                assert data.startswith(b"HTTP/1.1 200")
                proc.send_signal(signal.SIGINT)
                assert sock.recv(65536) == b""     # EOF while idle
            out, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0
        assert "repro serve: stopped" in out
        assert "Exception in callback" not in err and "Traceback" not in err
