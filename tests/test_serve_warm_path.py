"""Tests of the warm request path: memoized profiles and loop-side answers.

A request whose every flow cell is already cached is answered on the
event loop, with no thread hop and no profile rebuild; everything else
still goes to the worker pool.  These tests pin the routing, that the
cache look moves no instrument, that both paths produce byte-identical
bodies, and that the profile memo stays coherent under thread churn.
"""

import asyncio
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.serve.http as http_mod
from repro import obs, perf
from repro.machine import intel_numa
from repro.obs import names as _names
from repro.resilience import faultinject
from repro.runtime.calibration import calibrate_profile, memoized_profile
from repro.runtime.flow import FLOW_SITE
from repro.serve import PredictionServer, get_machine
from repro.serve.service import (
    handle_predict,
    handle_recommend,
    predict_memoized,
    recommend_memoized,
)

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


class RecordingPool(ThreadPoolExecutor):
    """The server's executor, recording every job handed to it."""

    submits: list = []

    def submit(self, fn, /, *args, **kwargs):
        RecordingPool.submits.append(args)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def pool_submits(monkeypatch):
    monkeypatch.setattr(RecordingPool, "submits", [])
    monkeypatch.setattr(http_mod, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool.submits


async def _exchange(server, requests):
    """Send ``(path, body)`` requests on one keep-alive connection.

    Returns each response's ``(status, raw body bytes)``.
    """
    reader, writer = await asyncio.open_connection(server.host, server.port)
    out = []
    try:
        for path, body in requests:
            payload = json.dumps(body).encode()
            writer.write((f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                          f"Content-Length: {len(payload)}\r\n\r\n"
                          ).encode() + payload)
            await writer.drain()
            status = int((await reader.readline()).split(b" ", 2)[1])
            length = 0
            while (line := await reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            out.append((status, await reader.readexactly(length)))
    finally:
        writer.close()
        await writer.wait_closed()
    return out


def serve(requests):
    async def _main():
        async with PredictionServer(port=0, workers=2) as server:
            return await _exchange(server, requests)

    return asyncio.run(_main())


def warm_up():
    assert handle_predict(dict(PREDICT_BODY))[0] == 200
    assert handle_recommend(dict(RECOMMEND_BODY))[0] == 200


class TestProfileMemo:
    def test_equal_presets_share_one_profile_object(self):
        first = calibrate_profile("CG", "C", intel_numa())
        second = calibrate_profile("CG", "C", intel_numa())
        assert first is second
        assert memoized_profile("CG", "C", intel_numa()) is first

    def test_every_call_counts_a_lookup(self):
        tel = obs.enable(fresh=True)
        machine = intel_numa()
        for _ in range(3):
            calibrate_profile("CG", "C", machine)
        snap = tel.metrics.snapshot()
        assert snap[_names.CALIBRATION_PROFILE_LOOKUPS]["value"] == 3
        assert snap[_names.perf_cache_metric("profile", "misses")][
            "value"] == 1
        assert snap[_names.perf_cache_metric("profile", "hits")][
            "value"] == 2

    def test_clear_caches_reaches_the_memo(self):
        machine = intel_numa()
        first = calibrate_profile("CG", "C", machine)
        assert len(perf.profile_cache) == 1
        perf.clear_caches()
        assert len(perf.profile_cache) == 0
        assert memoized_profile("CG", "C", machine) is None
        again = calibrate_profile("CG", "C", machine)
        assert again is not first and again == first

    def test_disabled_caches_rebuild_every_profile(self):
        machine = intel_numa()
        perf.set_enabled(False)
        first = calibrate_profile("CG", "C", machine)
        second = calibrate_profile("CG", "C", machine)
        assert first is not second and first == second
        assert memoized_profile("CG", "C", machine) is None
        assert perf.cache_stats()["profile"]["enabled"] is False


class TestLoopPath:
    def test_warm_requests_never_reach_the_executor(self, pool_submits):
        warm_up()
        answers = serve([("/predict", PREDICT_BODY),
                         ("/recommend", RECOMMEND_BODY)])
        assert [status for status, _ in answers] == [200, 200]
        assert pool_submits == []

    def test_loop_and_pool_bodies_are_byte_identical(self, pool_submits,
                                                     monkeypatch):
        requests = [("/predict", PREDICT_BODY),
                    ("/recommend", RECOMMEND_BODY)]
        cold = serve(requests)                 # solved on the pool
        assert len(pool_submits) == 2
        warm = serve(requests)                 # answered on the loop
        assert len(pool_submits) == 2
        monkeypatch.setattr(http_mod, "predict_memoized", lambda body: False)
        monkeypatch.setattr(http_mod, "recommend_memoized",
                            lambda body: False)
        pooled = serve(requests)               # warm, forced to the pool
        assert len(pool_submits) == 4
        assert cold == warm == pooled

    def test_cold_bodies_go_to_the_pool(self, pool_submits):
        warm_up()
        cold = {**PREDICT_BODY, "n_active": 3}
        answers = serve([("/predict", cold), ("/predict", cold)])
        assert [status for status, _ in answers] == [200, 200]
        assert len(pool_submits) == 1          # the second one was warm

    def test_armed_flow_fault_goes_to_the_pool(self, pool_submits):
        warm_up()
        with faultinject.inject(nonconverge={FLOW_SITE: 1}):
            assert not predict_memoized(dict(PREDICT_BODY))
            answers = serve([("/predict", PREDICT_BODY)])
        assert answers[0][0] == 200
        assert len(pool_submits) == 1

    def test_disabled_caches_go_to_the_pool(self, pool_submits):
        warm_up()
        perf.set_enabled(False)
        answers = serve([("/predict", PREDICT_BODY),
                         ("/recommend", RECOMMEND_BODY)])
        assert [status for status, _ in answers] == [200, 200]
        assert len(pool_submits) == 2

    @pytest.mark.parametrize("body", [
        {**PREDICT_BODY, "machine": "cray_1"},
        {**PREDICT_BODY, "program": "LINPACK"},
        {**PREDICT_BODY, "n_active": 99},
        {**PREDICT_BODY, "n_active": "four"},
        {**PREDICT_BODY, "n_threads": 2},
        ["not", "an", "object"],
    ])
    def test_invalid_bodies_go_to_the_pool_for_their_400(self, body,
                                                         pool_submits):
        warm_up()
        assert not predict_memoized(body)
        answers = serve([("/predict", body)])
        assert answers[0][0] == 400
        assert len(pool_submits) == 1

    def test_unbuilt_preset_and_unmemoized_profile_need_a_solve(self):
        warm_up()
        assert predict_memoized(dict(PREDICT_BODY))
        assert not predict_memoized({**PREDICT_BODY, "size": "W"})
        assert not recommend_memoized({**RECOMMEND_BODY,
                                       "core_counts": [1, 3]})
        import repro.serve.service as service_mod

        built = dict(service_mod._machines)
        service_mod._machines.clear()
        try:
            assert not predict_memoized(dict(PREDICT_BODY))
        finally:
            service_mod._machines.update(built)

    def test_a_true_look_means_the_handler_solves_nothing(self):
        # The look and the handler take their cells from one helper, so
        # a look that answers True must be a 200 with no flow-cache miss.
        warm_up()
        handle_recommend({**RECOMMEND_BODY, "core_counts": None})
        true_looks = {handle_predict: 0, handle_recommend: 0}
        for machine, program, size, n_active, n_threads, core_counts in \
                itertools.product(["intel_uma", "intel_numa", "cray_1"],
                                  ["CG", "LINPACK"], ["C", "W"],
                                  [-1, 0, 1, 4, 8, 9], [None, 0, 4, 8],
                                  [None, [], [1, 8], [0], [4, 4]]):
            body = {"machine": machine, "program": program, "size": size,
                    "n_active": n_active, "n_threads": n_threads,
                    "core_counts": core_counts}
            for memoized, handler in ((predict_memoized, handle_predict),
                                      (recommend_memoized, handle_recommend)):
                if memoized(dict(body)):
                    true_looks[handler] += 1
                    misses = perf.flow_cache.misses
                    assert handler(dict(body))[0] == 200
                    assert perf.flow_cache.misses == misses
        assert all(true_looks.values())

    def test_cache_look_moves_no_instrument(self):
        tel = obs.enable(fresh=True)
        warm_up()
        get_machine("amd_numa")                # built, nothing cached
        bodies = [dict(PREDICT_BODY), {**PREDICT_BODY, "n_active": 3},
                  {**PREDICT_BODY, "machine": "amd_numa"},
                  {**PREDICT_BODY, "program": "LINPACK"}]
        snapshot = json.dumps(tel.metrics.snapshot(), sort_keys=True)
        roots = list(tel.tracer.roots)
        stats = perf.cache_stats()
        order = {c.name: list(c._data) for c in
                 (perf.flow_cache, perf.mva_cache, perf.profile_cache)}
        looks = [predict_memoized(b) for b in bodies] \
            + [recommend_memoized(dict(RECOMMEND_BODY))]
        assert looks == [True, False, False, False, True]
        assert json.dumps(tel.metrics.snapshot(), sort_keys=True) \
            == snapshot
        assert perf.cache_stats() == stats
        assert {c.name: list(c._data) for c in
                (perf.flow_cache, perf.mva_cache, perf.profile_cache)} \
            == order
        assert tel.tracer.roots == roots

    def test_loop_answers_keep_the_request_trace(self, pool_submits):
        tel = obs.enable(fresh=True)
        warm_up()
        before = tel.metrics.snapshot()[_names.SERVE_PREDICTIONS]["value"]

        async def scenario():
            async with PredictionServer(port=0, workers=2) as server:
                await _exchange(server, [("/predict", PREDICT_BODY)])
                return server.stats.debug_payload(limit=1)

        payload = asyncio.run(scenario())
        assert pool_submits == []
        trace = payload["recent"][0]["trace"]
        assert trace["name"] == "serve.request"
        assert [c["name"] for c in trace["children"]] == ["flow.solve"]
        snap = tel.metrics.snapshot()
        assert snap[_names.SERVE_PREDICTIONS]["value"] == before + 1


def test_threaded_hammer_is_bit_identical():
    """Eight threads on profiles and warm handlers under forced switching."""
    bodies = [dict(PREDICT_BODY), {**PREDICT_BODY, "n_active": 8},
              {**PREDICT_BODY, "machine": "intel_numa", "n_active": 12}]
    triples = [("CG", "C", get_machine("intel_uma")),
               ("SP", "C", get_machine("intel_numa")),
               ("EP", "W", intel_numa())]
    want_predict = [json.dumps(handle_predict(dict(b)), sort_keys=True)
                    for b in bodies]
    want_recommend = json.dumps(handle_recommend(dict(RECOMMEND_BODY)),
                                sort_keys=True)
    want_profiles = [calibrate_profile(*t) for t in triples]
    errors: list[str] = []

    def work():
        for i in range(200):
            k = i % len(bodies)
            if calibrate_profile(*triples[k]) is not want_profiles[k]:
                errors.append(f"profile {k} changed identity")
            if not predict_memoized(dict(bodies[k])):
                errors.append(f"body {k} lost its cached cells")
            got = json.dumps(handle_predict(dict(bodies[k])),
                             sort_keys=True)
            if got != want_predict[k]:
                errors.append(f"predict {k} differs")
            if i % 8 == 0 and json.dumps(handle_recommend(
                    dict(RECOMMEND_BODY)), sort_keys=True) != want_recommend:
                errors.append("recommend differs")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, daemon=True)
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
