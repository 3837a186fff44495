"""Tests of the warm request path: the response memo and the profile memo.

A ``/predict`` or ``/recommend`` body whose exact answer is already in
``perf.response_cache`` is answered on the event loop with the stored
bytes, before JSON decoding; every other body goes to the worker pool.
These tests pin that routing, what fills the memo and what never does,
the counters and the span a memo hit leaves, that memo and pool answers
are byte-identical, and that the profile memo stays coherent under
thread churn.
"""

import asyncio
import copy
import functools
import hashlib
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.runtime.flow as flow_mod
import repro.serve.http as http_mod
import repro.serve.service as service_mod
from repro import obs, perf
from repro.machine import intel_numa
from repro.obs import names as _names
from repro.perf.keys import cached_fingerprint
from repro.resilience import ConvergencePolicy, faultinject
from repro.runtime.calibration import calibrate_profile
from repro.runtime.flow import FLOW_SITE
from repro.serve import PredictionServer, get_machine
from repro.serve.service import exact_answer, handle_predict, handle_recommend

PREDICT_BODY = {"machine": "intel_uma", "program": "CG", "size": "C",
                "n_active": 4}
RECOMMEND_BODY = {"machine": "intel_uma", "program": "CG", "size": "C",
                  "core_counts": [1, 2, 4, 8]}
REQUESTS = [("/predict", PREDICT_BODY), ("/recommend", RECOMMEND_BODY)]
HANDLERS = {"/predict": handle_predict, "/recommend": handle_recommend}


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


def pure_answer(path: str, body) -> bytes:
    """The bytes the handler's own answer to ``body`` is written as."""
    return json.dumps(HANDLERS[path](copy.deepcopy(body))[1],
                      sort_keys=True).encode()


async def _post(conn, path: str, body) -> tuple[int, bytes]:
    """One POST on the keep-alive ``conn``: ``(status, raw body bytes)``.

    ``body`` is sent as is when it is ``bytes``, else JSON-encoded.
    """
    reader, writer = conn
    payload = body if isinstance(body, bytes) else json.dumps(body).encode()
    writer.write((f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                  f"Content-Length: {len(payload)}\r\n\r\n").encode()
                 + payload)
    await writer.drain()
    status = int((await reader.readline()).split(b" ", 2)[1])
    length = 0
    while (line := await reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _connected(server, scenario):
    conn = await asyncio.open_connection(server.host, server.port)
    try:
        return await scenario(functools.partial(_post, conn))
    finally:
        conn[1].close()
        await conn[1].wait_closed()


def run(scenario, workers: int = 2):
    """``await scenario(server, post)`` against a fresh server.

    ``post(path, body)`` sends one request on a single keep-alive
    connection and returns its ``(status, raw body bytes)``.
    """
    async def _main():
        async with PredictionServer(port=0, workers=workers) as server:
            return await _connected(
                server, functools.partial(scenario, server))

    return asyncio.run(_main())


def serve(requests):
    """Send each ``(path, body)`` in turn on one connection."""
    async def scenario(server, post):
        return [await post(path, body) for path, body in requests]

    return run(scenario)


def profile_memo(program: str, size: str, machine):
    """What ``perf.profile_cache`` holds for the triple, or ``perf.MISS``."""
    return perf.profile_cache.get((program, size,
                                   cached_fingerprint(machine)))


class TestProfileMemo:
    def test_equal_presets_share_one_profile_object(self):
        first = calibrate_profile("CG", "C", intel_numa())
        second = calibrate_profile("CG", "C", intel_numa())
        assert first is second
        assert profile_memo("CG", "C", intel_numa()) is first

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
        assert profile_memo("CG", "C", machine) is perf.MISS
        again = calibrate_profile("CG", "C", machine)
        assert again is not first and again == first

    def test_disabled_caches_rebuild_every_profile(self):
        machine = intel_numa()
        perf.set_enabled(False)
        first = calibrate_profile("CG", "C", machine)
        second = calibrate_profile("CG", "C", machine)
        assert first is not second and first == second
        assert profile_memo("CG", "C", machine) is perf.MISS
        assert perf.cache_stats()["profile"]["enabled"] is False


class TestLoopPath:
    def test_warm_requests_never_reach_the_executor(self, pool_submits):
        cold = serve(REQUESTS)                 # misses: solved on the pool
        assert len(pool_submits) == 2
        warm = serve(REQUESTS)                 # repeats: the memo answers
        assert len(pool_submits) == 2
        assert [status for status, _ in warm] == [200, 200]
        assert warm == cold

    def test_loop_and_pool_bodies_are_byte_identical(self, pool_submits):
        cold = serve(REQUESTS)                 # solved on the pool
        warm = serve(REQUESTS)                 # answered from the memo
        assert len(pool_submits) == 2
        perf.response_cache.clear()
        pooled = serve(REQUESTS)               # flow cache warm, memo cold
        assert len(pool_submits) == 4
        assert cold == warm == pooled
        assert [raw for _, raw in warm] \
            == [pure_answer(path, body) for path, body in REQUESTS]

    def test_cold_bodies_go_to_the_pool(self, pool_submits):
        serve(REQUESTS)
        cold = {**PREDICT_BODY, "n_active": 3}
        answers = serve([("/predict", cold), ("/predict", cold)])
        assert [status for status, _ in answers] == [200, 200]
        assert len(pool_submits) == 3          # the repeat was a memo hit
        # The key is the bytes, not the meaning: a re-spaced body is new.
        spaced = json.dumps(PREDICT_BODY, indent=1).encode()
        assert serve([("/predict", spaced)]) \
            == [(200, pure_answer("/predict", PREDICT_BODY))]
        assert len(pool_submits) == 4

    def test_armed_flow_fault_goes_to_the_pool(self, pool_submits):
        serve(REQUESTS)                        # fills the memo
        stats = perf.cache_stats()["response"]
        cold = {**PREDICT_BODY, "n_active": 3}
        with faultinject.inject(nonconverge={FLOW_SITE: 1}):
            answers = serve([("/predict", PREDICT_BODY),
                             ("/predict", cold), ("/predict", cold)])
        assert [status for status, _ in answers] == [200, 200, 200]
        assert len(pool_submits) == 5
        # Neither read (no hit or miss counted) nor filled.
        assert perf.cache_stats()["response"] == stats

    def test_disabled_caches_go_to_the_pool(self, pool_submits):
        serve(REQUESTS)
        perf.set_enabled(False)
        stats = perf.cache_stats()["response"]
        assert stats["size"] == 0
        answers = serve(REQUESTS + REQUESTS)
        assert len(pool_submits) == 6
        assert perf.cache_stats()["response"] == stats
        assert answers == [(200, pure_answer(path, body))
                           for path, body in REQUESTS + REQUESTS]

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
        hits = perf.response_cache.hits
        answers = serve([("/predict", body), ("/predict", body)])
        assert [status for status, _ in answers] == [400, 400]
        assert answers[0] == answers[1]
        assert answers[0][1] == pure_answer("/predict", body)
        assert len(pool_submits) == 2          # the repeat is no hit
        assert len(perf.response_cache) == 0
        assert perf.response_cache.hits == hits

    def test_undecodable_bodies_are_400s_on_the_loop(self, pool_submits):
        bodies = [b"", b"{not json", b"\xff\xfe", b"[" * 100_000]
        answers = serve([("/predict", raw) for raw in bodies * 2])
        assert [status for status, _ in answers] == [400] * 8
        assert pool_submits == []
        assert len(perf.response_cache) == 0

    def test_unbuilt_preset_and_unmemoized_profile_need_a_solve(
            self, pool_submits):
        serve([("/predict", PREDICT_BODY)])
        serve([("/predict", {**PREDICT_BODY, "size": "W"}),
               ("/predict", {**PREDICT_BODY, "machine": "amd_numa"})])
        assert len(pool_submits) == 3
        # A hit needs neither: it builds no preset, calibrates no profile.
        built = dict(service_mod._machines)
        service_mod._machines.clear()
        perf.profile_cache.clear()
        try:
            answers = serve([("/predict", PREDICT_BODY)])
            assert service_mod._machines == {}
            assert len(perf.profile_cache) == 0
        finally:
            service_mod._machines.update(built)
        assert len(pool_submits) == 3
        assert answers == [(200, pure_answer("/predict", PREDICT_BODY))]

    def test_a_true_look_means_the_handler_solves_nothing(self,
                                                          pool_submits):
        # Over a grid of valid and invalid bodies, the repeat of every
        # 200 is a memo hit that touches no flow cache; nothing else is.
        bodies = [
            {"machine": machine, "program": program, "size": "C",
             "n_active": n_active, "n_threads": n_threads,
             "core_counts": core_counts}
            for machine, program, n_active, n_threads, core_counts in
            itertools.product(["intel_uma", "cray_1"], ["CG", "LINPACK"],
                              [0, 4, 9], [None, 2, 8],
                              [None, [1, 8], [0]])]

        async def scenario(server, post):
            answers, hits = [], {"/predict": 0, "/recommend": 0}
            for body, path in itertools.product(bodies, HANDLERS):
                first = await post(path, body)
                submits = len(pool_submits)
                flow = perf.cache_stats()["flow"]
                assert await post(path, body) == first
                hit = len(pool_submits) == submits
                assert hit == (first[0] == 200)
                if hit:
                    hits[path] += 1
                    assert perf.cache_stats()["flow"] == flow
                answers.append((path, body, first[1]))
            return answers, hits

        answers, hits = run(scenario)
        assert all(hits.values())
        for path, body, raw in answers:
            assert raw == pure_answer(path, body)

    def test_a_hit_moves_only_its_own_counters(self, pool_submits,
                                               monkeypatch):
        tel = obs.enable(fresh=True)
        serve(REQUESTS)                        # two misses fill the memo
        response = {event: _names.perf_cache_metric("response", event)
                    for event in ("hits", "misses")}
        snap = tel.metrics.snapshot()
        assert snap[response["misses"]]["value"] == 2
        assert response["hits"] not in snap
        calls = []
        for name in ("handle_predict", "handle_recommend"):
            handler = getattr(http_mod, name)
            monkeypatch.setattr(http_mod, name, lambda body, h=handler:
                                calls.append(body) or h(body))
        for path, counter in (("/predict", _names.SERVE_PREDICTIONS),
                              ("/recommend", _names.SERVE_RECOMMENDATIONS)):
            before = tel.metrics.snapshot()
            assert serve([(path, dict(REQUESTS)[path])])[0][0] == 200
            after = tel.metrics.snapshot()
            moved = {name for name in before.keys() | after.keys()
                     if before.get(name) != after.get(name)}
            assert moved == {
                response["hits"], counter, _names.SERVE_REQUESTS,
                _names.SERVE_REQUESTS + "{status_class=2xx}",
                _names.SERVE_REQUEST_SECONDS}
            for name in moved - {_names.SERVE_REQUEST_SECONDS}:
                assert after[name]["value"] \
                    == before.get(name, {"value": 0})["value"] + 1
            assert after[_names.SERVE_REQUEST_SECONDS]["count"] \
                == before[_names.SERVE_REQUEST_SECONDS]["count"] + 1
        assert calls == [] and len(pool_submits) == 2

    def test_loop_answers_keep_the_request_trace(self, pool_submits):
        tel = obs.enable(fresh=True)

        async def scenario(server, post):
            await post("/predict", PREDICT_BODY)   # a miss, on the pool
            await post("/predict", PREDICT_BODY)   # a hit, on the loop
            return server.stats.debug_payload(limit=2)

        payload = run(scenario)
        assert len(pool_submits) == 1
        hit, miss = payload["recent"]
        assert miss["trace"]["name"] == hit["trace"]["name"] \
            == "serve.request"
        assert [c["name"] for c in miss["trace"]["children"]] \
            == ["flow.solve"]
        assert hit["trace"]["children"] == []
        assert hit["trace"]["labels"] == {"request_id": hit["request_id"],
                                          "path": "/predict"}
        assert tel.tracer.roots == []          # both trees were detached


class TestResponseMemo:
    def test_clear_caches_and_disabling_empty_the_memo(self):
        serve(REQUESTS)
        assert len(perf.response_cache) == 2
        perf.clear_caches()
        assert len(perf.response_cache) == 0
        serve(REQUESTS)
        assert len(perf.response_cache) == 2
        perf.set_enabled(False)
        assert len(perf.response_cache) == 0
        assert perf.cache_stats()["response"]["enabled"] is False

    def test_a_padded_body_is_stored_under_its_digest(self, pool_submits):
        raw = json.dumps(PREDICT_BODY).encode()
        padded = raw + b" " * (http_mod.MAX_BODY_BYTES - len(raw))
        answers = serve([("/predict", padded), ("/predict", padded)])
        assert answers == [(200, pure_answer("/predict", PREDICT_BODY))] * 2
        assert len(pool_submits) == 1
        [(path, digest)] = list(perf.response_cache._data)
        assert path == "/predict" and len(digest) == 32
        assert digest == hashlib.sha256(padded).digest()

    def test_exact_answer_reads_every_solver_stage(self):
        predict = handle_predict(dict(PREDICT_BODY))[1]
        recommend = handle_recommend(dict(RECOMMEND_BODY))[1]
        assert exact_answer(predict) and exact_answer(recommend)
        assert not exact_answer({**predict, "solver_stage": "schweitzer"})
        for i in range(len(recommend["candidates"])):
            mixed = copy.deepcopy(recommend)
            mixed["candidates"][i]["solver_stage"] = "bounds"
            assert not exact_answer(mixed)

    def test_a_degraded_answer_does_not_fill_the_memo(self, pool_submits,
                                                      monkeypatch):
        # No fault is armed: a one-iteration budget degrades the solve.
        monkeypatch.setattr(flow_mod, "DEFAULT_POLICY",
                            ConvergencePolicy(max_iterations=1))
        answers = serve([("/predict", PREDICT_BODY)] * 2)
        assert [status for status, _ in answers] == [200, 200]
        assert {json.loads(raw)["solver_stage"] for _, raw in answers} \
            & {"exact"} == set()
        assert len(pool_submits) == 2
        assert len(perf.response_cache) == 0

    def test_a_fault_armed_during_the_solve_does_not_fill_the_memo(
            self, monkeypatch):
        # The failed first attempt is retried on the exact rung at heavier
        # damping: the answer still reads "exact", but its bits differ.
        def arming_predict(body):
            faultinject.install(
                faultinject.FaultPlan(nonconverge={FLOW_SITE: 1}))
            return handle_predict(body)

        monkeypatch.setattr(http_mod, "handle_predict", arming_predict)
        try:
            [(status, raw)] = serve([("/predict", PREDICT_BODY)])
        finally:
            faultinject.clear()
        assert status == 200 and json.loads(raw)["solver_stage"] == "exact"
        assert raw != pure_answer("/predict", PREDICT_BODY)
        assert len(perf.response_cache) == 0

    def test_http_hammer_over_eight_connections_is_byte_identical(self):
        requests = REQUESTS + [
            ("/predict", {**PREDICT_BODY, "n_active": 8}),
            ("/predict", {**PREDICT_BODY, "machine": "intel_numa",
                          "n_active": 12})]
        want = [(200, pure_answer(path, body)) for path, body in requests]
        perf.clear_caches()                    # misses and hits race
        hits = perf.response_cache.hits

        async def client(server, k):
            async def scenario(post):
                return [await post(*requests[(k + i) % len(requests)])
                        for i in range(40)]
            return await _connected(server, scenario)

        async def main():
            async with PredictionServer(port=0, workers=4) as server:
                return await asyncio.gather(*(client(server, k)
                                              for k in range(8)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = asyncio.run(asyncio.wait_for(main(), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for k, answers in enumerate(results):
            assert answers == [want[(k + i) % len(requests)]
                               for i in range(40)]
        assert perf.response_cache.hits > hits


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
    flow_misses = perf.flow_cache.misses
    errors: list[str] = []

    def work():
        for i in range(200):
            k = i % len(bodies)
            if calibrate_profile(*triples[k]) is not want_profiles[k]:
                errors.append(f"profile {k} changed identity")
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
    assert perf.flow_cache.misses == flow_misses   # no cached cell was lost
