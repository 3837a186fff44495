"""The request generator is deterministic and emits only valid bodies."""

import inputs
import pytest
from repro.machine import amd_numa, intel_numa, intel_uma
from repro.serve.service import handle_predict, handle_recommend
from repro.workloads import all_workloads

SEEDS = [0, 1, 2, 7, 20110913]


def _cells(requests):
    """Every (machine, program, size, n_active, n_threads) a body solves."""
    out = []
    for path, body in requests:
        ident = (body["machine"], body["program"], body["size"])
        counts = body["core_counts"] if path == "/recommend" \
            else [body["n_active"]]
        out += [ident + (n, body["n_threads"]) for n in counts]
    return out


def _check_valid(path, body):
    cores = {"intel_uma": intel_uma, "intel_numa": intel_numa,
             "amd_numa": amd_numa}[body["machine"]]().n_cores
    sizes = {w.name: set(w.sizes()) for w in all_workloads()}
    assert body["size"] in sizes[body["program"]]
    assert body["n_threads"] >= 1
    counts = body["core_counts"] if path == "/recommend" \
        else [body["n_active"]]
    assert counts
    for n in counts:
        assert 1 <= n <= cores
        assert n <= body["n_threads"]


@pytest.mark.parametrize("seed", SEEDS)
def test_cold_stream_is_deterministic_and_valid(seed):
    stream = inputs.cold_stream(seed)
    assert stream == inputs.cold_stream(seed)
    assert stream != inputs.cold_stream(seed + 1)
    assert len(stream) == inputs.COLD_REQUESTS
    for path, body in stream:
        assert path in ("/predict", "/recommend")
        _check_valid(path, body)
    cells = _cells(stream)
    assert len(cells) == len(set(cells)), "a cell repeats within a run"
    recommends = sum(1 for path, _ in stream if path == "/recommend")
    assert 0 < recommends < len(stream) / 2


@pytest.mark.parametrize("seed", SEEDS)
def test_warm_set_is_deterministic_and_valid(seed):
    hot, sequence = inputs.warm_set(seed)
    assert (hot, sequence) == inputs.warm_set(seed)
    assert len(hot) == inputs.WARM_PREDICT + inputs.WARM_RECOMMEND
    assert len(sequence) == inputs.WARM_REQUESTS
    assert set(sequence) == set(range(len(hot)))
    for path, body in hot:
        _check_valid(path, body)


def test_generated_bodies_are_accepted_by_the_service():
    stream = inputs.cold_stream(3)[:40]
    for path, body in stream:
        handler = handle_predict if path == "/predict" else handle_recommend
        status, payload = handler(body)
        assert status == 200, payload


def test_burst_streams_are_deterministic():
    assert inputs.burst_streams(5) == inputs.burst_streams(5)
    assert inputs.burst_streams(5) != inputs.burst_streams(6)
    assert len(set(inputs.burst_streams(5))) == inputs.BURST_REPLICATES
