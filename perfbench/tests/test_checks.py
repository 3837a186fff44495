"""The correctness checker accepts exact answers and nothing else."""

import json
import math

import checks

BODY = {"machine": "intel_numa", "program": "CG", "size": "B",
        "n_active": 6, "n_threads": 24}


def _served(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def test_exact_answer_passes():
    expected = checks.expected_response("/predict", BODY)
    assert checks.served_matches(_served(expected), expected)
    assert checks.check_served([("/predict", BODY)] * 2,
                               [_served(expected)] * 2) == []


def test_one_ulp_perturbation_is_rejected():
    expected = checks.expected_response("/predict", BODY)
    for field in ("omega", "total_cycles", "baseline_cycles"):
        bad = dict(expected)
        bad[field] = math.nextafter(bad[field], math.inf)
        assert not checks.served_matches(_served(bad), expected), field
        problems = checks.check_served([("/predict", BODY)], [_served(bad)])
        assert len(problems) == 1


def test_recommend_answers_are_checked_per_candidate():
    body = {"machine": "amd_numa", "program": "FT", "size": "C",
            "core_counts": [1, 12, 48], "n_threads": 48}
    expected = checks.expected_response("/recommend", body)
    assert checks.check_served([("/recommend", body)],
                               [_served(expected)]) == []
    bad = json.loads(_served(expected))
    slowdown = bad["candidates"][-1]["slowdown"]
    bad["candidates"][-1]["slowdown"] = math.nextafter(slowdown, 0.0)
    assert len(checks.check_served([("/recommend", body)],
                                   [_served(bad)])) == 1


def test_repeated_bodies_must_get_identical_answers():
    expected = checks.expected_response("/predict", BODY)
    other = dict(expected, llc_misses=expected["llc_misses"] * 2)
    problems = checks.check_served([("/predict", BODY)] * 2,
                                   [_served(expected), _served(other)])
    assert any("differ between repeats" in p for p in problems)


def test_burst_and_sweep_checks_compare_passes():
    one = [{"name": "CG.B", "ok": True, "heavy": False, "digest": "x"}]
    assert checks.check_burst([one, one]) == []
    two = [dict(one[0], digest="y")]
    assert checks.check_burst([one, two])
    heavy = [dict(one[0], heavy=True)]
    assert checks.check_burst([heavy])
    failed = [{"name": "fig5", "ok": False, "digest": None}]
    assert checks.check_sweep(1, [failed])
