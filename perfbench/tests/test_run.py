"""The command line: metric tables, and refusal without program sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent.parent


def test_benchmark_json_lists_what_the_result_line_carries():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert gated == [(m, u) for m, u in run.END_TO_END
                     if m not in run.UNGATED]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_result_line_has_exactly_the_gated_metrics():
    metrics = {m: 1.0 for m, _ in run.END_TO_END}
    line = run.result_line({"correct": True, "attempted": 3, "failed": 0,
                            "metrics": metrics})
    assert set(line["metrics"]) == set(metrics) - set(run.UNGATED)
    assert line["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}


def test_without_program_sources_it_exits_nonzero_and_prints_no_result(
        tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
