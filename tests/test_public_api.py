"""Public-API contract tests: imports, docstrings, determinism, examples.

A downstream user's view of the library: everything exported is
documented, deterministic under seeds, and the shipped examples run.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro.util", "repro.desim", "repro.qnet", "repro.machine",
    "repro.workloads", "repro.counters", "repro.runtime", "repro.burst",
    "repro.core", "repro.experiments", "repro.resilience",
]


class TestSurface:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_subpackage_exports_resolve(self, pkg):
        module = importlib.import_module(pkg)
        assert module.__doc__, f"{pkg} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            assert obj is not None

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_public_callables_documented(self, pkg):
        import typing

        module = importlib.import_module(pkg)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if isinstance(obj, type(typing.Union[int, str])):
                continue  # type aliases carry no docstring slot
            if callable(obj) and not isinstance(obj, type(importlib)):
                assert obj.__doc__, f"{pkg}.{name} lacks a docstring"

    def test_top_level_all_consistent(self):
        for name in repro.__all__:
            assert hasattr(repro, name)


class TestDeterminism:
    def test_measurement_pipeline_bitstable(self, inuma):
        from repro import MeasurementRun, fit_model

        def run_once():
            sweep = MeasurementRun("CG", "C", inuma, rng=42).sweep(
                [1, 2, 12, 13, 24])
            model = fit_model(inuma, sweep)
            return (model.single.mu, model.single.ell, model.rho,
                    sweep[24].total_cycles)

        assert run_once() == run_once()

    def test_burst_pipeline_bitstable(self, inuma):
        from repro import BurstSampler

        a = BurstSampler(inuma).sample("CG", "A", n_windows=2000, rng=7)
        b = BurstSampler(inuma).sample("CG", "A", n_windows=2000, rng=7)
        assert (a.counts == b.counts).all()


_HYGIENE_SCRIPT = """
import sys
import repro, repro.cli, repro.serve
from repro.experiments.runner import run_experiment
from repro.serve.service import handle_predict

status, _ = handle_predict({"machine": "intel_uma", "program": "CG",
                            "size": "C", "n_active": 4})
assert status == 200, status
assert run_experiment("ablation_extended", fast=True).ok
assert run_experiment("table1").ok
print(sorted(k for k in sys.modules
             if k.split(".")[0] in ("scipy", "networkx")))
"""


class TestImportPath:
    def test_runtime_needs_neither_scipy_nor_networkx(self):
        # numpy is the only runtime dependency: a fresh interpreter that
        # imports the CLI and the server, answers a prediction, fits the
        # channel-aware model and runs every kernel loads neither package.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", _HYGIENE_SCRIPT], capture_output=True,
            text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_http_stack(self):
        # No module of the package imports http.server (repro serve and
        # --serve-metrics run on asyncio), so a process that only
        # imports the package loads none of the stdlib HTTP stack.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print(sorted(k for k in sys.modules if k"
             " in ('http.server', 'http.client', 'email', 'ssl')))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob(
        "*.py"))


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert "quickstart.py" in names
        assert len(EXAMPLES) >= 3

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_compiles(self, path):
        source = path.read_text(encoding="utf-8")
        compile(source, str(path), "exec")
        assert '"""' in source  # every example carries a docstring

    def test_quickstart_runs(self):
        path = next(p for p in EXAMPLES if p.name == "quickstart.py")
        proc = subprocess.run(
            [sys.executable, str(path)], capture_output=True, text=True,
            timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert "average relative error" in proc.stdout
