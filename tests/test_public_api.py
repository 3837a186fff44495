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
    "repro.core", "repro.experiments", "repro.resilience", "repro.obs",
    "repro.serve", "repro.perf", "repro.lintkit",
]


def _run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout; its stdout."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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

    @pytest.mark.parametrize("pkg", ["repro", *PACKAGES])
    def test_dir_lists_every_export(self, pkg):
        # Exports resolve on first read (PEP 562); dir() still lists them.
        module = importlib.import_module(pkg)
        assert set(module.__all__) <= set(dir(module))

    def test_core_predict_is_the_function(self):
        # ``repro.core.predict`` names a submodule and a function.  The
        # server imports the submodule before anything reads the package
        # attribute, and the attribute must still be the function.
        assert _run_fresh(
            "import repro.serve.service\n"
            "import repro.core\n"
            "from repro.core import predict\n"
            "from repro.core.predict import predict as function\n"
            "print(repro.core.predict is function, predict is function)"
        ) == "True True"


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


# Defines ``import_every_module``, which imports each module of the
# package but ``repro.__main__`` and the names in ``skip``.  ``import
# repro`` loads the package alone, so a script that checks what the
# package imports runs this before it reads ``sys.modules``.
_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
import repro

def import_every_module(skip=()):
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__" and info.name not in skip:
            importlib.import_module(info.name)
"""

_HYGIENE_SCRIPT = _IMPORT_EVERY_MODULE + """
import_every_module()
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
        # imports every module of the package, answers a prediction, fits
        # the channel-aware model and runs every kernel loads neither
        # package.
        assert _run_fresh(_HYGIENE_SCRIPT) == "[]"

    def test_import_loads_no_http_stack(self):
        # No module of the package imports http.server (repro serve and
        # --serve-metrics run on asyncio) or the stdlib HTTP client, so
        # importing every module loads neither; only the server's
        # transport, repro.serve.http, loads ssl, through asyncio.
        assert _run_fresh(
            _IMPORT_EVERY_MODULE
            + "import_every_module(skip={'repro.serve.http'})\n"
            "print(sorted(k for k in sys.modules if k"
            " in ('http.server', 'http.client', 'email', 'ssl')))\n"
            "import_every_module()\n"
            "print(sorted(k for k in sys.modules if k"
            " in ('http.server', 'http.client', 'email')))") == "[]\n[]"

    def test_presets_load_only_machine_and_util(self):
        # Package exports load on first read, so building a machine
        # loads the machine models and the utilities they use: no other
        # part of the package, and no numpy.
        assert _run_fresh(
            "import sys, repro\n"
            "repro.intel_numa()\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'numpy' or m.startswith('repro.')"
            " and m.split('.')[1] not in ('machine', 'util')))") == "[]"

    def test_cli_and_server_load_no_runner(self):
        # The CLI imports the experiment registry only in the commands
        # that run experiments, so a serving process (loaded as
        # ``repro serve`` loads it, telemetry on, one prediction
        # answered) loads neither the drivers' substrates, the offline
        # telemetry tools, nor the runner's process pool.
        unloaded = (
            "repro.experiments", "repro.counters", "repro.desim",
            "repro.burst", "repro.lintkit", "repro.obs.diag",
            "repro.obs.drift", "repro.obs.htmlreport", "repro.obs.store",
            "repro.obs.prof", "repro.obs.profile", "multiprocessing")
        assert _run_fresh(
            "import sys, repro.cli\n"
            "from repro import obs\n"
            "from repro.serve import PredictionServer\n"
            "from repro.serve.service import handle_predict\n"
            "obs.enable()\n"
            "status, _ = handle_predict({'machine': 'intel_uma',"
            " 'program': 'CG', 'size': 'C', 'n_active': 4})\n"
            "assert status == 200, status\n"
            "print(sorted(m for m in sys.modules if any(m == p or"
            f" m.startswith(p + '.') for p in {unloaded!r})))") == "[]"


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
