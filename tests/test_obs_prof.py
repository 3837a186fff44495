"""Deterministic profiler tests: attribution, collapsed stacks, overhead.

A synthetic ``repro._proftest`` module (built with :func:`exec` so its
frames carry a ``repro.*`` ``__name__``) makes call-count and
inclusive/exclusive assertions exact; the CLI tests then profile a real
experiment and check that genuine solver functions top the ranking.
"""

import sys
import time
import types

import pytest

from repro import obs
from repro.obs.prof import (
    Profiler,
    parse_collapsed,
    profile_payload,
    subsystem_of,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _proftest_module():
    """A module whose frames profile as ``repro._proftest`` functions."""
    mod = types.ModuleType("repro._proftest")
    src = (
        "def fib(n):\n"
        "    return n if n < 2 else fib(n - 1) + fib(n - 2)\n"
        "def inner():\n"
        "    return sum(range(200))\n"
        "def outer():\n"
        "    return inner() + inner()\n"
    )
    exec(compile(src, "<proftest>", "exec"), mod.__dict__)
    return mod


class TestSubsystemTaxonomy:
    def test_buckets(self):
        assert subsystem_of("repro.qnet.mva") == "qnet"
        assert subsystem_of("repro.runtime.flow") == "runtime"
        assert subsystem_of("repro") == "repro"
        assert subsystem_of("numpy.core") == "other"


class TestProfilerAttribution:
    def test_call_counts_are_exact(self):
        mod = _proftest_module()
        with Profiler() as p:
            mod.fib(8)
        (spot,) = [h for h in p.report.functions if h.function.endswith("fib")]
        # fib(8) makes 67 calls; deterministic profiling means the count
        # is exact, not sampled.
        assert spot.calls == 67
        assert spot.subsystem == "_proftest"

    def test_recursion_counts_inclusive_once(self):
        mod = _proftest_module()
        with Profiler() as p:
            mod.fib(10)
        (spot,) = [h for h in p.report.functions if h.function.endswith("fib")]
        # Inclusive is only charged at the outermost activation, so it
        # cannot exceed the profiled wall clock even at 177 nested calls.
        assert spot.inclusive_s <= p.report.wall_s
        assert 0.0 <= spot.exclusive_s <= spot.inclusive_s * 1.0001 \
            or spot.exclusive_s <= spot.inclusive_s

    def test_caller_callee_split(self):
        mod = _proftest_module()
        with Profiler() as p:
            for _ in range(50):
                mod.outer()
        by_name = {h.function.rsplit(".", 1)[-1]: h
                   for h in p.report.functions}
        assert by_name["outer"].calls == 50
        assert by_name["inner"].calls == 100
        # outer's inclusive covers inner; its exclusive does not.
        assert by_name["outer"].inclusive_s >= by_name["inner"].inclusive_s
        assert by_name["outer"].exclusive_s < by_name["outer"].inclusive_s
        path = ("repro._proftest.outer", "repro._proftest.inner")
        assert path in p.report.collapsed

    def test_foreign_frames_are_transparent(self):
        # This test module is not repro.*: calling through a local helper
        # must not create a stats row, but repro frames below it still
        # attribute.
        mod = _proftest_module()

        def trampoline():
            return mod.inner()

        with Profiler() as p:
            trampoline()
        names = {h.function for h in p.report.functions}
        assert "repro._proftest.inner" in names
        assert not any("trampoline" in n for n in names)

    def test_nesting_and_double_start_raise(self):
        p = Profiler()
        p.start()
        try:
            with pytest.raises(RuntimeError):
                p.start()
            with pytest.raises(RuntimeError):
                Profiler().start()
        finally:
            p.stop()
        with pytest.raises(RuntimeError):
            Profiler().stop()

    def test_self_metrics_under_telemetry(self):
        tel = obs.enable(fresh=True)
        mod = _proftest_module()
        with Profiler() as p:
            mod.outer()
        snap = tel.metrics.snapshot()
        assert snap["prof.calls_recorded"]["value"] == p.report.calls
        assert snap["prof.functions_seen"]["value"] == len(
            p.report.functions)
        assert snap["prof.wall_seconds"]["value"] == pytest.approx(
            p.report.wall_s)


class TestCollapsedStacks:
    def test_round_trip(self, tmp_path):
        mod = _proftest_module()
        with Profiler() as p:
            for _ in range(200):
                mod.outer()
            mod.fib(12)
        path = tmp_path / "stacks.collapsed"
        n = p.report.write_collapsed(str(path))
        parsed = parse_collapsed(path.read_text())
        assert len(parsed) == n > 0
        # Every parsed count is a positive integer and every parsed
        # stack was emitted by the profiler.
        for stack, count in parsed.items():
            assert count >= 1
            assert stack in p.report.collapsed

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_collapsed("a;b not-a-number")
        with pytest.raises(ValueError):
            parse_collapsed("lonetoken")
        assert parse_collapsed("\n  \n") == {}

    def test_parse_merges_duplicate_stacks(self):
        parsed = parse_collapsed("a;b 10\na;b 5\n")
        assert parsed == {("a", "b"): 15}


class TestFlameTree:
    def test_tree_values_and_order(self):
        mod = _proftest_module()
        with Profiler() as p:
            for _ in range(100):
                mod.outer()
        tree = p.report.flame_tree()
        assert tree["name"] == "all"
        assert tree["value"] == pytest.approx(
            sum(p.report.collapsed.values()))
        values = [c["value"] for c in tree["children"]]
        assert values == sorted(values, reverse=True)

    def test_payload_is_json_safe(self):
        import json

        mod = _proftest_module()
        with Profiler() as p:
            mod.outer()
        payload = profile_payload(p.report, top=5)
        json.dumps(payload)
        assert payload["tree"]["name"] == "all"
        assert len(payload["hotspots"]) <= 5
        assert payload["profiled_s"] <= payload["wall_s"] * 1.1


class TestDisabledOverhead:
    def test_no_hook_installed_by_default(self):
        assert sys.getprofile() is None
        Profiler()  # constructing must not install anything
        assert sys.getprofile() is None

    def test_stop_uninstalls_the_hook(self):
        mod = _proftest_module()
        with Profiler():
            mod.inner()
        assert sys.getprofile() is None

    def test_disabled_calls_cost_nothing_extra(self):
        # With no profiler started there is no per-call interpreter
        # hook, so a hot loop of package functions stays fast.  The
        # bound is generous (absolute, like the no-op span budget) —
        # the point is to catch a hook left installed, which would be
        # an order of magnitude slower.
        mod = _proftest_module()
        with Profiler():
            mod.inner()  # a started-and-stopped cycle must leave no residue
        t0 = time.perf_counter()
        for _ in range(20_000):
            mod.inner()
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"disabled-profiler loop too slow: {elapsed:.3f}s"


def _cold_solver_caches():
    # Earlier tests in the same process may have warmed the repro.perf
    # memoization layer; with hot caches the solvers never run, so the
    # profiler would see no qnet/runtime frames to attribute.
    from repro.perf import clear_caches
    from repro.perf.keys import clear_memo

    clear_caches()
    clear_memo()


class TestHotspotsCLI:
    def test_hotspots_ranks_real_solver_functions(self, tmp_path, capsys):
        from repro.cli import main

        _cold_solver_caches()
        collapsed = tmp_path / "t2.collapsed"
        flame = tmp_path / "t2.svg"
        # The full run (a ~0.6 s profile), not --fast: there qnet's MVA
        # recursion ranks 3rd-4th at ~5% against ~2% at rank 10, where
        # in a ~0.1 s --fast profile its rank is noise.
        rc = main(["hotspots", "table2", "--top", "10",
                   "--collapsed", str(collapsed), "--flame", str(flame)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hot paths" in out and "subsystem taxonomy" in out
        assert "repro.qnet" in out and "repro.runtime" in out
        parsed = parse_collapsed(collapsed.read_text())
        assert parsed and all(v > 0 for v in parsed.values())
        svg = flame.read_text()
        assert svg.startswith("<svg") and "<script" not in svg
        obs.disable()

    def test_hotspots_without_target_errors(self, capsys):
        from repro.cli import main

        assert main(["hotspots"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_profile_command_includes_hot_paths(self, capsys):
        from repro.cli import main

        _cold_solver_caches()
        assert main(["profile", "table2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "span timings" in out
        assert "hot paths" in out  # re-based on the profiler backend
        obs.disable()
