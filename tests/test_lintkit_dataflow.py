"""Dataflow-tier tests: CFG shapes, lattice laws, fixpoint behaviour,
PUR100's alias scopes, the incremental cache and multi-line
suppressions.

The CFG/fixpoint tests use a tiny constant-propagation domain so the
assertions are about *control flow* (where joins happen, which blocks
are reachable) rather than any particular rule's semantics.
"""

import ast
import textwrap

from repro.lintkit import all_rules, lint_paths
from repro.lintkit.cache import LintCache, file_digest
from repro.lintkit.core import Finding, Severity
from repro.lintkit.dataflow.cfg import build_cfg
from repro.lintkit.dataflow.fixpoint import ForwardAnalysis
from repro.lintkit.dataflow.lattice import TOP, join_env, join_value
from repro.lintkit.dataflow.symbols import (
    ModuleInfo,
    SymbolIndex,
    extract_summary,
    module_name_for,
)
from repro.lintkit.rules.purity_flow import AliasAnalysis
from repro.lintkit.suppress import parse_suppressions


def fn_of(src: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(src))
    return next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef))


class ConstProp(ForwardAnalysis):
    """x = <literal> propagates the literal; anything else is TOP."""

    def transfer_op(self, env, op):
        env = dict(env)
        if isinstance(op, ast.Assign) and len(op.targets) == 1 and \
                isinstance(op.targets[0], ast.Name):
            value = op.value
            env[op.targets[0].id] = value.value \
                if isinstance(value, ast.Constant) else TOP
        return env

    def exit_env(self, fn):
        cfg = build_cfg(fn)
        envs = self.analyze(fn, cfg)
        return envs.get(cfg.exit, {})


class ObservedConstProp(ConstProp):
    """ConstProp that logs every op the observe pass interprets."""

    def __init__(self):
        super().__init__()
        #: (op source, entry env) per observed op, in visiting order.
        self.observed = []

    def transfer_op(self, env, op):
        if self.observing and isinstance(op, ast.stmt):
            self.observed.append((ast.unparse(op), dict(env)))
        return super().transfer_op(env, op)


class TestLattice:
    def test_flat_join(self):
        assert join_value(1, 1) == 1
        assert join_value(1, 2) is TOP
        assert join_value(TOP, 1) is TOP
        assert join_value(1, TOP) is TOP

    def test_powerset_join_unions(self):
        a, b = frozenset({"p"}), frozenset({"q"})
        assert join_value(a, b) == frozenset({"p", "q"})
        assert join_value(a, a) == a

    def test_join_env_is_pointwise_and_absent_keeps_other(self):
        joined = join_env({"a": 1}, {"a": 1, "b": 2})
        assert joined == {"a": 1, "b": 2}
        assert join_env({"a": 1}, {"a": 2}) == {"a": TOP}


class TestCfgShapes:
    def test_while_else_runs_only_on_normal_exit(self):
        fn = fn_of("""
            def f(cond):
                x = 1
                while cond:
                    x = 2
                else:
                    y = 3
                return y
        """)
        cfg = build_cfg(fn)
        by_label = {}
        for block in cfg.blocks.values():
            by_label.setdefault(block.label, []).append(block)
        [head] = by_label["loop-head"]
        [els] = by_label["loop-else"]
        [after] = by_label["loop-after"]
        preds = cfg.preds()
        # else is entered from the loop head only, never from a break.
        assert preds[els.id] == [head.id]
        assert els.id in {p for p in preds[after.id]} or \
            after.id in els.succs

    def test_break_skips_the_loop_else(self):
        fn = fn_of("""
            def f(cond):
                while cond:
                    if cond:
                        break
                else:
                    y = 3
                return 0
        """)
        cfg = build_cfg(fn)
        els = next(b for b in cfg.blocks.values()
                   if b.label == "loop-else")
        after = next(b for b in cfg.blocks.values()
                     if b.label == "loop-after")
        brk = next(b for b in cfg.blocks.values()
                   if any(isinstance(op, ast.Break) for op in b.ops))
        assert after.id in brk.succs
        assert els.id not in brk.succs

    def test_loop_join_reaches_top(self):
        env = ConstProp().exit_env(fn_of("""
            def f(cond):
                x = 1
                while cond:
                    x = 2
                return x
        """))
        assert env["x"] is TOP

    def test_break_value_joins_at_loop_after(self):
        env = ConstProp().exit_env(fn_of("""
            def f():
                x = 1
                while True:
                    x = 2
                    break
                return x
        """))
        assert env["x"] is TOP

    def test_except_handler_sees_pre_and_post_body_states(self):
        fn = fn_of("""
            def f(risky):
                x = 1
                try:
                    x = 2
                    risky()
                except ValueError:
                    y = x
                return x
        """)
        analysis = ConstProp()
        cfg = build_cfg(fn)
        envs = analysis.analyze(fn, cfg)
        handler = next(b for b in cfg.blocks.values()
                       if b.label == "except")
        # The raise may happen before or after `x = 2`.
        assert envs[handler.id]["x"] is TOP

    def test_finally_traversed_by_both_continuations(self):
        fn = fn_of("""
            def f():
                x = 1
                try:
                    x = 2
                finally:
                    y = x
                return y
        """)
        cfg = build_cfg(fn)
        envs = ConstProp().analyze(fn, cfg)
        fin = next(b for b in cfg.blocks.values() if b.label == "finally")
        assert envs[fin.id]["x"] is TOP
        # The finally suite can leave for the function exit (re-raise).
        assert cfg.exit in cfg.blocks[fin.id].succs or any(
            cfg.exit in cfg.blocks[s].succs
            for s in cfg.blocks[fin.id].succs)

    def test_dead_code_after_return_gets_no_inflow(self):
        fn = fn_of("""
            def f():
                return 1
                x = 2
        """)
        cfg = build_cfg(fn)
        dead = [b for b in cfg.blocks.values()
                if b.label == "unreachable"]
        assert dead and dead[0].id not in cfg.reachable()

    def test_match_wildcard_removes_the_no_match_edge(self):
        with_wild = fn_of("""
            def f(v):
                match v:
                    case 1:
                        x = 1
                    case _:
                        x = 2
                return x
        """)
        cfg = build_cfg(with_wild)
        subject = next(b for b in cfg.blocks.values()
                       if any(isinstance(op, ast.Match) for op in b.ops))
        join = next(b for b in cfg.blocks.values()
                    if b.label == "match-join")
        assert join.id not in subject.succs  # some case always matches

        without = fn_of("""
            def f(v):
                match v:
                    case 1:
                        x = 1
                return x
        """)
        cfg2 = build_cfg(without)
        subject2 = next(b for b in cfg2.blocks.values()
                        if any(isinstance(op, ast.Match) for op in b.ops))
        join2 = next(b for b in cfg2.blocks.values()
                     if b.label == "match-join")
        assert join2.id in subject2.succs  # v may match no case

    def test_adversarial_kitchen_sink_converges(self):
        env = ConstProp().exit_env(fn_of("""
            def f(cond, items, v):
                x = 1
                while cond:
                    if cond:
                        continue
                    x = 2
                else:
                    x = 3
                try:
                    for i in items:
                        break
                finally:
                    z = 1
                match v:
                    case [a, *rest]:
                        w = 4
                    case _:
                        w = 5
                return x
        """))
        # No break: normal loop exit always runs the else -> x is 3.
        assert env["x"] == 3
        assert env["z"] == 1     # finally runs on every path


class TestObservePass:
    def test_observe_pass_reports_converged_facts_once(self):
        # The loop body is interpreted more than once on the way to the
        # fixpoint (x is 1, then TOP) but observed once, with the joined
        # fact.
        analysis = ObservedConstProp()
        analysis.analyze(fn_of("""
            def f(cond):
                x = 1
                while cond:
                    y = x
                    x = 2
        """))
        seen = [env.get("x") for src, env in analysis.observed
                if src == "y = x"]
        assert seen == [TOP]

    def test_observe_pass_visits_unreachable_blocks(self):
        # Dead code gets a block but no inflow; the observe pass must
        # still visit it (from an empty env) so defects there surface.
        analysis = ObservedConstProp()
        analysis.analyze(fn_of("""
            def f():
                x = 1
                return x
                y = x
        """))
        assert ("y = x", {}) in analysis.observed


class TestAliasAnalysisScopes:
    """Scoping through the CFG, on PUR100's may-alias domain."""

    def mutations(self, src: str) -> list[tuple[str, str]]:
        fn = fn_of(src)
        params = {a.arg for a in fn.args.args}
        analysis = AliasAnalysis(params)
        analysis.analyze(fn)
        return [(how, param) for _, how, param in analysis.mutations]

    def test_comprehension_target_does_not_clobber_outer_binding(self):
        # The comprehension's `rates` lives in its own scope, so the
        # outer `rates` still aliases `profile` after it.
        assert self.mutations("""
            def f(profile, vals, key):
                flow_cache.get(key)
                rates = profile.rates
                copies = [rates for rates in vals]
                rates.append(1.0)
        """) == [("calls .append() via `rates`", "profile")]

    def test_walrus_binding_in_if_header_flows(self):
        assert self.mutations("""
            def f(profile, key):
                flow_cache.get(key)
                if (rates := profile.rates):
                    rates.append(1.0)
        """) == [("calls .append() via `rates`", "profile")]

    def test_match_captures_rebind_not_stale(self):
        # The capture rebinds `rates` to a fresh value: the mutation in
        # the case body no longer reaches `profile`.
        assert self.mutations("""
            def f(profile, key):
                flow_cache.get(key)
                rates = profile.rates
                match make_rates():
                    case [rates]:
                        rates.append(1.0)
        """) == []


class TestSymbolIndex:
    SRC = """
        from concurrent.futures import ProcessPoolExecutor
        from repro.serve import PredictionServer

        REG = {}

        def tick():
            REG["n"] = 1

        def spin():
            with ProcessPoolExecutor() as pool:
                pool.submit(tick)
    """

    def module(self, relpath="src/repro/demo.py"):
        tree = ast.parse(textwrap.dedent(self.SRC))
        return extract_summary(relpath, tree)

    def test_module_name_strips_src_prefix(self):
        assert module_name_for("src/repro/obs/state.py") == \
            "repro.obs.state"
        assert module_name_for("src/repro/util/__init__.py") == \
            "repro.util"

    def test_summary_roundtrips_through_json_shape(self):
        info = self.module()
        clone = ModuleInfo.from_summary(info.to_summary())
        assert clone.to_summary() == info.to_summary()

    def test_bound_method_process_entry_fans_out(self):
        # ``self._cell`` has no class context in the flat summary: it
        # names every class's ``_cell`` in the module, and a module one.
        src = textwrap.dedent("""
            from concurrent.futures import ProcessPoolExecutor

            class Sweeper:
                def launch(self):
                    with ProcessPoolExecutor() as pool:
                        pool.submit(self._cell, 1)

                def _cell(self, n):
                    return n
        """)
        index = SymbolIndex()
        index.add(extract_summary("src/repro/demo.py", ast.parse(src)))
        assert index.process_entry_functions() == {
            "repro.demo.Sweeper._cell", "repro.demo._cell"}

    def test_fingerprint_tracks_interface_not_presence(self):
        index = SymbolIndex()
        index.add(self.module())
        fp = index.fingerprint()
        index.add(self.module())  # identical summary: no change
        assert index.fingerprint() == fp
        other = self.module(relpath="src/repro/demo2.py")
        index.add(other)
        assert index.fingerprint() != fp


class TestMultilineSuppressions:
    SRC = ("total = (work_cycles\n"
           "         + window_s)  # reprolint: disable=PUR100\n"
           "other = 1\n")

    def test_directive_covers_every_line_of_the_statement(self):
        tree = ast.parse(self.SRC)
        sup = parse_suppressions(self.SRC, tree)
        assert sup.is_suppressed("PUR100", 1)
        assert sup.is_suppressed("PUR100", 2)
        assert not sup.is_suppressed("PUR100", 3)

    def test_without_tree_only_the_comment_line_is_covered(self):
        sup = parse_suppressions(self.SRC)
        assert not sup.is_suppressed("PUR100", 1)
        assert sup.is_suppressed("PUR100", 2)

    def test_compound_statement_bodies_do_not_inherit(self):
        src = ("if cond:  # reprolint: disable=DET001\n"
               "    import random\n")
        sup = parse_suppressions(src, ast.parse(src))
        assert sup.is_suppressed("DET001", 1)
        assert not sup.is_suppressed("DET001", 2)


def _finding(rule="DET001", snippet="a + b", path="m.py"):
    return Finding(rule_id=rule, severity=Severity.ERROR, path=path,
                   line=1, col=0, message="msg", snippet=snippet)


class TestLintCache:
    def test_roundtrip_replays_findings(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = LintCache(path, "rules-v1")
        digest = file_digest(b"source")
        cache.put("m.py", digest, {"module": "m", "relpath": "m.py"},
                  [_finding()], "proj-a")
        cache.save()
        loaded = LintCache.load(path, "rules-v1")
        [f] = loaded.findings("m.py", digest, "proj-a")
        assert f.rule_id == "DET001" and loaded.hits == 1

    def test_rules_fingerprint_mismatch_is_cold(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = LintCache(path, "rules-v1")
        cache.put("m.py", file_digest(b"x"), {}, [], "p")
        cache.save()
        assert LintCache.load(path, "rules-v2").files == {}

    def test_project_fingerprint_guards_findings(self, tmp_path):
        cache = LintCache(str(tmp_path / "c.json"), "r")
        digest = file_digest(b"x")
        cache.put("m.py", digest, {}, [], "proj-a")
        assert cache.findings("m.py", digest, "proj-b") is None
        # ... but the summary stays usable: it depends only on bytes.
        assert cache.summary("m.py", digest) == {}

    def test_corrupt_cache_is_cold_not_fatal(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json", encoding="utf-8")
        assert LintCache.load(str(path), "r").files == {}


class TestIncrementalEngine:
    def _tree(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        clean = tmp_path / "pkg" / "clean.py"
        clean.write_text("def f():\n    return 1\n", encoding="utf-8")
        dirty = tmp_path / "pkg" / "dirty.py"
        dirty.write_text("import random\n", encoding="utf-8")
        return clean, dirty

    def _lint(self, tmp_path, **kw):
        return lint_paths([str(tmp_path / "pkg")], incremental=True,
                          cache_path=str(tmp_path / "cache.json"), **kw)

    def test_cold_then_warm_replays_identically(self, tmp_path):
        self._tree(tmp_path)
        cold = self._lint(tmp_path)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = self._lint(tmp_path)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert [f.to_dict() for f in warm.findings] == \
            [f.to_dict() for f in cold.findings]

    def test_body_edit_invalidates_only_that_file(self, tmp_path):
        # Editing a function *body* leaves the module summary (and so
        # the project fingerprint) intact: the other file replays.
        clean, _ = self._tree(tmp_path)
        self._lint(tmp_path)
        clean.write_text("def f():\n    return 2\n", encoding="utf-8")
        report = self._lint(tmp_path)
        assert (report.cache_hits, report.cache_misses) == (1, 1)

    def test_body_edit_shifting_a_later_function_keeps_the_summary(
            self, tmp_path):
        # A summary holds no line numbers, so growing ``f``'s body,
        # which moves ``g`` down a line, re-lints only that file.
        clean, _ = self._tree(tmp_path)
        clean.write_text("def f():\n    return 1\n\n\n"
                         "def g():\n    return 2\n", encoding="utf-8")
        self._lint(tmp_path)
        clean.write_text("def f():\n    x = 1\n    return x\n\n\n"
                         "def g():\n    return 2\n", encoding="utf-8")
        report = self._lint(tmp_path)
        assert (report.cache_hits, report.cache_misses) == (1, 1)

    def test_interface_edit_invalidates_every_file(self, tmp_path):
        # Adding a module-level binding changes the cross-module view:
        # every cached finding set is re-validated against the new
        # project fingerprint and re-linted.
        clean, _ = self._tree(tmp_path)
        self._lint(tmp_path)
        clean.write_text("Y = 2\n\ndef f():\n    return 1\n",
                         encoding="utf-8")
        report = self._lint(tmp_path)
        assert (report.cache_hits, report.cache_misses) == (0, 2)

    def test_deleted_files_are_pruned(self, tmp_path):
        clean, _ = self._tree(tmp_path)
        self._lint(tmp_path)
        clean.unlink()
        report = self._lint(tmp_path)
        assert report.files_scanned == 1
        cache = LintCache.load(str(tmp_path / "cache.json"), "ignored")
        assert cache.files == {}  # fingerprint differs -> cold load; but
        # the persisted file must not keep the deleted entry either.
        import json
        data = json.loads((tmp_path / "cache.json").read_text())
        assert set(data["files"]) == {
            str(tmp_path / "pkg" / "dirty.py").replace("\\", "/")}

    def test_non_incremental_run_touches_no_cache(self, tmp_path):
        self._tree(tmp_path)
        report = lint_paths([str(tmp_path / "pkg")])
        assert (report.cache_hits, report.cache_misses) == (0, 0)
        assert not (tmp_path / "cache.json").exists()


class TestTierDispatch:
    def test_tier2_rules_are_registered(self):
        tier2 = {r.id for r in all_rules() if r.tier == 2}
        assert {"CONC002", "CONC003", "PUR100"} <= tier2
