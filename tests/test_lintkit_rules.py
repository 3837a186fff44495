"""Rule-family tests over the fixture corpus in tests/lintkit_fixtures/.

Each fixture file carries ``# -> RULEID`` markers on the lines a rule
must fire on; the tests assert the exact (rule, line) sets so a rule
that silently widens or narrows fails loudly.
"""

import os

from repro.lintkit import all_rules, lint_file

FIXTURES = os.path.join(os.path.dirname(__file__), "lintkit_fixtures")


def run_fixture(fname: str, relpath: str | None = None):
    path = os.path.join(FIXTURES, fname)
    if relpath is None:
        relpath = f"tests/lintkit_fixtures/{fname}"
    return lint_file(path, all_rules(), relpath=relpath)


def visible_lines(findings, rule_id):
    return sorted(f.line for f in findings
                  if f.rule_id == rule_id and f.visible)


def suppressed_lines(findings, rule_id):
    return sorted(f.line for f in findings
                  if f.rule_id == rule_id and f.suppressed)


class TestDeterminismRules:
    def test_det001_stdlib_random_import(self):
        findings = run_fixture("det_cases.py")
        assert visible_lines(findings, "DET001") == [3]

    def test_det002_legacy_numpy_random(self):
        findings = run_fixture("det_cases.py")
        assert visible_lines(findings, "DET002") == [7, 13, 14]

    def test_det003_wall_clock_including_from_import_alias(self):
        findings = run_fixture("det_cases.py")
        assert visible_lines(findings, "DET003") == [15, 16]

    def test_det003_inline_suppression(self):
        findings = run_fixture("det_cases.py")
        assert suppressed_lines(findings, "DET003") == [26]

    def test_det_rules_skip_the_rng_module(self):
        # util/rng.py legitimately owns randomness plumbing.
        findings = run_fixture("det_cases.py",
                               relpath="src/repro/util/rng.py")
        assert visible_lines(findings, "DET001") == []
        assert visible_lines(findings, "DET002") == []


class TestCachePurityRules:
    def test_pur001_memoized_argument_mutation(self):
        findings = run_fixture("pur_cases.py")
        assert visible_lines(findings, "PUR001") == [10, 11]

    def test_pur002_mutable_cache_values(self):
        findings = run_fixture("pur_cases.py")
        assert visible_lines(findings, "PUR002") == [13, 14]

    def test_pur003_only_fires_in_cache_key_domains(self):
        in_domain = run_fixture("pur_slots_cases.py",
                                relpath="src/repro/machine/cases.py")
        assert visible_lines(in_domain, "PUR003") == [10]
        outside = run_fixture("pur_slots_cases.py")
        assert visible_lines(outside, "PUR003") == []


class TestDesimRules:
    def test_sim002_mutation_after_enqueue(self):
        findings = run_fixture("sim_cases.py")
        # Only schedule_bad's post-push write; schedule_ok sets the
        # payload before pushing.
        assert visible_lines(findings, "SIM002") == [10]


class TestTelemetryRules:
    def test_tel001_literal_and_fstring_names(self):
        findings = run_fixture("tel_cases.py")
        assert visible_lines(findings, "TEL001") == [7, 8]

    def test_tel001_inline_suppression(self):
        findings = run_fixture("tel_cases.py")
        assert suppressed_lines(findings, "TEL001") == [17]

    def test_tel002_span_outside_with(self):
        findings = run_fixture("tel_cases.py")
        assert visible_lines(findings, "TEL002") == [10]

    def test_tel_rules_skip_the_obs_layer(self):
        findings = run_fixture("tel_cases.py",
                               relpath="src/repro/obs/metrics.py")
        assert visible_lines(findings, "TEL001") == []
        assert visible_lines(findings, "TEL002") == []

    def test_tel003_flags_catalogue_shaped_literals_in_scope(self):
        findings = run_fixture("tel003_cases.py",
                               relpath="src/repro/obs/store.py")
        # The two module-level literals and the one in the function
        # body; the docstring mention, the names.* constant, the
        # unknown-family file name and the prose string stay legal.
        assert visible_lines(findings, "TEL003") == [4, 5, 13]

    def test_tel003_only_runs_on_the_diagnostics_layer(self):
        # Same fixture outside repro/obs/{diag,store,drift,...}: silent.
        findings = run_fixture("tel003_cases.py")
        assert visible_lines(findings, "TEL003") == []
        core_obs = run_fixture("tel003_cases.py",
                               relpath="src/repro/obs/metrics.py")
        assert visible_lines(core_obs, "TEL003") == []

    def test_tel004_flags_literal_event_names(self):
        findings = run_fixture("tel004_cases.py")
        # Literal strings and f-strings at log.emit / log_event sites;
        # catalogue constants and unrelated ``.emit`` receivers stay
        # legal.
        assert visible_lines(findings, "TEL004") == [8, 9, 10, 12]

    def test_tel004_skips_the_obs_layer(self):
        findings = run_fixture("tel004_cases.py",
                               relpath="src/repro/obs/log.py")
        assert visible_lines(findings, "TEL004") == []


class TestPerfRules:
    EXPERIMENT_RELPATH = "src/repro/experiments/perf_cases.py"

    def test_perf001_flags_per_cell_loops(self):
        findings = run_fixture("perf_cases.py",
                               relpath=self.EXPERIMENT_RELPATH)
        # Loop, dict comprehension, list comprehension over solve_flow,
        # and the nested loop (which fires once, not once per depth).
        assert visible_lines(findings, "PERF001") == [11, 16, 20, 27]

    def test_perf001_batch_users_are_exempt(self):
        findings = run_fixture("perf_cases.py",
                               relpath=self.EXPERIMENT_RELPATH)
        flagged = {f.line for f in findings if f.rule_id == "PERF001"}
        # primed_loop / batched_sweep / pooled_grid / single_point /
        # unrelated_loop all stay legal.
        assert not flagged & set(range(30, 60))

    def test_perf001_only_runs_on_experiment_drivers(self):
        findings = run_fixture("perf_cases.py")
        assert visible_lines(findings, "PERF001") == []
        runtime = run_fixture("perf_cases.py",
                              relpath="src/repro/runtime/measurement.py")
        assert visible_lines(runtime, "PERF001") == []


class TestRuleMetadata:
    def test_every_family_is_registered(self):
        from repro.lintkit import RULE_REGISTRY
        families = {rid[:3] for rid in RULE_REGISTRY}
        assert {"DET", "PUR", "SIM", "TEL", "PER"} <= families

    def test_rule_set_is_the_audited_one(self):
        # docs/LINTING.md ("Why each rule stays") justifies each id by a
        # historical catch or a named invariant; a new rule needs a row
        # there, a fixture true positive, and its id here.
        from repro.lintkit import RULE_REGISTRY
        assert sorted(RULE_REGISTRY) == [
            "CONC002", "CONC003",
            "DET001", "DET002", "DET003",
            "PERF001",
            "PUR001", "PUR002", "PUR003", "PUR100",
            "SIM002",
            "TEL001", "TEL002", "TEL003", "TEL004",
        ]

    def test_rules_have_ids_names_and_descriptions(self):
        from repro.lintkit import all_rules
        for rule in all_rules():
            assert rule.id and rule.name and rule.description


class TestConcurrencyRules:
    def test_conc002_unpicklable_and_shared_captures(self):
        findings = run_fixture("conc_cases.py")
        assert visible_lines(findings, "CONC002") == [10, 16, 20]

    def test_conc003_fork_inherited_rng(self):
        findings = run_fixture("conc_cases.py")
        # seeded_worker constructs a local generator and stays silent.
        assert visible_lines(findings, "CONC003") == [28]


class TestAliasPurityRule:
    def test_pur100_aliased_mutations(self):
        findings = run_fixture("purflow_cases.py")
        assert visible_lines(findings, "PUR100") == [8, 15, 22]

    def test_pur100_leaves_direct_param_mutation_to_pur001(self):
        findings = run_fixture("purflow_cases.py")
        assert visible_lines(findings, "PUR001") == [43]

    def test_pur100_fresh_copies_and_rebinds_are_fine(self):
        findings = run_fixture("purflow_cases.py")
        flagged = {f.line for f in findings if f.rule_id == "PUR100"}
        # copy_is_fine (29), rebound_alias_is_fine (37),
        # no_cache_no_finding (48) must stay clean.
        assert not flagged & {29, 37, 48}
