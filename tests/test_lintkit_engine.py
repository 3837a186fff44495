"""Engine-level tests: suppressions, reporters, CLI."""

import json
import textwrap

import pytest

from repro.lintkit import (
    FORMATS,
    Finding,
    LintReport,
    Severity,
    all_rules,
    lint_paths,
    render,
)
from repro.lintkit.engine import PARSE_RULE_ID, iter_python_files, lint_file
from repro.lintkit.suppress import parse_suppressions

VIOLATION = 'import random\n'


def write_file(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


def lint_one(path):
    return lint_file(path, all_rules())


class TestSuppressions:
    def test_line_directive_multiple_ids(self):
        sup = parse_suppressions(
            "x = 1  # reprolint: disable=DET001, tel002\n")
        assert sup.is_suppressed("DET001", 1)
        assert sup.is_suppressed("TEL002", 1)
        assert not sup.is_suppressed("DET001", 2)
        assert not sup.is_suppressed("PUR001", 1)

    def test_file_wide_directive(self):
        sup = parse_suppressions(
            "# reprolint: disable-file=PUR001\nx = 1\n")
        assert sup.is_suppressed("PUR001", 1)
        assert sup.is_suppressed("PUR001", 99)

    def test_all_wildcard(self):
        sup = parse_suppressions("x = 1  # reprolint: disable=all\n")
        assert sup.is_suppressed("DET003", 1)

    def test_directive_inside_string_is_inert(self):
        sup = parse_suppressions(
            's = "# reprolint: disable=DET001"\n')
        assert not sup.is_suppressed("DET001", 1)

    def test_file_wide_hides_findings_from_the_engine(self, tmp_path):
        path = write_file(tmp_path, "mod.py",
                          "# reprolint: disable-file=DET001\n" + VIOLATION)
        findings = lint_one(path)
        det = [f for f in findings if f.rule_id == "DET001"]
        assert len(det) == 1 and det[0].suppressed


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        src = write_file(tmp_path, "broken.py", "def f(:\n")
        findings = lint_one(src)
        assert [f.rule_id for f in findings] == [PARSE_RULE_ID]
        assert findings[0].severity == Severity.ERROR

    def test_iter_python_files_dedups_and_sorts(self, tmp_path):
        a = write_file(tmp_path, "a.py", "x = 1\n")
        b = write_file(tmp_path, "b.py", "y = 2\n")
        (tmp_path / "__pycache__").mkdir()
        write_file(tmp_path / "__pycache__", "c.py", "z = 3\n")
        files = iter_python_files([str(tmp_path), a, b])
        assert files == [a, b]

    def test_lint_paths_counts_files_and_rules(self, tmp_path):
        write_file(tmp_path, "a.py", "x = 1\n")
        write_file(tmp_path, "b.py", "y = 2\n")
        report = lint_paths([str(tmp_path)])
        assert report.files_scanned == 2
        assert report.rules_run == len(all_rules())
        assert report.exit_code() == 0


def _report_with_one_finding():
    report = LintReport(files_scanned=1, rules_run=3)
    report.findings.append(Finding(
        rule_id="DET001", severity=Severity.ERROR, path="pkg/mod.py",
        line=3, col=0, message="import of stdlib `random`",
        snippet="import random"))
    return report


class TestReporters:
    def test_text_format(self):
        out = render(_report_with_one_finding(), "text")
        assert out.splitlines() == [
            "pkg/mod.py:3:0: error DET001 import of stdlib `random`",
            "1 finding(s) in 1 file(s) [3 rules]",
        ]

    def test_text_summary_counts_hidden_findings(self, tmp_path):
        src = write_file(tmp_path, "mod.py",
                         VIOLATION.rstrip() +
                         "  # reprolint: disable=DET001\n")
        report = lint_paths([src])
        assert "1 suppressed inline" in render(report, "text")

    def test_json_format(self):
        payload = json.loads(render(_report_with_one_finding(), "json"))
        assert payload["exit_code"] == 1
        assert payload["counts"] == {
            "visible": 1, "suppressed": 0, "by_severity": {"error": 1}}
        [finding] = payload["findings"]
        assert finding["rule"] == "DET001"
        assert finding["path"] == "pkg/mod.py"
        assert finding["line"] == 3

    def test_github_format(self):
        out = render(_report_with_one_finding(), "github")
        assert out == ("::error file=pkg/mod.py,line=3,col=1,"
                       "title=DET001::import of stdlib `random`")

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            render(_report_with_one_finding(), "yaml")

    def test_formats_table_is_complete(self):
        assert set(FORMATS) == {"text", "json", "github"}


class TestCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        from repro.cli import main
        src = write_file(tmp_path, "clean.py", "x = 1\n")
        assert main(["lint", src]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_violation_exits_one_with_json(self, tmp_path, capsys):
        from repro.cli import main
        src = write_file(tmp_path, "dirty.py", VIOLATION)
        assert main(["lint", "--format", "json", src]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["findings"][0]["rule"] == "DET001"

    def test_lint_checks_every_path_given(self, tmp_path, capsys):
        # pre-commit passes every staged file as an argument; a
        # violation in any of them, not just the first, must fail.
        from repro.cli import main
        a = write_file(tmp_path, "a.py", VIOLATION)
        b = write_file(tmp_path, "b.py", VIOLATION)
        assert main(["lint", a, b]) == 1
        out = capsys.readouterr().out
        assert "2 finding(s) in 2 file(s)" in out
        assert "a.py:1:0" in out and "b.py:1:0" in out

    def test_missing_target_is_an_error_naming_it(self, tmp_path, capsys):
        from repro.cli import main
        clean = write_file(tmp_path, "clean.py", "x = 1\n")
        missing = str(tmp_path / "typo.py")
        assert main(["lint", clean, missing]) == 2
        captured = capsys.readouterr()
        assert missing in captured.err
        assert "finding(s)" not in captured.out

    def test_no_path_lints_src_repro_under_the_cwd(self, tmp_path,
                                                   monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "src/repro" in capsys.readouterr().err
        (tmp_path / "src" / "repro").mkdir(parents=True)
        write_file(tmp_path / "src" / "repro", "mod.py", VIOLATION)
        assert main(["lint"]) == 1
        assert "src/repro/mod.py:1:0" in capsys.readouterr().out


class TestVanishedFiles:
    def test_ensure_parsed_tolerates_unreadable_file(self, tmp_path):
        # A file can vanish between discovery and the lint phase; the
        # record must degrade (no tree, no parse error), not raise.
        from repro.lintkit.engine import _FileRecord
        rec = _FileRecord(str(tmp_path / "gone.py"), "gone.py")
        rec.ensure_parsed()
        assert rec.tree is None
        assert rec.parse_error is None
