"""Finding reporters: human text, JSON, and GitHub workflow annotations.

Every reporter is a pure function ``report -> str``; the CLI picks one
via ``--format``.  The GitHub format emits ``::error``/``::warning``
workflow commands that the Actions runner turns into inline PR
annotations.
"""

from __future__ import annotations

import json
from typing import Callable

from repro.lintkit.core import LintReport, Severity


def _sorted_visible(report: LintReport):
    return sorted(report.visible,
                  key=lambda f: (f.path, f.line, f.col, f.rule_id))


def render_text(report: LintReport) -> str:
    """``path:line:col: severity RULE message`` lines plus a summary."""
    lines = [
        f"{f.anchor()}: {f.severity} {f.rule_id} {f.message}"
        for f in _sorted_visible(report)
    ]
    visible = len(lines)
    summary = (f"{visible} finding(s) in {report.files_scanned} file(s)"
               f" [{report.rules_run} rules]")
    if report.suppressed_count:
        summary += f" ({report.suppressed_count} suppressed inline)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (all findings, including hidden ones)."""
    by_severity: dict[str, int] = {}
    for f in report.visible:
        key = str(f.severity)
        by_severity[key] = by_severity.get(key, 0) + 1
    payload = {
        "files_scanned": report.files_scanned,
        "rules_run": report.rules_run,
        "counts": {
            "visible": len(report.visible),
            "suppressed": report.suppressed_count,
            "by_severity": by_severity,
        },
        "findings": [f.to_dict() for f in sorted(
            report.findings,
            key=lambda f: (f.path, f.line, f.col, f.rule_id))],
        "exit_code": report.exit_code(),
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def render_github(report: LintReport) -> str:
    """GitHub Actions workflow-command annotations, one per finding."""
    lines = []
    for f in _sorted_visible(report):
        kind = "error" if f.severity >= Severity.ERROR else \
            ("warning" if f.severity >= Severity.WARNING else "notice")
        message = f.message.replace("%", "%25").replace("\n", "%0A")
        lines.append(
            f"::{kind} file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.rule_id}::{message}")
    return "\n".join(lines)


FORMATS: dict[str, Callable[[LintReport], str]] = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}


def render(report: LintReport, fmt: str = "text") -> str:
    """Render ``report`` in one of :data:`FORMATS`."""
    try:
        reporter = FORMATS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r}; want one of {sorted(FORMATS)}"
        ) from None
    return reporter(report)
