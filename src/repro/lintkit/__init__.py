"""repro.lintkit — domain-aware static analysis for the reproduction.

An AST-based lint engine with a decorator-registered rule set enforcing
the invariants the type system cannot see: determinism (``DET``), cache
purity (``PUR``), concurrency safety (``CONC``), telemetry hygiene
(``TEL``), batch hygiene (``PERF``) and desim event ordering (``SIM``).
One ``ast.parse`` per file is shared by every rule; findings respect
inline ``# reprolint: disable=ID`` suppressions.

Run it via the CLI::

    repro lint [PATH...] [--format text|json|github] [--changed]

or programmatically::

    from repro import lintkit

    report = lintkit.lint_paths(["src/repro"])
    print(lintkit.render(report, "text"))
    raise SystemExit(report.exit_code())

See docs/LINTING.md for the rule catalogue, why each rule stays, and
the suppression workflow.
"""

from repro.lintkit.cache import DEFAULT_CACHE_PATH, LintCache
from repro.lintkit.core import (
    RULE_REGISTRY,
    FileContext,
    Finding,
    LintReport,
    Rule,
    Severity,
    all_rules,
    register,
)
from repro.lintkit.engine import (
    iter_python_files,
    lint_file,
    lint_paths,
    rules_fingerprint,
)
from repro.lintkit.reporters import (
    FORMATS,
    render,
    render_github,
    render_json,
    render_text,
)

__all__ = [
    "Severity", "Finding", "FileContext", "Rule", "LintReport",
    "RULE_REGISTRY", "register", "all_rules",
    "iter_python_files", "lint_file", "lint_paths", "rules_fingerprint",
    "LintCache", "DEFAULT_CACHE_PATH",
    "FORMATS", "render", "render_text", "render_json", "render_github",
]
