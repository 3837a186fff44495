"""The lint engine: file discovery, shared parsing, rule dispatch.

One run: discover Python files under the targets, ``ast.parse`` each
file exactly once, hand the shared tree to every applicable rule, then
fold in inline suppressions.  A target that does not exist raises
:class:`FileNotFoundError`; syntax errors become ``PARSE001`` findings
rather than aborting the run, so one broken file cannot hide findings in
the rest of the tree.

Two analysis tiers share that single parse.  Tier 1 is the syntactic
rule set; tier 2 (``CONC`` and ``PUR100``) runs the dataflow machinery
and needs the cross-module
:class:`~repro.lintkit.dataflow.symbols.SymbolIndex`, which the engine
builds once per run from every scanned file's summary and attaches to
each :class:`FileContext` as ``ctx.project``.

``lint_paths(..., incremental=True)`` (the CLI's ``--changed`` mode)
adds the content-hash cache of :mod:`repro.lintkit.cache`: unchanged
files replay their findings and contribute their cached summaries to the
index without being parsed, so a warm run on an unchanged tree is
hash-and-replay only.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os

from repro.lintkit import rules as _rules  # noqa: F401  (registers rules)
from repro.lintkit.cache import DEFAULT_CACHE_PATH, LintCache, file_digest
from repro.lintkit.core import (
    FileContext,
    Finding,
    LintReport,
    Rule,
    Severity,
    all_rules,
)
from repro.lintkit.dataflow.symbols import (
    ModuleInfo,
    SymbolIndex,
    extract_summary,
    module_name_for,
)
from repro.lintkit.suppress import parse_suppressions

#: Rule id used for files that fail to parse.
PARSE_RULE_ID = "PARSE001"

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules",
              ".mypy_cache", ".ruff_cache"}


def iter_python_files(targets: list[str]) -> list[str]:
    """Every ``.py`` file under the targets (files pass through), sorted.

    A target that does not exist raises :class:`FileNotFoundError`, so a
    mistyped path fails the run instead of linting nothing.
    """
    out: list[str] = []
    for target in targets:
        if os.path.isfile(target):
            out.append(target)
            continue
        if not os.path.isdir(target):
            raise FileNotFoundError(f"no such lint target: {target}")
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for fname in sorted(filenames):
                if fname.endswith(".py"):
                    out.append(os.path.join(dirpath, fname))
    return sorted(dict.fromkeys(out))


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def _matches(relpath: str, fragments: tuple[str, ...]) -> bool:
    p = _posix(relpath)
    return any(frag in p for frag in fragments)


def rules_fingerprint(rules: list[Rule]) -> str:
    """Hash of everything that changes findings besides file content."""
    payload = [[r.id, str(r.severity), list(r.only),
                list(r.default_allow)] for r in rules]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_error_finding(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule_id=PARSE_RULE_ID,
        severity=Severity.ERROR,
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
    )


def _run_rules(ctx: FileContext, rules: list[Rule]) -> list[Finding]:
    """Run every applicable rule over one parsed file."""
    suppressions = parse_suppressions(ctx.source, ctx.tree)
    findings: list[Finding] = []
    for rule in rules:
        if rule.only and not _matches(ctx.relpath, rule.only):
            continue
        if _matches(ctx.relpath, rule.default_allow):
            continue
        for f in rule.check(ctx):
            if suppressions.is_suppressed(f.rule_id, f.line):
                f = Finding(rule_id=f.rule_id, severity=f.severity,
                            path=f.path, line=f.line, col=f.col,
                            message=f.message, snippet=f.snippet,
                            suppressed=True)
            findings.append(f)
    return findings


def lint_file(path: str, rules: list[Rule], relpath: str | None = None,
              project: SymbolIndex | None = None) -> list[Finding]:
    """Lint one file with the given rules; shared parse, suppressions.

    Without an explicit ``project``, tier-2 rules see a single-file
    symbol index (cross-module facts degrade to what the file shows).
    """
    relpath = _posix(relpath if relpath is not None else path)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_parse_error_finding(relpath, exc)]
    if project is None and any(r.tier >= 2 for r in rules):
        project = SymbolIndex()
        project.add_tree(relpath, tree)
    ctx = FileContext(path=path, relpath=relpath, source=source,
                      tree=tree, project=project)
    return _run_rules(ctx, rules)


class _FileRecord:
    """Per-file working state of one ``lint_paths`` run."""

    __slots__ = ("path", "relpath", "digest", "source", "tree",
                 "parse_error", "summary", "findings")

    def __init__(self, path: str, relpath: str) -> None:
        self.path = path
        self.relpath = relpath
        self.digest = ""
        self.source: str | None = None
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        self.summary: dict | None = None
        self.findings: list[Finding] | None = None

    def ensure_parsed(self) -> None:
        if self.tree is not None or self.parse_error is not None:
            return
        if self.source is None:
            # The file can vanish or lose read permission between
            # discovery and phase 3; degrade to no findings, matching
            # the OSError tolerance of the digest pass.
            try:
                with open(self.path, encoding="utf-8") as fh:
                    self.source = fh.read()
            except OSError:
                return
        try:
            self.tree = ast.parse(self.source, filename=self.path)
        except SyntaxError as exc:
            self.parse_error = exc


def lint_paths(targets: list[str], *, incremental: bool = False,
               cache_path: str | None = None) -> LintReport:
    """Lint every Python file under ``targets`` with every rule.

    With ``incremental=True`` the content-hash cache at ``cache_path``
    (default ``.repro/lintcache.json``) is consulted and refreshed;
    findings of byte-identical files under an identical project
    fingerprint replay without re-parsing.
    """
    rules = all_rules()
    report = LintReport(rules_run=len(rules))

    cache: LintCache | None = None
    if incremental:
        cache = LintCache.load(cache_path or DEFAULT_CACHE_PATH,
                               rules_fingerprint(rules))

    # Phase 1: digest every file; recover summaries from cache or parse.
    records: list[_FileRecord] = []
    for path in iter_python_files(list(targets)):
        rec = _FileRecord(path, _posix(path))
        records.append(rec)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            continue
        rec.digest = file_digest(raw)
        if cache is not None:
            rec.summary = cache.summary(rec.relpath, rec.digest)
        if rec.summary is None:
            try:
                rec.source = raw.decode("utf-8")
            except UnicodeDecodeError:
                rec.source = raw.decode("utf-8", errors="replace")
            rec.ensure_parsed()
            if rec.tree is not None:
                rec.summary = extract_summary(rec.relpath,
                                              rec.tree).to_summary()
            else:
                rec.summary = {"module": module_name_for(rec.relpath),
                               "relpath": rec.relpath}

    # Phase 2: assemble the symbol index and its fingerprint.
    index = SymbolIndex()
    for rec in records:
        if rec.summary is not None:
            index.add(ModuleInfo.from_summary(rec.summary))
    project_fp = index.fingerprint()

    # Phase 3: replay cached findings or lint, file by file.
    for rec in records:
        report.files_scanned += 1
        if cache is not None and rec.digest:
            cached = cache.findings(rec.relpath, rec.digest, project_fp)
            if cached is not None:
                rec.findings = cached
                report.findings.extend(cached)
                continue
        rec.ensure_parsed()
        if rec.parse_error is not None:
            rec.findings = [_parse_error_finding(rec.relpath,
                                                 rec.parse_error)]
        elif rec.tree is not None:
            ctx = FileContext(path=rec.path, relpath=rec.relpath,
                              source=rec.source or "", tree=rec.tree,
                              project=index)
            rec.findings = _run_rules(ctx, rules)
        else:
            rec.findings = []
        report.findings.extend(rec.findings)
        if cache is not None and rec.digest and rec.summary is not None:
            cache.put(rec.relpath, rec.digest, rec.summary,
                      rec.findings, project_fp)

    if cache is not None:
        cache.prune({rec.relpath for rec in records})
        cache.save()
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
    return report
