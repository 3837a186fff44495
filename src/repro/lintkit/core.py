"""Rule registry, findings, and the per-file analysis context.

A *rule* is a class with an ``id`` (``DET001``), a severity, and a
``check(ctx)`` method yielding :class:`Finding` objects.  Rules register
themselves with the :func:`register` decorator; the engine instantiates
every registered rule once per run and hands each one the *same* parsed
AST per file (one ``ast.parse`` per file, shared by all rules).

Rules never read files themselves — everything they need (source
text, AST, the path relative to the scan root, the cross-module symbol
index) arrives on the :class:`FileContext`.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from repro.lintkit.dataflow.symbols import SymbolIndex


class Severity(enum.IntEnum):
    """Finding severity; ``ERROR`` findings fail the lint run."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @classmethod
    def from_str(cls, value: str) -> "Severity":
        try:
            return cls[value.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {value!r}; want one of "
                f"{[s.name.lower() for s in cls]}") from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic anchored to ``path:line:col``.

    ``snippet`` is the stripped source line, carried into the JSON
    report and the incremental cache.
    """

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    suppressed: bool = False

    @property
    def visible(self) -> bool:
        """True unless an inline suppression hides it."""
        return not self.suppressed

    def anchor(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Inverse of :meth:`to_dict` (used by the incremental cache)."""
        return cls(
            rule_id=data["rule"],
            severity=Severity.from_str(data["severity"]),
            path=data["path"],
            line=data["line"],
            col=data["col"],
            message=data["message"],
            snippet=data.get("snippet", ""),
            suppressed=bool(data.get("suppressed", False)),
        )


class FileContext:
    """Everything the rules see for one file: source, shared AST and
    the project's symbol index."""

    def __init__(self, path: str, relpath: str, source: str,
                 tree: ast.Module,
                 project: SymbolIndex | None = None) -> None:
        self.path = path
        #: Posix-style path relative to the scan invocation; what findings
        #: report and what ``only``/``default_allow`` match against.
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: The engine's cross-file :class:`SymbolIndex` for tier-2 rules;
        #: ``None`` under tier-1-only invocations.
        self.project = project
        self._cfgs: dict[int, object] = {}

    def cfg_of(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef"):
        """The function's control-flow graph, built once per file pass
        and shared by every dataflow rule."""
        key = id(fn)
        cfg = self._cfgs.get(key)
        if cfg is None:
            from repro.lintkit.dataflow.cfg import build_cfg
            cfg = build_cfg(fn)
            self._cfgs[key] = cfg
        return cfg

    def line_text(self, lineno: int) -> str:
        """The stripped source text of 1-based line ``lineno``."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST | int,
                message: str) -> Finding:
        """Build a :class:`Finding` for ``rule`` anchored at ``node``."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=rule.id,
            severity=rule.severity,
            path=self.relpath,
            line=line,
            col=col,
            message=message,
            snippet=self.line_text(line),
        )


class Rule:
    """Base class for lint rules.

    Class attributes:

    ``id``
        Unique rule identifier, e.g. ``DET001``.
    ``name``
        Short kebab-case name shown in the catalogue.
    ``severity``
        Severity of every finding the rule yields.
    ``description``
        One-line rationale shown by reporters and docs.
    ``default_allow``
        Path fragments (posix) where this rule never applies — the
        modules that legitimately own the flagged construct.
    ``only``
        When non-empty, the rule *only* runs on files matching one of
        these path fragments (used by domain-scoped rules such as the
        cache-key-token check).
    ``tier``
        ``1`` for single-pass syntactic rules, ``2`` for dataflow rules
        needing the CFG/abstract-interpretation machinery and the
        cross-module symbol index (``ctx.project``).  :func:`lint_file`
        only builds an index when it is handed a tier-2 rule, and
        ``repro lint --changed`` keys its incremental cache on the
        index fingerprint so tier-2 results stay sound across edits.
    """

    id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    default_allow: tuple[str, ...] = ()
    only: tuple[str, ...] = ()
    tier: int = 1

    def check(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError


#: All registered rule classes, keyed by rule id.
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    existing = RULE_REGISTRY.get(cls.id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.id!r}: "
                         f"{existing.__name__} and {cls.__name__}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """One fresh instance of every registered rule, sorted by id."""
    return [RULE_REGISTRY[rid]() for rid in sorted(RULE_REGISTRY)]


# -- small AST helpers shared by the rule modules -----------------------------

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def parameter_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """All parameter names of ``fn`` except ``self``/``cls``."""
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return {n for n in names if n not in ("self", "cls")}


@dataclass
class LintReport:
    """The outcome of one engine run over a set of files."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: int = 0
    #: Incremental-cache statistics; both stay 0 outside ``--changed``.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def visible(self) -> list[Finding]:
        return [f for f in self.findings if f.visible]

    @property
    def suppressed_count(self) -> int:
        return sum(1 for f in self.findings if f.suppressed)

    @property
    def has_errors(self) -> bool:
        return any(f.severity >= Severity.ERROR for f in self.visible)

    def exit_code(self) -> int:
        """1 when any visible error-severity finding remains, else 0."""
        return 1 if self.has_errors else 0


__all__ = [
    "Severity", "Finding", "FileContext", "Rule", "LintReport",
    "RULE_REGISTRY", "register", "all_rules",
    "dotted_name", "walk_functions", "parameter_names",
]
