"""Inline suppression comments.

Two forms, parsed from real ``tokenize`` COMMENT tokens (so the marker
inside a string literal does not suppress anything):

``# reprolint: disable=DET003``
    Suppress the listed rule ids (comma separated, or ``all``) on the
    comment's own line.
``# reprolint: disable-file=DET003``
    Suppress the listed rule ids for the whole file.

When the parsed AST is available, a line suppression anywhere inside a
multi-line *simple* statement covers every physical line of that
statement — a trailing ``# reprolint: disable=TEL001`` on the closing
paren of a three-line call suppresses the finding anchored at the call's
first line.  Compound statements (``if``/``for``/``def``…) deliberately
do not spread: a directive inside a loop body must not silence the whole
loop.

A suppression should carry a justification in the surrounding code —
see docs/LINTING.md.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)")

#: Wildcard accepted in place of a rule-id list.
ALL = "all"

#: Statements whose lineno..end_lineno span is entirely their own text
#: (no nested suite), safe to blanket with one directive.
_SIMPLE_STMTS = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr, ast.Return,
    ast.Raise, ast.Assert, ast.Delete, ast.Import, ast.ImportFrom,
)


class Suppressions:
    """Parsed suppression directives for one file."""

    def __init__(self) -> None:
        #: line number -> set of rule ids (or {ALL}) disabled on that line.
        self.by_line: dict[int, set[str]] = {}
        #: rule ids (or {ALL}) disabled for the whole file.
        self.file_wide: set[str] = set()

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        for ids in (self.file_wide, self.by_line.get(line, ())):
            if rule_id in ids or ALL in ids:
                return True
        return False


def _parse_ids(raw: str) -> set[str]:
    ids = {part.strip() for part in raw.split(",")}
    return {i if i == ALL else i.upper() for i in ids if i}


def _spread_multiline(sup: Suppressions, tree: ast.Module) -> None:
    """Extend line directives over the full span of simple statements."""
    for node in ast.walk(tree):
        if not isinstance(node, _SIMPLE_STMTS):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if end <= node.lineno:
            continue
        span = range(node.lineno, end + 1)
        ids: set[str] = set()
        for line in span:
            ids |= sup.by_line.get(line, set())
        if ids:
            for line in span:
                sup.by_line.setdefault(line, set()).update(ids)


def parse_suppressions(source: str,
                       tree: ast.Module | None = None) -> Suppressions:
    """Scan ``source`` for ``# reprolint:`` directives.

    With ``tree`` given, line directives cover all physical lines of the
    multi-line simple statement they sit in (see module docstring).
    """
    sup = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _DIRECTIVE.search(tok.string)
            if not m:
                continue
            kind, raw_ids = m.group(1), m.group(2)
            ids = _parse_ids(raw_ids)
            if not ids:
                continue
            if kind == "disable-file":
                sup.file_wide |= ids
            else:
                line = tok.start[0]
                sup.by_line.setdefault(line, set()).update(ids)
    except tokenize.TokenError:
        # Unterminated constructs: fall back to whatever parsed so far;
        # the engine reports the syntax error separately.
        pass
    if tree is not None and sup.by_line:
        _spread_multiline(sup, tree)
    return sup
