"""Concurrency-safety rules (``CONC``, tier 2).

Sweeps fan out to process pools.  These rules use the cross-module
symbol index to see the hazards a single file cannot show:

* ``CONC002`` — a process-pool submission (``pool.submit`` with
  ``ProcessPoolExecutor`` imported, or ``run_isolated``) captures
  something that cannot cross the process boundary: a lambda or a
  function nested in the submitting scope (unpicklable), or a
  module-level mutable registry passed as an argument — the child
  mutates a *copy*, and the parent silently never sees the writes.
* ``CONC003`` — a worker entry function (submitted to a process pool
  anywhere in the project) consumes fork-inherited process-wide state:
  the stdlib/NumPy *global* RNG, or the active telemetry session,
  without re-initialising it (``seed``/``default_rng`` respectively
  ``enable(fresh=True)``) in the worker.  Forked children inherit the
  parent's RNG position and telemetry buffers; every worker then
  replays identical "random" draws and double-counts metrics.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.core import FileContext, Finding, Rule, dotted_name, \
    register
from repro.lintkit.dataflow.symbols import SymbolIndex, module_name_for

#: Call-name tails that re-seed / re-initialise inherited RNG state
#: (constructing a local ``random.Random(seed)`` counts).
_RNG_REINIT = {"seed", "default_rng", "derive", "spawn", "Random"}

#: Dotted prefixes reading the process-global RNG streams.
_GLOBAL_RNG_PREFIXES = ("random.", "np.random.", "numpy.random.")


def _top_level_functions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """``(name, fn)`` for module functions and ``Class.method`` pairs."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{stmt.name}.{sub.name}", sub


def _project_index(ctx: FileContext) -> SymbolIndex:
    if ctx.project is not None:
        return ctx.project
    index = SymbolIndex()
    index.add_tree(ctx.relpath, ctx.tree)
    return index


def _collect_bound_names(target: ast.AST, out: set[str]) -> None:
    """Names *bound* by an assignment target.  ``REGISTRY[k] = v`` and
    ``obj.attr = v`` bind nothing — they mutate an existing object — so
    Subscript/Attribute targets are deliberately not descended into."""
    if isinstance(target, ast.Name):
        out.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _collect_bound_names(elt, out)
    elif isinstance(target, ast.Starred):
        _collect_bound_names(target.value, out)


def _local_bindings(fn: ast.AST) -> set[str]:
    """Names assigned anywhere in ``fn`` (locals unless declared global)."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                _collect_bound_names(target, out)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name):
                out.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            _collect_bound_names(node.target, out)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    _collect_bound_names(item.optional_vars, out)
        elif isinstance(node, ast.NamedExpr):
            _collect_bound_names(node.target, out)
    return out


def _params(fn: ast.AST) -> set[str]:
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


@register
class ProcessPoolCaptureRule(Rule):
    """``CONC002``: unpicklable / mutable-shared process-pool captures."""

    id = "CONC002"
    name = "process-pool-capture"
    description = ("a process-pool submission captures a lambda, nested "
                   "function, or shared mutable registry")
    tier = 2

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        index = _project_index(ctx)
        module = module_name_for(ctx.relpath)
        info = index.modules.get(module)
        mutable_globals = set(info.globals_mutable) if info else set()
        has_pool = bool(info) and any(
            q.rsplit(".", 1)[-1] == "ProcessPoolExecutor"
            for q in info.imports.values())
        for fname, fn in _top_level_functions(ctx.tree):
            nested = {n.name for n in ast.walk(fn)
                      if isinstance(n, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                      and n is not fn}
            shadowed = _local_bindings(fn) | _params(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail == "run_isolated" or (has_pool and tail == "submit"):
                    yield from self._check_submission(
                        ctx, node, nested, mutable_globals - shadowed)

    def _check_submission(self, ctx: FileContext, call: ast.Call,
                          nested: set[str],
                          shared: set[str]) -> Iterator[Finding]:
        target = call.args[0]
        if isinstance(target, ast.Lambda):
            yield ctx.finding(
                self, target,
                "a lambda cannot cross the process boundary (pickle "
                "fails at submit time); move the worker to module level")
        elif isinstance(target, ast.Name) and target.id in nested:
            yield ctx.finding(
                self, target,
                f"nested function `{target.id}` cannot cross the process "
                "boundary (closures do not pickle); move it to module "
                "level")
        for arg in call.args[1:]:
            for node in ast.walk(arg):
                if isinstance(node, ast.Name) and node.id in shared:
                    yield ctx.finding(
                        self, node,
                        f"mutable module registry `{node.id}` is passed "
                        "into a process pool: the worker mutates a pickled "
                        "copy and the parent never sees the writes; pass "
                        "immutable data and return results instead")


@register
class ForkInheritedStateRule(Rule):
    """``CONC003``: worker entries consuming fork-inherited state."""

    id = "CONC003"
    name = "fork-inherited-state"
    description = ("a process-pool worker reads the global RNG or the "
                   "telemetry session inherited across fork without "
                   "re-initialising it")
    tier = 2

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        index = _project_index(ctx)
        entries = index.process_entry_functions()
        if not entries:
            return
        module = module_name_for(ctx.relpath)
        for name, fn in _top_level_functions(ctx.tree):
            if f"{module}.{name}" not in entries:
                continue
            yield from self._check_worker(ctx, name, fn)

    def _check_worker(self, ctx: FileContext, fname: str,
                      fn: ast.AST) -> Iterator[Finding]:
        reseeds = False
        fresh_session = False
        rng_reads: list[tuple[ast.AST, str]] = []
        session_reads: list[tuple[ast.AST, str]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail in _RNG_REINIT:
                    reseeds = True
                if tail == "enable" and any(
                        kw.arg == "fresh" and
                        isinstance(kw.value, ast.Constant) and
                        kw.value.value is True
                        for kw in node.keywords):
                    fresh_session = True
                if tail == "session" or name.endswith("obs.session"):
                    session_reads.append((node, name))
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                if dotted.startswith(_GLOBAL_RNG_PREFIXES):
                    rng_reads.append((node, dotted))
                elif dotted.endswith("._active"):
                    session_reads.append((node, dotted))
        if not reseeds:
            for node, name in rng_reads:
                yield ctx.finding(
                    self, node,
                    f"worker `{fname}` draws from the process-global RNG "
                    f"(`{name}`) inherited across fork: every worker "
                    "replays the parent's stream; seed a local generator "
                    "per task instead")
        if not fresh_session:
            for node, name in session_reads:
                yield ctx.finding(
                    self, node,
                    f"worker `{fname}` reads the fork-inherited telemetry "
                    f"session (`{name}`); call obs.enable(fresh=True) in "
                    "the worker so counters are not double-recorded")
