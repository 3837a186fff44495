"""Cached cross-module symbol index over the linted tree.

Tier-2 rules need facts no single file contains: is this function
submitted to a process pool three modules away?  which module-level
names hold mutable registries?  The :class:`SymbolIndex` answers those
from per-module *summaries* — a compact, JSON-able digest of each
module's definitions, imports, mutable globals and process-pool
entry points.

Summaries, not ASTs, are the index's currency on purpose: the
incremental lint cache persists each file's summary next to its
findings, so an unchanged file contributes to the index without being
re-parsed, and the index *fingerprint* (a hash of every summary) keys
the validity of cached findings — editing a function body leaves the
summary and therefore every other file's cached findings intact, while
changing a signature, import, global or process entry invalidates
exactly what the change can influence.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field

from repro.lintkit.core import dotted_name

__all__ = ["FunctionInfo", "ModuleInfo", "SymbolIndex", "module_name_for",
           "extract_summary"]

#: Constructors whose results are interior-mutable (registry singletons).
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "deque",
                      "defaultdict", "OrderedDict", "Counter"}


def module_name_for(relpath: str) -> str:
    """Dotted module name for a posix relpath (``src/`` prefix stripped)."""
    path = relpath.replace("\\", "/")
    for prefix in ("src/",):
        idx = path.find(prefix)
        if idx >= 0:
            path = path[idx + len(prefix):]
            break
    if path.endswith(".py"):
        path = path[:-3]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.strip("/").replace("/", ".")


@dataclass(frozen=True)
class FunctionInfo:
    """One top-level function or method, as summarised."""

    qualname: str          # module.Class.method / module.function
    name: str              # Class.method / function
    module: str
    params: tuple[str, ...]


@dataclass
class ModuleInfo:
    """The summary of one module, buildable from AST or cached JSON."""

    module: str
    relpath: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local import name -> qualified dotted target.
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level names bound to mutable containers (registries).
    globals_mutable: tuple[str, ...] = ()
    #: every module-level binding.
    globals_all: tuple[str, ...] = ()
    #: dotted names submitted to a process pool / run_isolated.
    process_entries: tuple[str, ...] = ()

    def to_summary(self) -> dict:
        return {
            "module": self.module,
            "relpath": self.relpath,
            "functions": {
                name: {"params": list(info.params)}
                for name, info in sorted(self.functions.items())
            },
            "imports": dict(sorted(self.imports.items())),
            "globals_mutable": sorted(self.globals_mutable),
            "globals_all": sorted(self.globals_all),
            "process_entries": sorted(self.process_entries),
        }

    @classmethod
    def from_summary(cls, data: dict) -> "ModuleInfo":
        mod = data["module"]
        info = cls(module=mod, relpath=data.get("relpath", ""))
        info.functions = {
            name: FunctionInfo(
                qualname=f"{mod}.{name}", name=name, module=mod,
                params=tuple(f.get("params", ())))
            for name, f in data.get("functions", {}).items()
        }
        info.imports = dict(data.get("imports", {}))
        info.globals_mutable = tuple(data.get("globals_mutable", ()))
        info.globals_all = tuple(data.get("globals_all", ()))
        info.process_entries = tuple(data.get("process_entries", ()))
        return info


# -- summary extraction -------------------------------------------------------

def _is_mutable_binding(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set,
                          ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name and name.rsplit(".", 1)[-1] in _MUTABLE_FACTORIES:
            return True
    return False


def extract_summary(relpath: str, tree: ast.Module) -> ModuleInfo:
    """Summarise one parsed module (see module docstring)."""
    mod = module_name_for(relpath)
    info = ModuleInfo(module=mod, relpath=relpath)
    globals_all: list[str] = []
    globals_mutable: list[str] = []

    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            _record_imports(stmt, info.imports)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _record_function(info, stmt.name, stmt)
            globals_all.append(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            globals_all.append(stmt.name)
            _record_class(info, stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    globals_all.append(target.id)
                    if _is_mutable_binding(stmt.value):
                        globals_mutable.append(target.id)
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            globals_all.append(stmt.target.id)
            if stmt.value is not None and _is_mutable_binding(stmt.value):
                globals_mutable.append(stmt.target.id)

    info.globals_all = tuple(dict.fromkeys(globals_all))
    info.globals_mutable = tuple(dict.fromkeys(globals_mutable))
    info.process_entries = _process_entries(tree, info.imports)
    return info


def _record_imports(stmt: ast.Import | ast.ImportFrom,
                    imports: dict[str, str]) -> None:
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else \
                alias.name.split(".", 1)[0]
            imports[local] = target
    else:
        if stmt.module is None or stmt.level:
            return  # relative imports: rare here, skip resolution
        for alias in stmt.names:
            local = alias.asname or alias.name
            imports[local] = f"{stmt.module}.{alias.name}"


def _record_function(info: ModuleInfo, name: str, fn: ast.AST) -> None:
    args = fn.args
    params = tuple(a.arg for a in (*args.posonlyargs, *args.args,
                                   *args.kwonlyargs))
    info.functions[name] = FunctionInfo(
        qualname=f"{info.module}.{name}", name=name, module=info.module,
        params=params)


def _record_class(info: ModuleInfo, cls: ast.ClassDef) -> None:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _record_function(info, f"{cls.name}.{stmt.name}", stmt)


def _process_entries(tree: ast.Module,
                     imports: dict[str, str]) -> tuple[str, ...]:
    """First args of ``run_isolated(fn, ...)`` and — when the module
    imports ``ProcessPoolExecutor`` — of ``<pool>.submit(fn, ...)``."""
    has_pool = any(q.rsplit(".", 1)[-1] == "ProcessPoolExecutor"
                   for q in imports.values())
    out: dict[str, None] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        tail = name.rsplit(".", 1)[-1]
        if tail == "run_isolated" or (has_pool and tail == "submit"):
            target = dotted_name(node.args[0])
            if target:
                out.setdefault(target, None)
    return tuple(out)


# -- the index ----------------------------------------------------------------

class SymbolIndex:
    """Project-wide view over per-module summaries."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self._process_entry_set: set[str] | None = None

    def add(self, info: ModuleInfo) -> None:
        self.modules[info.module] = info
        self._process_entry_set = None

    def add_tree(self, relpath: str, tree: ast.Module) -> ModuleInfo:
        info = extract_summary(relpath, tree)
        self.add(info)
        return info

    def fingerprint(self) -> str:
        """Hash of every summary; keys cached-finding validity."""
        payload = json.dumps(
            {mod: info.to_summary()
             for mod, info in sorted(self.modules.items())},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- resolution -----------------------------------------------------------

    def resolve_call(self, module: str, dotted: str) -> str:
        """Qualify a call target as written into a project dotted name.

        ``state.enable`` with ``import repro.obs.state as state`` becomes
        ``repro.obs.state.enable``; ``self.foo`` inside ``Class.bar``
        must be resolved by the caller (needs the class context); names
        with no matching import resolve within the module itself when
        defined there, else stay as written.
        """
        head, _, rest = dotted.partition(".")
        info = self.modules.get(module)
        if info is not None:
            qualified = info.imports.get(head)
            if qualified is not None:
                return f"{qualified}.{rest}" if rest else qualified
            if not rest and head in info.functions:
                return f"{module}.{head}"
        return dotted

    # -- concurrency entry points --------------------------------------------

    def process_entry_functions(self) -> set[str]:
        """Qualified names submitted to a process pool or run_isolated."""
        if self._process_entry_set is None:
            out: set[str] = set()
            for info in self.modules.values():
                for target in info.process_entries:
                    out.update(self._qualify_entry(info, target))
            self._process_entry_set = out
        return self._process_entry_set

    def _qualify_entry(self, info: ModuleInfo, target: str) -> set[str]:
        """Candidate qualnames for one entry target, as written.

        ``self.X`` is recorded without class context (the summary walk
        is flat), so it fans out to ``module.Class.X`` for every class
        in the module defining an ``X`` method, plus a module-level
        ``X`` — over-approximate, the right direction for hazard rules.
        """
        if target.startswith("self."):
            attr = target[len("self."):]
            out = {f"{info.module}.{attr}"}
            for name in info.functions:
                cls, dot, meth = name.rpartition(".")
                if dot and meth == attr:
                    out.add(f"{info.module}.{name}")
            return out
        return {self.resolve_call(info.module, target)}
