"""repro.lintkit.dataflow — the lint engine's dataflow analysis tier.

The syntactic rules (tier 1) look at one AST node at a time; the rules
built on this package (tier 2) reason about *flow*: a per-function
control-flow graph (:mod:`cfg`), a small forward abstract-interpretation
engine over join-semilattice environments (:mod:`lattice`,
:mod:`fixpoint`), and a cross-module symbol index so rules can resolve
calls, imports and process-pool entries across ``src/repro``
(:mod:`symbols`).
``PUR100`` runs on the first three, the ``CONC`` rules on the index.

Everything here is stdlib-only and deliberately small: the CFG models
exactly the control constructs the rules need (branches, loops with
``else``, ``try``/``finally``, ``match``, early exits), the lattice has
height 2 per variable (unbound → value → ⊤), and the fixpoint engine is
a plain worklist — precision comes from the domains, not the machinery.
"""

from repro.lintkit.dataflow.cfg import CFG, BasicBlock, build_cfg
from repro.lintkit.dataflow.fixpoint import ForwardAnalysis
from repro.lintkit.dataflow.lattice import TOP, Env, join_env, join_value
from repro.lintkit.dataflow.symbols import (
    FunctionInfo,
    ModuleInfo,
    SymbolIndex,
    module_name_for,
)

__all__ = [
    "CFG", "BasicBlock", "build_cfg",
    "ForwardAnalysis",
    "TOP", "Env", "join_env", "join_value",
    "FunctionInfo", "ModuleInfo", "SymbolIndex", "module_name_for",
]
