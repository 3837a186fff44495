"""Performance rules (``PERF``).

The flow driver (:mod:`repro.runtime.flow`, docs/PERFORMANCE.md)
solves every flow cell of a sweep in one lock-step batch; experiment
drivers that instead solve one cell per call inside a loop silently
give that win back.  The ``PERF`` family fences the per-cell pattern
out of the experiment drivers, where sweeps are the norm and the batch
API is one call away.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lintkit.core import FileContext, Finding, Rule, register

#: Callables that solve (or measure, which solves) a single flow cell.
_PER_CELL_CALLS = {"solve_flow", "measure", "measure_single"}

#: Callables that route a sweep through the batch kernel — a function
#: using any of these has consciously arranged its solves.
_BATCH_CALLS = {"prime", "prime_runs", "sweep", "omega_curve",
                "solve_flow_cells"}

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _call_name(node: ast.Call) -> str | None:
    """The bare callee name: ``measure`` for both ``measure(...)`` and
    ``run_.measure(...)``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@register
class PerCellSolveLoopRule(Rule):
    """``PERF001``: experiment drivers must batch their sweeps.

    A ``solve_flow``/``measure`` call inside a loop or comprehension
    solves one cell at a time; in ``repro/experiments/`` that loop is
    almost always a sweep the batch kernel could run in lock-step.
    Fix: measure through :meth:`MeasurementRun.sweep`, prime the cells
    first (:meth:`MeasurementRun.prime` / :func:`prime_runs`), or call
    :func:`solve_flow_cells` directly.  Loops that are intentionally
    scalar (priming already happened upstream, or the cells genuinely
    depend on each other) carry an inline
    ``# reprolint: disable=PERF001`` with the reason next to it.
    """

    id = "PERF001"
    name = "no-per-cell-solve-loops"
    description = ("per-cell solve_flow/measure loop in an experiment "
                   "driver; batch the sweep via MeasurementRun.sweep/"
                   "prime, prime_runs or solve_flow_cells")
    only = ("repro/experiments/",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            calls = [n for n in ast.walk(func)
                     if isinstance(n, ast.Call)]
            if any(_call_name(c) in _BATCH_CALLS for c in calls):
                continue  # the function already routes through the batch
            seen: set[int] = set()  # nested loops share inner calls
            for loop in ast.walk(func):
                if not isinstance(loop, _LOOPS):
                    continue
                for node in ast.walk(loop):
                    if isinstance(node, ast.Call) and \
                            _call_name(node) in _PER_CELL_CALLS and \
                            id(node) not in seen:
                        seen.add(id(node))
                        yield ctx.finding(
                            self, node,
                            f"`{_call_name(node)}` called per cell "
                            "inside a loop; solve the sweep through "
                            "the batch kernel (MeasurementRun.sweep/"
                            "prime, prime_runs, solve_flow_cells)")
