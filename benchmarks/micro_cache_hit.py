#!/usr/bin/env python
"""Micro-benchmark: the flow-cache hit path's per-hit copy cost.

Every flow-cache hit in :mod:`repro.runtime.flow`'s driver must
return a defensive copy of the cached :class:`FlowResult` (callers may
hold onto ``controller_utilisation``, and a frozen dataclass shares the
dict otherwise).  The obvious ``dataclasses.replace(result)`` re-runs
``__post_init__`` validation on every hit; the shipped ``_copy_cached``
clones via ``object.__new__`` + ``__dict__`` update instead.  This
script times both against a real solved cell and reports the speedup,
so the claim in docs/PERFORMANCE.md stays reproducible::

    PYTHONPATH=src python benchmarks/micro_cache_hit.py
"""

from __future__ import annotations

import dataclasses
import time

from repro.machine import all_machines
from repro.machine.allocation import CoreAllocation
from repro.runtime.calibration import calibrate_profile
from repro.runtime.flow import _copy_cached, solve_flow

REPEATS = 5
ITERATIONS = 20_000


def _time(fn, result) -> float:
    """Best-of-``REPEATS`` seconds for ``ITERATIONS`` copies."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(ITERATIONS):
            out = fn(result)
        best = min(best, time.perf_counter() - start)
        assert out.controller_utilisation == result.controller_utilisation
        assert out.controller_utilisation is not result.controller_utilisation
    return best


def _replace_copy(result):
    out = dataclasses.replace(result)
    object.__setattr__(out, "controller_utilisation",
                       dict(result.controller_utilisation))
    return out


def main() -> int:
    machine = all_machines()[0]
    profile = calibrate_profile("CG", "C", machine)
    alloc = CoreAllocation.paper_policy(machine, machine.n_cores)
    result = solve_flow(profile, machine, alloc)

    replace_s = _time(_replace_copy, result)
    fast_s = _time(_copy_cached, result)
    per_hit_replace = replace_s / ITERATIONS
    per_hit_fast = fast_s / ITERATIONS
    print(f"dataclasses.replace copy: {per_hit_replace * 1e6:8.3f} us/hit")
    print(f"_copy_cached copy:        {per_hit_fast * 1e6:8.3f} us/hit")
    print(f"speedup: {per_hit_replace / per_hit_fast:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
