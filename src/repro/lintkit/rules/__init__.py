"""Domain rule families; importing this package registers every rule.

Families (see docs/LINTING.md for the full catalogue and why each rule
stays):

* ``DET``  — determinism: no unseeded randomness, no wall-clock reads.
* ``PERF`` — batch hygiene: experiment sweeps go through the batch
  solver kernel, not per-cell loops.
* ``PUR``  — cache purity: memoized solvers stay side-effect free.
  ``PUR100`` tracks aliases the syntactic rules cannot see.
* ``CONC`` — concurrency safety: process-pool capture hazards,
  fork-inherited RNG/telemetry state.
* ``SIM``  — desim event ordering: no event mutation after enqueue.
* ``TEL``  — telemetry hygiene: registry-constant metric names, spans
  only as context managers.
"""

from repro.lintkit.rules import (  # noqa: F401
    cachepurity,
    concurrency,
    desim,
    determinism,
    perf,
    purity_flow,
    telemetry,
)
