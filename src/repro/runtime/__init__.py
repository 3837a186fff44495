"""The measurement substrate: simulated program execution on machine models.

This package plays the role of the paper's physical testbeds.  Given a
workload profile, a machine and a core allocation it produces the hardware
counter values a run would have measured:

* :mod:`repro.runtime.flow` — the closed queueing-network solver.  Active
  cores are customers alternating between a compute think state and FCFS
  memory stations (front-side buses, memory controllers, interconnect
  delays); processors sharing a controller are coupled through a shadow-
  utilisation fixed point.  This is deliberately *richer* than the paper's
  open M/M/1 analytical model (closed-loop feedback, general service,
  multi-station routing), so fitting the paper's model to these
  measurements is a meaningful test.
* :mod:`repro.runtime.noise` — run-to-run variability: burstiness-scaled
  multiplicative noise plus oversubscription imbalance, seeded.
* :mod:`repro.runtime.calibration` — anchors each (program, class,
  machine) to its Table II full-core contention value by solving for one
  scalar (miss volume, or cross-package miss growth for EP-like
  programs); every other feature of the curves is emergent.
* :mod:`repro.runtime.measurement` — the experiment-facing API:
  :class:`MeasurementRun` sweeps core counts and averages repetitions,
  returning :class:`repro.counters.CounterSample` values.
"""

from repro.runtime.calibration import (
    CalibrationError,
    calibrate_profile,
    machine_key,
    table2_target,
)
from repro.runtime.detailed import (
    DetailedRunResult,
    compare_with_flow,
    run_detailed_single_package,
)
from repro.runtime.flow import (
    FlowResult,
    cross_package_share,
    smt_paired_fraction,
    solve_flow,
    solve_flow_cells,
)
from repro.runtime.measurement import (
    MeasurementRun,
    measure_curve,
    measure_single,
    prime_runs,
)
from repro.runtime.noise import NoiseModel

__all__ = [
    "FlowResult",
    "solve_flow",
    "solve_flow_cells",
    "prime_runs",
    "cross_package_share",
    "smt_paired_fraction",
    "NoiseModel",
    "calibrate_profile",
    "machine_key",
    "table2_target",
    "CalibrationError",
    "MeasurementRun",
    "measure_curve",
    "measure_single",
    "DetailedRunResult",
    "run_detailed_single_package",
    "compare_with_flow",
]
