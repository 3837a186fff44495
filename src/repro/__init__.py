"""repro — reproduction of "Understanding Off-chip Memory Contention of
Parallel Programs in Multicore Systems" (Tudor, Teo & See, ICPP 2011).

The package has two halves:

* the **paper's contribution** — the analytical M/M/1 memory-contention
  model (:mod:`repro.core`): cycle decomposition, the degree of
  contention ``omega(n)``, the single-processor cycle law
  ``C(n) = r/(mu - nL)`` fitted by regression, and the UMA/NUMA
  multi-processor compositions;
* the **substrates** the paper's experiments ran on, rebuilt as
  simulations — machine models of the three testbeds
  (:mod:`repro.machine`), the NPB/PARSEC workloads
  (:mod:`repro.workloads`), a closed queueing-network measurement
  runtime (:mod:`repro.runtime`, on :mod:`repro.qnet` and
  :mod:`repro.desim`), PAPI-style counters and the five-microsecond
  burst sampler (:mod:`repro.counters`), and burstiness analysis
  (:mod:`repro.burst`).

Quick start::

    from repro import intel_numa, MeasurementRun, fit_model, validate_model

    machine = intel_numa()
    run = MeasurementRun("CG", "C", machine)
    sweep = run.sweep()                    # measured counters, n = 1..24
    model = fit_model(machine, sweep)      # the paper's model, fitted
    report = validate_model(model, sweep)
    print(report.mean_relative_error_cycles)   # the paper's 5-14% band

Every table and figure of the paper regenerates via
:func:`repro.experiments.run_experiment` or ``python -m repro <name>``.
"""

import importlib
import sys

__version__ = "1.0.0"

#: Each exported name -> the subpackage it comes from (``obs`` is that
#: subpackage itself).  Nothing is imported until a name is first read.
_EXPORTS = {
    # telemetry
    "obs": "obs",
    # the paper's model
    "ContentionModel": "core",
    "SingleProcessorModel": "core",
    "UMAContentionModel": "core",
    "NUMAContentionModel": "core",
    "ValidationReport": "core",
    "fit_model": "core",
    "validate_model": "core",
    "paper_fit_points": "core",
    "colinearity_r2": "core",
    "degree_of_contention": "core",
    "omega_curve": "core",
    # machines
    "Machine": "machine",
    "CoreAllocation": "machine",
    "intel_uma": "machine",
    "intel_numa": "machine",
    "amd_numa": "machine",
    "all_machines": "machine",
    # workloads
    "Workload": "workloads",
    "all_workloads": "workloads",
    "get_workload": "workloads",
    # measurement substrate
    "MeasurementRun": "runtime",
    "measure_curve": "runtime",
    "measure_single": "runtime",
    # counters
    "CounterSample": "counters",
    "Papiex": "counters",
    "BurstSampler": "counters",
    "TopologyMap": "counters",
    # experiments
    "run_experiment": "experiments",
    "available_experiments": "experiments",
}

__all__ = ["__version__", *_EXPORTS]


def _export(package: str, exports: dict[str, str], name: str):
    """Resolve ``name`` through a package's export table (PEP 562).

    Every package ``__init__`` maps each name it exports to the submodule
    that defines it, relative to the package, and its ``__getattr__``
    calls this: the first read of a name imports that submodule and binds
    the name in the package, so later reads never come back here.  A
    name mapped to itself is the submodule.  A process therefore loads
    only the modules whose names it reads.
    """
    try:
        submodule = exports[name]
    except KeyError:
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{package}.{submodule}")
    value = module if submodule == name else getattr(module, name)
    setattr(sys.modules[package], name, value)
    return value


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
