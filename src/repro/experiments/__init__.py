"""Experiment drivers: one module per table/figure of the paper.

Every driver exposes ``run(fast=False, rng=None) -> ExperimentResult`` and
is registered in :mod:`repro.experiments.runner`; the CLI
(``python -m repro <name>``) and the benchmark harness both go through
that registry.  ``fast=True`` trades sampling volume for speed (used by
the test suite); the defaults reproduce the full paper artefacts.

Index (see DESIGN.md for the complete mapping):

========  ==========================================================
table1    program inventory (paper Table I)
table2    normalized cycle increase, W vs large classes (Table II)
table3    problem-size descriptions (Table III)
fig3      CG.C counter curves vs active cores, three machines (Fig. 3)
fig4      burstiness CCDFs for CG and x264 (Fig. 4)
fig5      model vs measurement, high contention CG.C (Fig. 5)
fig6      model vs measurement, low contention EP.C (Fig. 6)
table4    1/C(n) colinearity R-squared (Table IV)
sp_peak   SP.C peak contention quoted in Section V
ablation_inputs      regression-input ablation (Section V accuracy notes)
ablation_burstiness  tail linearity vs problem size (Section III-B)
========  ==========================================================
"""

from repro import _export

_EXPORTS = {
    "ExperimentResult": "runner",
    "available_experiments": "runner",
    "run_experiment": "runner",
    "run_experiments": "runner",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
