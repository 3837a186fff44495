"""THE PAPER'S CONTRIBUTION: the analytical memory-contention model.

Everything in this package follows Section IV of the paper:

* :mod:`repro.core.contention` — the cycle decomposition
  ``C(n) = W(n) + B(n) + M(n)`` and Definition 1, the degree of memory
  contention ``omega(n) = (C(n) - C(1)) / C(1)``;
* :mod:`repro.core.regression` — the ordinary-least-squares fit used
  throughout (the paper derives every parameter by linear regression);
* :mod:`repro.core.uniproc` — the single-processor open M/M/1 law
  ``C(n) = r(n) / (mu - n L)`` (eq. 6), fitted via the linearity of
  ``1/C(n)`` in ``n``;
* :mod:`repro.core.uma` — the multi-processor UMA composition
  ``C_UMA(n) = C(c) + C(n - c) + Delta C`` (eq. 8);
* :mod:`repro.core.numa` — the NUMA composition
  ``C_NUMA(n) = C(c) + r(n) rho (n - c)`` (eq. 11), with the
  hop-weighted multi-latency variant used for the AMD testbed;
* :mod:`repro.core.model` — a facade that picks the right composition
  for a machine, fits from the paper's chosen measurement points, and
  predicts full omega(n) curves;
* :mod:`repro.core.validate` — model-vs-measurement reports: the average
  relative error the paper quotes (5-14 %) and the Table IV R² of the
  ``1/C(n)`` colinearity.

The model deliberately consumes nothing but measured counter samples —
exactly the quantities PAPI provides — so it runs unchanged against the
simulated testbeds here or against counters collected on real hardware.
"""

# ``predict`` is imported eagerly: it names both a submodule and a
# function, and importing the submodule binds the package attribute to
# the module.  Importing it here binds the function over the module
# before any other import of ``repro.core.predict`` can.
from repro import _export
from repro.core.predict import predict

_EXPORTS = {
    "CycleDecomposition": "contention",
    "contention_stall_cycles": "contention",
    "degree_of_contention": "contention",
    "omega_curve": "contention",
    "LinearFit": "regression",
    "linear_fit": "regression",
    "SingleProcessorModel": "uniproc",
    "ModelError": "uniproc",
    "UMAContentionModel": "uma",
    "NUMAContentionModel": "numa",
    "ContentionModel": "model",
    "fit_model": "model",
    "model_diagnostics": "model",
    "paper_fit_points": "model",
    "colinearity_fit": "model",
    "colinearity_r2": "model",
    "ValidationReport": "validate",
    "validate_model": "validate",
    "Prediction": "predict",
    "Recommendation": "predict",
    "predict_workload": "predict",
    "predict_sweep": "predict",
    "recommend": "predict",
    "recommend_workload": "predict",
}

__all__ = [*_EXPORTS, "predict"]


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
