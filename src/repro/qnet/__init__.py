"""Queueing-theory substrate.

Solvers for the queueing systems the measurement substrate relies on:

* closed networks — the three batched entries of :mod:`repro.qnet.mva`
  (exact MVA, Schweitzer approximate MVA, asymptotic bounds), which is
  how the *simulated machine* computes cycle counts: ``n`` cores cycle
  between a compute "think" state and queueing at
  bus/controller/interconnect stations;
* multi-server Erlang-C — :mod:`repro.qnet.mmc` (the multi-channel
  memory controllers of the extended model, :mod:`repro.core.extended`).

The analytical model in :mod:`repro.core` deliberately uses only the open
M/M/1 form, exactly as the paper does, and computes it itself
(:mod:`repro.core.uniproc`); everything richer lives here and in the
measurement substrate, which keeps the model-vs-measurement comparison
honest.
"""

from repro import _export

_EXPORTS = {
    "exact_throughputs_cells": "mva",
    "schweitzer_throughputs": "mva",
    "bound_throughputs": "mva",
    "MMc": "mmc",
    "erlang_c": "mmc",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
