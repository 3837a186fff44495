"""Discrete-event simulation engine.

A compact, dependency-free DES kernel in the style of SimPy: an event heap,
generator-based processes and FIFO servers with queueing statistics.
:mod:`repro.runtime.detailed` builds its request-level cross-check of the
flow solver on these primitives, and the fine-grained burst sampler
replays arrival processes generated here.

Two usage styles are supported:

* **Process style** — write a generator that ``yield``'s
  :class:`~repro.desim.engine.Timeout` or server requests; the engine
  interleaves processes in simulated time.
* **Batch style** — the arrival processes in :mod:`repro.desim.arrivals`
  can also emit whole NumPy arrays of arrival timestamps, which is orders
  of magnitude faster when only the arrival pattern (not the feedback)
  matters, e.g. for burstiness sampling.
"""

from repro import _export

_EXPORTS = {
    "Event": "events",
    "EventQueue": "events",
    "Simulator": "engine",
    "Timeout": "engine",
    "Interrupt": "engine",
    "SimulationError": "engine",
    "Server": "resources",
    "QueueStats": "resources",
    "ArrivalProcess": "arrivals",
    "PoissonArrivals": "arrivals",
    "DeterministicArrivals": "arrivals",
    "OnOffArrivals": "arrivals",
    "MMPPArrivals": "arrivals",
    "HyperexponentialArrivals": "arrivals",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
