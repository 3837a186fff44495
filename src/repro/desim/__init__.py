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

from repro.desim.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    HyperexponentialArrivals,
    MMPPArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.desim.engine import Interrupt, SimulationError, Simulator, Timeout
from repro.desim.events import Event, EventQueue
from repro.desim.resources import QueueStats, Server

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Timeout",
    "Interrupt",
    "SimulationError",
    "Server",
    "QueueStats",
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "OnOffArrivals",
    "MMPPArrivals",
    "HyperexponentialArrivals",
]
