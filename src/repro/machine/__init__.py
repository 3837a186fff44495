"""Simulated multicore machines.

This package replaces the paper's three physical testbeds with fully
described machine models:

* :func:`~repro.machine.presets.intel_uma` — dual quad-core Xeon E5320,
  one shared memory controller behind per-processor front-side buses;
* :func:`~repro.machine.presets.intel_numa` — dual six-core (2-way SMT)
  Xeon X5650, one controller per processor, QPI direct link;
* :func:`~repro.machine.presets.amd_numa` — quad twelve-core Opteron
  6172, two controllers per processor, eight-node partial-mesh HT
  interconnect with 0/1/2-hop distances.

The object model carries everything the measurement substrate and the
analytical model need: clock frequency, cache hierarchy, DRAM timing,
controller channel counts, bus widths and NUMA hop latencies — all taken
from the paper's hardware table or public microarchitecture documentation.
"""

from repro import _export

_EXPORTS = {
    "CacheLevel": "topology",
    "Core": "topology",
    "Processor": "topology",
    "MemoryController": "topology",
    "Machine": "topology",
    "MemoryArchitecture": "topology",
    "DramTiming": "dram",
    "FrontSideBus": "bus",
    "Interconnect": "interconnect",
    "CacheConfig": "caches",
    "SetAssociativeCache": "caches",
    "CacheHierarchy": "caches",
    "intel_uma": "presets",
    "intel_numa": "presets",
    "amd_numa": "presets",
    "all_machines": "presets",
    "CoreAllocation": "allocation",
    "fill_processor_first": "allocation",
    "AffinityError": "allocation",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
