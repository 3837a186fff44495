"""Parallel workloads: five NPB 3.3 dwarfs and a PARSEC x264 proxy.

Table I of the paper selects EP, IS, FT, CG and SP from NPB plus x264 from
PARSEC.  Each program here carries three faces:

1. **A real computational kernel** at laptop scale (``run_kernel``): the
   actual algorithm — Marsaglia-pair generation for EP, bucket sort for
   IS, a radix-2 3-D FFT for FT, conjugate gradient on a sparse matrix for
   CG, a pentadiagonal line solver on a 3-D grid for SP, and block-matching
   motion estimation for x264.  These validate that the access-pattern
   claims (SP touches all dimensions of a 3-D space, EP barely touches
   memory, ...) are grounded in real code.
2. **An address-trace generator** (``address_trace``): a memory reference
   stream with the kernel's locality structure, fed through the
   set-associative cache simulator to obtain off-chip miss streams.
3. **A per-class memory profile** (``profile``): the counter-level
   aggregates (instructions, LLC misses, burstiness, working set) for the
   paper's problem classes S/W/A/B/C (Table III), which the measurement
   substrate scales to full problem sizes where trace-level simulation
   would be infeasible.
"""

from repro import _export
from repro.workloads.base import Workload, WorkloadError
from repro.workloads.cg import CG
from repro.workloads.ep import EP
from repro.workloads.ft import FT
from repro.workloads.isort import IS
from repro.workloads.sp import SP
from repro.workloads.x264 import X264

_EXPORTS = {
    "BurstProfile": "base",
    "SizeSpec": "base",
    "MemoryProfile": "base",
    "synthetic": "synthetic",
}

_REGISTRY = {w.name: w for w in (EP(), IS(), FT(), CG(), SP(), X264())}


def all_workloads() -> list[Workload]:
    """The six Table I programs, in the paper's order."""
    return list(_REGISTRY.values())


def get_workload(name: str) -> Workload:
    """Look up a workload by its Table I name (e.g. ``"CG"``, ``"x264"``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; have {sorted(_REGISTRY)}") from None


__all__ = [
    *_EXPORTS, "Workload", "WorkloadError",
    "EP", "IS", "FT", "CG", "SP", "X264",
    "all_workloads", "get_workload",
]


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
