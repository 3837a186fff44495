"""Hardware performance counters, reproduced against the simulated machine.

The paper measures with PAPI 3.7/4.1 through the ``papiex`` wrapper, maps
topology with LIKWID, pins threads with ``sched_setaffinity`` and samples
LLC misses every five microseconds with a custom fine-grained profiler.
This package reproduces those interfaces:

* :mod:`repro.counters.papi` — event definitions and counter samples
  (PAPI_TOT_CYC, PAPI_TOT_INS, PAPI_RES_STL, PAPI_L2_TCM, LLC_MISSES /
  L3_CACHE_MISSES) with the paper's derived quantity work = total - stall;
* :mod:`repro.counters.papiex` — the profiler facade: run a workload on a
  machine allocation and return averaged counter samples;
* :mod:`repro.counters.sampler` — the five-microsecond burst sampler;
* :mod:`repro.counters.likwid` — topology queries (logical id to physical
  core / package / controller mapping).
"""

from repro import _export

_EXPORTS = {
    "PapiEvent": "papi",
    "EventSet": "papi",
    "CounterSample": "papi",
    "llc_event_for": "papi",
    "PapiError": "papi",
    "Papiex": "papiex",
    "ProfiledRun": "papiex",
    "BurstSampler": "sampler",
    "SampledTrace": "sampler",
    "TopologyMap": "likwid",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
