"""Core allocation policies: the paper's fill-processor-first scheme.

The experiments fix the number of program threads at the machine's maximum
core count and vary the number of *active cores* from 1 to that maximum,
pinning threads with ``sched_setaffinity``.  Cores are activated
fill-processor-first: all logical cores of processor 0 before processor 1,
and on AMD the two controllers of a package come online together with that
package's cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.topology import Machine, MemoryArchitecture
from repro.util.validation import ValidationError, check_integer


class AffinityError(ValidationError):
    """Raised for invalid pinning requests (mirrors sched_setaffinity EINVAL)."""


def fill_processor_first(machine: Machine, n_active: int) -> list[int]:
    """Logical core ids activated by the paper's fill-processor-first policy.

    Logical ids already enumerate package-by-package (LIKWID order), so the
    policy is simply the first ``n_active`` logical ids.
    """
    check_integer("n_active", n_active, minimum=1, maximum=machine.n_cores)
    return list(range(n_active))


@dataclass(frozen=True)
class CoreAllocation:
    """Placement of ``n_active`` cores (and the threads pinned to them).

    Attributes
    ----------
    machine:
        The machine being allocated on.
    n_active:
        Number of active cores, 1..machine.n_cores.
    n_threads:
        Total program threads; the paper fixes this at machine.n_cores, so
        fewer active cores means oversubscription of the active ones.
    """

    machine: Machine
    n_active: int
    n_threads: int

    def __post_init__(self) -> None:
        check_integer("n_active", self.n_active, minimum=1,
                      maximum=self.machine.n_cores)
        check_integer("n_threads", self.n_threads, minimum=1)
        if self.n_threads < self.n_active:
            raise AffinityError(
                f"{self.n_threads} threads cannot occupy {self.n_active} cores "
                "under the paper's one-thread-per-core-minimum policy")

    @classmethod
    def paper_policy(cls, machine: Machine, n_active: int) -> "CoreAllocation":
        """The paper's setup: threads fixed at max cores, fill-first pinning."""
        return cls(machine=machine, n_active=n_active,
                   n_threads=machine.n_cores)

    @property
    def active_core_ids(self) -> list[int]:
        return fill_processor_first(self.machine, self.n_active)

    @property
    def oversubscription(self) -> float:
        """Threads per active core (>= 1); drives measurement variability."""
        return self.n_threads / self.n_active

    def cores_per_processor(self) -> list[int]:
        """Active core count on each processor, in processor order.

        The placement is a pure function of the frozen allocation, and
        the flow solver reads it several times per solve, so the counts
        are computed once per instance (against the machine's memoized
        core enumeration, not a per-call rebuild) and copied out — the
        returned list stays safely mutable for callers.
        """
        cached = self.__dict__.get("_cores_per_processor")
        if cached is None:
            counts = [0] * self.machine.n_processors
            cores = self.machine.cores()
            for cid in self.active_core_ids:
                counts[cores[cid].processor_index] += 1
            cached = tuple(counts)
            object.__setattr__(self, "_cores_per_processor", cached)
        return list(cached)

    def active_processors(self) -> list[int]:
        """Indices of processors with at least one active core."""
        cached = self.__dict__.get("_active_processors")
        if cached is None:
            cached = tuple(i for i, c in enumerate(self.cores_per_processor())
                           if c > 0)
            object.__setattr__(self, "_active_processors", cached)
        return list(cached)

    def active_controllers(self) -> list[int]:
        """Controller ids in service under this allocation.

        UMA: always the single shared controller.  NUMA: every controller
        of every processor with active cores — on AMD both controllers of a
        package activate together, matching the paper's "0 and 1, then also
        2 and 3, ..." ordering.
        """
        m = self.machine
        if m.architecture is MemoryArchitecture.UMA:
            assert m.shared_controller is not None
            return [m.shared_controller.controller_id]
        out: list[int] = []
        for p in self.active_processors():
            out.extend(c.controller_id for c in m.processors[p].controllers)
        return sorted(out)

    def local_fraction(self) -> float:
        """Fraction of memory accesses served by the *local* controller(s).

        The paper assumes homogeneous memory affinity among threads: with
        ``c`` of ``n`` cores on the first processor, a fraction ``c/n`` of
        accesses is local to it (paper eq. 10 generalised to any split).
        Under fill-first the first processor is the reference: this returns
        the fraction of accesses that stay on the requesting core's own
        processor, given data spread uniformly over active processors.
        """
        n = self.n_active
        # Each processor holds a share of data proportional to its active
        # cores; a core's request is local with the probability that the
        # target page lives on its own processor.  Summed left to right,
        # not with ``sum()``: Python 3.12 made it compensated, which would
        # tie the flow solver's bits to the interpreter.
        local = 0.0
        for c in self.cores_per_processor():
            if c > 0:
                local += (c / n) ** 2
        return local

    def mean_remote_hops(self) -> float:
        """Mean interconnect hops per request under uniform affinity.

        Weighted over (requesting processor, owning processor) pairs by
        their active-core shares; UMA machines return 0 (no interconnect).
        """
        m = self.machine
        if m.architecture is MemoryArchitecture.UMA or m.interconnect is None:
            return 0.0
        counts = self.cores_per_processor()
        n = self.n_active
        total = 0.0
        for src_p, c_src in enumerate(counts):
            if c_src == 0:
                continue
            src_ctls = [c.controller_id for c in m.processors[src_p].controllers]
            for dst_p, c_dst in enumerate(counts):
                if c_dst == 0:
                    continue
                if dst_p == src_p:
                    # A processor's own controllers are local: requests do
                    # not enter the inter-processor network.
                    continue
                dst_ctls = [c.controller_id
                            for c in m.processors[dst_p].controllers]
                # Average hops between the processors' controller sets.
                hops = sum(m.interconnect.hops(a, b)
                           for a in src_ctls for b in dst_ctls) \
                    / (len(src_ctls) * len(dst_ctls))
                total += (c_src / n) * (c_dst / n) * hops
        return total
