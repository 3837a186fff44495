"""Machine object-model tests: presets, cores, controllers, interconnects."""

import pytest

from repro.machine.bus import FrontSideBus
from repro.machine.dram import DramTiming, two_point_service_moments
from repro.machine.interconnect import (
    Interconnect,
    amd_numa_interconnect,
    intel_numa_interconnect,
)
from repro.machine.topology import (
    CacheLevel,
    Machine,
    MemoryArchitecture,
    MemoryController,
    Processor,
)
from repro.util.units import Frequency
from repro.util.validation import ValidationError


class TestPresets:
    def test_core_counts(self, uma, inuma, anuma):
        assert uma.n_cores == 8
        assert inuma.n_cores == 24
        assert anuma.n_cores == 48

    def test_controller_counts(self, uma, inuma, anuma):
        assert uma.n_controllers == 1
        assert inuma.n_controllers == 2
        assert anuma.n_controllers == 8

    def test_architectures(self, uma, inuma, anuma):
        assert uma.architecture is MemoryArchitecture.UMA
        assert inuma.architecture is MemoryArchitecture.NUMA
        assert anuma.architecture is MemoryArchitecture.NUMA

    def test_llc_sizes_match_paper(self, uma, inuma, anuma):
        mib = 1024 * 1024
        assert uma.last_level_cache_bytes == 8 * mib      # 2 x 4 MB L2
        assert inuma.last_level_cache_bytes == 24 * mib   # 2 x 12 MB L3
        assert anuma.last_level_cache_bytes == 40 * mib   # 4 x 10 MB L3

    def test_smt_only_on_intel_numa(self, uma, inuma, anuma):
        assert all(p.smt == 1 for p in uma.processors)
        assert all(p.smt == 2 for p in inuma.processors)
        assert all(p.smt == 1 for p in anuma.processors)

    def test_distance_classes(self, inuma, anuma):
        # Paper Fig. 2: direct + 1 hop (Intel); direct + 1 + 2 hops (AMD).
        assert inuma.interconnect.distance_classes() == [0, 1]
        assert anuma.interconnect.distance_classes() == [0, 1, 2]

    def test_describe_mentions_cores(self, any_machine):
        assert str(any_machine.n_cores) in any_machine.describe()


class TestCoreEnumeration:
    def test_logical_ids_fill_packages(self, inuma):
        cores = inuma.cores()
        assert [c.logical_id for c in cores] == list(range(24))
        assert all(c.processor_index == 0 for c in cores[:12])
        assert all(c.processor_index == 1 for c in cores[12:])

    def test_smt_siblings_pair_up(self, inuma):
        cores = inuma.cores()
        assert cores[0].smt_sibling == 1
        assert cores[1].smt_sibling == 0
        assert cores[23].smt_sibling == 22

    def test_no_siblings_without_smt(self, anuma):
        assert all(c.smt_sibling is None for c in anuma.cores())

    def test_core_lookup_bounds(self, uma):
        with pytest.raises(ValidationError):
            uma.core(8)
        assert uma.core(7).processor_index == 1

    def test_controllers_of_processor(self, anuma):
        ids = [c.controller_id for c in anuma.controllers_of_processor(2)]
        assert ids == [4, 5]


class TestMachineValidation:
    def _caches(self):
        return (CacheLevel("L1", 32 * 1024, 8, 64, 3.0, 1),)

    def _dram(self):
        return DramTiming(10.0, 30.0, 0.2, 2)

    def test_uma_needs_shared_controller(self):
        proc = Processor(0, 2, 1, self._caches(), (),
                         bus=FrontSideBus(1066, 8))
        with pytest.raises(ValidationError):
            Machine("m", MemoryArchitecture.UMA, Frequency.ghz(2.0), (proc,))

    def test_numa_needs_interconnect(self):
        ctl = MemoryController(0, 0, self._dram())
        proc = Processor(0, 2, 1, self._caches(), (ctl,))
        with pytest.raises(ValidationError):
            Machine("m", MemoryArchitecture.NUMA, Frequency.ghz(2.0), (proc,))

    def test_interconnect_nodes_must_match_controllers(self):
        ctl = MemoryController(0, 0, self._dram())
        proc = Processor(0, 2, 1, self._caches(), (ctl,))
        wrong = Interconnect(nodes=[0, 1], edges=[(0, 1)], hop_latency_ns=10)
        with pytest.raises(ValidationError):
            Machine("m", MemoryArchitecture.NUMA, Frequency.ghz(2.0),
                    (proc,), interconnect=wrong)

    def test_processor_needs_memory_path(self):
        with pytest.raises(ValidationError):
            Processor(0, 2, 1, self._caches(), ())


class TestInterconnect:
    def test_hops_symmetric(self, anuma):
        ic = anuma.interconnect
        for a in ic.nodes:
            for b in ic.nodes:
                assert ic.hops(a, b) == ic.hops(b, a)

    def test_self_distance_zero(self, anuma):
        assert all(anuma.interconnect.hops(x, x) == 0
                   for x in anuma.interconnect.nodes)

    def test_latency_scales_with_hops(self):
        ic = intel_numa_interconnect(hop_latency_ns=30.0)
        assert ic.latency_ns(0, 1) == 30.0
        assert ic.latency_ns(0, 0) == 0.0

    def test_amd_ring_structure(self):
        ic = amd_numa_interconnect()
        # Package ring: adjacent packages one hop, diagonal two.
        assert ic.hops(0, 1) == 1          # intra-package link
        assert ic.hops(0, 2) == 1          # adjacent package (P0-P1)
        assert ic.hops(0, 3) == 1
        assert ic.hops(0, 4) == 2          # diagonal package (P0-P2)
        assert ic.hops(0, 5) == 2
        assert ic.hops(0, 6) == 1          # adjacent package (P0-P3)

    def test_link_transfer_time(self):
        ic = intel_numa_interconnect(link_bandwidth_gbps=12.8)
        assert ic.link_transfer_ns() == pytest.approx(64 / 12.8, rel=1e-9)

    def test_infinite_links(self):
        ic = Interconnect(nodes=[0, 1], edges=[(0, 1)], hop_latency_ns=10)
        assert ic.link_transfer_ns() == 0.0

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            Interconnect(nodes=[0, 1, 2], edges=[(0, 1)], hop_latency_ns=10)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Interconnect(nodes=[0], edges=[(0, 0)], hop_latency_ns=10)

    def test_unknown_pair_rejected(self, inuma):
        with pytest.raises(ValidationError):
            inuma.interconnect.hops(0, 99)


class TestDramTiming:
    def test_service_rate_pools_channels(self):
        d = DramTiming(10.0, 10.0, 0.0, 2)
        freq = Frequency.ghz(1.0)
        # 10 ns at 1 GHz = 10 cycles per channel; two channels -> 0.2/cyc.
        assert d.aggregate_service_rate(freq) == pytest.approx(0.2)

    def test_conflict_probability_interpolates(self):
        d = DramTiming(10.0, 30.0, 0.2, 1, p_conflict_saturated=0.8)
        assert d.conflict_probability_at(0.0) == pytest.approx(0.2)
        assert d.conflict_probability_at(1.0) == pytest.approx(0.8)
        assert d.conflict_probability_at(0.5) == pytest.approx(0.5)

    def test_loaded_service_slower(self):
        d = DramTiming(10.0, 30.0, 0.2, 1, p_conflict_saturated=0.8)
        freq = Frequency.ghz(1.0)
        assert d.mean_service_cycles_at(freq, 1.0) \
            > d.mean_service_cycles_at(freq, 0.0)

    def test_default_saturated_fraction(self):
        assert DramTiming(10.0, 30.0, 0.2, 1).p_conflict_sat \
            == pytest.approx(0.5)
        assert DramTiming(10.0, 30.0, 0.5, 1).p_conflict_sat \
            == pytest.approx(0.95)

    def test_saturated_below_base_rejected(self):
        with pytest.raises(ValueError):
            DramTiming(10.0, 30.0, 0.5, 1, p_conflict_saturated=0.2)

    def test_conflict_slower_than_hit_enforced(self):
        with pytest.raises(ValueError):
            DramTiming(30.0, 10.0, 0.2, 1)

    def test_sample_service(self, rng):
        d = DramTiming(10.0, 30.0, 0.5, 1)
        s = d.sample_service_ns(rng, 10_000)
        assert set(map(float, set(s.tolist()))) <= {10.0, 30.0}
        assert float(s.mean()) == pytest.approx(20.0, rel=0.05)


class TestTwoPointService:
    def test_two_point_moments(self):
        mean, scv = two_point_service_moments(fast=1.0, slow=1.0, p_slow=0.5)
        assert mean == 1.0
        assert scv == 0.0

    def test_two_point_mixture(self):
        mean, scv = two_point_service_moments(fast=1.0, slow=3.0, p_slow=0.5)
        assert mean == pytest.approx(2.0)
        assert scv == pytest.approx(1.0 / 4.0)

    def test_two_point_ordering_enforced(self):
        with pytest.raises(ValidationError):
            two_point_service_moments(fast=3.0, slow=1.0, p_slow=0.5)


class TestBus:
    def test_bandwidth(self):
        bus = FrontSideBus(clock_mhz=1066.0, bytes_per_transfer=8)
        assert bus.bandwidth_bytes_per_s == pytest.approx(8.528e9)

    def test_transfer_time(self):
        bus = FrontSideBus(clock_mhz=1000.0, bytes_per_transfer=8,
                           line_bytes=64)
        assert bus.transfer_ns() == pytest.approx(8.0)

    def test_transfer_cycles(self):
        bus = FrontSideBus(clock_mhz=1000.0, bytes_per_transfer=8)
        assert bus.transfer_cycles(Frequency.ghz(2.0)) == pytest.approx(16.0)
