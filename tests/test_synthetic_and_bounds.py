"""Tests for synthetic streams and operational bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.caches import CacheConfig, SetAssociativeCache
from repro.qnet.mva import (
    bound_throughputs,
    exact_throughputs_cells,
    schweitzer_throughputs,
)
from repro.util.validation import ValidationError
from repro.workloads.synthetic import (
    interleave,
    pointer_chase,
    random_stream,
    sequential_stream,
    strided_stream,
    tiled_2d,
    zipf_stream,
)
from test_qnet_mva import _row


class TestSyntheticStreams:
    def test_sequential_within_bounds(self):
        s = sequential_stream(1000, working_set_bytes=4096)
        assert s.min() >= 0 and s.max() < 4096

    def test_sequential_miss_rate_one_per_line(self):
        cache = SetAssociativeCache(CacheConfig("L", 1, 2).to_level())
        # Working set 8 KiB streams through a 1 KiB cache: one miss per
        # 64 B line, i.e. one per 8 references at stride 8.
        s = sequential_stream(1024, working_set_bytes=8192, stride=8)
        cache.access(s)
        assert cache.misses == pytest.approx(1024 / 8, abs=2)

    def test_strided_defeats_spatial_locality(self):
        cache = SetAssociativeCache(CacheConfig("L", 1, 2).to_level())
        s = strided_stream(512, working_set_bytes=1 << 20, stride=256)
        cache.access(s)
        assert cache.misses == 512  # every reference a new line

    def test_pointer_chase_is_permutation_cycle(self, rng):
        s = pointer_chase(64, working_set_bytes=64 * 64, rng=rng)
        # 64 granules: first 64 refs visit each line exactly once.
        assert len(set(s.tolist())) == 64

    def test_pointer_chase_no_adjacent_repeat(self, rng):
        s = pointer_chase(500, working_set_bytes=64 * 128, rng=rng)
        assert np.all(np.diff(s) != 0)

    def test_zipf_concentrates(self, rng):
        s = zipf_stream(20_000, working_set_bytes=64 * 4096, skew=2.0,
                        rng=rng)
        values, counts = np.unique(s, return_counts=True)
        top = np.sort(counts)[-10:].sum()
        assert top / 20_000 > 0.5  # ten hottest lines take most traffic

    def test_random_uniformish(self, rng):
        s = random_stream(50_000, working_set_bytes=64 * 64, rng=rng)
        _, counts = np.unique(s, return_counts=True)
        assert counts.max() / counts.min() < 2.0

    def test_tiled_2d_reuse(self):
        s = tiled_2d(16 * 16 * 4, width=64, height=64, tile=16)
        # Each tile's addresses stay within a 16-row band.
        first_tile = s[: 16 * 16]
        rows = first_tile // 64
        assert rows.max() - rows.min() == 15

    def test_interleave_round_robin(self):
        a = np.array([0, 2, 4])
        b = np.array([1, 3, 5])
        assert list(interleave(a, b)) == [0, 1, 2, 3, 4, 5]

    def test_interleave_length_mismatch(self):
        with pytest.raises(ValidationError):
            interleave(np.zeros(3), np.zeros(4))

    def test_zipf_skew_validated(self, rng):
        with pytest.raises(ValidationError):
            zipf_stream(10, 4096, skew=1.0, rng=rng)


def _bounds(n, think, queues):
    """``(X lower, X upper, R lower)``, computed here from D, D_max, Z.

    Denning and Buzen's operational laws for a closed interactive system
    with total queueing demand D, bottleneck demand D_max and think time
    Z: ``N/(N D + Z) <= X(N) <= min(N/(D + Z), 1/D_max)`` and
    ``R(N) >= max(D, N D_max - Z)``.  D is summed left to right, as
    numpy sums a row this short, so ``bound_throughputs`` can be held to
    the upper bound exactly.
    """
    total = 0.0
    for d in queues:
        total += d
    d_max = max(queues)
    return (n / (n * total + think),
            min(n / (total + think), 1.0 / d_max),
            max(total, n * d_max - think))


#: Population, think time and 1-5 queue demands of one row.
_ROWS = (st.integers(1, 60), st.floats(0.5, 30.0),
         st.lists(st.floats(0.1, 3.0), min_size=1, max_size=5))


class TestOperationalBounds:
    @given(*_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_mva_within_bounds(self, n, think, queues):
        row = (*_row(think, *queues), np.array([n]))
        lower, upper, _ = _bounds(n, think, queues)
        (exact,) = exact_throughputs_cells([row])
        for x in (exact[0], schweitzer_throughputs(*row)[0]):
            assert x <= upper * (1 + 1e-9)
            assert x >= lower * (1 - 1e-9)

    @given(*_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_response_bound(self, n, think, queues):
        _, _, response_lower = _bounds(n, think, queues)
        (x,) = exact_throughputs_cells(
            [(*_row(think, *queues), np.array([n]))])
        assert n / x[0] - think >= response_lower * (1 - 1e-9)

    @given(*_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_bound_rung_is_the_upper_bound(self, n, think, queues):
        _, upper, _ = _bounds(n, think, queues)
        assert bound_throughputs(*_row(think, *queues),
                                 np.array([n]))[0] == upper

    def test_flow_solver_respects_bottleneck_bound(self, inuma):
        # End-to-end: the substrate's throughput-derived omega cannot
        # beat the bottleneck law (total cycles must be at least the
        # serialised controller occupancy).
        from repro.machine import CoreAllocation
        from repro.runtime.calibration import calibrate_profile
        from repro.runtime.flow import solve_flow

        profile = calibrate_profile("CG", "C", inuma)
        res = solve_flow(profile, inuma,
                         CoreAllocation.paper_policy(inuma, 12))
        # One package serves all traffic at n=12: occupancy of the pooled
        # controller alone lower-bounds the makespan.
        proc = inuma.processors[0]
        per_req = proc.controllers[0].dram.mean_service_cycles(
            inuma.frequency) / proc.controllers[0].dram.channels
        occupancy = profile.llc_misses * per_req
        assert res.makespan_cycles > occupancy * 0.9
