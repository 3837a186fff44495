"""Kernel correctness tests: the real algorithms behind each workload."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.util.validation import ValidationError
from repro.workloads.cg import (
    CG,
    CSRMatrix,
    conjugate_gradient,
    csr_matvec,
    make_sparse_spd,
    power_iteration_zeta,
)
from repro.workloads.ep import lcg_stream, marsaglia_annuli
from repro.workloads.ft import evolve_checksum, fft1d, fft3d, ifft1d, ifft3d
from repro.workloads.isort import bucket_sort_ranks
from repro.workloads.sp import model_bands, penta_solve, sweep_xyz
from repro.workloads.x264 import (
    encode_frames,
    motion_search,
    sad,
    synthetic_video,
)


class TestEPKernel:
    def test_lcg_in_unit_interval(self):
        u = lcg_stream(seed=271828183, n=10_000)
        assert float(u.min()) > 0.0
        assert float(u.max()) < 1.0

    def test_lcg_deterministic(self):
        a = lcg_stream(seed=99, n=100)
        b = lcg_stream(seed=99, n=100)
        assert np.array_equal(a, b)

    def test_lcg_uniform_mean(self):
        u = lcg_stream(seed=271828183, n=100_000)
        assert float(u.mean()) == pytest.approx(0.5, abs=0.01)

    def test_lcg_seed_validated(self):
        with pytest.raises(ValueError):
            lcg_stream(seed=0, n=10)

    def test_marsaglia_acceptance_rate(self):
        # P(x^2 + y^2 <= 1) = pi/4 for uniform pairs in the square.
        u = lcg_stream(seed=271828183, n=200_000)
        counts, _, _ = marsaglia_annuli(u)
        assert counts.sum() / 100_000 == pytest.approx(np.pi / 4, abs=0.01)

    def test_marsaglia_gaussian_sums_near_zero(self):
        u = lcg_stream(seed=271828183, n=200_000)
        counts, sx, sy = marsaglia_annuli(u)
        n = counts.sum()
        # Sums of ~n standard normals: |S| <~ 4 sqrt(n).
        assert abs(sx) < 4 * np.sqrt(n)
        assert abs(sy) < 4 * np.sqrt(n)

    def test_annuli_decay(self):
        # Standard normals concentrate in the first annuli:
        # P(max(|X|,|Y|) < 1) = (2 Phi(1) - 1)^2 ~ 0.466.
        u = lcg_stream(seed=271828183, n=200_000)
        counts, _, _ = marsaglia_annuli(u)
        assert counts[0] > counts[1] > counts[2] > counts[3]
        assert counts[0] / counts.sum() == pytest.approx(0.4661, abs=0.01)


class TestISKernel:
    def test_ranks_sort_correctly(self, rng):
        keys = rng.integers(0, 64, size=500).astype(np.int64)
        ranks = bucket_sort_ranks(keys, 64)
        out = np.empty_like(keys)
        out[ranks] = keys
        assert np.all(np.diff(out) >= 0)

    def test_ranks_are_permutation(self, rng):
        keys = rng.integers(0, 16, size=200).astype(np.int64)
        ranks = bucket_sort_ranks(keys, 16)
        assert sorted(ranks.tolist()) == list(range(200))

    def test_stability(self):
        keys = np.array([3, 1, 3, 1], dtype=np.int64)
        ranks = bucket_sort_ranks(keys, 4)
        # Equal keys keep input order: first 1 before second 1, etc.
        assert ranks[1] < ranks[3]
        assert ranks[0] < ranks[2]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bucket_sort_ranks(np.array([5], dtype=np.int64), 4)

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_sorted_output_property(self, keys):
        arr = np.array(keys, dtype=np.int64)
        ranks = bucket_sort_ranks(arr, 32)
        out = np.empty_like(arr)
        out[ranks] = arr
        assert np.all(np.diff(out) >= 0)


class TestFTKernel:
    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_fft_matches_numpy(self, n, rng):
        x = rng.random(n) + 1j * rng.random(n)
        assert np.allclose(fft1d(x), np.fft.fft(x))

    def test_fft_batched(self, rng):
        x = rng.random((5, 16)) + 1j * rng.random((5, 16))
        assert np.allclose(fft1d(x), np.fft.fft(x, axis=-1))

    def test_ifft_roundtrip(self, rng):
        x = rng.random(128) + 1j * rng.random(128)
        assert np.allclose(ifft1d(fft1d(x)), x)

    def test_fft3d_matches_numpy(self, rng):
        g = rng.random((8, 16, 8)) + 1j * rng.random((8, 16, 8))
        assert np.allclose(fft3d(g), np.fft.fftn(g))

    def test_ifft3d_roundtrip(self, rng):
        g = rng.random((8, 8, 8)) + 1j * rng.random((8, 8, 8))
        assert np.allclose(ifft3d(fft3d(g)), g)

    def test_parseval(self, rng):
        x = rng.random(64) + 1j * rng.random(64)
        f = fft1d(x)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(
            np.sum(np.abs(f) ** 2) / 64)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValidationError):
            fft1d(np.zeros(12))

    def test_evolve_damps_high_frequencies(self, rng):
        g = rng.random((8, 8, 8)) + 0j
        total = evolve_checksum(g, iterations=2, tau=1e-3)
        assert np.isfinite(total.real) and np.isfinite(total.imag)


def _dense(a):
    """Dense copy of a CSR matrix."""
    n = a.indptr.size - 1
    out = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    out[rows, a.indices] = a.data
    return out


def _scipy_spd(n, nonzer, rng):
    """The scipy.sparse construction make_sparse_spd replaces (the oracle)."""
    from scipy import sparse

    nnz = n * nonzer
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.random(nnz) - 0.5
    s = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    m = s + s.T
    row_abs = np.asarray(abs(m).sum(axis=1)).ravel()
    m = m + sparse.diags(row_abs + 0.1)
    return m.tocsr()


def _sum_order_unspecified(n, nonzer, seed):
    """True when scipy's duplicate-summing order is implementation-defined.

    scipy sorts each CSR row with ``std::sort``, which is not stable;
    libstdc++'s (the Linux wheels') is an insertion sort, hence stable,
    up to 16 elements.  In a longer row that holds three or more entries
    of one cell, the order in which they are summed, hence the rounding,
    is the sort's choice.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=n * nonzer)
    cols = rng.integers(0, n, size=n * nonzer)
    cells, counts = np.unique(rows * n + cols, return_counts=True)
    per_row = np.bincount(rows, minlength=n)
    return bool(np.any(per_row[cells[counts >= 3] // n] > 16))


class TestCGKernel:
    def test_spd_matrix_is_symmetric(self, rng):
        a = _dense(make_sparse_spd(100, 5, rng))
        assert abs(a - a.T).max() < 1e-12

    def test_spd_matrix_positive_definite(self, rng):
        a = make_sparse_spd(60, 4, rng)
        eigvals = np.linalg.eigvalsh(_dense(a))
        assert eigvals.min() > 0

    def test_csr_matvec_matches_scipy(self, rng):
        from scipy import sparse

        a = make_sparse_spd(80, 5, rng)
        x = rng.random(80)
        ours = csr_matvec(a.indptr, a.indices, a.data, x)
        ref = sparse.csr_matrix((a.data, a.indices, a.indptr), shape=(80, 80))
        assert np.allclose(ours, ref @ x)

    def test_csr_matvec_empty_rows(self):
        a = CSRMatrix(indptr=np.array([0, 1, 1]), indices=np.array([0]),
                      data=np.array([1.0]))
        out = csr_matvec(a.indptr, a.indices, a.data, np.array([2.0, 3.0]))
        assert np.allclose(out, [2.0, 0.0])

    def test_cg_converges(self, rng):
        a = make_sparse_spd(120, 5, rng)
        b = rng.random(120)
        z, resid = conjugate_gradient(a, b, iterations=60)
        assert resid < 1e-6 * np.linalg.norm(b)
        assert np.allclose(_dense(a) @ z, b, atol=1e-5)

    def test_power_iteration_bounds(self, rng):
        a = make_sparse_spd(80, 4, rng)
        zeta = power_iteration_zeta(a, shift=10.0, outer=4, inner=40)
        # zeta = shift + 1/(x.z) approximates an eigenvalue-related
        # quantity; with our SPD construction it must exceed the shift.
        assert zeta > 10.0

    def test_not_spd_detected(self, rng):
        bad = CSRMatrix(indptr=np.arange(11), indices=np.arange(10),
                        data=-np.ones(10))
        with pytest.raises(ValidationError):
            conjugate_gradient(bad, np.ones(10), iterations=5)

    @given(st.integers(2, 400), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_construction(self, n, nonzer, seed):
        # Bit-identical to scipy wherever scipy's own summing order is
        # defined (see _sum_order_unspecified).
        assume(not _sum_order_unspecified(n, nonzer, seed))
        ours = make_sparse_spd(n, nonzer, np.random.default_rng(seed))
        ref = _scipy_spd(n, nonzer, np.random.default_rng(seed))
        assert np.array_equal(ours.indptr, ref.indptr)
        assert np.array_equal(ours.indices, ref.indices)
        assert ours.data.tobytes() == ref.data.tobytes()

    def test_run_kernel_pinned(self):
        # Frozen values at the default rng: the matrix build and the
        # solver must not move by one bit.
        out = CG().run_kernel(scale=1)
        assert out["zeta"].hex() == "0x1.72160e028ef5ap+3"
        assert out["residual"].hex() == "0x1.fd37b30ec4520p-20"


class TestSPKernel:
    def _dense_from_bands(self, bands):
        m, n, _ = bands.shape
        out = np.zeros((m, n, n))
        for i in range(n):
            if i >= 2:
                out[:, i, i - 2] = bands[:, i, 0]
            if i >= 1:
                out[:, i, i - 1] = bands[:, i, 1]
            out[:, i, i] = bands[:, i, 2]
            if i + 1 < n:
                out[:, i, i + 1] = bands[:, i, 3]
            if i + 2 < n:
                out[:, i, i + 2] = bands[:, i, 4]
        return out

    def test_matches_dense_solver(self, rng):
        bands = model_bands(6, 12, rng)
        rhs = rng.random((6, 12))
        x = penta_solve(bands, rhs)
        dense = self._dense_from_bands(bands)
        for k in range(6):
            ref = np.linalg.solve(dense[k], rhs[k])
            assert np.allclose(x[k], ref, atol=1e-9)

    def test_identity_system(self):
        bands = np.zeros((2, 5, 5))
        bands[:, :, 2] = 1.0
        rhs = np.arange(10.0).reshape(2, 5)
        assert np.allclose(penta_solve(bands, rhs), rhs)

    def test_rejects_tiny_systems(self, rng):
        with pytest.raises(ValidationError):
            penta_solve(np.zeros((1, 2, 5)), np.zeros((1, 2)))

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValidationError):
            penta_solve(model_bands(2, 8, rng), np.zeros((3, 8)))

    def test_sweep_preserves_shape_and_finiteness(self, rng):
        grid = rng.random((6, 7, 8))
        out = sweep_xyz(grid, rng)
        assert out.shape == grid.shape
        assert np.all(np.isfinite(out))

    def test_sweep_bounded_amplification(self, rng):
        # The implicit solves amplify by at most ~(1/(1 - sum of
        # off-diagonals))^3; far below blow-up.
        grid = rng.random((8, 8, 8))
        out = sweep_xyz(grid, rng)
        assert np.abs(out).max() < np.abs(grid).max() * 30

    def test_sweep_linear_in_rhs(self, rng):
        # With fixed bands (same rng), doubling the field doubles the
        # solution: the sweep is a linear solve.
        import numpy as _np

        grid = rng.random((6, 6, 6))
        out1 = sweep_xyz(grid, rng=_np.random.default_rng(7))
        out2 = sweep_xyz(2.0 * grid, rng=_np.random.default_rng(7))
        assert _np.allclose(out2, 2.0 * out1)


class TestX264Kernel:
    def test_sad_zero_for_identical(self, rng):
        b = (rng.random((16, 16)) * 255).astype(np.uint8)
        assert sad(b, b) == 0.0

    def test_sad_shape_mismatch(self):
        with pytest.raises(ValidationError):
            sad(np.zeros((16, 16)), np.zeros((8, 8)))

    def test_motion_search_finds_planted_shift(self, rng):
        frames = synthetic_video(2, 64, 64, shift=(2, 3), rng=rng)
        dy, dx, cost = motion_search(frames[0], frames[1], 16, 16, radius=5)
        # frame1 = roll(frame0, +2, +3): block at (16,16) in frame 1 came
        # from (14, 13) in frame 0.
        assert (dy, dx) == (-2, -3)
        assert cost == 0.0

    def test_interior_blocks_match_exactly(self, rng):
        # np.roll wraps at the frame edges, so only interior blocks have
        # an exact (zero-SAD) match; all of them must find the planted
        # displacement.
        frames = synthetic_video(2, 128, 128, shift=(1, 2), rng=rng)
        for by in range(16, 97, 16):
            for bx in range(16, 97, 16):
                dy, dx, cost = motion_search(frames[0], frames[1],
                                             by, bx, radius=4)
                assert (dy, dx) == (-1, -2)
                assert cost == 0.0

    def test_encode_statistics(self, rng):
        frames = synthetic_video(3, 64, 64, shift=(1, 2), rng=rng)
        stats = encode_frames(frames, radius=4)
        assert stats["blocks"] == 2 * 4 * 4
        # Motion magnitude bounded by the search radius.
        assert stats["mean_motion"] <= 4 * np.sqrt(2.0)
        assert stats["mean_sad"] >= 0.0

    def test_out_of_bounds_block_rejected(self, rng):
        frames = synthetic_video(2, 32, 32, shift=(1, 1), rng=rng)
        with pytest.raises(ValidationError):
            motion_search(frames[0], frames[1], 30, 0)

    def test_needs_two_frames(self):
        with pytest.raises(ValidationError):
            encode_frames(np.zeros((1, 32, 32), dtype=np.uint8))


class TestRunKernelContracts:
    def test_every_kernel_returns_checksum(self):
        from repro.workloads import all_workloads

        for w in all_workloads():
            out = w.run_kernel(scale=1)
            assert "checksum" in out
            assert np.isfinite(out["checksum"])

    def test_kernels_deterministic(self):
        from repro.workloads import all_workloads

        for w in all_workloads():
            a = w.run_kernel(scale=1)["checksum"]
            b = w.run_kernel(scale=1)["checksum"]
            assert a == b, w.name

    def test_scale_bounds_enforced(self):
        from repro.workloads import get_workload

        with pytest.raises(ValidationError):
            get_workload("EP").run_kernel(scale=0)
