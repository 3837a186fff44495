"""CG — NPB "Conjugate Gradient" (Table I: sparse linear algebra).

NPB CG estimates the largest eigenvalue of a sparse symmetric matrix with
inverse power iteration, solving ``(A - shift I) z = x`` by conjugate
gradient in the inner loop.  We implement that structure on a randomly
generated sparse SPD matrix in CSR form, with our own CG and CSR
matrix-vector product.  The memory pattern is the paper's "sparse matrix
with many 0 values": sequential streaming of the CSR arrays plus an
irregular gather of ``x[col[j]]`` — moderate-to-high contention, the
paper's representative program.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.util.rng import resolve_rng
from repro.util.validation import ValidationError, check_integer
from repro.workloads.base import BurstProfile, SizeSpec, Workload

#: NPB CG matrix orders per class (Table III: "matrix of size 1400^2" etc.
#: describes the full na x na matrix).
_CLASS_NA = {"S": 1400, "W": 7000, "A": 14000, "B": 75000, "C": 150000}
#: Nonzeros per row and outer iterations per class (NPB specification).
_CLASS_NONZER = {"S": 7, "W": 8, "A": 11, "B": 13, "C": 15}
_CLASS_NITER = {"S": 15, "W": 15, "A": 15, "B": 75, "C": 75}

_BURST = {
    # Fig. 4(a): S and W show the straight heavy tail; B and C do not.
    "S": BurstProfile(True, 1.25, 0.015, 35.0),
    "W": BurstProfile(True, 1.40, 0.04, 22.0),
    "A": BurstProfile(True, 1.70, 0.18, 9.0),
    "B": BurstProfile(False, 2.0, 0.60, 2.2),
    "C": BurstProfile(False, 2.0, 0.90, 1.15),
}


class CSRMatrix(NamedTuple):
    """A square sparse matrix in compressed-sparse-row form."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _sum_duplicates(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                    drop_zeros: bool
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets sorted by (row, col), duplicates summed.

    Duplicates are added left to right in input order, as scipy's
    ``csr_sum_duplicates`` adds them; ``np.add.reduceat`` would group a
    run of three or more as ``a0 + (a1 + a2)``, which can round
    differently.  ``drop_zeros`` removes entries that sum to exactly
    zero, as a sparse add does.
    """
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    runs = np.diff(np.append(starts, rows.size))
    sums = vals[starts]
    for k in range(1, int(runs.max(initial=1))):
        more = runs > k
        sums[more] += vals[starts[more] + k]
    rows, cols = rows[starts], cols[starts]
    if drop_zeros:
        keep = sums != 0
        rows, cols, sums = rows[keep], cols[keep], sums[keep]
    return rows, cols, sums


def _indptr(n: int, rows: np.ndarray) -> np.ndarray:
    """CSR row pointer of sorted row indices."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def make_sparse_spd(n: int, nonzer: int, rng=None) -> CSRMatrix:
    """Random sparse symmetric positive-definite matrix, ~``nonzer``/row.

    Built as ``M = S + S^T + d I`` with ``S`` random sparse and ``d`` large
    enough to dominate (diagonally dominant => SPD), echoing NPB CG's
    ``makea`` construction of a matrix with known spectrum.  Each step
    rounds as scipy.sparse's ``coo -> csr``, ``+`` and ``sum(axis=1)``
    do, so the matrix is bit-identical to that construction.
    """
    check_integer("n", n, minimum=2)
    check_integer("nonzer", nonzer, minimum=1)
    rng = resolve_rng(rng)
    nnz = n * nonzer
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.random(nnz) - 0.5
    rows, cols, vals = _sum_duplicates(rows, cols, vals, drop_zeros=False)
    rows, cols, vals = _sum_duplicates(
        np.concatenate([rows, cols]), np.concatenate([cols, rows]),
        np.concatenate([vals, vals]), drop_zeros=True)
    # Diagonal dominance: row sums of absolute values plus margin.
    indptr = _indptr(n, rows)
    row_abs = np.zeros(n)
    nonempty = np.flatnonzero(np.diff(indptr))
    row_abs[nonempty] = np.add.reduceat(np.abs(vals), indptr[nonempty])
    diag = np.arange(n)
    rows, cols, vals = _sum_duplicates(
        np.concatenate([rows, diag]), np.concatenate([cols, diag]),
        np.concatenate([vals, row_abs + 0.1]), drop_zeros=True)
    return CSRMatrix(_indptr(n, rows), cols, vals)


def csr_matvec(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """CSR sparse matrix-vector product, written out explicitly.

    Row-segmented reduction via ``np.add.reduceat`` — no scipy in the hot
    path, since this *is* the kernel being modelled.
    """
    if indptr.ndim != 1 or indptr[0] != 0:
        raise ValidationError("malformed CSR indptr")
    products = data * x[indices]
    # reduceat needs non-empty segments; map empty rows to zero after.
    starts = indptr[:-1]
    out = np.zeros(indptr.size - 1, dtype=np.float64)
    nonempty = np.diff(indptr) > 0
    if products.size:
        sums = np.add.reduceat(products, starts[nonempty])
        out[nonempty] = sums
    return out


def conjugate_gradient(a: CSRMatrix, b: np.ndarray,
                       iterations: int = 25) -> tuple[np.ndarray, float]:
    """Fixed-iteration CG solve (NPB CG's inner loop shape).

    Returns ``(z, residual_norm)`` after exactly ``iterations`` steps.
    """
    check_integer("iterations", iterations, minimum=1)
    indptr, indices, data = a.indptr, a.indices, a.data
    z = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(iterations):
        q = csr_matvec(indptr, indices, data, p)
        denom = float(p @ q)
        if denom <= 0:
            raise ValidationError("matrix is not positive definite")
        alpha = rho / denom
        z = z + alpha * p
        r = r - alpha * q
        rho_new = float(r @ r)
        beta = rho_new / rho
        rho = rho_new
        p = r + beta * p
    resid = csr_matvec(indptr, indices, data, z) - b
    return z, float(np.linalg.norm(resid))


def power_iteration_zeta(a: CSRMatrix, shift: float,
                         outer: int = 5, inner: int = 25) -> float:
    """NPB CG's eigenvalue estimate ``zeta = shift + 1/(x . z)``.

    Runs ``outer`` inverse-power steps, each solving ``A z = x`` with
    ``inner`` CG iterations (the NPB formulation with the shift folded
    into the final estimate).
    """
    x = np.ones(a.indptr.size - 1)
    zeta = 0.0
    for _ in range(outer):
        z, _ = conjugate_gradient(a, x, iterations=inner)
        denom = float(x @ z)
        if denom == 0:
            raise ValidationError("degenerate power iteration")
        zeta = shift + 1.0 / denom
        x = z / np.linalg.norm(z)
    return zeta


class CG(Workload):
    """Sparse linear algebra: conjugate-gradient eigenvalue estimation."""

    name = "CG"
    description = "Sparse linear algebra: data with many 0 values"

    work_ipc = 1.2
    base_stall_per_instr = 0.40
    calibration_mode = "miss_volume"
    smt_work_inflation = 0.12
    llc_sensitivity = 0.5
    mlp = 4.0          # gathers expose some, not all, overlap
    write_amplification = 1.5
    shared_data_fraction = 0.90  # shared x vector dominates traffic

    def sizes(self):
        specs = {}
        for cls, na in _CLASS_NA.items():
            nonzer = _CLASS_NONZER[cls]
            niter = _CLASS_NITER[cls]
            # NPB's makea produces ~na (nonzer+1)^2 nonzeros after the
            # outer-product fill (CG.C: ~3.8e7 nonzeros, ~0.5 GB in CSR).
            nnz = float(na) * (nonzer + 1) ** 2
            flops_per_iter = 2.0 * nnz + 10.0 * na
            specs[cls] = SizeSpec(
                name=cls,
                description=f"matrix of size {na:,}^2".replace(",", ", "),
                working_set_bytes=nnz * 12 + 5.0 * na * 8,
                instructions=max(2.2 * flops_per_iter * niter * 25, 4e9),
                ref_misses=0.9 * nnz * niter * 25 / 15.0 *
                (1.0 if na >= 75000 else 0.25),
                burst=_BURST[cls],
            )
        return specs

    def run_kernel(self, scale: int = 1, rng=None) -> dict:
        """Estimate the dominant-shift eigenvalue on a small matrix."""
        check_integer("scale", scale, minimum=1, maximum=6)
        rng = resolve_rng(rng)
        n = 350 * scale
        a = make_sparse_spd(n, nonzer=7, rng=rng)
        zeta = power_iteration_zeta(a, shift=10.0, outer=3, inner=20)
        _, resid = conjugate_gradient(a, np.ones(n), iterations=20)
        return {
            "n": n,
            "zeta": zeta,
            "residual": resid,
            "checksum": float(zeta),
        }

    def address_trace(self, n_refs: int, rng=None, scale: int = 1) -> np.ndarray:
        """CSR streaming plus irregular vector gather (1:1 mix)."""
        check_integer("n_refs", n_refs, minimum=1)
        rng = resolve_rng(rng)
        na = 4096 * scale
        vec_bytes = na * 8
        csr_bytes = na * 8 * 8          # data + indices of ~8 nnz/row
        idx = np.arange(n_refs, dtype=np.int64)
        stream = (idx * 8) % csr_bytes
        gather = csr_bytes + rng.integers(0, na, size=n_refs) * 8
        gather = np.minimum(gather, csr_bytes + vec_bytes - 8)
        addr = np.where(idx % 2 == 0, stream, gather)
        return addr
