"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own code paths: rank by
Gaussian elimination, restricted isometry constants through singular
values, span membership through projections, and intersections through a
stacked nullspace.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: threaded BLAS makes timings swing
# with the load on other cores (CI sets the same)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from itertools import combinations  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from blockdict import (
    BlockDict,
    BlockSparseVec,
    BlockStructure,
    CodingResult,
    RankError,
    gen_block_diagonal,
    gen_block_permutation,
    gen_dictionary,
    gen_rip_dictionary,
    make_equivalent_dict,
)
from blockdict.coding import _check_measurement
from blockdict.rip import _support_columns

RANK_DEFICIENT_SVALS = pytest.mark.parametrize(
    "svals", [(0.0, 0.0), (1.0, 5e-9)], ids=["zero-block", "near-singular-block"]
)


def rank_deficient_dict(svals):
    """P=12, K=4, alpha=2, s=2 dictionary whose block 2 has singular values svals."""
    A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=3)
    return A.with_block(2, A.block(2) @ np.diag(svals))


def ge_rank(M, tol: float = 1e-10) -> int:
    """Rank by Gaussian elimination with partial pivoting."""
    A = np.array(M, dtype=float)
    if A.size == 0:
        return 0
    scale = np.abs(A).max()
    if scale == 0:
        return 0
    rows, cols = A.shape
    rank = 0
    row = 0
    for col in range(cols):
        pivot = row + int(np.argmax(np.abs(A[row:, col]))) if row < rows else row
        if row >= rows or abs(A[pivot, col]) <= tol * scale:
            continue
        A[[row, pivot]] = A[[pivot, row]]
        A[row] = A[row] / A[row, col]
        for r in range(rows):
            if r != row:
                A[r] -= A[r, col] * A[row]
        rank += 1
        row += 1
    return rank


def rip_brute_force(A: BlockDict, t: int) -> tuple[float, tuple[int, ...]]:
    """Independent level-t constant: singular values per enumerated support."""
    K = A.structure.K
    best = -np.inf
    worst = ()
    for sup in combinations(range(1, K + 1), t):
        cols = np.hstack([A.block(i) for i in sup])
        svals = np.linalg.svd(cols, compute_uv=False)
        delta = max(svals[0] ** 2 - 1.0, 1.0 - svals[-1] ** 2)
        if delta > best:
            best = delta
            worst = sup
    return float(best), worst


def in_span(v, M, tol: float = 1e-8) -> bool:
    """Membership of v in the column span of M via a least-squares projection."""
    v = np.asarray(v, dtype=float).reshape(-1)
    sol, _, _, _ = np.linalg.lstsq(np.asarray(M, dtype=float), v, rcond=None)
    resid = np.linalg.norm(v - np.asarray(M) @ sol)
    norm = np.linalg.norm(v)
    return resid <= tol * max(norm, 1.0)


def nullspace_intersection(M1, M2, tol: float = 1e-8) -> np.ndarray:
    """Basis of span(M1) & span(M2) from the nullspace of [M1, -M2]."""
    M1 = np.asarray(M1, dtype=float)
    M2 = np.asarray(M2, dtype=float)
    stacked = np.hstack([M1, -M2])
    _, svals, Vt = np.linalg.svd(stacked)
    top = svals[0] if svals.size else 0.0
    null_mask = np.zeros(Vt.shape[0], dtype=bool)
    null_mask[: svals.size] = svals <= tol * max(top, 1.0)
    null_mask[svals.size :] = True
    null = Vt[null_mask].T
    if null.shape[1] == 0:
        return np.zeros((M1.shape[0], 0))
    vectors = M1 @ null[: M1.shape[1], :]
    U, svals, _ = np.linalg.svd(vectors, full_matrices=False)
    if svals.size == 0 or svals[0] == 0:
        return np.zeros((M1.shape[0], 0))
    rank = int(np.sum(svals > tol * svals[0]))
    return U[:, :rank]


def projector(M, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal projector onto the column span of M (QR-free, via pinv)."""
    M = np.asarray(M, dtype=float)
    return M @ np.linalg.pinv(M, rcond=tol)


def sequential_gen_codes(structure, n_samples, seed, coefficient_scale=1.0):
    """The former `gen_codes`: per sample, one `choice` of the support, then one
    `uniform` and one `integers` draw per active block.

    Tests that feed generated codes to the learner or the coder draw from it,
    so their inputs do not move with `gen_codes`'s stream.
    """
    rng = np.random.default_rng(seed)
    X = np.zeros((structure.total_dim, n_samples))
    for c in range(n_samples):
        for i in sorted(rng.choice(structure.K, size=structure.s, replace=False)):
            magnitude = rng.uniform(0.1, 1.0, size=structure.alpha)
            sign = rng.integers(0, 2, size=structure.alpha) * 2 - 1
            X[structure.block_slice(int(i) + 1), c] = coefficient_scale * sign * magnitude
    return X


def reference_block_omp(A, y, s=None, tol=1e-10):
    """The former `block_omp`: one column at a time, an `lstsq` per greedy step.

    Tests check the batched kernel against it: the same supports, the same
    `RankError` decisions and messages, and coefficients close to rounding.
    """
    y, e, s = _check_measurement(A, y, s, tol)
    y_norm = float(np.linalg.norm(y))
    values = np.zeros(A.structure.total_dim)
    abs_res = y_norm  # y = 0 skips the loop: the zero code, residual 0
    selected: list[int] = []
    residual = y.copy()
    while len(selected) < s and _relative(abs_res, y_norm) > tol:
        correlations = A.data.T @ residual
        scores = np.linalg.norm(
            correlations.reshape(A.structure.K, A.structure.alpha), axis=1
        )
        scores[[i - 1 for i in selected]] = -1.0
        best = int(np.argmax(scores))  # first max wins: lowest block index
        if scores[best] <= 0.0:
            break
        selected.append(best + 1)
        rows = _support_columns(np.array([sorted(selected)]), A.structure.alpha)[0]
        cols = A.data[:, rows]
        sol, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        if rank < cols.shape[1]:
            raise RankError(
                f"selected sub-dictionary on blocks {tuple(selected)} is rank-deficient "
                f"(rank {rank} < {cols.shape[1]} columns)"
            )
        values = np.zeros(A.structure.total_dim)
        values[rows] = sol
        abs_res = float(np.linalg.norm(y - cols @ sol))
        residual = y - A.data @ values

    code = BlockSparseVec(A.structure, np.ldexp(values, e))
    return CodingResult(code, _relative(abs_res, y_norm), "block-omp")


def _relative(abs_residual: float, y_norm: float) -> float:
    """The former scalar `coding._relative`, which `reference_block_omp` calls."""
    return abs_residual if y_norm == 0 else abs_residual / y_norm


def make_rip_instance(P, K, alpha, s, seed):
    """Seeded dictionary with level-min(2s, K) constant below 1, by `gen_rip_dictionary`.

    Returns (dictionary, RipReport, seed + the draws before it). The last is a
    fresh seed for the instance's other draws, not the dictionary's own seed:
    only a dictionary taken at its first draw is `gen_dictionary(seed)`.
    """
    A, report, retries = gen_rip_dictionary(P, BlockStructure(K=K, alpha=alpha, s=s), seed)
    return A, report, seed + retries


def make_equivalent_pair(P, K, alpha, s, seed):
    """(A, B, perm, diag, rip report) with A the transform of B by (perm, diag)."""
    A, report, _ = make_rip_instance(P, K, alpha, s, seed)
    perm = gen_block_permutation(K, seed=seed + 1000)
    diag = gen_block_diagonal(A.structure, seed=seed + 2000)
    B = make_equivalent_dict(A, perm, diag)
    return A, B, perm, diag, report
