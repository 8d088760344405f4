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

from blockdict import (
    BlockDict,
    BlockStructure,
    gen_block_diagonal,
    gen_block_permutation,
    gen_dictionary,
    make_equivalent_dict,
    rip_constant_exact,
)


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


def make_rip_instance(P, K, alpha, s, seed, level=None, mode="per-block-orthonormal",
                      max_tries=2000, delta_below=1.0):
    """Seeded dictionary whose exact level constant is below a target (retrying seeds).

    Returns (dictionary, exact RipReport, seed actually used).
    """
    structure = BlockStructure(K=K, alpha=alpha, s=s)
    level = 2 * s if level is None else level
    level = min(level, K)
    for offset in range(max_tries):
        A = gen_dictionary(P, structure, seed=seed + offset, mode=mode)
        report = rip_constant_exact(A, level)
        if report.delta < delta_below:
            return A, report, seed + offset
    raise AssertionError(
        f"no instance with delta < {delta_below} after {max_tries} draws"
    )


def make_equivalent_pair(P, K, alpha, s, seed, max_condition=10.0):
    """(A, B, perm, diag, rip report) with A the transform of B by (perm, diag)."""
    A, report, _ = make_rip_instance(P, K, alpha, s, seed)
    perm = gen_block_permutation(K, seed=seed + 1000)
    diag = gen_block_diagonal(A.structure, seed=seed + 2000, max_condition=max_condition)
    B = make_equivalent_dict(A, perm, diag)
    return A, B, perm, diag, report
