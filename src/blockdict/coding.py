"""Block-sparse coding: greedy block-OMP and an exhaustive oracle.

Both methods report the residual as ||y - A x||_2 relative to ||y||_2
(absolute when y = 0) and break ties toward the lowest block indices.
The exhaustive oracle and the learner share one batched kernel,
`_min_residual_codes`, which holds the minimum-residual rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import BlockDict, BlockSparseVec, _check_tols
from .errors import RankError
from .rip import DEFAULT_ENUMERATION_CAP, _enumerate_supports, _support_columns

DEFAULT_CODING_TOL = 1e-10

METHOD_OMP = "block-omp"
METHOD_EXHAUSTIVE = "exhaustive-oracle"

# supports x columns residual entries per chunk of the minimum-residual coder
_CODE_CHUNK = 2**16


@dataclass(frozen=True)
class CodingResult:
    """A block-sparse code for a measurement vector."""

    code: BlockSparseVec
    residual_norm: float
    method: str

    def to_dict(self) -> dict:
        return {
            "support": list(self.code.support),
            "coefficients": self.code.values.tolist(),
            "residual_norm": self.residual_norm,
            "method": self.method,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _relative(abs_residual: float, y_norm: float) -> float:
    return abs_residual if y_norm == 0 else abs_residual / y_norm


def _check_measurement(A: BlockDict, y, s: int | None, tol: float) -> tuple[np.ndarray, int]:
    """(y as a flat float vector, s defaulted to A.structure.s), validated with tol >= 0."""
    _check_tols(tol=tol)
    s = A.structure.s if s is None else int(s)
    if not 1 <= s <= A.structure.K:
        raise ValueError(f"s must satisfy 1 <= s <= K, got s={s}, K={A.structure.K}")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != A.ambient_dim:
        raise ValueError(
            f"measurement has length {y.shape[0]}, expected {A.ambient_dim}"
        )
    return y, s


def block_omp(
    A: BlockDict, y, s: int | None = None, tol: float = DEFAULT_CODING_TOL
) -> CodingResult:
    """Greedy block orthogonal matching pursuit.

    Repeatedly selects the block whose columns correlate most with the
    current residual (Euclidean norm of the block of A^T r; ties go to the
    lowest index), re-solves least squares on all selected blocks, and
    stops once s blocks are selected, the relative residual falls to tol,
    or no block correlates with the residual at all.

    Parameters
    ----------
    A : BlockDict
        Dictionary; every block should have full column rank.
    y : array of length A.ambient_dim
    s : int, optional
        Maximum number of blocks to select; defaults to A.structure.s.
    tol : float
        Relative-residual stopping tolerance.

    Raises
    ------
    RankError
        When the selected sub-dictionary is rank-deficient.
    """
    y, s = _check_measurement(A, y, s, tol)
    y_norm = float(np.linalg.norm(y))
    values = np.zeros(A.structure.total_dim)
    abs_res = y_norm
    if y_norm == 0:
        code = BlockSparseVec.from_values(A.structure, values, tol=0.0)
        return CodingResult(code, 0.0, METHOD_OMP)

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

    code = BlockSparseVec.from_values(A.structure, values, tol=0.0)
    return CodingResult(code, _relative(abs_res, y_norm), METHOD_OMP)


def _min_residual_codes(
    A: BlockDict, Y: np.ndarray, s: int, tol: float, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-residual s-block code of every column y of the P x N matrix Y.

    The one rule behind `exhaustive_code` and the learner: least squares on
    every size-s support, the smallest residual wins, and supports within
    tol*||y|| of it count as tied, going to the lexicographically first.
    Each support is solved once for a chunk of columns and only the winning
    supports are re-solved, on their own columns; chunks hold about
    _CODE_CHUNK residuals, so memory stays bounded as C(K, s) grows.
    Returns (K*alpha x N codes, absolute residual norms).

    Raises CapacityError when C(K, s) exceeds cap.
    """
    supports = _enumerate_supports(A.structure.K, s, cap)
    rows = _support_columns(supports, A.structure.alpha)
    N = Y.shape[1]
    X = np.zeros((A.structure.total_dim, N))
    res = np.empty(N)
    window = tol * np.linalg.norm(Y, axis=0)
    step = max(1, _CODE_CHUNK // len(supports))
    residuals = np.empty((len(supports), min(step, N)))
    for start in range(0, N, step):
        Yc = Y[:, start : start + step]
        R = residuals[:, : Yc.shape[1]]
        for k, r in enumerate(rows):
            cols = A.data[:, r]
            sol, ssq, _, _ = np.linalg.lstsq(cols, Yc, rcond=None)
            # lstsq reports residual sums of squares only at full column rank
            R[k] = np.sqrt(ssq) if ssq.size else np.linalg.norm(Yc - cols @ sol, axis=0)
        # first support (lexicographic order) within each column's tie window
        winner = np.argmax(R <= R.min(axis=0) + window[start : start + step], axis=0)
        for k in np.flatnonzero(np.bincount(winner)):
            on = start + np.nonzero(winner == k)[0]
            cols = A.data[:, rows[k]]
            sol = np.linalg.lstsq(cols, Y[:, on], rcond=None)[0]
            X[np.ix_(rows[k], on)] = sol
            res[on] = np.linalg.norm(Y[:, on] - cols @ sol, axis=0)
    return X, res


def exhaustive_code(
    A: BlockDict,
    y,
    s: int | None = None,
    tol: float = DEFAULT_CODING_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CodingResult:
    """Minimum-residual s-block-sparse code by enumerating every support.

    The one-column case of `_min_residual_codes`: C(K, s) least-squares
    solves plus one for the winner, with ties within tol going to the
    lexicographically smallest support.

    Raises
    ------
    CapacityError
        When C(K, s) exceeds cap.
    """
    y, s = _check_measurement(A, y, s, tol)
    X, res = _min_residual_codes(A, y[:, None], s, tol, cap)
    code = BlockSparseVec.from_values(A.structure, X[:, 0], tol=0.0)
    y_norm = float(np.linalg.norm(y))
    return CodingResult(code, _relative(float(res[0]), y_norm), METHOD_EXHAUSTIVE)
