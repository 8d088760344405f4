"""Block-sparse coding: greedy block-OMP and an exhaustive oracle, each over a batched kernel.

Both methods reject non-finite measurements, code y and A each at its `_unit_scale` (||y||^2 then
neither overflows nor underflows), scale the code once (ValueError past the float range), report the
residual as ||y - A x||_2 relative to ||y||_2 (`_relative`: absolute when y = 0) and break ties
toward the lowest block indices. Each is the one-column case of a kernel the learner runs on all its
samples, each taking (A, Y, s, tol) with Y at the caller's scale: `_omp_codes` for block-OMP, and
for the oracle `_min_residual_codes`, the minimum-residual rule, over `subspace._nearest_spans`,
which re-checks only what an energy ranking cannot settle. A support's residual is its projection
residual on its `subspace._support_bases` basis at lstsq's cut, its lstsq residual at any rank
(Golub & Van Loan 5.3); the winner's comes from its solve's SVD (5.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BlockDict, BlockSparseVec, _check_s, _check_tols, _unit_scale
from .errors import RankError
from .rip import _enumerate_supports, _support_columns
from .subspace import _bases, _nearest_spans

DEFAULT_CODING_TOL = 1e-10

METHOD_OMP = "block-omp"
METHOD_EXHAUSTIVE = "exhaustive-oracle"

# entries per stack of the coders: selections, bases, energy tables
_CODE_CHUNK = 2**16


@dataclass(frozen=True)
class CodingResult:
    """A block-sparse code for a measurement vector."""

    code: BlockSparseVec
    residual_norm: float
    method: str
    tied: bool = False  # exhaustive codes: a second support lies in the tie window

    def to_dict(self) -> dict:
        return {
            "support": list(self.code.support),
            "coefficients": self.code.values.tolist(),
            "residual_norm": self.residual_norm,
            "method": self.method,
        }


def _relative(abs_residual, y_norm) -> np.ndarray:
    """The relative residual, elementwise: abs_residual / y_norm, abs_residual where y_norm = 0."""
    return np.divide(abs_residual, y_norm, out=np.array(abs_residual, dtype=float),
                     where=np.asarray(y_norm) != 0)


def _check_measurement(A: BlockDict, y, s: int | None, tol: float) -> tuple[np.ndarray, int, int]:
    """(y flat at `_unit_scale`, its exponent e, s defaulted to A.structure.s); tol >= 0, and
    ValueError when y holds non-finite values."""
    _check_tols(tol=tol)
    if (s := _check_s(A.structure, s)) > A.structure.s:
        raise ValueError(f"s={s} exceeds the dictionary's block sparsity s={A.structure.s}")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != A.ambient_dim:
        raise ValueError(f"measurement has length {y.shape[0]}, expected {A.ambient_dim}")
    if bad := np.flatnonzero(~np.isfinite(y)).tolist():
        raise ValueError(f"measurement holds non-finite values at entries {bad}")
    return (*_unit_scale(y, 0), s)


def _code_one(kernel, A: BlockDict, y, s: int | None, tol: float):
    """(code, relative residual, kernel's other outputs) of y on A by kernel, run on y and A at
    their `_unit_scale`s; the code is 2**(e_y - e_A) times kernel's, ValueError past float range."""
    y, e, s = _check_measurement(A, y, s, tol)
    D, [[d]] = _unit_scale(A.data, None)
    X, res, *rest = kernel(BlockDict(A.structure, D), y[:, None], s, tol)
    with np.errstate(over="ignore"):
        if np.isfinite(x := np.ldexp(X[:, 0], e - d)).all():
            return BlockSparseVec(A.structure, x), float(_relative(res[0], np.linalg.norm(y))), rest
    raise ValueError("the code overflows the float range")


def block_omp(
    A: BlockDict, y, s: int | None = None, tol: float = DEFAULT_CODING_TOL
) -> CodingResult:
    """Greedy block orthogonal matching pursuit: the one-column case of `_omp_codes`.

    Repeatedly selects the block whose columns correlate most with the current
    residual r (the norm of its block of A^T r; ties go to the lowest index),
    re-solves least squares on all selected blocks, and stops once s blocks
    (default A.structure.s) are selected, the relative residual falls to tol,
    or no block correlates with r at all. Every block should have full column
    rank: RankError when the selected sub-dictionary is rank-deficient.
    """
    code, residual, (steps, rank) = _code_one(_omp_codes, A, y, s, tol)
    order = np.argsort(steps[0])[A.structure.K - np.count_nonzero(steps) :]  # selection order
    if rank[0] < (width := order.size * A.structure.alpha):
        raise RankError(f"selected sub-dictionary on blocks {tuple((order + 1).tolist())} is "
                        f"rank-deficient (rank {rank[0]} < {width} columns)")
    return CodingResult(code, residual, METHOD_OMP)


def _omp_codes(A: BlockDict, Y: np.ndarray, s: int, tol: float) -> tuple[np.ndarray, ...]:
    """Block-OMP code of every column y of the P x N matrix Y, at most s blocks each.

    `block_omp`'s rule, and the learner's above the enumeration cap, on Y at the caller's scale
    (2^k Y gets 2^k times the codes, exactly) and on A's `_unit_scale` (codes scaled back): while
    y's residual r exceeds tol ||y|| and y has fewer than s blocks, the block whose correlations
    with r have the largest norm joins y's selection (the first such: equal columns tie exactly, as
    each correlation is one dot product; none when all are 0), least squares on the selection is
    solved from one stacked SVD at lstsq's cut eps max(P, d) under `_numerical_rank`, and r is
    recomputed as y - A x; a rank-short selection stops with code 0 and residual ||y||. Every
    product is per column (stacked matmuls on C-contiguous rows, norms as stacked dots), so a
    column's bytes do not depend on its batch; column chunks of about _CODE_CHUNK selection entries
    bound memory. Returns (codes, absolute residual norms, each block's step in each column's
    selection (N x K, 0 = unselected), the rank of each column's last solve).
    """
    (P, N), (K, alpha) = Y.shape, (A.structure.K, A.structure.alpha)
    D, e = _unit_scale(A.data, None)
    Yt, AT = np.ascontiguousarray(Y.T), np.ascontiguousarray(D.T)  # rows: each y, D's columns
    R, X = Yt.copy(), np.zeros((N, A.structure.total_dim))  # residual and code rows
    steps, rank = np.zeros((N, K), dtype=int), np.zeros(N, dtype=int)
    norm = np.sqrt((Yt[:, None] @ Yt[:, :, None])[:, 0, 0])
    res = norm.copy()
    step = max(1, _CODE_CHUNK // (P * s * alpha))
    for live in (np.arange(N)[b : b + step] for b in range(0, N, step)):
        for t in range(1, s + 1):
            live = live[_relative(res[live], norm[live]) > tol]
            C = (AT[:, None] @ R[live, None, :, None]).reshape(len(live), K, 1, alpha)
            scores = (C @ C.swapaxes(2, 3))[..., 0, 0]  # squared block norms
            scores[steps[live] > 0] = -1.0
            go = scores.max(axis=1) > 0
            live, best = live[go], scores.argmax(axis=1)[go]  # first max: the lowest block
            if not live.size:
                break
            steps[live, best] = t
            rows = _support_columns(np.nonzero(steps[live])[1].reshape(-1, t) + 1, alpha)
            M = AT[rows].transpose(0, 2, 1)
            U, rank[live], sv, Vt = _bases(M, np.finfo(float).eps * max(P, t * alpha))
            ok = rank[live] == t * alpha
            X[live[~ok]], res[live[~ok]] = 0.0, norm[live[~ok]]
            live, rows = live[ok], rows[ok]
            z = (U[ok].swapaxes(1, 2) @ Yt[live, :, None]) / sv[ok, :, None]
            X[live[:, None], rows] = (Vt[ok].swapaxes(1, 2) @ z)[..., 0]
            R[live] = Yt[live] - (D @ X[live, :, None])[..., 0]
            res[live] = np.sqrt((R[live, None] @ R[live, :, None])[:, 0, 0])
    return np.ldexp(X.T, -e), res, steps, rank


def _min_residual_codes(A: BlockDict, Y: np.ndarray, s: int, tol: float) -> tuple[np.ndarray, ...]:
    """Minimum-residual s-block code of every column y of the P x N matrix Y: the one rule behind
    `exhaustive_code` and the learner. `subspace._nearest_spans` at g = 1 finds the least projection
    residual on a size-s support's `_support_bases` basis at lstsq's cut eps max(P, d) (its lstsq
    residual, rank-short or not) and the supports within tol*||y|| of it, which tie and go to the
    first (CapacityError past the enumeration cap). One `_bases` SVD of the distinct winners at
    that cut gives each column x = V sv^-1 U^T y and its residual ||y - U U^T y|| by per-column
    stacked products, so a column's bytes do not depend on its batch. Stacks of about _CODE_CHUNK
    entries bound memory. Returns (codes, residuals, ties)."""
    rows = _support_columns(sups := _enumerate_supports(A.structure.K, s), A.structure.alpha)
    (P, N), width = Y.shape, rows.shape[1]
    cut = np.finfo(float).eps * max(P, width)  # lstsq's
    *_, count, winner, _, _ = _nearest_spans(A, sups, Y.T[..., None], tol, cut, budget=_CODE_CHUNK)
    X, res = np.zeros((A.structure.total_dim, N)), np.empty(N)
    step = max(1, _CODE_CHUNK // (P * width))  # gathered bases
    for c in (slice(start, start + step) for start in range(0, N, step)):
        won = np.bincount(winner[c], minlength=len(rows)) > 0  # distinct winners, in order, unsorted
        ks, k = np.flatnonzero(won), np.cumsum(won)[winner[c]] - 1
        U, _, sv, Vt = _bases(A.data.T[rows[ks]].transpose(0, 2, 1), cut)
        Yt = np.ascontiguousarray(Y[:, c].T)
        z = U[k].swapaxes(1, 2) @ Yt[:, :, None]
        x = Vt[k].swapaxes(1, 2) @ (z / sv[k, :, None])
        X[rows[ks[k]], np.arange(N)[c, None]] = x[..., 0]
        R = Yt - (U[k] @ z)[..., 0]
        res[c] = np.sqrt((R[:, None] @ R[:, :, None])[:, 0, 0])
    return X, res, count > 1


def exhaustive_code(
    A: BlockDict, y, s: int | None = None, tol: float = DEFAULT_CODING_TOL
) -> CodingResult:
    """Minimum-residual s-block-sparse code by enumerating every support.

    The one-column case of `_min_residual_codes` (energy ranking of all C(K, s) supports, exact
    re-check of near ties, the winner solved on its SVD basis, whose projection residual is
    reported); ties within tol go to the lexicographically smallest support (`tied`).

    Raises
    ------
    CapacityError
        When C(K, s) exceeds DEFAULT_ENUMERATION_CAP.
    """
    code, residual, (tied,) = _code_one(_min_residual_codes, A, y, s, tol)
    return CodingResult(code, residual, METHOD_EXHAUSTIVE, bool(tied[0]))
