"""Block-sparse coding: greedy block-OMP and an exhaustive oracle, each over a batched kernel.

Both methods reject non-finite measurements, code y at `_unit_scale` (||y||^2 then neither
overflows nor underflows), report the residual as ||y - A x||_2 relative to ||y||_2
(`_relative`: absolute when y = 0) and break ties toward the lowest block indices. Each is the
one-column case of a kernel the learner runs on all its samples, each taking (A, Y, s, tol)
with Y at the caller's scale: `_omp_codes` for block-OMP, and for the oracle
`_min_residual_codes`, the minimum-residual rule, which re-checks only what an energy ranking
cannot settle. A support's residual is its projection residual on its `subspace._support_bases`
basis at lstsq's cut, its lstsq residual at any rank (Golub & Van Loan 5.3); the winner's comes
from its solve's SVD (5.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlockDict, BlockSparseVec, _check_s, _check_tols, _unit_scale
from .errors import RankError
from .rip import _enumerate_supports, _support_columns
from .subspace import _bases, _support_bases

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
    y, e, s = _check_measurement(A, y, s, tol)
    X, res, steps, rank = _omp_codes(A, y[:, None], s, tol)
    order = np.argsort(steps[0])[A.structure.K - np.count_nonzero(steps) :]  # selection order
    if rank[0] < (width := order.size * A.structure.alpha):
        raise RankError(f"selected sub-dictionary on blocks {tuple((order + 1).tolist())} is "
                        f"rank-deficient (rank {rank[0]} < {width} columns)")
    code = BlockSparseVec(A.structure, np.ldexp(X[:, 0], e))
    return CodingResult(code, float(_relative(res[0], np.linalg.norm(y))), METHOD_OMP)


def _omp_codes(A: BlockDict, Y: np.ndarray, s: int, tol: float) -> tuple[np.ndarray, ...]:
    """Block-OMP code of every column y of the P x N matrix Y, at most s blocks each.

    `block_omp`'s rule, and the learner's above the enumeration cap, on Y at the caller's scale
    (2^k Y gets 2^k times the codes, exactly): while y's residual r exceeds tol ||y|| and y has
    fewer than s blocks, the block whose correlations with r have the largest norm joins y's
    selection (the first such: equal columns tie exactly, as each correlation is one dot product;
    none when all are 0), least squares on the selection is solved from one stacked SVD at lstsq's
    cut eps max(P, d) under `_numerical_rank`, and r is recomputed as y - A x; a rank-short
    selection stops with code 0 and residual ||y||. Every product is per column (stacked matmuls
    on C-contiguous rows, norms as stacked dots), so a column's bytes do not depend on its batch;
    column chunks of about _CODE_CHUNK selection entries bound memory. Returns (codes, absolute
    residual norms, each block's step in each column's selection (N x K, 0 = unselected), the rank
    of each column's last solve).
    """
    (P, N), (K, alpha) = Y.shape, (A.structure.K, A.structure.alpha)
    Yt, AT = np.ascontiguousarray(Y.T), np.ascontiguousarray(A.data.T)  # rows: each y, A's columns
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
            R[live] = Yt[live] - (A.data @ X[live, :, None])[..., 0]
            res[live] = np.sqrt((R[live, None] @ R[live, :, None])[:, 0, 0])
    return X.T, res, steps, rank


def _support_residuals(A: BlockDict, sups, bases, Y, ks, block, ysq=None) -> np.ndarray:
    """Residuals ||y - Q Q^T y|| of supports ks of the rows of sups on Y, from their
    `_support_bases` Q at lstsq's cut eps max(P, d) (bases: every row's, or None to make them per
    block), inf elsewhere; squared, as energies ||y||^2 - ||Q^T y||^2, given ysq = ||y||^2."""
    cut = np.finfo(float).eps * max(Y.shape[0], sups.shape[1] * A.structure.alpha)
    R = np.full((len(sups), Y.shape[1]), np.inf)
    for b in range(0, len(ks), block):
        kb = ks[b : b + block]
        Q = _support_bases((A, sups[kb]), tol=cut)[0] if bases is None else bases[kb]
        Z = Q.transpose(0, 2, 1) @ Y
        R[kb] = np.linalg.norm(Y - Q @ Z, axis=1) if ysq is None else ysq - np.square(Z).sum(axis=1)
    return R


def _min_residual_codes(A: BlockDict, Y: np.ndarray, s: int, tol: float) -> tuple[np.ndarray, ...]:
    """Minimum-residual s-block code of every column y of the P x N matrix Y.

    The one rule behind `exhaustive_code` and the learner: the projection residual on every
    size-s support's basis, `_support_bases` at lstsq's cut eps max(P, d) (a QR's Q where R proves
    full rank, else the SVD's U: its lstsq residual, rank-short or not), the smallest wins, and
    supports within tol*||y|| of it count as tied, going to the lexicographically first; the
    supports come first (CapacityError past the enumeration cap), and while their bases hold at
    most _CODE_CHUNK entries they are made once for the call. Supports are ranked by energy
    (`_support_residuals`), which misses the squared residual by under margin = 2 (sqrt(s*alpha)
    + 2)(P + s*alpha) eps ||y||^2 (twice a first-order rounding bound; Higham, ch. 3).
    Candidates, energies at most (sqrt(min energy + margin) + tol*||y||)^2 + margin, hold the tie
    window: a column with one is decided, the rest get their candidates' exact residuals. One
    `_bases` SVD of the distinct winners at that cut gives each column x = V sv^-1 U^T y and its
    residual ||y - U U^T y|| by per-column stacked products, so a column's bytes do not depend on
    its batch. Column chunks of about _CODE_CHUNK residuals or basis entries and support blocks of
    about _CODE_CHUNK basis and projection entries bound memory. Returns (codes, residuals, ties).
    """
    rows = _support_columns(sups := _enumerate_supports(A.structure.K, s), A.structure.alpha)
    (P, N), width, fp = Y.shape, rows.shape[1], np.finfo(float)
    cut = fp.eps * max(P, width)  # lstsq's
    Q = _support_bases((A, sups), tol=cut)[0] if rows.size * P <= _CODE_CHUNK else None
    X = np.zeros((A.structure.total_dim, N))
    res, tied = np.empty(N), np.zeros(N, dtype=bool)
    ysq = np.einsum("ij,ij->j", Y, Y)
    window, margin = tol * np.sqrt(ysq), 2 * (math.sqrt(width) + 2) * (P + width) * fp.eps * ysq
    margin[margin < fp.tiny] = np.inf  # an underflowing margin bounds nothing
    step = max(1, _CODE_CHUNK // max(len(rows), P * width))  # residuals, gathered bases
    block = max(1, _CODE_CHUNK // (P * (width + min(step, N))))
    for c in (slice(start, start + step) for start in range(0, N, step)):
        E = _support_residuals(A, sups, Q, Y[:, c], np.arange(len(rows)), block, ysq[c])
        bound = (np.sqrt(np.abs(E.min(axis=0) + margin[c])) + window[c]) ** 2 + margin[c]
        cand = ~(E > bound)  # NaN energies and bounds make candidates
        winner = cand.argmax(axis=0)
        if (again := np.flatnonzero(cand.sum(axis=0) > 1)).size:
            ks = np.flatnonzero(cand[:, again].any(axis=1))
            R = _support_residuals(A, sups, Q, Y[:, c.start + again], ks, block)
            # first support (lexicographic order) within each column's tie window
            near = R <= R.min(axis=0) + window[c.start + again]
            winner[again], tied[c.start + again] = near.argmax(axis=0), near.sum(axis=0) > 1
        won = np.bincount(winner, minlength=len(rows)) > 0  # distinct winners, in order, unsorted
        ks, k = np.flatnonzero(won), np.cumsum(won)[winner] - 1
        U, _, sv, Vt = _bases(A.data.T[rows[ks]].transpose(0, 2, 1), cut)
        Yt = np.ascontiguousarray(Y[:, c].T)
        z = U[k].swapaxes(1, 2) @ Yt[:, :, None]
        x = Vt[k].swapaxes(1, 2) @ (z / sv[k, :, None])
        X[rows[ks[k]], np.arange(N)[c, None]] = x[..., 0]
        R = Yt - (U[k] @ z)[..., 0]
        res[c] = np.sqrt((R[:, None] @ R[:, :, None])[:, 0, 0])
    return X, res, tied


def exhaustive_code(
    A: BlockDict, y, s: int | None = None, tol: float = DEFAULT_CODING_TOL
) -> CodingResult:
    """Minimum-residual s-block-sparse code by enumerating every support.

    The one-column case of `_min_residual_codes` (energy ranking of all
    C(K, s) supports, exact re-check of near ties, the winner solved on its
    SVD basis, whose projection residual is reported); ties within tol go to
    the lexicographically smallest support (`tied`).

    Raises
    ------
    CapacityError
        When C(K, s) exceeds DEFAULT_ENUMERATION_CAP.
    """
    y, e, s = _check_measurement(A, y, s, tol)
    X, res, tied = _min_residual_codes(A, y[:, None], s, tol)
    residual = float(_relative(res[0], np.linalg.norm(y)))
    return CodingResult(BlockSparseVec(A.structure, np.ldexp(X[:, 0], e)), residual,
                        METHOD_EXHAUSTIVE, bool(tied[0]))
