"""Block-sparse coding: greedy block-OMP and an exhaustive oracle.

Both methods reject non-finite measurements, code y times the power of two that puts
its largest entry in [0.5, 1) (exact; ||y||^2 then neither overflows nor underflows), report
the residual as ||y - A x||_2 relative to ||y||_2 (absolute when y = 0) and break ties
toward the lowest block indices. The exhaustive oracle and the learner share
one kernel: `_factor` once per (dictionary, s), then `_min_residual_codes`, the
minimum-residual rule, which re-checks only what an energy ranking cannot settle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_RANK_TOL, BlockDict, BlockSparseVec, _check_s, _check_tols
from .core import _numerical_rank
from .errors import RankError
from .rip import DEFAULT_ENUMERATION_CAP, _enumerate_supports, _support_columns

DEFAULT_CODING_TOL = 1e-10

METHOD_OMP = "block-omp"
METHOD_EXHAUSTIVE = "exhaustive-oracle"

# supports x columns residual entries per chunk of the minimum-residual coder
_CODE_CHUNK = 2**16
_Factor = namedtuple("_Factor", "A rows Q short")  # what `_factor` returns


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


def _relative(abs_residual: float, y_norm: float) -> float:
    return abs_residual if y_norm == 0 else abs_residual / y_norm


def _unit_scale(y: np.ndarray) -> tuple[np.ndarray, int]:
    """(y * 2**-e, e) for the e that puts max |y| in [0.5, 1) (e = 0 for y = 0); exact.
    ValueError when y holds non-finite values."""
    if not np.isfinite(y).all():
        bad = np.flatnonzero(~np.isfinite(y)).tolist()
        raise ValueError(f"measurement holds non-finite values at entries {bad}")
    e = int(np.frexp(np.abs(y).max(initial=0.0))[1])
    return np.ldexp(y, -e), e


def _check_measurement(A: BlockDict, y, s: int | None, tol: float) -> tuple[np.ndarray, int, int]:
    """(y flat at `_unit_scale`, its exponent e, s defaulted to A.structure.s); tol >= 0."""
    _check_tols(tol=tol)
    if (s := _check_s(A.structure, s)) > A.structure.s:
        raise ValueError(f"s={s} exceeds the dictionary's block sparsity s={A.structure.s}")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != A.ambient_dim:
        raise ValueError(f"measurement has length {y.shape[0]}, expected {A.ambient_dim}")
    return (*_unit_scale(y), s)


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
    return CodingResult(code, _relative(abs_res, y_norm), METHOD_OMP)


def _qr(A: BlockDict, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Q of the supports with column table rows, and which of them are rank-short."""
    Q, T = np.linalg.qr(A.data.T[rows].transpose(0, 2, 1))
    diag = np.sort(np.abs(np.diagonal(T, axis1=1, axis2=2)))[:, ::-1]
    return Q, _numerical_rank(diag, DEFAULT_RANK_TOL) < rows.shape[1]


def _factor(A: BlockDict, s: int) -> _Factor:
    """Factor step: the column table of A's size-s supports and, while they fit _CODE_CHUNK
    entries, their stacked Q and rank-short flags (else None). CapacityError past the cap."""
    rows = _support_columns(_enumerate_supports(A.structure.K, s, DEFAULT_ENUMERATION_CAP),
                            A.structure.alpha)
    fits = rows.size * A.ambient_dim <= _CODE_CHUNK
    return _Factor(A, rows, *(_qr(A, rows) if fits else (None, None)))


def _support_residuals(F: _Factor, Y, ks, block, ysq=None) -> np.ndarray:
    """Residuals ||y - Q Q^T y|| of supports ks on Y, from stacked QR (lstsq where rank-short),
    inf elsewhere; squared, as energies ||y||^2 - ||Q^T y||^2, given ysq = ||y||^2."""
    R = np.full((len(F.rows), Y.shape[1]), np.inf)
    for b in range(0, len(ks), block):
        kb = ks[b : b + block]
        Q, short = _qr(F.A, F.rows[kb]) if F.Q is None else (F.Q[kb], F.short[kb])
        Z = Q.transpose(0, 2, 1) @ Y
        R[kb] = np.linalg.norm(Y - Q @ Z, axis=1) if ysq is None else ysq - np.square(Z).sum(axis=1)
        for k in kb[short]:
            cols = F.A.data[:, F.rows[k]]
            sol, ssq, _, _ = np.linalg.lstsq(cols, Y, rcond=None)
            # lstsq reports residual sums of squares only at full column rank
            R[k] = np.sqrt(ssq) if ssq.size else np.linalg.norm(Y - cols @ sol, axis=0)
            R[k] = R[k] if ysq is None else R[k] ** 2
    return R


def _min_residual_codes(F: _Factor, Y: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Minimum-residual s-block code of every column y of the P x N matrix Y, from F.

    The code step, and the one rule behind `exhaustive_code` and the learner: the
    projection residual on every size-s support, the smallest wins, and supports
    within tol*||y|| of it count as tied, going to the lexicographically first.
    Supports are ranked by energy (`_support_residuals`), which misses the
    squared residual by under margin = 2 (sqrt(s*alpha) + 2)(P + s*alpha) eps
    ||y||^2 (twice a first-order rounding bound; Higham, ch. 3). Candidates,
    energies at most (sqrt(min energy + margin) + tol*||y||)^2 + margin, hold
    the tie window: a column with one is decided, the rest get their
    candidates' exact residuals, and only winners are solved. Column chunks of
    about _CODE_CHUNK residuals and support blocks of about _CODE_CHUNK factor
    and projection entries bound memory. Returns (codes, residual norms, ties).
    """
    (P, N), width, fp = Y.shape, F.rows.shape[1], np.finfo(float)
    X = np.zeros((F.A.structure.total_dim, N))
    res, tied = np.empty(N), np.zeros(N, dtype=bool)
    ysq = np.square(Y).sum(axis=0)
    window, margin = tol * np.sqrt(ysq), 2 * (math.sqrt(width) + 2) * (P + width) * fp.eps * ysq
    margin[margin < fp.tiny] = np.inf  # an underflowing margin bounds nothing
    step = max(1, _CODE_CHUNK // len(F.rows))
    block = max(1, _CODE_CHUNK // (P * (width + min(step, N))))
    for c in (slice(start, start + step) for start in range(0, N, step)):
        E = _support_residuals(F, Y[:, c], np.arange(len(F.rows)), block, ysq[c])
        bound = (np.sqrt(np.abs(E.min(axis=0) + margin[c])) + window[c]) ** 2 + margin[c]
        cand = ~(E > bound)  # NaN energies and bounds make candidates
        winner = cand.argmax(axis=0)
        if (again := np.flatnonzero(cand.sum(axis=0) > 1)).size:
            ks = np.flatnonzero(cand[:, again].any(axis=1))
            R = _support_residuals(F, Y[:, c.start + again], ks, block)
            # first support (lexicographic order) within each column's tie window
            near = R <= R.min(axis=0) + window[c.start + again]
            winner[again], tied[c.start + again] = near.argmax(axis=0), near.sum(axis=0) > 1
        for k in np.flatnonzero(np.bincount(winner)):
            on = c.start + np.nonzero(winner == k)[0]
            cols = F.A.data[:, F.rows[k]]
            sol = np.linalg.lstsq(cols, Y[:, on], rcond=None)[0]
            X[F.rows[k][:, None], on] = sol
            res[on] = np.linalg.norm(Y[:, on] - cols @ sol, axis=0)
    return X, res, tied


def exhaustive_code(
    A: BlockDict, y, s: int | None = None, tol: float = DEFAULT_CODING_TOL
) -> CodingResult:
    """Minimum-residual s-block-sparse code by enumerating every support.

    The one-column case of `_min_residual_codes` (energy ranking of all
    C(K, s) supports, exact re-check of near ties, one solve for the winner);
    ties within tol go to the lexicographically smallest support (`tied`).

    Raises
    ------
    CapacityError
        When C(K, s) exceeds DEFAULT_ENUMERATION_CAP.
    """
    y, e, s = _check_measurement(A, y, s, tol)
    X, res, tied = _min_residual_codes(_factor(A, s), y[:, None], tol)
    residual = _relative(float(res[0]), float(np.linalg.norm(y)))
    return CodingResult(BlockSparseVec(A.structure, np.ldexp(X[:, 0], e)), residual,
                        METHOD_EXHAUSTIVE, bool(tied[0]))
