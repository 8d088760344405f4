"""Span algebra over column-blocks.

Subspaces are carried as orthonormal bases from one batched SVD, `_bases`, zero past their
ranks under the library's one rank rule, `core._numerical_rank`. Span equality is decided by one
kernel over stacked bases, `_spans_equal_stacked`: two spans of equal dimension are equal when
every principal cosine is at least 1 - tol, i.e. every principal angle is below arccos(1 - tol)
~ sqrt(2 tol). `check_lemma1` first tries a certificate from one Gram of the block-whitened A;
where it fails, that kernel runs only on support pairs passing a Frobenius pre-screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_RANK_TOL, BlockDict, _check_s, _check_tols, _numerical_rank, as_support
from .core import _unit_scale
from .errors import CapacityError
from .rip import (DEFAULT_ENUMERATION_CAP, _enumerate_supports, _slack, _support_bounds,
                  _support_columns, _support_deltas)


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal basis for a subspace of R^ambient_dim."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        arr = np.array(self.basis, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != self.ambient_dim:
            raise ValueError(f"basis must be {self.ambient_dim} x dim, got shape {arr.shape}")
        if arr.shape[1]:
            gram = arr.T @ arr
            if not np.allclose(gram, np.eye(arr.shape[1]), atol=1e-8):
                raise ValueError("basis columns are not orthonormal")
        arr.setflags(write=False)
        object.__setattr__(self, "basis", arr)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def orthonormal_basis(M, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column span of M.

    Rank is the number of singular values above tol times the largest;
    an all-zero or empty M yields a dimension-0 basis.
    """
    _check_tols(tol=tol)
    arr = np.asarray(M, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    U, rank = _bases(arr, tol)[:2]
    return SubspaceBasis(arr.shape[0], U[:, : int(rank)])


def _bases(M: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """(U, ranks, sv, Vt): one batched thin SVD U sv Vt of stacked (..., P, d) matrices and their
    ranks under the rank rule; past its rank, U is 0 and sv 1, so U is an orthonormal basis with
    min(P, d) columns and V (U^T y / sv) the minimum-norm least-squares solution at cut tol."""
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    ranks = _numerical_rank(sv, tol)
    past = np.arange(sv.shape[-1]) >= ranks[..., None]
    U *= ~past[..., None, :]
    sv[past] = 1.0
    return U, ranks, sv, Vt


def _cosines(Q1: np.ndarray, Q2: np.ndarray) -> np.ndarray:
    """Principal cosines, descending, of stacked orthonormal bases (..., P, d)."""
    return np.clip(np.linalg.svd(np.swapaxes(Q1, -1, -2) @ Q2, compute_uv=False), 0.0, 1.0)


def _spans_equal_stacked(Q1: np.ndarray, Q2: np.ndarray, tol: float) -> np.ndarray:
    """Per pair of stacked (..., P, d) orthonormal bases: every principal cosine >= 1 - tol.

    Leading axes broadcast; pairs of dimension 0 are equal.
    """
    return np.all(_cosines(Q1, Q2) >= 1.0 - tol, axis=-1)


def _two_bases(M1, M2, tol: float) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Orthonormal bases of M1 and M2 (kept if already bases), in one ambient space."""
    _check_tols(tol=tol)
    Q1 = M1 if isinstance(M1, SubspaceBasis) else orthonormal_basis(M1, tol)
    Q2 = M2 if isinstance(M2, SubspaceBasis) else orthonormal_basis(M2, tol)
    if Q1.ambient_dim != Q2.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {Q1.ambient_dim} vs {Q2.ambient_dim}")
    return Q1, Q2


def spans_equal(M1, M2, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Whether the column spans of M1 and M2 coincide.

    True iff both spans have the same dimension d (at rank tolerance tol)
    and all d principal cosines are >= 1 - tol. At tol = 0 the answer is
    decided by the last bit of an SVD; tol > 0 (default 1e-8) is the supported regime.
    """
    Q1, Q2 = _two_bases(M1, M2, tol)
    return Q1.dim == Q2.dim and bool(_spans_equal_stacked(Q1.basis, Q2.basis, tol))


def subspace_intersection(M1, M2, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the intersection of two column spans.

    Principal vectors whose cosine is >= 1 - tol are kept; a dimension-0
    intersection, as from a dimension-0 input, is a valid (empty) basis.
    """
    Q1, Q2 = _two_bases(M1, M2, tol)
    U, cos, _ = np.linalg.svd(Q1.basis.T @ Q2.basis)
    keep = np.clip(cos, 0.0, 1.0) >= 1.0 - tol
    return SubspaceBasis(Q1.ambient_dim, Q1.basis @ U[:, : int(np.sum(keep))])


def _pair_supports(K: int, s: int) -> np.ndarray:
    """The size-s supports; CapacityError when their C(K, s)^2 ordered pairs exceed the cap."""
    if (n_pairs := math.comb(K, s) ** 2) > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"C({K}, {s})^2 = {n_pairs} pairs exceeds the enumeration cap "
                            f"{DEFAULT_ENUMERATION_CAP}")
    return _enumerate_supports(K, s, DEFAULT_ENUMERATION_CAP)


def check_lemma1(A: BlockDict, s: int | None = None, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Whether all distinct size-s block supports of A span distinct subspaces.

    This is the span-separation property that a restricted isometry constant below 1 at
    level 2s guarantees. Let Q be A with each block replaced by its SVD's U. If S != S' have
    all principal cosines >= 1 - tol >= 0 and j is in S' - S, a unit v = Q_j u has v - P_S v =
    Q_T [u; -y] on T = S + {j}, of squared norm <= 1 - (1 - tol)^2: sigma_min(Q_T) <=
    sqrt(tol (2 - tol)). And S in T has A_S = Q_S diag(R_i): sigma_d / sigma_1 (A_S) >= rho_T =
    kappa sigma_min(Q_T) / sqrt(s + 1), kappa = least block sigma_min / greatest block sigma_max.
    With e = 16 P (s + 1)^2 alpha^2 eps bounding an SVD's relative backward error, a basis from
    M is within an angle e sigma_1 / sigma_d of span M; to first order kappa errs by 2e (taken
    off it), the blocks' bases move rho_T by 3e, the rank rule needs e (1 + tol), the fallback's
    largest angle moves by a / rho_T, a = 5 (s + 1) e, and its cosines by 3e. So True when each
    (s + 1)-block T has rho_T > tol + a and sigma_min(Q_T) > sqrt((tol + 3e)(2 - tol)) + a / rho_T,
    lmin(Q_T^T Q_T) from `rip._support_bounds`, else eigvalsh, less `rip._slack` and e.

    Otherwise every support's basis and rank come from one batched SVD (`_bases`) of A at
    the certificate's power-of-two scale, so the answer does not depend on A's scale; a
    Frobenius pre-screen in O(C(K, s) P d) memory, d = s alpha, sends only the same-rank
    pairs near equality to the exact kernel.

    Raises CapacityError when C(K, s)^2 exceeds DEFAULT_ENUMERATION_CAP.
    """
    _check_tols(tol=tol)
    s = _check_s(A.structure, s)
    (P, n), K, alpha = A.data.shape, A.structure.K, A.structure.alpha
    supports = _pair_supports(K, s)
    M = _unit_scale(A.data, None)[0]  # every span is kept
    if (s + 1) * alpha <= P:  # else every lmin is 0
        U, sv, _ = np.linalg.svd(M.reshape(P, K, alpha).swapaxes(0, 1), full_matrices=False)
        gram = (W := U.swapaxes(0, 1).reshape(P, n)).T @ W  # Q^T Q
        T = _enumerate_supports(K, s + 1, DEFAULT_ENUMERATION_CAP)
        e = 16 * P * ((s + 1) * alpha) ** 2 * np.finfo(float).eps
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # NaN certifies nothing
            kappa, a = sv[:, -1].min() / sv[:, 0].max() - 2 * e, 5 * (s + 1) * e
            lo = 1 - (bound := _support_bounds(gram, T, alpha)) - _slack(s + 1, alpha, bound) - e
            for solve in (False, True):
                if solve:  # G_T / (s + 1) has eigenvalues in [0, 1]: delta_T = 1 - lmin / (s + 1)
                    lo[~ok] = (s + 1) * (1 - _support_deltas(gram / (s + 1), T[~ok], alpha)) - (
                        _slack(s + 1, alpha, s) + e)
                rho = kappa * np.sqrt(lo / (s + 1))
                ok = (rho > tol + a) & (np.sqrt(lo) > np.sqrt((tol + 3 * e) * (2 - tol)) + a / rho)
                if ok.all():
                    return True
    U, ranks = _bases(M[:, _support_columns(supports, alpha)].transpose(1, 0, 2), tol)[:2]
    n, P, d = U.shape
    # with columns past each rank zeroed, ||U_a^T U_b||_F^2 sums the squared principal
    # cosines, >= r (1 - tol)^2 for equal rank-r spans (every r is 0 once tol >= 1):
    # only pairs above that floor reach the kernel
    flat = U.transpose(0, 2, 1).reshape(n * d, P)
    floor = ranks * (1.0 - tol) ** 2 - 1e-9
    step = max(1, P // (s * alpha))  # blocks of <= n P d entries
    for lo in range(0, n, step):
        fro2 = np.square(flat[lo * d : (lo + step) * d] @ flat[lo * d :].T)
        fro2 = (fro2.reshape(-1, d) @ np.ones(d)).reshape(-1, d, n - lo).sum(axis=1)
        same = ranks[lo : lo + step, None] == ranks[lo:]
        for a, b in lo + np.argwhere(np.triu(same & (fro2 >= floor[lo : lo + step, None]), 1)):
            if _spans_equal_stacked(U[a, :, : ranks[a]], U[b, :, : ranks[a]], tol):
                return False
    return True


def lemma2_all_pairs(A: BlockDict, s: int | None = None,
                     tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Entry (a, b): whether Span{A_S} & Span{A_S'} = Span{A_(S & S')} for the a-th and b-th
    size-s supports S, S' in lexicographic order (Lemma 2). CapacityError past C(K, s)^2 > cap.
    At tol = 0 an entry is decided by the last bit of an SVD; tol > 0 (default 1e-8) is the
    supported regime."""
    _check_tols(tol=tol)
    return _lemma2_pairs(A, _pair_supports(A.structure.K, _check_s(A.structure, s)), tol)


def _lemma2_pairs(A: BlockDict, supports: np.ndarray, tol: float) -> np.ndarray:
    """Lemma 2 on all ordered pairs of the sorted rows of supports: batched SVDs give each support's
    basis U, each pair's A_(S & S') basis C (blocks of S outside S' zeroed) and cosines and vectors
    W of U_a^T U_b; a pair holds when rank C of them are >= 1 - tol and U_a W_r spans C."""
    (P, _), n, alpha = A.data.shape, len(supports), A.structure.alpha
    M = A.data[:, _support_columns(supports, alpha)].transpose(1, 0, 2)
    keep = np.repeat((supports[:, None, :, None] == supports[None, :, None]).any(-1), alpha, -1)
    U, ranks = _bases(M, tol)[:2]
    d, holds = U.shape[-1], np.empty((n, n), dtype=bool)
    step = max(1, 2**20 // (n * P * d))  # stacked arrays of about 2^20 entries
    for a in (slice(lo, lo + step) for lo in range(0, n, step)):
        C, common = _bases(M[a, None] * keep[a, :, None], tol)[:2]
        W, cos, _ = np.linalg.svd(np.swapaxes(U[a], 1, 2)[:, None] @ U)
        # cosines past min(rank a, rank b) come from the bases' zero padding
        r = np.minimum(np.sum(cos >= 1.0 - tol, axis=-1), np.minimum(ranks[a, None], ranks))
        inter = U[a, None] @ (W * (np.arange(d) < r[..., None, None]))  # zero past r, as C
        pad = np.eye(d) * (np.arange(d) >= r[..., None, None])  # past r: one shared unit vector
        inter, C = (np.concatenate([Q, pad], axis=-2) for Q in (inter, C))
        holds[a] = (r == common) & _spans_equal_stacked(inter, C, tol)
    return holds


def check_lemma2(A: BlockDict, S, S2, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Whether Span{A_S} intersected with Span{A_S2} equals Span{A_(S & S2)}.

    Both supports must have size s; the one-pair view of `lemma2_all_pairs`: disjoint
    supports pass exactly when their spans meet only in 0. At tol = 0 the answer is decided
    by the last bit of an SVD; tol > 0 (default 1e-8) is the supported regime."""
    _check_tols(tol=tol)
    pair = [as_support(S, A.structure.K), as_support(S2, A.structure.K)]
    if {len(pair[0]), len(pair[1])} != {A.structure.s}:
        raise ValueError(f"both supports must have size s={A.structure.s}, "
                         f"got {len(pair[0])} and {len(pair[1])}")
    return bool(_lemma2_pairs(A, np.array(pair), tol)[0, 1])
