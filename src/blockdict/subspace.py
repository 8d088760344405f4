"""Span algebra over column-blocks.

Subspaces are carried as orthonormal bases from one batched SVD, `_bases`, zero past their ranks
under the library's one rank rule, `core._numerical_rank`. The one support-basis kernel,
`_support_bases`, keeps a QR's Q where R proves that rank at its caller's cut (`verify`'s 1e-8, the
minimum-residual coder's lstsq cut) and takes `_bases` elsewhere. Span equality is decided by one
kernel over such stacks, `_spans_equal_stacked`: two spans of common rank r, stated by the caller,
are equal when r principal cosines are at least 1 - tol, i.e. every principal angle is below
arccos(1 - tol) ~ sqrt(2 tol); the one intersection kernel, `_intersect`, keeps the principal
vectors of such cosines. `check_lemma1` first tries a certificate from one Gram of the
block-whitened A; where it fails, span equality runs only on pairs passing a Frobenius pre-screen,
`_screen`. The one nearest-support-span kernel, `_nearest_spans`, ranks D's support spans by their
residual energy against stacked query groups of g columns and rechecks the near ones by exact
residual: the minimum-residual coder's samples at g = 1, `verify_theorem_instance`'s bases Q_S of
A's supports at their width.
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

_STACK = 2**20  # about the entries a stacked array of bases holds


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal basis for a subspace of R^ambient_dim."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        arr = np.array(self.basis, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != self.ambient_dim:
            raise ValueError(f"basis must be {self.ambient_dim} x dim, got shape {arr.shape}")
        if not np.allclose(arr.T @ arr, np.eye(arr.shape[1]), atol=1e-8):  # dimension 0 passes
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


def _spans_equal_stacked(Q1: np.ndarray, Q2: np.ndarray, tol: float, r) -> np.ndarray:
    """Per pair of stacked (..., P, d) bases of common rank r, orthonormal up to r and zero past
    it as `_bases` makes them: r principal cosines (singular values of Q1^T Q2) >= 1 - tol.
    Leading axes and r broadcast; pairs of rank 0 are equal."""
    cos = np.linalg.svd(np.swapaxes(Q1, -1, -2) @ Q2, compute_uv=False)
    return np.sum(cos >= 1.0 - tol, axis=-1) >= r


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
    return Q1.dim == Q2.dim and bool(_spans_equal_stacked(Q1.basis, Q2.basis, tol, Q1.dim))


def subspace_intersection(M1, M2, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the intersection of two column spans.

    Principal vectors whose cosine is >= 1 - tol are kept; a dimension-0
    intersection, as from a dimension-0 input, is a valid (empty) basis.
    """
    Q1, Q2 = _two_bases(M1, M2, tol)
    inter, k = _intersect(Q1.basis, Q2.basis, tol, min(Q1.dim, Q2.dim))
    return SubspaceBasis(Q1.ambient_dim, inter[:, :k])


def _intersect(Q1: np.ndarray, Q2: np.ndarray, tol: float, r) -> tuple[np.ndarray, np.ndarray]:
    """(basis, k) per pair of stacked (..., P, d) bases, zero past their ranks as `_bases` makes
    them: Q1's k <= r principal vectors of cosine >= 1 - tol, an orthonormal basis of span Q1 &
    span Q2, and zero past k. Leading axes and r broadcast; r = the lesser rank drops padding's."""
    W, cos, _ = np.linalg.svd(np.swapaxes(Q1, -1, -2) @ Q2)
    k = np.minimum(np.sum(cos >= 1.0 - tol, axis=-1), r)
    return Q1 @ (W * (np.arange(W.shape[-1]) < k[..., None, None])), k


def _screen(Q: np.ndarray, r, floor):
    """Frobenius pre-screen of stacked (n, P, d) bases, zero past their ranks r as `_bases` makes
    them: per block of rows lo.. whose pairs stack about _STACK basis entries, (sums, a, b), sums[i,
    b - lo] = ||Q_b^T Q_(lo + i)||_F^2 the squared principal cosines summed over b >= lo, and (a, b)
    the block's pairs with a sum of at least floor[a] and r[b] >= r[a]."""
    n, P, d = Q.shape
    flat = Q.transpose(0, 2, 1).reshape(-1, P)
    for lo in range(0, n, step := max(1, _STACK // (n * P * d))):
        np.square(sums := flat[lo * d : (lo + step) * d] @ flat[lo * d :].T, out=sums)
        sums = (sums.reshape(-1, d) @ np.ones(d)).reshape(-1, d, n - lo).sum(axis=1)
        rows = slice(lo, lo + step)
        a, b = np.nonzero((sums >= floor[rows, None]) & (r[lo:] >= r[rows, None]))
        yield sums, a + lo, b + lo


def _support_bases(*lists, tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(bases, ranks) of the columns M of every support of each (D, supports) pair, in order, each
    at its `_unit_scale`, with `_bases`' ranks and spans at cut tol: one stacked QR M = Q R keeps Q
    where R proves full rank, one `_bases` SVD serves the rest. Let c be R's largest column norm and
    rho = min |r_kk| / c: R = diag(r_kk) (I + N), |N_ij| <= 1/rho, and |(I + N)^-1| is at most its
    comparison matrix's inverse, whose rows and columns sum to at most (1 + 1/rho)^(n-1) (Higham,
    ch. 8), so sigma_min(R) >= rho c / (1 + 1/rho)^(n-1); as sigma_max(R) <= sqrt(n) c, sigma_min /
    sigma_max >= b = rho / (n (1 + 1/rho)^(n-1)). QR and SVD err by at most e sigma_max, e = 16 P
    n^2 eps (Higham, ch. 19), so b > tol + 2e gives the rank rule's n; a zero (rho NaN),
    rank-short or ill-conditioned support, or n > P (R is not square), takes the SVD."""
    M = np.concatenate([D.data[:, _support_columns(x, D.structure.alpha)].transpose(1, 0, 2)
                        for D, x in lists])
    M, (P, n) = _unit_scale(M, (1, 2))[0], M.shape[1:]
    Q, R = np.linalg.qr(M)  # Q: P x min(P, n), as `_bases`' U
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # NaN certifies nothing
        rho = np.abs(np.diagonal(R, axis1=1, axis2=2)).min(1) / np.linalg.norm(R, axis=1).max(1)
        b = rho / (n * (1 + 1 / rho) ** (n - 1))
        fall = (n > P) | ~(b > tol + 2 * 16 * P * n**2 * np.finfo(float).eps)  # 2e
    ranks = np.full(len(M), n)
    if fall.any():
        Q[fall], ranks[fall] = _bases(M[fall], tol)[:2]
    return Q, ranks


def _nearest_spans(D: BlockDict, sups: np.ndarray, Y: np.ndarray, tol: float, cut: float,
                   limit: float | None = None, bases=None, budget: int | None = None):
    """Which of D's support spans (rows of sups) hold, or lie nearest to, each of the m stacked
    groups Q (P x g) of Y: the coder's samples at g = 1, `verify`'s bases Q_S (zero past their
    ranks). T's residual is ||R||_2, R = Q - Q_T Q_T^T Q on its basis Q_T (bases, else
    `_support_bases` at cut); its energy ||R||_F^2 = ||Q||_F^2 - ||Q_T^T Q||_F^2 errs by under
    margin = 2 (sqrt(s alpha) + 2)(P + s alpha) eps ||Q||_F^2 (twice a first-order rounding bound;
    Higham, ch. 3). So the candidates, energies at most (sqrt(least + margin) + tol ||Q||_F)^2 +
    margin, hold every T within tol ||Q||_F of the least residual, and every T of residual at most
    tol ||Q||_F / sqrt(rank Q). Their exact residuals are taken where a group has several, or for
    every group given a limit; counted are the T's at most limit, else within tol ||Q||_F of the
    least (or the lone candidate). Stacks hold about budget (default _STACK) entries: bases (made
    once while they fit, else per support block), a group chunk's energies and projections, and
    residual pairs. Returns (T, group, residual) of every exact check, then per group the count,
    the first T counted (any if none), the T of least energy and its residual (inf unchecked)."""
    (m, P, g), fp, budget = Y.shape, np.finfo(float), budget or _STACK
    width = sups.shape[1] * D.structure.alpha
    d = min(P, width)  # a basis's columns
    if bases is None and len(sups) * P * d <= budget:
        bases = _support_bases((D, sups), tol=cut)[0]

    def basis(ks):  # the bases of supports ks
        return _support_bases((D, sups[ks]), tol=cut)[0] if bases is None else bases[ks]

    flat = Y.transpose(1, 0, 2).reshape(P, -1)  # the groups side by side
    qsq = np.einsum("ij,ij->j", flat, flat).reshape(m, g).sum(axis=1)  # ||Q||_F^2
    window, margin = tol * np.sqrt(qsq), 2 * (math.sqrt(width) + 2) * (P + width) * fp.eps * qsq
    margin[margin < fp.tiny] = np.inf  # an underflowing margin bounds nothing
    parts, step, pairs = [], max(1, budget // len(sups)), max(1, budget // (P * (d + g)))
    for c in (slice(lo, lo + step) for lo in range(0, m, step)):
        Yc = flat[:, c.start * g : c.stop * g]
        block = max(1, budget // (d * (P + Yc.shape[1])))  # bases and projections
        Z = [np.square(basis(slice(lo, lo + block)).swapaxes(1, 2) @ Yc).reshape(
            -1, d, Yc.shape[1] // g, g).sum(axis=(1, 3)) for lo in range(0, len(sups), block)]
        E = qsq[c] - np.concatenate(Z)
        bound = (np.sqrt(np.abs(E.min(axis=0) + margin[c])) + window[c]) ** 2 + margin[c]
        cand = ~(E > bound)  # NaN energies and bounds make candidates
        again = cand.sum(axis=0) > (limit is None)  # several candidates, or any under a limit
        k, j = np.divmod(np.flatnonzero(cand & again), E.shape[1])
        R = np.full(E.shape, np.inf)
        for p in (slice(i, i + pairs) for i in range(0, len(k), pairs)):
            QT, Q = basis(k[p]), Y[c.start + j[p]]
            W = Q - QT @ (QT.swapaxes(1, 2) @ Q)  # each pair's R
            R[k[p], j[p]] = np.sqrt(np.maximum(np.linalg.eigvalsh(W.swapaxes(1, 2) @ W)[:, -1], 0))
        within = np.where(again, R <= (R.min(axis=0) + window[c] if limit is None else limit), cand)
        near = E.argmin(axis=0)
        parts.append((k, j + c.start, R[k, j], within.sum(axis=0), within.argmax(axis=0), near,
                      R[near, np.arange(len(near))]))
    return tuple(map(np.concatenate, zip(*parts)))


def _pair_supports(K: int, s: int) -> np.ndarray:
    """The size-s supports; CapacityError when their C(K, s)^2 ordered pairs exceed the cap."""
    if (n_pairs := math.comb(K, s) ** 2) > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"C({K}, {s})^2 = {n_pairs} pairs exceeds the enumeration cap "
                            f"{DEFAULT_ENUMERATION_CAP}")
    return _enumerate_supports(K, s)


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
    the certificate's power-of-two scale, so the answer does not depend on A's scale; the
    Frobenius pre-screen `_screen` sends each row block's same-rank pairs near equality to the
    exact kernel in one call at their rank.

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
        T = _enumerate_supports(K, s + 1)
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
    # equal rank-r spans have r squared principal cosines >= (1 - tol)^2 (every r is 0 once
    # tol >= 1): only pairs above that floor reach the kernel
    for _, a, b in _screen(U, ranks, ranks * (1.0 - tol) ** 2 - 1e-9):
        a, b = a[pair := (a < b) & (ranks[a] == ranks[b])], b[pair]
        if a.size and _spans_equal_stacked(U[a], U[b], tol, ranks[a]).any():
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
    basis U and each pair's A_(S & S') basis C (blocks of S outside S' zeroed); a pair holds when
    `_intersect` of U_a and U_b at their lesser rank keeps r = rank C vectors spanning C."""
    (P, _), n, alpha = A.data.shape, len(supports), A.structure.alpha
    M = A.data[:, _support_columns(supports, alpha)].transpose(1, 0, 2)
    keep = np.repeat((supports[:, None, :, None] == supports[None, :, None]).any(-1), alpha, -1)
    U, ranks = _bases(M, tol)[:2]
    d, holds = U.shape[-1], np.empty((n, n), dtype=bool)
    step = max(1, _STACK // (n * P * d))
    for a in (slice(lo, lo + step) for lo in range(0, n, step)):
        C, common = _bases(M[a, None] * keep[a, :, None], tol)[:2]
        inter, r = _intersect(U[a, None], U, tol, np.minimum(ranks[a, None], ranks))
        holds[a] = (r == common) & _spans_equal_stacked(inter, C, tol, r)
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
