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
`_screen`. The same screen feeds `_containment`, the residual sines of span Q_S inside span Q_T from
which `verify_theorem_instance` reads the theorem's hypothesis.
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


def _spans_equal_stacked(Q1: np.ndarray, Q2: np.ndarray, tol: float, r) -> np.ndarray:
    """Per pair of stacked (..., P, d) bases of common rank r, orthonormal up to r and zero past
    it as `_bases` makes them: r principal cosines >= 1 - tol. Leading axes and r broadcast;
    pairs of rank 0 are equal."""
    return np.sum(_cosines(Q1, Q2) >= 1.0 - tol, axis=-1) >= r


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


def _screen(Q1: np.ndarray, r1, Q2: np.ndarray, r2, floor, upper: bool = False):
    """Frobenius pre-screen of stacked (n1, P, d1) and (n2, P, d2) bases, zero past their ranks r1
    and r2 as `_bases` makes them: per block of Q1's rows whose pairs stack about _STACK basis
    entries, (sums, a, b), sums[i, b - c] = ||Q2_b^T Q1_(lo + i)||_F^2 the squared principal
    cosines summed, and (a, b) the block's pairs with a sum of at least floor[a] and r2[b] >= r1[a];
    c = 0, or with upper the block's first row lo, so that no b below it is screened."""
    (n1, P, d1), (n2, _, d2) = Q1.shape, Q2.shape
    flat1, flat2 = (Q.transpose(0, 2, 1).reshape(-1, P) for Q in (Q1, Q2))
    for lo in range(0, n1, step := max(1, _STACK // (n2 * P * d2))):
        c = lo if upper else 0
        np.square(sums := flat1[lo * d1 : (lo + step) * d1] @ flat2[c * d2 :].T, out=sums)
        sums = (sums.reshape(-1, d2) @ np.ones(d2)).reshape(-1, d1, n2 - c).sum(axis=1)
        rows = slice(lo, lo + step)
        a, b = np.nonzero((sums >= floor[rows, None]) & (r2[c:] >= r1[rows, None]))
        yield sums, a + lo, b + c


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


def _containment(A: BlockDict, S: np.ndarray, B: BlockDict, T: np.ndarray, tol: float, bases=None):
    """(found, first, near, sine) per support of A in S against B's supports T, all of one size,
    from bases Q_S and Q_T (given as S's then every T's, else `_support_bases`, S's in the call of
    T's first block), T in blocks whose bases and (S, T) tables hold about _STACK entries each: how
    many T hold span Q_S within sine tol and the first of them (any index when none), and the T of
    greatest ||Q_T^T Q_S||_F^2 (the least Frobenius residual) and its sine. A sine is ||Q_S - Q_T
    Q_T^T Q_S||_2, taken on the pairs `_screen` keeps at floor rank_S - 1/2 (every pair whose
    largest principal angle has sine below 1 / sqrt(2 rank_S)) and on each S's nearest T: a residual
    resolves sines near 0 that sqrt(1 - cos^2) does not (below about 1e-8)."""
    (m, width), P = S.shape, A.ambient_dim
    size, parts, r = P * min(P, width * A.structure.alpha), [], np.arange(m)  # size: a basis's
    step = max(1, _STACK // (size + m))
    (QS, Q), (rS, rk) = ((x[:m], x[m:]) for x in bases or _support_bases((A, S), (B, T[:step])))
    for lo in range(0, len(T), step):
        QT, rT = ((Q[lo : lo + step], rk[lo : lo + step]) if lo < len(Q)  # given, or the first
                  else _support_bases((B, T[lo : lo + step])))
        sums, a, b = map(np.concatenate, zip(*_screen(QS, rS, QT, rT, rS - 0.5)))
        keep, j = np.zeros(sums.shape, dtype=bool), sums.argmax(axis=1)
        keep[a, b] = keep[r, j] = True
        a, b = np.nonzero(keep)
        sines = np.full(sums.shape, np.inf)
        for c in (slice(i, i + step) for i in range(0, len(a), step)):
            Qa, Qb = QS[a[c]], QT[b[c]]
            R = Qa - Qb @ (Qb.swapaxes(1, 2) @ Qa)
            R = np.linalg.eigvalsh(R.swapaxes(1, 2) @ R)[:, -1]
            sines[a[c], b[c]] = np.sqrt(np.maximum(R, 0.0))
        hit = sines <= tol
        parts.append((hit.sum(axis=1), lo + hit.argmax(axis=1), sums[r, j], lo + j, sines[r, j]))
    count, first, best, near, sine = map(np.array, zip(*parts))  # (blocks, m) each
    k = best.argmax(axis=0)  # the first block of greatest sum holds the first such T
    return count.sum(axis=0), first[(count > 0).argmax(axis=0), r], near[k, r], sine[k, r]


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
    for _, a, b in _screen(U, ranks, U, ranks, ranks * (1.0 - tol) ** 2 - 1e-9, upper=True):
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
