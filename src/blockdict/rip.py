"""Block restricted isometry constants.

For a support T the constant is delta_T = max(lmax(G) - 1, 1 - lmin(G))
where G is the Gram matrix of the columns of the blocks in T, so that
(1 - delta) ||x||^2 <= ||A x||^2 <= (1 + delta) ||x||^2 holds for every x
supported on T. The level-t constant is the max of delta_T over all
t-element supports, computed by exact enumeration or bounded from below
by seeded sampling, with each delta_T that a block-norm bound and then a
Gelfand bound cannot rule out read from one Gram matrix A^T A by batched
eigenvalue calls; `rip_constant` picks between the two by the enumeration cap.

This module also holds the library's one support-enumeration layer
(lexicographic enumeration under a cap, seeded distinct sampling), which
span checks, exhaustive coding and theorem verification share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .core import BlockDict, Support, _check_ints, as_support
from .errors import CapacityError

DEFAULT_ENUMERATION_CAP = 10**6

# supports per batched eigvalsh call or bound step, so memory stays bounded up to the cap
_RIP_CHUNK = 4096
# past this many supports, bounds prune the eigen-solves
_RIP_HEAD = 16


def _enumerate_supports(K: int, t: int) -> np.ndarray:
    """All C(K, t) size-t supports in lexicographic order, one per row, read-only.

    Raises CapacityError when C(K, t) exceeds DEFAULT_ENUMERATION_CAP. Memoised up to _RIP_CHUNK.
    """
    if (total := math.comb(K, t)) > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"C({K}, {t}) = {total} supports exceeds the enumeration cap "
                            f"{DEFAULT_ENUMERATION_CAP}")
    return (_lexicographic if total <= _RIP_CHUNK else _lexicographic.__wrapped__)(K, t)


@functools.lru_cache(maxsize=64)
def _lexicographic(K: int, t: int) -> np.ndarray:
    flat, n = chain.from_iterable(combinations(range(1, K + 1), t)), math.comb(K, t)
    table = np.fromiter(flat, dtype=np.intp, count=n * t).reshape(n, t)  # t = 0: one empty row
    table.setflags(write=False)
    return table


def _sample_supports(K: int, t: int, n: int, seed: int) -> np.ndarray:
    """n distinct size-t supports drawn from seed, one per row in draw order.

    Each draw takes rng.random(K) keys and keeps the blocks of the t smallest,
    sorted; repeats (keyed by the int64 sum of 2^(b - 1), by row bytes past K = 63)
    are skipped; draws come first in a batch of C ln((C + 1/2) / (C - n + 1/2)), at most
    C = C(K, t), then of the missing times C / (C - found): the stream of one at a time.
    Every support, in lexicographic order, when n >= C(K, t). Raises CapacityError when
    min(n, C(K, t)) exceeds DEFAULT_ENUMERATION_CAP, and ValueError for a seed not an integer >= 0.
    """
    _check_ints(0, seed=seed)
    total = math.comb(K, t)
    if n >= total:
        return _enumerate_supports(K, t)
    if n > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"n = {n} supports exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    rng = np.random.default_rng(seed)
    row = np.dtype((np.void, t * np.dtype(np.intp).itemsize))
    kept = np.empty((0, t), dtype=np.intp)
    draws = min(total, math.ceil(total * math.log((total + 0.5) / (total - n + 0.5))))
    while len(kept) < n:
        new = np.sort(np.argpartition(rng.random((draws, K)), t - 1, axis=1)[:, :t], axis=1) + 1
        rows = np.concatenate([kept, new])
        keys = np.left_shift(1, rows - 1) @ np.ones(t, np.int64) if K <= 63 else rows.view(row)
        _, first = np.unique(keys.ravel(), return_index=True)
        kept = rows[np.sort(first)[:n]]
        draws = -(-(n - len(kept)) * total // (total - len(kept)))
    return kept


def _support_columns(supports: np.ndarray, alpha: int) -> np.ndarray:
    """Dictionary column indices of the blocks of each support, one row each."""
    cols = (supports - 1)[:, :, None] * alpha + np.arange(alpha)
    return cols.reshape(len(supports), -1)


MODE_EXACT = "exact-enumeration"
MODE_SAMPLED = "sampled-lower-bound"


@dataclass(frozen=True)
class RipReport:
    """Result of a level-t restricted isometry computation."""

    level: int
    delta: float
    mode: str
    worst_support: Support
    supports_examined: int

    def to_dict(self) -> dict:
        return {**vars(self), "worst_support": list(self.worst_support)}


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN bounds are never skipped
def _support_bounds(gram: np.ndarray, supports: np.ndarray, alpha: int) -> np.ndarray:
    """Upper bound on delta_T = ||E_T||_2, E = gram - I, for each row T of `supports`.

    ||E_T||_2 is at most the Perron root r of N_T, the t x t norms of E_T's blocks
    (spectral when alpha = 2, else Frobenius). Collatz-Wielandt on N_T + I gives
    r <= max_i (N_T x)_i / x_i for any x > 0; here x = (N_T + I)^3 1.
    """
    K = len(gram) // alpha
    E = (gram - np.eye(len(gram))).reshape(K, alpha, K, alpha)
    if alpha == 2:  # [[a, b], [c, d]] has singular values (|a+d, c-b| +- |a-d, b+c|) / 2
        a, b, c, d = E[:, 0, :, 0], E[:, 0, :, 1], E[:, 1, :, 0], E[:, 1, :, 1]
        N = (np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) / 2
    else:
        N = np.sqrt((E * E).sum(axis=(1, 3)))
    bounds = np.empty(len(supports))
    for start in range(0, len(supports), _RIP_CHUNK):
        s = np.subtract(supports[start : start + _RIP_CHUNK].T, 1, order="C")
        NT = N.take(s[:, None] * K + s)  # NT[i, j, m] = N[T_m(i), T_m(j)]
        x = np.ones(s.shape)
        for _ in range(3):
            x += (NT * x).sum(axis=1)
        bounds[start : start + s.shape[1]] = ((NT * x).sum(axis=1) / x).max(axis=0)
    return bounds


def _slack(t: int, alpha: int, bound):
    """Rounding allowance for a computed delta_T near bound: eigvalsh errs by a small
    multiple of d^2 eps ||G_T||, d = t alpha, and ||G_T|| <= 1 + delta_T."""
    return 16 * (t * alpha) ** 2 * np.finfo(float).eps * (1.0 + bound)


@np.errstate(over="ignore", invalid="ignore")  # a NaN floor rules nothing out
def _rayleigh_floors(data: np.ndarray, alpha: int, t: int) -> np.ndarray:
    """Per draw data[k] of an (n, P, K*alpha) stack, a lower bound on its exact level-t
    constant less `_slack`: delta_T >= x^T G_T x / x^T x - 1 with x = G_T^6 1, for each
    size-t support T of one stacked Gram G. Column T of X holds x_T, zero off T, so
    G_T x_T is column T of mask * (G X)."""
    supports = _enumerate_supports(data.shape[2] // alpha, t)
    gram, bound = np.swapaxes(data, 1, 2) @ data, -np.inf
    for start in range(0, len(supports), step := max(1, _RIP_CHUNK // len(data))):
        cols = _support_columns(supports[start : start + step], alpha)
        y = mask = np.zeros((gram.shape[1], len(cols)))
        mask[cols.T, np.arange(len(cols))] = 1.0
        for _ in range(7):
            x, y = y, mask * (gram @ y)
        quotients = (x * y).sum(axis=1) / (x * x).sum(axis=1)
        bound = np.maximum(bound, quotients.max(axis=1) - 1.0)  # NaN stays NaN
    return bound - _slack(t, alpha, bound)


def _gram(M: np.ndarray) -> np.ndarray:
    """M^T M; raises ValueError when its entries overflow."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
        gram = M.T @ M
    if not np.isfinite(gram).all():
        raise ValueError("the Gram matrix A^T A is not finite: its entries overflow")
    return gram


def _support_deltas(gram: np.ndarray, supports: np.ndarray, alpha: int) -> np.ndarray:
    """delta_T for every row T of `supports`, read from the blocks' Gram matrix."""
    deltas = np.empty(len(supports))
    for start in range(0, len(supports), _RIP_CHUNK):
        idx = _support_columns(supports[start : start + _RIP_CHUNK], alpha)
        eigs = np.linalg.eigvalsh(gram.take(idx[:, :, None] * len(gram) + idx[:, None, :]))
        deltas[start : start + len(idx)] = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
    return deltas


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN bounds are never skipped
def _gelfand_bounds(gram: np.ndarray, supports: np.ndarray, alpha: int) -> np.ndarray:
    """||E_T^8||_F^(1/8) >= ||E_T||_2 = delta_T for each row T of `supports`, E = gram - I."""
    bounds = np.empty(len(supports))
    for start in range(0, len(supports), _RIP_CHUNK):
        idx = _support_columns(supports[start : start + _RIP_CHUNK], alpha)
        E = gram.take(idx[:, :, None] * len(gram) + idx[:, None, :]) - np.eye(idx.shape[1])
        E8 = np.linalg.matrix_power(E, 8)  # three squarings
        bounds[start : start + len(idx)] = np.square(E8).sum(axis=(1, 2)) ** (1 / 16)
    return bounds


def _rip_report(A: BlockDict, t: int, supports: np.ndarray, mode: str) -> RipReport:
    """Max of delta_T over the given supports, all from the one Gram A^T A.

    The first maximizer is the worst support. Past _RIP_HEAD supports, the block-norm
    bound, then the Gelfand bound on the supports it keeps, has its top support solved
    and drops those whose bound plus `_slack` falls short of the max. E_T = G_T - I is
    symmetric: ||E_T^8||_F^(1/8) = (sum of l^16 over its d = t alpha eigenvalues)^(1/16) >=
    delta_T. A squaring X X errs by <= d eps ||X||_F^2 <= d^1.5 eps ||X^2||_F, so the bound
    by ~d^1.5 eps relative, inside 16 d^2 eps; underflow, by < 2^-63; NaN and inf stay.
    """
    gram, alpha = _gram(A.data), A.structure.alpha
    if len(supports) <= _RIP_HEAD:
        deltas = _support_deltas(gram, supports, alpha)
    else:
        deltas, near = np.full(len(supports), -np.inf), np.arange(len(supports))
        for bound in (_support_bounds, _gelfand_bounds):
            bounds = bound(gram, supports[near], alpha)
            if np.isneginf(deltas[top := near[bounds.argmax()]]):  # a NaN bound is the argmax
                deltas[top] = _support_deltas(gram, supports[top, None], alpha)[0]
            near = near[~(bounds + _slack(t, alpha, bounds) < deltas.max())]  # NaN stays
        rest = near[np.isneginf(deltas[near])]
        deltas[rest] = _support_deltas(gram, supports[rest], alpha)
    k = int(deltas.argmax())
    return RipReport(t, float(deltas[k]), mode, tuple(supports[k].tolist()), len(supports))


def _check_level(A: BlockDict, t: int) -> None:
    _check_ints(None, t=t)
    if not 1 <= t <= A.structure.K:
        raise ValueError(f"level t must satisfy 1 <= t <= K, got t={t}, K={A.structure.K}")


def rip_constant_for_support(A: BlockDict, T) -> float:
    """Restricted isometry constant of the columns of A restricted to blocks T.

    The value is invariant under reordering of T. Eigenvalues are reported
    as computed; values within floating error of the unit interval boundary
    are not rounded.
    """
    sup = as_support(T, A.structure.K)
    if not sup:
        raise ValueError("support must be nonempty")
    cols = A.restrict(sup)
    # in the Gram of its own columns, the support is blocks 1..len(sup)
    own = np.arange(1, len(sup) + 1)[None]
    return float(_support_deltas(_gram(cols), own, A.structure.alpha)[0])


def rip_constant_exact(A: BlockDict, t: int) -> RipReport:
    """Level-t constant by enumerating all C(K, t) supports.

    Parameters
    ----------
    A : BlockDict
    t : int
        Support size to examine, 1 <= t <= K.

    Returns
    -------
    RipReport
        delta is the max over supports; worst_support is the first support
        (in lexicographic order) attaining it.

    Raises
    ------
    CapacityError
        If C(K, t) > DEFAULT_ENUMERATION_CAP; use `rip_lower_bound_sampled` instead.
    """
    _check_level(A, t)
    supports = _enumerate_supports(A.structure.K, t)
    return _rip_report(A, t, supports, MODE_EXACT)


def rip_lower_bound_sampled(
    A: BlockDict, t: int, n_samples: int, seed: int
) -> RipReport:
    """Lower bound on the level-t constant from sampled supports.

    Maximizes over the distinct supports that the shared sampler draws from
    `seed` (every support once n_samples >= C(K, t), making the bound
    tight), so the result never exceeds the exact constant. worst_support
    is the first maximizer in draw order. Raises CapacityError when
    min(n_samples, C(K, t)) exceeds DEFAULT_ENUMERATION_CAP.
    """
    _check_level(A, t)
    _check_ints(1, n_samples=n_samples)
    supports = _sample_supports(A.structure.K, t, n_samples, seed)
    return _rip_report(A, t, supports, MODE_SAMPLED)


def rip_constant(A: BlockDict, t: int, seed: int) -> RipReport:
    """Level-t constant: exact while C(K, t) <= DEFAULT_ENUMERATION_CAP, else
    the sampled lower bound over 200 supports drawn from seed."""
    _check_level(A, t)
    if math.comb(A.structure.K, t) <= DEFAULT_ENUMERATION_CAP:
        return rip_constant_exact(A, t)
    return rip_lower_bound_sampled(A, t, n_samples=200, seed=seed)
