"""Dictionary equivalence up to block permutation and block-diagonal mixing.

Two block dictionaries A and B are equivalent when A equals B after
permuting whole blocks and multiplying each block by an invertible
alpha x alpha matrix. `recover_equivalence` produces a certificate for
that relation by matching block spans and solving all blocks' least
squares from one stacked SVD; `construct_kappa` probes the support-to-support correspondence
induced by exact block-sparse coding, and `verify_theorem_instance` reads it, with no probe, from
span containment: both through one kernel, `subspace._nearest_spans`, at rank 1 and rank |S| alpha.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coding import DEFAULT_CODING_TOL, _min_residual_codes, _relative
from .core import (BlockDict, BlockStructure, Support, _check_ints, _check_s, _check_tols,
                   _numerical_rank, _unit_scale, as_support)
from .errors import CapacityError, HypothesisViolationError, RankError
from .rip import (DEFAULT_ENUMERATION_CAP, RipReport, _enumerate_supports, _sample_supports,
                  _support_columns, rip_constant)
# not called here: bench/tracing.py rebinds these names in this module
from .coding import exhaustive_code  # noqa: F401
from .rip import rip_constant_exact, rip_lower_bound_sampled  # noqa: F401
from .subspace import orthonormal_basis, spans_equal  # noqa: F401
from .subspace import DEFAULT_RANK_TOL, _bases, _nearest_spans, _spans_equal_stacked, _support_bases

DEFAULT_CERTIFICATE_TOL = 1e-6
DEFAULT_PROBE_TOL = 1e-8
MAX_HYPOTHESIS_SUPPORTS = 128

STATUS_EQUIVALENT = "equivalent"
STATUS_NOT_EQUIVALENT = "not-equivalent"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_OUT_OF_RANGE = "out-of-range"


@dataclass(frozen=True)
class BlockPermutation:
    """A bijection on block indices 1..K, stored as the tuple (pi(1), ..., pi(K))."""

    K: int
    pi: tuple[int, ...]

    def __post_init__(self):
        _check_ints(None, K=self.K, **{f"pi({i})": v for i, v in enumerate(self.pi, 1)})
        pi = tuple(int(v) for v in self.pi)
        if len(pi) != self.K or sorted(pi) != list(range(1, self.K + 1)):
            raise ValueError(f"pi must be a permutation of 1..{self.K}, got {pi}")
        object.__setattr__(self, "pi", pi)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.K:
            raise IndexError(f"block index {i} out of range 1..{self.K}")
        return self.pi[i - 1]

    def inverse(self) -> BlockPermutation:
        return BlockPermutation(self.K, tuple((np.argsort(self.pi) + 1).tolist()))


@dataclass(frozen=True)
class BlockDiagonal:
    """K square alpha x alpha blocks acting block-wise on code vectors."""

    structure: BlockStructure
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        alpha = self.structure.alpha
        if len(self.blocks) != self.structure.K:
            raise ValueError(f"expected {self.structure.K} blocks, got {len(self.blocks)}")
        frozen = []
        for idx, blk in enumerate(self.blocks, start=1):
            arr = np.array(blk, dtype=float)
            if arr.shape != (alpha, alpha):
                raise ValueError(f"block {idx} has shape {arr.shape}, expected {(alpha, alpha)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"block {idx} has non-finite entries")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))

    def is_invertible(self, tol: float = DEFAULT_RANK_TOL) -> bool:
        """All blocks have smallest singular value above tol times the largest."""
        _check_tols(tol=tol)
        svals = np.linalg.svd(np.stack(self.blocks), compute_uv=False)
        return bool(np.all(_numerical_rank(svals, tol) == self.structure.alpha))


@dataclass(frozen=True)
class MatchReport:
    """Outcome of span-matching the blocks of A against the blocks of B."""

    status: str
    permutation: BlockPermutation | None
    matches: dict[int, tuple[int, ...]]
    unmatched: tuple[int, ...]
    ambiguous: tuple[int, ...]


@dataclass(frozen=True)
class EquivalenceCertificate:
    """A witness (permutation, block transforms, residual) for A ~ B."""

    status: str
    permutation: BlockPermutation | None
    diagonal: BlockDiagonal | None
    residual: float | None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "pi": list(self.permutation.pi) if self.permutation else None,
            "D_blocks": (
                [blk.tolist() for blk in self.diagonal.blocks] if self.diagonal else None
            ),
            "residual": self.residual,
        }


def _check_same_shape(A: BlockDict, B: BlockDict) -> None:
    if A.ambient_dim != B.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {A.ambient_dim} vs {B.ambient_dim}")
    if (A.structure.K, A.structure.alpha) != (B.structure.K, B.structure.alpha):
        raise ValueError(
            f"block structures differ: K={A.structure.K}, alpha={A.structure.alpha} "
            f"vs K={B.structure.K}, alpha={B.structure.alpha}"
        )


def match_blocks(A: BlockDict, B: BlockDict, tol: float = DEFAULT_RANK_TOL) -> MatchReport:
    """Match each block of A to the block of B spanning the same subspace.

    Every block of A must match exactly one block of B, and no two blocks
    of A may land on the same target. Blocks with several span-equal
    targets mark the report ambiguous (B has duplicated spans, which a
    restricted isometry constant below 1 rules out); blocks with none, or
    a non-injective assignment, mark it not-equivalent.
    Spans compare as in `spans_equal`, from the one `_block_bases` SVD of the 2K blocks, each at its
    own power of two (so 2^k A and 2^k B match as A and B do, up to the float range's top), and one
    `_spans_equal_stacked` call on all K x K pairs, masked by equal rank. At tol = 0 a match is
    decided by the last bit of an SVD; tol > 0 (default 1e-8) is the supported regime.
    """
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    return _match(*_block_bases(A.data, B.data, A.structure.K, tol)[2:4], tol)


def _block_bases(A: np.ndarray, B: np.ndarray, K: int, tol: float) -> tuple[np.ndarray, ...]:
    """(blocks, e, U, ranks, sv, Vt): A's K equal column blocks then B's, each at its own
    `_unit_scale` 2^-e, and their one `_bases` SVD at tol, which matching and transforms share."""
    M = np.hstack([A, B]).reshape(len(A), 2 * K, A.shape[1] // K)
    blocks, e = _unit_scale(M.swapaxes(0, 1), (1, 2))
    return (blocks, e, *_bases(blocks, tol))


def _match(U: np.ndarray, ranks: np.ndarray, tol: float) -> MatchReport:
    """`match_blocks`' report from `_block_bases`' U and ranks of A's blocks then B's."""
    K = len(U) // 2
    r = ranks[:K, None]
    equal = (r == ranks[K:]) & _spans_equal_stacked(U[:K, None], U[None, K:], tol, r)
    matches = {i: () for i in range(1, K + 1)}
    for i, j in (np.argwhere(equal) + 1).tolist():  # row-major: each block's targets ascend
        matches[i] += (j,)
    unmatched = tuple(i for i, js in matches.items() if not js)
    ambiguous = tuple(i for i, js in matches.items() if len(js) > 1)
    targets = tuple(js[0] for js in matches.values() if js)
    if ambiguous or unmatched or len(set(targets)) != K:
        status = STATUS_AMBIGUOUS if ambiguous else STATUS_NOT_EQUIVALENT
        return MatchReport(status, None, matches, unmatched, ambiguous)
    return MatchReport("matched", BlockPermutation(K, targets), matches, unmatched, ambiguous)


def _block_transforms(bases: tuple, pi) -> tuple[np.ndarray, ...]:
    """(M, relative residuals ||A_i - U U^T A_i||_F / ||A_i||_F, B's ranks) of A's blocks i against
    B's blocks pi(i), from `_block_bases`' blocks, B's U sv Vt and scales 2^-e: M = 2^(e_A - e_B) V
    sv^-1 U^T A_i, the same bytes at any common scale, inf where it overflows."""
    blocks, e, U, ranks, sv, Vt = bases
    K, b = len(pi), len(pi) - 1 + np.asarray(pi)  # b: B's blocks, permuted by pi
    U, sv, Vt = U[b], sv[b], Vt[b]
    As = np.ascontiguousarray(blocks[:K])  # C order: a block's norm sums as in a one-pair call
    Z = U.swapaxes(1, 2) @ As
    rel = _relative(np.linalg.norm(As - U @ Z, axis=(1, 2)), np.linalg.norm(As, axis=(1, 2)))
    with np.errstate(over="ignore"):
        return np.ldexp(Vt.swapaxes(1, 2) @ (Z / sv[:, :, None]), e[:K] - e[b]), rel, ranks[b]


def solve_block_transform(A_block, B_block,
                          rank_tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, float]:
    """Least-squares alpha x alpha transform M minimizing ||A_block - B_block M||_F.

    The one-pair view of `_block_transforms`: returns (M, relative Frobenius residual), and
    raises RankError when B_block is column-rank-deficient, ValueError when either block holds a
    non-finite entry (checked before any SVD) or M overflows.
    """
    _check_tols(rank_tol=rank_tol)
    A_block = np.asarray(A_block, dtype=float)
    B_block = np.asarray(B_block, dtype=float)
    if A_block.shape != B_block.shape or A_block.ndim != 2:
        raise ValueError(f"blocks must share shape P x alpha, got {A_block.shape} and "
                         f"{B_block.shape}")
    if not (np.isfinite(A_block).all() and np.isfinite(B_block).all()):
        raise ValueError("blocks hold non-finite entries")
    M, rel, ranks = _block_transforms(_block_bases(A_block, B_block, 1, rank_tol), [1])
    if ranks[0] < min(B_block.shape):
        raise RankError("target block is rank-deficient")
    if not np.isfinite(M).all():
        raise ValueError("the block transform overflows the float range")
    return M[0], float(rel[0])


def recover_equivalence(A: BlockDict, B: BlockDict, tol: float = DEFAULT_CERTIFICATE_TOL,
                        span_tol: float = DEFAULT_RANK_TOL, *,
                        _bases: tuple | None = None) -> EquivalenceCertificate:
    """Recover a permutation and block transforms carrying B onto A.

    Matches block spans and solves each matched pair's least-squares transform (A's blocks against
    B's permuted by pi) from one `_block_bases` SVD of the 2K blocks, each at its own power of two:
    2^k A and 2^k B get A and B's certificate byte for byte from the top binade down to subnormals.
    `verify_theorem_instance`, which reads that SVD too, passes it as _bases, so it runs once.
    The certificate is `equivalent` only when the matching is a bijection, every transform is
    invertible, and the worst relative block residual is at most tol. A rank-deficient matched
    pair (rank below min(P, alpha) at span_tol) leaves its transform undetermined, so the
    certificate is `ambiguous`; a transform past the float range makes it `out-of-range`, with
    pi and no transforms. Match failures surface as certificate statuses, never exceptions.
    """
    _check_tols(tol=tol, span_tol=span_tol)
    _check_same_shape(A, B)
    bases = _bases or _block_bases(A.data, B.data, A.structure.K, span_tol)
    report = _match(*bases[2:4], span_tol)
    if report.status != "matched":
        return EquivalenceCertificate(report.status, None, None, None)
    perm = report.permutation
    M, rel, ranks = _block_transforms(bases, perm.pi)
    if (ranks < min(bases[0].shape[1:])).any():
        return EquivalenceCertificate(STATUS_AMBIGUOUS, None, None, None)
    if not np.isfinite(M).all():
        return EquivalenceCertificate(STATUS_OUT_OF_RANGE, perm, None, None)
    residual = float(rel.max())
    diag = BlockDiagonal(A.structure, tuple(M))
    ok = diag.is_invertible() and residual <= tol
    status = STATUS_EQUIVALENT if ok else STATUS_NOT_EQUIVALENT
    return EquivalenceCertificate(status, perm, diag, residual)


def apply_transform(B: BlockDict, perm: BlockPermutation, D: BlockDiagonal) -> BlockDict:
    """The dictionary whose block i equals B_{perm(i)} @ D_i."""
    if perm.K != B.structure.K:
        raise ValueError(f"permutation is on {perm.K} blocks, dictionary has {B.structure.K}")
    if (D.structure.K, D.structure.alpha) != (B.structure.K, B.structure.alpha):
        raise ValueError("block-diagonal structure does not match the dictionary")
    data = np.empty_like(B.data)
    for i in range(1, B.structure.K + 1):
        data[:, B.structure.block_slice(i)] = B.block(perm(i)) @ D.blocks[i - 1]
    return BlockDict(B.structure, data)


def make_equivalent_dict(
    A: BlockDict, perm: BlockPermutation, D: BlockDiagonal
) -> BlockDict:
    """Build B with apply_transform(B, perm, D) equal to A.

    Block perm(i) of B is A_i @ inv(D_i): `apply_transform` of A by the
    inverse permutation and the inverse blocks. D must be invertible.
    """
    if perm.K != A.structure.K:  # checked before the inverse blocks are indexed
        raise ValueError(f"permutation is on {perm.K} blocks, dictionary has {A.structure.K}")
    if not D.is_invertible():
        raise ValueError("all transform blocks must be invertible")
    inv = perm.inverse()
    blocks = tuple(np.linalg.inv(D.blocks[i - 1]) for i in inv.pi)
    return apply_transform(A, inv, BlockDiagonal(D.structure, blocks))


@dataclass(frozen=True)
class KappaResult:
    """Support correspondence found by probing one source support."""

    source: Support
    kappa: Support
    consistent: bool
    probe_supports: tuple[Support, ...]

    def to_dict(self) -> dict:
        return {
            "support": list(self.source),
            "kappa": list(self.kappa),
            "consistent": self.consistent,
            "probe_supports": [list(p) for p in self.probe_supports],
        }


def construct_kappa(
    A: BlockDict,
    B: BlockDict,
    S,
    n_probes: int = 8,
    seed: int = 0,
    tol: float = DEFAULT_PROBE_TOL,
) -> KappaResult:
    """Find the B-support spanning the same measurements as the A-blocks in S.

    Draws n_probes random coefficient vectors supported on S in one draw
    (stream `default_rng([seed, *S])`), measures y = A t with S's columns at
    their `_unit_scale`, so none overflows, and exactly codes each y in B at
    block-sparsity |S|, all probes in one kernel call. If every probe decodes
    to the same support, that support is returned with the consistency flag
    set; otherwise the majority support (then the least) with the flag cleared.

    Raises
    ------
    CapacityError
        When n_probes or C(K, |S|) exceeds DEFAULT_ENUMERATION_CAP.
    HypothesisViolationError
        When some probe has no |S|-block-sparse code in B within tol (B cannot reproduce
        A's measurements on S) or tied ones (kappa is not unique): the first such probe.
    ValueError
        When S is empty, n_probes < 1 or seed is not an integer >= 0.
    """
    _check_ints(0, seed=seed)
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    sup = as_support(S, A.structure.K)
    if not sup:
        raise ValueError("support must be nonempty")
    _check_ints(1, n_probes=n_probes)
    if n_probes > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"n_probes = {n_probes} exceeds the enumeration cap "
                            f"{DEFAULT_ENUMERATION_CAP}")
    K, alpha = A.structure.K, A.structure.alpha
    cols = _unit_scale(A.data[:, _support_columns(np.array([sup]), alpha)[0]], None)[0]
    Z = cols @ np.random.default_rng([seed, *sup]).standard_normal((n_probes, cols.shape[1])).T
    X, res, tied = _min_residual_codes(B, Z, len(sup), min(tol, DEFAULT_CODING_TOL))
    res = _relative(res, np.linalg.norm(Z, axis=0))
    if (fail := (res > tol) | tied).any():
        p = int(fail.argmax())  # the first failing probe
        raise HypothesisViolationError(f"probe {p} on support {sup} has " + (
            f"no {len(sup)}-block-sparse code in B (relative residual {res[p]:.3e} > {tol:.1e})"
            if res[p] > tol else "tied codes in B"))
    mask = np.abs(X).reshape(K, alpha, -1).max(axis=1).T > 0  # each probe's blocks
    probes = tuple(tuple(b for b, on in enumerate(row, 1) if on) for row in mask.tolist())
    counts = Counter(probes)
    kappa = min(counts, key=lambda key: (-counts[key], key))  # majority, then least
    return KappaResult(sup, kappa, len(counts) == 1, probes)


@dataclass(frozen=True)
class TheoremReport:
    """End-to-end identifiability check for a dictionary pair."""

    rip: RipReport
    hypothesis_supports: tuple[dict, ...]
    hypothesis_holds: bool
    certificate: EquivalenceCertificate
    kappa_singletons: tuple[dict, ...]
    agreement: bool | None

    def to_dict(self) -> dict:
        return {
            "rip": self.rip.to_dict(),
            "hypothesis": {
                "supports_checked": len(self.hypothesis_supports),
                "holds": self.hypothesis_holds,
                "details": list(self.hypothesis_supports),
            },
            "conclusion": self.certificate.to_dict(),
            "agreement": {
                "kappa_singletons": list(self.kappa_singletons),
                "pi": list(self.certificate.permutation.pi)
                if self.certificate.permutation
                else None,
                "equal": self.agreement,
            },
        }


def verify_theorem_instance(A: BlockDict, B: BlockDict, s: int | None = None, seed: int = 0,
                            tol: float = DEFAULT_CERTIFICATE_TOL) -> TheoremReport:
    """Check that block-sparse representability of B implies equivalence to A.

    The report carries (1) the restricted isometry constant of A at level
    min(2s, K) (`rip_constant`: exact up to the enumeration cap, else
    sampled from seed), (2) a hypothesis section with kappa on a family of
    size-s supports (all of them when there are at most
    MAX_HYPOTHESIS_SUPPORTS, else a seeded sample), (3) the recovered equivalence
    certificate, and (4) whether kappa restricted to singletons equals the
    recovered permutation. Findings are report fields; hypothesis violations are
    recorded, not raised.

    Every A_S t has an |S|-block-sparse code in B exactly when span A_S lies in one span B_T,
    |T| = |S| (a vector space is not a finite union of proper subspaces), so no entry probes: per
    size, `subspace._nearest_spans` reads the bases Q_S of the listed supports of A against all of
    B's, each at its `_unit_scale`, by their sines ||Q_S - Q_T Q_T^T Q_S||_2. kappa(S) is the one T
    within sine DEFAULT_PROBE_TOL; with none, the error names the nearest T (least Frobenius
    residual) and its sine, and with several it is a tie. The family is drawn first, so
    `_sample_supports` refuses a negative seed before any other work.
    The certificate and the singletons' table (at s = 1, the hypothesis's) share one `_block_bases`.
    """
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    s, K = _check_s(A.structure, s), A.structure.K

    def entries(sups: np.ndarray, QS=None, QT=None):  # the entries, all of one size
        T, tol, m = _enumerate_supports(K, sups.shape[1]), DEFAULT_PROBE_TOL, len(sups)
        if QS is None:  # B's bases too when every support is listed (at most 128), in one call
            Q = _support_bases((A, sups), *([(B, T)] if len(T) == m else []))[0]
            QS, QT = Q[:m], (Q[m:] if len(Q) > m else None)
        *_, found, first, near, sine = _nearest_spans(B, T, QS, tol, DEFAULT_RANK_TOL, tol, QT)
        for sup, n, t, x, y in zip(sups.tolist(), found.tolist(), T[first].tolist(),
                                   T[near].tolist(), sine.tolist()):
            why = "tied codes in B" if n else (f"no {len(sup)}-block-sparse code in B (nearest "
                                              f"support {tuple(x)} at sine {y:.3e} > {tol:.1e})")
            yield ({"support": sup, "kappa": t, "consistent": True} if n == 1 else
                   {"support": sup, "error": f"support {tuple(sup)} has {why}"})

    family = np.array(sorted(map(tuple, _sample_supports(K, s, MAX_HYPOTHESIS_SUPPORTS,
                                                         seed).tolist())))
    rip = rip_constant(A, min(2 * s, K), seed)
    bases = _block_bases(A.data, B.data, K, DEFAULT_RANK_TOL)
    singles = [*entries(np.arange(1, K + 1)[:, None], bases[2][:K], bases[2][K:])]
    hypothesis = singles if s == 1 and len(family) == K else [*entries(family)]
    holds = all(entry.get("consistent", False) for entry in hypothesis)
    certificate = recover_equivalence(A, B, tol, _bases=bases)
    agreement = None if certificate.permutation is None else all(
        entry.get("kappa") == [j] for entry, j in zip(singles, certificate.permutation.pi))

    return TheoremReport(rip, tuple(hypothesis), holds, certificate, tuple(singles), agreement)
