"""Dictionary equivalence up to block permutation and block-diagonal mixing.

Two block dictionaries A and B are equivalent when A equals B after
permuting whole blocks and multiplying each block by an invertible
alpha x alpha matrix. `recover_equivalence` produces a certificate for
that relation by matching block spans and solving all blocks' least
squares from one stacked SVD; `construct_kappa` probes the
support-to-support correspondence induced by exact block-sparse coding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coding import _CODE_CHUNK, DEFAULT_CODING_TOL, _min_residual_codes, _relative
from .core import (BlockDict, BlockStructure, Support, _check_s, _check_tols, _numerical_rank,
                   _unit_scale, as_support)
from .errors import CapacityError, HypothesisViolationError, RankError
from .rip import (DEFAULT_ENUMERATION_CAP, RipReport, _sample_supports, _support_columns,
                  rip_constant)
# not called here: bench/tracing.py rebinds these names in this module
from .coding import exhaustive_code  # noqa: F401
from .rip import rip_constant_exact, rip_lower_bound_sampled  # noqa: F401
from .subspace import orthonormal_basis, spans_equal  # noqa: F401
from .subspace import DEFAULT_RANK_TOL, _bases, _spans_equal_stacked

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
        pi = tuple(int(v) for v in self.pi)
        if len(pi) != self.K or sorted(pi) != list(range(1, self.K + 1)):
            raise ValueError(f"pi must be a permutation of 1..{self.K}, got {pi}")
        object.__setattr__(self, "pi", pi)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.K:
            raise IndexError(f"block index {i} out of range 1..{self.K}")
        return self.pi[i - 1]

    def inverse(self) -> BlockPermutation:
        inv = [0] * self.K
        for i, v in enumerate(self.pi, start=1):
            inv[v - 1] = i
        return BlockPermutation(self.K, tuple(inv))


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
    Spans compare as in `spans_equal`, from one `_bases` call on the 2K blocks
    and one `_spans_equal_stacked` call on all K x K pairs, masked by equal rank. At
    tol = 0 a match is decided by the last bit of an SVD; tol > 0 (default
    1e-8) is the supported regime.
    """
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    P, K, alpha = A.ambient_dim, A.structure.K, A.structure.alpha
    blocks = np.hstack([A.data, B.data]).reshape(P, 2 * K, alpha).swapaxes(0, 1)
    U, ranks = _bases(blocks, tol)[:2]
    r = ranks[:K, None]
    equal = (r == ranks[K:]) & _spans_equal_stacked(U[:K, None], U[None, K:], tol, r)
    matches = {i: () for i in range(1, K + 1)}
    for i, j in (np.argwhere(equal) + 1).tolist():  # row-major: each block's targets ascend
        matches[i] += (j,)
    unmatched = tuple(i for i in range(1, K + 1) if len(matches[i]) == 0)
    ambiguous = tuple(i for i in range(1, K + 1) if len(matches[i]) > 1)
    if ambiguous:
        return MatchReport(STATUS_AMBIGUOUS, None, matches, unmatched, ambiguous)
    if unmatched:
        return MatchReport(STATUS_NOT_EQUIVALENT, None, matches, unmatched, ambiguous)
    targets = [matches[i][0] for i in range(1, K + 1)]
    if len(set(targets)) != K:
        return MatchReport(STATUS_NOT_EQUIVALENT, None, matches, unmatched, ambiguous)
    return MatchReport(
        "matched", BlockPermutation(K, tuple(targets)), matches, unmatched, ambiguous
    )


def _block_transforms(As: np.ndarray, Bs: np.ndarray, rank_tol: float) -> tuple[np.ndarray, ...]:
    """(M, relative residuals ||A - U U^T A||_F / ||A||_F, ranks of the B blocks) of stacked
    (n, P, alpha) pairs, each block at its own `_unit_scale` 2^-e, from one `_bases` SVD U sv Vt
    of the B blocks: M = 2^(e_A - e_B) V sv^-1 U^T A, the same bytes at any common scale, inf
    where it overflows."""
    (As, eA), (Bs, eB) = _unit_scale(As, (1, 2)), _unit_scale(Bs, (1, 2))
    U, ranks, sv, Vt = _bases(Bs, rank_tol)
    As = np.ascontiguousarray(As)  # C order: a block's norm sums as in a one-pair call
    Z = U.swapaxes(1, 2) @ As
    rel = _relative(np.linalg.norm(As - U @ Z, axis=(1, 2)), np.linalg.norm(As, axis=(1, 2)))
    with np.errstate(over="ignore"):
        return np.ldexp(Vt.swapaxes(1, 2) @ (Z / sv[:, :, None]), eA - eB), rel, ranks


def solve_block_transform(
    A_block, B_block, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, float]:
    """Least-squares alpha x alpha transform M minimizing ||A_block - B_block M||_F.

    The one-pair view of `_block_transforms`: returns (M, relative Frobenius residual), and
    raises RankError when B_block is column-rank-deficient, ValueError when M overflows.
    """
    _check_tols(rank_tol=rank_tol)
    A_block = np.asarray(A_block, dtype=float)
    B_block = np.asarray(B_block, dtype=float)
    if A_block.shape != B_block.shape or A_block.ndim != 2:
        raise ValueError(f"blocks must share shape P x alpha, got {A_block.shape} and "
                         f"{B_block.shape}")
    M, rel, ranks = _block_transforms(A_block[None], B_block[None], rank_tol)
    if ranks[0] < min(B_block.shape):
        raise RankError("target block is rank-deficient")
    if not np.isfinite(M).all():
        raise ValueError("the block transform overflows the float range")
    return M[0], float(rel[0])


def recover_equivalence(
    A: BlockDict,
    B: BlockDict,
    tol: float = DEFAULT_CERTIFICATE_TOL,
    span_tol: float = DEFAULT_RANK_TOL,
) -> EquivalenceCertificate:
    """Recover a permutation and block transforms carrying B onto A.

    Matches block spans, then solves every matched pair's least-squares transform in one
    `_block_transforms` call on A's blocks and B's blocks permuted by pi, each at its own power of
    two, so 2^k A and 2^k B get A and B's certificate byte for byte down to the subnormal range.
    The certificate is `equivalent` only when the matching is a bijection, every transform is
    invertible, and the worst relative block residual is at most tol. A rank-deficient matched
    pair (rank below min(P, alpha) at span_tol) leaves its transform undetermined, so the
    certificate is `ambiguous`; a transform past the float range makes it `out-of-range`, with
    pi and no transforms. Match failures surface as certificate statuses, never exceptions.
    """
    _check_tols(tol=tol, span_tol=span_tol)
    report = match_blocks(A, B, span_tol)
    if report.status != "matched":
        return EquivalenceCertificate(report.status, None, None, None)
    perm = report.permutation
    As = A.data.reshape(A.ambient_dim, A.structure.K, -1).swapaxes(0, 1)
    Bs = B.data.reshape(B.ambient_dim, B.structure.K, -1).swapaxes(0, 1)[np.array(perm.pi) - 1]
    M, rel, ranks = _block_transforms(As, Bs, span_tol)
    if (ranks < min(Bs.shape[1:])).any():
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
    (stream derived from seed and S), measures y = A t, and exactly codes
    each y in B at block-sparsity |S|, all probes in one kernel call.
    If every probe decodes to the same support, that support is returned
    with the consistency flag set; otherwise the majority support is
    returned with the flag cleared.

    Raises
    ------
    CapacityError
        When n_probes or C(K, |S|) exceeds DEFAULT_ENUMERATION_CAP.
    HypothesisViolationError
        When some probe has no |S|-block-sparse code in B within tol (B cannot reproduce
        A's measurements on S) or tied ones (kappa is not unique): the first such probe.
    ValueError
        When S is empty, n_probes < 1 or seed < 0.
    """
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    sup = as_support(S, A.structure.K)
    if not sup:
        raise ValueError("support must be nonempty")
    (res,) = _probe_supports(A, B, [sup], n_probes, seed, tol)
    if isinstance(res, Exception):
        raise res
    return res


def _probe_supports(A: BlockDict, B: BlockDict, sups, n_probes: int, seed, tol: float) -> list:
    """`construct_kappa` on nonempty supports of one size: per support, its KappaResult or its
    first failing probe's HypothesisViolationError. Support S's probes come from its own stream,
    seeded by the uint32 row (seed's little-endian 32-bit words, S), which is `SeedSequence`'s
    reading of [seed, *S]; a negative seed is refused before any draw. Each probe is measured with
    its support's columns of A at their `_unit_scale`, so none overflows; as many supports as fit
    max(n_probes, _CODE_CHUNK // P) columns are drawn in place into one array, measured in one
    stacked matmul, coded in B in one kernel call and read by bit-packed block keys; verdicts come
    from arrays, with a count (majority, then least) only for split supports."""
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    if n_probes > DEFAULT_ENUMERATION_CAP:  # refused before its draw is allocated
        raise CapacityError(f"n_probes = {n_probes} exceeds the enumeration cap "
                            f"{DEFAULT_ENUMERATION_CAP}")
    if (seed := int(seed)) < 0:  # numpy's own refusal of [seed, *S]
        raise ValueError("expected non-negative integer")
    P, K, alpha = A.ambient_dim, A.structure.K, A.structure.alpha
    words = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"), "<u4")
    entropy = np.hstack([np.tile(words, (len(sups), 1)), sups]).astype(np.uint32)
    out, step = [], max(1, _CODE_CHUNK // P // n_probes)
    for start in range(0, len(sups), step):
        batch = sups[start : start + step]
        cols = A.data[:, _support_columns(np.array(batch), alpha)].swapaxes(0, 1)  # (n, P, s*alpha)
        T = np.empty((len(batch), n_probes, cols.shape[2]))
        for row, t in zip(entropy[start : start + step], T):  # default_rng(row), drawn in place
            np.random.Generator(np.random.PCG64(row)).standard_normal(out=t)
        Z = (_unit_scale(cols, (1, 2))[0] @ T.swapaxes(1, 2)).swapaxes(0, 1).reshape(P, -1)
        X, res, tied = _min_residual_codes(B, Z, len(sups[0]), min(tol, DEFAULT_CODING_TOL))
        res = _relative(res, np.linalg.norm(Z, axis=0)).reshape(len(batch), n_probes)
        mask = np.abs(X).reshape(K, alpha, -1).max(axis=1).T > 0  # each probe's blocks
        keys = np.ascontiguousarray(np.packbits(mask, axis=1))  # one bit a block: a key at any K
        _, first, ids = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True,
                                  return_inverse=True)  # each distinct support, read once
        found = [tuple(b for b, on in enumerate(row, 1) if on) for row in mask[first].tolist()]
        fail, ids = (res > tol) | tied.reshape(res.shape), ids.reshape(res.shape)
        firsts, split = fail.argmax(axis=1).tolist(), (ids != ids[:, :1]).any(axis=1).tolist()
        for k, (sup, p, head) in enumerate(zip(batch, firsts, ids[:, 0].tolist())):
            if fail[k, p]:  # p: the first failing probe
                out.append(HypothesisViolationError(f"probe {p} on support {sup} has " + (
                    f"no {len(sup)}-block-sparse code in B (relative residual {res[k, p]:.3e} > "
                    f"{tol:.1e})" if res[k, p] > tol else "tied codes in B")))
            elif split[k]:
                counts = Counter(probes := tuple(found[i] for i in ids[k].tolist()))
                winner = min(counts, key=lambda key: (-counts[key], key))  # majority, then least
                out.append(KappaResult(sup, winner, False, probes))
            else:
                out.append(KappaResult(sup, found[head], True, (found[head],) * n_probes))
    return out


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


def verify_theorem_instance(
    A: BlockDict,
    B: BlockDict,
    s: int | None = None,
    n_probes: int = 8,
    seed: int = 0,
    tol: float = DEFAULT_CERTIFICATE_TOL,
) -> TheoremReport:
    """Check that block-sparse representability of B implies equivalence to A.

    The report carries (1) the restricted isometry constant of A at level
    min(2s, K) (`rip_constant`: exact up to the enumeration cap, else
    sampled from seed), (2) a hypothesis section probing construct_kappa on a
    family of size-s supports (all of them when there are at most
    MAX_HYPOTHESIS_SUPPORTS, else a seeded sample), (3) the recovered equivalence
    certificate, and (4) whether kappa restricted to singletons equals the
    recovered permutation. The family's probes are coded in one `_probe_supports` call,
    the K singletons' in another. Findings are report fields; hypothesis violations are
    recorded, not raised.
    """
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    s = _check_s(A.structure, s)
    K = A.structure.K

    rip = rip_constant(A, min(2 * s, K), seed)

    def probe(sups) -> list[dict]:  # every support of one size in one `_probe_supports` call
        found = _probe_supports(A, B, sups, n_probes, seed, DEFAULT_PROBE_TOL)
        return [{"support": list(sup), "error": str(res)} if isinstance(res, Exception) else
                {"support": list(sup), "kappa": list(res.kappa), "consistent": res.consistent}
                for sup, res in zip(sups, found)]

    family = sorted(map(tuple, _sample_supports(K, s, MAX_HYPOTHESIS_SUPPORTS, seed).tolist()))
    hypothesis = probe(family)
    holds = all(entry.get("consistent", False) for entry in hypothesis)
    certificate = recover_equivalence(A, B, tol)
    singles = probe([(i,) for i in range(1, K + 1)])
    agreement = None if certificate.permutation is None else all(
        entry.get("consistent", False) and entry["kappa"] == [certificate.permutation(i)]
        for i, entry in enumerate(singles, start=1)
    )

    return TheoremReport(rip, tuple(hypothesis), holds, certificate, tuple(singles), agreement)
