"""Dictionary equivalence up to block permutation and block-diagonal mixing.

Two block dictionaries A and B are equivalent when A equals B after
permuting whole blocks and multiplying each block by an invertible
alpha x alpha matrix. `recover_equivalence` produces a certificate for
that relation by matching block spans and solving per-block least
squares; `construct_kappa` probes the support-to-support correspondence
induced by exact block-sparse coding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coding import DEFAULT_CODING_TOL, _factor, _min_residual_codes, _relative, _unit_scale
from .core import (
    BlockDict, BlockStructure, Support, _check_s, _check_tols, _numerical_rank, as_support,
    block_support,
)
from .errors import HypothesisViolationError, RankError
from .rip import RipReport, _sample_supports, _support_columns, rip_constant
# not called here: bench/tracing.py rebinds these names in this module
from .coding import exhaustive_code  # noqa: F401
from .rip import rip_constant_exact, rip_lower_bound_sampled  # noqa: F401
from .subspace import DEFAULT_RANK_TOL, orthonormal_basis, spans_equal

DEFAULT_CERTIFICATE_TOL = 1e-6
DEFAULT_PROBE_TOL = 1e-8
MAX_HYPOTHESIS_SUPPORTS = 128

STATUS_EQUIVALENT = "equivalent"
STATUS_NOT_EQUIVALENT = "not-equivalent"
STATUS_AMBIGUOUS = "ambiguous"


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
            raise ValueError(
                f"expected {self.structure.K} blocks, got {len(self.blocks)}"
            )
        frozen = []
        for idx, blk in enumerate(self.blocks, start=1):
            arr = np.array(blk, dtype=float)
            if arr.shape != (alpha, alpha):
                raise ValueError(
                    f"block {idx} has shape {arr.shape}, expected {(alpha, alpha)}"
                )
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
        raise ValueError(
            f"ambient dimensions differ: {A.ambient_dim} vs {B.ambient_dim}"
        )
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
    """
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    K = A.structure.K
    a_bases = [orthonormal_basis(A.block(i), tol) for i in range(1, K + 1)]
    b_bases = [orthonormal_basis(B.block(j), tol) for j in range(1, K + 1)]
    matches: dict[int, tuple[int, ...]] = {}
    for i in range(1, K + 1):
        matches[i] = tuple(
            j for j in range(1, K + 1) if spans_equal(a_bases[i - 1], b_bases[j - 1], tol)
        )
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


def solve_block_transform(
    A_block, B_block, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, float]:
    """Least-squares alpha x alpha transform M minimizing ||A_block - B_block M||_F.

    Returns (M, relative Frobenius residual). Raises RankError when
    B_block is column-rank-deficient.
    """
    _check_tols(rank_tol=rank_tol)
    A_block = np.asarray(A_block, dtype=float)
    B_block = np.asarray(B_block, dtype=float)
    if A_block.shape != B_block.shape or A_block.ndim != 2:
        raise ValueError(
            f"blocks must share shape P x alpha, got {A_block.shape} and {B_block.shape}"
        )
    svals = np.linalg.svd(B_block, compute_uv=False)
    if _numerical_rank(svals, rank_tol) < svals.size:
        raise RankError("target block is rank-deficient")
    M, _, _, _ = np.linalg.lstsq(B_block, A_block, rcond=None)
    err = float(np.linalg.norm(A_block - B_block @ M, "fro"))
    return M, _relative(err, float(np.linalg.norm(A_block, "fro")))


def recover_equivalence(
    A: BlockDict,
    B: BlockDict,
    tol: float = DEFAULT_CERTIFICATE_TOL,
    span_tol: float = DEFAULT_RANK_TOL,
) -> EquivalenceCertificate:
    """Recover a permutation and block transforms carrying B onto A.

    Matches block spans, then solves one least-squares transform per
    matched pair. The certificate is `equivalent` only when the matching
    is a bijection, every transform is invertible, and the worst relative
    block residual is at most tol. A rank-deficient matched pair leaves its
    transform undetermined, so the certificate is `ambiguous`. Match
    failures surface as certificate statuses, never exceptions.
    """
    _check_tols(tol=tol, span_tol=span_tol)
    report = match_blocks(A, B, span_tol)
    if report.status != "matched":
        return EquivalenceCertificate(report.status, None, None, None)
    perm = report.permutation
    blocks = []
    residual = 0.0
    for i in range(1, A.structure.K + 1):
        try:
            M, rel = solve_block_transform(A.block(i), B.block(perm(i)), span_tol)
        except RankError:
            return EquivalenceCertificate(STATUS_AMBIGUOUS, None, None, None)
        blocks.append(M)
        residual = max(residual, rel)
    diag = BlockDiagonal(A.structure, tuple(blocks))
    ok = diag.is_invertible() and residual <= tol
    status = STATUS_EQUIVALENT if ok else STATUS_NOT_EQUIVALENT
    return EquivalenceCertificate(status, perm, diag, float(residual))


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

    Draws n_probes random coefficient vectors supported on S (stream
    derived from seed and S), measures y = A t, and exactly codes each y
    in B at block-sparsity |S|. If every probe decodes to the same
    support, that support is returned with the consistency flag set;
    otherwise the majority support is returned with the flag cleared.

    Raises
    ------
    HypothesisViolationError
        When some probe has no |S|-block-sparse code in B within tol (B cannot
        reproduce A's measurements on S) or tied ones (kappa is not unique).
    """
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    sup = as_support(S, A.structure.K)
    if not sup:
        raise ValueError("support must be nonempty")
    return _probe_kappa(A, _factor(B, len(sup)), sup, n_probes, seed, tol)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing probe is refused, not warned of
def _probe_kappa(A: BlockDict, F, sup: Support, n_probes: int, seed, tol: float) -> KappaResult:
    """`construct_kappa` on a nonempty support, each probe coded against F, B's factor at |sup|."""
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    rng = np.random.default_rng([int(seed), *sup])
    cols = _support_columns(np.array([sup]), A.structure.alpha)[0]
    probe_supports: list[Support] = []
    for p in range(n_probes):
        t = np.zeros(A.structure.total_dim)
        t[cols] = rng.standard_normal(len(cols))
        y, _ = _unit_scale(A.data @ t)
        X, res, tied = _min_residual_codes(F, y[:, None], min(tol, DEFAULT_CODING_TOL))
        residual = _relative(float(res[0]), float(np.linalg.norm(y)))
        if residual > tol:
            raise HypothesisViolationError(
                f"probe {p} on support {sup} has no {len(sup)}-block-sparse code in B "
                f"(relative residual {residual:.3e} > {tol:.1e})"
            )
        if tied[0]:
            raise HypothesisViolationError(f"probe {p} on support {sup} has tied codes in B")
        probe_supports.append(block_support(X[:, 0], A.structure, tol=0.0))
    counts = Counter(probe_supports)
    consistent = len(counts) == 1
    # majority support; ties go to the lexicographically smallest
    top = max(counts.values())
    winner = min(sup_ for sup_, c in counts.items() if c == top)
    return KappaResult(sup, winner, consistent, tuple(probe_supports))


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
    recovered permutation. All findings are report fields; probe failures
    are recorded, not raised.
    """
    _check_tols(tol=tol)
    _check_same_shape(A, B)
    s = _check_s(A.structure, s)
    K = A.structure.K

    rip = rip_constant(A, min(2 * s, K), seed)

    def probe(sup) -> dict:
        try:
            res = _probe_kappa(A, factors[len(sup)], sup, n_probes, seed, DEFAULT_PROBE_TOL)
        except HypothesisViolationError as exc:
            return {"support": list(sup), "error": str(exc)}
        return {"support": list(sup), "kappa": list(res.kappa), "consistent": res.consistent}

    family = sorted(map(tuple, _sample_supports(K, s, MAX_HYPOTHESIS_SUPPORTS, seed).tolist()))
    factors = {k: _factor(B, k) for k in {s, 1}}  # every probe codes against one of these
    hypothesis = [probe(sup) for sup in family]
    holds = all(entry.get("consistent", False) for entry in hypothesis)
    certificate = recover_equivalence(A, B, tol)
    singles = [probe((i,)) for i in range(1, K + 1)]
    agreement = None if certificate.permutation is None else all(
        entry.get("consistent", False) and entry["kappa"] == [certificate.permutation(i)]
        for i, entry in enumerate(singles, start=1)
    )

    return TheoremReport(rip, tuple(hypothesis), holds, certificate, tuple(singles), agreement)
