"""Synthetic instances, a baseline block dictionary learner, and experiments.

The learner starts from block spans found by clustering the samples by
support span, with tolerances scaled by the config's noise_level, and
intersecting the clusters; blocks the clustering cannot supply start at
zero. It then alternates coding all samples by `exhaustive_code`'s
minimum-residual rule (block-OMP once C(K, s) exceeds the enumeration cap)
with per-block least-squares dictionary updates (each updated block
re-orthonormalized). A block coded in fewer than alpha samples is dead, an
unused or missing one included; reseeding it from the worst coding
residual and its most aligned peers is the only fallback. Everything is
deterministic given the config seed.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import combinations, compress

import numpy as np

from .coding import _CODE_CHUNK, DEFAULT_CODING_TOL, _factor, _min_residual_codes, block_omp
from .core import BlockDict, BlockStructure
from .errors import RankError
from .equivalence import (
    DEFAULT_CERTIFICATE_TOL,
    BlockDiagonal,
    BlockPermutation,
    recover_equivalence,
)
from .rip import DEFAULT_ENUMERATION_CAP, MODE_EXACT, RipReport, _enumerate_supports
from .rip import _rayleigh_floors, rip_constant
# not called here: bench/tracing.py rebinds these names in this module
from .rip import rip_constant_exact, rip_lower_bound_sampled  # noqa: F401

MODE_GAUSSIAN = "gaussian"
MODE_BLOCK_ORTH = "per-block-orthonormal"
MAX_GENERATION_RETRIES = 1000
DISCOVERY_MEMBER_TOL = 1e-7  # relative residual of a verified cluster member
DISCOVERY_MAX_PARTNERS = 18

# sub-stream tags so every pipeline stage gets an independent generator
_STREAM_DICT = 0
_STREAM_CODES = 1
_STREAM_NOISE = 2
_STREAM_RESEED = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one synthetic learning experiment."""

    structure: BlockStructure
    ambient_dim: int
    n_samples: int
    seed: int
    noise_level: float = 0.0
    learner_iterations: int = 30
    certificate_tol: float = DEFAULT_CERTIFICATE_TOL

    def __post_init__(self):
        _check_ambient(self.ambient_dim, self.structure)
        for name, least in (("seed", 0), ("n_samples", 1), ("learner_iterations", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and nonnegative, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> ExperimentConfig:
        """Config from its `to_dict` form; ValueError names bad, missing or mistyped keys."""
        _check_keys(d, cls, "experiment config")
        _check_keys(d["structure"], BlockStructure, "structure")
        structure = BlockStructure(**d["structure"])
        return cls(**{**d, "structure": structure})

    @classmethod
    def from_json_file(cls, path) -> ExperimentConfig:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# JSON types each annotation accepts: bools are not numbers, floats not ints
_JSON_TYPES = {"int": (int,), "float": (int, float)}


def _check_keys(d, cls, what: str) -> None:
    """ValueError unless d is a dict of the fields of cls, none missing, typed right."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    known = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING}
    problems = [
        f"{label} keys {sorted(keys)}"
        for label, keys in (("unknown", set(d) - known), ("missing", required - set(d)))
        if keys
    ]
    if problems:
        raise ValueError(f"{what}: {'; '.join(problems)}")
    for f in fields(cls):
        accepted = _JSON_TYPES.get(f.type, object)
        if f.name in d and (isinstance(d[f.name], bool) or not isinstance(d[f.name], accepted)):
            raise ValueError(f"{what}: key {f.name!r} must be {f.type}, got {d[f.name]!r}")


def _check_ambient(ambient_dim: int, structure: BlockStructure) -> None:
    """ValueError when every level-min(2s, K) sub-dictionary is rank-deficient."""
    bound = min(2 * structure.s, structure.K) * structure.alpha
    if ambient_dim < bound:
        raise ValueError(
            f"ambient_dim {ambient_dim} is below min(2s, K)*alpha = {bound}; no "
            "dictionary can then have a restricted isometry constant below 1"
        )


def _substream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def gen_dictionary(
    ambient_dim: int,
    structure: BlockStructure,
    seed: int,
    mode: str = MODE_BLOCK_ORTH,
) -> BlockDict:
    """Random dictionary, deterministic given seed.

    gaussian: i.i.d. standard normal entries. per-block-orthonormal: each
    block's alpha columns are orthonormalized (one QR over the stack of
    blocks), so every block Gram is the identity.
    """
    if ambient_dim < structure.alpha:
        raise ValueError(
            f"ambient_dim {ambient_dim} is below the block width {structure.alpha}"
        )
    if mode not in (MODE_GAUSSIAN, MODE_BLOCK_ORTH):
        raise ValueError(f"unknown dictionary mode {mode!r}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((ambient_dim, structure.total_dim))
    if mode == MODE_GAUSSIAN:
        return BlockDict(structure, raw)
    shape = (ambient_dim, structure.K, structure.alpha)
    Q = np.linalg.qr(raw.reshape(shape).transpose(1, 0, 2))[0]
    return BlockDict(structure, Q.transpose(1, 0, 2).reshape(raw.shape))


def gen_rip_dictionary(
    ambient_dim: int, structure: BlockStructure, seed: int
) -> tuple[BlockDict, RipReport, int]:
    """First dictionary of seeds seed, seed+1, ... with constant below 1.

    Each draw is per-block-orthonormal, so every block Gram is the
    identity. The constant is `rip_constant` at level min(2s, K), sampled
    (above the cap) from the draw's seed. Draws come in batches of 1, 1, 2,
    4, ... up to 16; once reports are exact, draws whose `rip._rayleigh_floors`
    floor is >= 1, which `rip_constant` would reject, are skipped. Returns
    (dictionary, its RipReport, the winning seed's offset from seed); raises
    ValueError after MAX_GENERATION_RETRIES + 1 draws.
    """
    _check_ambient(ambient_dim, structure)
    level, retry, exact = min(2 * structure.s, structure.K), 0, False
    while retry <= MAX_GENERATION_RETRIES:  # each batch as large as the draws before it
        offsets = range(retry, min(retry + min(max(retry, 1), 16), MAX_GENERATION_RETRIES + 1))
        draws = [gen_dictionary(ambient_dim, structure, seed=seed + o) for o in offsets]
        screen = exact and len(draws) > 1  # a sampled constant can lie below a floor
        checked = ~(_rayleigh_floors(draws, level) >= 1.0) if screen else [True] * len(draws)
        for o, A in compress(zip(offsets, draws), checked):  # NaN floors are checked
            report = rip_constant(A, level, seed + o)
            if report.delta < 1.0:
                return A, report, o
            exact = report.mode == MODE_EXACT
        retry = offsets.stop
    raise ValueError(
        f"no dictionary with restricted isometry constant below 1 found in "
        f"{MAX_GENERATION_RETRIES + 1} draws"
    )


def gen_codes(
    structure: BlockStructure,
    n_samples: int,
    seed: int,
    coefficient_scale: float = 1.0,
) -> np.ndarray:
    """Random s-block-sparse codes as the columns of a K*alpha x N matrix.

    Deterministic given seed. Each sample draws a uniform size-s support
    and fills the active blocks with signed coefficients of magnitude in
    [0.1, 1] times coefficient_scale, so every active entry is bounded away
    from zero. `BlockSparseVec(structure, X[:, c])` turns a column into a
    vector object with its support.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not (math.isfinite(coefficient_scale) and coefficient_scale > 0):
        raise ValueError(f"coefficient_scale must be finite and positive, got {coefficient_scale}")
    rng = np.random.default_rng(seed)
    X = np.zeros((structure.total_dim, n_samples))
    for c in range(n_samples):
        for i in sorted(rng.choice(structure.K, size=structure.s, replace=False)):
            magnitude = rng.uniform(0.1, 1.0, size=structure.alpha)
            sign = rng.integers(0, 2, size=structure.alpha) * 2 - 1
            X[structure.block_slice(int(i) + 1), c] = coefficient_scale * sign * magnitude
    return X


def gen_block_permutation(K: int, seed: int) -> BlockPermutation:
    """Uniformly random block permutation, deterministic given seed."""
    rng = np.random.default_rng(seed)
    return BlockPermutation(K, tuple(int(v) + 1 for v in rng.permutation(K)))


def gen_block_diagonal(structure: BlockStructure, seed: int) -> BlockDiagonal:
    """Random invertible block transforms, each with condition number at most 10."""
    rng = np.random.default_rng(seed)
    alpha = structure.alpha
    blocks = []
    for _ in range(structure.K):
        U, _ = np.linalg.qr(rng.standard_normal((alpha, alpha)))
        V, _ = np.linalg.qr(rng.standard_normal((alpha, alpha)))
        svals = rng.uniform(1.0, 10.0, size=alpha)
        blocks.append(U @ np.diag(svals) @ V.T)
    return BlockDiagonal(structure, tuple(blocks))


@dataclass
class LearnTrace:
    """Objective per iteration plus any dead-block reseed events."""

    objectives: list[float] = field(default_factory=list)
    reseed_events: list[dict] = field(default_factory=list)
    stalled: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _code_all(B: BlockDict, Y: np.ndarray):
    """Minimum-residual code of every column of Y at B's sparsity and DEFAULT_CODING_TOL.

    Returns (codes matrix, abs residual norms) from `coding`'s batched
    kernel, so each sample gets the code `exhaustive_code` would give it.
    When C(K, s) exceeds DEFAULT_ENUMERATION_CAP, each sample is
    block-OMP coded instead. A sample whose selected sub-dictionary is then
    rank-deficient (degenerate mid-learning state) is left uncoded for the
    round; its full residual makes it the natural reseeding source.
    """
    s, tol = B.structure.s, DEFAULT_CODING_TOL
    if math.comb(B.structure.K, s) <= DEFAULT_ENUMERATION_CAP:
        return _min_residual_codes(_factor(B, s), Y, tol)[:2]
    X = np.zeros((B.structure.total_dim, Y.shape[1]))
    res = np.linalg.norm(Y, axis=0)
    for c in range(Y.shape[1]):
        try:
            r = block_omp(B, Y[:, c], s=s, tol=tol)
        except RankError:
            continue
        X[:, c] = r.code.values
        res[c] = np.linalg.norm(Y[:, c] - B.data @ r.code.values)
    return X, res


def _discover_block_spans(Y: np.ndarray, structure: BlockStructure, noise_level: float = 0.0):
    """Candidate block spans from sample clustering, with noise-scaled tolerances.

    Samples sharing a support lie in one s*alpha-dimensional subspace up to
    noise, so the span of a seed sample and s*alpha - 1 aligned partners is
    a hypothesis verified by the samples it fits. Partner tuples are
    screened in stacked chunks of 1, 2, 4, ... trials by the cheap residual
    1 - ||Q^T y||^2 / ||y||^2; tuples with enough possible members are
    tested in order. Pairwise intersections of the cluster spans, from one
    stacked SVD, then isolate the block spans the clusters share.

    A member's noise outside its span has RMS norm nu = noise_level *
    sqrt(P - s*alpha), so members lie within the relative residual
    DISCOVERY_MEMBER_TOL + 3 nu / ||y|| (tight cut); the loose cut doubles
    the noise term. Noiseless, this is the exact test: no refit, clusters
    of s*alpha + 2, a screen at (10 * DISCOVERY_MEMBER_TOL)^2 that every
    member passes. Under noise it is LO-RANSAC (Chum, Matas & Kittler,
    2003): a hypothesis's loose members are refit three times to their top
    s*alpha singular vectors at the tight cut, and the cluster needs
    2 s*alpha + 2 members and no sample between the cuts. The first
    screened hypothesis decides a noisy seed, so where noise closes that
    gap discovery returns no blocks at one hypothesis per seed. Noisy
    clusters are intersected largest first, allowing 1 - cos of the tight
    cut's median angle.
    """
    from .subspace import SubspaceBasis, _spans_equal_stacked, orthonormal_basis

    P = Y.shape[0]
    dim = structure.s * structure.alpha
    if structure.s >= structure.K:
        return []
    norms = np.linalg.norm(Y, axis=0)
    keep = norms > 0
    if keep.sum() < dim + 2:
        return []
    Yn = Y[:, keep] / norms[keep]
    Yk = Y[:, keep]
    nk = Yk.shape[1]
    norms_k = norms[keep]
    step = max(1, _CODE_CHUNK // (dim * nk))
    most = min(nk - 1, DISCOVERY_MAX_PARTNERS)  # the first seed's partners, the most any seed has
    table = _enumerate_supports(most, dim - 1, DEFAULT_ENUMERATION_CAP) - 1  # partner tuples

    noisy = noise_level > 0
    slack = 3 * noise_level * math.sqrt(P - dim) / norms_k
    tight = DISCOVERY_MEMBER_TOL + slack
    loose = DISCOVERY_MEMBER_TOL + 2 * slack
    screen_cut = (10 * DISCOVERY_MEMBER_TOL + 2 * slack) ** 2
    refits = 3 if noisy else 0
    min_members = (2 if noisy else 1) * dim + 2
    inter_tol = 1e-7 + float(np.median(slack)) ** 2 / 2
    dedupe_tol = max(1e-6, inter_tol)

    def residual(Q):
        return np.linalg.norm(Yk - Q @ (Q.T @ Yk), axis=0) / norms_k

    def cluster_of(seed_idx, cand):
        """(span, members) of the seed's first accepted hypothesis, or None."""
        cos = np.abs(Yn[:, cand].T @ Yn[:, seed_idx])
        partners = cand[np.argsort(-cos)]
        partners = partners[partners != seed_idx][:DISCOVERY_MAX_PARTNERS]
        tuples = table[(table < len(partners)).all(axis=1)]  # still lexicographic
        trials = np.insert(partners[tuples], 0, seed_idx, axis=1)
        lo, size = 0, 1
        while lo < len(trials):  # chunks of 1, 2, 4, ... up to step trials: hits come early
            chunk, lo, size = trials[lo : lo + size], lo + size, min(2 * size, step)
            Qt = np.linalg.qr(Yk[:, chunk].transpose(1, 0, 2))[0].transpose(0, 2, 1)
            energy = ((Qt.reshape(-1, P) @ Yk) ** 2).reshape(len(chunk), dim, nk).sum(axis=1)
            possible = 1 - energy / norms_k**2 <= screen_cut
            for idx in chunk[possible.sum(axis=1) >= min_members]:
                cols = Yk[:, idx]
                Q, _ = np.linalg.qr(cols)
                if np.linalg.svd(cols, compute_uv=False)[-1] <= 1e-10 * norms_k[seed_idx]:
                    continue
                r = residual(Q)
                members = r < loose
                for _ in range(refits):
                    Q = np.linalg.svd(Yk[:, members], full_matrices=False)[0][:, :dim]
                    r = residual(Q)
                    members = r < tight
                if members.sum() >= min_members and np.array_equal(members, r < loose):
                    return Q, members
                if noisy:
                    return None
        return None

    unassigned = np.ones(nk, dtype=bool)
    clusters, sizes = [], []
    max_clusters = min(3 * math.comb(structure.K, structure.s), 60)
    while unassigned.sum() >= dim + 2 and len(clusters) < max_clusters:
        cand = np.nonzero(unassigned)[0]
        seed_idx = cand[int(np.argmax(norms_k[cand]))]
        hit = cluster_of(seed_idx, cand)
        if hit is None:
            unassigned[seed_idx] = False
            continue
        Q, found = hit
        clusters.append(orthonormal_basis(Q if noisy else Yk[:, found]))
        sizes.append(int(found.sum()))
        unassigned &= ~found
    if noisy:  # larger clusters have better-fitted spans: intersect those first
        clusters = [clusters[c] for c in sorted(range(len(clusters)), key=lambda c: -sizes[c])]

    # one stacked SVD per pair of cluster dimensions (noiseless clusters can be rank-deficient)
    pairs = list(combinations(range(len(clusters)), 2))
    dims = [(clusters[a].dim, clusters[b].dim) for a, b in pairs]
    inters = {}
    for group in set(dims):
        at = [i for i, d in enumerate(dims) if d == group]
        Qa, Qb = (np.stack([clusters[pairs[i][j]].basis for i in at]) for j in (0, 1))
        U, cos, _ = np.linalg.svd(Qa.transpose(0, 2, 1) @ Qb)
        kept = (np.clip(cos, 0.0, 1.0) >= 1.0 - inter_tol).sum(axis=1) == structure.alpha
        inters.update((i, Qa[k] @ U[k, :, : structure.alpha]) for k, i in enumerate(at) if kept[k])
    blocks = []
    for i in sorted(inters):  # lexicographic pair order
        if not (blocks and _spans_equal_stacked(inters[i], np.array(blocks), dedupe_tol).any()):
            blocks.append(inters[i])
            if len(blocks) == structure.K:
                break
    return [SubspaceBasis(P, inter) for inter in blocks]


def learn_dictionary(
    samples: np.ndarray, config: ExperimentConfig
) -> tuple[BlockDict, LearnTrace]:
    """Alternating-minimization block dictionary learner.

    Each iteration codes all samples against the current dictionary with
    `_code_all` and records the objective (sum of squared coding
    residuals), then sweeps the blocks: each block is refit to the
    residual that keeps its own contribution by the best orthonormal
    rank-alpha factorization (truncated SVD, the closed form of the
    per-block least-squares update followed by re-orthonormalization).
    A block active in fewer than alpha samples cannot be fitted and is
    dead, whether unused or under-used; its codes are dropped, so the
    residual holds what it coded. Dead blocks are then refilled,
    farthest point first, from the worst coding residual and its alpha - 1
    most aligned residuals (padded with random columns when there are
    fewer than alpha samples), and logged; this is the only fallback.
    Stops after the configured iterations or when the objective stalls.

    The initialization clusters samples into support-span groups
    and intersects the cluster spans pairwise: the intersection of two
    overlapping support spans is the span of the shared blocks, so
    discovered intersections start blocks where cold alternation rarely
    arrives. The clustering tolerances come from config.noise_level, which
    should be the noise standard deviation of the samples: 0 asks for exact
    clusters, a positive level for clusters fitted to within that noise
    (see `_discover_block_spans`). Blocks the clustering cannot supply
    start at zero, unused, and are refilled in iteration 0.

    Parameters
    ----------
    samples : array, shape (P, N), finite
    config : ExperimentConfig

    Returns
    -------
    (BlockDict, LearnTrace)
    """
    Y = np.asarray(samples, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != config.ambient_dim:
        raise ValueError(
            f"samples must have shape (ambient_dim, N) = ({config.ambient_dim}, N), "
            f"got {Y.shape}"
        )
    bad = np.nonzero(~np.isfinite(Y).all(axis=0))[0]
    if bad.size:
        raise ValueError(f"samples {bad.tolist()} hold non-finite values")
    structure = config.structure
    alpha = structure.alpha
    P, N = Y.shape
    if N < structure.total_dim:
        warnings.warn(
            f"only {N} samples for {structure.total_dim} dictionary columns; "
            "recovery is under-determined",
            stacklevel=2,
        )
    data = np.zeros((P, structure.total_dim))
    for i, basis in enumerate(_discover_block_spans(Y, structure, config.noise_level), 1):
        data[:, structure.block_slice(i)] = basis.basis
    reseed_rng = _substream(config.seed, _STREAM_RESEED)
    trace = LearnTrace()
    prev_obj = None
    for it in range(config.learner_iterations):
        B = BlockDict(structure, data)
        X, res = _code_all(B, Y)
        objective = float(np.sum(res**2))
        trace.objectives.append(objective)
        if objective <= 1e-24 or (
            prev_obj is not None
            and abs(prev_obj - objective) <= 1e-12 * max(prev_obj, 1e-30)
        ):
            trace.stalled = True
            break
        prev_obj = objective

        dead = []
        for i in range(1, structure.K + 1):
            sl = structure.block_slice(i)
            Xi = X[sl, :]
            active = np.nonzero(np.any(Xi != 0, axis=0))[0]
            if active.size < alpha:  # too few samples to determine the block:
                Xi[:] = 0  # drop its codes, so the residuals carry them
                dead.append(i)
                continue
            # residual that keeps block i's own contribution
            R = Y[:, active] - data @ X[:, active] + data[:, sl] @ Xi[:, active]
            # best orthonormal rank-alpha fit of R and its coefficients
            U, svals, Vt = np.linalg.svd(R, full_matrices=False)
            data[:, sl] = U[:, :alpha]
            X[sl, active] = svals[:alpha, None] * Vt[:alpha, :]
        # refill dead blocks farthest point first: each is projected out of
        # the residuals before the next picks its worst sample
        R = Y - data @ X
        for i in dead:
            norms = np.linalg.norm(R, axis=0)
            worst = int(np.argmax(norms))
            if norms[worst] == 0:
                M = reseed_rng.standard_normal((P, alpha))
            else:
                cos = np.abs(R.T @ R[:, worst]) / np.maximum(norms * norms[worst], 1e-300)
                cos[worst] = np.inf
                M = R[:, np.argsort(-cos)[:alpha]]
                if M.shape[1] < alpha:  # fewer samples than block columns
                    M = np.hstack([M, reseed_rng.standard_normal((P, alpha - M.shape[1]))])
                if np.linalg.matrix_rank(M) < alpha:
                    M = M + 1e-8 * norms[worst] * reseed_rng.standard_normal(M.shape)
            Q = np.linalg.qr(M)[0]
            data[:, structure.block_slice(i)] = Q
            R -= Q @ (Q.T @ R)
            trace.reseed_events.append(
                {"iteration": it, "block": i, "sample": worst, "reason": "dead"}
            )
    return BlockDict(structure, data), trace


@dataclass
class ExperimentReport:
    """Everything one experiment run produced, JSON-serializable."""

    config: dict
    rip: dict | None = None
    generation_retries: int = 0
    underdetermined: bool = False
    trace: dict | None = None
    certificate: dict | None = None
    coding_residuals: list[float] | None = None
    stage_errors: list[dict] = field(default_factory=list)
    wall_clock_sec: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Full pipeline: generate, synthesize, learn, and certify.

    Draws a ground-truth dictionary with `gen_rip_dictionary` (restricted
    isometry constant below 1 at level min(2s, K), exact up to the
    enumeration cap, else sampled), synthesizes noisy or exact samples,
    learns a dictionary, and recovers the equivalence certificate against
    the truth. Stage failures are recorded in the report, not raised. The
    report is identical across runs with the same config except for
    wall_clock_sec.
    """
    start = time.perf_counter()
    report = ExperimentReport(config=config.to_dict())
    structure = config.structure
    dict_seed = int(_substream(config.seed, _STREAM_DICT).integers(2**63))
    codes_seed = int(_substream(config.seed, _STREAM_CODES).integers(2**63))

    stage = "gen_dictionary"
    try:
        truth, rip, report.generation_retries = gen_rip_dictionary(
            config.ambient_dim, structure, dict_seed
        )
        report.rip = rip.to_dict()

        stage = "gen_codes"
        X = gen_codes(structure, config.n_samples, seed=codes_seed)

        stage = "synthesize"
        Y = truth.data @ X
        if config.noise_level > 0:
            Y = Y + config.noise_level * _substream(
                config.seed, _STREAM_NOISE
            ).standard_normal(Y.shape)
        report.underdetermined = config.n_samples < structure.total_dim

        stage = "learn"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            learned, trace = learn_dictionary(Y, config)
        report.trace = trace.to_dict()

        stage = "recover"
        cert = recover_equivalence(truth, learned, tol=config.certificate_tol)
        report.certificate = cert.to_dict()

        stage = "final_coding"
        _, res = _code_all(learned, Y)
        report.coding_residuals = [float(v) for v in res]
    except Exception as exc:  # recorded, not raised: the report is the contract
        report.stage_errors.append({"stage": stage, "error": f"{type(exc).__name__}: {exc}"})

    report.wall_clock_sec = time.perf_counter() - start
    return report


def trace_to_csv(trace: dict) -> str:
    """Flatten a learner trace to CSV rows of iteration,objective."""
    lines = ["iteration,objective"]
    for it, obj in enumerate(trace.get("objectives", [])):
        lines.append(f"{it},{obj!r}")
    return "\n".join(lines) + "\n"
