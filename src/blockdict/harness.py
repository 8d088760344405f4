"""Synthetic instances, a baseline block dictionary learner, and experiments.

The learner starts from the block spans `discovery` finds; blocks it cannot
supply start at zero. It then alternates coding all samples in one batched kernel
call, by `exhaustive_code`'s minimum-residual rule (`block_omp`'s once
C(K, s) exceeds the enumeration cap), with per-block least-squares
dictionary updates (each updated block re-orthonormalized) until the
objective moves by less than the noise floor noise_level sets. A block
coded in fewer than alpha samples is dead, an unused or missing one
included; reseeding it from the worst coding residual and its most aligned
peers is the only fallback. Everything is deterministic given the config seed.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import compress

import numpy as np

from .coding import DEFAULT_CODING_TOL, _min_residual_codes, _omp_codes
from .core import BlockDict, BlockStructure, _numerical_rank, _unit_scale
from .discovery import _discover_block_spans
from .equivalence import (
    DEFAULT_CERTIFICATE_TOL,
    BlockDiagonal,
    BlockPermutation,
    recover_equivalence,
)
from .rip import DEFAULT_ENUMERATION_CAP, RipReport
from .rip import _rayleigh_floors, _support_columns, rip_constant
# not called here: bench/tracing.py rebinds these names in this module
from .coding import block_omp  # noqa: F401
from .rip import rip_constant_exact, rip_lower_bound_sampled  # noqa: F401

MODE_GAUSSIAN = "gaussian"
MODE_BLOCK_ORTH = "per-block-orthonormal"
MAX_GENERATION_RETRIES = 1000

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


def _draw_dictionaries(ambient_dim: int, structure: BlockStructure, rng, n, mode=MODE_BLOCK_ORTH):
    """The next n dictionaries of rng, one (n, P, K*alpha) normal draw, per-block-orthonormal
    ones by one QR over all blocks of the stack: the stream and numpy's per-matrix
    factoring give each draw the bytes of drawing it alone."""
    if ambient_dim < structure.alpha:
        raise ValueError(f"ambient_dim {ambient_dim} is below the block width {structure.alpha}")
    if mode not in (MODE_GAUSSIAN, MODE_BLOCK_ORTH):
        raise ValueError(f"unknown dictionary mode {mode!r}")
    raw = rng.standard_normal((n, ambient_dim, structure.total_dim))
    if mode == MODE_GAUSSIAN:
        return raw
    blocks = raw.reshape(n, ambient_dim, structure.K, structure.alpha)
    Q = np.linalg.qr(blocks.transpose(0, 2, 1, 3))[0]
    return Q.transpose(0, 2, 1, 3).reshape(raw.shape)


def gen_dictionary(
    ambient_dim: int, structure: BlockStructure, seed: int, mode: str = MODE_BLOCK_ORTH
) -> BlockDict:
    """Random dictionary, deterministic given seed.

    gaussian: i.i.d. standard normal entries. per-block-orthonormal: each
    block's alpha columns are orthonormalized (one QR over the stack of
    blocks), so every block Gram is the identity.
    """
    rng = np.random.default_rng(seed)
    return BlockDict(structure, _draw_dictionaries(ambient_dim, structure, rng, 1, mode)[0])


def gen_rip_dictionary(
    ambient_dim: int, structure: BlockStructure, seed: int
) -> tuple[BlockDict, RipReport, int]:
    """First per-block-orthonormal draw of one `default_rng(seed)` stream with constant below 1.

    The constant of draw o is `rip_constant` at level min(2s, K), sampled
    from seed + o above the enumeration cap. Draws come in batches of 16,
    each one stacked QR; when the constant is exact, draws whose
    `rip._rayleigh_floors` floor is >= 1, which it would reject, are
    skipped. Draw 0 is `gen_dictionary(seed)`; later draws are not
    `gen_dictionary(seed + o)`. Returns (dictionary, its RipReport, the
    number of draws before it); raises ValueError after
    MAX_GENERATION_RETRIES + 1 draws.
    """
    _check_ambient(ambient_dim, structure)
    rng, level = np.random.default_rng(seed), min(2 * structure.s, structure.K)
    exact = math.comb(structure.K, level) <= DEFAULT_ENUMERATION_CAP
    for start in range(0, MAX_GENERATION_RETRIES + 1, 16):
        n = min(16, MAX_GENERATION_RETRIES + 1 - start)
        data = _draw_dictionaries(ambient_dim, structure, rng, n)
        floors = _rayleigh_floors(data, structure.alpha, level) if exact else np.zeros(n)
        for o, D in compress(enumerate(data, start), ~(floors >= 1.0)):  # NaN floors are checked
            A = BlockDict(structure, D)
            report = rip_constant(A, level, seed + o)
            if report.delta < 1.0:
                return A, report, o
    raise ValueError(
        f"no dictionary with restricted isometry constant below 1 found in "
        f"{MAX_GENERATION_RETRIES + 1} draws"
    )


def gen_codes(
    structure: BlockStructure, n_samples: int, seed: int, coefficient_scale: float = 1.0
) -> np.ndarray:
    """Random s-block-sparse codes as the columns of a K*alpha x N matrix.

    Deterministic given seed. Sample c's support, uniform over size-s
    supports, is the s blocks with the smallest keys in row c of one
    `random((N, K))` draw; its active entries, in column order, take row c
    of one `uniform(0.1, 1)` and one `integers(0, 2)` draw of N x s*alpha for
    magnitudes and signs, times coefficient_scale, so each is bounded away
    from zero. `BlockSparseVec(structure, X[:, c])` reads a column's support.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not (math.isfinite(coefficient_scale) and coefficient_scale > 0):
        raise ValueError(f"coefficient_scale must be finite and positive, got {coefficient_scale}")
    rng, N, alpha, s = np.random.default_rng(seed), n_samples, structure.alpha, structure.s
    supports = np.sort(np.argsort(rng.random((N, structure.K)), axis=1)[:, :s], axis=1) + 1
    magnitude = coefficient_scale * rng.uniform(0.1, 1.0, (N, s * alpha))
    sign = rng.integers(0, 2, (N, s * alpha)) * 2 - 1
    X = np.zeros((structure.total_dim, N))
    X[_support_columns(supports, alpha), np.arange(N)[:, None]] = sign * magnitude
    return X


def gen_block_permutation(K: int, seed: int) -> BlockPermutation:
    """Uniformly random block permutation, deterministic given seed."""
    rng = np.random.default_rng(seed)
    return BlockPermutation(K, tuple(int(v) + 1 for v in rng.permutation(K)))


def gen_block_diagonal(structure: BlockStructure, seed: int) -> BlockDiagonal:
    """Random invertible block transforms U diag(sigma) V^T, each with condition number at
    most 10: U and V orthonormalize two (K, alpha, alpha) normal draws, sigma ~ U[1, 10]."""
    rng, shape = np.random.default_rng(seed), (structure.K, structure.alpha, structure.alpha)
    U, V = (np.linalg.qr(rng.standard_normal(shape))[0] for _ in range(2))
    svals = rng.uniform(1.0, 10.0, shape[:2])
    return BlockDiagonal(structure, tuple((U * svals[:, None, :]) @ V.transpose(0, 2, 1)))


@dataclass
class LearnTrace:
    """Objective per iteration plus any dead-block reseed events."""

    objectives: list[float] = field(default_factory=list)
    reseed_events: list[dict] = field(default_factory=list)
    stalled: bool = False
    residuals = None  # unannotated, so in no report: the returned dictionary's coding residuals

    def to_dict(self) -> dict:
        return asdict(self)


def _code_all(B: BlockDict, Y: np.ndarray):
    """Code every column of Y at B's sparsity and DEFAULT_CODING_TOL with one batched kernel.

    Returns (codes matrix, abs residual norms): up to DEFAULT_ENUMERATION_CAP supports,
    `_min_residual_codes`, each sample's `exhaustive_code` code and projection residual;
    above the cap, `_omp_codes`, so each sample gets its `block_omp` code. A sample whose
    block-OMP selection is rank-deficient (degenerate mid-learning state) is left uncoded
    for the round; its full residual makes it the natural reseeding source. Its one caller,
    the learner, passes Y at its power-of-two scale, so no squared norm overflows.
    """
    s, tol = B.structure.s, DEFAULT_CODING_TOL
    if math.comb(B.structure.K, s) <= DEFAULT_ENUMERATION_CAP:
        return _min_residual_codes(B, Y, s, tol)[:2]
    return _omp_codes(B, Y, s, tol)[:2]


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

    Stops after the configured iterations, at a zero objective, or when
    |change| <= max(1e-12 * previous, 0.1 * sigma^2 * sqrt(2N(P - s*alpha)))
    with sigma = config.noise_level. At the truth each residual is a
    sample's noise outside an (s*alpha)-dimensional support span, so the
    objective is sigma^2 times a chi-square with N(P - s*alpha) degrees of
    freedom, of standard deviation sigma^2 * sqrt(2N(P - s*alpha)); a change
    below a tenth of it is below what the data resolve (noiseless, the
    floor is 0). The learner works on Y * 2^-e and sigma * 2^-e, e the
    binary exponent of max|Y|, and reports objectives scaled back by 4^e:
    the scaling is exact, so samples and sigma times any power of two learn
    the same blocks, and a zero objective is one at most 1e-24 at that scale.

    The initialization is `discovery._discover_block_spans` at config.noise_level; blocks it
    cannot supply start at zero and are refilled in iteration 0. samples is a finite P x N
    array; the trace reports the coding residuals of the dictionary returned.
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
    Y, [[e]] = _unit_scale(Y, None)
    sigma = math.ldexp(config.noise_level, -int(e))
    data = np.zeros((P, structure.total_dim))
    for i, basis in enumerate(_discover_block_spans(Y, structure, sigma), 1):
        data[:, structure.block_slice(i)] = basis
    reseed_rng = _substream(config.seed, _STREAM_RESEED)
    trace = LearnTrace()
    prev_obj = math.nan  # compares false: no stall before the second objective
    floor = 0.1 * sigma**2 * math.sqrt(2 * N * (P - structure.s * alpha))
    for it in range(config.learner_iterations + 1):
        B = BlockDict(structure, data)
        X, res = _code_all(B, Y)
        if it == config.learner_iterations:  # the cap: B is coded, and it is returned
            break
        objective = float(np.sum(res**2))
        with np.errstate(over="ignore"):  # at the samples' scale, inf past the float range
            trace.objectives.append(float(np.ldexp(objective, 2 * e)))
            if objective <= 1e-24 or abs(prev_obj - objective) <= max(1e-12 * prev_obj, floor):
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
                sv = np.linalg.svd(M, compute_uv=False)  # ranked at numpy's matrix_rank cut
                if _numerical_rank(sv, max(M.shape) * np.finfo(float).eps) < alpha:
                    M = M + 1e-8 * norms[worst] * reseed_rng.standard_normal(M.shape)
            Q = np.linalg.qr(M)[0]
            data[:, structure.block_slice(i)] = Q
            R -= Q @ (Q.T @ R)
            trace.reseed_events.append(
                {"iteration": it, "block": i, "sample": worst, "reason": "dead"}
            )
    with np.errstate(over="ignore"):  # at the samples' scale, inf past the float range
        trace.residuals = np.ldexp(res, e)
    return B, trace


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
    the truth. The coding residuals are the learner's, of the dictionary it returns.
    Stage failures are recorded in the report, not raised. The report is
    identical across runs with the same config except for wall_clock_sec.
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
            with np.errstate(over="raise"):  # this stage's error under any warning filter
                z = _substream(config.seed, _STREAM_NOISE).standard_normal(Y.shape)
                Y = Y + config.noise_level * z
        report.underdetermined = config.n_samples < structure.total_dim

        stage = "learn"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            learned, trace = learn_dictionary(Y, config)
        report.trace = trace.to_dict()
        report.coding_residuals = trace.residuals.tolist()

        stage = "recover"
        cert = recover_equivalence(truth, learned, tol=config.certificate_tol)
        report.certificate = cert.to_dict()
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
