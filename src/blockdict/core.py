"""Block-structured vectors, dictionaries, and support handling.

Block indices are 1-based everywhere in the public API and in serialized
output; internal storage is plain 0-based numpy. All types are immutable
after construction and all operations are pure functions.

The library's one numerical-rank rule, `_numerical_rank`, lives here: the count of singular values
above tol times the largest. So do the one tolerance check, `_check_tols`, that coding, matching and
certificates run first, the one sparsity check, `_check_s`, and the one scale rule, `_unit_scale`,
that each door (a coder's measurement, the learner's samples, a probe's support columns, the support
bases of `verify` and the minimum-residual coder, the blocks that `match_blocks` and a certificate
compare, `check_lemma1`'s dictionary) applies once: an exact power of two (Higham, ch. 2), so no
squared norm behind it overflows and its answer is the same down to the subnormal range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SUPPORT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8  # the tol of `_numerical_rank` wherever a caller gives none

# A block support: strictly increasing 1-based block indices.
Support = tuple[int, ...]


@dataclass(frozen=True)
class BlockStructure:
    """Shape parameters of the block-sparse model.

    A code vector has K contiguous blocks of height alpha (flat length
    K*alpha) of which at most s blocks are nonzero.
    """

    K: int
    alpha: int
    s: int

    def __post_init__(self):
        for name in ("K", "alpha", "s"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        _check_s(self, self.s)

    @property
    def total_dim(self) -> int:
        return self.K * self.alpha

    def block_slice(self, i: int) -> slice:
        """Flat-index slice of block i (1-based)."""
        if not 1 <= i <= self.K:
            raise IndexError(f"block index {i} out of range 1..{self.K}")
        return slice((i - 1) * self.alpha, i * self.alpha)


def _numerical_rank(svals: np.ndarray, tol: float) -> np.ndarray:
    """Count of singular values above tol times the largest, over the last axis.

    svals is descending on its last axis, as numpy's svd returns it; all zero
    gives 0, and full rank is svals.shape[-1].
    """
    top = svals[..., :1]
    return np.sum((svals > tol * top) & (top > 0), axis=-1)


def _unit_scale(M: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """(M * 2**-e, e): e, kept as M's dims, puts max |M| over axis (None: all) in [0.5, 1), or is
    0 where M is 0. Exact unless an entry is below 2**-1022 times its max."""
    e = np.frexp(np.abs(M).max(axis=axis, initial=0.0, keepdims=True))[1]
    return np.ldexp(M, -e), e


def _check_tols(**tols: float) -> None:
    """ValueError naming the first of tols that is negative or NaN."""
    for name, value in tols.items():
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _check_s(structure: BlockStructure, s: int | None) -> int:
    """s defaulted to structure.s; ValueError unless 1 <= s <= K."""
    s = structure.s if s is None else int(s)
    if not 1 <= s <= structure.K:
        raise ValueError(f"s must satisfy 1 <= s <= K, got s={s}, K={structure.K}")
    return s


def as_support(indices, K: int) -> Support:
    """Normalize a collection of 1-based block indices to a sorted tuple.

    Raises ValueError on duplicates or indices outside 1..K.
    """
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx):
        raise ValueError(f"support has duplicate indices: {sorted(idx)}")
    for i in idx:
        if not 1 <= i <= K:
            raise ValueError(f"block index {i} out of range 1..{K}")
    return tuple(sorted(idx))


def _as_readonly_matrix(data) -> np.ndarray:
    arr = np.array(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must all be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BlockDict:
    """A dense P x K*alpha dictionary viewed as K column-blocks of width alpha."""

    structure: BlockStructure
    data: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_matrix(self.data)
        if arr.shape[1] != self.structure.total_dim:
            raise ValueError(
                f"dictionary has {arr.shape[1]} columns, "
                f"expected K*alpha = {self.structure.total_dim}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def ambient_dim(self) -> int:
        return self.data.shape[0]

    def block(self, i: int) -> np.ndarray:
        """Columns of block i (1-based), shape (P, alpha)."""
        return self.data[:, self.structure.block_slice(i)]

    def restrict(self, support) -> np.ndarray:
        """Columns of the blocks in `support` (sorted), shape (P, len*alpha)."""
        sup = as_support(support, self.structure.K)
        if not sup:
            return self.data[:, :0]
        return np.hstack([self.block(i) for i in sup])

    def with_block(self, i: int, block: np.ndarray) -> BlockDict:
        """A copy of this dictionary with block i replaced."""
        block = np.asarray(block, dtype=float)
        if block.shape != (self.ambient_dim, self.structure.alpha):
            raise ValueError(
                f"replacement block has shape {block.shape}, "
                f"expected {(self.ambient_dim, self.structure.alpha)}"
            )
        data = self.data.copy()
        data[:, self.structure.block_slice(i)] = block
        return BlockDict(self.structure, data)


@dataclass(frozen=True)
class BlockSparseVec:
    """A flat K*alpha vector whose nonzero entries live in at most s blocks.

    The support is read from the values: the 1-based indices of the blocks
    with a nonzero entry.
    """

    structure: BlockStructure
    values: np.ndarray
    support: Support = field(init=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float).reshape(-1)
        sup = block_support(vals, self.structure, tol=0.0)  # checks the length
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("vector entries must all be finite")
        if len(sup) > self.structure.s:
            raise ValueError(
                f"support size {len(sup)} exceeds sparsity level s={self.structure.s}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", sup)

    @classmethod
    def from_values(cls, structure: BlockStructure, values, tol: float = 0.0) -> BlockSparseVec:
        """Build a block-sparse vector, zeroing the blocks whose max magnitude is <= tol."""
        vals = np.array(values, dtype=float).reshape(-1)
        keep = np.zeros(structure.K, dtype=bool)
        keep[[i - 1 for i in block_support(vals, structure, tol=tol)]] = True
        # non-finite entries stay, for the constructor to reject
        keep = np.repeat(keep, structure.alpha) | ~np.isfinite(vals)
        return cls(structure, np.where(keep, vals, 0.0))


def make_indicator(structure: BlockStructure, i: int, j: int) -> BlockSparseVec:
    """Unit vector with a single 1 at entry j of block i (both 1-based).

    Equals the Kronecker product of the i-th standard basis vector of
    length K with the j-th standard basis vector of length alpha.
    """
    if not 1 <= i <= structure.K:
        raise IndexError(f"block index {i} out of range 1..{structure.K}")
    if not 1 <= j <= structure.alpha:
        raise IndexError(f"within-block index {j} out of range 1..{structure.alpha}")
    values = np.zeros(structure.total_dim)
    values[(i - 1) * structure.alpha + (j - 1)] = 1.0
    return BlockSparseVec(structure, values)


def block_support(v, structure: BlockStructure, tol: float = DEFAULT_SUPPORT_TOL) -> Support:
    """Indices of blocks whose max-magnitude entry exceeds tol (1-based)."""
    _check_tols(tol=tol)
    vals = np.asarray(v, dtype=float).reshape(-1)
    if vals.shape[0] != structure.total_dim:
        raise ValueError(
            f"vector has length {vals.shape[0]}, expected K*alpha = {structure.total_dim}"
        )
    per_block = np.abs(vals).reshape(structure.K, structure.alpha).max(axis=1)
    return tuple(int(i) + 1 for i in np.nonzero(per_block > tol)[0])

