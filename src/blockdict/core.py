"""Block-structured vectors, dictionaries, and support handling.

Block indices are 1-based everywhere in the public API and in serialized
output; internal storage is plain 0-based numpy. All types are immutable
after construction and all operations are pure functions.

The library's one numerical-rank rule, `_numerical_rank`, lives here: the
count of singular values above tol times the largest. So does the one
tolerance check, `_check_tols`, that coding, matching and certificates run first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SUPPORT_TOL = 1e-9

# A block support: strictly increasing 1-based block indices.
Support = tuple[int, ...]


@dataclass(frozen=True)
class BlockStructure:
    """Shape parameters of the block-sparse model.

    A code vector has K contiguous blocks of height alpha (flat length
    K*alpha, or a K*alpha x beta matrix when beta > 1) of which at most
    s blocks are nonzero.
    """

    K: int
    alpha: int
    s: int
    beta: int = 1

    def __post_init__(self):
        for name in ("K", "alpha", "s", "beta"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not 1 <= self.s <= self.K:
            raise ValueError(f"s must satisfy 1 <= s <= K, got s={self.s}, K={self.K}")

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


def _check_tols(**tols: float) -> None:
    """ValueError naming the first of tols that is negative or NaN."""
    for name, value in tols.items():
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


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

    def block_ranks(self, tol: float = 1e-10) -> tuple[int, ...]:
        """Numerical rank of each block (singular values > tol * largest)."""
        K, alpha = self.structure.K, self.structure.alpha
        blocks = self.data.reshape(self.ambient_dim, K, alpha).transpose(1, 0, 2)
        svals = np.linalg.svd(blocks, compute_uv=False)
        return tuple(int(r) for r in _numerical_rank(svals, tol))


@dataclass(frozen=True)
class BlockSparseVec:
    """A flat K*alpha vector whose nonzero entries live in at most s blocks."""

    structure: BlockStructure
    values: np.ndarray
    support: Support

    def __post_init__(self):
        vals = np.array(self.values, dtype=float).reshape(-1)
        if vals.shape[0] != self.structure.total_dim:
            raise ValueError(
                f"vector has length {vals.shape[0]}, "
                f"expected K*alpha = {self.structure.total_dim}"
            )
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("vector entries must all be finite")
        vals.setflags(write=False)
        sup = as_support(self.support, self.structure.K)
        if len(sup) > self.structure.s:
            raise ValueError(
                f"support size {len(sup)} exceeds sparsity level s={self.structure.s}"
            )
        nonzero = np.flatnonzero(np.any(vals.reshape(self.structure.K, -1) != 0, axis=1)) + 1
        if tuple(nonzero) != sup:
            i = int(min(set(nonzero) ^ set(sup)))  # first offending block
            if i in sup:
                raise ValueError(f"block {i} is in the support but is all zero")
            raise ValueError(f"block {i} is outside the support but nonzero")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", sup)

    @classmethod
    def from_values(cls, structure: BlockStructure, values, tol: float = 0.0) -> BlockSparseVec:
        """Build a block-sparse vector, detecting the support at tolerance tol.

        Entries in blocks whose max magnitude is <= tol are zeroed out.
        """
        vals = np.array(values, dtype=float).reshape(-1)
        if vals.shape[0] != structure.total_dim:
            raise ValueError(
                f"vector has length {vals.shape[0]}, expected {structure.total_dim}"
            )
        sup = block_support(vals, structure, tol=tol)
        keep = np.zeros(structure.K, dtype=bool)
        keep[[i - 1 for i in sup]] = True
        return cls(structure, np.where(np.repeat(keep, structure.alpha), vals, 0.0), sup)


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
    return BlockSparseVec(structure, values, (i,))


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


def split_columns(code, structure: BlockStructure) -> list[np.ndarray]:
    """Split a K*alpha x beta code matrix into its beta columns.

    Reduces the beta > 1 model to beta independent flat vectors;
    stacking the outputs column-wise reproduces the input.
    """
    arr = np.asarray(code, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape != (structure.total_dim, structure.beta):
        raise ValueError(
            f"code has shape {arr.shape}, expected "
            f"{(structure.total_dim, structure.beta)}"
        )
    return [arr[:, c].copy() for c in range(structure.beta)]
