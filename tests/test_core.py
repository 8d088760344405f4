import inspect

import numpy as np
import pytest

from blockdict import (
    DEFAULT_RANK_TOL,
    BlockDiagonal,
    BlockDict,
    BlockSparseVec,
    BlockStructure,
    RankError,
    as_support,
    block_omp,
    block_support,
    exhaustive_code,
    gen_dictionary,
    make_indicator,
    orthonormal_basis,
    solve_block_transform,
)
from blockdict import core, subspace
from blockdict.core import _numerical_rank

from conftest import rank_deficient_dict


@pytest.fixture
def st52():
    return BlockStructure(K=5, alpha=2, s=2)


class TestBlockStructure:
    def test_valid(self):
        st = BlockStructure(K=4, alpha=3, s=2)
        assert st.total_dim == 12
        assert st.block_slice(1) == slice(0, 3)
        assert st.block_slice(4) == slice(9, 12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(K=0, alpha=1, s=1),
            dict(K=3, alpha=0, s=1),
            dict(K=3, alpha=1, s=0),
            dict(K=3, alpha=1, s=4),
            dict(K=3, alpha=1.5, s=1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BlockStructure(**kwargs)

    def test_block_slice_range(self, st52):
        with pytest.raises(IndexError):
            st52.block_slice(0)
        with pytest.raises(IndexError):
            st52.block_slice(6)


class TestSupport:
    def test_normalizes(self):
        assert as_support([3, 1], 5) == (1, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            as_support([1, 1], 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_support([0], 5)
        with pytest.raises(ValueError):
            as_support([6], 5)


class TestMakeIndicator:
    def test_first_block(self, st52):
        v = make_indicator(st52, 1, 2)
        assert v.values[1] == 1.0  # flat index 2, 1-based
        assert np.sum(v.values != 0) == 1
        assert v.support == (1,)

    def test_fourth_block(self, st52):
        v = make_indicator(st52, 4, 2)
        assert v.values[7] == 1.0  # flat index 8, 1-based
        assert v.support == (4,)

    def test_out_of_range(self, st52):
        with pytest.raises(IndexError):
            make_indicator(st52, 6, 1)
        with pytest.raises(IndexError):
            make_indicator(st52, 1, 3)
        with pytest.raises(IndexError):
            make_indicator(st52, 0, 1)

    def test_unit_norm_and_support_everywhere(self):
        st = BlockStructure(K=4, alpha=3, s=4)
        for i in range(1, 5):
            for j in range(1, 4):
                v = make_indicator(st, i, j)
                assert np.linalg.norm(v.values) == 1.0
                assert v.support == (i,)


class TestBlockSupport:
    def test_worked_example(self, st52):
        v = [1, 2, 0, 0, 0, 0, 0, 3, 0, 0]
        assert block_support(v, st52, tol=0.0) == (1, 4)

    def test_zero_vector(self, st52):
        assert block_support(np.zeros(10), st52, tol=0.0) == ()

    def test_below_tolerance(self, st52):
        v = np.zeros(10)
        v[0] = 1e-12
        assert block_support(v, st52, tol=1e-9) == ()

    def test_length_mismatch(self, st52):
        with pytest.raises(ValueError):
            block_support(np.zeros(9), st52)

    def test_negative_tol(self, st52):
        # nothing exceeds a NaN tolerance, so the support would come back empty
        for tol in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                block_support(np.ones(10), st52, tol=tol)

    @pytest.mark.parametrize("seed", range(5))
    def test_zeroing_off_support_is_identity(self, st52, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(10)
        v[rng.random(10) < 0.4] = 0.0
        sup = block_support(v, st52, tol=0.0)
        masked = np.zeros_like(v)
        for i in sup:
            masked[st52.block_slice(i)] = v[st52.block_slice(i)]
        assert np.array_equal(masked, v)


class TestBlockSparseVec:
    def test_support_too_large(self, st52):
        with pytest.raises(ValueError, match="^support size 5 exceeds sparsity level s=2$"):
            BlockSparseVec(st52, np.ones(10))

    def test_nonzero_off_support(self, st52):
        # the support is read from the values, so no nonzero block is off it
        v = np.zeros(10)
        v[0] = 1.0
        v[4] = 1.0
        assert BlockSparseVec(st52, v).support == (1, 3)

    def test_zero_block_in_support(self, st52):
        # ... and no all-zero block is in it
        v = np.zeros(10)
        v[0] = 1.0
        assert BlockSparseVec(st52, v).support == (1,)

    def test_support_is_the_nonzero_blocks(self, st52):
        A = gen_dictionary(8, st52, seed=1)
        v = np.zeros(10)
        v[[0, 5]] = 1.0, 1e-12  # block 1, and block 3 below tol 1e-9
        x = np.zeros(10)
        x[[2, 3, 8, 9]] = 0.5, -1.0, 0.25, 2.0  # blocks 2 and 5
        y = A.data @ x + 1e-3 * np.random.default_rng(2).standard_normal(8)
        codes = [
            BlockSparseVec.from_values(st52, v, tol=0.0),
            BlockSparseVec.from_values(st52, v, tol=1e-9),
            make_indicator(st52, 4, 2),
            *(f(A, m).code for f in (block_omp, exhaustive_code) for m in (y, np.zeros(8))),
        ]
        for code in codes:
            blocks = code.values.reshape(5, 2)
            assert code.support == tuple(int(i) + 1 for i in np.flatnonzero(blocks.any(axis=1)))
        assert [c.support for c in codes] == [(1, 3), (1,), (4,), (2, 5), (), (2, 5), ()]

    def test_length_and_finiteness_checked(self, st52):
        with pytest.raises(ValueError, match="^vector has length 9, expected K\\*alpha = 10$"):
            BlockSparseVec(st52, np.ones(9))
        with pytest.raises(ValueError, match="^vector entries must all be finite$"):
            BlockSparseVec(st52, np.array([np.inf] + [0.0] * 9))

    def test_from_values_keeps_non_finite_entries_to_reject(self, st52):
        # a NaN block's max magnitude is NaN, never above tol, yet it must not be zeroed
        for v in ([np.nan, 1.0] + [0.0] * 8, [0.0] * 9 + [-np.inf]):
            with pytest.raises(ValueError, match="^vector entries must all be finite$"):
                BlockSparseVec.from_values(st52, v, tol=1e-9)

    def test_from_values_detects_support(self, st52):
        v = np.zeros(10)
        v[2] = 0.5
        v[9] = -0.25
        bsv = BlockSparseVec.from_values(st52, v)
        assert bsv.support == (2, 5)

    def test_from_values_cleans_below_tol(self, st52):
        v = np.zeros(10)
        v[0] = 1.0
        v[5] = 1e-12
        bsv = BlockSparseVec.from_values(st52, v, tol=1e-9)
        assert bsv.support == (1,)
        assert bsv.values[5] == 0.0

    def test_values_read_only(self, st52):
        bsv = make_indicator(st52, 1, 1)
        with pytest.raises(ValueError):
            bsv.values[0] = 2.0


class TestBlockDict:
    def test_column_count_checked(self, st52):
        with pytest.raises(ValueError):
            BlockDict(st52, np.zeros((4, 9)))

    def test_non_finite_rejected(self, st52):
        data = np.zeros((4, 10))
        data[0, 0] = np.nan
        with pytest.raises(ValueError):
            BlockDict(st52, data)

    @pytest.mark.parametrize("shape", [(10,), (2, 4, 10)], ids=["1-D", "3-D"])
    def test_non_matrix_rejected(self, st52, shape):
        with pytest.raises(ValueError, match=f"expected a 2-D matrix, got ndim={len(shape)}"):
            BlockDict(st52, np.zeros(shape))

    def test_block_and_restrict(self, st52):
        data = np.arange(40, dtype=float).reshape(4, 10)
        A = BlockDict(st52, data)
        assert A.ambient_dim == 4
        assert np.array_equal(A.block(1), data[:, 0:2])
        assert np.array_equal(A.block(5), data[:, 8:10])
        assert np.array_equal(A.restrict([4, 2]), data[:, [2, 3, 6, 7]])
        assert A.restrict([]).shape == (4, 0)

    def test_with_block(self, st52):
        A = BlockDict(st52, np.zeros((4, 10)))
        blk = np.ones((4, 2))
        B = A.with_block(3, blk)
        assert np.array_equal(B.block(3), blk)
        assert np.all(A.block(3) == 0)  # original untouched

    @pytest.mark.parametrize("shape", [(4, 3), (5, 2), (4,)])
    def test_with_block_shape_checked(self, st52, shape):
        A = BlockDict(st52, np.zeros((4, 10)))
        with pytest.raises(ValueError, match=r"replacement block has shape .*, expected \(4, 2\)"):
            A.with_block(3, np.ones(shape))

    def test_block_ranks_default_is_the_rank_tol(self):
        # singular values (1, 5e-9): rank 1 at DEFAULT_RANK_TOL = 1e-8, the default
        # of the span functions and of the invertibility check alike
        A = rank_deficient_dict((1.0, 5e-9))
        ranks = tuple(orthonormal_basis(A.block(j)).dim for j in range(1, 5))
        assert ranks == (2, 1, 2, 2)
        assert DEFAULT_RANK_TOL == subspace.DEFAULT_RANK_TOL == core.DEFAULT_RANK_TOL == 1e-8
        tol = inspect.signature(BlockDiagonal.is_invertible).parameters["tol"].default
        assert tol is DEFAULT_RANK_TOL


# (second singular value, rank) at tol = 2**-10 for blocks diag(1, t) and zero
TOL = 2.0**-10
RANK_CASES = [(None, 0), (0.0, 1), (TOL / 2, 1), (TOL, 1), (2 * TOL, 2), (1.0, 2)]


@pytest.mark.parametrize("t, rank", RANK_CASES)
def test_rank_rule_boundaries(t, rank):
    """The one rank rule: singular values strictly above tol * largest; zero has rank 0."""
    square = np.zeros((2, 2)) if t is None else np.diag([1.0, t])
    block = np.vstack([square, np.zeros((2, 2))])
    svals = np.linalg.svd(block, compute_uv=False)
    assert _numerical_rank(svals, TOL) == rank
    D = BlockDiagonal(BlockStructure(K=2, alpha=2, s=1), (np.eye(2), square))
    assert D.is_invertible(TOL) == (rank == 2)
    if rank == 2:
        solve_block_transform(np.ones((4, 2)), block, rank_tol=TOL)
    else:
        with pytest.raises(RankError):
            solve_block_transform(np.ones((4, 2)), block, rank_tol=TOL)


def test_rank_rule_stacked():
    svals = np.array([[[4.0, 2.0, 0.0], [0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0], [3.0, 3e-9, 0.0]]])
    assert _numerical_rank(svals, 1e-8).tolist() == [[2, 0], [3, 1]]
    assert _numerical_rank(np.empty((3, 0)), 1e-8).tolist() == [0, 0, 0]
