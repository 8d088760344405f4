from itertools import combinations

import numpy as np
import pytest

from blockdict import (
    BlockDict,
    BlockSparseVec,
    BlockStructure,
    CapacityError,
    RankError,
    block_omp,
    exhaustive_code,
    gen_codes,
    gen_dictionary,
)

from blockdict import coding
from blockdict.coding import _min_residual_codes

from conftest import make_rip_instance, projector


class TestBlockOmp:
    @pytest.mark.parametrize("seed", range(5))
    def test_single_active_block(self, seed):
        A, _, _ = make_rip_instance(16, 6, 2, 1, seed=seed)
        rng = np.random.default_rng(seed)
        i = int(rng.integers(1, 7))
        c = rng.standard_normal(2)
        y = A.block(i) @ c
        result = block_omp(A, y, s=1)
        assert result.code.support == (i,)
        assert result.residual_norm < 1e-12
        oracle = exhaustive_code(A, y, s=1)
        assert oracle.code.support == (i,)
        assert np.allclose(oracle.code.values, result.code.values, atol=1e-10)

    def test_zero_measurement(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=0)
        result = block_omp(A, np.zeros(12))
        assert result.code.support == ()
        assert result.residual_norm == 0.0
        assert np.all(result.code.values == 0)

    def test_s_equals_K_is_full_least_squares(self):
        structure = BlockStructure(K=3, alpha=2, s=3)
        A = gen_dictionary(10, structure, seed=4)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(10)
        result = block_omp(A, y, s=3, tol=0.0)
        # residual equals the projection residual onto the full column span
        expected = np.linalg.norm(y - projector(A.data) @ y) / np.linalg.norm(y)
        assert result.residual_norm == pytest.approx(expected, abs=1e-12)

    def test_support_and_off_support_zeros(self):
        A = gen_dictionary(14, BlockStructure(K=5, alpha=2, s=3), seed=8)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(14)
        result = block_omp(A, y, s=3)
        assert len(result.code.support) <= 3
        assert all(1 <= i <= 5 for i in result.code.support)
        for i in range(1, 6):
            if i not in result.code.support:
                assert np.all(result.code.values[A.structure.block_slice(i)] == 0)

    def test_tie_breaks_to_lowest_block(self):
        structure = BlockStructure(K=3, alpha=1, s=1)
        data = np.zeros((4, 3))
        data[0, 0] = 1.0
        data[0, 1] = 1.0  # identical correlation with y as block 1
        data[1, 2] = 1.0
        A = BlockDict(structure, data)
        y = np.array([1.0, 0.0, 0.0, 0.0])
        assert block_omp(A, y, s=1).code.support == (1,)

    def test_stops_when_no_block_correlates(self, monkeypatch):
        # the columns span the first 12 coordinates and y is e16: every score is 0
        st = BlockStructure(K=6, alpha=2, s=2)
        A = BlockDict(st, np.vstack([gen_dictionary(12, st, seed=0).data, np.zeros((4, 12))]))
        solves = []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(a))
        result = block_omp(A, np.eye(16)[:, 15])
        assert solves == []
        assert result.code.support == () and result.residual_norm == 1.0

    def test_rank_deficient_selection_raises(self):
        # blocks [e1, e2] and [e1, e3]: y = e1 + e2 + e3 selects both, rank 3 < 4
        E = np.eye(4)
        A = BlockDict(BlockStructure(K=2, alpha=2, s=2), E[:, [0, 1, 0, 2]])
        with pytest.raises(RankError, match=r"blocks \(1, 2\) is rank-deficient"):
            block_omp(A, E[:, 0] + E[:, 1] + E[:, 2])

    def test_shape_errors(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=0)
        with pytest.raises(ValueError):
            block_omp(A, np.zeros(11))
        with pytest.raises(ValueError):
            block_omp(A, np.zeros(12), s=5)


class TestExhaustive:
    @pytest.mark.parametrize("seed", range(8))
    def test_recovers_exact_code_under_rip(self, seed):
        A, report, used_seed = make_rip_instance(24, 6, 2, 2, seed=50 + 10 * seed)
        assert report.delta < 1.0
        X = gen_codes(A.structure, 1, seed=used_seed)
        x = BlockSparseVec.from_values(A.structure, X[:, 0])
        y = A.data @ x.values
        result = exhaustive_code(A, y, s=2)
        assert result.residual_norm < 1e-10
        assert result.code.support == x.support
        assert np.max(np.abs(result.code.values - x.values)) < 1e-8

    def test_zero_measurement(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=1)
        result = exhaustive_code(A, np.zeros(12))
        assert result.code.support == ()
        assert result.residual_norm == 0.0

    def test_residual_is_min_projection_residual(self):
        A = gen_dictionary(10, BlockStructure(K=4, alpha=2, s=1), seed=5)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(10)
        result = exhaustive_code(A, y, s=1)
        oracle = min(
            np.linalg.norm(y - projector(A.block(i)) @ y) for i in range(1, 5)
        ) / np.linalg.norm(y)
        assert result.residual_norm == pytest.approx(oracle, abs=1e-12)

    def test_lexicographic_tie_break(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=1), seed=6)
        A = A.with_block(3, A.block(1))  # duplicate span of block 1
        rng = np.random.default_rng(6)
        y = A.block(1) @ rng.standard_normal(2)
        result = exhaustive_code(A, y, s=1)
        assert result.code.support == (1,)

    def test_capacity_error(self):
        # C(40, 20) ~ 1.4e11 supports, above the fixed enumeration cap
        structure = BlockStructure(K=40, alpha=1, s=20)
        A = BlockDict(structure, np.eye(40))
        with pytest.raises(CapacityError):
            exhaustive_code(A, np.ones(40), s=20)

    def test_shape_error(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=0)
        with pytest.raises(ValueError):
            exhaustive_code(A, np.zeros(9))

    def test_negative_tol_rejected(self):
        # a negative tie window holds no support, so argmax would pick the first
        A, _, _ = make_rip_instance(16, 6, 2, 2, seed=40)
        y = A.block(4) @ np.ones(2) + A.block(6) @ np.ones(2)
        for coder in (exhaustive_code, block_omp):
            for tol in (-1.0, float("nan")):
                with pytest.raises(ValueError, match="tol must be nonnegative"):
                    coder(A, y, s=2, tol=tol)
        assert exhaustive_code(A, y, s=2, tol=0.0).code.support == (4, 6)


class TestOracleDominance:
    @pytest.mark.parametrize("seed", range(10))
    def test_exhaustive_never_worse_than_greedy(self, seed):
        A = gen_dictionary(14, BlockStructure(K=6, alpha=2, s=2), seed=seed)
        rng = np.random.default_rng(1000 + seed)
        y = rng.standard_normal(14)
        greedy = block_omp(A, y, s=2, tol=0.0)
        oracle = exhaustive_code(A, y, s=2, tol=0.0)
        assert oracle.residual_norm <= greedy.residual_norm + 1e-12


class TestBatchKernel:
    @pytest.mark.parametrize("chunk", [1, 15 * 7])
    def test_chunked_batch_matches_per_column_calls(self, monkeypatch, chunk):
        # 15 supports: chunk 1 codes one column at a time, 105 seven at a time
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=40)
        st = A.structure
        rng = np.random.default_rng(used)
        Y = A.data @ gen_codes(st, 30, seed=used + 1)
        Y = Y + 1e-2 * rng.standard_normal(Y.shape)
        Y[:, 4] = 0.0
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)
        X, res = _min_residual_codes(A, Y, st.s, 1e-10)
        supports = list(combinations(range(1, 7), 2))
        for c in range(Y.shape[1]):
            one = exhaustive_code(A, Y[:, c], s=st.s, tol=1e-10)
            assert np.max(np.abs(X[:, c] - one.code.values)) <= 1e-12
            assert abs(res[c] - np.linalg.norm(Y[:, c] - A.data @ X[:, c])) <= 1e-12
            # projector oracle: smallest residual over all supports
            oracle = min(
                np.linalg.norm(Y[:, c] - projector(A.restrict(sup)) @ Y[:, c])
                for sup in supports
            )
            assert res[c] == pytest.approx(oracle, abs=1e-12)
        assert not X[:, 4].any() and res[4] == 0.0

    def test_one_column_solve_count(self, monkeypatch):
        A = gen_dictionary(14, BlockStructure(K=6, alpha=2, s=2), seed=2)
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k)
        )
        exhaustive_code(A, np.random.default_rng(2).standard_normal(14), s=2)
        assert len(calls) == 15 + 1
