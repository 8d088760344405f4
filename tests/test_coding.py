import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from blockdict import (
    MODE_BLOCK_ORTH,
    MODE_GAUSSIAN,
    BlockDict,
    BlockSparseVec,
    BlockStructure,
    CapacityError,
    RankError,
    block_omp,
    exhaustive_code,
    gen_dictionary,
)

from blockdict import coding, subspace
from blockdict.coding import DEFAULT_CODING_TOL, _min_residual_codes, _omp_codes
from blockdict.core import _numerical_rank
from blockdict.rip import _enumerate_supports

from conftest import (
    RANK_DEFICIENT_SVALS,
    make_rip_instance,
    projector,
    rank_deficient_dict,
    reference_block_omp,
    sequential_gen_codes,
)


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
        solves, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: solves.append(a) or svd(*a, **k))
        result = block_omp(A, np.eye(16)[:, 15])
        assert solves == []
        assert result.code.support == () and result.residual_norm == 1.0
        block_omp(A, A.data[:, 0])  # the spy sees the solve of a correlating measurement
        assert solves

    def test_rank_deficient_selection_raises(self):
        # blocks [e1, e2] and [e1, e3]: y = e1 + e2 + e3 selects both, rank 3 < 4
        E = np.eye(4)
        A = BlockDict(BlockStructure(K=2, alpha=2, s=2), E[:, [0, 1, 0, 2]])
        with pytest.raises(RankError, match=r"blocks \(1, 2\) is rank-deficient"):
            block_omp(A, E[:, 0] + E[:, 1] + E[:, 2])

    def test_rank_error_lists_blocks_in_selection_order(self):
        # blocks [e1, e2] and [e1, e3]: y = e1 + 0.5 e2 + 2 e3 selects block 2, then block 1
        E = np.eye(4)
        A = BlockDict(BlockStructure(K=2, alpha=2, s=2), E[:, [0, 1, 0, 2]])
        with pytest.raises(RankError, match=r"blocks \(2, 1\) is rank-deficient \(rank 3 < 4"):
            block_omp(A, E[:, 0] + 0.5 * E[:, 1] + 2 * E[:, 2])

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_equal_blocks_tie_to_the_lowest_at_any_position(self, alpha):
        # block K repeats block 1 and y lies in their span: both score ||y||, the most any block
        # can. Each correlation is one dot product, so the two scores are equal bytes wherever
        # block K sits (one GEMV rounds a row by its position and could pick block K).
        for K in range(2, 26):
            A = gen_dictionary(4 * alpha + 6, BlockStructure(K=K, alpha=alpha, s=1), seed=K)
            A = A.with_block(K, A.block(1))
            y = A.block(1) @ np.random.default_rng(K + alpha).standard_normal(alpha)
            assert block_omp(A, y, s=1).code.support == (1,), K

    def test_shape_errors(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=0)
        with pytest.raises(ValueError):
            block_omp(A, np.zeros(11))
        with pytest.raises(ValueError):
            block_omp(A, np.zeros(12), s=5)


def omp_outcome(coder, A, y):
    """(RankError message or None, support, values, relative residual) of coder on y."""
    try:
        r = coder(A, y)
    except RankError as exc:
        return str(exc), None, None, None
    return None, r.code.support, r.code.values, r.residual_norm


def first_pick_named(outcome, st, c, d):
    """outcome with blocks c < d, equal columns, renamed so c is the one picked first.

    The reference scores all blocks with one GEMV, which rounds a row by its position,
    so it can break the exact tie between c and d toward d.
    """
    msg, support, values, residual = outcome
    name = {c: d, d: c}
    if msg is not None:
        picks = [int(b) for b in re.search(r"blocks \(([\d, ]+?),?\)", msg)[1].split(",")]
        if d in picks and (c not in picks or picks.index(d) < picks.index(c)):
            msg = re.sub(r"blocks \(.*?\)", f"blocks {tuple(name.get(b, b) for b in picks)}", msg)
    elif d in support and c not in support:
        support = tuple(sorted(name.get(b, b) for b in support))
        values = values.copy()
        values[st.block_slice(c)], values[st.block_slice(d)] = values[st.block_slice(d)], 0.0
    return msg, support, values, residual


class TestOmpKernel:
    """`_omp_codes` against the per-vector reference, and its batch independence."""

    def test_matches_the_per_vector_reference(self):
        rng, columns, raised = np.random.default_rng(32), 0, 0
        for trial in range(240):
            K = int(rng.integers(2, 25))
            alpha, s = int(rng.integers(1, 4)), int(rng.integers(1, min(K, 5) + 1))
            P = int(rng.integers(min(2 * s, K) * alpha, 3 * s * alpha + 3))
            st = BlockStructure(K=K, alpha=alpha, s=s)
            A = gen_dictionary(P, st, seed=trial, mode=(MODE_GAUSSIAN, MODE_BLOCK_ORTH)[trial % 2])
            c, d = sorted(int(b) + 1 for b in rng.choice(K, 2, replace=False))
            if dup := trial % 3 == 0:  # a duplicated block: rank-short selections, exact ties
                A = A.with_block(d, A.block(c))
            active = np.repeat(rng.permutation(K) < s, alpha)
            Y = np.column_stack([rng.standard_normal((P, 3)) * [1.0, 1e200, 1e-200],
                                 A.data @ (active * rng.standard_normal(K * alpha))])
            for y in Y.T:
                got = omp_outcome(block_omp, A, y)
                ref = omp_outcome(reference_block_omp, A, y)
                ref = first_pick_named(ref, st, c, d) if dup else ref
                assert got[:2] == ref[:2], (trial, got[:2], ref[:2])
                columns, raised = columns + 1, raised + (ref[0] is not None)
                if ref[0] is None:
                    assert np.max(np.abs(got[2] - ref[2]), initial=0.0) <= 1e-12 * np.max(
                        np.abs(ref[2]), initial=0.0), trial
                    assert abs(got[3] - ref[3]) <= 1e-12, trial
        assert columns == 960 and raised > 0

    @pytest.mark.parametrize("chunk", [1, coding._CODE_CHUNK])
    def test_batch_bytes_equal_one_column_calls(self, monkeypatch, chunk):
        # chunk 1 codes one column per chunk; the default codes all 12 in one
        st = BlockStructure(K=8, alpha=2, s=3)
        A = gen_dictionary(20, st, seed=5, mode=MODE_GAUSSIAN)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(20)
        A = A.with_block(6, np.column_stack([A.block(2)[:, 0], v]))  # shares a column with block 2
        Y = rng.standard_normal((20, 12)) * np.logspace(-200, 200, 12)
        Y[:, 3] = 0.0
        Y[:, 7] = A.data[:, [0, 1, 8]] @ rng.standard_normal(3)  # an exact fit
        Y[:, 9] = A.block(2) @ [1.0, 0.5] + 2 * v  # selects blocks 6 and 2: rank 3 < 4
        Y = coding._unit_scale(Y, 0)[0]  # the coder's input, as `block_omp` scales it
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)

        def by_column(out):
            X, res, steps, rank = out
            return [(X[:, c].tobytes(), res[c].tobytes(), steps[c].tobytes(), rank[c].tobytes())
                    for c in range(len(res))]

        def code(Z):
            return by_column(_omp_codes(A, Z, st.s, 1e-10))

        batch = code(Y)
        assert batch == [col for c in range(12) for col in code(Y[:, [c]])]
        assert batch == code(Y[:, ::-1])[::-1]
        assert batch == code(Y[:, :5]) + code(Y[:, 5:])
        X, res, steps, rank = _omp_codes(A, Y, st.s, 1e-10)
        assert np.flatnonzero(rank < st.alpha * np.count_nonzero(steps, axis=1)).tolist() == [9]
        assert not X[:, 9].any() and res[9] == np.linalg.norm(Y[:, 9])

    def test_memory_stays_bounded(self):
        # 1,000 columns at P=40, s*alpha=10: in one chunk the stacked SVDs alone take ~12 MB
        st = BlockStructure(K=20, alpha=2, s=5)
        A = gen_dictionary(40, st, seed=1)
        Y = np.random.default_rng(1).standard_normal((40, 1000))
        tracemalloc.start()
        try:
            _omp_codes(A, Y, st.s, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


class TestExhaustive:
    @pytest.mark.parametrize("seed", range(8))
    def test_recovers_exact_code_under_rip(self, seed):
        A, report, used_seed = make_rip_instance(24, 6, 2, 2, seed=50 + 10 * seed)
        assert report.delta < 1.0
        X = sequential_gen_codes(A.structure, 1, seed=used_seed)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_measurement_rejected(self, bad):
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=1)
        y = np.ones(16)
        y[[3, 9]] = bad
        for coder in (exhaustive_code, block_omp):
            with pytest.raises(ValueError, match=r"non-finite values at entries \[3, 9\]"):
                coder(A, y)
            with pytest.raises(ValueError, match="non-finite"):
                coder(A, np.full(16, bad))

    def test_ties_are_flagged(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=1), seed=6)
        rng = np.random.default_rng(6)
        assert not exhaustive_code(A, A.block(1) @ rng.standard_normal(2), s=1).tied
        assert exhaustive_code(A, np.zeros(12), s=1).tied  # every support fits 0
        A = A.with_block(3, A.block(1))
        assert exhaustive_code(A, A.block(1) @ rng.standard_normal(2), s=1).tied


class TestScale:
    """Both coders code y at a power-of-two scale, so 2**k y gets 2**k times y's code."""

    @staticmethod
    def instance():
        A = gen_dictionary(8, BlockStructure(K=4, alpha=2, s=2), seed=1)
        x = np.zeros(8)
        x[[0, 1, 4, 5]] = [1, 2, 3, 4]
        return A, A.data @ x

    @pytest.mark.parametrize("coder", [exhaustive_code, block_omp])
    def test_power_of_two_scales_are_exact(self, coder):
        A, y = self.instance()
        ref = coder(A, y)
        for k in range(-1000, 1001, 5):
            got = coder(A, np.ldexp(y, k))
            assert np.array_equal(got.code.values, np.ldexp(ref.code.values, k)), k
            assert got.residual_norm == ref.residual_norm, k
            assert got.tied == ref.tied, k

    @pytest.mark.parametrize("c", [1e-170, 1e155])
    def test_supports_at_extreme_scales(self, c):
        # ||c y||^2 underflows at 1e-170 and overflows at 1e155; filterwarnings = error
        A, y = self.instance()
        exact = exhaustive_code(A, c * y)
        assert exact.code.support == (1, 3) and not exact.tied
        assert exact.residual_norm < 1e-12
        greedy, ref = block_omp(A, c * y), block_omp(A, y)
        assert greedy.code.support == ref.code.support == (3, 4)  # greedy's miss, at any scale
        assert greedy.residual_norm == pytest.approx(ref.residual_norm, rel=1e-12)

    @pytest.mark.parametrize("k", [900, -900, 1000, -1000])
    def test_omp_on_power_of_two_dictionaries(self, k):
        # block-OMP scores and solves on A's own power-of-two scale, so 2^k A codes 2^k y to
        # y's support, residual and code on A, with no warning (filterwarnings = error); the code
        # passes through 2^-k, where its roundoff-sized entries may lose bits to the subnormals
        st = BlockStructure(K=6, alpha=2, s=2)
        A = gen_dictionary(16, st, seed=1)
        B = BlockDict(st, np.ldexp(A.data, k))
        ref = block_omp(A, A.data[:, 1] + A.data[:, 11])
        got = block_omp(B, B.data[:, 1] + B.data[:, 11])
        assert got.code.support == ref.code.support == (1, 6)
        assert got.residual_norm == ref.residual_norm < 1e-15
        np.testing.assert_allclose(got.code.values, ref.code.values, rtol=1e-15, atol=1e-20)


    @staticmethod
    def near_subnormal():
        # the seed-1 K = 6 dictionary at 2^-1060, its columns' entries in the subnormals
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=1)
        return A, BlockDict(A.structure, np.ldexp(A.data, -1060))

    @pytest.mark.parametrize("coder", [exhaustive_code, block_omp])
    def test_dictionary_near_the_subnormals_codes_as_at_scale_one(self, coder):
        # both coders solve on the dictionary's power-of-two scale and scale the code once by
        # 2^(e_y - e_A), so y at the dictionary's scale gets its code of order 1 with no warning
        # (filterwarnings = error), where each coder overflowed on the way
        _, B = self.near_subnormal()
        got = coder(B, B.data[:, 1] + B.data[:, 11])
        assert got.code.support == (1, 6) and got.residual_norm < 1e-14
        np.testing.assert_allclose(got.code.values, np.eye(12)[1] + np.eye(12)[11], atol=1e-14)

    @pytest.mark.parametrize("coder", [exhaustive_code, block_omp])
    def test_code_past_the_float_range_is_a_value_error(self, coder):
        # y at scale 1 on the dictionary at 2^-1060 has a code of order 2^1060
        A, B = self.near_subnormal()
        with pytest.raises(ValueError, match="^the code overflows the float range$"):
            coder(B, A.data[:, 1] + A.data[:, 11])

    @pytest.mark.parametrize("kernel", [_min_residual_codes, _omp_codes])
    def test_kernels_leave_overflow_warnings_to_the_caller(self, kernel):
        # only the one-column coders silence the overflow they report: the learner's kernels on
        # the same inputs warn, so the learner's warnings reach its caller
        A, B = self.near_subnormal()
        with pytest.raises(RuntimeWarning, match="overflow"):
            kernel(B, (A.data[:, 1] + A.data[:, 11])[:, None], 2, DEFAULT_CODING_TOL)


@pytest.mark.parametrize("coder", [block_omp, exhaustive_code])
def test_s_above_the_structure_is_refused(coder):
    # s=3 passes 1 <= s <= K, but no code of A may hold more than its s=2 blocks
    A = gen_dictionary(8, BlockStructure(K=4, alpha=2, s=2), seed=0)
    with pytest.raises(ValueError, match=r"s=3 exceeds the dictionary's block sparsity s=2"):
        coder(A, A.data[:, 0], s=3)


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
    @pytest.mark.parametrize("chunk", [1, 16 * 4 * 7])
    def test_chunked_batch_matches_per_column_calls(self, monkeypatch, chunk):
        # a column gathers a 16 x 4 basis: chunk 1 codes one column at a time, 448 seven at a time
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=40)
        st = A.structure
        rng = np.random.default_rng(used)
        Y = A.data @ sequential_gen_codes(st, 30, seed=used + 1)
        Y = Y + 1e-2 * rng.standard_normal(Y.shape)
        Y[:, 4] = 0.0
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)
        X, res, _ = _min_residual_codes(A, Y, st.s, 1e-10)
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

    @staticmethod
    def spy_svds(monkeypatch):
        """Record the stacked matrices of every `_bases` SVD the coder makes."""
        calls, bases = [], coding._bases
        monkeypatch.setattr(coding, "_bases", lambda M, tol: calls.append(M) or bases(M, tol))
        return calls

    def test_one_column_solve_count(self, monkeypatch):
        # full rank: supports are scored by projection, only the winner is solved
        A = gen_dictionary(14, BlockStructure(K=6, alpha=2, s=2), seed=2)
        calls = self.spy_svds(monkeypatch)
        exhaustive_code(A, np.random.default_rng(2).standard_normal(14), s=2)
        M, = calls
        assert M.shape == (1, 14, 4)

    def test_rank_short_supports_take_svd_bases(self, monkeypatch):
        # block 2 zeroed: its 5 supports take SVD bases in one `_support_bases` fallback call,
        # only the winner is solved
        A = gen_dictionary(14, BlockStructure(K=6, alpha=2, s=2), seed=2)
        A = A.with_block(2, np.zeros((14, 2)))
        calls, fallback = self.spy_svds(monkeypatch), []
        svd = subspace._bases
        monkeypatch.setattr(subspace, "_bases", lambda M, tol: fallback.append(M) or svd(M, tol))
        exhaustive_code(A, np.random.default_rng(2).standard_normal(14), s=2)
        (bases,), (solved,) = fallback, calls  # bases: the supports (1, 2) and (2, j), j > 2
        assert np.linalg.matrix_rank(bases).tolist() == [2] * 5
        assert np.linalg.matrix_rank(solved).tolist() == [4]

    @pytest.mark.parametrize("chunk", [1, coding._CODE_CHUNK])
    def test_batch_bytes_equal_one_column_calls(self, monkeypatch, chunk):
        # chunk 1 ranks and solves one column at a time; the default all 12 at once
        st = BlockStructure(K=6, alpha=2, s=2)
        A = gen_dictionary(12, st, seed=5, mode=MODE_GAUSSIAN)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(12)
        A = A.with_block(5, np.column_stack([A.block(2)[:, 0], v]))  # shares a column with block 2
        A = A.with_block(6, A.block(1) @ [[2.0, 1.0], [0.5, 3.0]])  # block 1's span
        Y = rng.standard_normal((12, 12)) * np.logspace(-200, 200, 12)
        Y[:, 3] = 0.0
        Y[:, 7] = A.data[:, [2, 3, 6, 7]] @ rng.standard_normal(4)  # an exact fit on (2, 4)
        Y[:, 8] = A.data[:, [0, 1, 4, 5]] @ rng.standard_normal(4)  # ties (1, 3) with (3, 6)
        Y[:, 9] = A.block(2) @ [1.0, 0.5] + 2 * v  # fits (2, 5) alone: rank 3 < 4
        W, e = coding._unit_scale(Y, 0)  # the coder's input, as `exhaustive_code` scales it
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)

        def code(Z):
            X, res, tied = _min_residual_codes(A, Z, st.s, 1e-10)
            return [(X[:, c].tobytes(), res[c].tobytes(), tied[c]) for c in range(len(res))]

        batch = code(W)
        assert batch == [col for c in range(12) for col in code(W[:, [c]])]
        assert batch == code(W[:, ::-1])[::-1]
        assert batch == code(W[:, :5]) + code(W[:, 5:])
        X, res, tied = _min_residual_codes(A, W, st.s, 1e-10)
        for c in range(12):
            one = exhaustive_code(A, Y[:, c], s=st.s, tol=1e-10)
            assert one.code.values.tobytes() == np.ldexp(X[:, c], e[0, c]).tobytes(), c
            assert one.residual_norm == coding._relative(res[c], np.linalg.norm(W[:, c])), c
            assert one.tied == tied[c], c
        assert tied[[3, 8]].all() and not tied[[7, 9]].any()  # blocks 1 and 6 tie elsewhere too
        assert np.abs(Y[:, [0, 11]]).max(axis=0).tolist() < [1e-199, 1e201]
        assert np.linalg.matrix_rank(A.restrict((2, 5))) == 3
        assert np.flatnonzero(X[:, 9].reshape(6, 2).any(axis=1)).tolist() == [1, 4]
        assert res[7] < 1e-15 and res[9] < 1e-15

    def test_solve_memory_stays_bounded(self):
        # 4,000 columns at P=400: one gathered P x d basis per column would take 25.6 MB
        st = BlockStructure(K=4, alpha=2, s=1)
        A = gen_dictionary(400, st, seed=1)
        Y = np.random.default_rng(1).standard_normal((400, 4000))
        tracemalloc.start()
        try:
            _min_residual_codes(A, Y, st.s, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * Y.nbytes

    def test_no_temporary_the_size_of_the_samples(self):
        # the column norms come from a stacked dot: squaring Y first would copy its 12.8 MB
        st = BlockStructure(K=4, alpha=2, s=1)
        A = gen_dictionary(400, st, seed=1)
        Y = np.random.default_rng(1).standard_normal((400, 4000))
        tracemalloc.start()
        try:
            _min_residual_codes(A, Y, st.s, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= Y.nbytes / 4

    def test_memory_stays_bounded(self):
        # 15,504 supports: their bases made per support block, not all at once
        st = BlockStructure(K=20, alpha=2, s=5)
        A = gen_dictionary(40, st, seed=1)
        Y = np.random.default_rng(1).standard_normal((40, 4))
        tracemalloc.start()
        try:
            _min_residual_codes(A, Y, st.s, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @staticmethod
    def spy_support_bases(monkeypatch):
        """Record (supports, bases) of every `_support_bases` call the coder's kernel makes."""
        calls, support_bases = [], subspace._support_bases

        def spy(*lists, tol):
            (_, sups), = lists
            calls.append((sups, support_bases(*lists, tol=tol)))
            return calls[-1][1]

        monkeypatch.setattr(subspace, "_support_bases", spy)
        return calls

    def test_one_qr_per_call_while_the_bases_fit(self, monkeypatch):
        # 15 supports x 40 x 4 bases fit: made once, then read by the ranking and the re-check
        st = BlockStructure(K=6, alpha=2, s=2)
        A = gen_dictionary(40, st, seed=1).with_block(2, np.zeros((40, 2)))
        Y = np.random.default_rng(1).standard_normal((40, 30))
        Y[:, [4, 17]] = 0.0  # every support ties: the re-check runs
        rechecks, calls = spy_rechecks(monkeypatch), self.spy_support_bases(monkeypatch)
        _, _, tied = _min_residual_codes(A, Y, st.s, 1e-10)
        assert np.flatnonzero(tied).tolist() == [4, 17] and len(rechecks) == 1
        (sups, (Q, _)), = calls
        supports = _enumerate_supports(6, 2)
        assert np.array_equal(sups, supports) and Q.shape == (15, 40, 4)
        for k, sup in enumerate(supports):  # orthonormal up to the support's rank, zero past it
            r = 2 * (2 - (2 in sup))
            assert np.allclose(Q[k, :, :r].T @ Q[k, :, :r], np.eye(r)) and not Q[k, :, r:].any()

    def test_qr_per_support_block_past_the_bound(self, monkeypatch):
        # 15,504 supports x 40 x 10 bases exceed _CODE_CHUNK: each support block makes its own,
        # a block's bases and its projections of the 4 columns holding about _CODE_CHUNK entries
        st = BlockStructure(K=20, alpha=2, s=5)
        A = gen_dictionary(40, st, seed=1)
        Y = np.random.default_rng(1).standard_normal((40, 4))
        calls = self.spy_support_bases(monkeypatch)
        _min_residual_codes(A, Y, st.s, 1e-10)
        block = max(1, coding._CODE_CHUNK // (10 * (40 + 4)))
        sizes = [len(sups) for sups, _ in calls]
        assert sizes == [min(block, 15504 - b) for b in range(0, 15504, block)]
        assert max(sizes) < 15504


def lstsq_reference_codes(A, Y, s, tol):
    """The per-support least-squares coder the projection kernel replaced."""
    supports = list(combinations(range(1, A.structure.K + 1), s))
    rows = [np.r_[tuple(A.structure.block_slice(i) for i in sup)] for sup in supports]
    N = Y.shape[1]
    X = np.zeros((A.structure.total_dim, N))
    res = np.empty(N)
    window = tol * np.linalg.norm(Y, axis=0)
    step = max(1, coding._CODE_CHUNK // len(supports))
    for start in range(0, N, step):
        Yc = Y[:, start : start + step]
        R = np.empty((len(supports), Yc.shape[1]))
        for k, r in enumerate(rows):
            cols = A.data[:, r]
            sol, ssq, _, _ = np.linalg.lstsq(cols, Yc, rcond=None)
            R[k] = np.sqrt(ssq) if ssq.size else np.linalg.norm(Yc - cols @ sol, axis=0)
        winner = np.argmax(R <= R.min(axis=0) + window[start : start + step], axis=0)
        for k in np.flatnonzero(np.bincount(winner)):
            on = start + np.nonzero(winner == k)[0]
            cols = A.data[:, rows[k]]
            sol = np.linalg.lstsq(cols, Y[:, on], rcond=None)[0]
            X[np.ix_(rows[k], on)] = sol
            res[on] = np.linalg.norm(Y[:, on] - cols @ sol, axis=0)
    return X, res


def coder_inputs(A, n, seed):
    """Exact, noisy, random and all-zero columns for A at its sparsity."""
    rng = np.random.default_rng(seed)
    Y = A.data @ sequential_gen_codes(A.structure, n, seed=seed)
    Y[:, n // 3 :] += 1e-3 * rng.standard_normal((A.ambient_dim, n - n // 3))
    Y[:, 1] = rng.standard_normal(A.ambient_dim)
    Y[:, 2] = 0.0
    return Y


def svd_solve_reference(A, y, support):
    """The coder's solve of one column on its winner: one SVD of the support's columns at
    lstsq's cut, U zero and sv 1 past the rank, x = V sv^-1 U^T y and r = ||y - U U^T y||.
    Returns (code, residual, the support's condition number at that rank)."""
    rows = np.r_[tuple(A.structure.block_slice(i) for i in support)]
    M = A.data[:, rows][None]
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    rank = int(_numerical_rank(sv, np.finfo(float).eps * max(M.shape[1:]))[0])
    kappa = sv[0, 0] / sv[0, rank - 1] if rank else 1.0
    U[..., rank:], sv[:, rank:] = 0.0, 1.0
    y = np.ascontiguousarray(y)[None]
    z = U.swapaxes(1, 2) @ y[:, :, None]
    x = np.zeros(A.structure.total_dim)
    x[rows] = (Vt.swapaxes(1, 2) @ (z / sv[:, :, None]))[0, :, 0]
    r = y - (U @ z)[..., 0]
    return x, np.sqrt((r[:, None] @ r[:, :, None])[0, 0, 0]), kappa


def assert_matches_references(A, Y, s, tol):
    """The coder against the lstsq coder: the same supports (its winners, rank-short or not) and
    tie flags; residuals and A x within 16 kappa eps ||y||, kappa the winner's condition
    number; and, byte for byte, `svd_solve_reference` on each column's winner."""
    X, res, tied = _min_residual_codes(A, Y, s, tol)
    X_ref, res_ref = lstsq_reference_codes(A, Y, s, tol)
    window = reference_window(A, Y, s, tol)
    assert np.array_equal(tied, window.sum(axis=0) > 1)
    supports = list(combinations(range(1, A.structure.K + 1), s))
    for c, k in enumerate(window.argmax(axis=0)):
        x, r, kappa = svd_solve_reference(A, Y[:, c], supports[k])
        assert X[:, c].tobytes() == x.tobytes() and res[c].tobytes() == r.tobytes(), c
        bound = 16 * kappa * np.finfo(float).eps * np.linalg.norm(Y[:, c])
        assert abs(res[c] - res_ref[c]) <= bound, (c, res[c] - res_ref[c], bound)
        assert np.linalg.norm(A.data @ (X[:, c] - X_ref[:, c])) <= bound, c
    return X, res, tied


class TestProjectionOracle:
    """The stacked coder against the per-support lstsq coder and the one-column solve."""

    @staticmethod
    def assert_same_bytes(A, Y, s):
        assert_matches_references(A, Y, s, 1e-10)

    @pytest.mark.parametrize("chunk", [1, coding._CODE_CHUNK])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_shapes(self, monkeypatch, chunk, seed):
        rng = np.random.default_rng(300 + seed)
        K, alpha = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        s = int(rng.integers(1, min(3, K) + 1))
        P = int(rng.integers(s * alpha, K * alpha + 3))
        A = gen_dictionary(P, BlockStructure(K=K, alpha=alpha, s=s), seed=seed)
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)
        self.assert_same_bytes(A, coder_inputs(A, 24, seed), s)

    @pytest.mark.parametrize("chunk", [1, coding._CODE_CHUNK])
    @pytest.mark.parametrize("svals", [(0.0, 0.0), (1.0, 5e-9), (1.0, 1e-12)],
                             ids=["zero-block", "near-singular-block", "weak-direction"])
    def test_rank_short_block(self, monkeypatch, chunk, svals):
        # y along block 2's second singular direction: at (1, 1e-12) block 2 is rank-short
        # under DEFAULT_RANK_TOL but full rank at lstsq's cut, so y codes on (1, 2)
        A = rank_deficient_dict(svals)
        y = rank_deficient_dict((1.0, 1.0)).block(2)[:, 1] + 0.3 * A.block(1)[:, 0]
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)
        self.assert_same_bytes(A, np.column_stack([coder_inputs(A, 24, 7), y]), 2)
        if svals == (1.0, 1e-12):
            X, res, _ = _min_residual_codes(A, y[:, None], 2, 1e-10)
            assert X[:4, 0].all() and not X[4:, 0].any() and res[0] < 1e-12

    @pytest.mark.parametrize("chunk", [1, coding._CODE_CHUNK])
    def test_repeated_block(self, monkeypatch, chunk):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=3)
        A = A.with_block(3, A.block(1))
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)
        self.assert_same_bytes(A, coder_inputs(A, 24, 8), 2)

    @pytest.mark.parametrize("chunk", [1, coding._CODE_CHUNK])
    def test_hidden_rank_block(self, monkeypatch, chunk):
        # block 2 = [2e-8 a, a + 2e-8 b]: sigma_min / sigma_max ~ 4e-16 is below lstsq's cut,
        # though each |r_kk| of its QR passes a 1e-8 rank test; a support basis that takes Q
        # there misses the least projection residual of y along b
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=3)
        a, b = A.block(2).T
        A = A.with_block(2, np.column_stack([2e-8 * a, a + 2e-8 * b]))
        sv = np.linalg.svd(A.block(2), compute_uv=False)
        assert sv[1] / sv[0] < np.finfo(float).eps * 12
        y = b + 0.3 * A.block(1)[:, 0]
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)
        self.assert_same_bytes(A, np.column_stack([coder_inputs(A, 24, 7), y]), 2)

    def test_learner_shape(self):
        # the learner's coding call: K=6, alpha=2, s=2, P=16, N=300 at noise 1e-3
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=1)
        Y = A.data @ sequential_gen_codes(A.structure, 300, seed=used + 1)
        Y += 1e-3 * np.random.default_rng(used).standard_normal(Y.shape)
        self.assert_same_bytes(A, Y, 2)


@pytest.mark.parametrize("sigma", [5e-9, 1e-10, 1e-12, 1e-14])
def test_reported_residual_is_the_winners_projection_residual(sigma):
    # the residual that ranks the winner is the one reported; lstsq's ||y - A x|| drifts from
    # it by about kappa eps ||y|| on an ill-conditioned winner
    A = rank_deficient_dict((1.0, sigma))
    rng = np.random.default_rng(12)
    Y = A.data @ sequential_gen_codes(A.structure, 100, seed=12)
    Y = np.column_stack([Y + 1e-6 * rng.standard_normal(Y.shape), rng.standard_normal((12, 100))])
    X, res, _ = _min_residual_codes(A, Y, 2, 1e-10)
    for c, y in enumerate(Y.T):
        blocks = np.flatnonzero(X[:, c].reshape(4, 2).any(axis=1)) + 1
        assert blocks.size == 2, c
        M = A.restrict(blocks)
        U, sv, _ = np.linalg.svd(M, full_matrices=False)
        U = U[:, : int(np.sum(sv > np.finfo(float).eps * max(M.shape) * sv[0]))]
        gap = abs(res[c] - np.linalg.norm(y - U @ (U.T @ y)))
        assert gap <= 8 * np.finfo(float).eps * np.linalg.norm(y), (c, gap)


def spy_rechecks(monkeypatch):
    """Record (supports, columns) of the exact re-checks in every kernel call the coder makes."""
    calls, kernel = [], coding._nearest_spans

    def spy(D, sups, Y, *args, **kwargs):
        out = kernel(D, sups, Y, *args, **kwargs)
        k, j, _ = out[:3]  # (support, column, residual) of every exact re-check
        if j.size:
            calls.append((np.unique(k), Y[np.unique(j), :, 0].T))
        return out

    monkeypatch.setattr(coding, "_nearest_spans", spy)
    return calls


ENERGY_TOL = 1e-8  # tie window of the candidate tests, wide enough to place columns at its edge


def between_supports(A, s, rng):
    """Columns on the segment between two supports' projections of one vector.

    Bisection finds where the two lstsq residuals meet (a true near-tie),
    and where they differ by 0.5, 1 -/+ 1e-3 and 2 tie windows (window edge).
    """
    supports = list(combinations(range(1, A.structure.K + 1), s))
    a, b = (A.restrict(supports[i]) for i in rng.choice(len(supports), 2, replace=False))
    z = rng.standard_normal(A.ambient_dim)
    pa, pb = projector(a) @ z, projector(b) @ z

    def gap(t):
        y = (1 - t) * pa + t * pb
        dist = [np.linalg.norm(y - M @ np.linalg.lstsq(M, y, rcond=None)[0]) for M in (a, b)]
        return (dist[0] - dist[1]) / np.linalg.norm(y), y

    cols = []
    for target in (0.0, 0.5, 1 - 1e-3, 1 + 1e-3, 2.0):
        for sign in (1, -1):
            lo, hi = 0.0, 1.0  # gap(0) < 0 < gap(1)
            for _ in range(80):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if gap(mid)[0] < sign * target * ENERGY_TOL else (lo, mid)
            cols.append(gap(lo)[1])
    return np.column_stack(cols)


def reference_window(A, Y, s, tol):
    """Supports x columns: inside each column's tie window by per-support lstsq residuals."""
    R = np.array([
        [np.linalg.norm(y - M @ np.linalg.lstsq(M, y, rcond=None)[0]) for y in Y.T]
        for M in (A.restrict(sup) for sup in combinations(range(1, A.structure.K + 1), s))
    ])
    return R <= R.min(axis=0) + tol * np.linalg.norm(Y, axis=0)


class TestEnergyRanking:
    """The energy ranking's candidates hold every support of the exact tie window."""

    @staticmethod
    def assert_candidates_hold_window(monkeypatch, A, Y, s):
        calls = spy_rechecks(monkeypatch)
        window = reference_window(A, Y, s, ENERGY_TOL)
        for c in range(Y.shape[1]):
            calls.clear()
            X, _, tied = assert_matches_references(A, Y[:, [c]], s, ENERGY_TOL)
            if calls:  # re-checked: its candidates are the supports re-checked
                candidates = set(np.concatenate([ks for ks, _ in calls]).tolist())
                assert set(np.flatnonzero(window[:, c])) <= candidates
            else:  # decided by its one candidate, the reference winner
                assert window[:, c].sum() == 1 and not tied[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dictionaries(self, monkeypatch, seed):
        rng = np.random.default_rng(500 + seed)
        K, alpha, s = int(rng.integers(3, 7)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        A = gen_dictionary(int(rng.integers(s * alpha + 1, K * alpha + 3)),
                           BlockStructure(K=K, alpha=alpha, s=s), seed=seed)
        Y = np.column_stack([coder_inputs(A, 12, seed), between_supports(A, s, rng)])
        Y = np.column_stack([Y, 1e-160 * Y[:, :4]])  # ||y||^2 underflows
        self.assert_candidates_hold_window(monkeypatch, A, Y, s)

    @RANK_DEFICIENT_SVALS
    def test_rank_short_block(self, monkeypatch, svals):
        A = rank_deficient_dict(svals)
        rng = np.random.default_rng(9)
        Y = np.column_stack([coder_inputs(A, 12, 9), between_supports(A, 2, rng)])
        self.assert_candidates_hold_window(monkeypatch, A, Y, 2)

    def test_repeated_block(self, monkeypatch):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=3)
        A = A.with_block(3, A.block(1))
        rng = np.random.default_rng(10)
        Y = np.column_stack([coder_inputs(A, 12, 10), between_supports(A, 2, rng)])
        self.assert_candidates_hold_window(monkeypatch, A, Y, 2)

    def test_one_span_in_two_bases_without_a_window(self):
        # blocks 1 and 3 span one plane in two bases, so supports (1, j) and (3, j)
        # differ only by rounding; at tol 0 the margin alone keeps the exact winner
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=3)
        A = A.with_block(3, A.block(1) @ np.array([[2.0, 1.0], [0.5, 3.0]]))
        Y = coder_inputs(A, 60, 11)
        supports = _enumerate_supports(4, 2)
        bases = subspace._support_bases((A, supports), tol=np.finfo(float).eps * 12)[0]
        R, near = np.empty((6, Y.shape[1])), np.empty(Y.shape[1], dtype=int)
        for c in range(Y.shape[1]):  # the kernel one column at a time: a window of 1 holds every
            # support, whose exact residuals a limit makes it take, and the one of least energy
            k, _, R[:, c], _, _, (near[c],), _ = subspace._nearest_spans(
                A, supports, Y.T[[c], :, None], 1.0, 0.0, np.inf, bases)
            assert np.array_equal(k, np.arange(6))
        assert (near != R.argmin(axis=0)).any()  # energies misorder twins
        winners = (R <= R.min(axis=0)).argmax(axis=0)
        for c in np.flatnonzero(Y.any(axis=0)):
            X, _, _ = _min_residual_codes(A, Y[:, [c]], 2, 0.0)
            blocks = np.flatnonzero(X[:, 0].reshape(4, 2).any(axis=1)) + 1
            assert np.array_equal(blocks, supports[winners[c]])

    def test_underflowing_columns_take_the_exact_path(self, monkeypatch):
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=1)
        Y = 1e-160 * coder_inputs(A, 6, 1)
        assert (np.square(Y).sum(axis=0) < np.finfo(float).tiny).all()  # ||y||^2 underflows
        calls = spy_rechecks(monkeypatch)
        assert_matches_references(A, Y, 2, 1e-10)
        (ks, Yo), = calls
        assert np.array_equal(ks, np.arange(15)) and np.array_equal(Yo, Y)


@pytest.mark.parametrize("K, s, P, N, noise", [
    (6, 2, 16, 300, 0.0), (6, 2, 16, 300, 1e-3), (12, 3, 48, 200, 1e-2)])
def test_kernel_fed_as_verify_feeds_it_agrees_with_the_coder(K, s, P, N, noise):
    # unit samples as rank-1 query groups, at verify's tolerances: the nearest support span by
    # energy is the coder's winner, and its sine the coder's relative residual
    A, _, used = make_rip_instance(P, K, 2, s, seed=1)
    Y = A.data @ sequential_gen_codes(A.structure, N, seed=used + 1)
    Y += noise * np.random.default_rng(used).standard_normal(Y.shape)
    Y /= np.linalg.norm(Y, axis=0)
    X, res, tied = _min_residual_codes(A, Y, s, DEFAULT_CODING_TOL)
    sups = _enumerate_supports(K, s)
    *_, near, sine = subspace._nearest_spans(A, sups, Y.T[..., None], 1e-8, 1e-8, 1e-8)
    winners = [tuple(np.flatnonzero(x.reshape(K, 2).any(axis=1)) + 1) for x in X.T]
    assert [tuple(sup) for sup in sups[near].tolist()] == winners and not tied.any()
    assert np.abs(sine - coding._relative(res, np.linalg.norm(Y, axis=0))).max() <= 1e-14


class TestExactPathCount:
    def test_full_rank_noisy_batch_rechecks_only_multi_candidate_columns(self, monkeypatch):
        # zero columns have every support in their window; no other column has two candidates
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=1)
        Y = A.data @ sequential_gen_codes(A.structure, 300, seed=used + 1)
        Y += 1e-3 * np.random.default_rng(used).standard_normal(Y.shape)
        Y[:, [7, 150]] = 0.0
        calls = spy_rechecks(monkeypatch)
        _, _, tied = _min_residual_codes(A, Y, 2, 1e-10)
        (ks, Yo), = calls
        assert np.array_equal(ks, np.arange(15)) and not Yo.any() and Yo.shape[1] == 2
        assert np.flatnonzero(tied).tolist() == [7, 150]

    def test_repeated_block_rechecks_every_column_coded_on_it(self, monkeypatch):
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=1)
        A = A.with_block(4, A.block(1))
        Y = A.data @ sequential_gen_codes(A.structure, 300, seed=used + 1)
        Y += 1e-3 * np.random.default_rng(used).standard_normal(Y.shape)
        calls = spy_rechecks(monkeypatch)
        X, _, tied = _min_residual_codes(A, Y, 2, 1e-10)
        on_block_1 = np.flatnonzero(X[A.structure.block_slice(1)].any(axis=0))
        assert not X[A.structure.block_slice(4)].any()  # ties go to the first support
        (_, Yo), = calls
        assert np.array_equal(Yo, Y[:, on_block_1])
        assert np.array_equal(np.flatnonzero(tied), on_block_1)
        assert 0 < on_block_1.size < 300
