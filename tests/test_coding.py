import tracemalloc
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
from blockdict.coding import _factor, _min_residual_codes
from blockdict.rip import _enumerate_supports

from conftest import RANK_DEFICIENT_SVALS, make_rip_instance, projector, rank_deficient_dict


def min_residual_codes(A, Y, s, tol):
    """The kernel as `exhaustive_code` runs it: factor A at s, then code Y."""
    return _min_residual_codes(_factor(A, s), Y, tol)


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
        X, res, _ = min_residual_codes(A, Y, st.s, 1e-10)
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
        # full rank: supports are scored by projection, only the winner is solved
        A = gen_dictionary(14, BlockStructure(K=6, alpha=2, s=2), seed=2)
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k)
        )
        exhaustive_code(A, np.random.default_rng(2).standard_normal(14), s=2)
        assert len(calls) == 1

    def test_rank_short_supports_keep_lstsq(self, monkeypatch):
        # block 2 zeroed: its 5 supports are solved by lstsq, then the winner
        A = gen_dictionary(14, BlockStructure(K=6, alpha=2, s=2), seed=2)
        A = A.with_block(2, np.zeros((14, 2)))
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: calls.append(a[0]) or lstsq(*a, **k)
        )
        exhaustive_code(A, np.random.default_rng(2).standard_normal(14), s=2)
        assert len(calls) == 5 + 1
        assert [np.linalg.matrix_rank(M) for M in calls] == [2] * 5 + [4]

    def test_memory_stays_bounded(self):
        # 15,504 supports: factored in blocks, not all at once
        st = BlockStructure(K=20, alpha=2, s=5)
        A = gen_dictionary(40, st, seed=1)
        Y = np.random.default_rng(1).standard_normal((40, 4))
        tracemalloc.start()
        try:
            min_residual_codes(A, Y, st.s, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_one_factor_codes_twice_within_the_bound(self):
        # the factor keeps no stacked Q at this shape: each code step factors block by block
        st = BlockStructure(K=20, alpha=2, s=5)
        A = gen_dictionary(40, st, seed=1)
        Y = np.random.default_rng(1).standard_normal((40, 4))
        tracemalloc.start()
        try:
            F = _factor(A, st.s)
            first = _min_residual_codes(F, Y, 1e-10)
            second = _min_residual_codes(F, Y, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.Q is None and F.short is None
        assert peak <= 16 * 2**20
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("K, s, kept", [(6, 2, True), (20, 5, False)])
    def test_factor_keeps_q_while_it_fits(self, K, s, kept):
        A = gen_dictionary(40, BlockStructure(K=K, alpha=2, s=s), seed=1)
        F = _factor(A, s)
        assert (F.Q is not None) == kept == (F.rows.size * 40 <= coding._CODE_CHUNK)
        if kept:  # one Q and rank flag per support, in lexicographic order
            assert F.Q.shape == (len(F.rows), 40, 2 * s) and not F.short.any()


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
    Y = A.data @ gen_codes(A.structure, n, seed=seed)
    Y[:, n // 3 :] += 1e-3 * rng.standard_normal((A.ambient_dim, n - n // 3))
    Y[:, 1] = rng.standard_normal(A.ambient_dim)
    Y[:, 2] = 0.0
    return Y


class TestProjectionOracle:
    """The stacked-QR coder gives the per-support lstsq coder's bytes."""

    @staticmethod
    def assert_same_bytes(A, Y, s):
        X, res, _ = min_residual_codes(A, Y, s, 1e-10)
        X_ref, res_ref = lstsq_reference_codes(A, Y, s, 1e-10)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(res, res_ref)

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
    @RANK_DEFICIENT_SVALS
    def test_rank_short_block(self, monkeypatch, chunk, svals):
        A = rank_deficient_dict(svals)
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)
        self.assert_same_bytes(A, coder_inputs(A, 24, 7), 2)

    @pytest.mark.parametrize("chunk", [1, coding._CODE_CHUNK])
    def test_repeated_block(self, monkeypatch, chunk):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=3)
        A = A.with_block(3, A.block(1))
        monkeypatch.setattr(coding, "_CODE_CHUNK", chunk)
        self.assert_same_bytes(A, coder_inputs(A, 24, 8), 2)

    def test_learner_shape(self):
        # the learner's coding call: K=6, alpha=2, s=2, P=16, N=300 at noise 1e-3
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=1)
        Y = A.data @ gen_codes(A.structure, 300, seed=used + 1)
        Y += 1e-3 * np.random.default_rng(used).standard_normal(Y.shape)
        self.assert_same_bytes(A, Y, 2)


def spy_rechecks(monkeypatch):
    """Record (support indices, columns) of every exact re-check the kernel makes."""
    calls = []
    support_residuals = coding._support_residuals

    def spy(F, Y, ks, block, ysq=None):
        if ysq is None:
            calls.append((ks.copy(), Y.copy()))
        return support_residuals(F, Y, ks, block, ysq)

    monkeypatch.setattr(coding, "_support_residuals", spy)
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
            X, _, tied = min_residual_codes(A, Y[:, [c]], s, ENERGY_TOL)
            assert np.array_equal(X, lstsq_reference_codes(A, Y[:, [c]], s, ENERGY_TOL)[0])
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
        supports, F = _enumerate_supports(4, 2, 6), _factor(A, 2)

        def each_column(ysq=None):  # the kernel's residuals, one column at a time
            return np.column_stack([
                coding._support_residuals(
                    F, Y[:, [c]], np.arange(6), 6, None if ysq is None else ysq[[c]]
                )[:, 0]
                for c in range(Y.shape[1])
            ])

        R, E = each_column(), each_column(np.square(Y).sum(axis=0))
        assert (E.argmin(axis=0) != R.argmin(axis=0)).any()  # energies misorder twins
        winners = (R <= R.min(axis=0)).argmax(axis=0)
        for c in np.flatnonzero(Y.any(axis=0)):
            X, _, _ = min_residual_codes(A, Y[:, [c]], 2, 0.0)
            blocks = np.flatnonzero(X[:, 0].reshape(4, 2).any(axis=1)) + 1
            assert np.array_equal(blocks, supports[winners[c]])

    def test_underflowing_columns_take_the_exact_path(self, monkeypatch):
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=1)
        Y = 1e-160 * coder_inputs(A, 6, 1)
        assert (np.square(Y).sum(axis=0) < np.finfo(float).tiny).all()  # ||y||^2 underflows
        calls = spy_rechecks(monkeypatch)
        X, res, tied = min_residual_codes(A, Y, 2, 1e-10)
        (ks, Yo), = calls
        assert np.array_equal(ks, np.arange(15)) and np.array_equal(Yo, Y)
        X_ref, res_ref = lstsq_reference_codes(A, Y, 2, 1e-10)
        assert np.array_equal(X, X_ref) and np.array_equal(res, res_ref)


class TestExactPathCount:
    def test_full_rank_noisy_batch_rechecks_only_multi_candidate_columns(self, monkeypatch):
        # zero columns have every support in their window; no other column has two candidates
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=1)
        Y = A.data @ gen_codes(A.structure, 300, seed=used + 1)
        Y += 1e-3 * np.random.default_rng(used).standard_normal(Y.shape)
        Y[:, [7, 150]] = 0.0
        calls = spy_rechecks(monkeypatch)
        _, _, tied = min_residual_codes(A, Y, 2, 1e-10)
        (ks, Yo), = calls
        assert np.array_equal(ks, np.arange(15)) and not Yo.any() and Yo.shape[1] == 2
        assert np.flatnonzero(tied).tolist() == [7, 150]

    def test_repeated_block_rechecks_every_column_coded_on_it(self, monkeypatch):
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=1)
        A = A.with_block(4, A.block(1))
        Y = A.data @ gen_codes(A.structure, 300, seed=used + 1)
        Y += 1e-3 * np.random.default_rng(used).standard_normal(Y.shape)
        calls = spy_rechecks(monkeypatch)
        X, _, tied = min_residual_codes(A, Y, 2, 1e-10)
        on_block_1 = np.flatnonzero(X[A.structure.block_slice(1)].any(axis=0))
        assert not X[A.structure.block_slice(4)].any()  # ties go to the first support
        (_, Yo), = calls
        assert np.array_equal(Yo, Y[:, on_block_1])
        assert np.array_equal(np.flatnonzero(tied), on_block_1)
        assert 0 < on_block_1.size < 300
