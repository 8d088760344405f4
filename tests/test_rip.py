import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from blockdict import (
    BlockDict,
    BlockStructure,
    CapacityError,
    gen_dictionary,
    rip_constant_exact,
    rip_constant_for_support,
    rip_lower_bound_sampled,
)

from blockdict import rip
from blockdict.rip import _enumerate_supports, _sample_supports, _support_bounds

from conftest import ge_rank, make_rip_instance, rip_brute_force


def orthonormal_dict(P, K, alpha, s):
    """First K*alpha columns of the P x P identity as a block dictionary."""
    structure = BlockStructure(K=K, alpha=alpha, s=s)
    return BlockDict(structure, np.eye(P)[:, : structure.total_dim])


class TestPerSupport:
    def test_orthonormal_is_zero(self):
        A = orthonormal_dict(8, 3, 2, 2)
        assert rip_constant_for_support(A, (1, 3)) == pytest.approx(0.0, abs=1e-14)

    def test_two_correlated_unit_columns(self):
        # Gram [[1, .5], [.5, 1]] has eigenvalues 1.5 and 0.5 (hand oracle),
        # so the constant is 0.5.
        structure = BlockStructure(K=2, alpha=1, s=2)
        c = 0.5
        data = np.array([[1.0, c], [0.0, math.sqrt(1 - c * c)], [0.0, 0.0]])
        A = BlockDict(structure, data)
        assert rip_constant_for_support(A, (1, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_column_gives_at_least_one(self):
        structure = BlockStructure(K=2, alpha=1, s=2)
        data = np.array([[1.0, 0.0], [0.0, 0.0]])
        A = BlockDict(structure, data)
        assert rip_constant_for_support(A, (1, 2)) >= 1.0

    def test_order_invariant(self):
        A = gen_dictionary(12, BlockStructure(K=5, alpha=2, s=2), seed=4)
        assert rip_constant_for_support(A, (4, 1, 3)) == rip_constant_for_support(
            A, (3, 4, 1)
        )

    def test_empty_support_rejected(self):
        A = orthonormal_dict(8, 3, 2, 2)
        with pytest.raises(ValueError):
            rip_constant_for_support(A, ())


class TestExact:
    def test_orthonormal_all_levels_zero(self):
        A = orthonormal_dict(10, 4, 2, 2)
        for t in range(1, 5):
            assert rip_constant_exact(A, t).delta == pytest.approx(0.0, abs=1e-13)

    def test_duplicated_block_detected(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=9)
        A = A.with_block(3, A.block(1))
        report = rip_constant_exact(A, 2)
        assert report.delta >= 1.0
        assert report.worst_support == (1, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_oracle(self, seed):
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=seed)
        report = rip_constant_exact(A, 4)
        oracle_delta, oracle_worst = rip_brute_force(A, 4)
        assert report.delta == pytest.approx(oracle_delta, abs=1e-12)
        assert report.worst_support == oracle_worst
        assert report.supports_examined == math.comb(6, 4)
        assert report.mode == "exact-enumeration"

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_in_level(self, seed):
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=3), seed=seed)
        deltas = [rip_constant_exact(A, t).delta for t in range(1, 7)]
        for lo, hi in zip(deltas, deltas[1:]):
            assert lo <= hi + 1e-12

    def test_delta_below_one_implies_full_rank(self):
        A, report, _ = make_rip_instance(16, 6, 2, 2, seed=2)
        assert report.delta < 1.0
        for sup in [(1, 2, 3, 4), (2, 3, 5, 6), (1, 3, 4, 6)]:
            assert ge_rank(A.restrict(sup)) == 8

    def test_capacity_error(self):
        structure = BlockStructure(K=30, alpha=1, s=15)
        A = BlockDict(structure, np.eye(30))
        with pytest.raises(CapacityError):
            rip_constant_exact(A, 15)

    def test_level_out_of_range(self):
        A = orthonormal_dict(8, 3, 2, 2)
        with pytest.raises(ValueError):
            rip_constant_exact(A, 0)
        with pytest.raises(ValueError):
            rip_constant_exact(A, 4)


class TestSampled:
    @pytest.mark.parametrize("n", [10**15, 10**6 + 1])
    def test_capacity_error(self, n):
        # C(40, 20) is about 1.4e11: the enumeration (n >= C) and the draw (n < C)
        # are both refused above the cap before anything is allocated
        A = BlockDict(BlockStructure(K=40, alpha=1, s=20), np.eye(40))
        assert n > rip.DEFAULT_ENUMERATION_CAP
        with pytest.raises(CapacityError, match="exceeds the enumeration cap"):
            rip_lower_bound_sampled(A, 20, n_samples=n, seed=0)

    def test_exhausts_all_supports_when_budget_allows(self):
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=5)
        exact = rip_constant_exact(A, 4)
        sampled = rip_lower_bound_sampled(A, 4, n_samples=100, seed=0)
        assert sampled.delta == exact.delta
        assert sampled.supports_examined == math.comb(6, 4)
        assert sampled.mode == "sampled-lower-bound"

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_samples_rejected(self, n):
        A = orthonormal_dict(12, 5, 2, 2)
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n}"):
            rip_lower_bound_sampled(A, 3, n_samples=n, seed=0)

    @pytest.mark.parametrize("n", [5, 15, 16])
    def test_negative_seed_refused_even_when_every_support_is_listed(self, n):
        # C(6, 2) = 15: at n >= 15 the sampler lists every support and draws nothing
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=5)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            rip_lower_bound_sampled(A, 2, n, seed=-1)

    def test_orthonormal_is_zero(self):
        A = orthonormal_dict(12, 5, 2, 2)
        report = rip_lower_bound_sampled(A, 3, n_samples=4, seed=7)
        assert report.delta == pytest.approx(0.0, abs=1e-13)

    def test_deterministic(self):
        A = gen_dictionary(20, BlockStructure(K=10, alpha=2, s=3), seed=11)
        r1 = rip_lower_bound_sampled(A, 5, n_samples=20, seed=42)
        r2 = rip_lower_bound_sampled(A, 5, n_samples=20, seed=42)
        assert r1 == r2

    @pytest.mark.parametrize("seed", range(5))
    def test_never_exceeds_exact(self, seed):
        A = gen_dictionary(18, BlockStructure(K=8, alpha=2, s=3), seed=seed)
        exact = rip_constant_exact(A, 5)
        sampled = rip_lower_bound_sampled(A, 5, n_samples=10, seed=seed)
        assert sampled.delta <= exact.delta
        assert sampled.supports_examined == 10


class TestLevelRule:
    def test_exact_up_to_the_cap_and_sampled_above(self, monkeypatch):
        # C(10, 4) = 210 supports: exact at a cap of 210, 200 sampled at 209
        A = gen_dictionary(20, BlockStructure(K=10, alpha=2, s=2), seed=5)
        monkeypatch.setattr(rip, "DEFAULT_ENUMERATION_CAP", 210)
        assert rip.rip_constant(A, 4, seed=0) == rip_constant_exact(A, 4)
        monkeypatch.setattr(rip, "DEFAULT_ENUMERATION_CAP", 209)
        assert rip.rip_constant(A, 4, seed=0) == rip_lower_bound_sampled(A, 4, 200, seed=0)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            rip.rip_constant(A, 4, seed=-1)


def _one_draw_at_a_time(K, t, n, seed):
    """The sampler's draw rule, one support per draw: rng.random(K) keys, the
    blocks of the t smallest, sorted and shifted to 1-based, repeats skipped."""
    if n >= math.comb(K, t):
        return np.array(list(combinations(range(1, K + 1), t)), dtype=np.intp)
    rng = np.random.default_rng(seed)
    seen = {}
    while len(seen) < n:
        seen[tuple(np.sort(np.argsort(rng.random(K))[:t]) + 1)] = None
    return np.array(list(seen), dtype=np.intp)


class TestSupportLayer:
    def test_enumeration_is_lexicographic(self, monkeypatch):
        monkeypatch.setattr(rip, "DEFAULT_ENUMERATION_CAP", 10)
        supports = _enumerate_supports(5, 3)
        assert [tuple(map(int, row)) for row in supports] == list(
            combinations(range(1, 6), 3)
        )

    def test_enumeration_of_the_empty_support(self, monkeypatch):
        # one empty row: C(K, 0) = 1, the empty support
        monkeypatch.setattr(rip, "DEFAULT_ENUMERATION_CAP", 10)
        assert _enumerate_supports(5, 0).shape == (1, 0)

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(rip, "DEFAULT_ENUMERATION_CAP", 20)
        assert len(_enumerate_supports(6, 3)) == 20
        monkeypatch.setattr(rip, "DEFAULT_ENUMERATION_CAP", 19)
        with pytest.raises(CapacityError):
            _enumerate_supports(6, 3)

    def test_sampler_distinct_sorted_and_seeded(self):
        drawn = _sample_supports(10, 4, 30, seed=5)
        rows = [tuple(map(int, row)) for row in drawn]
        assert drawn.shape == (30, 4)
        assert len(set(rows)) == 30
        assert all(list(row) == sorted(row) and 1 <= row[0] and row[-1] <= 10
                   for row in rows)
        assert np.array_equal(drawn, _sample_supports(10, 4, 30, seed=5))
        assert not np.array_equal(drawn, _sample_supports(10, 4, 30, seed=6))

    @pytest.mark.parametrize("n", [15, 16, 1000])
    def test_sampler_returns_every_support_when_budget_allows(self, n, monkeypatch):
        monkeypatch.setattr(rip, "DEFAULT_ENUMERATION_CAP", 15)
        assert np.array_equal(_sample_supports(6, 2, n, seed=0), _enumerate_supports(6, 2))

    @pytest.mark.parametrize("K, t, n", [(12, 4, 200), (6, 2, 5), (30, 4, 200),
                                         (6, 2, 15), (5, 3, 40)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_sampler_pinned_to_sort_and_shift_loop(self, K, t, n, seed):
        expected = _one_draw_at_a_time(K, t, n, seed)
        drawn = _sample_supports(K, t, n, seed)
        assert drawn.dtype == expected.dtype and drawn.shape == expected.shape
        assert drawn.tobytes() == expected.tobytes()

    def test_sampler_where_a_packed_key_would_overflow(self):
        K, t, n = 70, 12, 128
        assert K**t >= 2**63
        drawn = _sample_supports(K, t, n, seed=3)
        assert drawn.shape == (n, t) and drawn.dtype == np.intp
        assert len({tuple(row) for row in drawn.tolist()}) == n
        assert drawn.tobytes() == _one_draw_at_a_time(K, t, n, seed=3).tobytes()

    @pytest.mark.parametrize("K", [63, 64])
    def test_sampler_on_both_sides_of_the_int64_bitmask(self, K):
        # K = 63 keys supports by bits 0..62 of an int64, K = 64 by their row bytes
        for seed in range(3):
            drawn = _sample_supports(K, 5, 300, seed)
            assert drawn.tobytes() == _one_draw_at_a_time(K, 5, 300, seed).tobytes()

    def test_sampler_first_batch_is_the_expected_draw_count(self, monkeypatch):
        # the coupon-collector expectation sum_{i < n} C / (C - i), at most C = C(K, t),
        # so the screen's 200 of C(12, 4) = 495 mostly take one batch
        batches, default_rng = [], np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.rng, self.seed = default_rng(seed), seed

            def random(self, shape):
                batches.append((self.seed, shape[0]))
                return self.rng.random(shape)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        for seed in range(1, 51):
            _sample_supports(12, 4, 200, seed)
        first = {seed: rows for seed, rows in reversed(batches)}
        assert all(abs(rows - sum(495 / (495 - i) for i in range(200))) < 1 for rows in first.values())
        assert len(batches) < 2 * len(first)
        batches.clear()
        _sample_supports(6, 2, 14, seed=0)
        assert batches[0] == (0, 15)

    def test_small_tables_are_memoised_and_read_only(self, monkeypatch):
        table = _enumerate_supports(12, 4)
        assert _enumerate_supports(12, 4) is table and not table.flags.writeable
        monkeypatch.setattr(rip, "_RIP_CHUNK", 494)  # C(12, 4) = 495 rows: not memoised
        big = _enumerate_supports(12, 4)
        assert big is not table and not big.flags.writeable
        assert np.array_equal(big, table)

    def test_sampled_bound_pinned(self):
        # recorded from rip_constant_for_support over _one_draw_at_a_time's supports
        A = gen_dictionary(20, BlockStructure(K=10, alpha=2, s=3), seed=11)
        report = rip_lower_bound_sampled(A, 5, 20, seed=42)
        assert report.worst_support == (1, 3, 4, 6, 9)
        assert report.delta == pytest.approx(1.462202940994704, abs=1e-12)
        assert report.supports_examined == 20

    @pytest.mark.parametrize("level", [2, 3])
    def test_gram_path_across_chunk_boundaries(self, monkeypatch, level):
        monkeypatch.setattr(rip, "_RIP_CHUNK", 4)
        A = gen_dictionary(14, BlockStructure(K=7, alpha=2, s=2), seed=3)
        supports = list(combinations(range(1, 8), level))
        assert len(supports) % 4 != 0
        deltas = [rip_constant_for_support(A, sup) for sup in supports]
        report = rip_constant_exact(A, level)
        assert report.delta == pytest.approx(max(deltas), abs=1e-12)
        assert report.worst_support == supports[int(np.argmax(deltas))]
        oracle_delta, oracle_worst = rip_brute_force(A, level)
        assert report.delta == pytest.approx(oracle_delta, abs=1e-12)
        assert report.worst_support == oracle_worst


def all_supports_report(A, supports):
    """Reference: delta_T of every support, then the first maximizer."""
    deltas = rip._support_deltas(A.data.T @ A.data, supports, A.structure.alpha)
    k = int(np.argmax(deltas))
    return float(deltas[k]), tuple(int(i) for i in supports[k])


def pruned_report(A, t, supports):
    report = rip._rip_report(A, t, supports, rip.MODE_EXACT)
    return report.delta, report.worst_support


def record_solves(monkeypatch):
    """The supports, as tuples, that `_rip_report` hands to the eigen-solver."""
    solved = []
    real = rip._support_deltas

    def counted(gram, supports, alpha):
        solved.extend(map(tuple, supports.tolist()))
        return real(gram, supports, alpha)

    monkeypatch.setattr(rip, "_support_deltas", counted)
    return solved


class TestPrunedReport:
    """Bound-then-solve reports are the all-supports reports, bit for bit."""

    @pytest.mark.parametrize("mode", ["per-block-orthonormal", "gaussian"])
    @pytest.mark.parametrize("K,P", [(12, 48), (6, 16)])
    def test_seeded_dictionaries(self, K, P, mode):
        st = BlockStructure(K=K, alpha=2, s=2)
        supports = _enumerate_supports(K, 4)
        for seed in range(100):
            A = gen_dictionary(P, st, seed=seed, mode=mode)
            assert pruned_report(A, 4, supports) == all_supports_report(A, supports), seed

    @pytest.mark.parametrize("level", [2, 4])
    def test_ties_from_a_duplicated_and_a_zero_block(self, level):
        # supports holding blocks 2 and 5, or block 9, all have delta about 1
        A = gen_dictionary(48, BlockStructure(K=12, alpha=2, s=2), seed=4)
        A = A.with_block(5, A.block(2)).with_block(9, np.zeros((48, 2)))
        supports = _enumerate_supports(12, level)
        assert pruned_report(A, level, supports) == all_supports_report(A, supports)
        assert rip_constant_exact(A, level).delta >= 1.0
        for seed in range(5):
            drawn = _sample_supports(12, level, 40, seed)
            report = rip_lower_bound_sampled(A, level, 40, seed)
            assert (report.delta, report.worst_support) == all_supports_report(A, drawn)

    @pytest.mark.parametrize("mode", ["per-block-orthonormal", "gaussian"])
    @pytest.mark.parametrize("K,alpha,P,t", [
        (8, 3, 30, 3),  # Frobenius block norms
        (20, 2, 16, 1),  # one block per support, past the head
        (24, 1, 12, 2),
        (6, 2, 16, 6),  # t = K: a single support
    ])
    def test_block_widths_and_levels(self, K, alpha, P, t, mode):
        st = BlockStructure(K=K, alpha=alpha, s=1)
        supports = _enumerate_supports(K, t)
        for seed in range(20):
            A = gen_dictionary(P, st, seed=seed, mode=mode)
            assert pruned_report(A, t, supports) == all_supports_report(A, supports), seed

    @pytest.mark.parametrize("seed", [13, 15, 39])
    def test_a_bound_rounded_below_its_delta_is_still_solved(self, seed):
        # 40 copies of one block: every delta_T ties, and at these seeds the computed
        # bound is an ulp below the computed delta, so only the margin keeps (1,)
        block = np.random.default_rng(seed).standard_normal((6, 2))
        A = BlockDict(BlockStructure(K=40, alpha=2, s=1), np.tile(block, 40))
        supports = _enumerate_supports(40, 1)
        assert pruned_report(A, 1, supports) == all_supports_report(A, supports)
        assert pruned_report(A, 1, supports)[1] == (1,)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_bounds_that_overflow_are_never_skipped(self, alpha):
        # the Gram is finite, but the bound's power steps overflow to inf / inf = NaN
        st = BlockStructure(K=24 // alpha, alpha=alpha, s=1)
        supports = _enumerate_supports(st.K, 2)
        for seed in range(3):
            A = BlockDict(st, np.random.default_rng(seed).standard_normal((8, 24)) * 1e150)
            assert np.isnan(_support_bounds(A.data.T @ A.data, supports, alpha)).any()
            assert pruned_report(A, 2, supports) == all_supports_report(A, supports)

    def test_sampled_mode(self):
        A = gen_dictionary(48, BlockStructure(K=12, alpha=2, s=2), seed=7)
        for seed in range(20):
            report = rip_lower_bound_sampled(A, 4, 200, seed)
            expected = all_supports_report(A, _sample_supports(12, 4, 200, seed))
            assert (report.delta, report.worst_support) == expected

    def test_small_chunks_and_head(self, monkeypatch):
        monkeypatch.setattr(rip, "_RIP_CHUNK", 3)
        st = BlockStructure(K=12, alpha=2, s=2)
        supports = _enumerate_supports(12, 4)
        for head in (1, 5, 16):
            monkeypatch.setattr(rip, "_RIP_HEAD", head)
            for seed in range(10):
                A = gen_dictionary(48, st, seed=seed)
                assert pruned_report(A, 4, supports) == all_supports_report(A, supports)

    def test_most_supports_are_never_eigen_solved(self, monkeypatch):
        # K=12, t=4: of 495 exact or 200 sampled supports, the bounds leave about 2
        solved = record_solves(monkeypatch)
        st = BlockStructure(K=12, alpha=2, s=2)
        for report in (rip_constant_exact, lambda A, t: rip_lower_bound_sampled(A, t, 200, 1)):
            counts = []
            for seed in range(100):
                solved.clear()
                report(gen_dictionary(48, st, seed=seed), 4)
                counts.append(len(solved))
            assert counts[1] <= 3 and np.mean(counts) <= 3, counts

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["per-block-orthonormal", "gaussian"])
    def test_bounds_hold(self, alpha, mode):
        st = BlockStructure(K=7, alpha=alpha, s=1)
        for seed in range(10):
            A = gen_dictionary(3 * alpha + 4, st, seed=seed, mode=mode)
            gram = A.data.T @ A.data
            for t in (1, 2, 4, 7):
                supports = _enumerate_supports(7, t)
                deltas = rip._support_deltas(gram, supports, alpha)
                assert np.all(_support_bounds(gram, supports, alpha) >= deltas - 1e-12)

    def test_overflowing_gram_is_refused(self):
        # filterwarnings = error: an overflow warning would fail this test too
        A = BlockDict(BlockStructure(K=4, alpha=2, s=2), np.full((8, 8), 1e200))
        with pytest.raises(ValueError, match="not finite"):
            rip_constant_exact(A, 2)
        with pytest.raises(ValueError, match="not finite"):
            rip_lower_bound_sampled(A, 2, 3, seed=0)
        with pytest.raises(ValueError, match="not finite"):
            rip_constant_for_support(A, (1, 2))

    def test_memory_stays_bounded(self):
        # 44,850 supports of 300 blocks: bounded per support, in chunks, not per block
        A = gen_dictionary(20, BlockStructure(K=300, alpha=1, s=1), seed=1)
        tracemalloc.start()
        try:
            rip_constant_exact(A, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestGelfandBounds:
    """||E_T^8||_F^(1/8) plus the slack is never below a computed delta_T."""

    @staticmethod
    def bounds_and_deltas(A, t):
        gram, alpha = A.data.T @ A.data, A.structure.alpha
        supports = _enumerate_supports(A.structure.K, t)
        bounds = rip._gelfand_bounds(gram, supports, alpha)
        return supports, bounds, rip._slack(t, alpha, bounds), rip._support_deltas(gram, supports, alpha)

    @pytest.mark.parametrize("scale", [1.0, 2.0**300, 2.0**-300])
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["per-block-orthonormal", "gaussian"])
    def test_bound_holds_and_reports_match(self, alpha, mode, scale):
        st = BlockStructure(K=7, alpha=alpha, s=1)
        for seed in range(10):
            A = gen_dictionary(3 * alpha + 4, st, seed=seed, mode=mode)
            A = BlockDict(st, A.data * scale)
            for t in (1, 2, 4, 7):
                supports, bounds, slack, deltas = self.bounds_and_deltas(A, t)
                assert not np.any(bounds + slack < deltas), (seed, t)  # NaN is never below
                assert pruned_report(A, t, supports) == all_supports_report(A, supports)

    def test_a_power_that_overflows_is_always_solved(self, monkeypatch):
        # Gram entries near 2^132: the block-norm bounds stay finite, E_T^8 overflows
        st = BlockStructure(K=12, alpha=2, s=2)
        A = BlockDict(st, gen_dictionary(48, st, seed=2, mode="gaussian").data * 2.0**66)
        supports, bounds, _, deltas = self.bounds_and_deltas(A, 4)
        block_bounds = _support_bounds(A.data.T @ A.data, supports, 2)
        assert np.isfinite(block_bounds).all() and not np.isfinite(bounds).any()
        solved = record_solves(monkeypatch)
        assert pruned_report(A, 4, supports) == all_supports_report(A, supports)
        # every support the block-norm bound keeps reaches the Gelfand stage and is solved
        kept = ~(block_bounds + rip._slack(4, 2, block_bounds) < deltas.max())
        assert kept.sum() > 2 and {tuple(row) for row in supports[kept].tolist()} <= set(solved)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_a_power_that_underflows_never_hides_the_maximizer(self, alpha):
        # E = gram - I has entries near 2^-140, so E^8 underflows to zero
        st = BlockStructure(K=12 // alpha, alpha=alpha, s=1)
        for seed in range(5):
            noise = np.random.default_rng(seed).standard_normal((12, 12))
            A = BlockDict(st, np.eye(12) + 2.0**-140 * noise)
            for t in (2, 3):
                supports, bounds, _, _ = self.bounds_and_deltas(A, t)
                assert np.all(bounds == 0.0)
                assert pruned_report(A, t, supports) == all_supports_report(A, supports)


class TestRayleighFloors:
    """A stacked batch's floors never pass a draw's exact constant."""

    @pytest.mark.parametrize("P,K", [(16, 6), (12, 4)])
    def test_floor_at_most_the_exact_constant(self, P, K):
        st = BlockStructure(K=K, alpha=2, s=2)
        draws = [gen_dictionary(P, st, seed=seed) for seed in range(208)]
        data = np.stack([A.data for A in draws])
        floors = np.concatenate([rip._rayleigh_floors(data[i : i + 16], 2, 4)
                                 for i in range(0, len(draws), 16)])
        deltas = np.array([rip_constant_exact(A, 4).delta for A in draws])
        assert np.all(floors <= deltas)
        # the floors rule out most draws the exact constant rejects (85% at K=4, 98% at K=6)
        assert np.mean(floors[deltas >= 1.0] >= 1.0) > 0.8

    def test_overflowing_gram_gives_a_nan_floor(self):
        # filterwarnings = error: the overflow is not warned of
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=0)
        huge = A.with_block(2, np.full((16, 2), 1e200))
        floors = rip._rayleigh_floors(np.stack([A.data, huge.data]), 2, 4)
        assert floors[0] >= 1.0 and np.isnan(floors[1])


def test_report_json_shape():
    A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=1)
    report = rip_constant_exact(A, 2)
    payload = json.loads(json.dumps(report.to_dict()))
    assert set(payload) == {"level", "delta", "mode", "worst_support", "supports_examined"}
    assert payload["level"] == 2
    assert all(isinstance(i, int) for i in payload["worst_support"])
