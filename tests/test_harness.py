import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations, islice

import numpy as np
import pytest
import scipy.stats

from blockdict import (
    DEFAULT_ENUMERATION_CAP,
    BlockDict,
    BlockSparseVec,
    BlockStructure,
    ExperimentConfig,
    block_omp,
    gen_block_diagonal,
    gen_block_permutation,
    gen_codes,
    gen_dictionary,
    gen_rip_dictionary,
    exhaustive_code,
    learn_dictionary,
    recover_equivalence,
    rip_constant,
    rip_lower_bound_sampled,
    run_experiment,
    trace_to_csv,
)
from blockdict import discovery, harness
from blockdict.harness import _code_all, _discover_block_spans
from blockdict.subspace import orthonormal_basis, spans_equal, subspace_intersection

from conftest import make_rip_instance, rip_brute_force, sequential_gen_codes


def small_config(**overrides):
    base = dict(
        structure=BlockStructure(K=4, alpha=2, s=2),
        ambient_dim=20,
        n_samples=60,
        seed=3,
        learner_iterations=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# the learner's noise floor 0.1 sigma^2 sqrt(2N(P - s alpha)) at small_config and sigma = 1e-2
SMALL_FLOOR = 0.1 * 1e-2**2 * math.sqrt(2 * 60 * (20 - 2 * 2))


def start_learner_at(monkeypatch, B):
    """Make `learn_dictionary` start from B's blocks as they are, in place of discovery."""
    blocks = [B.block(i) for i in range(1, B.structure.K + 1)]
    monkeypatch.setattr(harness, "_discover_block_spans", lambda *a, **k: blocks)


class TestGenDictionary:
    def test_per_block_orthonormal_grams(self):
        st = BlockStructure(K=5, alpha=3, s=2)
        A = gen_dictionary(20, st, seed=0)
        for i in range(1, 6):
            gram = A.block(i).T @ A.block(i)
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_deterministic(self):
        st = BlockStructure(K=4, alpha=2, s=2)
        A1 = gen_dictionary(12, st, seed=9)
        A2 = gen_dictionary(12, st, seed=9)
        assert np.array_equal(A1.data, A2.data)

    def test_gaussian_mode(self):
        st = BlockStructure(K=4, alpha=2, s=2)
        A = gen_dictionary(12, st, seed=9, mode="gaussian")
        gram = A.block(1).T @ A.block(1)
        assert not np.allclose(gram, np.eye(2), atol=1e-6)

    def test_ambient_too_small(self):
        st = BlockStructure(K=4, alpha=3, s=2)
        with pytest.raises(ValueError):
            gen_dictionary(2, st, seed=0)

    def test_unknown_mode(self):
        st = BlockStructure(K=4, alpha=2, s=2)
        with pytest.raises(ValueError):
            gen_dictionary(12, st, seed=0, mode="hadamard")

    @pytest.mark.parametrize("P", [16, 32, 48])
    @pytest.mark.parametrize("K,alpha,s", [(6, 2, 2), (4, 3, 2), (10, 1, 3), (5, 4, 1)])
    def test_stacked_qr_matches_per_block_loop(self, P, K, alpha, s):
        st = BlockStructure(K=K, alpha=alpha, s=s)
        for seed in range(10):
            raw = np.random.default_rng(seed).standard_normal((P, st.total_dim))
            expected = np.empty_like(raw)
            for i in range(1, K + 1):
                expected[:, st.block_slice(i)] = np.linalg.qr(raw[:, st.block_slice(i)])[0]
            assert gen_dictionary(P, st, seed=seed).data.tobytes() == expected.tobytes()


class TestGenRipDictionary:
    @pytest.mark.parametrize("P,K,seeds", [(12, 4, (0, 5, 9, 10, 11)), (16, 6, (0, 7, 20))])
    def test_retries_are_the_first_offset_below_one(self, P, K, seeds):
        # the independent oracle decides each draw of the seed's stream (P=12 seeds 10, 11
        # take no retry, P=16 seed 7 takes 78)
        st = BlockStructure(K=K, alpha=2, s=2)
        for seed in seeds:
            A, report, retries = gen_rip_dictionary(P, st, seed)
            draws = list(islice(stream_draws(P, st, seed), retries + 1))
            deltas = [rip_brute_force(D, 4)[0] for D in draws]
            assert all(d >= 1.0 for d in deltas[:-1]) and deltas[-1] < 1.0
            assert np.array_equal(A.data, draws[-1].data)
            assert report.mode == "exact-enumeration" and report.level == 4
            assert abs(report.delta - deltas[-1]) <= 1e-12

    def test_gives_up_after_the_retry_cap(self, monkeypatch):
        # every draw repeats block 1 as block 2, so support (1, 2, 3) is
        # rank-deficient and no draw has delta_3 < 1
        st = BlockStructure(K=3, alpha=2, s=2)
        batches, streams = [], set()
        real = harness._draw_dictionaries

        def repeated(ambient_dim, structure, rng, n, *args):
            batches.append(n)
            streams.add(id(rng))
            data = real(ambient_dim, structure, rng, n, *args)
            data[:, :, st.block_slice(2)] = data[:, :, st.block_slice(1)]
            return data

        monkeypatch.setattr(harness, "_draw_dictionaries", repeated)
        with pytest.raises(ValueError, match="found in 1001 draws"):
            gen_rip_dictionary(6, st, 5)
        assert batches == [16] * 62 + [9] and len(streams) == 1  # 1,001 draws, one stream
        config = ExperimentConfig(st, ambient_dim=6, n_samples=10, seed=0)
        report = run_experiment(config)
        assert [e["stage"] for e in report.stage_errors] == ["gen_dictionary"]
        assert "found in 1001 draws" in report.stage_errors[0]["error"]
        assert report.rip is None and report.certificate is None

    @pytest.mark.parametrize("P", [16, 24, 40])
    def test_matches_the_one_draw_at_a_time_loop(self, P):
        # seed 41 at P=16 and every seed at P=40 qualify at draw 0; seed 500 at P=16 takes 56
        st = BlockStructure(K=6, alpha=2, s=2)
        retries = []
        for seed in (0, 41, 500, 2000, 7777):
            A, report, retry = gen_rip_dictionary(P, st, seed)
            ref_A, ref_report, ref_retry = one_draw_at_a_time(P, st, seed)
            assert A.data.tobytes() == ref_A.data.tobytes()
            assert (report, retry) == (ref_report, ref_retry)
            retries.append(retry)
        assert 0 in retries

    def test_floors_spare_most_exact_constants(self, monkeypatch):
        st = BlockStructure(K=6, alpha=2, s=2)
        batches, checked = [], []
        real_draw, real_rip = harness._draw_dictionaries, harness.rip_constant

        def draw(ambient_dim, structure, rng, n, *args):
            batches.append(n)
            return real_draw(ambient_dim, structure, rng, n, *args)

        def rip_constant(A, level, seed):
            checked.append(seed)
            return real_rip(A, level, seed)

        monkeypatch.setattr(harness, "_draw_dictionaries", draw)
        monkeypatch.setattr(harness, "rip_constant", rip_constant)
        _, _, retry = gen_rip_dictionary(16, st, 0)
        assert retry == 21 and batches == [16, 16]
        assert checked == sorted(checked) and checked[-1] == retry
        assert len(checked) < 10

    @pytest.mark.parametrize("P,K,alpha,s", [(12, 4, 2, 2), (16, 6, 2, 2), (40, 30, 1, 4)])
    def test_winner_is_its_own_draw_bytewise(self, P, K, alpha, s):
        # one stacked QR per batch gives each draw the bytes of drawing it alone from
        # the seed's stream; offsets reach 215 at P=16 and 115 above the cap at P=40
        st = BlockStructure(K=K, alpha=alpha, s=s)
        offsets = []
        for seed in range(6):
            A, _, offset = gen_rip_dictionary(P, st, seed)
            D = next(islice(stream_draws(P, st, seed), offset, None))
            assert A.data.tobytes() == D.data.tobytes()
            offsets.append(offset)
        assert max(offsets) >= 2

    def test_samples_above_the_enumeration_cap(self):
        # C(30, 8) = 5,852,925 supports at level min(2s, K) = 8
        st = BlockStructure(K=30, alpha=1, s=4)
        A, report, retries = gen_rip_dictionary(64, st, 3)
        assert report.mode == "sampled-lower-bound"
        assert report.level == 8 and report.supports_examined == 200
        assert report.delta < 1.0
        assert report == rip_lower_bound_sampled(A, 8, 200, seed=3 + retries)

    def test_refuses_ambient_below_the_level_floor(self):
        with pytest.raises(ValueError, match=r"min\(2s, K\)\*alpha = 8"):
            gen_rip_dictionary(7, BlockStructure(K=6, alpha=2, s=2), 0)


def stream_draws(P, st, seed):
    """Per-block-orthonormal dictionaries drawn one at a time from one `default_rng(seed)`,
    each block orthonormalized by a QR of its own."""
    rng = np.random.default_rng(seed)
    while True:
        raw = rng.standard_normal((P, st.total_dim))
        data = np.empty_like(raw)
        for i in range(1, st.K + 1):
            data[:, st.block_slice(i)] = np.linalg.qr(raw[:, st.block_slice(i)])[0]
        yield BlockDict(st, data)


def one_draw_at_a_time(P, st, seed):
    """The generation loop without batches or floors: every draw through `rip_constant`."""
    draws = stream_draws(P, st, seed)
    for retry in range(harness.MAX_GENERATION_RETRIES + 1):
        A = next(draws)
        report = rip_constant(A, min(2 * st.s, st.K), seed + retry)
        if report.delta < 1.0:
            return A, report, retry
    raise AssertionError("no draw qualifies")


def code_vectors(structure, X):
    return [BlockSparseVec.from_values(structure, x) for x in X.T]


def per_column_codes(structure, n_samples, seed, coefficient_scale=1.0):
    """`gen_codes`'s rule read one column at a time from its three draws."""
    rng = np.random.default_rng(seed)
    K, alpha, s = structure.K, structure.alpha, structure.s
    keys = rng.random((n_samples, K))
    magnitudes = rng.uniform(0.1, 1.0, (n_samples, s, alpha))
    signs = rng.integers(0, 2, (n_samples, s, alpha)) * 2 - 1
    X = np.zeros((structure.total_dim, n_samples))
    for c in range(n_samples):
        for j, i in enumerate(sorted(np.argsort(keys[c])[:s])):
            values = coefficient_scale * signs[c, j] * magnitudes[c, j]
            X[structure.block_slice(int(i) + 1), c] = values
    return X


def active_entries(structure, X):
    """Each column's active entries in row order, one row per column, shape (N, s, alpha)."""
    return X.T[X.T != 0].reshape(X.shape[1], structure.s, structure.alpha)


class TestGenCodes:
    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
    @pytest.mark.parametrize(
        "K, alpha, s, scale", [(6, 2, 2, 1.0), (5, 3, 2, 2.5), (4, 1, 4, 0.3)]
    )
    def test_matches_the_per_column_reference_bytewise(self, seed, K, alpha, s, scale):
        st = BlockStructure(K=K, alpha=alpha, s=s)
        X = gen_codes(st, 37, seed=seed, coefficient_scale=scale)
        ref = per_column_codes(st, 37, seed, coefficient_scale=scale)
        assert X.shape == (K * alpha, 37) and X.flags.c_contiguous
        assert X.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_scale_rejected(self, scale):
        message = f"^coefficient_scale must be finite and positive, got {scale}$"
        with pytest.raises(ValueError, match=message):
            gen_codes(BlockStructure(K=4, alpha=2, s=1), 3, seed=0, coefficient_scale=scale)

    def test_support_size_exact(self):
        st = BlockStructure(K=6, alpha=2, s=2)
        for c in code_vectors(st, gen_codes(st, 50, seed=1)):
            assert len(c.support) == 2

    def test_full_support_when_s_equals_K(self):
        st = BlockStructure(K=3, alpha=2, s=3)
        for c in code_vectors(st, gen_codes(st, 10, seed=2)):
            assert c.support == (1, 2, 3)

    def test_coefficients_bounded_away_from_zero(self):
        st = BlockStructure(K=5, alpha=3, s=2)
        scale = 2.5
        for c in code_vectors(st, gen_codes(st, 40, seed=3, coefficient_scale=scale)):
            for i in c.support:
                blk = c.values[st.block_slice(i)]
                assert np.all(np.abs(blk) >= 0.1 * scale - 1e-12)
                assert np.all(np.abs(blk) <= scale + 1e-12)

    def test_deterministic(self):
        st = BlockStructure(K=5, alpha=2, s=2)
        a = gen_codes(st, 20, seed=7)
        b = gen_codes(st, 20, seed=7)
        assert np.array_equal(a, b)

    def test_support_distribution_uniform(self):
        # chi-square over all C(6,2)=15 supports on 10^4 samples
        st = BlockStructure(K=6, alpha=1, s=2)
        from itertools import combinations

        cells = {sup: 0 for sup in combinations(range(1, 7), 2)}
        for c in code_vectors(st, gen_codes(st, 10_000, seed=11)):
            cells[c.support] += 1
        _, p = scipy.stats.chisquare(list(cells.values()))
        assert p > 0.01

    def test_signs_balanced_per_active_slot(self):
        st = BlockStructure(K=6, alpha=2, s=2)
        positive = (active_entries(st, gen_codes(st, 10_000, seed=12)) > 0).sum(axis=0)
        for count in positive.ravel():
            assert scipy.stats.binomtest(int(count), 10_000).pvalue > 0.01

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_magnitudes_uniform_per_active_slot(self, scale):
        # Kolmogorov-Smirnov against uniform on [0.1, 1] * scale, slot by slot
        st = BlockStructure(K=5, alpha=3, s=2)
        X = gen_codes(st, 5_000, seed=13, coefficient_scale=scale)
        law = scipy.stats.uniform(loc=0.1 * scale, scale=0.9 * scale)
        for slot in np.abs(active_entries(st, X)).reshape(5_000, -1).T:
            assert scipy.stats.kstest(slot, law.cdf).pvalue > 0.01


class TestGenTransforms:
    def test_permutation_deterministic_and_valid(self):
        p1 = gen_block_permutation(8, seed=5)
        p2 = gen_block_permutation(8, seed=5)
        assert p1.pi == p2.pi
        assert sorted(p1.pi) == list(range(1, 9))

    def test_diagonal_condition_bound(self):
        st = BlockStructure(K=5, alpha=3, s=2)
        D = gen_block_diagonal(st, seed=6)
        for blk in D.blocks:
            svals = np.linalg.svd(blk, compute_uv=False)
            assert svals[0] / svals[-1] <= 10.0 + 1e-9


class TestLearnDictionary:
    def test_fixed_point_at_truth(self, monkeypatch):
        A, _, used = make_rip_instance(20, 4, 2, 2, seed=21)
        config = small_config(seed=used)
        Y = A.data @ sequential_gen_codes(config.structure, 60, seed=used + 1)
        start_learner_at(monkeypatch, A)
        learned, trace = learn_dictionary(Y, config)
        assert trace.objectives[0] <= 1e-20
        assert trace.stalled
        assert np.array_equal(learned.data, A.data)

    def test_fixed_point_at_truth_where_block_omp_miscodes(self, monkeypatch):
        # criterion-7 geometry: greedy coding at the truth is wrong here,
        # the minimum-residual code is not
        used = 232
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=used)
        assert rip_constant(A, 4, used).delta < 1.0
        X = sequential_gen_codes(A.structure, 300, seed=used + 1)
        Y = A.data @ X
        omp_misses = sum(
            block_omp(A, Y[:, c]).code.support != code.support
            for c, code in enumerate(code_vectors(A.structure, X))
        )
        assert omp_misses >= 1
        config = ExperimentConfig(
            structure=A.structure, ambient_dim=16, n_samples=300, seed=used,
            learner_iterations=30,
        )
        start_learner_at(monkeypatch, A)
        learned, trace = learn_dictionary(Y, config)
        assert trace.objectives[0] <= 1e-20
        assert trace.stalled
        assert np.array_equal(learned.data, A.data)

    def test_underdetermined_warning(self):
        config = small_config(n_samples=1)
        rng = np.random.default_rng(0)
        with pytest.warns(UserWarning):
            learn_dictionary(rng.standard_normal((20, 1)), config)

    def test_under_used_block_is_reseeded_as_dead(self, monkeypatch):
        # 60 samples on blocks 1-3 and one on blocks 1 and 4: block 4 has
        # fewer than alpha active samples, so the sweep reseeds it
        A, _, used = make_rip_instance(20, 4, 2, 2, seed=21)
        rng = np.random.default_rng(used)
        X = np.zeros((8, 61))
        X[:6, :60] = sequential_gen_codes(BlockStructure(K=3, alpha=2, s=2), 60, seed=used + 1)
        X[[0, 1, 6, 7], 60] = rng.uniform(0.5, 1.0, size=4)
        init = BlockDict(A.structure, A.data + 1e-3 * rng.standard_normal(A.data.shape))
        start_learner_at(monkeypatch, init)
        learned, trace = learn_dictionary(A.data @ X, small_config(seed=used))
        dead = {"iteration": 0, "block": 4, "sample": 60, "reason": "dead"}
        assert dead in trace.reseed_events
        # the reseed starts from sample 60's whole residual, block 4's share in it
        assert trace.objectives[1] < trace.objectives[0]
        gram = learned.block(4).T @ learned.block(4)
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12

    def test_reseed_with_fewer_samples_than_block_columns(self):
        config = small_config(n_samples=1)
        Y = np.random.default_rng(0).standard_normal((20, 1))
        with pytest.warns(UserWarning):
            learned, trace = learn_dictionary(Y, config)
        assert trace.reseed_events
        for i in range(1, 5):
            gram = learned.block(i).T @ learned.block(i)
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-12

    def test_objective_non_increasing_in_noiseless_run(self):
        config = small_config(seed=5, learner_iterations=15)
        A, _, used = make_rip_instance(20, 4, 2, 2, seed=31)
        Y = A.data @ sequential_gen_codes(config.structure, 60, seed=used + 1)
        _, trace = learn_dictionary(Y, config)
        reseed_iters = {e["iteration"] for e in trace.reseed_events}
        objs = trace.objectives
        for k in range(1, len(objs)):
            if k - 1 in reseed_iters or k in reseed_iters:
                continue
            assert objs[k] <= objs[k - 1] * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("seed,n_samples,noise", [
        (0, 90, 0.0), (1, 90, 0.0), (2, 90, 0.0), (1, 300, 1e-3),
    ])
    def test_stop_is_scale_free(self, seed, n_samples, noise):
        # samples and noise level times 2^k learn the same blocks in as many
        # iterations: seed 1 stops at a zero objective, the rest run on
        _, Y = criterion7_samples(seed, n_samples=n_samples, noise=noise)
        runs = []
        for k in (-50, 0, 40):
            config = criterion7_config(seed, np.ldexp(noise, k))
            learned, trace = learn_dictionary(np.ldexp(Y, k), replace(config, n_samples=n_samples))
            runs.append((learned.data.tobytes(), len(trace.objectives)))
        assert runs[0] == runs[1] == runs[2], [n for _, n in runs]

    def test_same_blocks_at_every_power_of_two(self):
        # samples times 2^k, past where their squares overflow or underflow, learn the same
        # bytes and certify; the objectives are those at 2^0 times 4^k, inf past the range
        st, Y = criterion7_samples(11)
        truth = gen_dictionary(16, st, seed=11)
        config = criterion7_config(11, 0.0)
        base, base_trace = learn_dictionary(Y, config)
        for k in (-1000, -600, 0, 600, 700):
            learned, trace = learn_dictionary(np.ldexp(Y, k), config)
            assert learned.data.tobytes() == base.data.tobytes(), k
            assert recover_equivalence(truth, learned).status == "equivalent"
            with np.errstate(over="ignore"):
                assert trace.objectives == np.ldexp(base_trace.objectives, 2 * k).tolist(), k
            assert trace.stalled

    @pytest.mark.parametrize("noise,step,stops", [
        (1e-2, 0.99 * SMALL_FLOOR, True), (1e-2, 1.01 * SMALL_FLOOR, False),
        (0.0, 0.99 * SMALL_FLOOR, False), (0.0, 0.5e-12, True), (0.0, 2e-12, False),
    ], ids=["under-floor", "over-floor", "noiseless", "under-relative", "over-relative"])
    def test_noise_floor_threshold(self, monkeypatch, noise, step, stops):
        # scripted objectives 1, 1 - step, 1 - 2 step, ...: the learner stops at
        # the second when step <= max(1e-12 * 1, 0.1 sigma^2 sqrt(2N(P - s alpha)));
        # it codes Y * 2^-e, e the binary exponent of max|Y|, so the script does too.
        # A learner that runs to the cap codes the dictionary it returns once more,
        # so the script holds learner_iterations + 1 codings
        config = small_config(noise_level=noise, learner_iterations=6)
        objectives = iter(1.0 - step * np.arange(7))
        Y = np.random.default_rng(0).standard_normal((20, 60))
        e = int(np.frexp(np.abs(Y).max())[1])

        def scripted(B, Y):
            res = np.zeros(Y.shape[1])
            res[0] = math.ldexp(math.sqrt(next(objectives)), -e)
            return np.zeros((B.structure.total_dim, Y.shape[1])), res

        monkeypatch.setattr(harness, "_code_all", scripted)
        _, trace = learn_dictionary(Y, config)
        assert trace.stalled == stops
        assert len(trace.objectives) == (2 if stops else 6)
        if not stops:  # the capped learner coded the dictionary it returns: all 7 codings
            assert next(objectives, None) is None

    def test_capped_learner_codes_the_dictionary_it_returns(self):
        # a learner that reaches its cap codes the blocks it returns, at its power-of-two scale
        _, Y = criterion7_samples(1, noise=1e-3)
        config = replace(criterion7_config(1, 1e-3), learner_iterations=2)
        learned, trace = learn_dictionary(Y, config)
        assert not trace.stalled and len(trace.objectives) == 2
        e = int(np.frexp(np.abs(Y).max())[1])
        fresh = np.ldexp(_code_all(learned, np.ldexp(Y, -e))[1], e)
        assert trace.residuals.tobytes() == fresh.tobytes()

    def test_capped_learner_past_the_squared_float_range(self):
        # samples near 1e161, whose squares overflow, and a learner cut at 2 iterations: it
        # codes at its power-of-two scale, so nothing warns and every residual is finite
        config = replace(criterion7_config(1, 1e160), learner_iterations=2)
        _, Y = criterion7_samples(1, noise=1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = learn_dictionary(Y, config)
        assert not trace.stalled
        assert np.isfinite(trace.residuals).all()

    def test_shape_mismatch(self):
        config = small_config()
        with pytest.raises(ValueError):
            learn_dictionary(np.zeros((7, 10)), config)

    def test_non_finite_samples_rejected(self):
        Y = np.random.default_rng(0).standard_normal((20, 60))
        Y[4, 3], Y[0, 7] = np.nan, -np.inf
        with pytest.raises(ValueError, match=r"samples \[3, 7\] hold non-finite values"):
            learn_dictionary(Y, small_config())


class TestLearnerCoding:
    def test_matches_exhaustive_code_per_sample(self):
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=40)
        st = A.structure
        rng = np.random.default_rng(used)
        B = BlockDict(st, A.data + 0.05 * rng.standard_normal(A.data.shape))
        Y = A.data @ sequential_gen_codes(st, 200, seed=used + 1)
        Y = Y + 1e-2 * rng.standard_normal(Y.shape)
        X, res = _code_all(B, Y)
        for c in range(Y.shape[1]):
            oracle = exhaustive_code(B, Y[:, c], s=st.s, tol=1e-10)
            assert BlockSparseVec.from_values(st, X[:, c], tol=0.0).support == (
                oracle.code.support
            )
            assert np.max(np.abs(X[:, c] - oracle.code.values)) <= 1e-12
            assert abs(res[c] - np.linalg.norm(Y[:, c] - B.data @ X[:, c])) <= 1e-12

    def test_block_omp_above_enumeration_cap(self):
        st = BlockStructure(K=24, alpha=1, s=12)
        assert math.comb(st.K, st.s) > DEFAULT_ENUMERATION_CAP
        A = gen_dictionary(30, st, seed=8)
        Y = np.random.default_rng(9).standard_normal((30, 4))
        X, res = _code_all(A, Y)
        for c in range(Y.shape[1]):
            values = block_omp(A, Y[:, c], s=st.s, tol=1e-10).code.values
            assert np.array_equal(X[:, c], values)
            assert res[c] == np.linalg.norm(Y[:, c] - A.data @ values)

    def test_above_cap_rank_deficient_sample_stays_uncoded(self, monkeypatch):
        # blocks [e1, e2] and [e1, e3]: block-OMP on e1 + e2 + e3 selects both, a
        # rank-3 sub-dictionary of 4 columns, so that sample keeps code 0, residual ||y||
        monkeypatch.setattr(harness, "DEFAULT_ENUMERATION_CAP", 0)
        E = np.eye(4)
        B = BlockDict(BlockStructure(K=2, alpha=2, s=2), E[:, [0, 1, 0, 2]])
        Y = np.column_stack([E[:, 0] + E[:, 1] + E[:, 2], 2 * E[:, 1]])
        X, res = _code_all(B, Y)
        assert X[:, 0].tolist() == [0, 0, 0, 0] and res[0] == np.linalg.norm(Y[:, 0])
        assert X[:, 1].tolist() == [0, 2, 0, 0] and res[1] == 0


def reference_discovery(Y, structure, log, noise_level=0.0):
    """Cluster discovery by the greedy rule, one candidate at a time.

    Each growth step factors the chosen samples afresh and ranks the
    candidates by their own distance to the span; the last pick takes, per
    candidate, its own QR of the grown span and counts the samples within the
    loose cut. No product is shared across candidates. Under noise every
    hypothesis runs all three refits. Each accepted cluster is intersected
    with every earlier one, one pair at a time, and seeding stops once K
    blocks are held. `log` counts the restarts whose first partner lies in
    the seed's line and is skipped.
    """
    P, N = Y.shape
    dim = structure.s * structure.alpha
    norms = np.linalg.norm(Y, axis=0)
    keep = norms > 0
    if structure.s >= structure.K or keep.sum() < dim + 2:
        return []
    Yn = Y[:, keep] / norms[keep]
    Yk = Y[:, keep]
    nk = Yk.shape[1]
    norms_k = norms[keep]
    noisy = noise_level > 0
    slack = 3 * noise_level * math.sqrt(P - dim) / norms_k
    tight, loose = 1e-7 + slack, 1e-7 + 2 * slack
    screen = (1e-6 + 2 * slack) ** 2
    inter_tol = 1e-7 + float(np.median(slack)) ** 2 / 2

    def residual(Q):
        return np.linalg.norm(Yk - Q @ (Q.T @ Yk), axis=0) / norms_k

    def members(chosen):
        return residual(np.linalg.qr(Yn[:, chosen])[0]) < loose

    def grow(seed_idx, first, cand):
        chosen = [seed_idx]
        while len(chosen) < dim:
            Q, _ = np.linalg.qr(Yn[:, chosen])
            dist = {int(c): float(np.sum((Yn[:, c] - Q @ (Q.T @ Yn[:, c])) ** 2)) for c in cand}
            pool = [c for c in dist if dist[c] > screen[c]]
            if not pool:
                return None
            if len(chosen) == 1 and dim > 2:
                if first in pool:
                    chosen.append(first)
                    continue
                log["skips"] += 1
            if len(chosen) < dim - 1:
                chosen.append(min(pool, key=dist.get))
            else:
                chosen.append(max(pool, key=lambda c: members(chosen + [c]).sum()))
        return chosen

    def accept(chosen):
        """(basis, members) of the grown hypothesis, or None."""
        Q = np.linalg.qr(Yn[:, chosen])[0]
        r = residual(Q)
        found = r < loose
        for _ in range(3 if noisy else 0):
            Q = np.linalg.svd(Yk[:, found], full_matrices=False)[0][:, :dim]
            r = residual(Q)
            found = r < tight
        if found.sum() < (2 if noisy else 1) * dim + 2 or not np.array_equal(found, r < loose):
            return None
        return orthonormal_basis(Q if noisy else Yk[:, found]), found

    unassigned = np.ones(nk, dtype=bool)
    clusters, blocks = [], []
    max_clusters = min(3 * math.comb(structure.K, structure.s), 60)
    while (unassigned.sum() >= dim + 2 and len(clusters) < max_clusters
           and len(blocks) < structure.K):
        cand = np.nonzero(unassigned)[0]
        seed_idx = cand[int(np.argmax(norms_k[cand]))]
        partners = cand[np.argsort(-np.abs(Yn[:, cand].T @ Yn[:, seed_idx]))]
        partners = [int(c) for c in partners if c != seed_idx]
        hit = None
        for first in partners[: 3 if dim > 2 else 1]:
            chosen = grow(int(seed_idx), first, cand)
            if chosen is None:
                continue
            hit = accept(chosen)
            if hit is not None or noisy:  # under noise the first hypothesis decides
                break
        if hit is None:
            unassigned[seed_idx] = False
            continue
        for earlier in clusters:
            inter = subspace_intersection(earlier, hit[0], tol=inter_tol)
            if inter.dim == structure.alpha and not any(
                spans_equal(inter, blk, tol=max(1e-6, inter_tol)) for blk in blocks
            ):
                blocks.append(inter)
                if len(blocks) == structure.K:
                    break
        clusters.append(hit[0])
        unassigned &= ~hit[1]
    return blocks


def criterion7_samples(seed, n_samples=300, noise=0.0):
    st = BlockStructure(K=6, alpha=2, s=2)
    A = gen_dictionary(16, st, seed=seed)
    Y = A.data @ sequential_gen_codes(st, n_samples, seed=seed + 1)
    return st, Y + noise * np.random.default_rng(seed + 2).standard_normal(Y.shape)


def planted_boundary_samples():
    """Three 2-D support spans over three lines in R^6, the middle one thin.

    Span {1, 3} holds its seed, one exact partner and samples at relative
    residuals 0.5e-7 and 0.99e-7, so it is a cluster only when both count as
    members, and a screen cut below 0.98 * DISCOVERY_MEMBER_TOL**2 loses it;
    samples at 1.1, 2, 9 and 11 (x 1e-7) straddle the membership cut and
    the screen's bound without being members.
    """
    rng = np.random.default_rng(5)
    E = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    cols = []
    for pair in ((0, 1), (1, 2)):
        cols += [E[:, pair] @ (rng.uniform(0.5, 1.0, 2) * rng.choice([-1, 1], 2)) for _ in range(8)]
    span = E[:, [0, 2]]
    cols += [span @ np.array([1.5, 1.2]), span @ np.array([1.1, 0.4])]
    for r in (0.5, 0.99, 1.1, 2, 9, 11):
        u = rng.standard_normal(6)
        u -= span @ (span.T @ u)
        a = span @ rng.uniform(0.5, 1.0, 2)
        cols.append(a + r * 1e-7 * np.linalg.norm(a) * u / np.linalg.norm(u))
    return BlockStructure(K=3, alpha=1, s=2), np.column_stack(cols)


def duplicated_samples():
    # each of the 40 largest samples twice: a seed's best partner is its own
    # copy, which adds no dimension and is skipped
    st, Y = criterion7_samples(11)
    top = np.argsort(-np.linalg.norm(Y, axis=0))[:40]
    return st, np.hstack([Y, Y[:, top]])


def shape_samples(K, alpha, s, P, n_samples, seed):
    st = BlockStructure(K=K, alpha=alpha, s=s)
    return st, gen_dictionary(P, st, seed=seed).data @ sequential_gen_codes(st, n_samples, seed + 1)


def experiment_samples(monkeypatch, seed, noise_level):
    """(samples, noise level) that discovery sees in run_experiment(criterion7_config(seed,
    noise_level)): the learner passes both at its own power-of-two scale."""
    seen = {}

    def capture(Y, structure, noise_level):
        seen.update(Y=Y, noise_level=noise_level)
        raise RuntimeError("samples captured")

    with monkeypatch.context() as m:
        m.setattr(harness, "_discover_block_spans", capture)
        run_experiment(criterion7_config(seed, noise_level))
    return seen["Y"], seen["noise_level"]


class TestDiscoverBlockSpans:
    def assert_matches_reference(self, st, Y, noise_level=0.0):
        log = {"skips": 0}
        expected = reference_discovery(Y, st, log, noise_level)
        got = _discover_block_spans(Y, st, noise_level)
        assert [b.tobytes() for b in got] == [b.basis.tobytes() for b in expected]
        return expected, log

    @pytest.mark.parametrize("seed", [0, 7, 232])
    def test_noiseless_criterion7(self, seed):
        expected, _ = self.assert_matches_reference(*criterion7_samples(seed))
        assert len(expected) == 6

    def test_noisy(self):
        self.assert_matches_reference(*criterion7_samples(3, n_samples=40, noise=1e-3))

    @pytest.mark.parametrize("seed,noise_level,source", [
        (3, 1e-3, "samples"), (3, 5e-3, "samples"),
        (14, 5e-3, "experiment"), (13, 7e-3, "experiment"), (20, 7e-3, "experiment"),
    ])
    def test_noisy_matches_full_refit_reference(self, monkeypatch, seed, noise_level, source):
        # deflated growth and refits stopped at their fixed point decide as QR growth with
        # all three refits does, on the seeds TestNoisyDiscovery pins among others
        st = BlockStructure(K=6, alpha=2, s=2)
        if source == "samples":
            Y = criterion7_samples(seed, noise=noise_level)[1]
        else:
            Y, noise_level = experiment_samples(monkeypatch, seed, noise_level)
        expected, _ = self.assert_matches_reference(st, Y, noise_level)
        assert len(expected) >= 3

    def test_planted_residuals_straddle_the_cuts(self):
        expected, _ = self.assert_matches_reference(*planted_boundary_samples())
        assert len(expected) == 3

    def test_first_partner_duplicating_the_seed_is_skipped(self):
        expected, log = self.assert_matches_reference(*duplicated_samples())
        assert log["skips"] > 0
        assert len(expected) == 6

    @pytest.mark.parametrize("K,alpha,s,P,n_samples", [(6, 1, 3, 10, 200), (5, 2, 3, 16, 150)])
    def test_restarts_at_three_and_six_dimensions(self, K, alpha, s, P, n_samples):
        expected, _ = self.assert_matches_reference(*shape_samples(K, alpha, s, P, n_samples, 4))
        assert len(expected) == K

    def test_last_pick_memory_stays_bounded(self):
        # 2,000 samples: one product over every candidate would take 32 MB
        st, Y = criterion7_samples(5, n_samples=2000)
        tracemalloc.start()
        try:
            blocks = _discover_block_spans(Y, st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blocks) == 6
        assert peak <= 4 * 2**20

    def test_hypotheses_cost_polynomial_work_at_large_s(self, monkeypatch):
        # C(24, 12) supports over 200 noisy samples: no cluster, and each seed costs one
        # span grown by deflation (no QR) and at most three refits
        st, Y = shape_samples(24, 1, 12, 30, 200, 0)
        Y = Y + 1e-3 * np.random.default_rng(2).standard_normal(Y.shape)
        calls = []
        for name in ("qr", "svd"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, f=real, n=name, **k: calls.append(n) or f(*a, **k))
        assert _discover_block_spans(Y, st, noise_level=1e-3) == []
        assert calls.count("qr") == 0
        assert 0 < calls.count("svd") <= 3 * Y.shape[1]

    @pytest.mark.parametrize("seed", [0, 7, 232])
    def test_seeding_stops_at_the_cluster_that_completes_the_blocks(self, monkeypatch, seed):
        # one `_bases` call per accepted cluster; the clusters before the last one hold fewer
        # than K blocks between them, and all of them hold K
        st, Y = criterion7_samples(seed)
        clusters, bases = [], discovery._bases

        def record(M, tol):
            U, rank, *rest = bases(M, tol)
            clusters.append(U[:, : int(rank)])
            return (U, rank, *rest)

        monkeypatch.setattr(discovery, "_bases", record)
        assert len(_discover_block_spans(Y, st)) == st.K

        def blocks_held(spans):
            held = []
            for a, b in combinations(spans, 2):
                inter = subspace_intersection(a, b, tol=1e-7)
                if inter.dim == st.alpha and not any(spans_equal(inter, h, 1e-6) for h in held):
                    held.append(inter)
            return len(held)

        assert blocks_held(clusters[:-1]) < st.K == blocks_held(clusters)
        assert len(clusters) < min(3 * math.comb(st.K, st.s), 60)

    def test_refits_stop_when_the_members_repeat(self, monkeypatch):
        # one noisy span {1, 2} over lines in R^6: every sample lies within the tight cut, so
        # refit 1 keeps the members it was fitted on and no second refit runs; the one
        # cluster's basis then comes from one SVD of its refit span
        noise = 1e-4
        rng = np.random.default_rng(9)
        E = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        Y = E @ (rng.uniform(0.5, 1.0, (2, 12)) * rng.choice([-1, 1], (2, 12)))
        Y = Y + noise * rng.standard_normal(Y.shape)
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda M, *a, **k: shapes.append(M.shape) or svd(M, *a, **k))
        assert _discover_block_spans(Y, BlockStructure(K=3, alpha=1, s=2), noise) == []
        assert shapes == [(6, 12), (6, 2)]

    def test_no_clustering_when_every_block_is_active(self, monkeypatch):
        # s = K: every sample shares the one support, so no two spans meet in a block
        st, Y = criterion7_samples(4)
        qr, calls = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        assert _discover_block_spans(Y, replace(st, s=st.K)) == []
        assert calls == []


def worst_block_sin(truth, learned):
    """Largest sin(largest principal angle) over true blocks, matched greedily.

    Each true block is paired with a distinct learned block, smallest sin
    first, and the sin of a pair is ||(I - Q Q^T) Q'|| for orthonormal bases
    Q and Q' of the two block spans.
    """
    K = truth.structure.K
    Qt, Ql = ([np.linalg.qr(D.block(i))[0] for i in range(1, K + 1)] for D in (truth, learned))
    sins = np.array([[np.linalg.norm(b - a @ (a.T @ b), 2) for b in Ql] for a in Qt])
    worst = 0.0
    for _ in range(K):
        i, j = np.unravel_index(np.argmin(sins), sins.shape)
        worst = max(worst, sins[i, j])
        sins[i, :] = sins[:, j] = np.inf
    return worst


def criterion7_config(seed, noise_level):
    return ExperimentConfig(
        structure=BlockStructure(K=6, alpha=2, s=2), ambient_dim=16, n_samples=300,
        seed=seed, noise_level=noise_level, learner_iterations=30,
    )


class TestNoisyDiscovery:
    def test_worst_block_sin_helper(self):
        A = gen_dictionary(16, BlockStructure(K=3, alpha=2, s=1), seed=4)
        c, sn = math.cos(1e-3), math.sin(1e-3)
        # rotate block 1 by 1e-3 rad towards a direction outside every block
        u = np.linalg.qr(np.hstack([A.data, np.eye(16)[:, :1]]))[0][:, -1]
        tilted = A.data.copy()
        tilted[:, 0] = c * A.data[:, 0] + sn * u
        swapped = BlockDict(A.structure, np.hstack([tilted[:, 4:], tilted[:, 2:4], tilted[:, :2]]))
        assert worst_block_sin(A, A) <= 1e-15
        assert abs(worst_block_sin(A, swapped) - sn) <= 1e-12

    @pytest.mark.parametrize("noise_level,seeds,floor", [(1e-3, range(1, 21), 20),
                                                         (3e-3, range(1, 21), 20),
                                                         (1e-4, range(1, 11), 10)])
    def test_learner_reaches_the_noise_floor(self, monkeypatch, noise_level, seeds, floor):
        # and stops there: every run stalls within 5 objectives, not the 30 configured
        seen = {}
        recover = harness.recover_equivalence

        def capture(truth, learned, **kwargs):
            seen.update(truth=truth, learned=learned)
            return recover(truth, learned, **kwargs)

        monkeypatch.setattr(harness, "recover_equivalence", capture)
        sins, lengths = [], []
        for seed in seeds:
            report = run_experiment(criterion7_config(seed, noise_level))
            assert report.stage_errors == [] and report.trace["stalled"]
            sins.append(worst_block_sin(seen["truth"], seen["learned"]))
            lengths.append(len(report.trace["objectives"]))
        reached = sum(v <= 10 * noise_level for v in sins)
        assert reached >= floor, f"{reached}/{len(sins)} within 10 sigma: {sins}"
        assert max(lengths) <= 5, lengths

    def test_blocks_within_the_member_angle(self):
        st, Y = criterion7_samples(3, noise=1e-3)
        truth = gen_dictionary(16, st, seed=3)
        blocks = _discover_block_spans(Y, st, noise_level=1e-3)
        assert len(blocks) == 6
        learned = BlockDict(st, np.hstack(blocks))
        assert worst_block_sin(truth, learned) <= 1e-2

    def test_no_blocks_when_noise_hides_the_clusters(self, monkeypatch):
        # each seed costs one hypothesis and its three refits
        st, Y = criterion7_samples(3, noise=1e-1)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        assert _discover_block_spans(Y, st, noise_level=1e-1) == []
        assert len(calls) <= 4 * Y.shape[1]

    @pytest.mark.parametrize("noise_level,seed", [(5e-3, 14), (7e-3, 13), (7e-3, 20)])
    def test_every_block_lies_near_a_true_block(self, monkeypatch, noise_level, seed):
        # past 3e-3 no discovered block may be spurious: each lies within 10 sigma of a true one
        seen = {}
        discover, recover = harness._discover_block_spans, harness.recover_equivalence

        def capture(truth, learned, **kwargs):
            seen.update(truth=truth)
            return recover(truth, learned, **kwargs)

        monkeypatch.setattr(harness, "_discover_block_spans",
                            lambda *a: seen.setdefault("blocks", discover(*a)))
        monkeypatch.setattr(harness, "recover_equivalence", capture)
        run_experiment(criterion7_config(seed, noise_level))
        truth = [np.linalg.qr(seen["truth"].block(i))[0] for i in range(1, 7)]
        sins = [min(np.linalg.norm(b - Q @ (Q.T @ b), 2) for Q in truth) for b in seen["blocks"]]
        assert sins and max(sins) <= 10 * noise_level, sins

    def test_cluster_with_samples_between_the_cuts_is_rejected(self):
        # spans {1, 2} and {2, 3} over three lines in R^6 meet in line 2; two
        # samples 1.5 member cuts off span {1, 2} lie inside the loose cut, so
        # that cluster is not set apart and no intersection is left
        st = BlockStructure(K=3, alpha=1, s=2)
        noise = 1e-3
        cut = 3 * noise * math.sqrt(6 - 2)
        rng = np.random.default_rng(8)
        E = np.linalg.qr(rng.standard_normal((6, 3)))[0]

        def members(lines):
            return [E[:, lines] @ (rng.uniform(0.5, 1.0, 2) * rng.choice([-1, 1], 2))
                    for _ in range(12)]

        Y = np.column_stack(members([0, 1]) + members([1, 2]))
        assert len(_discover_block_spans(Y, st, noise_level=noise)) == 1
        off = []
        for _ in range(2):
            u = rng.standard_normal(6)
            u -= E[:, :2] @ (E[:, :2].T @ u)
            off.append(E[:, :2] @ rng.uniform(0.5, 1.0, 2) + 1.5 * cut * u / np.linalg.norm(u))
        assert _discover_block_spans(np.column_stack([Y, *off]), st, noise_level=noise) == []


class TestDeadBlockReseed:
    @pytest.mark.parametrize("missing,seeds,floor", [([6], range(1, 11), 9),
                                                     ([5, 6], range(1, 21), 10)],
                             ids=["one", "two"])
    def test_missing_block_is_refilled_in_iteration_zero(self, monkeypatch, missing, seeds,
                                                         floor):
        # discovery supplies the other true blocks only: the missing ones start
        # at zero, so the first coding leaves them dead and the reseeds fill them
        noise, reached = 1e-3, []
        for seed in seeds:
            st, Y = criterion7_samples(seed, noise=noise)
            truth = gen_dictionary(16, st, seed=seed)
            known = [orthonormal_basis(truth.block(i)).basis for i in range(1, 7 - len(missing))]
            monkeypatch.setattr(harness, "_discover_block_spans", lambda *a, b=known, **k: b)
            learned, trace = learn_dictionary(Y, criterion7_config(seed, noise))
            assert [e["block"] for e in trace.reseed_events if e["iteration"] == 0] == missing
            reached.append(worst_block_sin(truth, learned) <= 10 * noise)
        assert sum(reached) >= floor, reached

    def test_cold_start_refills_each_block_elsewhere(self, monkeypatch):
        # nothing discovered: every block is dead, and each refill is projected
        # out of the residuals, so the next starts from another sample and
        # the refilled blocks are mutually orthogonal
        st, Y = criterion7_samples(2)
        monkeypatch.setattr(harness, "_discover_block_spans", lambda *a, **k: [])
        config = ExperimentConfig(st, ambient_dim=16, n_samples=300, seed=2,
                                  learner_iterations=1)
        learned, trace = learn_dictionary(Y, config)
        events = trace.reseed_events
        assert [(e["iteration"], e["block"], e["reason"]) for e in events] == [
            (0, i, "dead") for i in range(1, 7)
        ]
        assert len({e["sample"] for e in events}) == 6
        assert np.allclose(learned.data.T @ learned.data, np.eye(12), atol=1e-8)


class TestOneColumnSupports:
    """s * alpha = 1: each discovery hypothesis is its seed's own line."""

    def test_experiment_certifies(self):
        config = ExperimentConfig(BlockStructure(K=4, alpha=1, s=1), ambient_dim=8, n_samples=40,
                                  seed=0)
        report = run_experiment(config)
        assert report.stage_errors == []
        assert report.certificate["status"] == "equivalent"

    def test_zero_residuals_refill_from_the_reseed_stream(self):
        # three copies of e_1 form one cluster and no block; the first refill takes e_1
        # and leaves every residual zero, so the other three are drawn from the stream
        e1 = np.eye(4)[:, 0]
        config = ExperimentConfig(BlockStructure(K=4, alpha=1, s=1), ambient_dim=4, n_samples=3,
                                  seed=5, learner_iterations=1)
        with pytest.warns(UserWarning, match="under-determined"):
            learned, trace = learn_dictionary(np.column_stack([e1] * 3), config)
        assert [(e["block"], e["sample"]) for e in trace.reseed_events] == [
            (1, 0), (2, 0), (3, 0), (4, 0)]
        rng = harness._substream(5, harness._STREAM_RESEED)
        drawn = [np.linalg.qr(rng.standard_normal((4, 1)))[0] for _ in range(3)]
        assert np.array_equal(np.abs(learned.block(1)[:, 0]), e1)
        assert np.array_equal(learned.data[:, 1:], np.hstack(drawn))


class TestExperimentConfig:
    def test_rejects_infeasible_ambient(self):
        # (K, alpha, s, P): below s*alpha, then between s*alpha and the
        # level-min(2s, K) floor, where every level sub-dictionary is singular
        for K, alpha, s, P in [(4, 3, 2, 5), (6, 2, 2, 6), (3, 2, 2, 4)]:
            bound = min(2 * s, K) * alpha
            with pytest.raises(ValueError, match=rf"min\(2s, K\)\*alpha = {bound}"):
                ExperimentConfig(
                    structure=BlockStructure(K=K, alpha=alpha, s=s),
                    ambient_dim=P,
                    n_samples=10,
                    seed=0,
                )

    def test_json_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        again = ExperimentConfig.from_json_file(path)
        assert again == config


class TestRunExperiment:
    def test_report_sections_present(self):
        report = run_experiment(small_config())
        d = report.to_dict()
        assert set(d) == {
            "config",
            "rip",
            "generation_retries",
            "underdetermined",
            "trace",
            "certificate",
            "coding_residuals",
            "stage_errors",
            "wall_clock_sec",
        }
        assert d["stage_errors"] == []
        assert d["rip"]["delta"] < 1.0
        assert len(d["coding_residuals"]) == 60
        assert d["certificate"]["status"] in {"equivalent", "not-equivalent", "ambiguous"}

    def test_deterministic_modulo_wall_clock(self):
        r1 = json.loads(json.dumps(run_experiment(small_config()).to_dict()))
        r2 = json.loads(json.dumps(run_experiment(small_config()).to_dict()))
        r1.pop("wall_clock_sec")
        r2.pop("wall_clock_sec")
        assert r1 == r2

    def test_noise_raises_residuals(self):
        clean = run_experiment(small_config())
        noisy = run_experiment(small_config(noise_level=0.1))
        assert sum(noisy.coding_residuals) > sum(clean.coding_residuals)

    def test_noisy_run_at_criterion7_shape(self):
        # the noisy benchmark shape: discovery finds the support clusters
        # with noise-scaled tolerances, and the run must be reproducible
        config = criterion7_config(1, 1e-3)
        r1, r2 = (json.loads(json.dumps(run_experiment(config).to_dict())) for _ in range(2))
        r1.pop("wall_clock_sec")
        r2.pop("wall_clock_sec")
        assert r1["stage_errors"] == []
        assert r1["certificate"] is not None
        assert r1 == r2

    def test_noisy_run_above_the_separable_range(self):
        # noise 1e-2 is past the range where discovery sets noisy clusters
        # apart; the run must still complete
        report = run_experiment(criterion7_config(1, 1e-2))
        assert report.stage_errors == []
        assert report.certificate is not None

    def test_wide_shape_certifies(self):
        # s * alpha = 6: each cluster is grown from its seed in polynomial time
        config = ExperimentConfig(BlockStructure(K=8, alpha=2, s=3), ambient_dim=32,
                                  n_samples=1200, seed=0)
        report = run_experiment(config)
        assert report.stage_errors == []
        assert report.certificate["status"] == "equivalent"

    def test_final_coding_past_the_squared_float_range(self):
        # samples near 1e161, whose squares overflow: the capped learner codes the dictionary it
        # returns at its power-of-two scale, so every residual is finite (run_experiment ignores
        # warnings while learning; TestLearnDictionary's capped case checks that none is raised)
        config = replace(criterion7_config(1, 1e160), learner_iterations=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_experiment(config)
        assert report.stage_errors == [] and not report.trace["stalled"]
        assert np.isfinite(report.coding_residuals).all()

    def test_synthesis_overflow_is_its_own_stage(self):
        # noise 1e308 overflows Y + noise * z: under the default filter the report names the
        # synthesis stage, as under -W error, and no RuntimeWarning escapes
        config = ExperimentConfig(BlockStructure(K=6, alpha=2, s=2), ambient_dim=16,
                                  n_samples=50, seed=1, noise_level=1e308)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            report = run_experiment(config)
        assert caught == []
        error = "FloatingPointError: overflow encountered in multiply"
        assert report.stage_errors == [{"stage": "synthesize", "error": error}]

    def test_underdetermined_flagged(self):
        report = run_experiment(small_config(n_samples=2))
        assert report.underdetermined

    @pytest.mark.parametrize("iterations, stalled", [(30, True), (2, False)])
    def test_report_residuals_are_the_learners_last_coding(self, monkeypatch, iterations,
                                                           stalled):
        # the learner's last coding is of the dictionary it returns: a stalled learner codes it
        # before it records its last objective, a capped one once more after its last objective;
        # run_experiment codes nothing itself, and the residuals are those of a fresh coding
        calls, learned = [], {}
        code_all, learn = harness._code_all, harness.learn_dictionary
        monkeypatch.setattr(harness, "_code_all", lambda B, Y: calls.append(1) or code_all(B, Y))

        def keep(Y, config):
            learned["B"], learned["trace"] = learn(Y, config)
            learned["Y"] = Y
            return learned["B"], learned["trace"]

        monkeypatch.setattr(harness, "learn_dictionary", keep)
        report = run_experiment(replace(criterion7_config(1, 1e-3), learner_iterations=iterations))
        assert report.stage_errors == [] and report.trace["stalled"] == stalled
        assert len(calls) == len(report.trace["objectives"]) + (not stalled)
        assert "residuals" not in report.trace
        e = int(np.frexp(np.abs(learned["Y"]).max())[1])
        fresh = np.ldexp(code_all(learned["B"], np.ldexp(learned["Y"], -e))[1], e)
        assert np.array(report.coding_residuals).tobytes() == fresh.tobytes()


def test_trace_csv():
    out = trace_to_csv({"objectives": [2.0, 1.0, 0.5]})
    lines = out.strip().splitlines()
    assert lines[0] == "iteration,objective"
    assert lines[1].startswith("0,")
    assert len(lines) == 4
