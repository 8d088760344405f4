import json
import math
from itertools import combinations
from types import SimpleNamespace

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
    rip_constant,
    rip_lower_bound_sampled,
    run_experiment,
    trace_to_csv,
)
from blockdict import harness
from blockdict.harness import _code_all, _discover_block_spans
from blockdict.subspace import orthonormal_basis, spans_equal, subspace_intersection

from conftest import make_rip_instance, rip_brute_force


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


def start_learner_at(monkeypatch, B):
    """Make `learn_dictionary` start from B's blocks as they are, in place of discovery."""
    blocks = [SimpleNamespace(basis=B.block(i)) for i in range(1, B.structure.K + 1)]
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
        # the independent oracle decides each draw (P=12 seeds 10, 11 take no retry)
        st = BlockStructure(K=K, alpha=2, s=2)
        for seed in seeds:
            A, report, retries = gen_rip_dictionary(P, st, seed)
            deltas = [rip_brute_force(gen_dictionary(P, st, seed=seed + o), 4)[0]
                      for o in range(retries + 1)]
            assert all(d >= 1.0 for d in deltas[:-1]) and deltas[-1] < 1.0
            assert np.array_equal(A.data, gen_dictionary(P, st, seed=seed + retries).data)
            assert report.mode == "exact-enumeration" and report.level == 4
            assert abs(report.delta - deltas[-1]) <= 1e-12

    def test_gives_up_after_the_retry_cap(self, monkeypatch):
        # every draw repeats block 1 as block 2, so support (1, 2, 3) is
        # rank-deficient and no draw has delta_3 < 1
        st = BlockStructure(K=3, alpha=2, s=2)
        draws = []
        real = harness.gen_dictionary

        def repeated(*args, **kwargs):
            draws.append(kwargs["seed"])
            A = real(*args, **kwargs)
            return A.with_block(2, A.block(1))

        monkeypatch.setattr(harness, "gen_dictionary", repeated)
        with pytest.raises(ValueError, match="found in 1001 draws"):
            gen_rip_dictionary(6, st, 5)
        assert draws == list(range(5, 5 + harness.MAX_GENERATION_RETRIES + 1))
        config = ExperimentConfig(st, ambient_dim=6, n_samples=10, seed=0)
        report = run_experiment(config)
        assert [e["stage"] for e in report.stage_errors] == ["gen_dictionary"]
        assert "found in 1001 draws" in report.stage_errors[0]["error"]
        assert report.rip is None and report.certificate is None

    @pytest.mark.parametrize("P", [16, 24, 40])
    def test_matches_the_one_draw_at_a_time_loop(self, P):
        # seed 41 at P=16 and every seed at P=40 qualify at draw 0; seed 0 at P=16 takes 41
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
        draws, checked = [], []
        real_gen, real_rip = harness.gen_dictionary, harness.rip_constant

        def gen(*args, **kwargs):
            draws.append(kwargs["seed"])
            return real_gen(*args, **kwargs)

        def rip_constant(A, level, seed):
            checked.append(seed)
            return real_rip(A, level, seed)

        monkeypatch.setattr(harness, "gen_dictionary", gen)
        monkeypatch.setattr(harness, "rip_constant", rip_constant)
        _, _, retry = gen_rip_dictionary(16, st, 0)
        assert retry == 41 and draws == list(range(len(draws)))
        assert len(draws) <= retry + 16 and checked[0] == 0 and checked[-1] == retry
        assert len(checked) < 10

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


def one_draw_at_a_time(P, st, seed):
    """The generation loop without batches or floors: every draw through `rip_constant`."""
    for retry in range(harness.MAX_GENERATION_RETRIES + 1):
        A = gen_dictionary(P, st, seed=seed + retry)
        report = rip_constant(A, min(2 * st.s, st.K), seed + retry)
        if report.delta < 1.0:
            return A, report, retry
    raise AssertionError("no draw qualifies")


def code_vectors(structure, X):
    return [BlockSparseVec.from_values(structure, x) for x in X.T]


def old_gen_codes_matrix(structure, n_samples, seed, coefficient_scale=1.0):
    """The former list-of-vectors generator, stacked column by column."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        support = tuple(
            sorted(int(i) + 1 for i in rng.choice(structure.K, size=structure.s, replace=False))
        )
        values = np.zeros(structure.total_dim)
        for i in support:
            magnitude = rng.uniform(0.1, 1.0, size=structure.alpha)
            sign = rng.integers(0, 2, size=structure.alpha) * 2 - 1
            values[structure.block_slice(i)] = coefficient_scale * sign * magnitude
        out.append(BlockSparseVec(structure, values))
        assert out[-1].support == support
    return np.column_stack([c.values for c in out])


class TestGenCodes:
    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
    @pytest.mark.parametrize(
        "K, alpha, s, scale", [(6, 2, 2, 1.0), (5, 3, 2, 2.5), (4, 1, 4, 0.3)]
    )
    def test_matches_former_generator_bytewise(self, seed, K, alpha, s, scale):
        st = BlockStructure(K=K, alpha=alpha, s=s)
        X = gen_codes(st, 37, seed=seed, coefficient_scale=scale)
        old = old_gen_codes_matrix(st, 37, seed, coefficient_scale=scale)
        assert X.shape == (K * alpha, 37) and X.flags.c_contiguous
        assert X.tobytes() == old.tobytes()

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
        Y = A.data @ gen_codes(config.structure, 60, seed=used + 1)
        start_learner_at(monkeypatch, A)
        learned, trace = learn_dictionary(Y, config)
        assert trace.objectives[0] <= 1e-20
        assert trace.stalled
        assert np.array_equal(learned.data, A.data)

    def test_fixed_point_at_truth_where_block_omp_miscodes(self, monkeypatch):
        # criterion-7 geometry: greedy coding at the truth is wrong here,
        # the minimum-residual code is not
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=100)
        X = gen_codes(A.structure, 300, seed=used + 1)
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
        X[:6, :60] = gen_codes(BlockStructure(K=3, alpha=2, s=2), 60, seed=used + 1)
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
        Y = A.data @ gen_codes(config.structure, 60, seed=used + 1)
        _, trace = learn_dictionary(Y, config)
        reseed_iters = {e["iteration"] for e in trace.reseed_events}
        objs = trace.objectives
        for k in range(1, len(objs)):
            if k - 1 in reseed_iters or k in reseed_iters:
                continue
            assert objs[k] <= objs[k - 1] * (1 + 1e-9) + 1e-12

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
        Y = A.data @ gen_codes(st, 200, seed=used + 1)
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


def reference_discovery(Y, structure, log):
    """Cluster discovery testing every partner tuple exactly, one at a time.

    The per-trial loop the stacked screen must reproduce; `log` collects the
    index of each accepted trial and the number of rank-deficient skips.
    """
    P, N = Y.shape
    dim = structure.s * structure.alpha
    if N < dim + 2 or structure.s >= structure.K:
        return []
    norms = np.linalg.norm(Y, axis=0)
    keep = norms > 0
    if keep.sum() < dim + 2:
        return []
    Yn = Y[:, keep] / norms[keep]
    Yk = Y[:, keep]
    nk = Yk.shape[1]
    norms_k = norms[keep]

    unassigned = np.ones(nk, dtype=bool)
    clusters = []
    max_clusters = min(3 * math.comb(structure.K, structure.s), 60)
    while unassigned.sum() >= dim + 2 and len(clusters) < max_clusters:
        cand = np.nonzero(unassigned)[0]
        seed_idx = cand[int(np.argmax(norms_k[cand]))]
        cos = np.abs(Yn[:, cand].T @ Yn[:, seed_idx])
        partners = cand[np.argsort(-cos)]
        partners = partners[partners != seed_idx][:18]
        found = None
        for trial, triple in enumerate(combinations(range(len(partners)), dim - 1)):
            cols = Yk[:, [seed_idx, *partners[list(triple)]]]
            Q, _ = np.linalg.qr(cols)
            if np.linalg.svd(cols, compute_uv=False)[-1] <= 1e-10 * norms_k[seed_idx]:
                log["skips"] += 1
                continue
            resid = np.linalg.norm(Yk - Q @ (Q.T @ Yk), axis=0) / norms_k
            members = resid < 1e-7
            if members.sum() >= dim + 2:
                found = members
                log["hits"].append(trial)
                break
        if found is None:
            unassigned[seed_idx] = False
            continue
        clusters.append(orthonormal_basis(Yk[:, found]))
        unassigned &= ~found

    blocks = []
    for a, b in combinations(range(len(clusters)), 2):
        inter = subspace_intersection(clusters[a], clusters[b], tol=1e-7)
        if inter.dim == structure.alpha and not any(
            spans_equal(inter, blk, tol=1e-6) for blk in blocks
        ):
            blocks.append(inter)
            if len(blocks) == structure.K:
                return blocks
    return blocks


def criterion7_samples(seed, n_samples=300, noise=0.0):
    st = BlockStructure(K=6, alpha=2, s=2)
    A = gen_dictionary(16, st, seed=seed)
    Y = A.data @ gen_codes(st, n_samples, seed=seed + 1)
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
    # each of the 40 largest samples twice: tuples holding a seed and its
    # copy are rank-deficient and take the singular-value skip
    st, Y = criterion7_samples(11)
    top = np.argsort(-np.linalg.norm(Y, axis=0))[:40]
    return st, np.hstack([Y, Y[:, top]])


class TestDiscoverBlockSpans:
    def assert_matches_reference(self, st, Y):
        log = {"hits": [], "skips": 0}
        expected = reference_discovery(Y, st, log)
        got = _discover_block_spans(Y, st)
        assert [b.basis.tobytes() for b in got] == [b.basis.tobytes() for b in expected]
        return expected, log

    @pytest.mark.parametrize("seed", [0, 7, 232])
    def test_noiseless_criterion7(self, seed):
        expected, _ = self.assert_matches_reference(*criterion7_samples(seed))
        assert len(expected) == 6

    def test_noisy(self):
        self.assert_matches_reference(*criterion7_samples(3, n_samples=40, noise=1e-3))

    def test_planted_residuals_straddle_the_cuts(self):
        expected, _ = self.assert_matches_reference(*planted_boundary_samples())
        assert len(expected) == 3

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_rank_deficient_tuples_across_chunks(self, monkeypatch, chunk):
        st, Y = duplicated_samples()
        if chunk is not None:
            # trials per chunk are _CODE_CHUNK // (s * alpha * N)
            monkeypatch.setattr(harness, "_CODE_CHUNK", chunk * st.s * st.alpha * Y.shape[1])
        expected, log = self.assert_matches_reference(st, Y)
        assert log["skips"] > 0
        assert max(log["hits"]) >= 7
        assert len(expected) == 6

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("samples", [
        lambda: criterion7_samples(3, n_samples=40, noise=1e-3), planted_boundary_samples,
    ], ids=["noisy", "planted"])
    def test_capped_chunks_match_the_reference(self, monkeypatch, samples, chunk):
        # chunks double from one trial up to the cap that _CODE_CHUNK sets
        st, Y = samples()
        monkeypatch.setattr(harness, "_CODE_CHUNK", chunk * st.s * st.alpha * Y.shape[1])
        self.assert_matches_reference(st, Y)


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

    @pytest.mark.parametrize("noise_level,seeds,floor", [(1e-3, range(1, 21), 18),
                                                         (1e-4, range(1, 11), 10)])
    def test_learner_reaches_the_noise_floor(self, monkeypatch, noise_level, seeds, floor):
        seen = {}
        recover = harness.recover_equivalence

        def capture(truth, learned, **kwargs):
            seen.update(truth=truth, learned=learned)
            return recover(truth, learned, **kwargs)

        monkeypatch.setattr(harness, "recover_equivalence", capture)
        sins = []
        for seed in seeds:
            assert run_experiment(criterion7_config(seed, noise_level)).stage_errors == []
            sins.append(worst_block_sin(seen["truth"], seen["learned"]))
        reached = sum(v <= 10 * noise_level for v in sins)
        assert reached >= floor, f"{reached}/{len(sins)} within 10 sigma: {sins}"

    def test_blocks_within_the_member_angle(self):
        st, Y = criterion7_samples(3, noise=1e-3)
        truth = gen_dictionary(16, st, seed=3)
        blocks = _discover_block_spans(Y, st, noise_level=1e-3)
        assert len(blocks) == 6
        learned = BlockDict(st, np.hstack([b.basis for b in blocks]))
        assert worst_block_sin(truth, learned) <= 1e-2

    def test_no_blocks_when_noise_hides_the_clusters(self, monkeypatch):
        # each seed costs one hypothesis: a rank check and three refits
        st, Y = criterion7_samples(3, noise=1e-1)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        assert _discover_block_spans(Y, st, noise_level=1e-1) == []
        assert len(calls) <= 4 * Y.shape[1]

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
    def test_missing_block_is_refilled_in_iteration_zero(self, monkeypatch):
        # discovery supplies true blocks 1-5 only: block 6 starts at zero, so
        # the first coding leaves it dead and the reseed fills it
        noise, reached = 1e-3, []
        for seed in range(1, 11):
            st, Y = criterion7_samples(seed, noise=noise)
            truth = gen_dictionary(16, st, seed=seed)
            known = [orthonormal_basis(truth.block(i)) for i in range(1, 6)]
            monkeypatch.setattr(harness, "_discover_block_spans", lambda *a, b=known, **k: b)
            learned, trace = learn_dictionary(Y, criterion7_config(seed, noise))
            assert [e["block"] for e in trace.reseed_events if e["iteration"] == 0] == [6]
            reached.append(worst_block_sin(truth, learned) <= 10 * noise)
        assert sum(reached) >= 9, reached

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

    def test_underdetermined_flagged(self):
        report = run_experiment(small_config(n_samples=2))
        assert report.underdetermined


def test_trace_csv():
    out = trace_to_csv({"objectives": [2.0, 1.0, 0.5]})
    lines = out.strip().splitlines()
    assert lines[0] == "iteration,objective"
    assert lines[1].startswith("0,")
    assert len(lines) == 4
