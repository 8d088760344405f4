"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and the measured baselines.
"""

import json
from itertools import combinations

import numpy as np
import pytest

from blockdict import (
    BlockSparseVec,
    BlockStructure,
    ExperimentConfig,
    HypothesisViolationError,
    check_lemma1,
    lemma2_all_pairs,
    block_omp,
    construct_kappa,
    exhaustive_code,
    gen_block_diagonal,
    gen_block_permutation,
    gen_codes,
    gen_dictionary,
    make_equivalent_dict,
    recover_equivalence,
    rip_constant_exact,
    rip_lower_bound_sampled,
    run_experiment,
    verify_theorem_instance,
)

from conftest import make_rip_instance, rip_brute_force


def _report(criterion, ok, detail=""):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" — {detail}" if detail else ""))


ST62 = BlockStructure(K=6, alpha=2, s=2)


@pytest.fixture(scope="module")
def instances_p16():
    """100 seeded instances at P=16, K=6, alpha=2, s=2 with exact delta_4 < 1."""
    out = []
    seed = 0
    for _ in range(100):
        A, report, seed = make_rip_instance(16, 6, 2, 2, seed)
        out.append((A, report, seed))
        seed += 1
    return out


class TestCriterion1:
    def test_round_trip_theorem_check(self, instances_p16):
        failures = []
        for idx, (A, report, seed) in enumerate(instances_p16):
            assert report.delta < 1.0  # verified by exact enumeration
            perm = gen_block_permutation(6, seed=seed + 10_000)
            diag = gen_block_diagonal(ST62, seed=seed + 20_000)
            B = make_equivalent_dict(A, perm, diag)
            cert = recover_equivalence(A, B)
            d_err = (
                max(np.max(np.abs(g - w)) for g, w in zip(cert.diagonal.blocks, diag.blocks))
                if cert.diagonal
                else np.inf
            )
            if not (
                cert.status == "equivalent"
                and cert.permutation is not None
                and cert.permutation.pi == perm.pi
                and d_err < 1e-7
            ):
                failures.append((idx, cert.status, d_err))
        ok = not failures
        _report(1, ok, f"100 instances, failures: {failures[:5]}")
        assert ok


class TestCriterion2:
    def test_lemma_suite(self, instances_p16):
        supports = list(combinations(range(1, 7), 2))
        bad = []
        for idx, (A, _, _) in enumerate(instances_p16):
            if not check_lemma1(A, 2):
                bad.append((idx, "lemma1"))
                continue
            holds = lemma2_all_pairs(A, 2)  # every ordered pair, supports in lexicographic order
            assert holds.shape == (len(supports), len(supports))
            bad += [(idx, "lemma2", supports[a], supports[b]) for a, b in np.argwhere(~holds)]
        ok = not bad
        _report(2, ok, f"100 instances x (lemma1 + {len(supports) ** 2} lemma2 pairs), "
                       f"failures: {bad[:5]}")
        assert ok


class TestCriterion3:
    def test_rip_oracle_agreement(self):
        shapes = [(3, 1, 6, 2), (4, 2, 12, 2), (5, 2, 14, 3), (6, 2, 16, 4), (6, 3, 20, 3)]
        worst_gap = 0.0
        checked = 0
        for K, alpha, P, t in shapes:
            structure = BlockStructure(K=K, alpha=alpha, s=max(1, t // 2))
            for seed in range(4):
                A = gen_dictionary(P, structure, seed=100 * K + seed)
                exact = rip_constant_exact(A, t)
                oracle_delta, oracle_worst = rip_brute_force(A, t)
                gap = abs(exact.delta - oracle_delta)
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-12, (K, alpha, P, t, seed, gap)
                assert exact.worst_support == oracle_worst
                sampled = rip_lower_bound_sampled(A, t, n_samples=3, seed=seed)
                assert sampled.delta <= exact.delta
                checked += 1
        ok = checked == 20
        _report(3, ok, f"20 instances, worst |exact - oracle| = {worst_gap:.2e}, "
                       "sampled <= exact everywhere")
        assert ok


class TestCriterion4:
    def test_coding_uniqueness_and_omp_floor(self):
        ambient_dims = [16, 32, 64, 96, 128]
        per_dim = 200
        n_total = 0
        omp_agree_low_delta = 0
        n_low_delta = 0
        worst_coeff_err = 0.0
        for P in ambient_dims:
            seed = 0
            for _ in range(per_dim):
                A, report, seed = make_rip_instance(P, 6, 2, 2, seed)
                X = gen_codes(ST62, 1, seed=seed + 500_000)
                x = BlockSparseVec.from_values(ST62, X[:, 0])
                y = A.data @ x.values
                oracle = exhaustive_code(A, y, s=2)
                err = float(np.max(np.abs(oracle.code.values - x.values)))
                worst_coeff_err = max(worst_coeff_err, err)
                assert err < 1e-8, (P, seed, err)
                n_total += 1
                if report.delta < 0.5:
                    n_low_delta += 1
                    greedy = block_omp(A, y, s=2)
                    omp_agree_low_delta += greedy.code.support == oracle.code.support
                seed += 1
        agree_frac = omp_agree_low_delta / n_low_delta
        ok = n_total == 1000 and agree_frac >= 0.95
        _report(4, ok, f"{n_total} pairs, worst oracle coeff err {worst_coeff_err:.2e}; "
                       f"OMP support agreement {omp_agree_low_delta}/{n_low_delta} "
                       f"= {agree_frac:.3f} on delta<0.5 (floor 0.95)")
        assert n_total == 1000
        assert n_low_delta >= 100  # the low-delta bucket must be real
        assert agree_frac >= 0.95


class TestCriterion5:
    def test_kappa_consistency(self):
        st = BlockStructure(K=5, alpha=2, s=2)
        supports = list(combinations(range(1, 6), 2))
        bad = []
        seed = 0
        for trial in range(50):
            A, _, seed = make_rip_instance(16, st.K, st.alpha, st.s, seed)
            perm = gen_block_permutation(5, seed=seed + 10_000)
            diag = gen_block_diagonal(st, seed=seed + 20_000)
            B = make_equivalent_dict(A, perm, diag)
            cert = recover_equivalence(A, B)
            if cert.status != "equivalent":
                bad.append((trial, "certificate", cert.status))
                seed += 1
                continue
            for S in supports:
                res = construct_kappa(A, B, S, n_probes=8, seed=seed)
                if not res.consistent:
                    bad.append((trial, "inconsistent", S))
            for i in range(1, 6):
                res = construct_kappa(A, B, (i,), n_probes=8, seed=seed)
                if not (res.consistent and res.kappa == (cert.permutation(i),)):
                    bad.append((trial, "singleton", i))
            seed += 1
        ok = not bad
        _report(5, ok, f"50 seeds x ({len(supports)} supports + 5 singletons), "
                       f"failures: {bad[:5]}")
        assert ok


class TestCriterion6:
    def test_negative_controls(self):
        st = ST62
        bad = []
        seed = 0
        for trial in range(50):
            A, _, seed = make_rip_instance(16, st.K, st.alpha, st.s, seed)
            rng = np.random.default_rng(seed + 1_000_000)
            corrupted = int(rng.integers(1, 7))
            block = np.linalg.qr(rng.standard_normal((16, 2)))[0]
            B = A.with_block(corrupted, block)
            report = verify_theorem_instance(A, B, s=2, n_probes=3, seed=seed)
            for entry in report.hypothesis_supports:
                has_block = corrupted in entry["support"]
                failed = "error" in entry
                if has_block != failed:
                    bad.append((trial, "hypothesis", entry["support"], failed))
            B_rand = gen_dictionary(16, st, seed=seed + 2_000_000)
            cert = recover_equivalence(A, B_rand)
            if cert.status != "not-equivalent":
                bad.append((trial, "random-pair", cert.status))
            seed += 1
        ok = not bad
        _report(6, ok, f"50 corrupted-block + 50 fully-random controls, "
                       f"failures: {bad[:5]}")
        assert ok


class TestCriterion7:
    def test_end_to_end_learning_success_fraction(self):
        successes = 0
        for seed in range(50):
            config = ExperimentConfig(
                structure=ST62,
                ambient_dim=16,
                n_samples=300,
                seed=seed,
                learner_iterations=30,
            )
            report = run_experiment(config)
            if report.certificate and report.certificate["status"] == "equivalent":
                successes += 1
        fraction = successes / 50
        ok = fraction >= 0.60
        _report(7, ok, f"learned-equivalent fraction {successes}/50 = {fraction:.2f} "
                       "(floor 0.60)")
        assert fraction >= 0.60, (
            f"learned-equivalent fraction {successes}/50 = {fraction:.2f} "
            "is below the 0.60 floor"
        )


class TestCriterion8:
    def test_experiment_determinism(self, tmp_path):
        config = {
            "structure": {"K": 4, "alpha": 2, "s": 2},
            "ambient_dim": 20,
            "n_samples": 50,
            "seed": 11,
            "learner_iterations": 8,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        from blockdict.cli import main

        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        r1.pop("wall_clock_sec")
        r2.pop("wall_clock_sec")
        ok = r1 == r2
        _report(8, ok, "two `experiment` runs identical modulo wall_clock_sec")
        assert ok
