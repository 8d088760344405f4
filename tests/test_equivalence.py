import json
from itertools import combinations

import numpy as np
import pytest

from blockdict import (
    BlockDiagonal,
    BlockPermutation,
    BlockStructure,
    HypothesisViolationError,
    RankError,
    apply_transform,
    compose_transforms,
    construct_kappa,
    equivalence,
    gen_block_diagonal,
    gen_block_permutation,
    gen_dictionary,
    make_equivalent_dict,
    match_blocks,
    recover_equivalence,
    solve_block_transform,
    verify_theorem_instance,
)

from conftest import make_equivalent_pair, make_rip_instance


class TestBlockPermutation:
    def test_identity(self):
        p = BlockPermutation.identity(4)
        assert p.pi == (1, 2, 3, 4)
        assert p(3) == 3

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            BlockPermutation(3, (1, 1, 2))

    def test_inverse(self):
        p = BlockPermutation(4, (3, 1, 4, 2))
        q = p.inverse()
        for i in range(1, 5):
            assert q(p(i)) == i


class TestBlockDiagonal:
    def test_shape_checked(self):
        st = BlockStructure(K=2, alpha=2, s=1)
        with pytest.raises(ValueError):
            BlockDiagonal(st, (np.eye(2),))
        with pytest.raises(ValueError):
            BlockDiagonal(st, (np.eye(2), np.eye(3)))

    def test_invertibility(self):
        st = BlockStructure(K=2, alpha=2, s=1)
        good = BlockDiagonal(st, (np.eye(2), 2 * np.eye(2)))
        assert good.is_invertible()
        singular = BlockDiagonal(st, (np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])))
        assert not singular.is_invertible()

    def test_dense_layout(self):
        st = BlockStructure(K=2, alpha=2, s=1)
        D = BlockDiagonal(st, (np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2)))
        dense = D.dense()
        assert np.array_equal(dense[:2, :2], [[1, 2], [3, 4]])
        assert np.array_equal(dense[2:, 2:], np.eye(2))
        assert np.all(dense[:2, 2:] == 0) and np.all(dense[2:, :2] == 0)


class TestMatchBlocks:
    def test_identity_match(self):
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=0)
        report = match_blocks(A, A)
        assert report.status == "matched"
        assert report.permutation.pi == (1, 2, 3, 4, 5)

    def test_swap_detected(self):
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=1)
        data = A.data.copy()
        data[:, 0:2], data[:, 2:4] = A.block(2), A.block(1)
        B = type(A)(A.structure, data)
        report = match_blocks(A, B)
        assert report.status == "matched"
        assert report.permutation.pi == (2, 1, 3, 4, 5)

    def test_duplicated_span_is_ambiguous(self):
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=2)
        B = A.with_block(4, A.block(1) @ np.array([[1.0, 1.0], [0.0, 1.0]]))
        report = match_blocks(A, B)
        assert report.status == "ambiguous"
        assert 1 in report.ambiguous

    def test_unmatched_block(self):
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=3)
        B = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=33)
        report = match_blocks(A, B)
        assert report.status == "not-equivalent"
        assert len(report.unmatched) == 5

    def test_shape_mismatch(self):
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=0)
        B = gen_dictionary(14, BlockStructure(K=5, alpha=2, s=2), seed=0)
        with pytest.raises(ValueError):
            match_blocks(A, B)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected(self, tol):
        # no span is equal to itself at a negative or NaN tolerance
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=0)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            match_blocks(A, A, tol=tol)


class TestSolveBlockTransform:
    def test_identity(self):
        rng = np.random.default_rng(0)
        blk = rng.standard_normal((9, 3))
        M, residual = solve_block_transform(blk, blk)
        assert np.allclose(M, np.eye(3), atol=1e-12)
        assert residual < 1e-13

    def test_exact_transform_recovered(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((9, 3))
        T = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        M, residual = solve_block_transform(B @ T, B)
        assert np.allclose(M, T, atol=1e-10)
        assert residual < 1e-12

    def test_orthogonal_target_has_unit_residual(self):
        # A lives in the orthogonal complement of span(B)
        B = np.zeros((6, 2))
        B[:2, :] = np.eye(2)
        A = np.zeros((6, 2))
        A[2:4, :] = np.eye(2)
        M, residual = solve_block_transform(A, B)
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_target(self):
        B = np.zeros((6, 2))
        B[0, 0] = 1.0
        B[0, 1] = 2.0  # rank 1
        with pytest.raises(RankError):
            solve_block_transform(np.eye(6)[:, :2], B)

    def test_negative_rank_tol_rejected(self):
        # a negative rank_tol counts every singular value, so rank 1 passed as full
        B = np.zeros((6, 2))
        B[0, 0] = 1.0
        B[0, 1] = 2.0
        with pytest.raises(ValueError, match="rank_tol must be nonnegative"):
            solve_block_transform(np.eye(6)[:, :2], B, rank_tol=-1.0)


class TestRecoverEquivalence:
    def test_self_certificate(self):
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=4)
        cert = recover_equivalence(A, A)
        assert cert.status == "equivalent"
        assert cert.permutation.pi == (1, 2, 3, 4, 5)
        assert cert.residual < 1e-12
        for blk in cert.diagonal.blocks:
            assert np.allclose(blk, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_recovery(self, seed):
        A, B, perm, diag, _ = make_equivalent_pair(16, 6, 2, 2, seed=300 + 10 * seed)
        cert = recover_equivalence(A, B)
        assert cert.status == "equivalent"
        assert cert.permutation.pi == perm.pi
        for got, want in zip(cert.diagonal.blocks, diag.blocks):
            assert np.max(np.abs(got - want)) < 1e-7
        assert cert.residual < 1e-8
        # image size equals K whenever the status is equivalent
        assert len(set(cert.permutation.pi)) == A.structure.K

    def test_random_pair_not_equivalent(self):
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=5)
        B = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=55)
        cert = recover_equivalence(A, B)
        assert cert.status == "not-equivalent"
        assert cert.permutation is None

    def test_certificate_json_shape(self):
        A = gen_dictionary(12, BlockStructure(K=3, alpha=2, s=1), seed=6)
        payload = json.loads(recover_equivalence(A, A).to_json())
        assert set(payload) == {"status", "pi", "D_blocks", "residual"}
        assert payload["pi"] == [1, 2, 3]
        assert len(payload["D_blocks"]) == 3

    @pytest.mark.parametrize(
        "name, value",
        [("tol", -1.0), ("tol", float("nan")), ("span_tol", -1.0),
         ("invertibility_tol", -1.0)],
    )
    def test_bad_tolerances_rejected(self, name, value):
        # each one used to give a wrong certificate for A against itself
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=4)
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
            recover_equivalence(A, A, **{name: value})


class TestApplyTransform:
    def test_identity_transform(self):
        B = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=7)
        perm = BlockPermutation.identity(4)
        diag = BlockDiagonal(B.structure, tuple(np.eye(2) for _ in range(4)))
        out = apply_transform(B, perm, diag)
        assert np.array_equal(out.data, B.data)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_with_make_equivalent(self, seed):
        A, B, perm, diag, _ = make_equivalent_pair(16, 5, 2, 2, seed=400 + 10 * seed)
        again = apply_transform(B, perm, diag)
        assert np.max(np.abs(again.data - A.data)) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_composition_law(self, seed):
        st = BlockStructure(K=5, alpha=2, s=2)
        B = gen_dictionary(14, st, seed=seed)
        p1 = gen_block_permutation(5, seed=seed + 1)
        p2 = gen_block_permutation(5, seed=seed + 2)
        D1 = gen_block_diagonal(st, seed=seed + 3)
        D2 = gen_block_diagonal(st, seed=seed + 4)
        two_steps = apply_transform(apply_transform(B, p1, D1), p2, D2)
        q, F = compose_transforms(p1, D1, p2, D2)
        one_step = apply_transform(B, q, F)
        assert np.max(np.abs(two_steps.data - one_step.data)) < 1e-10


class TestConstructKappa:
    @pytest.mark.parametrize("seed", range(4))
    def test_singletons_follow_permutation(self, seed):
        A, B, perm, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=500 + 10 * seed)
        for i in range(1, 6):
            res = construct_kappa(A, B, (i,), n_probes=4, seed=seed)
            assert res.consistent
            assert res.kappa == (perm(i),)

    def test_identity_pair_maps_identically(self):
        A, _, _ = make_rip_instance(16, 5, 2, 2, seed=42)
        for sup in combinations(range(1, 6), 2):
            res = construct_kappa(A, A, sup, n_probes=4, seed=0)
            assert res.consistent
            assert res.kappa == sup

    def test_unrelated_dictionary_violates_hypothesis(self):
        A, _, _ = make_rip_instance(16, 5, 2, 2, seed=43)
        B = gen_dictionary(16, A.structure, seed=999)
        with pytest.raises(HypothesisViolationError):
            construct_kappa(A, B, (1, 2), n_probes=4, seed=0)

    def test_deterministic(self):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        r1 = construct_kappa(A, B, (2, 4), n_probes=6, seed=3)
        r2 = construct_kappa(A, B, (2, 4), n_probes=6, seed=3)
        assert r1 == r2

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected_before_probing(self, monkeypatch, tol):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        calls = []
        monkeypatch.setattr(equivalence, "exhaustive_code",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            construct_kappa(A, B, (2, 4), n_probes=2, tol=tol)
        assert calls == []


class TestVerifyTheoremInstance:
    @pytest.mark.parametrize("seed", range(3))
    def test_equivalent_pair_passes_everything(self, seed):
        A, B, perm, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=600 + 10 * seed)
        report = verify_theorem_instance(A, B, s=2, n_probes=4, seed=seed)
        assert report.hypothesis_holds
        assert report.certificate.status == "equivalent"
        assert report.certificate.permutation.pi == perm.pi
        assert report.agreement is True
        payload = report.to_dict()
        assert set(payload) == {"rip", "hypothesis", "conclusion", "agreement"}
        assert payload["hypothesis"]["supports_checked"] == 10

    def test_single_block_dictionary(self):
        A, _, _ = make_rip_instance(6, 1, 2, 1, seed=3)
        cert = recover_equivalence(A, A)
        report = verify_theorem_instance(A, A, s=1, n_probes=3, seed=0)
        assert cert.permutation.pi == (1,)
        assert report.certificate.status == "equivalent"
        assert report.agreement is True

    def test_corrupted_block_fails_exactly_on_its_supports(self):
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=700)
        rng = np.random.default_rng(used + 1)
        corrupted = 3
        B = A.with_block(corrupted, np.linalg.qr(rng.standard_normal((16, 2)))[0])
        report = verify_theorem_instance(A, B, s=2, n_probes=3, seed=0)
        assert not report.hypothesis_holds
        for entry in report.hypothesis_supports:
            if corrupted in entry["support"]:
                assert "error" in entry
            else:
                assert entry.get("consistent") is True
        assert report.certificate.status == "not-equivalent"

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected_before_probing(self, monkeypatch, tol):
        # tol=-1 used to report a holding hypothesis with a not-equivalent certificate
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=41)
        calls = []
        monkeypatch.setattr(equivalence, "construct_kappa",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            verify_theorem_instance(A, B, s=2, tol=tol)
        assert calls == []
