import json
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from blockdict import (
    BlockDict,
    BlockDiagonal,
    BlockPermutation,
    BlockStructure,
    HypothesisViolationError,
    KappaResult,
    RankError,
    apply_transform,
    construct_kappa,
    equivalence,
    exhaustive_code,
    gen_block_diagonal,
    gen_block_permutation,
    gen_dictionary,
    make_equivalent_dict,
    match_blocks,
    recover_equivalence,
    solve_block_transform,
    verify_theorem_instance,
)

from conftest import (
    RANK_DEFICIENT_SVALS, make_equivalent_pair, make_rip_instance, rank_deficient_dict,
)


class TestBlockPermutation:
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

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected(self, tol):
        # a negative tol used to count the zero singular value and call this invertible
        D = BlockDiagonal(BlockStructure(K=2, alpha=2, s=1), (np.eye(2), np.diag([1.0, 0.0])))
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            D.is_invertible(tol)


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

    def test_non_injective_assignment(self):
        # A = [X, X M, Z] against B = [X, W, Z]: A's blocks 1 and 2 both land on 1
        B = gen_dictionary(16, BlockStructure(K=3, alpha=2, s=1), seed=4)
        A = B.with_block(2, B.block(1) @ np.array([[2.0, 1.0], [0.0, 1.0]]))
        report = match_blocks(A, B)
        assert report.status == "not-equivalent" and report.permutation is None
        assert report.matches == {1: (1,), 2: (1,), 3: (3,)}
        assert report.unmatched == () and report.ambiguous == ()

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

    @RANK_DEFICIENT_SVALS
    def test_rank_deficient_pair_is_ambiguous(self, svals):
        # the matched pair's transform is not determined: a status, not a RankError
        A = rank_deficient_dict(svals)
        cert = recover_equivalence(A, A)
        assert cert.to_dict() == {"status": "ambiguous", "pi": None, "D_blocks": None,
                                  "residual": None}
        report = verify_theorem_instance(A, A, s=2, n_probes=2)
        assert report.certificate == cert and report.agreement is None

    def test_certificate_json_shape(self):
        A = gen_dictionary(12, BlockStructure(K=3, alpha=2, s=1), seed=6)
        payload = json.loads(json.dumps(recover_equivalence(A, A).to_dict()))
        assert set(payload) == {"status", "pi", "D_blocks", "residual"}
        assert payload["pi"] == [1, 2, 3]
        assert len(payload["D_blocks"]) == 3

    @pytest.mark.parametrize(
        "name, value",
        [("tol", -1.0), ("tol", float("nan")), ("span_tol", -1.0)],
    )
    def test_bad_tolerances_rejected(self, name, value):
        # each one used to give a wrong certificate for A against itself
        A = gen_dictionary(16, BlockStructure(K=5, alpha=2, s=2), seed=4)
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
            recover_equivalence(A, A, **{name: value})


class TestApplyTransform:
    def test_identity_transform(self):
        B = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=2), seed=7)
        perm = BlockPermutation(4, (1, 2, 3, 4))
        diag = BlockDiagonal(B.structure, tuple(np.eye(2) for _ in range(4)))
        out = apply_transform(B, perm, diag)
        assert np.array_equal(out.data, B.data)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_with_make_equivalent(self, seed):
        A, B, perm, diag, _ = make_equivalent_pair(16, 5, 2, 2, seed=400 + 10 * seed)
        again = apply_transform(B, perm, diag)
        assert np.max(np.abs(again.data - A.data)) < 1e-10

    @pytest.mark.parametrize("K", [2, 4])
    def test_make_equivalent_rejects_a_permutation_of_other_size(self, K):
        A = gen_dictionary(8, BlockStructure(K=3, alpha=2, s=1), seed=1)
        with pytest.raises(ValueError, match=f"permutation is on {K} blocks, dictionary has 3"):
            make_equivalent_dict(A, gen_block_permutation(K, 0), gen_block_diagonal(A.structure, 0))


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

    @pytest.mark.parametrize("k", [-900, -520, 510, 900])
    def test_power_of_two_scaled_pair(self, k):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        A2, B2 = (BlockDict(D.structure, np.ldexp(D.data, k)) for D in (A, B))
        for sup in [(2,), (2, 4), (1, 3, 5)]:
            assert construct_kappa(A2, B2, sup, n_probes=6, seed=3) == construct_kappa(
                A, B, sup, n_probes=6, seed=3)

    def test_support_larger_than_the_structure_sparsity(self):
        # probes code at |S| blocks, whatever s the structures carry
        A, _, _ = make_rip_instance(16, 5, 2, 2, seed=42)
        res = construct_kappa(A, A, (1, 2, 3))
        assert res.kappa == (1, 2, 3) and res.consistent
        report = verify_theorem_instance(A, A, s=3)
        assert report.hypothesis_holds and report.certificate.status == "equivalent"

    def test_overflowing_probe_is_a_value_error(self):
        # seed 1 draws t = (0.53, 1.24) on block 1, whose entries are all the largest float
        B = gen_dictionary(6, BlockStructure(K=3, alpha=2, s=1), seed=0)
        A = B.with_block(1, np.full((6, 2), np.finfo(float).max))
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"^measurement holds non-finite values at entries \[0, 1,"):
            construct_kappa(A, B, (1,), n_probes=4, seed=1)

    def test_deterministic(self):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        r1 = construct_kappa(A, B, (2, 4), n_probes=6, seed=3)
        r2 = construct_kappa(A, B, (2, 4), n_probes=6, seed=3)
        assert r1 == r2

    def test_tied_probe_violates_hypothesis(self):
        # block 2 zeroed: y = 0 fits every support, so kappa((2,)) is not unique
        A = rank_deficient_dict((0.0, 0.0))
        with pytest.raises(HypothesisViolationError, match=r"^probe 0 on support \(2,\) has tied"):
            construct_kappa(A, A, (2,), n_probes=2)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected_before_probing(self, monkeypatch, tol):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        calls = spy_factor(monkeypatch)
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

    def test_tied_probes_fail_exactly_on_the_zero_blocks_supports(self):
        A = rank_deficient_dict((0.0, 0.0))
        report = verify_theorem_instance(A, A, s=2, n_probes=8)
        assert not report.hypothesis_holds
        for entry in report.hypothesis_supports + report.kappa_singletons:
            assert ("error" in entry) == (2 in entry["support"])
            assert "error" in entry or entry["consistent"]

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

    def test_family_is_sampled_above_the_support_cap(self, monkeypatch):
        monkeypatch.setattr(equivalence, "MAX_HYPOTHESIS_SUPPORTS", 6)
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=600)

        def family(seed):
            report = verify_theorem_instance(A, B, s=2, n_probes=2, seed=seed)
            assert report.hypothesis_holds
            return [tuple(entry["support"]) for entry in report.hypothesis_supports]

        first = family(0)
        assert len(first) == len(set(first)) == 6  # of C(5, 2) = 10
        assert first == sorted(first)
        assert all(list(sup) == sorted(sup) and len(sup) == 2 for sup in first)
        assert family(0) == first
        assert family(1) != first

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected_before_probing(self, monkeypatch, tol):
        # tol=-1 used to report a holding hypothesis with a not-equivalent certificate
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=41)
        calls = spy_factor(monkeypatch)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            verify_theorem_instance(A, B, s=2, tol=tol)
        assert calls == []


def per_probe_kappa(A, F, sup, n_probes, seed, tol):
    """`construct_kappa` with each probe coded by the public `exhaustive_code`, unfactored."""
    B = F.A
    rng = np.random.default_rng([seed, *sup])
    found = []
    for p in range(n_probes):
        t = np.zeros(A.structure.total_dim)
        for i in sup:
            t[A.structure.block_slice(i)] = rng.standard_normal(A.structure.alpha)
        res = exhaustive_code(B, A.data @ t, s=len(sup), tol=min(tol, 1e-10))
        if res.residual_norm > tol:
            raise HypothesisViolationError(
                f"probe {p} on support {sup} has no {len(sup)}-block-sparse code in B "
                f"(relative residual {res.residual_norm:.3e} > {tol:.1e})"
            )
        if res.tied:
            raise HypothesisViolationError(f"probe {p} on support {sup} has tied codes in B")
        found.append(res.code.support)
    counts = Counter(found)
    top = max(counts.values())
    kappa = min(k for k, c in counts.items() if c == top)
    return KappaResult(sup, kappa, len(counts) == 1, tuple(found))


def spy_factor(monkeypatch):
    """Record the sparsity of every factor `equivalence` builds."""
    calls = []
    factor = equivalence._factor
    monkeypatch.setattr(equivalence, "_factor", lambda B, s: calls.append(s) or factor(B, s))
    return calls


def factored_fixture(name):
    """(A, B) at P=16, K=6, alpha=2, s=2: a planted pair, one with a corrupted block of B,
    or a planted pair whose B has a repeated or a zero block (rank-short supports)."""
    A, B, perm, diag, _ = make_equivalent_pair(16, 6, 2, 2, seed=800)
    rng = np.random.default_rng(801)
    if name == "corrupted":
        return A, B.with_block(3, np.linalg.qr(rng.standard_normal((16, 2)))[0])
    if name != "planted":
        B = B.with_block(4, B.block(1) if name == "repeated-block" else np.zeros((16, 2)))
    return apply_transform(B, perm, diag), B


FIXTURES = ("planted", "corrupted", "repeated-block", "zero-block")


class TestFactoredProbes:
    """Probes coded against one factor of B give the per-probe coder's report."""

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("s", [1, 2])
    def test_report_matches_per_probe_coding(self, monkeypatch, name, s):
        A, B = factored_fixture(name)
        factors = spy_factor(monkeypatch)
        report = verify_theorem_instance(A, B, s=s, n_probes=4, seed=3).to_dict()
        assert sorted(factors) == sorted({s, 1})  # once per sparsity
        monkeypatch.setattr(equivalence, "_probe_kappa", per_probe_kappa)
        assert report == verify_theorem_instance(A, B, s=s, n_probes=4, seed=3).to_dict()
        errors = [e["error"] for e in report["hypothesis"]["details"] if "error" in e]
        if name == "planted":
            assert report["hypothesis"]["holds"] and report["agreement"]["equal"] is True
        elif name == "corrupted":
            assert errors and all("has no" in e for e in errors)
        else:  # rank-short supports and tied codes: the same text and probe index
            assert errors and all("tied codes" in e for e in errors)

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("sup", [(2,), (1, 4), (2, 5), (3, 6)])
    def test_construct_kappa_factors_once(self, monkeypatch, name, sup):
        A, B = factored_fixture(name)
        factors = spy_factor(monkeypatch)
        try:
            expected = per_probe_kappa(A, equivalence._factor(B, len(sup)), sup, 5, 7, 1e-8)
        except HypothesisViolationError as exc:
            with pytest.raises(HypothesisViolationError) as got:
                construct_kappa(A, B, sup, n_probes=5, seed=7)
            assert str(got.value) == str(exc)
        else:
            assert construct_kappa(A, B, sup, n_probes=5, seed=7) == expected
        assert factors == [len(sup), len(sup)]  # the reference's factor, then the call's
