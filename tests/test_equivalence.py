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
    CapacityError,
    DEFAULT_ENUMERATION_CAP,
    HypothesisViolationError,
    KappaResult,
    MatchReport,
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
    orthonormal_basis,
    recover_equivalence,
    solve_block_transform,
    spans_equal,
    verify_theorem_instance,
)

from conftest import (
    RANK_DEFICIENT_SVALS, make_equivalent_pair, make_rip_instance, rank_deficient_dict,
)


class TestBlockPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            BlockPermutation(3, (1, 1, 2))

    @pytest.mark.parametrize("i", [0, 4])
    def test_call_out_of_range(self, i):
        with pytest.raises(IndexError, match=rf"block index {i} out of range 1\.\.3"):
            BlockPermutation(3, (2, 3, 1))(i)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, bad):
        st = BlockStructure(K=2, alpha=2, s=1)
        with pytest.raises(ValueError, match="block 2 has non-finite entries"):
            BlockDiagonal(st, (np.eye(2), np.array([[1.0, bad], [0.0, 1.0]])))

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
    @pytest.mark.parametrize("check", [match_blocks, recover_equivalence], ids=lambda f: f.__name__)
    def test_ambient_dimension_mismatch(self, check):
        st = BlockStructure(K=3, alpha=2, s=1)
        A, B = gen_dictionary(8, st, seed=0), gen_dictionary(10, st, seed=0)
        with pytest.raises(ValueError, match="ambient dimensions differ: 8 vs 10"):
            check(A, B)

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


def loop_match_blocks(A, B, tol=1e-8):
    """`match_blocks` as a K^2 loop: an `orthonormal_basis` per block, a `spans_equal` per pair."""
    K = A.structure.K
    a_bases = [orthonormal_basis(A.block(i), tol) for i in range(1, K + 1)]
    b_bases = [orthonormal_basis(B.block(j), tol) for j in range(1, K + 1)]
    matches = {i: tuple(j for j in range(1, K + 1) if spans_equal(a, b_bases[j - 1], tol))
               for i, a in enumerate(a_bases, start=1)}
    unmatched = tuple(i for i in matches if not matches[i])
    ambiguous = tuple(i for i in matches if len(matches[i]) > 1)
    targets = [m[0] for m in matches.values() if m]
    if ambiguous:
        status = "ambiguous"
    elif unmatched or len(set(targets)) != K:
        status = "not-equivalent"
    else:
        return MatchReport("matched", BlockPermutation(K, tuple(targets)), matches, (), ())
    return MatchReport(status, None, matches, unmatched, ambiguous)


def match_fixture(name, seed):
    """(A, B) at P=16, K=6, alpha=2: a random pair, a planted equivalent, the planted pair with
    a repeated block span in B, or with a rank-1 block 3 and a zero block 5 in A, in B, or in
    both (A's blocks made deficient before B is planted from it)."""
    st = BlockStructure(K=6, alpha=2, s=2)
    A = gen_dictionary(16, st, seed=seed)
    deficient = lambda D, i, j: D.with_block(i, D.block(i) @ np.diag([1.0, 0.0])).with_block(
        j, np.zeros((16, 2)))
    if name == "deficient-both":
        A = deficient(A, 3, 5)
    perm = gen_block_permutation(6, seed=seed + 1)
    B = make_equivalent_dict(A, perm, gen_block_diagonal(st, seed=seed + 2))
    if name == "random":
        B = gen_dictionary(16, st, seed=seed + 100)
    elif name == "repeated":
        B = B.with_block(perm(4), B.block(perm(1)) @ np.array([[1.0, 1.0], [0.0, 1.0]]))
    elif name == "deficient-a":
        A = deficient(A, 3, 5)
    elif name == "deficient-b":
        B = deficient(B, perm(3), perm(5))
    return A, B


class TestStackedMatch:
    """The stacked `match_blocks` gives the K^2 loop's report and certificate."""

    EXPECTED = {"random": "not-equivalent", "planted": "matched", "repeated": "ambiguous",
                "deficient-a": "not-equivalent", "deficient-b": "not-equivalent",
                "deficient-both": "matched"}

    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-4, 0.5])
    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_matches_the_pairwise_loop(self, monkeypatch, name, tol):
        for seed in (0, 10, 20):
            A, B = match_fixture(name, seed)
            report = match_blocks(A, B, tol)
            assert report == loop_match_blocks(A, B, tol)
            if tol <= 1e-4:
                assert report.status == self.EXPECTED[name]
            cert = recover_equivalence(A, B, span_tol=tol).to_dict()
            with monkeypatch.context() as m:
                m.setattr(equivalence, "match_blocks", loop_match_blocks)
                assert cert == recover_equivalence(A, B, span_tol=tol).to_dict()

    def test_match_indices_are_python_ints(self):
        A, B = match_fixture("deficient-both", 0)
        report = match_blocks(A, B)
        assert all(type(j) is int for m in report.matches.values() for j in m)
        assert recover_equivalence(A, B).status == "ambiguous"  # rank-short matched blocks


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

    @pytest.mark.parametrize("shapes", [((6, 2), (6, 3)), ((6, 2), (5, 2)), ((6,), (6,))],
                             ids=["alpha", "ambient", "vectors"])
    def test_shape_mismatch(self, shapes):
        a, b = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError, match="blocks must share shape P x alpha"):
            solve_block_transform(a, b)

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

    @pytest.mark.parametrize("K, alpha, P", [(6, 2, 16), (5, 3, 12), (8, 1, 10)])
    @pytest.mark.parametrize("k", [0, -600, 460, 600])
    def test_stacked_transforms_equal_one_pair_solves(self, K, alpha, P, k):
        # the K transforms come from one stacked solve: each equals solve_block_transform on its
        # pair byte for byte, and the residual is the largest of theirs, at any common scale 2^k
        st = BlockStructure(K=K, alpha=alpha, s=1)
        for seed in range(40):
            A = gen_dictionary(P, st, seed=seed)
            B = make_equivalent_dict(A, gen_block_permutation(K, seed + 1000),
                                     gen_block_diagonal(st, seed + 2000))
            A, B = (BlockDict(st, np.ldexp(D.data, k)) for D in (A, B))
            cert = recover_equivalence(A, B)
            assert cert.status == "equivalent", seed
            solves = [solve_block_transform(A.block(i), B.block(cert.permutation(i)))
                      for i in range(1, K + 1)]
            for got, (M, _) in zip(cert.diagonal.blocks, solves):
                assert np.array_equal(got, M), seed
            assert cert.residual == max(rel for _, rel in solves), seed

    @pytest.mark.parametrize("k", [-1000, -600, 460, 600, 1000])
    def test_power_of_two_scaled_pair(self, k):
        # each block is solved at its own power-of-two scale, so 2^k A and 2^k B have A and B's
        # certificate byte for byte: no NaN residual past 2^511, no drift past 2^459
        for seed in range(3):
            A, B, _, _, _ = make_equivalent_pair(16, 6, 2, 2, seed=300 + 10 * seed)
            cert = recover_equivalence(A, B)
            A2, B2 = (BlockDict(D.structure, np.ldexp(D.data, k)) for D in (A, B))
            assert recover_equivalence(A2, B2).to_dict() == cert.to_dict(), seed


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

    def test_apply_rejects_a_permutation_of_other_size(self):
        B = gen_dictionary(8, BlockStructure(K=3, alpha=2, s=1), seed=1)
        with pytest.raises(ValueError, match="permutation is on 4 blocks, dictionary has 3"):
            apply_transform(B, gen_block_permutation(4, 0), gen_block_diagonal(B.structure, 0))

    @pytest.mark.parametrize("K, alpha", [(4, 2), (3, 1)])
    def test_apply_rejects_a_diagonal_of_other_structure(self, K, alpha):
        B = gen_dictionary(8, BlockStructure(K=3, alpha=2, s=1), seed=1)
        D = gen_block_diagonal(BlockStructure(K=K, alpha=alpha, s=1), 0)
        with pytest.raises(ValueError, match="block-diagonal structure does not match"):
            apply_transform(B, gen_block_permutation(3, 0), D)

    def test_make_equivalent_rejects_a_singular_diagonal(self):
        A = gen_dictionary(8, BlockStructure(K=2, alpha=2, s=1), seed=1)
        D = BlockDiagonal(A.structure, (np.eye(2), np.diag([1.0, 0.0])))
        with pytest.raises(ValueError, match="all transform blocks must be invertible"):
            make_equivalent_dict(A, gen_block_permutation(2, 0), D)

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

    @pytest.mark.parametrize("k", [-1000, -900, -520, 510, 900, 1000])
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

    # at A's own scale a coefficient above 2 takes block 1 past the largest float: (1,) and
    # (1, 2) draw one first at seeds 23 and 43, and later at seeds 0 and 14
    @pytest.mark.parametrize("seed", [0, 1, 14, 23, 43])
    @pytest.mark.parametrize("kind", ["no-code", "tied", "codes-ones"])
    def test_max_float_block_probes_as_its_scaled_down_pair(self, kind, seed):
        # each support's probes are measured at its own power-of-two scale: with A's block 2
        # zero, every support but (1, 3) probes as it does with block 1 times 2^-1024
        A, B = big_block_fixture(kind)
        small = A.with_block(1, np.ldexp(A.block(1), -1024))
        for sups in ([(1,), (2,), (3,)], [(1, 2), (2, 3)]):
            got = equivalence._probe_supports(A, B, sups, 6, seed, 1e-8)
            for sup, res in zip(sups, got, strict=True):
                assert_same_outcome(res, outcome(per_probe_kappa, small, B, sup, 6, seed, 1e-8))
                assert_same_outcome(res, outcome(construct_kappa, A, B, sup, 6, seed, 1e-8))
        first = outcome(construct_kappa, A, B, (1,), 6, seed, 1e-8)
        if kind == "codes-ones":  # B codes ones on block 1 alone
            assert first == KappaResult((1,), (1,), True, ((1,),) * 6)
        else:
            assert str(first).startswith("probe 0 on support (1,) has " + (
                "tied" if kind == "tied" else "no 1-block"))

    @pytest.mark.parametrize("S, n_probes, message", [
        ((), 4, "support must be nonempty"),
        ((2, 4), 0, "n_probes must be >= 1, got 0"),
        ((2,), -3, "n_probes must be >= 1, got -3"),
    ], ids=["empty-support", "no-probes", "negative-probes"])
    def test_bad_support_or_probe_count_rejected(self, S, n_probes, message):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        with pytest.raises(ValueError, match=message):
            construct_kappa(A, B, S, n_probes=n_probes)

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

    def test_probe_count_over_the_cap_refused_before_any_draw(self, monkeypatch):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        draws, rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: draws.append(a) or rng(*a))
        with pytest.raises(CapacityError, match="n_probes = 1000001 exceeds the enumeration cap"):
            construct_kappa(A, B, (2, 4), n_probes=DEFAULT_ENUMERATION_CAP + 1)
        assert draws == []

    def test_support_count_over_the_cap_refused(self):
        # the kernel lists B's size-|S| supports: C(40, 20) are over the cap
        A = BlockDict(BlockStructure(K=40, alpha=1, s=20), np.eye(40))
        with pytest.raises(CapacityError, match=r"^C\(40, 20\) = 137846528820 supports exceeds"):
            construct_kappa(A, A, range(1, 21), n_probes=2)
        with pytest.raises(ValueError, match="n_probes must be >= 1"):  # checked first
            construct_kappa(A, A, range(1, 21), n_probes=0)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected_before_probing(self, monkeypatch, tol):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        calls = spy_codes(monkeypatch)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            construct_kappa(A, B, (2, 4), n_probes=2, tol=tol)
        assert calls == []


class TestVerifyTheoremInstance:
    def test_support_count_over_the_cap_refused(self):
        # the family's probes are coded at s = 20: C(40, 20) supports are over the cap
        A = BlockDict(BlockStructure(K=40, alpha=1, s=20), np.eye(40))
        with pytest.raises(CapacityError, match=r"^C\(40, 20\) = 137846528820 supports exceeds"):
            verify_theorem_instance(A, A, s=20, n_probes=2)

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
        calls = spy_codes(monkeypatch)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            verify_theorem_instance(A, B, s=2, tol=tol)
        assert calls == []


def per_probe_kappa(A, B, sup, n_probes, seed, tol):
    """`construct_kappa` with each probe coded by the public `exhaustive_code`, one at a time."""
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


def outcome(probe, *args):
    """What `probe(*args)` returns, or the probe error it raises."""
    try:
        return probe(*args)
    except (HypothesisViolationError, ValueError) as exc:
        return exc


def per_probe_supports(probed):
    """`equivalence._probe_supports` as a loop of `per_probe_kappa`, one support at a time;
    appends each support it probes to probed."""
    def probe_supports(A, B, sups, n_probes, seed, tol):
        return [outcome(per_probe_kappa, A, B, probed.append(sup) or sup, n_probes, seed, tol)
                for sup in sups]
    return probe_supports


def assert_same_outcome(got, expected):
    """Equal KappaResults, or errors of one type and text."""
    assert type(got) is type(expected)
    if isinstance(expected, Exception):
        assert str(got) == str(expected)
    else:
        assert got == expected


def spy_codes(monkeypatch):
    """Record the column count of every `_min_residual_codes` call `equivalence` makes."""
    calls = []
    code = equivalence._min_residual_codes
    monkeypatch.setattr(equivalence, "_min_residual_codes",
                        lambda B, Z, s, tol: calls.append(Z.shape[1]) or code(B, Z, s, tol))
    return calls


def spy_sparsities(monkeypatch):
    """Record the sparsity of every `_min_residual_codes` call `equivalence` makes."""
    calls = []
    code = equivalence._min_residual_codes
    monkeypatch.setattr(equivalence, "_min_residual_codes",
                        lambda B, Z, s, tol: calls.append(s) or code(B, Z, s, tol))
    return calls


def probe_fixture(name):
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


class TestProbeReports:
    """Probes coded in one kernel call per sparsity give the per-probe coder's report."""

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("s", [1, 2])
    def test_report_matches_per_probe_coding(self, monkeypatch, name, s):
        A, B = probe_fixture(name)
        sparsities = spy_sparsities(monkeypatch)
        report = verify_theorem_instance(A, B, s=s, n_probes=4, seed=3).to_dict()
        assert sparsities == [s, 1]  # the family, then the singletons
        probed = []
        monkeypatch.setattr(equivalence, "_probe_supports", per_probe_supports(probed))
        assert report == verify_theorem_instance(A, B, s=s, n_probes=4, seed=3).to_dict()
        details = report["hypothesis"]["details"] + report["agreement"]["kappa_singletons"]
        assert probed == [tuple(e["support"]) for e in details]  # the reference, once per support
        errors = [e["error"] for e in report["hypothesis"]["details"] if "error" in e]
        if name == "planted":
            assert report["hypothesis"]["holds"] and report["agreement"]["equal"] is True
        elif name == "corrupted":
            assert errors and all("has no" in e for e in errors)
        else:  # rank-short supports and tied codes: the same text and probe index
            assert errors and all("tied codes" in e for e in errors)

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("sup", [(2,), (1, 4), (2, 5), (3, 6)])
    def test_construct_kappa_codes_in_one_call(self, monkeypatch, name, sup):
        A, B = probe_fixture(name)
        sparsities = spy_sparsities(monkeypatch)
        try:
            expected = per_probe_kappa(A, B, sup, 5, 7, 1e-8)
        except HypothesisViolationError as exc:
            with pytest.raises(HypothesisViolationError) as got:
                construct_kappa(A, B, sup, n_probes=5, seed=7)
            assert str(got.value) == str(exc)
        else:
            assert construct_kappa(A, B, sup, n_probes=5, seed=7) == expected
        assert sparsities == [len(sup)]  # the reference codes through `exhaustive_code`


def big_block_fixture(kind):
    """(A, B) at P=6, K=3, alpha=2: A's block 1 is [max/2 * ones, 0], at the top of the float
    range, and its block 2 is zero, so a probe on (1,) or (1, 2) lies along ones; B has no code
    of ones on one or two blocks ("no-code"), several, with ones in blocks 2 and 3 ("tied"), or
    one, with ones in block 1 ("codes-ones")."""
    B = gen_dictionary(6, BlockStructure(K=3, alpha=2, s=2), seed=0)
    for i in {"no-code": (), "tied": (2, 3), "codes-ones": (1,)}[kind]:
        B = B.with_block(i, np.column_stack([np.ones(6), B.block(i)[:, 1]]))
    big = np.column_stack([np.full(6, np.finfo(float).max / 2), np.zeros(6)])
    return B.with_block(1, big).with_block(2, np.zeros((6, 2))), B


class TestProbeOrder:
    """Probes coded together report the first failing probe, as coded one at a time."""

    # probe 0 fails on (1,) at seed 0 and on (1, 2) at seed 14, before larger draws
    @pytest.mark.parametrize("sup, seed", [((1,), 0), ((1, 2), 14)])
    @pytest.mark.parametrize("kind", ["no-code", "tied"])
    def test_first_failure_is_reported(self, kind, sup, seed):
        A, B = big_block_fixture(kind)
        expected = rf"^probe 0 on support \({sup[0]},( 2)?\) has (no {len(sup)}-block|tied)"
        with pytest.raises(HypothesisViolationError, match=expected) as ref:
            per_probe_kappa(A, B, sup, 6, seed, 1e-8)
        with pytest.raises(HypothesisViolationError) as got:
            construct_kappa(A, B, sup, n_probes=6, seed=seed)
        assert str(got.value) == str(ref.value)
        assert ("tied" in str(got.value)) == (kind == "tied")


class TestBatchedProbes:
    """All probes of one sparsity share one kernel call, within a bounded column budget, and
    each support keeps the outcome it has when coded alone."""

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("s", [1, 2])
    def test_verify_makes_one_call_per_sparsity(self, monkeypatch, name, s):
        A, B = probe_fixture(name)
        calls = spy_codes(monkeypatch)
        report = verify_theorem_instance(A, B, s=s, n_probes=4, seed=3)
        K = A.structure.K
        assert len(report.hypothesis_supports) == (K if s == 1 else 15)
        assert calls == [4 * len(report.hypothesis_supports), 4 * K]

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("n_probes", [4, 12])
    def test_calls_stay_within_the_column_budget(self, monkeypatch, name, s, n_probes):
        A, B = probe_fixture(name)
        expected = verify_theorem_instance(A, B, s=s, n_probes=n_probes, seed=3).to_dict()
        budget = 10  # columns: _CODE_CHUNK // P at P = 16
        monkeypatch.setattr(equivalence, "_CODE_CHUNK", budget * A.ambient_dim)
        calls = spy_codes(monkeypatch)
        report = verify_theorem_instance(A, B, s=s, n_probes=n_probes, seed=3).to_dict()
        assert report == expected
        n_supports = report["hypothesis"]["supports_checked"] + A.structure.K
        assert sum(calls) == n_probes * n_supports
        assert max(calls) <= max(n_probes, budget) and len(calls) > 2

    @pytest.mark.parametrize("name", ["corrupted", "repeated-block"])
    @pytest.mark.parametrize("s", [1, 2])
    def test_mixed_outcomes_match_one_support_coding(self, monkeypatch, name, s):
        A, B = probe_fixture(name)
        sups = list(combinations(range(1, 7), s))
        calls = spy_codes(monkeypatch)
        got = equivalence._probe_supports(A, B, sups, 5, 7, 1e-8)
        assert calls == [5 * len(sups)]
        for sup, res in zip(sups, got, strict=True):
            assert_same_outcome(res, outcome(per_probe_kappa, A, B, sup, 5, 7, 1e-8))
        errors = [str(res) for res in got if isinstance(res, Exception)]
        assert errors and len(errors) < len(sups)  # failing and clean supports in one batch
        failure = "has no" if name == "corrupted" else "tied codes"
        assert all(failure in e for e in errors)

    # (2,) measures A's zero block 2 and fails first
    @pytest.mark.parametrize("kind", ["no-code", "tied"])
    def test_violation_before_a_later_support(self, kind):
        A, B = big_block_fixture(kind)
        sups = [(2,), (1,), (3,)]
        got = equivalence._probe_supports(A, B, sups, 6, 0, 1e-8)
        for res, sup in zip(got, sups, strict=True):
            assert_same_outcome(res, outcome(per_probe_kappa, A, B, sup, 6, 0, 1e-8))
        assert isinstance(got[0], HypothesisViolationError)


class TestSingletonProbes:
    """A singleton's probes are coded in one kernel call."""

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_singleton_matches_per_probe_coding(self, monkeypatch, name, seed):
        A, B = probe_fixture(name)
        calls = spy_codes(monkeypatch)
        errors = []
        for i in range(1, 7):
            try:
                expected = per_probe_kappa(A, B, (i,), 5, seed, 1e-8)
            except HypothesisViolationError as exc:
                with pytest.raises(HypothesisViolationError) as got:
                    construct_kappa(A, B, (i,), 5, seed, 1e-8)
                assert str(got.value) == str(exc)
                errors.append(str(exc))
            else:
                assert construct_kappa(A, B, (i,), 5, seed, 1e-8) == expected
        assert calls == [5] * 6  # one call per singleton, all five probes in it
        if name == "repeated-block":  # A's blocks over B's blocks 1 and 4 tie
            assert len(errors) == 2 and all("tied codes" in e for e in errors)
