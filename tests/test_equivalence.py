import json
import math
import warnings
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
from blockdict import subspace
from blockdict.rip import _enumerate_supports

from conftest import (
    RANK_DEFICIENT_SVALS, make_equivalent_pair, make_rip_instance, rank_deficient_dict,
)


def out_of_range_pair():
    """`gen_dictionary(16, K=6, alpha=2, s=2)` seed 0 as A and B, with A's block 1 times 2^1000
    and B's times 2^-1000: blocks span-match, and block 1's transform, 2^2000 I, overflows."""
    A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=0)
    return (A.with_block(1, np.ldexp(A.block(1), 1000)),
            A.with_block(1, np.ldexp(A.block(1), -1000)))


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

    @pytest.mark.parametrize("check", [match_blocks, recover_equivalence,
                                       lambda A, B: construct_kappa(A, B, (1, 2)),
                                       verify_theorem_instance],
                             ids=["match_blocks", "recover_equivalence", "construct_kappa",
                                  "verify_theorem_instance"])
    def test_block_structure_mismatch(self, check):
        # one 16 x 12 matrix read as 6 blocks of width 2 and as 12 of width 1
        data = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=0).data
        A = BlockDict(BlockStructure(K=6, alpha=2, s=2), data)
        B = BlockDict(BlockStructure(K=12, alpha=1, s=2), data)
        with pytest.raises(ValueError, match="^block structures differ: "
                                             "K=6, alpha=2 vs K=12, alpha=1$"):
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

    def test_overflowing_transform_is_a_value_error(self):
        A, B = out_of_range_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="transform overflows"):
                solve_block_transform(A.block(1), B.block(1))
            M, residual = solve_block_transform(A.block(2), B.block(2))  # in range: solved
        assert np.allclose(M, np.eye(2), atol=1e-12) and residual < 1e-13

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
        report = verify_theorem_instance(A, A, s=2)
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

    def test_transform_out_of_range_is_a_status(self):
        # a matched transform past the float range is reported, not raised, and not warned of
        A, B = out_of_range_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = recover_equivalence(A, B)
        assert cert.status == equivalence.STATUS_OUT_OF_RANGE == "out-of-range"
        assert cert.to_dict() == {"status": "out-of-range", "pi": [1, 2, 3, 4, 5, 6],
                                  "D_blocks": None, "residual": None}


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
        for sup in [(1,), (2,), (3,), (1, 2), (2, 3)]:
            assert_same_outcome(outcome(construct_kappa, A, B, sup, 6, seed, 1e-8),
                                outcome(per_probe_kappa, small, B, sup, 6, seed, 1e-8))
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
            verify_theorem_instance(A, A, s=20)

    @pytest.mark.parametrize("seed", range(3))
    def test_equivalent_pair_passes_everything(self, seed):
        A, B, perm, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=600 + 10 * seed)
        report = verify_theorem_instance(A, B, s=2, seed=seed)
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
        report = verify_theorem_instance(A, A, s=1, seed=0)
        assert cert.permutation.pi == (1,)
        assert report.certificate.status == "equivalent"
        assert report.agreement is True

    def test_tied_probes_fail_exactly_on_the_zero_blocks_supports(self):
        A = rank_deficient_dict((0.0, 0.0))
        report = verify_theorem_instance(A, A, s=2)
        assert not report.hypothesis_holds
        for entry in report.hypothesis_supports + report.kappa_singletons:
            assert ("error" in entry) == (2 in entry["support"])
            assert "error" in entry or entry["consistent"]

    def test_corrupted_block_fails_exactly_on_its_supports(self):
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=700)
        rng = np.random.default_rng(used + 1)
        corrupted = 3
        B = A.with_block(corrupted, np.linalg.qr(rng.standard_normal((16, 2)))[0])
        report = verify_theorem_instance(A, B, s=2, seed=0)
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
            report = verify_theorem_instance(A, B, s=2, seed=seed)
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
    """A support's probes coded in one kernel call give the per-probe coder's outcome."""

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
    """Failing and clean supports of one dictionary pair each keep the per-probe coder's outcome,
    one `construct_kappa` kernel call each."""

    @pytest.mark.parametrize("name", ["corrupted", "repeated-block"])
    @pytest.mark.parametrize("s", [1, 2])
    def test_mixed_outcomes_match_one_support_coding(self, monkeypatch, name, s):
        A, B = probe_fixture(name)
        sups = list(combinations(range(1, 7), s))
        calls = spy_codes(monkeypatch)
        got = [outcome(construct_kappa, A, B, sup, 5, 7, 1e-8) for sup in sups]
        assert calls == [5] * len(sups)
        for sup, res in zip(sups, got, strict=True):
            assert_same_outcome(res, outcome(per_probe_kappa, A, B, sup, 5, 7, 1e-8))
        errors = [str(res) for res in got if isinstance(res, Exception)]
        assert errors and len(errors) < len(sups)  # failing and clean supports of one pair
        failure = "has no" if name == "corrupted" else "tied codes"
        assert all(failure in e for e in errors)


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


def wide_pair(K, alpha, s, corrupted, seed):
    """(A, B) at P=24: A = B carried by a seeded block permutation pi and block mixing, with B's
    block pi(1) replaced by a random orthonormal one when corrupted, so A's supports holding
    block 1 have no code in B."""
    B = gen_dictionary(24, BlockStructure(K=K, alpha=alpha, s=s), seed=seed)
    perm = gen_block_permutation(K, seed=seed + 1)
    A = apply_transform(B, perm, gen_block_diagonal(B.structure, seed=seed + 2))
    if corrupted:
        Q = np.linalg.qr(np.random.default_rng(seed + 3).standard_normal((24, alpha)))[0]
        B = B.with_block(perm(1), Q)
    return A, B


class TestWideSupportKeys:
    """Probe supports are read from the code's blocks: past K = 8 and past K = 64 each support
    keeps its per-probe outcome."""

    @pytest.mark.parametrize("K, alpha, s", [(12, 2, 1), (12, 2, 2), (70, 1, 1)])
    @pytest.mark.parametrize("corrupted", [False, True])
    def test_every_support_matches_per_probe_coding(self, K, alpha, s, corrupted):
        A, B = wide_pair(K, alpha, s, corrupted, seed=5)
        sups = list(combinations(range(1, K + 1), s))
        got = [outcome(construct_kappa, A, B, sup, 3, 9, 1e-8) for sup in sups]
        for sup, res in zip(sups, got, strict=True):
            assert_same_outcome(res, outcome(per_probe_kappa, A, B, sup, 3, 9, 1e-8))
        kappas = [b for res in got if isinstance(res, KappaResult) for b in res.kappa]
        assert max(kappas) > (64 if K == 70 else 8)  # a block past the first byte or 64 bits
        errors = [sup for sup, res in zip(sups, got) if isinstance(res, Exception)]
        assert errors == ([sup for sup in sups if 1 in sup] if corrupted else [])


class TestProbeStreams:
    """Each support's probes come from the stream `default_rng([seed, *S])`: the seed's 32-bit
    words, then S."""

    # seeds of one, two, three and four 32-bit words, and the word boundaries between them
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**100 + 7])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_every_support_draws_its_listed_seed_stream(self, seed, s):
        A, B = wide_pair(12, 2, s, True, seed=5)  # supports holding block 1 print a residual
        sups = list(combinations(range(1, 13), s))[:: 1 if s < 3 else 5]
        got = [outcome(construct_kappa, A, B, sup, 3, seed, 1e-8) for sup in sups]
        for sup, res in zip(sups, got, strict=True):
            assert_same_outcome(res, outcome(per_probe_kappa, A, B, sup, 3, seed, 1e-8))
        assert any(isinstance(res, Exception) for res in got)
        assert any(isinstance(res, KappaResult) for res in got)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected_before_any_draw(self, monkeypatch, seed):
        # numpy refuses [seed, *S] with this text; the words of a negative seed never end. verify
        # lists all C(5, 2) supports and delta_4 is exact, so it draws nothing: its family's
        # sampler refuses the seed before the RIP constant, any table or the certificate
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=510)
        calls = spy_codes(monkeypatch)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            construct_kappa(A, B, (1, 2), 4, seed)
        for name in ("rip_constant", "_containment", "recover_equivalence"):
            monkeypatch.setattr(equivalence, name, lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            verify_theorem_instance(A, B, s=2, seed=seed)
        assert calls == []


class TestSplitKappa:
    """Supports whose probes decode to several B-supports: kappa is the most frequent, then the
    least, the flag is cleared, and the probe supports keep their draw order."""

    @pytest.mark.parametrize("seed", range(10))
    def test_split_supports_match_per_probe_coding(self, seed):
        # unrelated dictionaries at a probe tol of 0.99: every probe has a code, on varying blocks
        st = BlockStructure(K=6, alpha=2, s=2)
        A, B = gen_dictionary(16, st, seed=seed), gen_dictionary(16, st, seed=seed + 100)
        sups = list(combinations(range(1, 7), 2))
        got = [construct_kappa(A, B, sup, 8, seed, 0.99) for sup in sups]
        for sup, res in zip(sups, got, strict=True):
            assert_same_outcome(res, per_probe_kappa(A, B, sup, 8, seed, 0.99))
        assert not got[0].consistent  # (1, 2) splits on every seed here
        for res in got:
            counts = Counter(res.probe_supports)
            top = max(counts.values())
            assert res.kappa == min(k for k, c in counts.items() if c == top)
            assert res.consistent == (len(counts) == 1)


class TestContainmentTable:
    """`verify_theorem_instance` reads every hypothesis and singleton entry from one table of
    span-containment sines, with no probe: its kappa where `construct_kappa` finds one, an error
    where that raises, a tie where its probes tie."""

    @staticmethod
    def assert_entries_match_construct_kappa(A, B, report):
        entries = report.hypothesis_supports + report.kappa_singletons
        for entry in entries:
            res = outcome(construct_kappa, A, B, entry["support"], 4, 3, 1e-8)
            if isinstance(res, Exception):
                assert set(entry) == {"support", "error"}, entry
                assert ("tied codes" in entry["error"]) == ("tied codes" in str(res)), entry
            else:
                assert res.consistent
                assert entry == {"support": entry["support"], "kappa": list(res.kappa),
                                 "consistent": True}
        return entries

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("s", [1, 2])
    def test_fixture_entries_match_construct_kappa(self, monkeypatch, name, s):
        A, B = probe_fixture(name)
        calls = spy_codes(monkeypatch)
        report = verify_theorem_instance(A, B, s=s, seed=3)
        assert calls == []  # no `_min_residual_codes` call
        self.assert_entries_match_construct_kappa(A, B, report)
        errors = [e["error"] for e in report.hypothesis_supports if "error" in e]
        if name == "planted":
            assert report.hypothesis_holds and report.agreement is True
        elif name == "corrupted":
            assert errors and all("has no" in e for e in errors)
        else:  # rank-short supports: every span holding theirs ties
            assert errors and all("tied codes" in e for e in errors)

    @pytest.mark.parametrize("K, alpha, s", [(12, 2, 1), (12, 2, 2), (12, 2, 3), (70, 1, 1)])
    @pytest.mark.parametrize("corrupted", [False, True])
    def test_wide_entries_match_construct_kappa(self, monkeypatch, K, alpha, s, corrupted):
        A, B = wide_pair(K, alpha, s, corrupted, seed=5)
        calls = spy_codes(monkeypatch)
        report = verify_theorem_instance(A, B, s=s, seed=9)
        assert calls == []
        entries = self.assert_entries_match_construct_kappa(A, B, report)
        failed = [e["support"] for e in entries if "error" in e]
        assert failed == ([e["support"] for e in entries if 1 in e["support"]] if corrupted else [])
        assert report.hypothesis_holds != corrupted

    @pytest.mark.parametrize("K, alpha, s", [(6, 2, 2), (12, 2, 2), (12, 2, 3), (70, 1, 1)])
    def test_planted_pairs_read_residual_sines_near_zero(self, K, alpha, s):
        A, B = wide_pair(K, alpha, s, False, seed=5)
        perm = gen_block_permutation(K, seed=6)  # wide_pair's: span A_S = span B_perm(S)
        sups = _enumerate_supports(K, s)
        found, first, near, sine = subspace._containment(A, sups, B, sups, 1e-8)
        assert (found == 1).all() and np.array_equal(near, first)
        assert sups[first].tolist() == [sorted(map(perm, sup)) for sup in sups.tolist()]
        assert sine.max() <= 1e-13

    # rank-0 singletons of A (zero-block) lie in every span B_T: every pair passes the screen
    @pytest.mark.parametrize("name", ["planted", "corrupted", "zero-block"])
    @pytest.mark.parametrize("s", [1, 2])
    def test_stacks_stay_within_the_entry_budget(self, monkeypatch, name, s):
        A, B = probe_fixture(name)
        expected = verify_theorem_instance(A, B, s=s).to_dict()
        budget = 100  # entries: at P = 16, alpha = 2, three singletons' bases, or one pair's
        monkeypatch.setattr(subspace, "_STACK", budget)
        stacks, screen = [], subspace._screen  # each block's bases and (S, T) table entries
        monkeypatch.setattr(subspace, "_screen", lambda Q1, r1, Q2, *rest: stacks.append(
            max(Q2.size, len(Q1) * len(Q2))) or screen(Q1, r1, Q2, *rest))
        eig, sines = np.linalg.eigvalsh, []

        def spy(G):  # `rip` takes level-2s Grams, wider than the residuals' R^T R
            if G.shape[-1] <= s * 2:
                sines.append(len(G) * 16 * G.shape[-1])  # the residual stack's entries
            return eig(G)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        assert verify_theorem_instance(A, B, s=s).to_dict() == expected
        assert max(stacks) <= budget and max(sines) <= budget
        # every size-t support is listed (m = C(6, t)): blocks of budget // (P t alpha + m) T's
        assert len(stacks) == sum(-(-math.comb(6, t) // (budget // (32 * t + math.comb(6, t))))
                                  for t in (s, 1))
        if name == "zero-block" and s == 1:  # every T, in blocks of 2, for the zero block
            assert sum(sines) >= 2 * 6 * 16 * 2

    @pytest.mark.parametrize("s", [1, 2])
    def test_error_names_the_nearest_support_and_its_sine(self, s):
        A, B = probe_fixture("corrupted")
        report = verify_theorem_instance(A, B, s=s)
        sups = list(combinations(range(1, 7), s))
        errors = [e for e in report.hypothesis_supports if "error" in e]
        assert len(errors) == math.comb(5, s - 1)  # those holding A's block over B's block 3
        for e in errors:
            QS = orthonormal_basis(A.restrict(e["support"])).basis
            residuals = [QS - QT @ (QT.T @ QS) for QT in
                         (orthonormal_basis(B.restrict(sup)).basis for sup in sups)]
            near = int(np.argmin([np.linalg.norm(R) for R in residuals]))  # least Frobenius
            sine = np.linalg.norm(residuals[near], 2)
            assert e["error"] == (f"support {tuple(e['support'])} has no {s}-block-sparse code in B "
                                  f"(nearest support {sups[near]} at sine {sine:.3e} > 1.0e-08)")

    def test_tie_text(self):
        # block 2 zeroed: span A_(1, 2) = span A_1 lies in every span B_T with T holding 1
        A = rank_deficient_dict((0.0, 0.0))
        entry = verify_theorem_instance(A, A, s=2).hypothesis_supports[0]
        assert entry == {"support": [1, 2], "error": "support (1, 2) has tied codes in B"}

    @pytest.mark.parametrize("K", [3, 6, 70, 128])
    def test_singletons_are_the_hypothesis_at_s_1(self, K):
        # at s = 1 the family is every singleton (K <= MAX_HYPOTHESIS_SUPPORTS): one table
        A, B = wide_pair(K, 1 if K > 12 else 2, 1, True, seed=5)
        report = verify_theorem_instance(A, B, s=1, seed=4)
        assert report.hypothesis_supports == report.kappa_singletons
        assert len(report.kappa_singletons) == K

    def test_seed_changes_nothing_below_the_caps(self):
        # every size-2 support is checked and delta_4 is exact: the seed reaches neither
        A, B = probe_fixture("corrupted")
        report = verify_theorem_instance(A, B, s=2, seed=0).to_dict()
        assert report == verify_theorem_instance(A, B, s=2, seed=2**40 + 5).to_dict()

    # shapes whose screens run in one block of rows, and in several
    @pytest.mark.parametrize("K, alpha, s", [(6, 2, 2), (12, 2, 3), (30, 1, 2), (12, 2, 2)])
    @pytest.mark.parametrize("floor", ["containment", "equality", "equality-upper"])
    def test_screen_keeps_exactly_the_pairs_above_the_floor(self, K, alpha, s, floor):
        A, B = wide_pair(K, alpha, s, True, seed=5)
        if K == 12 and s == 2:  # rank-short supports on both sides
            A, B = A.with_block(2, np.zeros((24, 2))), B.with_block(5, np.zeros((24, 2)))
        sups, upper = _enumerate_supports(K, s), floor == "equality-upper"
        (QS, rS), (QT, rT) = (subspace._support_bases((D, sups)) for D in (A, A if upper else B))
        bound = rS - 0.5 if floor == "containment" else rS * (1 - 1e-8) ** 2 - 1e-9
        blocks = list(subspace._screen(QS, rS, QT, rT, bound, upper))
        sums = np.square(np.einsum("apd,bpe->abde", QS, QT)).sum(axis=(2, 3))
        lo, kept = 0, set()
        for blk, a, b in blocks:  # upper: a block's columns start at its first row
            assert np.allclose(blk, sums[lo : lo + len(blk), lo if upper else 0 :], atol=1e-12)
            assert (b >= (lo if upper else 0)).all()
            lo, kept = lo + len(blk), kept | set(zip(a.tolist(), b.tolist()))
        expected = set(map(tuple, np.argwhere((sums >= bound[:, None]) & (rT >= rS[:, None]))))
        assert kept <= expected and len(kept) > 0
        assert (kept >= {(a, b) for a, b in expected if a < b}) if upper else kept == expected
        assert (len(blocks) > 1) == ((K, s) in {(12, 3), (30, 2)})
