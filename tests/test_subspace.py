import warnings
from itertools import combinations, product

import numpy as np
import pytest

from blockdict import (
    BlockDict,
    BlockStructure,
    CapacityError,
    check_lemma1,
    check_lemma2,
    gen_dictionary,
    lemma2_all_pairs,
    orthonormal_basis,
    spans_equal,
    subspace_intersection,
)

from blockdict import subspace
from blockdict.core import _numerical_rank, _unit_scale
from blockdict.rip import _enumerate_supports, _support_columns

from conftest import ge_rank, in_span, make_rip_instance, nullspace_intersection, projector


def spans_equal_oracle(M1, M2, tol=1e-8):
    """Independent span equality: Frobenius norm of the projector difference."""
    return np.linalg.norm(projector(M1) - projector(M2), "fro") <= tol


class TestOrthonormalBasis:
    def test_identity(self):
        assert orthonormal_basis(np.eye(3)).dim == 3

    def test_collinear_columns(self):
        v = np.array([1.0, 2.0, -1.0])
        assert orthonormal_basis(np.column_stack([v, 2 * v])).dim == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_matches_elimination_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((6, 4))
        M[:, 3] = M[:, 0] + M[:, 1]  # one dependent column
        basis = orthonormal_basis(M)
        assert basis.dim == 3
        assert basis.dim == ge_rank(M)

    def test_zero_matrix_dim_zero(self):
        basis = orthonormal_basis(np.zeros((5, 3)))
        assert basis.dim == 0
        assert basis.ambient_dim == 5

    def test_vector_is_one_column(self):
        basis = orthonormal_basis(np.array([3.0, 0.0, -4.0]))
        assert basis.dim == 1 and basis.ambient_dim == 3
        assert np.allclose(np.abs(basis.basis[:, 0]), [0.6, 0.0, 0.8], atol=1e-15)

    @pytest.mark.parametrize("shape", [(2, 3, 2), (0, 2)], ids=["3-D", "no-rows"])
    def test_not_a_nonempty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected a nonempty 2-D matrix, got shape"):
            orthonormal_basis(np.ones(shape))

    @pytest.mark.parametrize("basis", [np.eye(3), np.eye(4)[:, :2].ravel()],
                             ids=["wrong-ambient", "1-D"])
    def test_subspace_basis_shape_checked(self, basis):
        with pytest.raises(ValueError, match=r"basis must be 4 x dim, got shape"):
            subspace.SubspaceBasis(4, basis)

    def test_subspace_basis_orthonormality_checked(self):
        with pytest.raises(ValueError, match="basis columns are not orthonormal"):
            subspace.SubspaceBasis(3, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_columns_orthonormal_and_span_preserved(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((8, 3))
        basis = orthonormal_basis(M)
        assert np.allclose(basis.basis.T @ basis.basis, np.eye(3), atol=1e-12)
        for c in range(3):
            assert in_span(M[:, c], basis.basis)


class TestSpansEqual:
    @pytest.mark.parametrize("seed", range(5))
    def test_right_multiplication_preserves_span(self, seed):
        rng = np.random.default_rng(seed)
        M1 = rng.standard_normal((7, 3))
        R = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert spans_equal(M1, M1 @ R)
        assert spans_equal_oracle(M1, M1 @ R)

    def test_different_axes(self):
        e = np.eye(3)
        assert not spans_equal(e[:, [0, 1]], e[:, [0, 2]])

    def test_dimension_mismatch(self):
        e = np.eye(3)
        assert not spans_equal(e[:, [0]], e[:, [0, 1]])

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            spans_equal(np.eye(3), np.eye(4))

    def test_reflexive_symmetric(self):
        rng = np.random.default_rng(3)
        M1 = rng.standard_normal((6, 2))
        M2 = rng.standard_normal((6, 2))
        assert spans_equal(M1, M1)
        assert spans_equal(M1, M2) == spans_equal(M2, M1)

    def test_zero_dim_spans_equal(self):
        assert spans_equal(np.zeros((4, 2)), np.zeros((4, 1)))


@pytest.mark.parametrize("tol", [1e-8, 0.3, 1.0])
def test_kernel_at_stated_rank_on_zero_padded_bases(tol):
    # `_bases` of a zero block, two rank-1 blocks on one line, rank-2 and full-rank blocks, a
    # mixed copy of one and a tilted copy: one broadcast call at the stated ranks, masked by
    # equal rank, gives the table of per-pair calls on bases sliced to their rank
    rng = np.random.default_rng(7)
    v, G, H = rng.standard_normal(8), rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    mix = np.array([[2.0, 1.0, 0.0], [-0.5, 1.0, 1.0], [0.0, 0.5, 3.0]])
    stack = np.array([np.zeros((8, 3)), np.outer(v, [1.0, -2.0, 0.5]),
                      np.outer(v, [3.0, 1.0, -1.0]), G, G @ mix, H, G + 0.3 * H, G[:, [0, 1, 1]]])
    U, ranks = subspace._bases(stack, tol)[:2]
    r = ranks[:, None]
    table = (r == ranks) & subspace._spans_equal_stacked(U[:, None], U[None], tol, r)
    expected = [[ranks[i] == ranks[j] and bool(subspace._spans_equal_stacked(
        U[i, :, : ranks[i]], U[j, :, : ranks[j]], tol, ranks[i])) for j in range(8)]
        for i in range(8)]
    assert table.tolist() == expected
    assert table[1, 2] and table[3, 6] == (tol > 1e-8) and table.all() == (tol == 1.0)


@pytest.mark.parametrize("tol", [1e-8, 0.3, 1.0])
def test_intersect_stacked_at_lesser_rank(tol):
    # `_bases` (at rank tol 1e-8) of a zero block, two rank-1 blocks on one line, full-rank
    # blocks, a repeated span and blocks sharing one and two columns with G: one broadcast call
    # at each pair's lesser rank gives the per-pair calls on bases sliced to their rank, and
    # zeros past k
    rng = np.random.default_rng(11)
    v, w, G, H = rng.standard_normal(8), rng.standard_normal(8), *rng.standard_normal((2, 8, 3))
    mix = np.array([[2.0, 1.0, 0.0], [-0.5, 1.0, 1.0], [0.0, 0.5, 3.0]])
    stack = np.array([np.zeros((8, 3)), np.outer(v, [1.0, -2.0, 0.5]),
                      np.outer(v, [3.0, 1.0, -1.0]), G, G @ mix, H, np.c_[G[:, 0], H[:, 0], w],
                      np.c_[G[:, :2], v]])
    U, ranks = subspace._bases(stack, 1e-8)[:2]
    inter, k = subspace._intersect(U[:, None], U, tol, np.minimum(ranks[:, None], ranks))
    for i, j in product(range(len(stack)), repeat=2):
        one, k1 = subspace._intersect(U[i, :, : ranks[i]], U[j, :, : ranks[j]], tol,
                                      min(ranks[i], ranks[j]))
        assert k[i, j] == k1 and not inter[i, j, :, k1:].any() and not one[:, k1:].any()
        assert subspace._spans_equal_stacked(inter[i, j, :, :k1], one[:, :k1], 1e-8, k1)
    assert k[0].max() == 0 and k[1, 2] == 1 and k[3, 4] == 3 and np.array_equal(k, k.T)
    if tol == 1e-8:
        assert (k[3, 5], k[3, 6], k[3, 7], k[5, 6]) == (0, 1, 2, 1)
    if tol == 1.0:  # every cosine reaches 0: the lesser rank caps k
        assert np.array_equal(k, np.minimum(ranks[:, None], ranks))


@pytest.mark.parametrize("check", [spans_equal, subspace_intersection],
                         ids=lambda f: f.__name__)
def test_ambient_dimension_mismatch(check):
    with pytest.raises(ValueError, match="ambient dimensions differ: 4 vs 3"):
        check(np.eye(4)[:, :2], np.eye(3)[:, :2])


class TestSubspaceIntersection:
    @pytest.mark.parametrize("zero_first", [True, False])
    def test_dimension_zero_input(self, zero_first):
        M = np.random.default_rng(0).standard_normal((6, 2))
        pair = (np.zeros((6, 2)), M) if zero_first else (M, np.zeros((6, 2)))
        inter = subspace_intersection(*pair)
        assert inter.ambient_dim == 6 and inter.basis.shape == (6, 0)

    def test_same_space(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 3))
        inter = subspace_intersection(M, M)
        assert inter.dim == 3
        assert spans_equal(inter.basis, M)

    def test_shared_axis(self):
        e = np.eye(3)
        inter = subspace_intersection(e[:, [0, 1]], e[:, [1, 2]])
        assert inter.dim == 1
        assert spans_equal(inter.basis, e[:, [1]])

    def test_disjoint_is_empty(self):
        e = np.eye(4)
        inter = subspace_intersection(e[:, [0, 1]], e[:, [2, 3]])
        assert inter.dim == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_overlapping_blocks_of_rip_dictionary(self, seed):
        A, _, _ = make_rip_instance(16, 6, 2, 2, seed=10 * seed)
        inter = subspace_intersection(A.restrict((1, 2)), A.restrict((2, 3)))
        assert inter.dim == 2
        assert spans_equal(inter.basis, A.block(2))
        # cross-check against the stacked-nullspace oracle
        oracle = nullspace_intersection(A.restrict((1, 2)), A.restrict((2, 3)))
        assert oracle.shape[1] == 2
        assert spans_equal(inter.basis, oracle)

    @pytest.mark.parametrize("seed", range(4))
    def test_contained_in_both_inputs(self, seed):
        rng = np.random.default_rng(seed)
        shared = rng.standard_normal((10, 2))
        M1 = np.hstack([shared, rng.standard_normal((10, 2))])
        M2 = np.hstack([shared, rng.standard_normal((10, 3))])
        inter = subspace_intersection(M1, M2)
        assert inter.dim == 2
        for c in range(inter.dim):
            assert in_span(inter.basis[:, c], M1)
            assert in_span(inter.basis[:, c], M2)

    def test_dim_bounded_by_inputs(self):
        rng = np.random.default_rng(8)
        M1 = rng.standard_normal((9, 4))
        M2 = rng.standard_normal((9, 2))
        assert subspace_intersection(M1, M2).dim <= 2

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            subspace_intersection(np.eye(3), np.eye(4))


class TestLemma1:
    def test_orthonormal_true(self):
        structure = BlockStructure(K=4, alpha=2, s=2)
        A = BlockDict(structure, np.eye(10)[:, :8])
        assert check_lemma1(A, 2)

    def test_duplicated_block_false(self):
        A = gen_dictionary(12, BlockStructure(K=4, alpha=2, s=1), seed=3)
        A = A.with_block(4, A.block(2) @ np.array([[2.0, 1.0], [0.0, 1.0]]))
        assert not check_lemma1(A, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_rip_instance_true_with_exhaustive_oracle(self, seed):
        A, report, _ = make_rip_instance(16, 6, 2, 2, seed=100 + seed)
        assert report.delta < 1.0
        assert check_lemma1(A, 2)
        # oracle: exhaustive pair loop with the projector-difference criterion
        supports = list(combinations(range(1, 7), 2))
        for a, b in combinations(supports, 2):
            assert not spans_equal_oracle(A.restrict(a), A.restrict(b))

    @pytest.mark.parametrize("tol", [1e-8, 1e-6])
    def test_matches_per_pair_spans_equal(self, tol):
        """Batched check against a loop over pairs, across the equality threshold.

        Block 1 is zero, block 2 has rank 1 and block 5 mixes block 3 plus a
        perturbation eps; a principal angle of eps ~ sqrt(2 tol) sits at the
        threshold, so both outcomes occur.
        """
        rng = np.random.default_rng(0)
        structure = BlockStructure(K=5, alpha=2, s=2)
        base = gen_dictionary(10, structure, seed=4)
        base = base.with_block(1, np.zeros((10, 2)))
        base = base.with_block(2, np.outer(rng.standard_normal(10), [1.0, -2.0]))
        outcomes = set()
        for eps in [0.0, *np.geomspace(1e-6, 1e-1, 16)]:
            noise = rng.standard_normal((10, 2))
            mixed = base.block(3) @ np.array([[2.0, 1.0], [0.5, 1.0]])
            A = base.with_block(5, mixed + eps * noise / np.linalg.norm(noise))
            for s in (1, 2):
                supports = list(combinations(range(1, 6), s))
                bases = [orthonormal_basis(A.restrict(sup), tol) for sup in supports]
                expected = not any(
                    spans_equal(bases[a], bases[b], tol)
                    for a, b in combinations(range(len(bases)), 2)
                )
                assert check_lemma1(A, s, tol) == expected, (eps, s)
                outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("first, second", [(6, 7), (7, 8)])
    def test_matches_per_pair_spans_equal_across_screen_chunks(self, first, second):
        """K=10, alpha=2, s=2, P=12: 45 supports screened in 15 chunks of 3.

        Block `second` becomes a mix of block `first`, so the first equal pair
        in order is (1, first) with (1, second): supports 4 and 5 share the
        second chunk for (6, 7), supports 5 and 6 straddle its end for (7, 8).
        Chunk 0 holds no equal pair, so a wrong chunk offset would miss it.
        """
        rng = np.random.default_rng(1)
        structure = BlockStructure(K=10, alpha=2, s=2)
        base = gen_dictionary(12, structure, seed=8)
        supports = list(combinations(range(1, 11), 2))
        for eps in (0.0, 1e-9, 1e-3):
            noise = rng.standard_normal((12, 2))
            mixed = base.block(first) @ np.array([[1.0, -0.5], [2.0, 1.0]])
            A = base.with_block(second, mixed + eps * noise / np.linalg.norm(noise))
            bases = [orthonormal_basis(A.restrict(sup)) for sup in supports]
            expected = not any(spans_equal(bases[a], bases[b])
                               for a, b in combinations(range(len(bases)), 2))
            assert check_lemma1(A, 2) == expected == (eps == 1e-3), eps

    @pytest.mark.parametrize("tol", [1.0, 1.5])
    def test_tol_at_least_one_equates_all_supports(self, tol):
        # no singular value exceeds tol times the largest, so every span has
        # rank 0 and all supports, even orthogonal ones, span the same subspace
        A = BlockDict(BlockStructure(K=4, alpha=2, s=1), np.eye(10)[:, :8])
        assert all(orthonormal_basis(A.block(i), tol).dim == 0 for i in range(1, 5))
        assert check_lemma1(A, 1) and check_lemma1(A, 2)
        assert not check_lemma1(A, 1, tol) and not check_lemma1(A, 2, tol)
        assert spans_equal(A.block(1), A.block(2), tol)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_zero_block_screened_without_warning(self, monkeypatch, s):
        # supports holding the zero block are rank deficient; with the columns
        # past their rank zeroed, the screen passes none of their pairs
        kernel_calls = []
        kernel = subspace._spans_equal_stacked
        monkeypatch.setattr(subspace, "_spans_equal_stacked",
                            lambda *args: kernel_calls.append(args) or kernel(*args))
        A = gen_dictionary(12, BlockStructure(K=6, alpha=2, s=2), seed=5)
        A = A.with_block(4, np.zeros((12, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_lemma1(A, s)
        assert kernel_calls == []

    def test_kernel_calls_stay_near_2_20_entries(self, monkeypatch):
        # at tol 1 every span has rank 0 and every pair passes the screen: each row block's
        # pairs go to the kernel in one call, and the blocks are sized to keep that call small
        sizes = []
        kernel = subspace._spans_equal_stacked
        monkeypatch.setattr(subspace, "_spans_equal_stacked",
                            lambda Q1, *args: sizes.append(Q1.size) or kernel(Q1, *args))
        A = BlockDict(BlockStructure(K=300, alpha=1, s=1), np.eye(300))
        assert not check_lemma1(A, 1, 1.0)
        assert len(sizes) == 1 and 2**19 < sizes[0] <= 2**20

    def test_two_zero_blocks_share_the_zero_span(self):
        A = gen_dictionary(8, BlockStructure(K=4, alpha=2, s=1), seed=9)
        assert check_lemma1(A.with_block(1, np.zeros((8, 2))), 1)
        A = A.with_block(1, np.zeros((8, 2))).with_block(3, np.zeros((8, 2)))
        assert not check_lemma1(A, 1)

    def test_capacity(self):
        # C(40, 20)^2 support pairs, above the fixed enumeration cap
        structure = BlockStructure(K=40, alpha=1, s=20)
        A = BlockDict(structure, np.eye(40))
        with pytest.raises(CapacityError):
            check_lemma1(A, 20)


def lemma1_all_svd(A, s, tol=1e-8):
    """Reference: `check_lemma1` with every support's basis and rank from the SVD."""
    supports = _enumerate_supports(A.structure.K, s)
    cols = _support_columns(supports, A.structure.alpha)
    M = np.ldexp(A.data, -np.frexp(np.abs(A.data).max(initial=0.0))[1])  # check_lemma1's scale
    U, svals, _ = np.linalg.svd(M[:, cols].transpose(1, 0, 2), full_matrices=False)
    ranks = _numerical_rank(svals, tol)
    n, P, d = U.shape
    U *= np.arange(d) < ranks[:, None, None]
    flat = U.transpose(0, 2, 1).reshape(n * d, P)
    floor = ranks * (1.0 - tol) ** 2 - 1e-9
    step = max(1, P // (s * A.structure.alpha))
    for lo in range(0, n, step):
        fro2 = np.square(flat[lo * d : (lo + step) * d] @ flat[lo * d :].T)
        fro2 = fro2.reshape(-1, d, n - lo, d).sum(axis=(1, 3))
        same = ranks[lo : lo + step, None] == ranks[lo:]
        for a, b in lo + np.argwhere(np.triu(same & (fro2 >= floor[lo : lo + step, None]), 1)):
            if subspace._spans_equal_stacked(U[a, :, : ranks[a]], U[b, :, : ranks[a]], tol,
                                             ranks[a]):
                return False
    return True


def special_blocks(kind):
    """K=6, alpha=2, P=16 with block 4 zero, a copy of block 2 mixed, rank 1, or inside
    the span of blocks 1 and 2."""
    A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=11)
    mix = np.array([[2.0, 1.0], [-0.5, 1.0]])
    block = {
        "zero": np.zeros((16, 2)),
        "duplicate": A.block(2) @ mix,
        "rank-1": np.outer(A.block(3)[:, 0], [1.0, -3.0]),
        "in-span": A.block(1) @ mix + A.block(2) @ mix.T,
    }[kind]
    return A.with_block(4, block)


class TestLemma1Certificate:
    """The fallback, one batched SVD of every support, answers as the all-SVD check does."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-8, 1e-6, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500])
    @pytest.mark.parametrize("kind", ["zero", "duplicate", "rank-1", "in-span"])
    def test_special_blocks_match_the_svd_reference(self, kind, scale, tol):
        A = special_blocks(kind)
        A = BlockDict(A.structure, A.data * scale)
        for s in (1, 2, 3):
            assert check_lemma1(A, s, tol) == lemma1_all_svd(A, s, tol), s

    @pytest.mark.parametrize("kind, s, expected", [
        ("zero", 1, True), ("zero", 2, True), ("duplicate", 1, False),
        ("duplicate", 2, False), ("rank-1", 2, True), ("in-span", 1, True),
        ("in-span", 2, False),
    ])
    def test_special_blocks_at_the_default_tol(self, kind, s, expected):
        assert check_lemma1(special_blocks(kind), s) == expected

    @pytest.mark.parametrize("mode", ["per-block-orthonormal", "gaussian"])
    def test_seeded_dictionaries_match_the_svd_reference(self, mode):
        st = BlockStructure(K=12, alpha=2, s=2)
        for seed in range(200):
            A = gen_dictionary(48, st, seed=seed, mode=mode)
            assert check_lemma1(A, 2) == lemma1_all_svd(A, 2), seed

    @pytest.mark.parametrize("P, alpha", [(3, 2), (5, 3)])
    def test_supports_wider_than_the_ambient_space(self, P, alpha):
        # d > P: each support's basis has at most P columns, and a full-rank one spans R^P
        st = BlockStructure(K=5, alpha=alpha, s=1)
        for seed in range(5):
            A = gen_dictionary(P, st, seed=seed, mode="gaussian")
            for s in (1, 2, 3):
                for tol in (0.0, 1e-8, 0.5):
                    assert check_lemma1(A, s, tol) == lemma1_all_svd(A, s, tol), (seed, s, tol)

    @pytest.mark.parametrize("seed", [10, 15, 17])
    def test_the_allowance_keeps_a_borderline_support_on_the_svd(self, seed):
        # block 1 is [a, k a + 1e-9 v]; tol is the least at which the SVD's rank rule
        # gives it rank 1, though prod |r_ii| / ||R||_F of its QR still exceeds tol;
        # at rank 1 it spans block 2's line
        rng = np.random.default_rng(seed)
        a, v, g = rng.standard_normal((3, 6))
        block = np.column_stack([a, rng.standard_normal() * a + 1e-9 * v])
        svals = np.linalg.svd(block, compute_uv=False)
        tol = svals[1] / svals[0]
        while _numerical_rank(svals, tol) == 2:
            tol = np.nextafter(tol, 1.0)
        R = np.linalg.qr(block)[1]
        assert np.prod(np.abs(np.diag(R)) / np.linalg.norm(R)) > tol
        A = BlockDict(BlockStructure(K=3, alpha=2, s=1),
                      np.column_stack([block, a, 2 * a, g, rng.standard_normal(6)]))
        assert check_lemma1(A, 1, tol) == lemma1_all_svd(A, 1, tol) is False

    def test_generic_supports_take_no_svd(self, monkeypatch):
        # supports are factored only when the whitened certificate leaves them, all at once
        calls = record_bases(monkeypatch)
        st = BlockStructure(K=12, alpha=2, s=2)
        assert check_lemma1(gen_dictionary(48, st, seed=0), 2)
        assert calls == []
        assert check_lemma1(special_blocks("zero"), 2)
        assert calls == [15]  # all C(6, 2) supports in one call


def rotated_copy(mode, seed, theta, P=16):
    """K=6, alpha=2: block 4 spans block 2's span with one direction turned by theta out of
    it, so the two blocks' principal cosines are 1 and cos(theta)."""
    A = gen_dictionary(P, BlockStructure(K=6, alpha=2, s=2), seed=seed, mode=mode)
    Q = np.linalg.qr(A.block(2))[0]
    w = np.random.default_rng(seed).standard_normal(P)
    w -= Q @ (Q.T @ w)
    Q[:, 1] = np.cos(theta) * Q[:, 1] + np.sin(theta) * w / np.linalg.norm(w)
    return A.with_block(4, Q @ np.array([[2.0, 1.0], [-0.5, 1.0]]))


def record_bases(monkeypatch):
    """The number of supports of every `subspace._bases` call from here on, as a list that grows."""
    calls, bases = [], subspace._bases
    monkeypatch.setattr(subspace, "_bases", lambda M, tol: calls.append(len(M)) or bases(M, tol))
    return calls


class TestWhitenedCertificate:
    """The one-Gram certificate answers True only where the all-SVD check does."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-8, 1e-6, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500])
    @pytest.mark.parametrize("mode", ["per-block-orthonormal", "gaussian"])
    def test_rotated_block_matches_the_svd_reference(self, mode, scale, tol):
        # 1 - cos(theta) at half and twice tol (0 and 1e-6 at tol 0)
        for gap in (tol / 2, 2 * tol if tol else 1e-6):
            A = rotated_copy(mode, 5, np.arccos(max(1.0 - gap, -1.0)))
            A = BlockDict(A.structure, A.data * scale)
            for s in (1, 2, 3):
                assert check_lemma1(A, s, tol) == lemma1_all_svd(A, s, tol), (gap, s)
            if 0 < tol < 0.5:  # at s = 1 blocks 2 and 4 are the only pair near equality
                assert lemma1_all_svd(A, 1, tol) == (gap > tol), gap

    @pytest.mark.parametrize("mode, seed", [
        ("per-block-orthonormal", 20), ("gaussian", 2), ("gaussian", 13),
    ])
    def test_the_allowance_keeps_an_exact_copy_off_at_tol_zero(self, mode, seed):
        # theta = 0: on every T holding blocks 2 and 4 the whitened Gram's least eigenvalue is
        # 0 up to rounding, which leaves it above tol (2 - tol) = 0 for these seeds, while the
        # fallback's cosines round to 1: only the allowance keeps the certificate off
        A = rotated_copy(mode, seed, 0.0)
        assert check_lemma1(A, 1, 0.0) == lemma1_all_svd(A, 1, 0.0) is False

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-11])
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-8, 1e-6, 0.5])
    def test_ill_conditioned_block_matches_the_svd_reference(self, tol, eps):
        # block 4 = [a, a + eps v]: kappa ~ eps, which the rank margin must beat
        rng = np.random.default_rng(3)
        a, v = rng.standard_normal((2, 16))
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=3, mode="gaussian")
        A = A.with_block(4, np.column_stack([a, a + eps * v]))
        for s in (1, 2, 3):
            assert check_lemma1(A, s, tol) == lemma1_all_svd(A, s, tol), s

    @pytest.mark.parametrize("mode", ["per-block-orthonormal", "gaussian"])
    def test_seeded_dictionaries_reach_no_qr(self, monkeypatch, mode):
        st = BlockStructure(K=12, alpha=2, s=2)
        dicts = [gen_dictionary(48, st, seed=seed, mode=mode) for seed in range(200)]
        calls = record_bases(monkeypatch)
        assert all(check_lemma1(A, 2) for A in dicts)
        assert calls == []

    @pytest.mark.parametrize("mode", ["per-block-orthonormal", "gaussian"])
    def test_wide_supports_certify_without_qr(self, monkeypatch, mode):
        # P=64, K=8, alpha=4, s=4: d = 16, and lmax(G_T) > 2 on (s + 1)-block unions, so only
        # eigvalsh clears them
        st = BlockStructure(K=8, alpha=4, s=4)
        dicts = [gen_dictionary(64, st, seed=seed, mode=mode) for seed in range(3)]
        calls = record_bases(monkeypatch)
        assert all(check_lemma1(A, 4) for A in dicts)
        assert calls == []
        monkeypatch.undo()
        assert all(lemma1_all_svd(A, 4) for A in dicts)

    @pytest.mark.parametrize("top", [1e308, 2.0**-860, 2.0**-1040])
    def test_entries_near_the_ends_of_the_float_range_take_the_certificate(self, monkeypatch, top):
        # the certificate reads A at an exact power-of-two scale, which keeps every span: at
        # 1e308, where unscaled SVDs of three-block supports overflow, and at 2^-860 and
        # 2^-1040 (subnormal singular values) it answers as the all-SVD reference does on A
        # brought into range, with no fallback call
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=1, mode="gaussian")
        unit = BlockDict(A.structure, A.data / np.abs(A.data).max())
        A = BlockDict(A.structure, unit.data * top)
        expected = [lemma1_all_svd(unit, s) for s in (1, 2, 3)]
        calls = record_bases(monkeypatch)
        assert [check_lemma1(A, s) for s in (1, 2, 3)] == expected == [True, True, True]
        assert calls == []
        # block 2 in block 1's span: the fallback, at the same scale, still finds the equal spans
        mixed = unit.with_block(2, unit.block(1) @ np.array([[2.0, 1.0], [-0.5, 1.0]]))
        mixed = BlockDict(A.structure, mixed.data / np.abs(mixed.data).max() * top)
        assert [check_lemma1(mixed, s) for s in (1, 2, 3)] == [False] * 3

    @pytest.mark.parametrize("K", [5, 6, 8])
    def test_subnormal_dictionaries_match_the_svd_reference(self, K):
        # at 2^-1040 singular values are subnormal, and dependent supports must still rank short
        for seed in range(30):
            A = gen_dictionary(16, BlockStructure(K=K, alpha=2, s=2), seed=seed, mode="gaussian")
            A = BlockDict(A.structure, np.ldexp(A.data, -1040))
            for tol in (0.0, 1e-8, 1e-6, 0.5):
                for s in (1, 2):
                    assert check_lemma1(A, s, tol) == lemma1_all_svd(A, s, tol), (seed, tol, s)

    @pytest.mark.parametrize("tol", [0.0, 1e-8, 2.0])
    def test_one_support_and_blocks_wider_than_the_ambient_space(self, tol):
        # s = K leaves no (s + 1)-block union and no pair; alpha > P leaves no whitening
        A = gen_dictionary(8, BlockStructure(K=3, alpha=2, s=3), seed=1)
        assert check_lemma1(A, 3, tol)
        A = BlockDict(BlockStructure(K=3, alpha=4, s=1), np.random.default_rng(1).standard_normal((3, 12)))
        for s in (1, 2):
            assert check_lemma1(A, s, tol) == lemma1_all_svd(A, s, tol), s


class TestLemma2:
    def test_equal_supports(self):
        A, _, _ = make_rip_instance(16, 6, 2, 2, seed=7)
        assert check_lemma2(A, (1, 2), (1, 2))

    def test_disjoint_supports_orthonormal(self):
        structure = BlockStructure(K=4, alpha=2, s=2)
        A = BlockDict(structure, np.eye(10)[:, :8])
        assert check_lemma2(A, (1, 2), (3, 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_overlapping_supports_on_rip_instance(self, seed):
        A, report, _ = make_rip_instance(16, 6, 2, 2, seed=200 + seed)
        assert report.delta < 1.0
        assert check_lemma2(A, (1, 2), (2, 3))
        # membership oracle: common random vectors live in the shared block's span
        rng = np.random.default_rng(seed)
        inter = subspace_intersection(A.restrict((1, 2)), A.restrict((2, 3)))
        for _ in range(5):
            v = inter.basis @ rng.standard_normal(inter.dim)
            assert in_span(v, A.block(2))

    def test_disjoint_supports_with_intersecting_spans(self):
        # four generic lines in R^3: any two planes they span share a line
        A = gen_dictionary(3, BlockStructure(K=4, alpha=1, s=2), seed=1, mode="gaussian")
        assert not check_lemma2(A, (1, 2), (3, 4))

    def test_wrong_size_rejected(self):
        A, _, _ = make_rip_instance(16, 6, 2, 2, seed=7)
        with pytest.raises(ValueError):
            check_lemma2(A, (1,), (2, 3))
        with pytest.raises(ValueError):
            check_lemma2(A, (1, 9), (2, 3))


def lemma2_one_pair(A, tol=1e-8):
    """Reference: Lemma 2 on every ordered pair of size-s supports, one pair at a time, as
    `subspace_intersection` and `spans_equal` decide it, on each block set's own SVD basis."""
    supports = [tuple(S) for S in _enumerate_supports(A.structure.K, A.structure.s).tolist()]
    bases = {}

    def basis(S):
        if S not in bases:
            U, svals, _ = np.linalg.svd(A.restrict(S), full_matrices=False)
            bases[S] = U[:, : _numerical_rank(svals, tol)]
        return bases[S]

    def holds(S, S2):
        W, cos, _ = np.linalg.svd(basis(S).T @ basis(S2))
        inter = basis(S) @ W[:, : np.sum(cos >= 1.0 - tol)]
        common = basis(tuple(sorted(set(S) & set(S2))))
        return inter.shape == common.shape and bool(
            np.all(np.linalg.svd(inter.T @ common, compute_uv=False) >= 1.0 - tol))

    return np.array([[holds(S, S2) for S2 in supports] for S in supports])


def lemma2_fixture(seed, kind):
    """A criterion-shape dictionary (P=16, K=6, alpha=2, s=2, delta_4 < 1), with block 4 a
    mixed copy of block 2, block 3 inside the span of blocks 1 and 2, or block 5 zero."""
    A, _, _ = make_rip_instance(16, 6, 2, 2, seed)
    mix = np.array([[2.0, 1.0], [-0.5, 1.0]])
    if kind == "repeated":
        return A.with_block(4, A.block(2) @ mix)
    if kind == "in-span":
        return A.with_block(3, A.block(1) @ mix + A.block(2) @ mix.T)
    return A.with_block(5, np.zeros((16, 2))) if kind == "zero" else A


LEMMA2_KINDS = ("seeded", "repeated", "in-span", "zero")


class TestLemma2AllPairs:
    """The stacked kernel gives the one-pair check's answer on every ordered pair."""

    def test_seeded_dictionaries_match_the_one_pair_check(self):
        # 20 dictionaries, every fourth left as drawn and the rest given one special block
        supports = list(combinations(range(1, 7), 2))
        false = dict.fromkeys(LEMMA2_KINDS, 0)
        for seed in range(20):
            kind = LEMMA2_KINDS[seed % 4]
            A = lemma2_fixture(300 + seed, kind)
            holds = lemma2_all_pairs(A)
            assert holds.shape == (15, 15)
            one_pair = [[check_lemma2(A, S, S2) for S2 in supports] for S in supports]
            assert holds.tolist() == one_pair, (seed, kind)
            assert np.array_equal(holds, lemma2_one_pair(A)), (seed, kind)
            false[kind] += int(np.sum(~holds))
        # block 4 repeats block 2's span, so (2, j) and (4, j) share it beyond block j; block 3
        # in span(1, 2) makes (1, 3) and (2, 3) both span span(1, 2), beyond their block 3
        assert false["seeded"] == false["zero"] == 0
        assert false["repeated"] > 0 and false["in-span"] > 0

    @pytest.mark.parametrize("kind", LEMMA2_KINDS)
    @pytest.mark.parametrize("tol", [1e-12, 1e-4, 0.3, 1.0, 2.0])
    def test_tolerances_match_the_reference(self, kind, tol):
        A = lemma2_fixture(7, kind)
        assert np.array_equal(lemma2_all_pairs(A, tol=tol), lemma2_one_pair(A, tol))

    def test_repeated_block_fails_exactly_where_the_spans_meet(self):
        # block 4 spans block 2's plane: S and S2 fail iff each holds 2 or 4 and their
        # shared blocks hold neither, so the plane lies in both spans but not in the shared one
        supports = list(combinations(range(1, 7), 2))
        holds = lemma2_all_pairs(lemma2_fixture(0, "repeated"))
        for (a, S), (b, S2) in product(enumerate(supports), repeat=2):
            meet = {2, 4} & set(S) and {2, 4} & set(S2) and not {2, 4} & set(S) & set(S2)
            assert holds[a, b] == (not meet), (S, S2)
        assert np.sum(~holds) == 2 * 4 * 4  # (2, j) against (4, k), j, k not in {2, 4}

    @pytest.mark.parametrize("P", [8, 5])
    def test_supports_of_rank_below_s_alpha(self, P):
        # s = 3 with block 2 a mixed copy of block 1; at P = 5 every support is wider than R^P
        A = gen_dictionary(P, BlockStructure(K=5, alpha=2, s=3), seed=2, mode="gaussian")
        A = A.with_block(2, A.block(1) @ np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.array_equal(lemma2_all_pairs(A), lemma2_one_pair(A))

    def test_capacity(self):
        # C(40, 20)^2 support pairs, above the fixed enumeration cap
        A = BlockDict(BlockStructure(K=40, alpha=1, s=20), np.eye(40))
        with pytest.raises(CapacityError, match="pairs exceeds the enumeration cap"):
            lemma2_all_pairs(A, 20)
        with pytest.raises(CapacityError):
            lemma2_all_pairs(BlockDict(BlockStructure(K=1001, alpha=1, s=1), np.eye(1001)))


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
@pytest.mark.parametrize(
    "entry",
    [
        lambda A, tol: orthonormal_basis(A.block(1), tol),
        lambda A, tol: spans_equal(A.block(1), A.block(1), tol),
        lambda A, tol: spans_equal(orthonormal_basis(A.block(1)),
                                   orthonormal_basis(A.block(2)), tol),
        lambda A, tol: subspace_intersection(A.block(1), A.block(2), tol),
        lambda A, tol: check_lemma1(A, 1, tol),
        lambda A, tol: check_lemma2(A, (1, 2), (2, 3), tol),
        lambda A, tol: lemma2_all_pairs(A, 2, tol),
    ],
    ids=["orthonormal_basis", "spans_equal", "spans_equal_bases",
         "subspace_intersection", "check_lemma1", "check_lemma2", "lemma2_all_pairs"],
)
def test_negative_or_nan_tol_rejected(entry, tol):
    A, _, _ = make_rip_instance(16, 5, 2, 2, seed=41)
    with pytest.raises(ValueError, match="tol"):
        entry(A, tol)


def kahan(n, c):
    """Kahan's n x n upper triangular matrix at cos theta = c: diag(1, s, ..., s^(n-1)) times
    I - c (the strictly upper ones), whose small singular value its diagonal hides."""
    s = np.sqrt(1.0 - c * c)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def qr_cases():
    """{name: list of P x n supports, one (P, n) per name}: random; nearly dependent (last column
    the first plus 10^-k noise, k = 2..12); Kahan-type; columns scaled by 10^+-3; a zero and a
    rank-1 block; supports wider than P."""
    rng = np.random.default_rng(48)
    cases = {f"random-{P}x{n}": list(rng.standard_normal((40, P, n)))
             for P, n in [(16, 1), (16, 2), (16, 4), (16, 6), (6, 6), (48, 6)]}
    near = []
    for k, _ in product(range(2, 13), range(4)):
        M = rng.standard_normal((16, 4))
        M[:, -1] = M[:, 0] + 10.0**-k * rng.standard_normal(16)
        near.append(M)
    cases["nearly-dependent"] = near
    for n in (4, 6, 8):  # an orthonormal frame times Kahan's matrix: its R is Kahan's up to signs
        cases[f"kahan-{n}"] = [np.linalg.qr(rng.standard_normal((16, n)))[0] @ kahan(n, c)
                               for c in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    cases["scaled-columns"] = [rng.standard_normal((16, 4)) * 10.0 ** rng.choice([-3, 0, 3], 4)
                               for _ in range(40)]
    a = rng.standard_normal(16)
    cases["zero-and-rank-1"] = [np.zeros((16, 2)), np.outer(a, [1.0, 2.0]),
                                rng.standard_normal((16, 2))]
    cases["wider-than-P"] = list(rng.standard_normal((10, 3, 4))) + [np.zeros((3, 4))]
    return cases


def triangular_bound(M):
    """rho / (n (1 + 1/rho)^(n-1)), rho = min |r_kk| / R's largest column norm, per (P, n) matrix
    of the stack M with n <= P: a lower bound on sigma_min / sigma_max; 0 where rho is 0 or NaN."""
    R, n = np.linalg.qr(M)[1], M.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho = np.abs(np.diagonal(R, axis1=1, axis2=2)).min(1) / np.linalg.norm(R, axis=1).max(1)
        return np.nan_to_num(rho / (n * (1 + 1 / rho) ** (n - 1)))


class TestSupportBasesQR:
    """`_support_bases` keeps a stacked QR's Q where R proves full rank under the rank rule: every
    rank is `_bases`' rank, every basis spans what `_bases`' does, and a support the bound does not
    certify gets `_bases`' bytes."""

    @staticmethod
    def support_bases(mats, monkeypatch, tol=1e-8):
        """`_support_bases` at tol of the matrices as the singletons of one dictionary, the
        unit-scaled stack, and the supports of each `_bases` call it makes."""
        P, n = mats[0].shape
        D = BlockDict(BlockStructure(K=len(mats), alpha=n, s=1), np.hstack(mats))
        calls, bases = [], subspace._bases
        monkeypatch.setattr(subspace, "_bases", lambda M, tol: calls.append(M) or bases(M, tol))
        Q, ranks = subspace._support_bases((D, np.arange(1, len(mats) + 1)[:, None]), tol=tol)
        monkeypatch.undo()
        return Q, ranks, _unit_scale(np.stack(mats), (1, 2))[0], calls

    @pytest.mark.parametrize("cut", ["rank-rule", "lstsq"])  # 1e-8, or eps max(P, n)
    @pytest.mark.parametrize("name", list(qr_cases()))
    def test_ranks_and_spans_are_the_svds(self, monkeypatch, name, cut):
        mats = qr_cases()[name]
        tol = 1e-8 if cut == "rank-rule" else np.finfo(float).eps * max(mats[0].shape)
        Q, ranks, M, calls = self.support_bases(mats, monkeypatch, tol)
        (P, n), e = M.shape[1:], 16 * M.shape[1] * M.shape[2] ** 2 * np.finfo(float).eps
        U, expected = subspace._bases(M, tol)[:2]
        assert Q.shape == U.shape and np.array_equal(ranks, expected)
        assert subspace._spans_equal_stacked(Q, U, 1e-8, ranks).all()
        proved = (triangular_bound(M) > tol + 2 * e) if n <= P else np.zeros(len(M), bool)
        assert (ranks[proved] == n).all()
        assert np.array_equal(Q[~proved], U[~proved])  # `_bases`' bytes
        assert np.array_equal(np.concatenate(calls) if calls else M[:0], M[~proved])
        # a rank-short support never passes as full rank (a >= test took 0 >= 0 as proof)
        assert not proved[expected < n].any()
        if name == "zero-and-rank-1":  # and one random block
            assert proved.tolist() == [False, False, True] and len(calls) == 1
        if name == "wider-than-P":
            assert not proved.any() and len(calls) == 1
        if name in ("random-16x1", "random-16x2", "random-16x4"):  # verify's usual supports
            assert proved.all() and not calls

    def test_the_bound_holds_on_every_case(self):
        # brute force: sigma_min / sigma_max of each support is at least the bound
        ratios, bounds = [], []
        for mats in qr_cases().values():
            M = _unit_scale(np.stack(mats), (1, 2))[0]
            if M.shape[2] > M.shape[1]:
                continue
            sv, bound = np.linalg.svd(M, compute_uv=False), triangular_bound(M)
            assert (sv[:, -1] >= bound * sv[:, 0]).all()
            ratios += (sv[bound > 0, -1] / sv[bound > 0, 0]).tolist()
            bounds += bound[bound > 0].tolist()
        assert len(ratios) > 300 and min(np.divide(ratios, bounds)) >= 1.0
