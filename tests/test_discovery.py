from itertools import combinations

import numpy as np

from blockdict import BlockStructure, gen_dictionary, orthonormal_basis, spans_equal
from blockdict.discovery import (DISCOVERY_MEMBER_TOL, _discover_block_spans, extract_blocks,
                                 support_spans)

from conftest import sequential_gen_codes

ST = BlockStructure(K=6, alpha=2, s=2)


def true_support_spans(A, supports):
    return [orthonormal_basis(A.restrict(S)).basis for S in supports]


def true_block_owners(A, blocks):
    """Per found block, the true blocks whose span it equals."""
    return [[i for i in range(1, A.structure.K + 1) if spans_equal(b, A.block(i))]
            for b in blocks]


class TestExtractBlocks:
    def test_true_support_spans_give_every_block(self):
        A = gen_dictionary(16, ST, seed=0)
        spans = true_support_spans(A, combinations(range(1, ST.K + 1), ST.s))
        blocks = extract_blocks(spans, ST, DISCOVERY_MEMBER_TOL)
        assert len(blocks) == ST.K
        assert all(b.shape == (16, ST.alpha) for b in blocks)
        owners = true_block_owners(A, blocks)
        assert sorted(owners) == [[i] for i in range(1, ST.K + 1)]

    def test_no_span_is_pulled_after_the_kth_block(self):
        # supports {1,2}, {2,3}, ..., {6,1}: each meets the one before in a new block, and the
        # last completes blocks 1 and 6; pulling once more fails
        A = gen_dictionary(16, ST, seed=0)
        cycle = [(i, i % ST.K + 1) for i in range(1, ST.K + 1)]
        pulled = []

        def spans():
            for span in true_support_spans(A, cycle):
                pulled.append(span)
                yield span
            raise AssertionError("a span was pulled after the K-th block")

        blocks = extract_blocks(spans(), ST, DISCOVERY_MEMBER_TOL)
        assert len(pulled) == ST.K and len(blocks) == ST.K
        assert sorted(true_block_owners(A, blocks)) == [[i] for i in range(1, ST.K + 1)]

    def test_pulls_only_the_prefix_that_completes_the_blocks(self):
        # lexicographic support spans: the shortest prefix holding K blocks is all it pulls
        A = gen_dictionary(16, ST, seed=1)
        spans = true_support_spans(A, combinations(range(1, ST.K + 1), ST.s))
        m = next(m for m in range(len(spans) + 1)
                 if len(extract_blocks(spans[:m], ST, DISCOVERY_MEMBER_TOL)) == ST.K)
        assert m < len(spans)

        def prefix_then_fail():
            yield from spans[:m]
            raise AssertionError("a span was pulled after the K-th block")

        blocks = extract_blocks(prefix_then_fail(), ST, DISCOVERY_MEMBER_TOL)
        assert [b.tobytes() for b in blocks] == [
            b.tobytes() for b in extract_blocks(spans, ST, DISCOVERY_MEMBER_TOL)]

    def test_disjoint_spans_give_no_block(self):
        A = gen_dictionary(16, ST, seed=0)
        spans = true_support_spans(A, [(1, 2), (3, 4), (5, 6)])
        assert extract_blocks(spans, ST, DISCOVERY_MEMBER_TOL) == []


class TestSupportSpans:
    def test_noiseless_criterion7_spans_are_true_support_spans(self):
        A = gen_dictionary(16, ST, seed=0)
        Y = A.data @ sequential_gen_codes(ST, 300, seed=1)
        supports = list(combinations(range(1, ST.K + 1), ST.s))
        found = list(support_spans(Y, ST))
        assert 0 < len(found) <= min(3 * len(supports), 60)
        for span in found:
            assert np.allclose(span.T @ span, np.eye(span.shape[1]), atol=1e-10)
            assert sum(spans_equal(span, A.restrict(S)) for S in supports) == 1

    def test_nothing_to_find(self):
        # s = K: every sample shares one support; fewer than s*alpha + 2 nonzero samples
        A = gen_dictionary(16, ST, seed=0)
        Y = A.data @ sequential_gen_codes(ST, 300, seed=1)
        assert list(support_spans(Y, BlockStructure(K=6, alpha=2, s=6))) == []
        assert list(support_spans(np.zeros((16, 300)), ST)) == []
        assert _discover_block_spans(np.zeros((16, 300)), ST, noise_level=1e-3) == []
        assert list(support_spans(Y[:, :5], ST)) == []
