"""
Span separation and intersection
================================

Two facts about block spans under a restricted isometry constant below 1:
distinct size-s supports span distinct subspaces (so support identity is
recoverable from spans alone), and the intersection of two support spans
is exactly the span of the shared blocks. Both are decided numerically
through principal angles.
"""

from itertools import combinations

import numpy as np

from blockdict import (
    BlockStructure,
    check_lemma1,
    check_lemma2,
    gen_dictionary,
    lemma2_all_pairs,
    rip_constant_exact,
    spans_equal,
    subspace_intersection,
)

structure = BlockStructure(K=6, alpha=2, s=2)

A = None
for seed in range(2000):
    cand = gen_dictionary(16, structure, seed=seed)
    report = rip_constant_exact(cand, 4)
    if report.delta < 1.0:
        A = cand
        print(f"instance found at seed {seed}: delta_4 = {report.delta:.3f} < 1")
        break

print("\nall size-2 supports span distinct subspaces:", check_lemma1(A, 2))

S, S2 = (1, 2), (2, 3)
inter = subspace_intersection(A.restrict(S), A.restrict(S2))
print(f"\ndim(span{S} & span{S2}) = {inter.dim} (blocks share block 2, alpha = 2)")
print("intersection equals span of block 2:", spans_equal(inter.basis, A.block(2)))
print("lemma-2 check on that pair:", check_lemma2(A, S, S2))

# every ordered pair at once: one stacked kernel, of which check_lemma2 is the one-pair view
holds = lemma2_all_pairs(A, 2)
print(f"lemma-2 over all {holds.size} support pairs:", bool(holds.all()))

# a duplicated block breaks span separation
B = A.with_block(5, A.block(1) @ np.array([[1.0, 2.0], [0.0, 1.0]]))
print("\nafter duplicating block 1's span into block 5:")
print("  spans still distinct?", check_lemma1(B, 1))
print("  delta_2 =", rip_constant_exact(B, 2).delta, "(>= 1, as span collisions force)")
supports = list(combinations(range(1, 7), 2))
failing = [(supports[a], supports[b]) for a, b in np.argwhere(~lemma2_all_pairs(B, 2))]
print(f"  lemma-2 fails on {len(failing)} of 225 pairs, e.g. {failing[0]}")
