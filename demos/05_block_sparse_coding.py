"""
Block-sparse coding: greedy and exact
=====================================

block_omp greedily selects the block most correlated with the residual;
exhaustive_code scores every size-s support by its projection residual
and is the ground-truth oracle. With a restricted isometry constant below 1 the
exact coder provably returns the planted code. gen_codes returns planted
codes as the columns of a K*alpha x N matrix; BlockSparseVec.from_values
reads a column's block support.
"""

import numpy as np

from blockdict import (
    BlockSparseVec,
    BlockStructure,
    block_omp,
    exhaustive_code,
    gen_codes,
    gen_dictionary,
    rip_constant_exact,
)

structure = BlockStructure(K=6, alpha=2, s=2)

for seed in range(500):
    A = gen_dictionary(48, structure, seed=seed)
    report = rip_constant_exact(A, 4)
    if report.delta < 0.6:
        break
print(f"dictionary: P=48, delta_4 = {report.delta:.3f}")

x = BlockSparseVec.from_values(structure, gen_codes(structure, 1, seed=3)[:, 0])
y = A.data @ x.values
print("planted support:", x.support)

greedy = block_omp(A, y, s=2)
oracle = exhaustive_code(A, y, s=2)
print(f"block-omp:  support {greedy.code.support}, residual {greedy.residual_norm:.2e}")
print(f"exhaustive: support {oracle.code.support}, residual {oracle.residual_norm:.2e}")
print("oracle coefficient error:", np.max(np.abs(oracle.code.values - x.values)))

# the oracle never does worse than the greedy coder
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    y = rng.standard_normal(48)
    g = block_omp(A, y, s=2, tol=0.0)
    e = exhaustive_code(A, y, s=2, tol=0.0)
    worst = max(worst, e.residual_norm - g.residual_norm)
print(f"\nmax (exhaustive - greedy) residual over 200 random y: {worst:.2e} (<= 0)")
