"""
Block restricted isometry constants
===================================

delta at level t is the worst-case deviation of ||A x||^2 from ||x||^2
over t-block-sparse x, computed per support from the extremal eigenvalues
of the restricted Gram matrix. Exact enumeration visits all C(K, t)
supports; the sampled variant gives a deterministic lower bound.
"""

import json

import numpy as np

from blockdict import (
    BlockDict,
    BlockStructure,
    gen_dictionary,
    rip_constant_exact,
    rip_constant_for_support,
    rip_lower_bound_sampled,
)

structure = BlockStructure(K=6, alpha=2, s=2)

# orthonormal columns: perfectly conditioned, delta = 0
ortho = BlockDict(structure, np.eye(16)[:, :12])
print("orthonormal dictionary, delta_4 =", rip_constant_exact(ortho, 4).delta)

# random per-block-orthonormal dictionaries: delta grows with coherence,
# shrinking as the ambient dimension grows
for P in (16, 32, 64, 128):
    A = gen_dictionary(P, structure, seed=7)
    report = rip_constant_exact(A, 4)
    print(f"P={P:4d}: delta_4 = {report.delta:.3f}  worst support {report.worst_support}")

A = gen_dictionary(32, structure, seed=7)
print("\nper-support values on the P=32 instance:")
for sup in [(1, 2), (1, 2, 3), (1, 2, 3, 4)]:
    print(f"  delta{sup} = {rip_constant_for_support(A, sup):.4f}")

sampled = rip_lower_bound_sampled(A, 4, n_samples=5, seed=0)
exact = rip_constant_exact(A, 4)
print(f"\nsampled lower bound from 5 supports: {sampled.delta:.4f} "
      f"<= exact {exact.delta:.4f}")
print("\nreport JSON:", json.dumps(exact.to_dict()))
