"""
Recovering the block-permutation / block-diagonal equivalence
=============================================================

If two dictionaries explain the same block-sparse measurements, one is
the other up to permuting blocks and mixing inside blocks. This script
plants a random transform, recovers it from the dictionaries alone, and
probes the support-to-support map kappa that the relation induces.
"""

import numpy as np

from blockdict import (
    BlockStructure,
    apply_transform,
    construct_kappa,
    gen_block_diagonal,
    gen_block_permutation,
    gen_dictionary,
    make_equivalent_dict,
    recover_equivalence,
    rip_constant_exact,
    verify_theorem_instance,
)

structure = BlockStructure(K=5, alpha=2, s=2)

for seed in range(2000):
    A = gen_dictionary(16, structure, seed=seed)
    if rip_constant_exact(A, 4).delta < 1.0:
        break

perm = gen_block_permutation(5, seed=99)
diag = gen_block_diagonal(structure, seed=100)
B = make_equivalent_dict(A, perm, diag)
print("planted permutation:", perm.pi)

cert = recover_equivalence(A, B)
print("recovered status:", cert.status)
print("recovered permutation:", cert.permutation.pi)
print("worst relative block residual:", cert.residual)
print("max |D_recovered - D_planted| =",
      max(np.max(np.abs(g - w)) for g, w in zip(cert.diagonal.blocks, diag.blocks)))

round_trip = apply_transform(B, cert.permutation, cert.diagonal)
print("apply_transform(B, pi, D) reproduces A:",
      np.max(np.abs(round_trip.data - A.data)) < 1e-10)

print("\nkappa by probing: each A-support maps to the B-support with equal span")
for S in [(1, 2), (2, 4), (3, 5)]:
    res = construct_kappa(A, B, S, n_probes=8, seed=0)
    print(f"  kappa{S} = {res.kappa}  consistent={res.consistent}")

report = verify_theorem_instance(A, B, s=2, n_probes=4, seed=0)
print("\nend-to-end check: hypothesis holds =", report.hypothesis_holds,
      "| certificate =", report.certificate.status,
      "| kappa singletons agree with pi =", report.agreement)

# negative control: corrupt one block and the hypothesis fails exactly there
rng = np.random.default_rng(1)
B_bad = A.with_block(3, np.linalg.qr(rng.standard_normal((16, 2)))[0])
report = verify_theorem_instance(A, B_bad, s=2, n_probes=3, seed=0)
failing = [tuple(e["support"]) for e in report.hypothesis_supports if "error" in e]
print("\nafter corrupting block 3, hypothesis fails on supports:", failing)
