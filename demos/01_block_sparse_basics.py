"""
Block-sparse vectors and dictionaries
=====================================

The model: a length K*alpha vector split into K blocks of height alpha,
with at most s blocks active. This script builds the running example
[1, 2, 0, 0, 0, 0, 0, 3, 0, 0] (K=5, alpha=2), extracts its support,
and shows an indicator vector.
"""

import numpy as np

from blockdict import BlockStructure, block_support, make_indicator

structure = BlockStructure(K=5, alpha=2, s=2)

v = np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0])
print("vector:", v)
print("blocks:", [v[structure.block_slice(i)] for i in range(1, 6)])
print("active blocks:", block_support(v, structure, tol=0.0))

# indicator with a single 1 at entry j of block i
e = make_indicator(structure, i=4, j=2)
print("\nindicator (i=4, j=2):", e.values, "support:", e.support)
