"""Block-sparse dictionary identifiability toolkit.

Computes block restricted isometry constants, decides span-level
uniqueness properties, recovers the block-permutation/block-diagonal
equivalence between dictionaries, codes measurements block-sparsely, and
validates the whole uniqueness story on synthetic instances.
"""

from .coding import (
    DEFAULT_CODING_TOL,
    METHOD_EXHAUSTIVE,
    METHOD_OMP,
    CodingResult,
    block_omp,
    exhaustive_code,
)
from .core import (
    DEFAULT_SUPPORT_TOL,
    BlockDict,
    BlockSparseVec,
    BlockStructure,
    Support,
    as_support,
    block_support,
    make_indicator,
)
from .equivalence import (
    DEFAULT_CERTIFICATE_TOL,
    STATUS_AMBIGUOUS,
    STATUS_EQUIVALENT,
    STATUS_NOT_EQUIVALENT,
    STATUS_OUT_OF_RANGE,
    BlockDiagonal,
    BlockPermutation,
    EquivalenceCertificate,
    KappaResult,
    MatchReport,
    TheoremReport,
    apply_transform,
    construct_kappa,
    make_equivalent_dict,
    match_blocks,
    recover_equivalence,
    solve_block_transform,
    verify_theorem_instance,
)
from .errors import CapacityError, HypothesisViolationError, RankError
from .harness import (
    MODE_BLOCK_ORTH,
    MODE_GAUSSIAN,
    ExperimentConfig,
    ExperimentReport,
    LearnTrace,
    gen_block_diagonal,
    gen_block_permutation,
    gen_codes,
    gen_dictionary,
    gen_rip_dictionary,
    learn_dictionary,
    run_experiment,
    trace_to_csv,
)
from .matrixio import read_matrix_text, write_matrix_text
from .rip import (
    DEFAULT_ENUMERATION_CAP,
    MODE_EXACT,
    MODE_SAMPLED,
    RipReport,
    rip_constant,
    rip_constant_exact,
    rip_constant_for_support,
    rip_lower_bound_sampled,
)
from .subspace import (
    DEFAULT_RANK_TOL,
    SubspaceBasis,
    check_lemma1,
    check_lemma2,
    lemma2_all_pairs,
    orthonormal_basis,
    spans_equal,
    subspace_intersection,
)

__version__ = "0.1.0"
