"""Jordan shapes of mutually annihilating nilpotent matrix pairs.

Decide which pairs of Jordan forms (sh A, sh B) admit nilpotent A, B with
AB = BA = 0, enumerate the full shape sets, construct explicit witnesses,
reduce concrete matrices to the corner normal form, and verify everything
against exhaustive or sampled brute force over exact fields.

The slow reference twins the test suite checks all of this against live in
`nilpairs.oracles`, which is not re-exported here.
"""

from .fields import GF, GF2, GF3, QQ, FieldSpec, parse_field
from .matrix import ExactMatrix, NotNilpotent, jordan_matrix, jordanize_nilpotent
from .partitions import (
    CoreSplit,
    Partition,
    canonical_sorted,
    conjugate,
    enumerate_partitions,
    format_partition,
    from_core,
    ord_parts,
    parse_partition,
    split_core,
)
from .structure import (
    BudgetExceeded,
    FreeCoordinates,
    candidate_count,
    free_coordinates,
    is_annihilating_form,
    matches_annihilating_pattern,
    sample_nilpotent_candidate,
)
from .reduction import (
    PreconditionViolated,
    ReducedPair,
    ReductionError,
    is_reduced,
    reduce,
)
from .jordan import (
    ChainProfile,
    InternalInconsistency,
    chain_profile,
    rank_formula,
    shape_of_reduced,
)
from .census import (
    VerifyReport,
    exhaustive_shape_census,
    sampled_shape_census,
    verify_shapes,
)
from .characterize import (
    Certificate,
    ConstructionMismatch,
    DualCheckMismatch,
    Incompatible,
    WitnessPair,
    compatible,
    component_pairs,
    enumerate_shapes,
    enumerate_vnab,
    witness,
)

__version__ = "0.1.0"
