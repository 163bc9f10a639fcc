"""Exact lines on the Pfaffian quadric complete intersection Q in P^11.

The package constructs and classifies lines on the complete intersection of
the four Pfaffian quadrics whose lines are the first construction step for
marked numerical Godeaux surfaces: samplers for generic and special lines,
rank stratification of the 4x6 a-matrix along a line, the three torsion
P^3's, explicitly parametrized hyperelliptic / two-torsion / one-torsion
line families with symbolic verifiers, and the kernel degrees of the
associated pencil of skew blocks.  All arithmetic is exact (prime fields or
rationals); every object is immutable and safe to share between tasks.
"""

from .certificates import Certificate
from .families import (
    BaseLocusError,
    hyp_components,
    hyp_point,
    sample_component_line,
    verify_hyp_param,
    verify_para_v2,
    verify_z3_kernel,
    verify_z3_line,
    verify_z5_family,
    z3_line,
    z5_component_counts,
    z5_line,
)
from .fields import (
    DEFAULT_PRIMES,
    Field,
    PrimeField,
    QQ,
    RationalField,
    field_from_spec,
)
from .geometry import (
    AIDX,
    LineA,
    ORDER,
    PointA,
    canonical_skew_matrices,
    line_in_q,
    pfaffian4,
    quadrics,
    tangent_space,
)
from .pencil import (
    BinaryForm,
    binary_gcd,
    binary_roots,
    degeneration_profile,
    graded_kernel_basis,
)
from .polynomials import Poly, PolyMatrix, VarTable, bounded_degree_kernel
from .sampling import BudgetExhausted, sample_line
from .strata import (
    FiberReport,
    TORSION_SPACES,
    TorsionSpace,
    classify_line,
    hyperelliptic_points,
    quadric_symmetries,
    rank_a,
    row_vanishing_points,
    torsion_intersections,
    torsion_space,
    verify_symmetries,
    verify_torsion_spaces,
)

__version__ = "0.1.0"

__all__ = [
    "AIDX",
    "BaseLocusError",
    "BinaryForm",
    "BudgetExhausted",
    "Certificate",
    "DEFAULT_PRIMES",
    "FiberReport",
    "Field",
    "LineA",
    "ORDER",
    "Poly",
    "PolyMatrix",
    "PointA",
    "PrimeField",
    "QQ",
    "RationalField",
    "TORSION_SPACES",
    "TorsionSpace",
    "VarTable",
    "binary_gcd",
    "binary_roots",
    "bounded_degree_kernel",
    "canonical_skew_matrices",
    "classify_line",
    "degeneration_profile",
    "field_from_spec",
    "graded_kernel_basis",
    "hyp_components",
    "hyp_point",
    "hyperelliptic_points",
    "line_in_q",
    "pfaffian4",
    "quadric_symmetries",
    "quadrics",
    "rank_a",
    "row_vanishing_points",
    "sample_component_line",
    "sample_line",
    "tangent_space",
    "torsion_intersections",
    "torsion_space",
    "verify_hyp_param",
    "verify_para_v2",
    "verify_symmetries",
    "verify_torsion_spaces",
    "verify_z3_kernel",
    "verify_z3_line",
    "verify_z5_family",
    "z3_line",
    "z5_component_counts",
    "z5_line",
]
