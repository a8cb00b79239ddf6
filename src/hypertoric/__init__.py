"""Exact combinatorics and homological checks for symplectic torus actions.

The package follows one pipeline: validate a weight matrix, build the weight
zonotope and its tilted lattice window, form the moment-map quadrics, verify
that they cut the coordinate ring regularly, assemble the truncated window
algebra with its quiver presentation, and test the quotient for linear
(Koszul-type) resolutions.  Everything runs over exact integers and
rationals.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateZonotopeError,
    DimensionError,
    HypertoricError,
    MalformedAlgebraError,
    NonFaithfulError,
    NonGenericError,
    ProblemFormatError,
    ReductionError,
    ResourceBudgetError,
    UnsupportedShiftError,
)
from .reps import (
    CodimEstimate,
    MomentQuadric,
    ReductionResult,
    ReductionStep,
    SymplecticRep,
    ValidationReport,
    moment_quadrics,
    nongeneric_pair,
    reduce_to_generic,
    require_valid,
    singular_codim_estimate,
    validate,
)
from .zonotope import (
    CharacterWindow,
    Facet,
    Zonotope,
    build_zonotope,
    enumerate_window,
    find_generic_direction,
)
from .algebra import (
    Arrow,
    GradedQuiverAlgebra,
    QuiverPresentation,
    QuotientPiece,
    RegSeqReport,
    Relation,
    SliceRing,
    hilbert_inverse_coefficients,
    hom_dimension,
    quiver_presentation,
    verify_regular_sequence,
)
from .koszul import (
    KoszulReport,
    NumericalKoszulReport,
    VertexResolution,
    koszul_check,
    minimal_resolution,
    numerical_koszul_consistency,
)
from .oracle import oracle_block_dimension, oracle_lattice_points
from .pipeline import (
    ANALYSES,
    Budget,
    ProblemFile,
    Report,
    load_problem,
    parse_problem,
    run,
)

__all__ = [
    "ANALYSES",
    "Arrow",
    "Budget",
    "CharacterWindow",
    "CodimEstimate",
    "DegenerateZonotopeError",
    "DimensionError",
    "Facet",
    "GradedQuiverAlgebra",
    "HypertoricError",
    "KoszulReport",
    "MalformedAlgebraError",
    "MomentQuadric",
    "NonFaithfulError",
    "NonGenericError",
    "NumericalKoszulReport",
    "ProblemFile",
    "ProblemFormatError",
    "QuiverPresentation",
    "QuotientPiece",
    "ReductionError",
    "ReductionResult",
    "ReductionStep",
    "RegSeqReport",
    "Relation",
    "Report",
    "ResourceBudgetError",
    "SliceRing",
    "SymplecticRep",
    "UnsupportedShiftError",
    "ValidationReport",
    "VertexResolution",
    "Zonotope",
    "build_zonotope",
    "enumerate_window",
    "find_generic_direction",
    "hilbert_inverse_coefficients",
    "hom_dimension",
    "koszul_check",
    "load_problem",
    "minimal_resolution",
    "moment_quadrics",
    "nongeneric_pair",
    "numerical_koszul_consistency",
    "oracle_block_dimension",
    "oracle_lattice_points",
    "parse_problem",
    "quiver_presentation",
    "reduce_to_generic",
    "require_valid",
    "run",
    "singular_codim_estimate",
    "validate",
    "verify_regular_sequence",
]
