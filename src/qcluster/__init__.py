"""Exact quantum Laurent expansions for arcs on triangulated surfaces.

Two independent computations of the same Laurent expansion — one from
perfect matchings of a labelled snake graph, one from canonical index
sets of a string module — plus seed mutation and two-term skein
products, all in exact integer arithmetic over the quantum torus.
"""

from .errors import (
    AmbiguousConnector,
    AmbiguousSolution,
    BijectionViolation,
    CannotTwist,
    InconsistentValuation,
    InvalidString,
    InvalidSurface,
    NoCompatibleLambda,
    NonExactDivision,
    NoSolution,
    NotCompatible,
    NotComposable,
    NotCrossingSequence,
    NotNormalizable,
    NotReduced,
    NotSkew,
    QClusterError,
    RelationViolated,
    UnmatchedCase,
    UnreachableSubmodule,
)
from .expansion import (
    ExpansionResult,
    ExpansionTerm,
    classical_specialization,
    crossing_exponent,
    graph_expansion,
    oracle_compare,
    quantum_expansion,
    uniform_d,
    weight_exponent,
    x_of_matching,
)
from .kronecker import (
    WeightedSnake,
    alpha_of_set,
    alpha_table,
    build_weighted,
    equality_check,
    family_word,
    r_s,
    recursion_checks,
    weighted_series,
)
from .seeds import (
    ClassicalSeed,
    QuantumSeed,
    classical_initial_seed,
    classical_mutate,
    classical_mutation_sequence,
    initial_seed,
    mutate_lambda,
    mutate_matrix,
    mutate_seed,
    mutation_sequence,
)
from .skein_mult import (
    MultiplicationCertificate,
    count_extensions,
    multiply_and_certify,
    relative_exponent_check,
)
from .snake import (
    SnakeGraph,
    Tile,
    check_bijection,
    enclosed_tiles,
    enumerate_matchings,
    label_snake,
    matching_to_submodule,
    maximal_matching,
    minimal_matching,
    snake_shape,
    submodule_to_matching,
    twist,
)
from .strings import (
    CanonicalSubmodule,
    Extension,
    Letter,
    SmoothingFactor,
    StringWord,
    all_extensions,
    arrow_extensions,
    dimension_vector,
    enumerate_canonical_submodules,
    enumerate_strings,
    is_canonical_submodule,
    is_valid_string,
    overlap_extensions,
    trivial_word,
    truncations,
    validate_string,
)
from .surface import (
    Arrow,
    QuiverWithRelations,
    Triangulation,
    b_matrix,
    build_quiver,
    bundled_surface_names,
    check_gentle,
    find_lambda,
    load_surface,
    neighborhood,
    pair_from_surface,
)
from .torus import (
    CompatiblePair,
    HalfInteger,
    QCoefficient,
    TorusElement,
    bar,
    bar_normalize,
    check_compatible,
    cluster_monomial,
    div_exact_right,
    torus_mul,
    torus_pow,
)
from .valuation import (
    compare_valuations,
    n_module,
    omega,
    omega_prime,
    valuation_v,
    valuation_v_gamma,
)

__version__ = "0.1.0"
