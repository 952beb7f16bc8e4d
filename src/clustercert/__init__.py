"""clustercert: exact cluster-structure analysis for finite semimetric spaces.

The package computes distance-distribution statistics, builds the greedy
cluster decomposition, searches for optimal structures exactly at small
scale, evaluates measure lower bounds, and verifies the whole inequality
catalogue against brute-force oracles. All decidable comparisons use exact
rational arithmetic.
"""
from .bounds import (
    BoundCertificate,
    BoundEvaluation,
    BoundInputs,
    ParameterError,
    Verdict,
    build_certificate,
    evaluate_bounds,
    lambda_param,
    alpha_prime,
    legacy_bound,
    measure_meets_psi,
    precondition_check,
    psi_bound,
)
from .clustering import (
    ClusterStructure,
    DecompositionPart,
    ExactSearchResult,
    GreedyDecomposition,
    SearchLimitError,
    StructureValidation,
    StructureViolation,
    exact_structure,
    greedy_decomposition,
    greedy_structure,
    max_cluster,
    validate_structure,
)
from .generators import (
    TightInstanceSpec,
    WeightedFiniteSpace,
    dump_weighted_space,
    epsilon_partition,
    load_weighted_space,
    planted_instance,
    random_metric_instance,
    space_from_points,
    tight_instance,
    uniformize,
    weighted_space_from_obj,
    weighted_space_to_obj,
)
from .serialize import canonical_json, render_text, write_report
from .space import (
    FiniteSemimetricSpace,
    ScaleParams,
    SpaceFormatError,
    as_fraction,
    build_space,
    dump_space,
    format_rational,
    load_space,
    set_distance,
    space_from_obj,
    space_to_obj,
    subset_diameter,
)
from .stats import (
    ObservedParams,
    anticlique_count,
    elementary_symmetric,
    long_edge_count,
    medium_edge_count,
    observed_parameters,
)
from .verify import (
    CheckResult,
    FailureRecord,
    PropTally,
    SuiteConfig,
    VerificationReport,
    check_proposition,
    replay_failure,
    run_suite,
)

__version__ = "0.1.0"
