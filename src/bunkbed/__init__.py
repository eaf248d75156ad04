"""Exact verification tools for two-level percolation near p = 1.

The package computes connection probabilities on the doubled graph
G x K2 as exact polynomials in the retention probability, expands the
conditioned difference of same-level and cross-level connection events
over edge tripartitions, and checks the resulting positivity bounds,
path-graph closed forms, and Monte Carlo agreement.
"""

from types import ModuleType as _ModuleType

from .enumeration import Caps, CapExceededError, DEFAULT_CAPS, connection_counts
from .exact import (
    bunkbed,
    bunkbed_vertex,
    connected_avoiding,
    connection_polynomial,
    connection_query_polynomials,
    counts_to_polynomial,
    difference_polynomial,
    endpoint_polynomials,
    GeodesicCheck,
    geodesic_check,
    horizontal_edge_id,
    threshold_point,
    vertical_edge_id,
)
from .graphs import (
    GraphParseError,
    INFINITY,
    Multigraph,
    connected_components,
    minor,
    parse_edge_list,
    vertical_free_distance,
)
from .line import (
    GaussianLimitResult,
    LineQuantities,
    gap_polynomial,
    gaussian_limit,
    iter_line_quantities,
    line_quantities,
)
from .montecarlo import (
    DifferenceEstimates,
    Estimate,
    agreement_check,
    estimate_difference,
    estimate_to_json_obj,
)
from .polynomials import (
    RationalPoly,
    VAR_P,
    VAR_Q,
    VariableMismatchError,
    format_fraction,
)
from .reports import (
    DISCREPANCY,
    FAIL,
    PARTIAL,
    PASS,
    VerificationReport,
    aggregate_verdict,
    canonical_json,
    encode_value,
)
from .tripartitions import (
    DistanceClass,
    Tripartition,
    TripartitionAnalysis,
    TripartitionTable,
    analyze_tripartitions,
    bound_report,
    enumerate_tripartitions,
    expansion_identity_check,
    theorem_sign_check,
    updown_f_values,
    validate_tripartition,
    verify_conditioning,
    verify_theorem,
)

__version__ = "0.1.0"

# The public names are exactly those imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
