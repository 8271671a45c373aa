"""Weight-product dynamics of polygon averaging.

Iterated barycentric averaging of a polygon's vertices with per-vertex
weights induces a product map on the weights themselves.  This package
computes that map's stationary state and its instability certificate,
iterates the sorted conjugate state with saturation tracking, verifies the
qualitative structure (order preservation, two-step contraction, phase
alternation, even/odd boundary limits), and follows the dual sequence of
polygon limit points.
"""
from .analysis import (
    KNOWN_CHECKS,
    CheckResult,
    ContractionCertificate,
    VerificationError,
    contraction_certificate,
    default_suite,
    spectral_check,
    trajectory_checks,
)
from .dynamics import (
    ConjugateTuple,
    Phase,
    SaturationError,
    TrajectoryRecord,
    WeightTuple,
    classify_phase,
    comparison_sequence,
    conjugate_of,
    conjugate_step,
    derived_step,
    run_trajectory,
)
from .geometry import (
    DualSequenceRecord,
    PointSet,
    centroid,
    dual_sequence,
    dual_weight_trajectory,
    limit_point,
    polygon_step,
    weight_orders,
)
from .stationary import StationaryCertificate, alpha_residual, certificate, solve_alpha, stationary_weights

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "KNOWN_CHECKS",
    "CheckResult",
    "ConjugateTuple",
    "ContractionCertificate",
    "DualSequenceRecord",
    "Phase",
    "PointSet",
    "SaturationError",
    "StationaryCertificate",
    "TrajectoryRecord",
    "VerificationError",
    "WeightTuple",
    "alpha_residual",
    "centroid",
    "certificate",
    "classify_phase",
    "comparison_sequence",
    "conjugate_of",
    "conjugate_step",
    "contraction_certificate",
    "default_suite",
    "derived_step",
    "dual_sequence",
    "dual_weight_trajectory",
    "limit_point",
    "polygon_step",
    "run_trajectory",
    "solve_alpha",
    "spectral_check",
    "stationary_weights",
    "trajectory_checks",
    "weight_orders",
]
