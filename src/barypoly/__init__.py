"""Weight-product dynamics of polygon averaging.

Iterated barycentric averaging of a polygon's vertices with per-vertex
weights induces a product map on the weights themselves.  This package
computes that map's stationary state and its instability certificate,
iterates the sorted conjugate state with saturation tracking, verifies the
qualitative structure (order preservation, two-step contraction, phase
alternation and even/odd boundary limits past saturation, by the one-step
order-reversing bracket), and follows the dual sequence of limit points.

Only the stationary layer, which needs nothing but math, loads with the
package; a name of the numpy-backed layers loads its module on first access
(PEP 562), so importing the package does not import numpy.
"""
from importlib import import_module

from .stationary import StationaryCertificate, certificate, solve_alpha

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in (
        ("analysis", "KNOWN_CHECKS CheckResult default_suite spectral_check trajectory_checks"),
        ("dynamics", "ConjugateTuple SaturationError TrajectoryRecord WeightTuple conjugate_of "
                     "conjugate_step derived_step run_trajectory"),
        ("geometry", "DualSequenceRecord PointSet centroid dual_sequence limit_point polygon_step "
                     "weight_orders"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    # a layer's own name stays a package attribute, as when every layer loaded eagerly
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOME.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()).union(__all__))


# the stationary layer's names and every lazily loaded name
__all__ = ["__version__", *sorted(("StationaryCertificate", "certificate", "solve_alpha", *_HOME))]
