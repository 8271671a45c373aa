"""Stationary point of the weight-product iteration and its instability data.

The map sending a weight tuple t to t'_k = prod_{i != k} (1 - t_i) has a
single stationary tuple inside (0, 1)^p: all components equal to 1 - alpha_p,
where alpha_p is the unique root in (0, 1) of x**(p-1) + x - 1.  The
linearization at that point carries one repulsive eigenvalue (1-p) * beta_p
with beta_p = alpha_p**(p-2), so the stationary tuple is exponentially
unstable for every p >= 3.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

__all__ = [
    "StationaryCertificate",
    "solve_alpha",
    "certificate",
]

# Bracket width reached by bisection before Newton polishing takes over.
_BISECT_WIDTH = 1e-15
_NEWTON_STEPS = 3
# Largest |residual| a returned root may leave.
_RESIDUAL_TOL = 1e-14


@dataclass(frozen=True)
class StationaryCertificate:
    """Spectral summary of the linearized step at the stationary tuple."""

    p: int
    alpha: float
    beta: float
    lambda_repulsive: float
    lambda_contractive: float
    instability_margin: float


def _index(p) -> int:
    # p as an int; a float p, even an integral one, is a ValueError
    try:
        return operator.index(p)
    except TypeError:
        raise ValueError(f"p must be an integer, got {p!r}") from None


def _alpha_residual(p: int, x: float) -> float:
    """Residual x**(p-1) + x - 1 of the defining equation for alpha_p.

    The power is evaluated as exp((p-1) * log(x)) so that large p does not
    lose precision to repeated multiplication.  solve_alpha validates p.
    """
    return math.exp((p - 1) * math.log(x)) + x - 1.0


def _residual_slope(p: int, x: float) -> float:
    # d/dx of the residual: (p-1) * x**(p-2) + 1, positive on (0, 1).
    return (p - 1) * math.exp((p - 2) * math.log(x)) + 1.0


def solve_alpha(p: int) -> float:
    """Unique root of x**(p-1) + x - 1 inside (0, 1).

    Bisection narrows [0, 1] to a 1e-15 bracket, then three Newton steps
    polish the midpoint.  Raises ArithmeticError if the final residual
    exceeds 1e-14, so a successful return certifies |residual| <= 1e-14.
    """
    p = _index(p)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return _root(p)


@functools.lru_cache(maxsize=256)
def _root(p: int) -> float:
    # solve_alpha of a validated int p, computed once per p: a sweep asks for
    # the same few roots many times.
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if _alpha_residual(p, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        x -= _alpha_residual(p, x) / _residual_slope(p, x)
    if not 0.0 < x < 1.0 or abs(_alpha_residual(p, x)) > _RESIDUAL_TOL:
        raise ArithmeticError(
            f"root refinement for p={p} missed the tolerance {_RESIDUAL_TOL}"
        )
    return x


def certificate(p: int) -> StationaryCertificate:
    """Instability certificate of the stationary tuple; defined for p >= 3.

    For p = 2 the repulsive eigenvalue has modulus exactly 1 and the
    certificate would be vacuous, hence the rejection.
    """
    p = _index(p)
    if p < 3:
        raise ValueError(f"the instability certificate requires p >= 3, got {p}")
    alpha = solve_alpha(p)
    beta = alpha ** (p - 2)
    lam = (1 - p) * beta
    return StationaryCertificate(
        p=p,
        alpha=alpha,
        beta=beta,
        lambda_repulsive=lam,
        lambda_contractive=beta,
        instability_margin=abs(lam) - 1.0,
    )
