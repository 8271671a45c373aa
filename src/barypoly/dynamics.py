"""Weight-product iteration and its conjugate coordinate system.

Two coupled coordinate systems describe the same dynamics.  The weight map
acts on tuples t in (0,1)^p by t'_k = prod_{i != k} (1 - t_i); in conjugate
coordinates u = 1 - t the same step reads u'_k = 1 - prod_{i != k} u_i.
All products go through a cached sum of logs: every component reuses the
identical full sum, which keeps componentwise ordering exact under rounding
and postpones underflow as long as possible.

Away from the unique interior fixed tuple the orbits head for the boundary,
alternating between the all-small and the all-large corner.  Once a computed
component rounds to exactly 0 or 1 the step reports saturation; trajectory
records keep only the states strictly inside (0, 1)^p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

__all__ = [
    "PHASE_TIE_TOL",
    "SaturationError",
    "Phase",
    "WeightTuple",
    "ConjugateTuple",
    "TrajectoryRecord",
    "conjugate_of",
    "derived_step",
    "conjugate_step",
    "classify_phase",
    "run_trajectory",
    "comparison_sequence",
]

# Components this close to the phase threshold make the phase undecidable.
PHASE_TIE_TOL = 1e-15


class SaturationError(ArithmeticError):
    """A step output rounded to the boundary of (0, 1) in working precision."""

    def __init__(self, message: str, values: tuple[float, ...] | None = None):
        super().__init__(message)
        self.values = values


class Phase(Enum):
    """Position of a conjugate state relative to the threshold alpha_p."""

    BELOW = "below"   # every component < alpha
    ABOVE = "above"   # every component > alpha
    MIXED = "mixed"   # anything else, including components at the threshold


def _validated(values: Iterable[float], what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) < 2:
        raise ValueError(f"{what} needs at least 2 components, got {len(out)}")
    for v in out:
        if not 0.0 < v < 1.0:
            raise ValueError(
                f"{what} components must lie strictly inside (0, 1), got {v!r}"
            )
    return out


@dataclass(frozen=True)
class WeightTuple:
    """State of the weight map: p reals strictly inside (0, 1)."""

    p: int
    t: tuple[float, ...]

    def __post_init__(self):
        t = _validated(self.t, "weight tuple")
        object.__setattr__(self, "t", t)
        if self.p != len(t):
            raise ValueError(f"p={self.p} does not match {len(t)} components")

    @classmethod
    def of(cls, values: Iterable[float]) -> "WeightTuple":
        vals = tuple(values)
        return cls(len(vals), vals)


@dataclass(frozen=True)
class ConjugateTuple:
    """State in u = 1 - t coordinates; sorted_flag marks ascending order."""

    p: int
    u: tuple[float, ...]
    sorted_flag: bool = field(init=False)

    def __post_init__(self):
        u = _validated(self.u, "conjugate tuple")
        object.__setattr__(self, "u", u)
        if self.p != len(u):
            raise ValueError(f"p={self.p} does not match {len(u)} components")
        object.__setattr__(
            self, "sorted_flag", all(a <= b for a, b in zip(u, u[1:]))
        )

    @classmethod
    def of(cls, values: Iterable[float]) -> "ConjugateTuple":
        vals = tuple(values)
        return cls(len(vals), vals)


def conjugate_of(t: WeightTuple) -> ConjugateTuple:
    """Coordinate change t -> u = 1 - t."""
    return ConjugateTuple.of(1.0 - v for v in t.t)


def _excluded_log_sums(logs: Sequence[float]) -> list[float]:
    # One exact-ish full sum shared by all components: ordering of the logs
    # transfers to the ordering of the results without any rescue tolerance.
    total = math.fsum(logs)
    return [total - lg for lg in logs]


def derived_step(t: WeightTuple) -> WeightTuple:
    """One application of the weight map t'_k = prod_{i != k} (1 - t_i)."""
    sums = _excluded_log_sums([math.log1p(-v) for v in t.t])
    out = tuple(math.exp(s) for s in sums)
    if any(not 0.0 < v < 1.0 for v in out):
        raise SaturationError("derived step left (0, 1) in working precision", out)
    return WeightTuple(t.p, out)


def _sums_and_next(u: tuple[float, ...]) -> tuple[list[float], tuple[float, ...]]:
    # Log sums of the products prod_{i != k} u_i, and the next components
    # before any check of the bounds.
    sums = _excluded_log_sums([math.log(v) for v in u])
    return sums, tuple(-math.expm1(s) for s in sums)


def conjugate_step(u: ConjugateTuple) -> ConjugateTuple:
    """One application of the conjugate map u'_k = 1 - prod_{i != k} u_i.

    The complement is taken as -expm1(log-sum), which stays accurate both
    when the product is near 1 and when it is near 0.
    """
    _, out = _sums_and_next(u.u)
    if any(not 0.0 < v < 1.0 for v in out):
        raise SaturationError("conjugate step left (0, 1) in working precision", out)
    return ConjugateTuple(u.p, out)


def classify_phase(u: ConjugateTuple, alpha: float) -> Phase:
    """BELOW / ABOVE / MIXED position of the state against the threshold.

    Components within PHASE_TIE_TOL of alpha are treated as undecidable and
    force MIXED.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie inside (0, 1), got {alpha!r}")
    if any(abs(v - alpha) <= PHASE_TIE_TOL for v in u.u):
        return Phase.MIXED
    if all(v < alpha for v in u.u):
        return Phase.BELOW
    if all(v > alpha for v in u.u):
        return Phase.ABOVE
    return Phase.MIXED


@dataclass(frozen=True)
class TrajectoryRecord:
    """Conjugate orbit with per-step diagnostics.

    states[0] is the seed sorted ascending (permutation holds the sort order
    applied to the caller's components).  log_products[m][k] is the log of
    the next weight component prod_{i != k} u_i^(m); spread[m] is
    u_max/u_min - 1 of state m.  Only states more than one ulp inside [0,1]^p
    are recorded: if a step saturates, saturation_step is the index the
    offending state would have had, saturation_values keeps that state's
    components as evidence of which bound was reached, and iteration stops.
    """

    permutation: tuple[int, ...]
    alpha: float
    states: tuple[ConjugateTuple, ...]
    log_products: tuple[tuple[float, ...], ...]
    spread: tuple[float, ...]
    phase: tuple[Phase, ...]
    saturation_step: int | None
    saturation_values: tuple[float, ...] | None

    @property
    def p(self) -> int:
        return self.states[0].p

    def __len__(self) -> int:
        return len(self.states)


def run_trajectory(u0: ConjugateTuple, max_steps: int, alpha: float) -> TrajectoryRecord:
    """Iterate the conjugate map from a sorted copy of u0.

    Records at most max_steps + 1 states (seed included), fewer if the orbit
    saturates first.  The seed is sorted once, ascending and stably; later
    states stay sorted because the shared log sum preserves order exactly.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    order = tuple(sorted(range(u0.p), key=lambda i: u0.u[i]))
    state = ConjugateTuple.of(u0.u[i] for i in order)
    states = [state]
    log_products = []
    spread = []
    phases = []
    saturation_step: int | None = None
    saturation_values: tuple[float, ...] | None = None
    ulp_zero = math.ulp(0.0)
    ulp_one = math.ulp(1.0)
    while True:
        sums, out = _sums_and_next(state.u)
        log_products.append(tuple(sums))
        spread.append(state.u[-1] / state.u[0] - 1.0)
        phases.append(classify_phase(state, alpha))
        if len(states) > max_steps:
            break
        # a step that leaves (0, 1), or lands within one ulp of its bounds,
        # saturates: the next products would no longer be trustworthy at
        # working precision
        if any(v <= ulp_zero or 1.0 - v <= ulp_one for v in out):
            saturation_step = len(states)
            saturation_values = out
            break
        state = ConjugateTuple(state.p, out)
        states.append(state)

    return TrajectoryRecord(
        permutation=order,
        alpha=alpha,
        states=tuple(states),
        log_products=tuple(log_products),
        spread=tuple(spread),
        phase=tuple(phases),
        saturation_step=saturation_step,
        saturation_values=saturation_values,
    )


def comparison_sequence(tau0: float, p: int, steps: int) -> list[float]:
    """Orbit of the scalar comparison map x -> 1 - x**(p-1), seed included.

    The scalar map is a decreasing bijection of [0, 1]; the returned list has
    steps + 1 entries and is allowed to reach the boundary, where the orbit
    alternates between exactly 0 and exactly 1.
    """
    if p < 3:
        raise ValueError(f"comparison_sequence requires p >= 3, got {p}")
    if not 0.0 < tau0 < 1.0:
        raise ValueError(f"tau0 must lie inside (0, 1), got {tau0!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    out = [tau0]
    x = tau0
    for _ in range(steps):
        x = 1.0 - x ** (p - 1)
        out.append(x)
    return out
