"""Weight-product iteration and its conjugate coordinate system.

Two coupled coordinate systems describe the same dynamics.  The weight map
acts on tuples t in (0,1)^p by t'_k = prod_{i != k} (1 - t_i); in conjugate
coordinates u = 1 - t the same step reads u'_k = 1 - prod_{i != k} u_i.
Every product prod_{i != k} goes through one kernel, _excluded_sums, which
sums logs over the last axis of an array: every component of a row reuses
the identical row total, which keeps componentwise ordering exact under
rounding and postpones underflow as long as possible.

Away from the unique interior fixed tuple the orbits head for the boundary,
alternating between the all-small and the all-large corner.  Once a computed
component rounds to exactly 0 or 1 the step reports saturation; trajectory
records keep only the states strictly inside (0, 1)^p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

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
    """State in u = 1 - t coordinates."""

    p: int
    u: tuple[float, ...]

    def __post_init__(self):
        u = _validated(self.u, "conjugate tuple")
        object.__setattr__(self, "u", u)
        if self.p != len(u):
            raise ValueError(f"p={self.p} does not match {len(u)} components")

    @classmethod
    def of(cls, values: Iterable[float]) -> "ConjugateTuple":
        vals = tuple(values)
        return cls(len(vals), vals)

    @classmethod
    def _from_checked(cls, u: tuple[float, ...]) -> "ConjugateTuple":
        # Step output of at least 2 floats that the caller has just checked
        # to lie inside (0, 1): _validated would only repeat that check.
        state = object.__new__(cls)
        object.__setattr__(state, "p", len(u))
        object.__setattr__(state, "u", u)
        return state


def conjugate_of(t: WeightTuple) -> ConjugateTuple:
    """Coordinate change t -> u = 1 - t."""
    return ConjugateTuple.of(1.0 - v for v in t.t)


def _excluded_sums(b: np.ndarray) -> np.ndarray:
    # sum_{i != k} b[..., i] for every k, over the last axis, so a (rows, p)
    # batch gives each row its own sums.  The shared-total shortcut needs
    # finite entries; with infinities the direct sums avoid inf - inf.  One
    # non-finite entry sends the whole batch to the direct sums.  The
    # concatenated rows are contiguous, so each row is summed in the same
    # order as on its own (a boolean mask on the last axis would not be).
    if np.isfinite(b).all():
        return b.sum(axis=-1, keepdims=True) - b
    out = np.empty_like(b)
    for k in range(b.shape[-1]):
        out[..., k] = np.concatenate((b[..., :k], b[..., k + 1 :]), axis=-1).sum(axis=-1)
    return out


def _step(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Log sums of the products prod_{i != k} u_i over the last axis, and the
    # next components before any bounds check: -expm1(log sum) stays
    # accurate both when the product is near 1 and when it is near 0.
    sums = _excluded_sums(np.log(u))
    return sums, -np.expm1(sums)


def derived_step(t: WeightTuple) -> WeightTuple:
    """One application of the weight map t'_k = prod_{i != k} (1 - t_i)."""
    out = tuple(np.exp(_excluded_sums(np.log1p(-np.array(t.t)))).tolist())
    if any(not 0.0 < v < 1.0 for v in out):
        raise SaturationError("derived step left (0, 1) in working precision", out)
    return WeightTuple(t.p, out)


def conjugate_step(u: ConjugateTuple) -> ConjugateTuple:
    """One application of the conjugate map u'_k = 1 - prod_{i != k} u_i."""
    out = tuple(_step(np.array(u.u))[1].tolist())
    if any(not 0.0 < v < 1.0 for v in out):
        raise SaturationError("conjugate step left (0, 1) in working precision", out)
    return ConjugateTuple._from_checked(out)


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
    return _run_batch(np.array([u0.u]), max_steps, alpha)[0]


def _run_batch(u0: np.ndarray, max_steps: int, alpha: float) -> list[TrajectoryRecord]:
    # run_trajectory of every row of a (rows, p) array of seeds strictly
    # inside (0, 1), stepped as one array.  A row leaves the batch at its own
    # saturation step.  The rows still stepping are copied into one
    # contiguous array, so each row is summed as it is on its own and its
    # record is bitwise the one-row record.
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    order = np.argsort(u0, axis=-1, kind="stable")
    u = np.sort(u0, axis=-1)  # u0 in the stable order: tied entries are equal
    n = len(u)
    states, log_products, spread, phases = ([[] for _ in range(n)] for _ in range(4))
    saturation = [(None, None)] * n
    live = np.arange(n)
    ulp_zero, ulp_one = math.ulp(0.0), math.ulp(1.0)
    for step in range(max_steps + 1):
        sums, nxt = _step(u)
        for r, values, lp in zip(live.tolist(), u.tolist(), sums.tolist()):
            state = ConjugateTuple._from_checked(tuple(values))
            states[r].append(state)
            log_products[r].append(tuple(lp))
            spread[r].append(values[-1] / values[0] - 1.0)
            phases[r].append(classify_phase(state, alpha))
        if step == max_steps:
            break
        # a step that leaves (0, 1), or lands within one ulp of its bounds,
        # saturates: the next products would no longer be trustworthy at
        # working precision
        at_bound = (nxt <= ulp_zero) | (1.0 - nxt <= ulp_one)
        if at_bound.any():
            hit = at_bound.any(axis=-1)
            for r, values in zip(live[hit].tolist(), nxt[hit].tolist()):
                saturation[r] = (step + 1, tuple(values))
            live, nxt = live[~hit], nxt[~hit]
            if not live.size:
                break
        u = nxt

    return [
        TrajectoryRecord(tuple(perm), alpha, tuple(states[r]), tuple(log_products[r]),
                         tuple(spread[r]), tuple(phases[r]), *saturation[r])
        for r, perm in enumerate(order.tolist())
    ]


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
