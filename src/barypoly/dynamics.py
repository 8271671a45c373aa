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

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "PHASE_TIE_TOL",
    "SaturationError",
    "WeightTuple",
    "ConjugateTuple",
    "TrajectoryRecord",
    "conjugate_of",
    "derived_step",
    "conjugate_step",
    "run_trajectory",
]

# Components this close to the phase threshold make the phase undecidable.
PHASE_TIE_TOL = 1e-15

# Unit roundoff, and the relative error allowed for numpy's log and expm1 (4 ulp).
_EPS = 2.0**-53
_LIBM_REL = 8 * _EPS


class SaturationError(ArithmeticError):
    """A step output rounded to the boundary of (0, 1) in working precision."""

    def __init__(self, message: str, values: tuple[float, ...] | None = None):
        super().__init__(message)
        self.values = values


def _validated(values: Iterable[float], what: str) -> tuple[float, ...]:
    # The components as floats, bounds-checked as an array: min and max
    # propagate NaN, which fails.  The error names the first component
    # outside (0, 1).
    a = np.asarray(values, dtype=float) if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{what} needs a flat sequence of components, got shape {a.shape}")
    if len(a) < 2:
        raise ValueError(f"{what} needs at least 2 components, got {len(a)}")
    if not (0.0 < a.min() and a.max() < 1.0):
        v = float(a[~((a > 0.0) & (a < 1.0))][0])
        raise ValueError(f"{what} components must lie strictly inside (0, 1), got {v!r}")
    return tuple(a.tolist())


class _Tuple:
    # The constructor of WeightTuple and ConjugateTuple: the components, in
    # the field named _field, validated once as _what, and p checked on them.

    def __post_init__(self):
        values = _validated(getattr(self, self._field), self._what)
        object.__setattr__(self, self._field, values)
        if self.p != len(values):
            raise ValueError(f"p={self.p} does not match {len(values)} components")

    @classmethod
    def of(cls, values: Iterable[float]):
        vals = tuple(values)
        return cls(len(vals), vals)


@dataclass(frozen=True)
class WeightTuple(_Tuple):
    """State of the weight map: p reals strictly inside (0, 1)."""

    _field, _what = "t", "weight tuple"
    p: int
    t: tuple[float, ...]


@dataclass(frozen=True)
class ConjugateTuple(_Tuple):
    """State in u = 1 - t coordinates."""

    _field, _what = "u", "conjugate tuple"
    p: int
    u: tuple[float, ...]


def conjugate_of(t: WeightTuple) -> ConjugateTuple:
    """Coordinate change t -> u = 1 - t.

    A weight of at most 2**-54 has no conjugate inside (0, 1), as 1 - t
    rounds to 1: the ValueError names that weight.
    """
    u = [1.0 - v for v in t.t]
    if 1.0 in u:
        raise ValueError(f"weight {t.t[u.index(1.0)]!r}: 1 - t rounds to 1, outside (0, 1)")
    return ConjugateTuple.of(u)


def _excluded_sums(b: np.ndarray) -> np.ndarray:
    # sum_{i != k} b[..., i] for every k, over the last axis, so a (rows, p)
    # batch gives each row its own sums: the row total less the entry.  The
    # total is taken on the contiguous row: the total of a strided row, such
    # as a record's states (a transposed view of its batch), sums in another
    # order.  The entries are logs of values in [0, 1], so a total is finite
    # exactly when its row has no zero value (-inf), and a batch without one
    # is done.  A zero zeroes every product that takes it: those sums stay
    # -inf, as -inf - x raises no inf - inf.  The one sum that skips a row's
    # only zero is its other p - 1 entries, summed as a contiguous row of
    # their own, so every row of a batch gets the bits it gets alone.  The
    # orbits' saturated rows are all zeros and skip that sum.
    b = np.ascontiguousarray(b)
    total = b.sum(axis=-1, keepdims=True)
    if np.isfinite(total).all():
        return total - b
    zero = b == -np.inf
    out = total - np.where(zero, 0.0, b)
    lone = zero.sum(axis=-1, keepdims=True) == 1
    if lone.any():
        out[zero & lone] = b[~zero & lone].reshape(-1, b.shape[-1] - 1).sum(axis=-1)
    return out


def _step(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Log sums of the products prod_{i != k} u_i over the last axis, and the
    # next components before any bounds check: -expm1(log sum) stays
    # accurate both when the product is near 1 and when it is near 0.
    sums = _excluded_sums(np.log(u))
    return sums, -np.expm1(sums)


def _reduce_components(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    # ufunc.reduce(a, axis=-1) for an order-free ufunc, maximum or minimum,
    # on the row-major arrays of the grid, polygon_collapse's spread and
    # bound and the dual weights' shift.  Each is exact, so folding the p
    # columns one by one gives the same bits and propagates NaN the same way
    # (which of two different NaN payloads survives may differ; numpy's own
    # NaNs have one).  numpy's reduce over a short last axis pays per row,
    # the fold per column and in strided reads, so the columns are folded
    # for 2 <= p <= 32 and numpy reduces above.  Measured on (rows, p)
    # arrays (numpy 2.4, 2 vCPU; numpy -> fold): NaN-padded maximum ((3400,
    # 3) 245 -> 3.4 us, (1024, 16) 87 -> 15 us, (4096, 32) 364 -> 126 us),
    # but (16384, 64) 1.6 -> 5.0 ms.  A single row is reduced by numpy: its
    # fold would start from a scalar, which out= cannot take.
    p = a.shape[-1]
    if a.ndim < 2 or not 2 <= p <= 32:
        return ufunc.reduce(a, axis=-1)
    out = ufunc(a[..., 0], a[..., 1])
    for j in range(2, p):
        ufunc(out, a[..., j], out=out)
    return out


def _stepped(cls, p: int, out: np.ndarray, what: str):
    # cls(p, out), the step's output validated once: a component outside
    # (0, 1) is the step's saturation.
    try:
        return cls(p, out)
    except ValueError:
        raise SaturationError(f"{what} step left (0, 1) in working precision", tuple(out.tolist())) from None


def derived_step(t: WeightTuple) -> WeightTuple:
    """One application of the weight map t'_k = prod_{i != k} (1 - t_i)."""
    return _stepped(WeightTuple, t.p, np.exp(_excluded_sums(np.log1p(-np.array(t.t)))), "derived")


def conjugate_step(u: ConjugateTuple) -> ConjugateTuple:
    """One application of the conjugate map u'_k = 1 - prod_{i != k} u_i.

    Raises SaturationError when a component leaves (0, 1).  A component
    within one ulp of 0 or 1 is returned, though run_trajectory counts it as
    saturated and records no state from that step on.
    """
    return _stepped(ConjugateTuple, u.p, _step(np.array(u.u))[1], "conjugate")


# Name of phase code c in the trajectory CSV: _PHASE_NAMES[c + 1].
_PHASE_NAMES = ("below", "mixed", "above")


def _phase_codes(low: np.ndarray, high: np.ndarray, alpha: float, tol=PHASE_TIE_TOL) -> np.ndarray:
    # Phase code of every state, from its smallest component low and its
    # largest high, against alpha: -1 (BELOW) when every component is <
    # alpha, 1 (ABOVE) when every component is > alpha, 0 (MIXED) otherwise.
    # A component within tol of alpha is undecidable and gives MIXED, and so
    # do NaN extremes, as on a batch's NaN lines.  tol may be an array of
    # the extremes' shape.  Rounded subtraction is monotone and odd, so the
    # extremes decide.
    return (low - alpha > tol).astype(np.int8) - (alpha - high > tol)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Conjugate orbit with per-step diagnostics, as read-only arrays.

    states is (n, p): states[0] is the seed sorted ascending.  spread[m] is
    u_max/u_min - 1 of state m, and phase[m] its int8 phase code: -1 BELOW,
    0 MIXED, 1 ABOVE.  Only states more than one ulp inside [0,1]^p are
    recorded: if a step saturates, saturation_step is the index the
    offending state would have had, saturation_values, (p,), keeps that
    state's components as evidence of which bound was reached and
    saturation_phase its phase code, and iteration stops.
    """

    alpha: float
    states: np.ndarray
    spread: np.ndarray
    phase: np.ndarray
    saturation_step: int | None
    saturation_values: np.ndarray | None
    saturation_phase: int | None

    def __post_init__(self):
        for a in (self.states, self.spread, self.phase, self.saturation_values):
            if a is not None:
                a.flags.writeable = False

    @property
    def p(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return len(self.states)


def run_trajectory(u0: ConjugateTuple, max_steps: int, alpha: float) -> TrajectoryRecord:
    """Iterate the conjugate map from a sorted copy of u0.

    Records at most max_steps + 1 states (seed included), fewer if the orbit
    saturates first.  The seed is sorted once, ascending; later states stay
    sorted because the shared log sum preserves order exactly.
    """
    return _run_batch(np.array([u0.u]), max_steps, alpha).row(0)


@dataclass(frozen=True)
class _Batch:
    # The trajectory records of a batch of rows with one p.  states is
    # component- and step-major, (p, n, rows): component k of every state is
    # one contiguous plane, and within it step m of every row one contiguous
    # line, so the step-shifted planes of the pair claims (states[k, 2:],
    # spread[:-2], ...) are contiguous blocks.  Row r holds state m on line m
    # < length[r], and on line length[r] its saturating state if it saturated
    # (at saturation_step[r] = length[r]; else -1) or NaN, as on every later
    # line; n is length.max() + 1.  spread, phase (0, MIXED, on NaN), low and
    # high, (n, rows), are the spread, phase code and least and greatest
    # component of each line.  _run_batch's lines are sorted, so it sets low
    # and high to its first and last planes; any other batch, a record's or
    # one with replaced states, computes them from its states on first use.
    alpha: float
    states: np.ndarray
    spread: np.ndarray
    phase: np.ndarray
    saturation_step: np.ndarray
    length: np.ndarray

    @functools.cached_property
    def valid(self) -> np.ndarray:
        # (n, rows): state m of row r is recorded
        return np.arange(self.states.shape[1])[:, None] < self.length

    low = functools.cached_property(lambda self: self.states.min(axis=0))
    high = functools.cached_property(lambda self: self.states.max(axis=0))

    @functools.cached_property
    def pair_noise(self) -> np.ndarray:
        # (n - 2, rows): the relative error state m+2 inherits from the
        # storage of state m+1, whose largest (last) component 1 - d keeps d
        # to half an ulp of 1, plus 1e-14 for the two steps' log/exp round-off.
        with np.errstate(divide="ignore"):  # inf where state m+1 saturated at 1
            return 5.6e-17 / (1.0 - self.states[-1, 1:-1]) + 1e-14

    def row(self, r: int) -> TrajectoryRecord:
        # The record of row r, as views of the batch's arrays.
        n, sat = int(self.length[r]), int(self.saturation_step[r])
        return TrajectoryRecord(self.alpha, self.states[:, :n, r].T, self.spread[:n, r], self.phase[:n, r],
                                *((None,) * 3 if sat < 0 else (sat, self.states[:, n, r], int(self.phase[n, r]))))

    @classmethod
    def of(cls, traj: TrajectoryRecord) -> "_Batch":
        # The one-row batch of a record: its arrays and one more line, its
        # saturating state or NaN (saturation_step is at least 1).
        last = np.full(traj.p, np.nan) if traj.saturation_step is None else traj.saturation_values
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = np.append(traj.spread, last[-1] / last[0] - 1.0)
        return cls(traj.alpha, np.concatenate((traj.states, last[None])).T[:, :, None], spread[:, None],
                   np.append(traj.phase, np.int8(traj.saturation_phase or 0))[:, None],
                   np.array([traj.saturation_step or -1]), np.array([len(traj)]))


def _run_batch(u0: np.ndarray, max_steps: int, alpha: float) -> _Batch:
    # run_trajectory of every row of a (rows, p) array of seeds strictly
    # inside (0, 1), stepped as one array.  A row leaves the batch at its own
    # saturation step.  The rows still stepping are copied into one
    # contiguous array, so each row is summed as it is on its own and its
    # record is bitwise the one-row record.  The seeds are sorted and every
    # step keeps them sorted (total - log u_k, log and expm1 are monotone),
    # so a state's first and last components are its least and greatest.
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    u = np.sort(u0, axis=-1)  # the stable order's values: tied entries are equal
    rows, p = u.shape
    sat_step = np.full(rows, -1)
    live = np.arange(rows)
    lives, stepped = [live], [u]  # the rows of every line and their states
    ulp_zero, below_one = math.ulp(0.0), 1.0 - math.ulp(1.0)
    for step in range(max_steps):
        nxt = _step(u)[1]
        lives.append(live)
        stepped.append(nxt)
        # a step that leaves (0, 1), or lands within one ulp of its bounds,
        # saturates: the next products would no longer be trustworthy at
        # working precision (nxt >= 1 - ulp(1) is 1 - nxt <= ulp(1), Sterbenz)
        hit = (nxt[:, 0] <= ulp_zero) | (nxt[:, -1] >= below_one)
        if hit.any():
            sat_step[live[hit]] = step + 1
            live, nxt = live[~hit], nxt[~hit]
            if not live.size:
                break
        u = nxt

    # One scatter puts every line into the planes, line m of row r at m *
    # rows + r of a flattened plane; a row saturating at step s records s
    # states, the others every stepped line.
    length = np.where(sat_step < 0, len(stepped), sat_step)
    n = length.max() + 1
    at = np.concatenate(lives) + rows * np.repeat(np.arange(len(lives)), [len(live) for live in lives])
    states = np.full((p, n, rows), np.nan)
    states.reshape(p, -1)[:, at] = np.concatenate(stepped).T
    low, high = states[0], states[-1]  # of every sorted line, NaN on the others
    # The saturating state's code is decided past the rounding of its step:
    # component k is -expm1(T - log u_k), T the log total of the last state
    # u.  The logs (eta = 4 ulp each), their sum in any order ((p - 1) eps
    # |T|, as the terms share a sign) and the subtraction err by at most
    # (2 eta + p eps) |T| <= (2 eta + p eps) p |log u_min|, which bounds the
    # component's move; expm1 adds eta, and PHASE_TIE_TOL alpha's rounding,
    # the one tolerance of the recorded states.
    log_min = np.log(low[length - 1, np.arange(rows)])
    margin = PHASE_TIE_TOL + (2 * _LIBM_REL + p * _EPS) * p * -log_min + _LIBM_REL
    tol = np.where(np.arange(n)[:, None] == length, margin, PHASE_TIE_TOL)
    batch = _Batch(alpha, states, high / low - 1.0, _phase_codes(low, high, alpha, tol), sat_step, length)
    vars(batch).update(low=low, high=high)
    return batch
