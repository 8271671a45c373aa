"""Affine side of the iteration: point families, polygon averaging, limits.

A polygon is a finite family of points.  One averaging pass moves vertex k to
the barycenter of (B_k; t_k) and (B_{k+1}; 1 - t_k) with cyclic indexing.
Iterating the pass with a fixed weight tuple collapses every vertex onto a
single limit point, the weighted mean of the original points with weights
proportional to prod_{i != k} (1 - t_i).

Feeding the weight iteration into the limit point yields the dual sequence
G_m; its distance to the centroid of the original points decays
exponentially.  Weights are handled as log sums so the record stays valid
long after the raw products underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dynamics import WeightTuple, _excluded_sums, _reduce_components, derived_step

__all__ = [
    "DISTINCT_TOL",
    "PointSet",
    "DualSequenceRecord",
    "centroid",
    "limit_point",
    "polygon_step",
    "dual_sequence",
    "weight_orders",
]

# Pairwise separation required of caller-provided point families.
DISTINCT_TOL = 1e-12
# Pairs per block of require_distinct's distance test.
_DISTINCT_BLOCK = 1 << 16

# Distances at or below _FIT_FLOOR are noise to the decay fit, which needs
# at least _FIT_MIN_POINTS samples above it.
_FIT_FLOOR = 1e-13
_FIT_MIN_POINTS = 5


@dataclass(frozen=True, eq=False)
class PointSet:
    """p points in R^dim, stored as a read-only (p, dim) array.

    Construction checks shape and finiteness only; families that feed the
    averaging iteration as inputs must additionally pass require_distinct.
    Iterates of the averaging map may legitimately collapse, so distinctness
    is never imposed on outputs.
    """

    p: int
    dim: int
    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"points must be a (p, dim) array, got shape {arr.shape}")
        if arr.shape != (self.p, self.dim):
            raise ValueError(
                f"declared ({self.p}, {self.dim}) does not match data shape {arr.shape}"
            )
        if self.p < 2 or self.dim < 1:
            raise ValueError(f"need p >= 2 points in dim >= 1, got p={self.p}, dim={self.dim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("points must have finite coordinates")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @classmethod
    def of(cls, coords: Iterable[Iterable[float]]) -> "PointSet":
        arr = np.array([list(row) for row in coords], dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return cls(arr.shape[0], arr.shape[1], arr)

    def require_distinct(self) -> "PointSet":
        """Raise unless all pairwise distances exceed DISTINCT_TOL; returns self.

        The error names the first point i, in index order, with a later point
        too close, and the closest such later point j.
        """
        # d[r, c] = |B_j - B_i| for i = i0 + r and j = i0 + 1 + c, over
        # blocks of i that keep d within _DISTINCT_BLOCK pairs; the pairs
        # with j <= i are set to inf
        pts = self.points
        rows = max(1, _DISTINCT_BLOCK // self.p)
        for i0 in range(0, self.p, rows):
            i = np.arange(i0, min(i0 + rows, self.p))[:, None]
            d = np.linalg.norm(pts[None, i0 + 1 :] - pts[i], axis=-1)
            d[np.arange(i0 + 1, self.p) <= i] = np.inf
            close = (d <= DISTINCT_TOL).any(axis=1)
            if close.any():
                r = int(close.argmax())
                raise ValueError(
                    f"points {i0 + r} and {i0 + 1 + int(d[r].argmin())} are closer than "
                    f"{DISTINCT_TOL}; input families must be pairwise distinct"
                )
        return self


@dataclass(frozen=True, eq=False)
class DualSequenceRecord:
    """Dual sequence G_m with distances to the centroid and a decay fit.

    fitted_rate is the least-squares slope of log distance against m over the
    final half of the samples exceeding 1e-13, or None when fewer than five
    such samples exist.  weights holds the normalized limit-point weights
    along the weight iteration: row m gives G_m as weights @ A.points.
    """

    points: np.ndarray
    distances_to_centroid: np.ndarray
    fitted_rate: float | None
    weights: np.ndarray


def centroid(A: PointSet) -> np.ndarray:
    """Equal-weight barycenter of the family."""
    return A.points.mean(axis=0)


def _regular_polygon(p: int) -> PointSet:
    # Vertices of the regular p-gon on the unit circle, the first at (1, 0).
    return PointSet.of(
        (math.cos(2.0 * math.pi * k / p), math.sin(2.0 * math.pi * k / p))
        for k in range(p)
    )


def _normalized_weights(log_w: np.ndarray) -> np.ndarray:
    # The weights of every row of log weights on the last axis, normalized
    # with max-subtraction.  A row whose maximum is not finite (every log
    # weight -inf) has degenerate mass ratios, and the mathematical limit of
    # its normalized weights is uniform: it takes ones, which normalize to
    # exactly 1 / p.
    shift = _reduce_components(np.maximum, log_w)[..., None]
    finite = np.isfinite(shift)
    w = np.where(finite, np.exp(log_w - np.where(finite, shift, 0.0)), 1.0)
    return w / w.sum(axis=-1, keepdims=True)


def _limit_weights(log_u: np.ndarray) -> np.ndarray:
    # The normalized limit-point weights prod_{i != k} (1 - t_i) of every
    # weight tuple t on the last axis, from log sums of log_u = log1p(-t).
    return _normalized_weights(_excluded_sums(log_u))


def limit_point(A: PointSet, t: WeightTuple) -> np.ndarray:
    """Common limit of the averaging iteration started from A with weights t.

    Equals the mean of the points weighted by prod_{i != k} (1 - t_i),
    normalized; the weights are assembled from log sums with max-subtraction.
    """
    if A.p != t.p:
        raise ValueError(f"point count {A.p} does not match weight count {t.p}")
    return _limit_weights(np.log1p(-np.asarray(t.t))) @ A.points


def polygon_step(B: PointSet, t: WeightTuple) -> PointSet:
    """One averaging pass: vertex k moves to t_k * B_k + (1 - t_k) * B_{k+1}."""
    if B.p != t.p:
        raise ValueError(f"point count {B.p} does not match weight count {t.p}")
    w = np.asarray(t.t)[:, None]
    shifted = np.concatenate((B.points[1:], B.points[:1]))
    return PointSet(B.p, B.dim, w * B.points + (1.0 - w) * shifted)


def _dual_weight_trajectory(t0: WeightTuple, steps: int) -> np.ndarray:
    """Normalized limit-point weights along the weight iteration.

    Row m holds the weights of G_m.  The iteration itself runs on log(u)
    coordinates, so rows remain meaningful far past the step at which the raw
    tuple components would round to 0 or 1.  The float orbit of log(u)
    enters a cycle once it saturates; the rows past the first repeated state
    are copies of the cycle's rows, the same bits the iteration would give.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    b = np.log1p(-np.asarray(t0.t, dtype=float))  # log u = log(1 - t)
    log_w = np.empty((steps + 1, t0.p))
    # log_w[m, k] = log t'_k <= 0; the new log u_k is log(1 - t'_k), -inf
    # once t'_k reaches 1 in working precision.  Row m is a function of the
    # bits of the state b_m alone, so once b_m has the bytes of an earlier
    # b_j (equal bytes are equal bits, -inf, -0.0 and NaN included) every
    # later row repeats the cycle log_w[j:m].  first_seen holds one key of p
    # floats per computed row, no more memory than log_w.  The orbits
    # saturate and then alternate: 1560 random seeds at p = 3..1024 all
    # repeated a state with period 2, by step 33 at the latest.  A state
    # update that keeps more precision cycles later, and the stop then
    # saves less.
    first_seen: dict[bytes, int] = {}
    with np.errstate(divide="ignore"):
        for m in range(steps + 1):
            j = first_seen.setdefault(b.tobytes(), m)
            if j < m:
                log_w[m:] = np.resize(log_w[j:m], (steps + 1 - m, t0.p))
                break
            log_w[m] = _excluded_sums(b)
            if m < steps:
                b = np.log(-np.expm1(log_w[m]))
    return _normalized_weights(log_w)


def dual_sequence(A: PointSet, t0: WeightTuple, steps: int) -> DualSequenceRecord:
    """Dual sequence G_0 .. G_steps of limit points under the weight iteration."""
    if A.p != t0.p:
        raise ValueError(f"point count {A.p} does not match weight count {t0.p}")
    if t0.p < 3:
        raise ValueError(f"the dual sequence requires p >= 3, got {t0.p}")
    A.require_distinct()
    weights = _dual_weight_trajectory(t0, steps)
    pts = weights @ A.points
    dists = np.linalg.norm(pts - centroid(A), axis=1)
    return DualSequenceRecord(
        points=pts,
        distances_to_centroid=dists,
        fitted_rate=_fit_rate(dists),
        weights=weights,
    )


def _fit_rate(dists: np.ndarray) -> float | None:
    # least-squares slope from centred sums, over the final half of the
    # samples still above the noise floor, widened to _FIT_MIN_POINTS when
    # the decay leaves fewer than twice that
    idx = np.nonzero(dists > _FIT_FLOOR)[0]
    if idx.size < _FIT_MIN_POINTS:
        return None
    tail = idx[-max(_FIT_MIN_POINTS, idx.size // 2) :]
    x = tail - tail.mean()
    y = np.log(dists[tail])
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


def weight_orders(t0: WeightTuple, max_order: int) -> list[WeightTuple]:
    """Weight iterates t^(0) .. t^(max_order) of the weight map."""
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    out = [t0]
    for _ in range(max_order):
        out.append(derived_step(out[-1]))
    return out
