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

from .dynamics import WeightTuple, _excluded_sums, derived_step

__all__ = [
    "DISTINCT_TOL",
    "PointSet",
    "DualSequenceRecord",
    "centroid",
    "limit_point",
    "polygon_step",
    "dual_weight_trajectory",
    "dual_sequence",
    "weight_orders",
]

# Pairwise separation required of caller-provided point families.
DISTINCT_TOL = 1e-12

# Distances at or below _FIT_FLOOR are noise to the decay fit, which needs
# at least _FIT_MIN_POINTS samples above it.
_FIT_FLOOR = 1e-13
_FIT_MIN_POINTS = 5


@dataclass(frozen=True)
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
        """Raise unless all pairwise distances exceed DISTINCT_TOL; returns self."""
        for i in range(self.p):
            d = np.linalg.norm(self.points[i + 1 :] - self.points[i], axis=1)
            if d.size and d.min() <= DISTINCT_TOL:
                j = i + 1 + int(d.argmin())
                raise ValueError(
                    f"points {i} and {j} are closer than {DISTINCT_TOL}; "
                    "input families must be pairwise distinct"
                )
        return self


@dataclass(frozen=True)
class DualSequenceRecord:
    """Dual sequence G_m with distances to the centroid and a decay fit.

    fitted_rate is the least-squares slope of log distance against m over the
    final half of the samples exceeding 1e-13, or None when fewer than five
    such samples exist.
    """

    points: np.ndarray
    distances_to_centroid: np.ndarray
    fitted_rate: float | None


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
    shift = np.max(log_w)
    if not np.isfinite(shift):
        # every log weight is -inf: the mass ratios are degenerate and the
        # mathematical limit of the normalized weights is uniform
        return np.full(log_w.size, 1.0 / log_w.size)
    w = np.exp(log_w - shift)
    return w / w.sum()


def limit_point(A: PointSet, t: WeightTuple) -> np.ndarray:
    """Common limit of the averaging iteration started from A with weights t.

    Equals the mean of the points weighted by prod_{i != k} (1 - t_i),
    normalized; the weights are assembled from log sums with max-subtraction.
    """
    if A.p != t.p:
        raise ValueError(f"point count {A.p} does not match weight count {t.p}")
    log_w = _excluded_sums(np.log1p(-np.asarray(t.t)))
    return _normalized_weights(log_w) @ A.points


def _polygon_average(points: np.ndarray, w: np.ndarray) -> np.ndarray:
    # One averaging pass on a raw (p, dim) array with the weights as a (p, 1)
    # column; no validation, so iterating callers check the final result.
    shifted = np.concatenate((points[1:], points[:1]))
    return w * points + (1.0 - w) * shifted


def polygon_step(B: PointSet, t: WeightTuple) -> PointSet:
    """One averaging pass: vertex k moves to t_k * B_k + (1 - t_k) * B_{k+1}."""
    if B.p != t.p:
        raise ValueError(f"point count {B.p} does not match weight count {t.p}")
    return PointSet(B.p, B.dim, _polygon_average(B.points, np.asarray(t.t)[:, None]))


def dual_weight_trajectory(t0: WeightTuple, steps: int) -> np.ndarray:
    """Normalized limit-point weights along the weight iteration.

    Row m holds the weights of G_m.  The iteration itself runs on log(u)
    coordinates, so rows remain meaningful far past the step at which the raw
    tuple components would round to 0 or 1.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    b = np.log1p(-np.asarray(t0.t, dtype=float))  # log u = log(1 - t)
    rows = np.empty((steps + 1, t0.p))
    for m in range(steps + 1):
        log_w = _excluded_sums(b)
        rows[m] = _normalized_weights(log_w)
        if m < steps:
            # log_w[k] = log t'_k <= 0; the new log u_k is log(1 - t'_k),
            # -inf once t'_k reaches 1 in working precision
            with np.errstate(divide="ignore"):
                b = np.log(-np.expm1(log_w))
    return rows


def dual_sequence(A: PointSet, t0: WeightTuple, steps: int) -> DualSequenceRecord:
    """Dual sequence G_0 .. G_steps of limit points under the weight iteration."""
    if A.p != t0.p:
        raise ValueError(f"point count {A.p} does not match weight count {t0.p}")
    if t0.p < 3:
        raise ValueError(f"the dual sequence requires p >= 3, got {t0.p}")
    A.require_distinct()
    weights = dual_weight_trajectory(t0, steps)
    pts = weights @ A.points
    dists = np.linalg.norm(pts - centroid(A), axis=1)
    return DualSequenceRecord(
        points=pts,
        distances_to_centroid=dists,
        fitted_rate=_fit_rate(dists),
    )


def _fit_rate(dists: np.ndarray) -> float | None:
    # fit over the final half of the samples still above the noise floor,
    # widened to _FIT_MIN_POINTS when the decay leaves fewer than twice that
    idx = np.nonzero(dists > _FIT_FLOOR)[0]
    if idx.size < _FIT_MIN_POINTS:
        return None
    tail = idx[-max(_FIT_MIN_POINTS, idx.size // 2) :]
    slope = np.polyfit(tail.astype(float), np.log(dists[tail]), 1)[0]
    return float(slope)


def weight_orders(t0: WeightTuple, max_order: int) -> list[WeightTuple]:
    """Weight iterates t^(0) .. t^(max_order) of the weight map."""
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    out = [t0]
    for _ in range(max_order):
        out.append(derived_step(out[-1]))
    return out
