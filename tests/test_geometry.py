import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barypoly import (
    PointSet,
    WeightTuple,
    centroid,
    derived_step,
    dual_sequence,
    dual_weight_trajectory,
    limit_point,
    polygon_step,
    weight_orders,
)
from barypoly.dynamics import _excluded_sums


def regular_polygon(p):
    return PointSet.of(
        (math.cos(2.0 * math.pi * k / p), math.sin(2.0 * math.pi * k / p))
        for k in range(p)
    )


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(3, 2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PointSet.of([(0.0, np.nan), (1.0, 0.0)])
    with pytest.raises(ValueError):
        PointSet.of([(0.0, 0.0)])
    ps = PointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
    with pytest.raises(ValueError):
        ps.require_distinct()
    assert ps.points.flags.writeable is False


def test_pointset_of_one_dimensional_rows():
    ps = PointSet.of([[0.0], [1.0], [3.0]])
    assert ps.p == 3 and ps.dim == 1


def test_centroid():
    ps = PointSet.of([(0.0, 0.0), (2.0, 0.0), (0.0, 4.0)])
    assert centroid(ps) == pytest.approx([2.0 / 3.0, 4.0 / 3.0])


def test_polygon_step_hand_case():
    tri = PointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    out = polygon_step(tri, WeightTuple.of((0.5, 0.5, 0.5)))
    assert out.points == pytest.approx(np.array([(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]))


def test_polygon_step_wraps_cyclically():
    # the last vertex averages against the first one
    tri = PointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    out = polygon_step(tri, WeightTuple.of((0.9, 0.9, 0.2)))
    assert out.points[2] == pytest.approx(0.2 * np.array([0.0, 1.0]) + 0.8 * np.array([0.0, 0.0]))


def test_polygon_step_rejects_mismatch():
    with pytest.raises(ValueError):
        polygon_step(regular_polygon(4), WeightTuple.of((0.3, 0.3, 0.3)))
    with pytest.raises(ValueError):
        limit_point(regular_polygon(4), WeightTuple.of((0.3, 0.3, 0.3)))


def test_limit_point_matches_direct_formula():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = int(rng.integers(3, 8))
        A = PointSet.of(rng.uniform(-2.0, 2.0, size=(p, 3)))
        t = WeightTuple.of(rng.uniform(0.05, 0.95, size=p))
        w = np.array([
            math.prod(1.0 - v for i, v in enumerate(t.t) if i != k) for k in range(p)
        ])
        expected = (w / w.sum()) @ A.points
        assert limit_point(A, t) == pytest.approx(expected, abs=1e-14)


def test_limit_point_regular_weights_is_centroid():
    A = regular_polygon(6)
    lp = limit_point(A, WeightTuple.of([0.4] * 6))
    assert lp == pytest.approx(centroid(A), abs=1e-15)


def test_limit_point_invariant_under_one_step():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = int(rng.integers(3, 7))
        A = PointSet.of(rng.uniform(-1.0, 1.0, size=(p, 2)))
        t = WeightTuple.of(rng.uniform(0.1, 0.9, size=p))
        before = limit_point(A, t)
        after = limit_point(polygon_step(A, t), t)
        assert after == pytest.approx(before, abs=1e-12)


def test_limit_point_affine_equivariance():
    A = regular_polygon(5)
    t = WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01))
    M = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([5.0, -1.0])
    mapped = PointSet.of(A.points @ M.T + b)
    assert limit_point(mapped, t) == pytest.approx(limit_point(A, t) @ M.T + b, rel=1e-12)


def test_iteration_collapses_to_limit_point():
    A = regular_polygon(4)
    t = WeightTuple.of((0.2, 0.6, 0.3, 0.8))
    target = limit_point(A, t)
    B = A
    for _ in range(200):
        B = polygon_step(B, t)
    assert np.max(np.linalg.norm(B.points - target, axis=1)) < 1e-10


@given(st.lists(st.floats(min_value=0.1, max_value=0.9), min_size=3, max_size=7))
def test_limit_point_stays_in_bounding_box(vals):
    p = len(vals)
    A = regular_polygon(p)
    lp = limit_point(A, WeightTuple.of(vals))
    lo = A.points.min(axis=0) - 1e-12
    hi = A.points.max(axis=0) + 1e-12
    assert np.all(lp >= lo) and np.all(lp <= hi)


def test_dual_weight_trajectory_rows():
    t0 = WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01))
    rows = dual_weight_trajectory(t0, 60)
    assert rows.shape == (61, 5)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-14
    w = np.array([
        math.prod(1.0 - v for i, v in enumerate(t0.t) if i != k) for k in range(5)
    ])
    assert rows[0] == pytest.approx(w / w.sum(), rel=1e-13)
    # the normalized weights flatten toward the uniform vector
    assert np.max(np.abs(rows[60] - 0.2)) <= 1e-12


def _excluded_sums_1d(b):
    # The kernel before it took batches: one row, summed whole.
    if np.all(np.isfinite(b)):
        return b.sum() - b
    n = b.size
    return np.array([b[np.arange(n) != k].sum() for k in range(n)])


def test_excluded_sums_rows_match_the_one_row_kernel():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 8, 9, 64, 1024):
        finite = np.log(rng.uniform(1e-3, 1.0, size=(6, p)))
        with_inf = finite.copy()
        with_inf[np.arange(6), rng.integers(0, p, size=6)] = -np.inf
        with_inf[0, :2] = -np.inf
        for batch in (finite, with_inf):
            got = _excluded_sums(batch)
            assert got.shape == batch.shape
            for row, out in zip(batch, got):
                # equal bytes mean equal bits, -0.0 and the infinities included
                ref = _excluded_sums_1d(row).tobytes()
                assert _excluded_sums(row).tobytes() == ref
                assert out.tobytes() == ref


def test_dual_sequence_reference_seed():
    rec = dual_sequence(regular_polygon(5), WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01)), 60)
    assert rec.points.shape == (61, 2)
    assert float(rec.distances_to_centroid.min()) < 1e-8
    assert rec.fitted_rate is not None and rec.fitted_rate < 0.0


def test_dual_sequence_regular_weights_sits_on_centroid():
    rec = dual_sequence(regular_polygon(4), WeightTuple.of([0.25] * 4), 20)
    assert float(rec.distances_to_centroid.max()) <= 1e-14


def test_dual_sequence_too_short_for_a_fit():
    rec = dual_sequence(regular_polygon(5), WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01)), 2)
    assert rec.fitted_rate is None


def test_dual_sequence_validation():
    pent = regular_polygon(5)
    with pytest.raises(ValueError):
        dual_sequence(pent, WeightTuple.of((0.3, 0.3, 0.3)), 10)
    degenerate = PointSet.of([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        dual_sequence(degenerate, WeightTuple.of((0.3, 0.3, 0.3)), 10)
    with pytest.raises(ValueError):
        dual_weight_trajectory(WeightTuple.of((0.3, 0.3, 0.3)), -1)


def test_weight_orders():
    t0 = WeightTuple.of((0.2, 0.3, 0.4))
    orders = weight_orders(t0, 3)
    assert len(orders) == 4
    assert orders[0] is t0
    assert orders[1].t == derived_step(t0).t
    assert orders[2].t == derived_step(orders[1]).t
    with pytest.raises(ValueError):
        weight_orders(t0, -1)
