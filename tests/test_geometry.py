import dataclasses
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
    limit_point,
    polygon_step,
    weight_orders,
)
from barypoly import dynamics
from barypoly.dynamics import _excluded_sums
from barypoly.geometry import _dual_weight_trajectory, _limit_weights


def regular_polygon(p):
    return PointSet.of(
        (math.cos(2.0 * math.pi * k / p), math.sin(2.0 * math.pi * k / p))
        for k in range(p)
    )


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet.of([(0.0, np.nan), (1.0, 0.0)])
    with pytest.raises(ValueError):
        PointSet.of([(0.0, 0.0)])
    ps = PointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
    with pytest.raises(ValueError):
        ps.require_distinct()
    assert ps.points.flags.writeable is False


def test_require_distinct_names_the_first_close_pair():
    # pairs (1, 3) and (0, 4) are too close: the first point with a close
    # later point is 0
    far, near = 1e-3, 1e-13
    ps = PointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, near), (near, 0.0)])
    with pytest.raises(ValueError, match=r"^points 0 and 4 are closer than 1e-12; "
                       "input families must be pairwise distinct$"):
        ps.require_distinct()
    # of the later points too close to it, the closest is named
    ps = PointSet.of([(0.0, 0.0), (5e-13, 0.0), (1.0, 1.0), (1e-13, 0.0)])
    with pytest.raises(ValueError, match=r"^points 0 and 3 are closer"):
        ps.require_distinct()
    # blocks of rows find a pair past the first block
    pts = np.column_stack((np.arange(300.0), np.zeros(300)))
    pts[299] = (250.0, near)
    with pytest.raises(ValueError, match=r"^points 250 and 299 are closer"):
        PointSet(pts).require_distinct()
    assert PointSet(pts[:299]).require_distinct().p == 299
    assert PointSet.of([(0.0,), (far,)]).require_distinct().p == 2


def test_pointset_takes_its_sizes_from_the_points():
    for bad in (np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match=r"^points must be a \(p, dim\) array, got shape"):
            PointSet(bad)
    with pytest.raises(ValueError, match=r"^points must be a \(p, dim\) array, got shape \(0,\)$"):
        PointSet.of([])
    for arr in (np.zeros((2, 1)), np.arange(12.0).reshape(4, 3), np.eye(5)[:, :2]):
        ps = PointSet(arr)
        assert (ps.p, ps.dim) == arr.shape
    # the points are the one field: p and dim are read from them
    assert [f.name for f in dataclasses.fields(PointSet)] == ["points"]
    with pytest.raises(AttributeError):
        ps.p = 3


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


def test_limit_weights_rows_are_the_weights_of_limit_point():
    # limit_point of the identity family returns its weights, bit for bit
    rng = np.random.default_rng(8)
    for p in (3, 8, 1024):
        t = rng.uniform(1e-3, 1.0 - 1e-3, size=(5, p))
        eye = PointSet(np.eye(p))
        for row, w in zip(t, _limit_weights(np.log1p(-t))):
            assert limit_point(eye, WeightTuple.of(row)).tobytes() == w.tobytes()


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
    rows = _dual_weight_trajectory(t0, 60)
    assert rows.shape == (61, 5)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-14
    w = np.array([
        math.prod(1.0 - v for i, v in enumerate(t0.t) if i != k) for k in range(5)
    ])
    assert rows[0] == pytest.approx(w / w.sum(), rel=1e-13)
    # the normalized weights flatten toward the uniform vector
    assert np.max(np.abs(rows[60] - 0.2)) <= 1e-12


def _dual_weights_by_loop(t0, steps):
    # _dual_weight_trajectory as it was when it normalized one row at a time,
    # on the one-row kernel, and with no stop at a repeated state.  It also
    # returns (start, repeat), where repeat is the first step whose state has
    # the bits of an earlier one and start is the step of that state, or None
    def normalized(log_w):
        shift = np.max(log_w)
        if not np.isfinite(shift):
            return np.full(log_w.size, 1.0 / log_w.size)
        w = np.exp(log_w - shift)
        return w / w.sum()

    b = np.log1p(-np.asarray(t0.t, dtype=float))
    rows, log_ws, first, cycle = np.empty((steps + 1, t0.p)), [], {}, None
    for m in range(steps + 1):
        j = first.setdefault(b.tobytes(), m)
        if cycle is None and j < m:
            cycle = j, m
        log_w = _excluded_sums_1d(b)
        rows[m] = normalized(log_w)
        log_ws.append(log_w)
        with np.errstate(divide="ignore"):
            b = np.log(-np.expm1(log_w))
    return rows, np.array(log_ws), cycle


def test_dual_weight_trajectory_matches_the_row_loop():
    rng = np.random.default_rng(5)
    random_seeds = [
        WeightTuple.of(rng.uniform(lo, hi, size=p))
        for p in (3, 4, 5, 9, 64)
        for lo, hi in ((0.05, 0.95), (1e-3, 1.0 - 1e-3))
    ]
    # one seed at p = 1024, where the loop's kernel takes ~5 ms per step
    random_seeds.append(WeightTuple.of(rng.uniform(0.05, 0.95, size=1024)))
    uniform_seeds = [WeightTuple.of([1.0 / 3.0] * 3), WeightTuple.of([0.5] * 4)]
    for t0 in random_seeds + uniform_seeds:
        ref, log_w, cycle = _dual_weights_by_loop(t0, 400)
        # every orbit here cycles, and the stop copies rows from `repeat` on
        assert cycle is not None
        start, repeat = cycle
        for steps in {0, 1, 2, max(start - 1, 0), start, start + 1, repeat - 1, repeat, repeat + 1, 80, 400}:
            assert _dual_weight_trajectory(t0, steps).tobytes() == ref[: steps + 1].tobytes(), (t0.p, steps)
        if t0 in uniform_seeds:
            continue
        # within 80 steps the orbit runs past its first infinite log weight,
        # through rows whose log weights are all -inf and rows after them
        log_w = log_w[:81]
        inf_rows = np.flatnonzero(np.isinf(log_w).any(axis=1))
        assert inf_rows.size and inf_rows[0] < 80 - 2
        assert np.isinf(log_w).all(axis=1).any()
        assert np.isfinite(log_w[inf_rows[0] + 1 :]).all(axis=1).any()


def test_dual_weight_trajectory_stops_at_the_first_repeated_state(monkeypatch):
    from barypoly import geometry

    calls = []

    def counted(b):
        calls.append(1)
        return _excluded_sums(b)

    monkeypatch.setattr(geometry, "_excluded_sums", counted)
    seed = WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01))
    # the README seed's state 8 repeats state 6: rows 8..200 are copies
    long = _dual_weight_trajectory(seed, 200)
    assert len(calls) <= 10
    # a run that ends before the repeat computes every row
    calls.clear()
    short = _dual_weight_trajectory(seed, 5)
    assert len(calls) == 6
    assert long[:6].tobytes() == short.tobytes()


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
    # a (rows, n, p) batch with an infinity in every row: summing its gather
    # b[..., others] as it stands, rows not contiguous, differs in the last
    # bit here
    for p in (9, 64, 1024):
        batch = np.log(rng.uniform(1e-3, 1.0, size=(3, 4, p)))
        batch[:, np.arange(4), rng.integers(0, p, size=4)] = -np.inf
        batch[2, :, :3] = -np.inf
        got = _excluded_sums(batch)
        assert got.shape == batch.shape
        for row, out in zip(batch.reshape(-1, p), got.reshape(-1, p)):
            assert out.tobytes() == _excluded_sums_1d(row).tobytes()


def test_excluded_sums_gives_a_mixed_batch_the_bits_of_each_row_alone():
    # finite rows beside rows with zero values (logs of -inf): one zero
    # first, in the middle and last, two zeros, and all zeros
    rng = np.random.default_rng(12)
    for p in (2, 3, 8, 9, 64, 1024):
        rows = np.log(rng.uniform(1e-3, 1.0, size=(8, p)))
        for r, zeros in zip(rows[3:], ([0], [p // 2], [p - 1], [0, p - 1], range(p))):
            r[list(zeros)] = -np.inf
        for batch in (rows, rows.reshape(2, 4, p)):
            got = _excluded_sums(batch)
            assert got.shape == batch.shape
            for row, out in zip(rows, got.reshape(-1, p)):
                # equal bytes mean equal bits, -0.0 and the infinities included
                assert out.tobytes() == _excluded_sums_1d(row).tobytes(), p
    # the kernel has one summation path: the row total less the entry
    assert not hasattr(dynamics, "_others") and not hasattr(dynamics, "_BLOCK_ELEMS")


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
    with pytest.raises(ValueError, match=r"requires p >= 3, got 2"):
        dual_sequence(PointSet.of([(0.0, 0.0), (1.0, 0.0)]), WeightTuple.of((0.3, 0.4)), 10)
    degenerate = PointSet.of([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        dual_sequence(degenerate, WeightTuple.of((0.3, 0.3, 0.3)), 10)
    with pytest.raises(ValueError):
        _dual_weight_trajectory(WeightTuple.of((0.3, 0.3, 0.3)), -1)


def test_pointsets_and_dual_records_compare_and_hash_by_identity():
    # their array fields have no truth value, so the generated __eq__ and
    # __hash__ would raise; identity is all they compare
    pts = [(0, 0), (1, 0), (0, 1)]
    a, b = PointSet.of(pts), PointSet.of(pts)
    t0 = WeightTuple.of((0.3, 0.2, 0.1))
    r, s = dual_sequence(a, t0, 5), dual_sequence(a, t0, 5)
    for x, y in ((a, b), (r, s)):
        assert x == x and x != y and not x == y
        assert hash(x) == hash(x) and len({x, y}) == 2


def test_weight_orders():
    t0 = WeightTuple.of((0.2, 0.3, 0.4))
    orders = weight_orders(t0, 3)
    assert len(orders) == 4
    assert orders[0] is t0
    assert orders[1].t == derived_step(t0).t
    assert orders[2].t == derived_step(orders[1]).t
    with pytest.raises(ValueError):
        weight_orders(t0, -1)
