import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barypoly import (
    ConjugateTuple,
    SaturationError,
    WeightTuple,
    conjugate_of,
    conjugate_step,
    derived_step,
    run_trajectory,
    solve_alpha,
)
from barypoly.dynamics import _EPS, _LIBM_REL, PHASE_TIE_TOL, _phase_codes, _reduce_components, _step


def weight_lists(lo=0.05, hi=0.95, min_p=3, max_p=8):
    return st.lists(
        st.floats(min_value=lo, max_value=hi), min_size=min_p, max_size=max_p
    )


def test_derived_step_hand_case():
    t = derived_step(WeightTuple.of((0.2, 0.3, 0.4)))
    assert t.t == pytest.approx((0.42, 0.48, 0.56), rel=1e-14)


def test_conjugate_step_hand_case():
    u = conjugate_step(ConjugateTuple.of((0.6, 0.7, 0.8)))
    assert u.u == pytest.approx((0.44, 0.52, 0.58), rel=1e-14)


@given(weight_lists())
def test_conjugate_duality(vals):
    """The two coordinate systems perform the same step: u' = 1 - t'."""
    t = WeightTuple.of(vals)
    via_u = conjugate_step(conjugate_of(t)).u
    via_t = derived_step(t).t
    for a, b in zip(via_u, via_t):
        assert abs(a - (1.0 - b)) <= 2e-15


@given(weight_lists(lo=0.01, hi=0.99))
def test_step_preserves_order_exactly(vals):
    # shared log total: componentwise order survives with no slack at all
    u = ConjugateTuple.of(sorted(vals))
    stepped = conjugate_step(u)
    assert all(a <= b for a, b in zip(stepped.u, stepped.u[1:]))


@given(weight_lists(lo=1e-6, hi=1.0 - 1e-6, min_p=2, max_p=6))
def test_coordinate_roundtrip(vals):
    t = WeightTuple.of(vals)
    back = WeightTuple.of(1.0 - v for v in conjugate_of(t).u)
    for a, b in zip(t.t, back.t):
        assert abs(a - b) <= 1e-15


def test_step_raises_on_saturation():
    with pytest.raises(SaturationError) as err:
        conjugate_step(ConjugateTuple.of((1e-300, 1e-300, 0.5)))
    assert err.value.values is not None
    assert any(v >= 1.0 for v in err.value.values)
    # A component within one ulp of 1 is still a state of the single step,
    # and already saturation for run_trajectory.
    u = ConjugateTuple.of((1e-8, 1e-8, 0.5))
    assert conjugate_step(u).u[2].hex() == "0x1.fffffffffffffp-1"
    traj = run_trajectory(u, 400, solve_alpha(3))
    assert (len(traj), traj.saturation_step) == (1, 1)


def test_step_raises_when_an_output_reaches_a_bound(monkeypatch):
    # the bounds test of conjugate_step is all that guards the states it
    # builds without validating them again
    from barypoly import dynamics

    u = ConjugateTuple.of((0.2, 0.5, 0.8))
    for bad in (0.0, 1.0, -0.25, 1.5, math.nan):
        monkeypatch.setattr(dynamics, "_step", lambda u, bad=bad: (None, np.array([0.3, bad, 0.6])))
        with pytest.raises(SaturationError):
            conjugate_step(u)


def test_stepped_states_equal_validated_states():
    rng = np.random.default_rng(3)
    seeds = [(0.8, 0.2, 0.5), (0.3, 0.3, 0.9), (1e-300, 1e-300, 0.5)]
    seeds += [rng.uniform(1e-3, 1.0 - 1e-3, size=p) for p in list(range(2, 9)) * 5 + [64]]
    unsorted = 0
    for u0 in seeds:
        u0 = ConjugateTuple.of(u0)
        record = run_trajectory(u0, 50, solve_alpha(max(u0.p, 3)))
        stepped = [ConjugateTuple.of(u) for u in record.states.tolist()]
        state = u0
        for _ in range(50):
            try:
                state = conjugate_step(state)
            except SaturationError:
                break
            stepped.append(state)
        for state in stepped:
            ref = ConjugateTuple.of(state.u)
            assert state == ref
            assert all(type(v) is float for v in state.u)
            assert [v.hex() for v in state.u] == [v.hex() for v in ref.u]
            unsorted += any(a > b for a, b in zip(state.u, state.u[1:]))
    assert unsorted > 0


def test_validation():
    for bad in (math.nan, 0.0, 1.0, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ConjugateTuple(3, (0.5, bad, 0.25))
        with pytest.raises(ValueError):
            ConjugateTuple.of((0.5, bad, 0.25))
    with pytest.raises(ValueError):
        WeightTuple.of((0.5,))
    with pytest.raises(ValueError):
        WeightTuple.of((0.5, 1.0, 0.5))
    with pytest.raises(ValueError):
        ConjugateTuple.of((0.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        WeightTuple(4, (0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        run_trajectory(ConjugateTuple.of((0.2, 0.5, 0.8)), -1, solve_alpha(3))


def test_validation_names_the_first_component_outside():
    for values, named in (((0.5, 1.5, math.nan), "1.5"), ((0.5, math.nan, 0.0), "nan"),
                          (np.array([0.2, -0.0, 2.0]), "-0.0"), ((0.5, math.inf), "inf")):
        with pytest.raises(ValueError, match=rf"strictly inside \(0, 1\), got {named}$"):
            ConjugateTuple.of(values)
        with pytest.raises(ValueError, match=rf"weight tuple components .* got {named}$"):
            WeightTuple.of(values)
    with pytest.raises(ValueError, match="at least 2 components, got 1"):
        ConjugateTuple.of([0.5])
    with pytest.raises(ValueError, match="sequence"):
        ConjugateTuple.of([[0.2, 0.3], [0.4, 0.5]])
    for nested in (np.array([[0.2, 0.3], [0.4, 0.5]]), np.array(0.5)):
        with pytest.raises(ValueError, match=r"needs a flat sequence of components, got shape"):
            ConjugateTuple(2, nested)
        with pytest.raises(ValueError, match=r"weight tuple needs a flat sequence"):
            WeightTuple(2, nested)
    # the components become Python floats, from any iterable
    u = ConjugateTuple(3, (x for x in np.array([0.2, 0.5, 0.8], dtype=np.float32)))
    assert all(type(v) is float for v in u.u) and u.u == (np.float32(0.2), 0.5, np.float32(0.8))
    with pytest.raises(SaturationError) as err:
        conjugate_step(ConjugateTuple.of((1e-300, 1e-300, 0.5)))
    assert all(type(v) is float for v in err.value.values)


def _phase_by_definition(state, alpha):
    # The phase code from its definition, one component at a time: a
    # component within PHASE_TIE_TOL of alpha is undecidable and gives MIXED
    # (0), else all below alpha is BELOW (-1), all above is ABOVE (1), and
    # anything else MIXED.
    if any(abs(v - alpha) <= PHASE_TIE_TOL for v in state):
        return 0
    if all(v < alpha for v in state):
        return -1
    return 1 if all(v > alpha for v in state) else 0


def _codes_of_states(u, alpha):
    # the phase codes of the states of u (components on the last axis) from
    # their extremes, reduced as _run_batch reduces its rows
    return _phase_codes(_reduce_components(np.minimum, u), _reduce_components(np.maximum, u), alpha)


def test_phase_codes():
    alpha = solve_alpha(3)
    states = np.array([
        (0.1, 0.2, 0.3),
        (0.7, 0.8, 0.9),
        (0.1, 0.8, 0.9),
        # a component sitting on the threshold is undecidable, hence MIXED
        (0.2, alpha, 0.9),
        (0.2, alpha + 5e-16, 0.9),
        # the tie alone decides these: without it they would be ABOVE, BELOW
        (alpha + 5e-16, 0.8, 0.9),
        (0.1, 0.2, alpha - 5e-16),
        # NaN, as in the padding of a batch
        (np.nan, 0.8, 0.9),
    ])
    assert _codes_of_states(states, alpha).tolist() == [-1, 1, 0, 0, 0, 0, 0, 0]
    # a single state
    assert [_codes_of_states(u, alpha) for u in states[:3]] == [-1, 1, 0]


def test_phase_codes_match_the_definition_near_the_threshold():
    # unsorted states, half of them with one component at a distance from
    # alpha around PHASE_TIE_TOL, on either side, and some with a NaN
    rng = np.random.default_rng(5)
    # (p = 3 and 8 fold the components one by one, p = 64 reduces them)
    for p in (3, 8, 64):
        alpha = solve_alpha(p)
        u = alpha + rng.uniform(0.01, 0.3, size=(40, 30, p)) * rng.choice([-1.0, 1.0], size=(40, 30, p))
        r, m = np.nonzero(rng.uniform(size=(40, 30)) < 0.5)
        u[r, m, rng.integers(0, p, size=r.size)] = alpha + rng.integers(-12, 13, size=r.size) * 1e-16
        u[::7, ::5, -1] = math.nan
        # more decided states: rows reflected to one side of alpha
        u[::4] = alpha + np.abs(u[::4] - alpha)
        u[1::4] = alpha - np.abs(u[1::4] - alpha)
        codes = _codes_of_states(u, alpha)
        assert codes.shape == (40, 30) and codes.dtype == np.int8
        want = [[_phase_by_definition(u[r, m].tolist(), alpha) for m in range(30)] for r in range(40)]
        assert codes.tolist() == want
        assert {-1, 0, 1} <= set(codes.ravel().tolist())


def test_run_trajectory_sorts_and_permutes():
    # a seed in any order gives the record of its sorted seed, bit for bit
    alpha = solve_alpha(3)
    traj = run_trajectory(ConjugateTuple.of((0.8, 0.2, 0.5)), 3, alpha)
    assert traj.states[0].tolist() == [0.2, 0.5, 0.8]
    assert _record_bits(traj) == _record_bits(run_trajectory(ConjugateTuple.of((0.2, 0.5, 0.8)), 3, alpha))
    rng = np.random.default_rng(31)
    for p in (3, 5, 8, 64):
        alpha = solve_alpha(p)
        u = rng.uniform(1e-3, 1.0 - 1e-3, size=p)
        u[1::3] = u[0]  # tied components
        ref = _record_bits(run_trajectory(ConjugateTuple.of(np.sort(u)), 400, alpha))
        for _ in range(5):
            assert _record_bits(run_trajectory(ConjugateTuple.of(rng.permutation(u)), 400, alpha)) == ref


def test_trajectory_record_is_read_only():
    for traj in (run_trajectory(ConjugateTuple.of((0.8, 0.2, 0.5)), 3, solve_alpha(3)),
                 run_trajectory(ConjugateTuple.of((0.15, 0.5, 0.85)), 400, solve_alpha(3))):
        with pytest.raises(ValueError):
            traj.states[0, 0] = 0.5
        for field in ("spread", "phase", "saturation_values"):
            values = getattr(traj, field)
            if values is not None:
                with pytest.raises(ValueError):
                    values[0] = values[-1]
    assert traj.saturation_values is not None


def test_run_trajectory_fixed_seed_never_saturates():
    alpha = solve_alpha(4)
    traj = run_trajectory(ConjugateTuple.of([alpha] * 4), 12, alpha)
    assert traj.saturation_step is None
    assert traj.saturation_values is None
    assert len(traj) == 13
    assert traj.phase.tolist() == [0] * 13


def test_run_trajectory_saturation_record():
    traj = run_trajectory(ConjugateTuple.of((0.15, 0.5, 0.85)), 400, solve_alpha(3))
    assert traj.saturation_step is not None
    assert traj.saturation_step == len(traj)
    assert traj.saturation_values is not None
    assert any(
        v <= math.ulp(0.0) or 1.0 - v <= math.ulp(1.0) for v in traj.saturation_values
    )
    ulp0, ulp1 = math.ulp(0.0), math.ulp(1.0)
    for state in traj.states.tolist():
        assert all(v > ulp0 and 1.0 - v > ulp1 for v in state)


def test_trajectory_diagnostic_fields():
    traj = run_trajectory(ConjugateTuple.of((0.3, 0.5, 0.6, 0.7)), 6, solve_alpha(4))
    log_products = _step(traj.states)[0]
    for m, state in enumerate(traj.states.tolist()):
        assert traj.spread[m] == state[-1] / state[0] - 1.0
        assert traj.phase[m] == _phase_by_definition(state, traj.alpha)
        for k in range(traj.p):
            direct = math.prod(v for i, v in enumerate(state) if i != k)
            assert math.exp(log_products[m, k]) == pytest.approx(direct, rel=1e-12)


def _run_trajectory_stepping_then_summing(u0, max_steps, alpha):
    # The orbit by conjugate_step, then each state's log sums computed again
    # independently of the kernel: math.log and one correctly rounded fsum.
    order = tuple(sorted(range(u0.p), key=lambda i: u0.u[i]))
    state = ConjugateTuple.of(u0.u[i] for i in order)
    states = [state]
    sat_step = sat_values = None
    for _ in range(max_steps):
        try:
            state = conjugate_step(state)
        except SaturationError as exc:
            sat_step, sat_values = len(states), exc.values
            break
        if any(v <= math.ulp(0.0) or 1.0 - v <= math.ulp(1.0) for v in state.u):
            sat_step, sat_values = len(states), state.u
            break
        states.append(state)
    log_products = []
    log_bounds = []
    for st in states:
        logs = [math.log(v) for v in st.u]
        total = math.fsum(logs)
        log_products.append(tuple(total - lg for lg in logs))
        log_bounds.append(_log_sum_bound(logs))
    return dict(
        states=[st.u for st in states],
        log_products=log_products,
        log_bounds=log_bounds,
        spread=[st.u[-1] / st.u[0] - 1.0 for st in states],
        phase=[_phase_by_definition(st.u, alpha) for st in states],
        saturation_step=sat_step,
        saturation_values=sat_values,
    )


def _log_sum_bound(logs):
    # How far the kernel's excluded log sums may lie from the fsum reference.
    # With eps = 2**-52 and S the sum of |log u_i|: the numpy and math logs
    # are each within an ulp of the true log, so they differ by at most
    # 2 eps |log u_i| and the sums by 2 eps S; numpy sums p terms, in any
    # order within (p - 1) eps/2 S of the exact sum; the fsum total adds
    # eps/2 S, the excluded term 2 eps S, and the two final subtractions
    # eps/2 S each.  That is (p/2 + 5) eps S to first order; the test allows
    # one more eps S for the second-order terms.
    p = len(logs)
    return (p / 2 + 6) * 2.0**-52 * math.fsum(abs(lg) for lg in logs)


def _bits(values):
    # float.hex tells -0.0 from 0.0, so equal strings mean equal bits
    return [x.hex() for x in values]


def test_run_trajectory_matches_stepping_then_summing():
    rng = np.random.default_rng(20261018)
    cases = [((0.15, 0.5, 0.85), 400), ((1e-300, 1e-300, 0.5), 5), ((0.8, 0.2, 0.5), 0)]
    cases += [([solve_alpha(4)] * 4, 12), ((0.3, 0.5, 0.6, 0.7), 6)]
    for p in list(range(3, 9)) * 25 + [64] * 10:
        steps = int(rng.choice([0, 1, 3, 400]))
        cases.append((rng.uniform(1e-3, 1.0 - 1e-3, size=p), steps))
    for p in (16, 64, 1024):
        # many tied components
        u = rng.uniform(1e-3, 1.0 - 1e-3, size=p)
        u[::3], u[1::5] = u[0], u[1]
        cases.append((u, 3))
    saturated = 0
    for u0, steps in cases:
        u0 = ConjugateTuple.of(u0)
        alpha = solve_alpha(u0.p)
        got = run_trajectory(u0, steps, alpha)
        ref = _run_trajectory_stepping_then_summing(u0, steps, alpha)
        assert [_bits(u) for u in got.states] == [_bits(u) for u in ref["states"]]
        log_products = _step(got.states)[0]
        assert len(log_products) == len(ref["log_products"])
        assert log_products.dtype == np.float64
        for lp, ref_lp, bound in zip(log_products.tolist(), ref["log_products"], ref["log_bounds"]):
            assert max(abs(a - b) for a, b in zip(lp, ref_lp)) <= bound
        assert _bits(got.spread) == _bits(ref["spread"])
        assert got.phase.tolist() == ref["phase"]
        assert got.saturation_step == ref["saturation_step"]
        if ref["saturation_values"] is None:
            assert got.saturation_values is None
        else:
            assert _bits(got.saturation_values) == _bits(ref["saturation_values"])
            saturated += 1
    assert 0 < saturated < len(cases)


def _record_bits(traj):
    # every field of a record and the log sums of its states, floats by their bits
    return (
        traj.alpha.hex(),
        [_bits(u) for u in traj.states],
        [_bits(lp) for lp in _step(traj.states)[0]],
        _bits(traj.spread),
        traj.phase.tolist(),
        traj.saturation_step,
        None if traj.saturation_values is None else _bits(traj.saturation_values),
        traj.saturation_phase,
    )


def test_batched_records_equal_one_row_records():
    from barypoly.dynamics import _run_batch

    rng = np.random.default_rng(20261018)
    for p in (3, 4, 5, 6, 7, 8, 64, 1024):
        alpha = solve_alpha(p)
        u0 = rng.uniform(1e-3, 1.0 - 1e-3, size=(24 if p <= 8 else 4, p))
        u0[1, : p // 2] = u0[1, -1]  # tied components
        u0[2] = u0[1, ::-1]
        u0[3] = alpha  # the fixed tuple saturates late, if at all
        for steps in (0, 1, 3, 400):
            batch = _run_batch(u0, steps, alpha)
            records = [batch.row(r) for r in range(len(u0))]
            # one line more than the longest record: its saturating state, or NaN
            assert batch.states.shape == (p, max(len(rec) for rec in records) + 1, len(u0))
            assert batch.states.flags.c_contiguous
            for row, rec in zip(u0, records):
                one = run_trajectory(ConjugateTuple.of(row), steps, alpha)
                assert _record_bits(rec) == _record_bits(one)
            ends = {len(rec) for rec in records}
            if steps == 0:
                assert ends == {1}
            elif steps == 400:
                # rows leave the batch at different steps
                assert len({rec.saturation_step for rec in records} - {None}) >= 2
    with pytest.raises(ValueError):
        _run_batch(u0, -1, alpha)


def test_batch_rows_are_views_in_the_record_layout():
    # A record is views of its row of the batch, and the one-row batch of a
    # record is that row again through its saturating line, bit for bit.
    from barypoly.dynamics import _Batch, _run_batch

    rng = np.random.default_rng(11)
    saturated = rows = 0
    for p in (3, 8, 256):
        u0 = rng.uniform(1e-3, 1.0 - 1e-3, size=(5, p))
        for steps in (3, 400):
            batch = _run_batch(u0, steps, solve_alpha(p))
            for r in range(len(u0)):
                rec = batch.row(r)
                n = int(batch.length[r])
                assert rec.states.shape == (n, p) and np.shares_memory(rec.states, batch.states)
                assert rec.states.tobytes() == np.ascontiguousarray(batch.states[:, :n, r].T).tobytes()
                # the strided view steps as its contiguous copy does
                for got, ref in zip(_step(rec.states), _step(np.ascontiguousarray(rec.states))):
                    assert got.tobytes() == ref.tobytes()
                one = _Batch.of(rec)
                assert one.states.shape == (p, n + 1, 1)
                for name in ("states", "spread", "phase", "low", "high"):
                    got, ref = (np.ascontiguousarray(a) for a in (
                        getattr(one, name)[..., 0], getattr(batch, name)[..., : n + 1, r]))
                    assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), (p, steps, r, name)
                assert (one.saturation_step.tolist(), one.length.tolist()) == (
                    [batch.saturation_step[r]], [batch.length[r]])
                assert _record_bits(one.row(0)) == _record_bits(rec)
                saturated += rec.saturation_step is not None
                rows += 1
    assert 0 < saturated < rows


def _phase_codes_over_planes(u, alpha, tol=PHASE_TIE_TOL):
    # _phase_codes with the components on the first axis
    return (u.min(axis=0) - alpha > tol).astype(np.int8) - (alpha - u.max(axis=0) > tol)


def _batch_by_per_step_scatter(u0, max_steps, alpha):
    # The reference build of a batch, step by step: each recorded step
    # scattered into the planes on its own, lengths counted per step, each
    # saturating state put on its row's line length, and the phase codes
    # reduced over the component axis of the planes.
    u = np.sort(u0, axis=-1)
    rows, p = u.shape
    sat_step, sat_values = np.full(rows, -1), np.full((rows, p), np.nan)
    live = np.arange(rows)
    steps = [(live, u)]
    for step in range(max_steps):
        nxt = _step(u)[1]
        hit = ((nxt <= math.ulp(0.0)) | (nxt >= 1.0 - math.ulp(1.0))).any(axis=-1)
        sat_step[live[hit]], sat_values[live[hit]] = step + 1, nxt[hit]
        live, nxt = live[~hit], nxt[~hit]
        if not live.size:
            break
        u = nxt
        steps.append((live, u))
    states = np.full((p, len(steps) + 1, rows), np.nan)
    length = np.zeros(rows, dtype=int)
    for m, (live, u) in enumerate(steps):
        states[:, m, live] = u.T
        length[live] = m + 1
    sat = np.flatnonzero(sat_step >= 0)
    states[:, length[sat], sat] = sat_values[sat].T
    log_min = np.log(states[0, length - 1, np.arange(rows)])
    tol = np.full(states.shape[1:], PHASE_TIE_TOL)
    tol[length, np.arange(rows)] = PHASE_TIE_TOL + (2 * _LIBM_REL + p * _EPS) * p * -log_min + _LIBM_REL
    return dict(alpha=alpha, states=states, spread=states[-1] / states[0] - 1.0,
                phase=_phase_codes_over_planes(states, alpha, tol), saturation_step=sat_step, length=length)


def test_batch_arrays_equal_the_per_step_scatter_build():
    import dataclasses

    from barypoly.dynamics import _Batch, _run_batch

    fields = [f.name for f in dataclasses.fields(_Batch)]
    assert "permutation" not in fields
    rng = np.random.default_rng(29)
    seen_early = 0
    for p in (2, 3, 8, 9, 33, 1024):
        alpha = solve_alpha(p)
        u0 = rng.uniform(1e-3, 1.0 - 1e-3, size=(12, p))
        u0[1] = alpha  # at alpha: every component undecidable
        u0[2] = alpha + rng.integers(-9, 10, size=p) * 1e-16  # within PHASE_TIE_TOL of alpha
        u0[3, : p // 2 + 1] = u0[3, -1]  # tied components
        u0[4] = u0[3, ::-1]
        u0[5, 0] = 1e-300  # saturates at step 1, beside rows that do not
        for steps in (0, 1, 400):
            batch = _run_batch(u0, steps, alpha)
            want = _batch_by_per_step_scatter(u0, steps, alpha)
            assert fields == list(want)
            for name in fields:
                got, ref = np.asarray(getattr(batch, name)), np.asarray(want[name])
                assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), (p, steps, name)
            assert batch.states.flags.c_contiguous
            seen_early += int(((batch.saturation_step == 1) & (batch.length == 1)).any() and (batch.length > 1).any())
    assert seen_early >= 6


def _assert_extremes_of_the_states(batch, where):
    # low and high are np.min and np.max of every line, bit for bit: a
    # number on every recorded and saturating state, NaN past a row's
    # saturating line and on the line length of a row that did not saturate
    want = {"low": np.min(batch.states, axis=0), "high": np.max(batch.states, axis=0)}
    for name, ref in want.items():
        got = getattr(batch, name)
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), (where, name)
    index = np.arange(batch.states.shape[1])[:, None]
    held = batch.valid | ((index == batch.length) & (batch.saturation_step >= 0))
    assert np.isnan(batch.low[~held]).all() and not np.isnan(batch.high[held]).any(), where


def test_batch_extremes_are_the_extremes_of_its_states():
    # _run_batch's own extremes, those of a record's one-row batch, of the
    # harness fault's batch and of a batch whose states were replaced after
    # its extremes were read
    import dataclasses

    from barypoly.analysis import _perturbed
    from barypoly.dynamics import _Batch, _run_batch

    rng = np.random.default_rng(35)
    for p in (2, 3, 5, 8, 33, 64, 1024):
        alpha = solve_alpha(p)
        # rows closer to alpha saturate later, the row at alpha never
        near = alpha * (1.0 + np.geomspace(1e-1, 1e-9, 5)[:, None] * rng.uniform(-1.0, 1.0, size=(5, p)))
        # rows within 1e-9 of 0 or 1, and rows of tied components
        edge = rng.uniform(1e-12, 1e-9, size=(2, p))
        edge = np.where(rng.uniform(size=(2, p)) < 0.5, edge, 1.0 - edge)
        tied = rng.choice([0.2, 0.5, 0.7], size=(2, p))
        u0 = np.concatenate([rng.uniform(1e-3, 1.0 - 1e-3, size=(4, p)), near, edge, tied, np.full((1, p), alpha)])
        u0[0, 0] = 1e-300  # saturates at step 1
        for steps in (0, 1, 400):
            batch = _run_batch(u0, steps, alpha)
            # _run_batch's states are sorted, so its extremes are its first
            # and last planes, which a sweep reads without a reduction
            assert {"low", "high"} <= vars(batch).keys()
            assert np.shares_memory(batch.low, batch.states) and np.shares_memory(batch.high, batch.states)
            _assert_extremes_of_the_states(batch, (p, steps))
            if steps == 400 and p > 2:  # at p = 2 the step 1 - u reversed is a 2-cycle
                assert len(set(batch.saturation_step.tolist())) >= 3, p
            for r in range(len(u0)):
                _assert_extremes_of_the_states(_Batch.of(batch.row(r)), (p, steps, r))
            _assert_extremes_of_the_states(_perturbed(batch), (p, steps, "perturbed"))
            states = batch.states[::-1] * rng.uniform(0.5, 1.0, size=batch.states.shape)
            replaced = dataclasses.replace(batch, states=states)
            _assert_extremes_of_the_states(replaced, (p, steps, "replaced"))


def test_step_shifted_batch_planes_are_contiguous():
    # A batch is step-major: the pair claims compare step m with step m + 1
    # or m + 2, and every such slice of a component plane, the spreads and
    # the valid mask is one C-contiguous block, not a strided view.
    from barypoly.dynamics import _run_batch

    rng = np.random.default_rng(33)
    for p in (3, 8):
        batch = _run_batch(rng.uniform(1e-3, 1.0 - 1e-3, size=(50, p)), 400, solve_alpha(p))
        assert batch.states.shape[0] == p and batch.states.shape[1] > 3
        for k in range(p):
            assert batch.states[k, 2:].flags.c_contiguous and batch.states[k, :-2].flags.c_contiguous
        assert batch.spread[2:].flags.c_contiguous and batch.spread[:-2].flags.c_contiguous
        assert batch.valid[1:].flags.c_contiguous and batch.valid[2:].flags.c_contiguous
        assert batch.phase.shape == batch.valid.shape == (batch.states.shape[1], 50)


class _ReduceSpy:
    # Stands in for a ufunc and records which path _reduce_components took.
    def __init__(self, ufunc):
        self.ufunc, self.paths = ufunc, set()

    def reduce(self, a, axis):
        self.paths.add("reduce")
        return self.ufunc.reduce(a, axis=axis)

    def __call__(self, *args, **kwargs):
        self.paths.add("fold")
        return self.ufunc(*args, **kwargs)


def test_reduce_components_matches_numpy_reduce_bit_for_bit():
    from barypoly.dynamics import _reduce_components

    rng = np.random.default_rng(7)
    paths = {}
    for p in (2, 3, 8, 32, 64, 1024):
        # a few rows per component, then many
        for rows in (2, 5 * p * p if p <= 32 else 20):
            u = rng.uniform(size=(rows, 3, p))
            u[::3, 2] = np.nan  # NaN padding past a row's length
            u[1::4, 1, rng.integers(0, p)] = np.nan
            bits = u < 0.5
            bits[::5] = True  # rows whose logical_and holds
            for ufunc, a in ((np.maximum, u), (np.minimum, u), (np.logical_or, bits), (np.logical_and, bits)):
                for arr in (a, a[..., 1:], a[..., :1]):  # last: a one-column slice
                    spy = _ReduceSpy(ufunc)
                    got, ref = _reduce_components(spy, arr), ufunc.reduce(arr, axis=-1)
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes()
                    paths.setdefault(arr.shape[-1], set()).update(spy.paths)
    # 2 <= p <= 32 folds at any row count, and the other p stay with numpy
    assert paths[2] == paths[3] == paths[8] == paths[32] == {"fold"}
    assert paths[1] == paths[64] == paths[1024] == {"reduce"}
    # an empty state axis behaves as numpy's reduce
    empty = np.zeros((400, 3, 0))
    assert _reduce_components(np.logical_or, empty > 0).tobytes() == np.zeros((400, 3), bool).tobytes()
    assert _reduce_components(np.logical_and, empty > 0).tobytes() == np.ones((400, 3), bool).tobytes()
    for ufunc in (np.maximum, np.minimum):
        with pytest.raises(ValueError):
            _reduce_components(ufunc, empty)


def test_reduce_components_reduces_a_single_row_as_numpy_does():
    # one row and a (rows, p) array, at every p from 1 to 40, with rows that
    # hold one NaN and rows of NaN
    rng = np.random.default_rng(3)
    for p in range(1, 41):
        u = rng.uniform(size=(6, p))
        u[1, rng.integers(0, p)] = np.nan
        u[2] = np.nan
        for arr in (u, *u):
            for ufunc, a in ((np.maximum, arr), (np.minimum, arr), (np.logical_or, arr < 0.5),
                             (np.logical_and, arr < 0.5)):
                got, ref = np.asarray(_reduce_components(ufunc, a)), np.asarray(ufunc.reduce(a, axis=-1))
                assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), (p, a.shape)
