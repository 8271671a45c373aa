import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barypoly import (
    ConjugateTuple,
    Phase,
    SaturationError,
    WeightTuple,
    classify_phase,
    comparison_sequence,
    conjugate_of,
    conjugate_step,
    derived_step,
    run_trajectory,
    solve_alpha,
)


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
        stepped = list(run_trajectory(u0, 50, solve_alpha(max(u0.p, 3))).states)
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


def test_classify_phase():
    alpha = solve_alpha(3)
    assert classify_phase(ConjugateTuple.of((0.1, 0.2, 0.3)), alpha) is Phase.BELOW
    assert classify_phase(ConjugateTuple.of((0.7, 0.8, 0.9)), alpha) is Phase.ABOVE
    assert classify_phase(ConjugateTuple.of((0.1, 0.8, 0.9)), alpha) is Phase.MIXED
    # a component sitting on the threshold is undecidable, hence MIXED
    assert classify_phase(ConjugateTuple.of((0.2, alpha, 0.9)), alpha) is Phase.MIXED
    assert classify_phase(ConjugateTuple.of((0.2, alpha + 5e-16, 0.9)), alpha) is Phase.MIXED
    with pytest.raises(ValueError):
        classify_phase(ConjugateTuple.of((0.2, 0.5, 0.9)), 1.5)


def test_run_trajectory_sorts_and_permutes():
    traj = run_trajectory(ConjugateTuple.of((0.8, 0.2, 0.5)), 3, solve_alpha(3))
    assert traj.states[0].u == (0.2, 0.5, 0.8)
    assert traj.permutation == (1, 2, 0)
    original = (0.8, 0.2, 0.5)
    assert tuple(original[i] for i in traj.permutation) == traj.states[0].u


def test_run_trajectory_fixed_seed_never_saturates():
    alpha = solve_alpha(4)
    traj = run_trajectory(ConjugateTuple.of([alpha] * 4), 12, alpha)
    assert traj.saturation_step is None
    assert traj.saturation_values is None
    assert len(traj) == 13
    assert all(ph is Phase.MIXED for ph in traj.phase)


def test_run_trajectory_saturation_record():
    traj = run_trajectory(ConjugateTuple.of((0.15, 0.5, 0.85)), 400, solve_alpha(3))
    assert traj.saturation_step is not None
    assert traj.saturation_step == len(traj.states)
    assert traj.saturation_values is not None
    assert any(
        v <= math.ulp(0.0) or 1.0 - v <= math.ulp(1.0) for v in traj.saturation_values
    )
    ulp0, ulp1 = math.ulp(0.0), math.ulp(1.0)
    for state in traj.states:
        assert all(v > ulp0 and 1.0 - v > ulp1 for v in state.u)


def test_trajectory_diagnostic_fields():
    traj = run_trajectory(ConjugateTuple.of((0.3, 0.5, 0.6, 0.7)), 6, solve_alpha(4))
    for m, state in enumerate(traj.states):
        assert traj.spread[m] == state.u[-1] / state.u[0] - 1.0
        assert traj.phase[m] is classify_phase(state, traj.alpha)
        for k in range(traj.p):
            direct = math.prod(v for i, v in enumerate(state.u) if i != k)
            assert math.exp(traj.log_products[m][k]) == pytest.approx(direct, rel=1e-12)


def test_comparison_sequence_recurrence():
    seq = comparison_sequence(0.9, 3, 12)
    assert len(seq) == 13
    assert seq[0] == 0.9
    for a, b in zip(seq, seq[1:]):
        assert b == 1.0 - a ** 2


def test_comparison_sequence_reaches_boundary():
    # the scalar orbit is allowed to hit 0 and 1, where it alternates forever
    seq = comparison_sequence(0.99, 5, 60)
    assert 0.0 in seq and 1.0 in seq


def test_comparison_sequence_validation():
    with pytest.raises(ValueError):
        comparison_sequence(0.5, 2, 4)
    with pytest.raises(ValueError):
        comparison_sequence(1.0, 3, 4)
    with pytest.raises(ValueError):
        comparison_sequence(0.5, 3, -1)


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
        permutation=order,
        states=[st.u for st in states],
        log_products=log_products,
        log_bounds=log_bounds,
        spread=[st.u[-1] / st.u[0] - 1.0 for st in states],
        phase=[classify_phase(st, alpha) for st in states],
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
        # many tied components: only a stable sort keeps Python's order
        u = rng.uniform(1e-3, 1.0 - 1e-3, size=p)
        u[::3], u[1::5] = u[0], u[1]
        cases.append((u, 3))
    saturated = 0
    for u0, steps in cases:
        u0 = ConjugateTuple.of(u0)
        alpha = solve_alpha(u0.p)
        got = run_trajectory(u0, steps, alpha)
        ref = _run_trajectory_stepping_then_summing(u0, steps, alpha)
        assert got.permutation == ref["permutation"]
        assert [_bits(st.u) for st in got.states] == [_bits(u) for u in ref["states"]]
        assert len(got.log_products) == len(ref["log_products"])
        for lp, ref_lp, bound in zip(got.log_products, ref["log_products"], ref["log_bounds"]):
            assert all(type(v) is float for v in lp)
            assert max(abs(a - b) for a, b in zip(lp, ref_lp)) <= bound
        assert _bits(got.spread) == _bits(ref["spread"])
        assert list(got.phase) == ref["phase"]
        assert got.saturation_step == ref["saturation_step"]
        if ref["saturation_values"] is None:
            assert got.saturation_values is None
        else:
            assert _bits(got.saturation_values) == _bits(ref["saturation_values"])
            saturated += 1
    assert 0 < saturated < len(cases)


def _record_bits(traj):
    # every field of a record, floats by their bits
    return (
        traj.permutation,
        traj.alpha.hex(),
        [_bits(st.u) for st in traj.states],
        [_bits(lp) for lp in traj.log_products],
        _bits(traj.spread),
        traj.phase,
        traj.saturation_step,
        None if traj.saturation_values is None else _bits(traj.saturation_values),
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
            assert len(batch) == len(u0)
            for row, rec in zip(u0, batch):
                one = run_trajectory(ConjugateTuple.of(row), steps, alpha)
                assert _record_bits(rec) == _record_bits(one)
            ends = {len(rec) for rec in batch}
            if steps == 0:
                assert ends == {1}
            elif steps == 400:
                # rows leave the batch at different steps
                assert len({rec.saturation_step for rec in batch} - {None}) >= 2
    with pytest.raises(ValueError):
        _run_batch(u0, -1, alpha)

