import collections
import dataclasses
import functools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barypoly import (
    KNOWN_CHECKS,
    CheckResult,
    ConjugateTuple,
    PointSet,
    WeightTuple,
    certificate,
    conjugate_step,
    default_suite,
    polygon_step,
    run_trajectory,
    solve_alpha,
    spectral_check,
    trajectory_checks,
)
from barypoly import analysis, dynamics, geometry
from barypoly.analysis import _TRAJ_CHECKS
from barypoly.dynamics import PHASE_TIE_TOL, _Batch, _phase_codes, _run_batch

# phase codes of a record
BELOW, MIXED = -1, 0


def _oracle_slope_intercept(u):
    # slope = prod_mid (u_j - pi) and intercept = 1 - prod_mid (1 - pi / u_j)
    # of the double state u, in 60-digit arithmetic
    with mpmath.workdps(60):
        v = [mpmath.mpf(float(x)) for x in u]
        pi = mpmath.fprod(v)
        return mpmath.fprod(x - pi for x in v[1:-1]), 1 - mpmath.fprod(1 - pi / x for x in v[1:-1])


def _window_states():
    # Sorted states in CERT_WINDOW at p = 3 to 1024, in ranges that keep pi a
    # normal double; the p = 64 states have pi < 1e-20, where every 1 - x_j
    # rounds to 1 and 1 - prod_mid (1 - x_j) would round to 0.
    rng = np.random.default_rng(22)
    states = [np.array((0.9, 0.95, 0.99)), np.array((0.9, 0.93, 0.95, 0.97, 0.99))]
    for p, lo, hi in ((3, 1e-3, 0.999), (4, 1e-3, 0.999), (5, 1e-3, 0.999), (8, 1e-3, 0.999),
                      (64, 0.3, 0.6), (256, 0.8, 0.99), (1024, 0.95, 0.999)):
        states += [np.sort(rng.uniform(lo, hi, size=p)) for _ in range(4)]
    return states


def test_certificate_slope_and_intercept_against_an_oracle():
    # First-order forward error bounds, eps = 2^-53: pi takes p - 1
    # roundings and x_j = pi / u_j one more.  Each factor u_j - pi adds eps
    # and inherits pi's error scaled by x_j / (1 - x_j), and the slope
    # multiplies p - 2 of them.  The intercept c = 1 - prod_mid (1 - x_j) has
    # relative condition number at most 1 in the x_j (their weighted
    # derivatives sum to the probability of exactly one of independent events
    # of probabilities x_j, c that of at least one), so it inherits p eps;
    # the running union's first step is exact and each later one adds at most
    # eps, (p - 1) eps in all.  4 eps more covers the second-order terms.
    eps = 2.0**-53
    tiny = 0
    for u in _window_states():
        p = len(u)
        figures = analysis._certificate_fields(u, u)
        slope, intercept = float(figures["slope"]), float(figures["intercept"])
        exact_slope, exact_intercept = _oracle_slope_intercept(u)
        pi = math.prod(u.tolist())
        tiny += pi < 1e-20
        x = pi / u[1:-1]
        slope_bound = (2 * p + 4 + (p - 1) * float(np.sum(x / (1.0 - x)))) * eps
        assert abs((slope - exact_slope) / exact_slope) <= slope_bound, (p, u)
        assert abs((intercept - exact_intercept) / exact_intercept) <= (2 * p + 4) * eps, (p, u)
    assert tiny


def _certificate_fields_by_loops(u, u2):
    # _certificate_fields with pi and slope as running products, one
    # component at a time, as its reference
    pi, slope, intercept = np.ones(u.shape[1:]), np.ones(u.shape[1:]), np.zeros(u.shape[1:])
    for j in range(len(u)):
        pi = pi * u[j]
    for j in range(1, len(u) - 1):
        slope = slope * (u[j] - pi)
        intercept = intercept + pi / u[j] * (1.0 - intercept)
    low = slope * u[0]
    return {"slope": slope, "intercept": intercept, "ratio_bound": low / intercept,
            "contraction": low / (low + intercept), "residual_low": np.abs(low + intercept - u2[0]) / np.abs(u2[0]),
            "residual_high": np.abs(slope * u[-1] + intercept - u2[-1]) / np.abs(u2[-1])}


def test_certificate_fields_equal_the_running_product_loops():
    # bit for bit, on one state, on a plane of states and on a strided batch
    # of them, as the checks pass step-shifted views
    rng = np.random.default_rng(33)
    for p in (2, 3, 4, 5, 8, 9, 33, 256, 1024):
        for shape in ((p,), (p, 7), (p, 5, 9)):
            u, u2 = (np.sort(rng.uniform(0.3, 0.999, size=shape), axis=0) for _ in range(2))
            for a, b in ((u, u2), (u[..., ::2], u2[..., ::2])):
                with np.errstate(divide="ignore", invalid="ignore"):
                    got, want = analysis._certificate_fields(a, b), _certificate_fields_by_loops(a, b)
                assert {k: x.tobytes() for k, x in got.items()} == {k: x.tobytes() for k, x in want.items()}, (p, shape)


def _traj(u, steps=2):
    u = tuple(u)
    return run_trajectory(ConjugateTuple.of(u), steps, solve_alpha(len(u)))


def _check(name, traj):
    # one registered check on the one-row batch of a record, as
    # trajectory_checks runs it: row 0's verdict and witness
    passed, witness = _TRAJ_CHECKS[name](_Batch.of(traj))
    return bool(passed[0]), witness(0)


def _with_state(traj, m, q, value):
    # the record with component q of state m set to value, in a copy
    states = traj.states.copy()
    states[m, q] = value
    return dataclasses.replace(traj, states=states)


def _certificate(traj, m):
    # the certificate fields at step m of a record, every claim of which holds
    u = traj.states[m]
    figures = analysis._certificate_fields(u, traj.states[m + 2])
    assert not any(fails(u, figures) for fails, _ in analysis._CERTIFICATE_CLAIMS)
    return {name: float(f) for name, f in figures.items()}


def test_contraction_certificate_hand_case():
    # pi = 0.012, mid factors (0.3 - pi)(0.4 - pi), intercept 1 - (1 - pi/0.3)(1 - pi/0.4)
    traj = _traj((0.2, 0.3, 0.4, 0.5))
    cert = _certificate(traj, 0)
    assert cert["slope"] == pytest.approx(0.288 * 0.388, rel=1e-15)
    assert cert["intercept"] == pytest.approx(0.2 * 0.5 * 0.688, rel=1e-15)
    assert cert["ratio_bound"] == pytest.approx(cert["slope"] * 0.2 / cert["intercept"], rel=1e-15)
    assert cert["residual_low"] <= 1e-12 and cert["residual_high"] <= 1e-12
    u2 = traj.states[2]
    assert cert["slope"] * 0.2 + cert["intercept"] == pytest.approx(u2[0], rel=1e-12)
    assert cert["slope"] * 0.5 + cert["intercept"] == pytest.approx(u2[-1], rel=1e-12)
    # the batch check emits that certificate, and none for a regular seed or
    # for a record without a state m + 2
    regular, two_states = _traj((0.7, 0.7, 0.7), steps=400), _traj((0.2, 0.3, 0.4, 0.5), steps=1)
    assert (len(regular), len(two_states)) == (18, 2)
    for record, emitted in ((traj, 1), (regular, 0), (two_states, 0)):
        assert _check("contraction_certificates", record) == (True, {"certificates": emitted})


def _figures(low, intercept, residual_low=0.0):
    # the figures of a certificate with slope u_0 = low, computed as
    # _certificate_fields computes them, as 0-d arrays
    low, intercept = np.float64(low), np.float64(intercept)
    return {"slope": low, "intercept": intercept, "ratio_bound": low / intercept,
            "contraction": low / (low + intercept), "residual_low": np.float64(residual_low),
            "residual_high": np.float64(0.0)}


def test_each_certificate_claim_row_reports_its_own_reason(monkeypatch):
    # Each row of the claims table gets figures that fail it first, fed to
    # the check in place of the record's own; the reason is that row's text.
    # A NaN residual fails the residual row, in given figures and in those of
    # a record with a NaN component in state m + 2.
    # The contraction row can fail first only by rounding: ratio_bound =
    # low / intercept < 1 gives contraction = low / (low + intercept) < 1/2
    # in exact arithmetic, but at intercept = 1 + 2**-52 the ratio bound is
    # 1 - 2**-52 while low + intercept rounds to 2.
    near_tie = _figures(1.0, 1.0 + 2.0**-52)
    assert near_tie["ratio_bound"] == 1.0 - 2.0**-52 and near_tie["contraction"] == 0.5
    traj = _traj((0.2, 0.3, 0.4, 0.5))
    unsorted = _with_state(traj, 0, 1, 0.45)
    cases = [
        (0, unsorted, _figures(0.1, 0.5), "state at m=0 is not sorted ascending"),
        (1, traj, _figures(-0.1, 0.5), "positivity failed at m=0: slope=-0.1, intercept=0.5"),
        (2, traj, _figures(0.6, 0.5), "ratio bound 1.2 outside (0, 1) at m=0"),
        (3, traj, near_tie, "two-step contraction 0.5 not below 1/2 at m=0"),
        (4, traj, _figures(0.1, 0.5, 1e-9), "recurrence identity residuals (1.000e-09, 0.000e+00) exceed 1e-10 at m=0"),
        (4, traj, _figures(0.1, 0.5, np.nan), "recurrence identity residuals (nan, 0.000e+00) exceed 1e-10 at m=0"),
    ]
    assert sorted({row for row, *_ in cases}) == list(range(len(analysis._CERTIFICATE_CLAIMS)))
    for row, record, figures, reason in cases:
        u = record.states[0]
        failed = [bool(fails(u, figures)) for fails, _ in analysis._CERTIFICATE_CLAIMS]
        assert failed.index(True) == row, reason
        monkeypatch.setattr(analysis, "_certificate_fields", lambda u, u2, figures=figures: {
            name: np.full(u.shape[1:], f) for name, f in figures.items()})
        assert _check("contraction_certificates", record) == (False, {"step": 0, "reason": reason})
    monkeypatch.undo()
    four_steps = _traj((0.2, 0.3, 0.4, 0.5), steps=4)
    for q, residuals in ((0, "(nan, 7.792e-16)"), (3, "(9.135e-16, nan)")):
        assert _check("contraction_certificates", _with_state(four_steps, 2, q, np.nan)) == (False, {
            "step": 0, "reason": f"recurrence identity residuals {residuals} exceed 1e-10 at m=0"})


def test_contraction_equals_observed_spread_ratio():
    """The two-step affine recurrence makes the spread ratio exactly the
    certificate's contraction field, up to rounding."""
    traj = _traj((0.2, 0.3, 0.4, 0.5), steps=4)
    for m in (0, 2):
        contraction = _certificate(traj, m)["contraction"]
        assert traj.spread[m + 2] / traj.spread[m] == pytest.approx(contraction, rel=1e-8)
        assert contraction < 0.5


def test_contraction_certificates_fail_an_unsorted_row_only():
    # Two components of one row's state 1 swapped in a p = 3 batch of 100
    # rows: that row fails with the reason, and every other row keeps its
    # verdict and witness.
    alpha = solve_alpha(3)
    clean = _run_batch(np.random.default_rng(0).uniform(1e-3, 1.0 - 1e-3, size=(100, 3)), 400, alpha)
    r = 7
    states = clean.states.copy()
    states[[1, 2], 1, r] = states[[2, 1], 1, r]
    swapped = dataclasses.replace(clean, states=states)
    for name, check in _TRAJ_CHECKS.items():
        (passed, witness), (ref_passed, ref_witness) = check(swapped), check(clean)
        others = [i for i in range(100) if i != r]
        assert passed[others].tolist() == ref_passed[others].tolist(), name
        assert [witness(i) for i in others] == [ref_witness(i) for i in others], name
    passed, witness = _TRAJ_CHECKS["contraction_certificates"](swapped)
    assert not passed[r] and witness(r) == {"step": 1, "reason": "state at m=1 is not sorted ascending"}


def test_spread_geometric_bound_passes_on_the_seeds_of_its_false_failures():
    # Each sweep failed one p = 3 row against the closed form 0.5**q
    # spread[0] + 1e-12, at q = 22, 19 and 21, where an 80-digit orbit from
    # the same seed stays under it: the float spread there is storage noise.
    for rng_seed in (3880892050, 2194672933, 3463478872):
        (res,) = default_suite(rng_seed=rng_seed, checks=["spread_geometric_bound"])
        assert res.passed, res.witness


def _geometric_bounds(traj):
    # B_q = B_{q-1} / 2 + a_q from B_0 = spread[0], a_q the allowance of
    # spread_contraction for the pair (2q - 2, 2q), for every recorded even
    # state 2q
    S = traj.spread
    bound = [S[0]]
    for q in range(1, (len(traj) + 1) // 2):
        a_q = 10.0 * (5.6e-17 / (1.0 - traj.states[2 * q - 1].max()) + 1e-14) * (1.0 + S[2 * q - 2])
        bound.append(0.5 * bound[-1] + a_q)
    return bound


def _assert_fails_at_twice_the_bound(traj, q):
    bound = _geometric_bounds(traj)[q] + 1e-12
    spread = traj.spread.copy()
    spread[2 * q] = 2.0 * bound
    ok, witness = _check("spread_geometric_bound", dataclasses.replace(traj, spread=spread))
    assert not ok and witness == {"q": q, "spread": spread[2 * q], "bound": bound}


def test_spread_geometric_bound_fails_on_a_clean_state_at_twice_its_bound():
    traj = _traj((0.2, 0.5, 0.8), steps=400)
    assert traj.states[:5].max() < 0.99 and _check("spread_geometric_bound", traj) == (True, {})
    for q in (1, 2):
        _assert_fails_at_twice_the_bound(traj, q)


def test_spread_geometric_bound_audits_every_recorded_even_state():
    # The orbit comes within 1e-10 of 1 before its last recorded even state.
    # A spread at twice its bound fails at every even state, the one past
    # that deep-corner state included.
    traj = _traj((0.15, 0.5, 0.85), steps=400)
    assert _check("spread_geometric_bound", traj) == (True, {})
    near_one = int(np.argmax(1.0 - traj.states.max(axis=1) <= 1e-10))
    last = (len(traj) - 1) // 2
    assert 0 < near_one < 2 * last
    for q in range(1, last + 1):
        _assert_fails_at_twice_the_bound(traj, q)


def test_ratio_monotonicity_catches_corruption():
    check = functools.partial(_check, "ratio_monotone")
    traj = _traj((0.2, 0.3, 0.4, 0.5), steps=6)
    assert check(traj) == (True, {})
    bad = _with_state(traj, 2, -1, min(traj.states[2, -1] + 0.2, 0.999))
    ok, witness = check(bad)
    assert not ok and witness["step"] in (0, 2)


def test_order_checks_fail_a_nan_component():
    # a NaN component fails the state it belongs to, and the pairs of states
    # two steps apart that hold it
    traj = _traj((0.2, 0.3, 0.4, 0.5), steps=6)
    for m in (0, 2, 3, 6):
        bad = _with_state(traj, m, 1, math.nan)
        assert _check("order_preserved", bad) == (False, {"step": m})
        assert _check("ratio_monotone", bad) == (False, {"step": m - 2 if m >= 2 else m})


def _first_step(bad):
    # the index of the first True of every row r of an (n, rows) bad[:, r],
    # -1 in a row without one
    if not len(bad):
        return np.full(bad.shape[1], -1)
    return np.where(bad.any(axis=0), bad.argmax(axis=0), -1)


def _ratio_monotone_by_pair_loop(batch):
    # The all-pairs loop that ratio_monotone ran before its running extremes,
    # as its oracle: every sorted pair k < l of every two states two steps
    # apart, each pair with its own slack.  The first failing m of every
    # row, -1 in a row that passes.
    U = batch.states
    a, b = U[:, :-2], U[:, 2:]
    tol = np.maximum(analysis.RATIO_SLACK, 10.0 * batch.pair_noise)
    bad = np.zeros(b.shape[1:], dtype=bool)
    for k in range(len(U) - 1):
        r_now = b[k + 1:] / b[k]
        bad |= ((r_now < 1.0 - tol) | (r_now > a[k + 1:] / a[k] + tol)).any(axis=0)
    return _first_step(bad & batch.valid[2:])


def _assert_ratio_monotone_implies_the_pair_loop(batch):
    # Every row that fails the pair loop fails the check, at the same m or
    # before it; returns how many rows each fails
    oracle = _ratio_monotone_by_pair_loop(batch)
    passed, witness = analysis._traj_ratio_monotone(batch)
    for r in np.flatnonzero(oracle >= 0):
        assert not passed[r] and witness(r)["step"] <= oracle[r], (r, oracle[r])
    return int((oracle >= 0).sum()), int((~passed).sum())


def _swapped(traj, m, rng):
    states = traj.states.copy()
    k, l = rng.choice(traj.p, size=2, replace=False)
    states[m, [k, l]] = states[m, [l, k]]
    return dataclasses.replace(traj, states=states)


def _scaled(traj, m, rng, factor, one=True, shift=0.0):
    # one random component of state m (or all of it) times factor, plus shift
    states = traj.states.copy()
    q = int(rng.integers(traj.p)) if one else slice(None)
    states[m, q] = np.minimum(states[m, q] * factor + shift, 1.0 - 1e-9)
    return dataclasses.replace(traj, states=states)


def test_ratio_monotone_agrees_with_the_pair_loop(sweep):
    # The clean sweep passes both; its injected faults and six mutant kinds
    # at a random state, where the pair loop fails, fail the check too.
    rng = np.random.default_rng(27)
    for traj in sweep:
        assert _assert_ratio_monotone_implies_the_pair_loop(_Batch.of(traj)) == (0, 0)
    mutants = [
        lambda traj, m: _swapped(traj, m, rng),
        lambda traj, m: _scaled(traj, m, rng, 1.0 + 1e-9),
        lambda traj, m: _scaled(traj, m, rng, 1.0 + 1e-6, one=False),
        lambda traj, m: _scaled(traj, m, rng, 1.0, shift=0.07),
        lambda traj, m: _repeated_state(traj),
        lambda traj, m: _halfway_to_alpha(traj),
    ]
    oracle_failed = 0
    for traj in sweep[::2]:
        if len(traj) < 3:
            continue
        bad = [analysis._perturbed_record(traj)]
        bad += [mutant(traj, int(rng.integers(len(traj)))) for mutant in mutants]
        for rec in bad:
            if rec is not None:
                failed, _ = _assert_ratio_monotone_implies_the_pair_loop(_Batch.of(rec))
                oracle_failed += failed
    assert oracle_failed > 500


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.integers(1, 4), st.integers(0, 6), st.randoms(use_true_random=False),
       st.lists(st.sampled_from([1.0 + 1e-13, 1.0 + 1e-11, 1.0 - 1e-9, 1.0 + 1e-6, 1.07, 0.5]), max_size=4))
def test_ratio_monotone_implies_the_pair_loop_on_random_batches(p, rows, steps, random, factors):
    # orbits of random seeds with random components scaled by the factors,
    # in one batch of rows of different lengths
    seeds = np.array([[random.uniform(1e-3, 1.0 - 1e-3) for _ in range(p)] for _ in range(rows)])
    batch = _run_batch(seeds, steps, solve_alpha(max(p, 3)))
    states = batch.states.copy()
    for factor in factors:
        r = random.randrange(rows)
        at = (random.randrange(p), random.randrange(int(batch.length[r])), r)
        states[at] = min(states[at] * factor, 1.0 - 1e-9)
    _assert_ratio_monotone_implies_the_pair_loop(dataclasses.replace(batch, states=states))


def test_ratio_monotone_does_not_add_consecutive_slacks():
    # A nearly regular state u whose state two steps on moves each
    # consecutive gap by 0.6 times that gap's slack: the pair (0, 2) moves by
    # about 1.2 times its own slack and fails, which a test of the
    # consecutive pairs alone would pass.
    u = np.array([0.5, 0.501, 0.502])
    tol = analysis.RATIO_SLACK
    y = np.cumprod([1.0, 1.0 + 0.6 * tol * u[0] / u[1], 1.0 + 0.6 * tol * u[1] / u[2]])
    traj = _record_of_states([u, u, u * y])
    batch = _Batch.of(traj)
    assert batch.pair_noise.max() * 10.0 < tol

    def consecutive_only(u, v):
        r_now, r_then = v[1:] / v[:-1], u[1:] / u[:-1]
        return bool(((r_now >= 1.0 - tol) & (r_now <= r_then + tol)).all())

    assert consecutive_only(u, u * y)
    assert _ratio_monotone_by_pair_loop(batch)[0] == 0
    assert _check("ratio_monotone", traj) == (False, {"step": 0})


def _fixed_point_traj():
    alpha = solve_alpha(3)
    return run_trajectory(ConjugateTuple.of([alpha] * 3), 10, alpha)


def test_detect_alternation_on_generic_seed():
    traj = _traj((0.2, 0.5, 0.8), steps=400)
    ok, witness = _check("phase_alternation", traj)
    assert ok
    m0 = witness["m0"]
    assert all(ph == MIXED for ph in traj.phase[:m0].tolist())
    decided = traj.phase[m0:].tolist()
    assert MIXED not in decided
    assert all(a != b for a, b in zip(decided, decided[1:]))


def test_detect_alternation_fixed_point_has_nothing_to_find():
    ok, witness = _check("phase_alternation", _fixed_point_traj())
    assert not ok
    assert witness == {"reason": "no decided phase within the recorded horizon"}


def test_undecided_phase_blames_saturation_only_when_the_orbit_saturated():
    # a MIXED seed at --steps 0 never took a step, let alone saturated
    unstepped = _traj((0.2, 0.5, 0.8), steps=0)
    assert unstepped.saturation_step is None
    assert _check("phase_alternation", unstepped) == (
        False, {"reason": "no decided phase within the recorded horizon"})
    # at p = 256 a random seed saturates at its first step, so only the MIXED
    # seed is recorded: the saturating state's phase is m0
    rng = np.random.default_rng(0)
    saturated = _traj(sorted(rng.uniform(1e-3, 1.0 - 1e-3, size=256)), steps=400)
    assert saturated.saturation_step == 1 and len(saturated) == 1
    assert _check("phase_alternation", saturated) == (True, {"m0": 1, "m0_from": "saturation"})
    # a saturating state left undecided decides nothing
    undecided = dataclasses.replace(saturated, saturation_phase=MIXED)
    assert _check("phase_alternation", undecided) == (
        False, {"reason": "no decided phase before saturation"})


def test_even_odd_limits_saturated_is_decided():
    traj = _traj((0.2, 0.5, 0.8), steps=400)
    assert traj.saturation_step is not None
    ok, witness = _check("even_odd_limits", traj)
    assert ok and witness["verdict"] in ("even_to_zero_odd_to_one", "even_to_one_odd_to_zero")


def test_even_odd_limits_fixed_point_is_undecided():
    ok, witness = _check("even_odd_limits", _fixed_point_traj())
    assert not ok and witness == {"reason": "undecided at the recorded horizon"}


def test_verdict_matches_alternation_parity(sweep):
    """The saturation-side verdict and the phase pattern tell the same story:
    whichever parity is BELOW heads to the zero corner."""
    for traj in sweep[::17]:
        _, alternation = _check("phase_alternation", traj)
        decided, limits = _check("even_odd_limits", traj)
        if "m0" not in alternation or not decided:
            continue
        m0 = alternation["m0"]
        below_on_even = (traj.phase[m0] == BELOW) == (m0 % 2 == 0)
        expected = "even_to_zero_odd_to_one" if below_on_even else "even_to_one_odd_to_zero"
        assert limits["verdict"] == expected


def test_comparison_domination():
    check = functools.partial(_check, "comparison_domination")
    # every recorded pair and the saturating pair
    assert check(_traj((0.2, 0.5, 0.8), steps=400)) == (True, {"pairs": 15})
    assert check(_fixed_point_traj()) == (True, {"pairs": 10})
    # at p = 2 the step is u' = 1 - u reversed, so the bracket is exact
    assert check(_traj((0.2, 0.3), steps=4)) == (True, {"pairs": 4})


@pytest.mark.parametrize("u", [(0.2, 0.5, 0.8), (0.3, 0.08, 0.06, 0.04, 0.01), (0.12, 0.34, 0.56, 0.78)])
def test_comparison_domination_reads_a_saturating_states_true_extremes(u):
    # Every component of these saturating states is exactly 1.0.  With its
    # component 1 set to half of component 0 the state is unsorted, and its
    # least component, no longer its first, leaves the lower bracket: a check
    # that read the first and last components would see 1.0 and pass it.
    traj = _traj(u, steps=400)
    v = traj.saturation_values.copy()
    assert (v == 1.0).all()
    v[1] = v[0] / 2
    bad = dataclasses.replace(traj, saturation_values=v)
    failed = {r.name: r.witness for r in trajectory_checks(bad) if not r.passed}
    assert failed == {"comparison_domination": {"bracket": "lower", "step": len(traj) - 1}}


def _comparison_domination_inline(traj):
    # The check as it was before the one-step bracket, with its 1e-12 slack:
    # the scalar orbit x -> 1 - x**(p-1) in Python floats, from the first
    # BELOW step b0, must bound the extremes from b0 on.  It is the oracle of
    # the multi-step claim, which the bracket implies by induction.
    states = traj.states.tolist()
    b0 = next((i for i, ph in enumerate(traj.phase.tolist()) if ph == BELOW), None)
    if b0 is None or b0 + 1 >= len(states):
        return True, {}
    p, slack = traj.p, 1e-12
    u_top = states[b0][-1]
    u_low_next = states[b0 + 1][0]
    if u_low_next > 1.0 - u_top ** (p - 1):
        tau = u_top
    else:
        tau = (1.0 - u_low_next) ** (1.0 / (p - 1))
    for offset in range(len(states) - b0):
        m = b0 + offset
        u = states[m]
        if offset % 2 == 0:
            if tau < u[-1] - slack:
                return False, {"step": m}
        else:
            if tau > u[0] + slack:
                return False, {"step": m}
        tau = 1.0 - tau ** (p - 1)
    return True, {}


def _restated(traj, states):
    # the record with the given states, its spreads and phase codes
    # computed from them as the record builder computes them
    return dataclasses.replace(traj, states=states, spread=states[:, -1] / states[:, 0] - 1.0,
                               phase=_phase_codes(states.min(axis=-1), states.max(axis=-1), traj.alpha))


def _first_decided(traj):
    decided = np.flatnonzero(traj.phase != MIXED)
    return int(decided[0]) if decided.size else None


def _edited_at_m0_plus_2(traj, edit):
    # the record with state m0 + 2 replaced by edit(state, alpha)
    m0 = _first_decided(traj)
    if m0 is None or m0 + 2 >= len(traj):
        return None
    states = traj.states.copy()
    states[m0 + 2] = edit(states[m0 + 2], traj.alpha)
    return _restated(traj, states)


def _halfway_to_alpha(traj):
    # state m0 + 2 moved halfway to alpha
    return _edited_at_m0_plus_2(traj, lambda u, alpha: (u + alpha) / 2)


def _off_the_corner(traj):
    # the last recorded even state moved 1e-3 away from its corner
    m = (len(traj) - 1) // 2 * 2
    if m < 1:
        return None
    states = traj.states.copy()
    states[m] = np.where(states[m] < traj.alpha, states[m] + 1e-3, states[m] - 1e-3)
    return _restated(traj, states)


def _repeated_state(traj):
    # state m0 recorded again as state m0 + 1
    m0 = _first_decided(traj)
    if m0 is None or m0 + 1 >= len(traj):
        return None
    states = traj.states.copy()
    states[m0 + 1] = states[m0]
    return _restated(traj, states)


def _wrong_saturating_phase(traj):
    if not traj.saturation_phase:
        return None
    return dataclasses.replace(traj, saturation_phase=-traj.saturation_phase)


def _mirrored_saturating_state(traj):
    if traj.saturation_values is None:
        return None
    return dataclasses.replace(traj, saturation_values=1.0 - traj.saturation_values)


_MUTANTS = (_halfway_to_alpha, _off_the_corner, _repeated_state, _wrong_saturating_phase,
            _mirrored_saturating_state)

# The mutation matrix's further mutants, each an edit of state m0 + 2: its two
# smallest components swapped, its mirror image 1 - u reversed (sorted), and
# its smallest component nudged up by a relative 1e-9 and 1e-6.
_STATE_EDITS = {
    "swapped_pair": lambda u, alpha: u[[1, 0, *range(2, len(u))]],
    "mirrored_state": lambda u, alpha: 1.0 - u[::-1],
    "nudged_1e-9": lambda u, alpha: u * np.r_[1.0 + 1e-9, np.ones(len(u) - 1)],
    "nudged_1e-6": lambda u, alpha: u * np.r_[1.0 + 1e-6, np.ones(len(u) - 1)],
}


def test_comparison_domination_matches_the_inline_orbit(sweep):
    # The bracket at every step implies the inline orbit's multi-step claim,
    # so every record that fails the inline orbit must fail the check: the
    # clean sweep, the mutants of every other record, and records with one
    # component of one state moved, phases left as recorded.
    check = functools.partial(_check, "comparison_domination")
    rng = np.random.default_rng(17)
    records = list(sweep)
    for traj in sweep[::2]:
        records += [m for mutant in _MUTANTS if (m := mutant(traj)) is not None]
    for traj in sweep[::5]:
        if len(traj) < 2:
            continue
        m = int(rng.integers(0, len(traj)))
        q = int(rng.integers(0, traj.p))
        step = rng.choice([-1.0, 1.0]) * rng.choice([1e-13, 1e-11, 1e-3, 0.1])
        records.append(_with_state(traj, m, q, min(max(traj.states[m, q].item() + float(step), 1e-9), 1.0 - 1e-9)))
    caught = 0
    for traj in records:
        if not _comparison_domination_inline(traj)[0]:
            assert not check(traj)[0]
            caught += 1
    assert caught > 100
    assert {check(traj)[0] for traj in records} == {True, False}


def _failing_columns(traj):
    # the trajectory checks that fail the record, and "claim i" for the row
    # of the certificate's claims table whose reason a failure gives
    failed = {r.name: r.witness for r in trajectory_checks(traj) if not r.passed}
    columns = set(failed)
    if "contraction_certificates" in failed:
        reason = failed["contraction_certificates"]["reason"]
        columns.add(next(f"claim {i}" for i, (_, text) in enumerate(analysis._CERTIFICATE_CLAIMS)
                         if reason.startswith(text.split("{")[0])))
    return columns


def test_mutants_fail_the_checks_whose_claims_they_break(sweep):
    # Each mutant makes a claim false on every row it applies to, and the
    # check of that claim must fail there.
    must_fail = {
        _halfway_to_alpha: ["comparison_domination"],
        _repeated_state: ["comparison_domination", "phase_alternation"],
        _wrong_saturating_phase: ["phase_alternation"],
        _mirrored_saturating_state: ["comparison_domination"],
    }
    applied = collections.Counter()
    for traj in sweep[::2]:
        for mutant in _MUTANTS:
            bad = mutant(traj)
            if bad is None:
                continue
            applied[mutant] += 1
            for name in must_fail.get(mutant, ()):
                assert not _check(name, bad)[0], (mutant.__name__, name)
            if mutant is _off_the_corner:
                # a state within LIMIT_TOL of its corner, moved 1e-3, leaves
                # the bracket; one 1e-3 from its corner may stay inside it
                m = (len(traj) - 1) // 2 * 2
                if min(traj.states[m].max(), 1.0 - traj.states[m].min()) < analysis.LIMIT_TOL:
                    assert not _check("comparison_domination", bad)[0]
                    applied["deep"] += 1
            elif mutant is _mirrored_saturating_state:
                # where the mirror still hits exactly one corner, it is the
                # other corner from the one the phase code names
                v = bad.saturation_values
                if (v <= math.ulp(0.0)).any() != (1.0 - v <= math.ulp(1.0)).any():
                    assert not _check("even_odd_limits", bad)[0]
                    applied["one_corner"] += 1
    assert min(applied.values()) > 300, applied

    # The mutation matrix over sweep[::10].  Its columns are the trajectory
    # checks and "claim i", the row of the certificate's claims table whose
    # reason contraction_certificates gives.  Per mutant, the columns that
    # fail on every row it applies to, and those that fail on some row; the
    # others fail on none.  README tabulates the counts.
    mutants = {m.__name__.strip("_"): m for m in _MUTANTS} | {
        name: functools.partial(_edited_at_m0_plus_2, edit=edit) for name, edit in _STATE_EDITS.items()}
    columns = {*_TRAJ_CHECKS, *(f"claim {i}" for i in range(len(analysis._CERTIFICATE_CLAIMS)))}
    failing = {name: [] for name in mutants}
    for traj in sweep[::10]:
        for name, mutant in mutants.items():
            if (bad := mutant(traj)) is not None:
                failing[name].append(_failing_columns(bad))
    assert min(map(len, failing.values())) == 100
    pair = {"ratio_monotone", "spread_contraction", "contraction_certificates", "claim 4"}
    expected = {
        "halfway_to_alpha": ({"t_ratio_transfer", "comparison_domination"}, pair),
        "off_the_corner": (set(), {"t_ratio_transfer", "comparison_domination"} | pair),
        "repeated_state": ({"t_ratio_transfer", "phase_alternation", "comparison_domination"},
                           pair | {"spread_geometric_bound"}),
        "wrong_saturating_phase": ({"phase_alternation", "even_odd_limits"}, set()),
        "mirrored_saturating_state": ({"comparison_domination"}, {"even_odd_limits"}),
        "swapped_pair": (set(), {"order_preserved", "t_ratio_transfer", "comparison_domination"} | pair),
        "mirrored_state": ({"t_ratio_transfer"}, pair | {"spread_geometric_bound", "phase_alternation",
                                                         "comparison_domination"}),
        "nudged_1e-9": (set(), {"order_preserved", "ratio_monotone", "contraction_certificates", "claim 4",
                                "t_ratio_transfer", "comparison_domination"}),
        "nudged_1e-6": ({"t_ratio_transfer"}, {"order_preserved", "ratio_monotone", "contraction_certificates",
                                               "claim 4", "comparison_domination"}),
    }
    for name, rows in failing.items():
        always, some = expected[name]
        assert set.intersection(*rows) == always, name
        assert columns - set.union(*rows) == columns - always - some, name


def test_saturating_phase_margin_against_a_60_digit_orbit():
    # The saturating state of each record is the step's image of its last
    # recorded state.  Its float components lie within the margin of the
    # 60-digit image, less PHASE_TIE_TOL, which is what makes a decided code
    # sound; and the 60-digit orbit from the seed, stepped to the
    # saturation index, has the phase of the float code at every p.
    eps, eta = 2.0**-53, 8 * 2.0**-53
    for p in (32, 64, 256, 1024):
        alpha = solve_alpha(p)
        batch = _run_batch(np.random.default_rng(p).uniform(1e-3, 1.0 - 1e-3, size=(2, p)), 400, alpha)
        with mpmath.workdps(60):
            exact_alpha = mpmath.mpf(alpha)
            for _ in range(4):
                exact_alpha -= (exact_alpha ** (p - 1) + exact_alpha - 1) / ((p - 1) * exact_alpha ** (p - 2) + 1)
            for r in range(2):
                traj = batch.row(r)
                assert traj.saturation_phase in (BELOW, 1)
                u = [mpmath.mpf(x) for x in traj.states[0].tolist()]
                for _ in range(traj.saturation_step):
                    logs = [mpmath.log(x) for x in u]
                    total = mpmath.fsum(logs)
                    u = [-mpmath.expm1(total - lg) for lg in logs]
                assert all((x > exact_alpha) == (traj.saturation_phase == 1) for x in u), (p, r)
                last = [mpmath.mpf(x) for x in traj.states[-1].tolist()]
                logs = [mpmath.log(x) for x in last]
                total = mpmath.fsum(logs)
                image = [-mpmath.expm1(total - lg) for lg in logs]
                bound = (2 * eta + p * eps) * p * -math.log(traj.states[-1, 0]) + eta
                error = max(abs(mpmath.mpf(v) - x) for v, x in zip(traj.saturation_values.tolist(), image))
                assert error <= bound, (p, r)
                assert min(abs(x - exact_alpha) for x in image) > 1e3 * (bound + PHASE_TIE_TOL), (p, r)


def _dense_jacobian(p, beta):
    # The Jacobian of the conjugate step at the stationary state as a dense
    # matrix: zero diagonal, -beta everywhere else.
    A = np.full((p, p), -beta)
    np.fill_diagonal(A, 0.0)
    return A


def test_linearized_matrix_and_spectrum(det_residuals):
    A = _dense_jacobian(4, 0.25)
    assert A.shape == (4, 4)
    assert np.all(np.diag(A) == 0.0)
    off = A[~np.eye(4, dtype=bool)]
    assert np.all(off == -0.25)
    assert all(spectral_check(p) for p in range(3, 33))
    with pytest.raises(ValueError):
        spectral_check(2)
    for p in range(3, 9):
        assert max(det_residuals(p)) < 1e-9


def test_spectral_residual_keeps_a_margin():
    # The complex-step residual of the production step, which only rounding
    # sets, stays well inside the tolerance.
    for p in (*range(3, 65), 256, 1024, 4096, 8192):
        assert analysis._spectral_residual(certificate(p)) <= analysis.SPECTRAL_ATOL / 5, p


@pytest.mark.parametrize("p", [8, 1024])
def test_spectral_check_fails_on_a_faulty_step_or_certificate(monkeypatch, p):
    # Each fault moves some eigen-action by far more than the tolerance;
    # spectral_check must see it through the step it differentiates or the
    # certificate it compares with.
    sums = dynamics._excluded_sums

    def hyperplane_defect(b):
        # adds 1e-9 (b_0 - b_1) to the sum of row 3: its Jacobian row keeps
        # its sum, so the all-ones vector does not see the defect
        out = sums(b)
        out[..., 3] += 1e-9 * (b[..., 0] - b[..., 1])
        return out

    cert = certificate(p)
    faults = [
        (dynamics, "_excluded_sums", lambda b: sums(b) * (1.0 + 1e-9)),
        (dynamics, "_excluded_sums", hyperplane_defect),
        (analysis, "certificate",
         lambda q: dataclasses.replace(cert, lambda_contractive=cert.beta * (1.0 + 1e-9))),
    ]
    for module, name, fault in faults:
        monkeypatch.setattr(module, name, fault)
        assert not spectral_check(p), name
        monkeypatch.undo()
        assert spectral_check(p)


def _t_ratio_by_pair_loop(traj):
    # The t-ratio identity checked pair by pair in Python floats, as its
    # oracle: with w_k = (1 - u_k^(m+1)) u_k^(m), the largest pair ratio
    # w_l / w_k - 1 against twice the forward-error bound of state m.  A
    # rounded quotient is monotone in both operands, so the largest pair
    # ratio is bitwise the ratio of the extremes.
    eps, eta = 2.0**-53, 8 * 2.0**-53
    for m in range(len(traj) - 1):
        u, t = traj.states[m].tolist(), (1.0 - traj.states[m + 1]).tolist()
        w = [tk * uk for tk, uk in zip(t, u)]
        diff = max(wl / wk - 1.0 for wk in w for wl in w)
        bound = 2 * (eta * abs(math.log(u[0])) + eps * abs(math.log(t[-1])) + (eta + eps) / t[-1]) + 5 * eps
        if not diff <= 2 * bound:
            return False, {"step": m, "diff": diff}
    return True, {}


def _record_of_states(rows):
    # A record of the given sorted rows as its states; spreads and phases
    # come from the record builder itself.
    recs = [_traj(u, steps=0) for u in rows]
    return dataclasses.replace(recs[0], **{
        field: np.concatenate([getattr(r, field) for r in recs]) for field in ("states", "spread", "phase")})


def _assert_same_t_ratio_verdict(traj):
    ok, info = _check("t_ratio_transfer", traj)
    ref_ok, ref_info = _t_ratio_by_pair_loop(traj)
    assert ok == ref_ok
    if not ok:
        assert (info["step"], info["diff"]) == (ref_info["step"], ref_info["diff"])
    return ok


def _near_alpha_record(p, steps=400, seed=0):
    # The orbit from alpha (1 + 1e-6 noise), which records several states
    # at any p, where a uniform seed records one from p = 64 on.
    alpha = solve_alpha(p)
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=p)
    return _traj(alpha * (1.0 + 1e-6 * noise), steps=steps)


def test_t_ratio_transfer_agrees_with_pair_loop():
    # Orbits at p = 3..8, 16, 64 and 256 with one component of a successor
    # state moved.  One ulp, the error of storing it, passes; a move of its
    # weight by 1e3 times the state's bound B fails at that step.  B is at
    # least 2 eta |log u_0| + 18 eps / t'_{p-1}, and moving u'_q by one ulp
    # moves t'_q by at most eps / t'_q, which is below B / 18.
    rng = np.random.default_rng(7)
    for p in (3, 4, 5, 6, 7, 8, 16, 64, 256):
        clean = _near_alpha_record(p, steps=6, seed=p)
        assert len(clean) == 7 and _assert_same_t_ratio_verdict(clean)
        for m in range(len(clean) - 1):
            u, t = clean.states[m], 1.0 - clean.states[m + 1]
            bound = 2 * (8 * 2.0**-53 * abs(math.log(u[0])) + 9 * 2.0**-53 / t[-1])
            q = int(rng.integers(0, p))
            v = clean.states[m + 1, q]
            for moved in (np.nextafter(v, 0.0), np.nextafter(v, 1.0)):
                assert _assert_same_t_ratio_verdict(_with_state(clean, m + 1, q, moved)), (p, m)
            traj = _with_state(clean, m + 1, q, v - 1e3 * bound * t[q])
            assert not _assert_same_t_ratio_verdict(traj), (p, m)
            ok, info = _check("t_ratio_transfer", traj)
            assert info["step"] == m and q in info["pair"]

    # An unsorted state takes its bound from the wrong ends, a smaller one,
    # so it cannot pass on a looser bound than its sorted twin.  Here 2B is
    # about 7400 eps sorted and 86 eps reversed, and the successor's first
    # weight is moved by 860 eps relative.
    u = np.array([0.01, 0.5, 0.99])
    nxt = dynamics._step(u)[1]
    nxt[0] -= 860 * 2.0**-53 * (1.0 - nxt[0])
    in_order = _record_of_states([u, nxt])
    assert _assert_same_t_ratio_verdict(in_order)
    reversed_ = _with_state(_with_state(in_order, 0, slice(None), u[::-1]), 1, slice(None), nxt[::-1])
    assert not _assert_same_t_ratio_verdict(reversed_)


def test_t_ratio_transfer_fails_on_a_nan_gap():
    # a NaN in a state fails the step it belongs to, as either end
    clean = _traj((0.2, 0.5, 0.8), steps=400)
    for m in (0, 1):
        ok, info = _check("t_ratio_transfer", _with_state(clean, m, 2, math.nan))
        assert not ok and info["step"] == 0 and info["pair"] == [2, 2] and math.isnan(info["diff"])


def test_t_ratio_transfer_fails_on_a_step_that_breaks_the_identity(monkeypatch):
    # One component of every step's output off by 1e-12 relative, with the
    # log sums of the products untouched.
    real = dynamics._step

    def faulty(u):
        sums, nxt = real(u)
        nxt = nxt.copy()
        nxt[..., 1] *= 1.0 + 1e-12
        return sums, nxt

    kwargs = dict(p_values=(3, 5, 8), seeds_per_p=20, checks=["t_ratio_transfer"])
    (clean,) = default_suite(**kwargs)
    assert clean.passed
    monkeypatch.setattr(dynamics, "_step", faulty)
    (res,) = default_suite(**kwargs)
    assert not res.passed
    assert res.witness["first_failure"]["step"] == 0 and 1 in res.witness["first_failure"]["pair"]


def test_default_suite_large_p_t_ratio_negative_control():
    # At p = 1024 and 8192 a uniform seed records one state and so no step;
    # the near-alpha records have 9 and 8 steps to audit.  The bound holds
    # at any p, as the rounding of the shared log total cancels from every
    # ratio.
    for p, steps in ((1024, 9), (8192, 8)):
        (clean,) = default_suite(p_values=(p,), seeds_per_p=4, checks=["t_ratio_transfer"])
        assert clean.passed, clean.witness
        traj = _near_alpha_record(p)
        assert len(traj) - 1 >= steps and _check("t_ratio_transfer", traj) == (True, {})
        ok, info = _check("t_ratio_transfer", analysis._perturbed_record(traj))
        assert not ok and info["step"] == 1


def test_polygon_average_matches_polygon_step():
    rng = np.random.default_rng(5)
    A = PointSet.of(rng.uniform(-1.0, 1.0, size=(6, 3)))
    t = WeightTuple.of(rng.uniform(0.1, 0.9, size=6))
    w = np.asarray(t.t)[:, None]
    B, rolled = A, A.points
    for _ in range(500):
        B = polygon_step(B, t)
        # the np.roll form of the step, bitwise the same data movement
        rolled = w * rolled + (1.0 - w) * np.roll(rolled, -1, axis=0)
    assert np.array_equal(B.points, rolled)


def _collapse(p_values, seeds_per_p=4, **kwargs):
    (res,) = default_suite(p_values=p_values, seeds_per_p=seeds_per_p, checks=["polygon_collapse"], **kwargs)
    return res


def test_polygon_collapse_passes_at_every_swept_p():
    p_values = (3, 4, 5, 6, 7, 8, 256, 1024, 8192)
    res = _collapse(p_values)
    assert res.passed, res.witness
    assert res.witness["p_audited"] == list(p_values) and res.witness["tuples"] == 4 * len(p_values)
    assert 0.0 <= res.witness["worst_spread_over_bound"] <= 1.0


def _moved_weights(monkeypatch, move):
    # polygon_collapse with its limit weights passed through move(w, log_u),
    # log_u = log1p(-t) of the weight tuples t
    monkeypatch.setattr(analysis, "_limit_weights", lambda log_u: move(geometry._limit_weights(log_u), log_u))


def test_polygon_collapse_fails_on_the_limit_point_of_the_reversed_weights(monkeypatch):
    _moved_weights(monkeypatch, lambda w, log_u: w[..., ::-1])
    for p in (3, 5, 8, 1024):
        res = _collapse((p,))
        assert not res.passed and list(res.witness) == ["p", "seed_index", "spread", "bound"]
        assert res.witness["p"] == p and res.witness["spread"] > 1.0


def test_polygon_collapse_fails_on_one_weight_moved_past_its_bound(monkeypatch):
    def moved(by):
        def move(w, log_u):
            w = w.copy()
            w[..., 0] *= 1.0 + by(log_u)
            return w
        return move

    assert _collapse((1024,)).passed
    # 1e-12 relative is far above the bound at p <= 8
    _moved_weights(monkeypatch, moved(lambda log_u: 1e-12))
    for p in range(3, 9):
        res = _collapse((p,))
        assert not res.passed and res.witness["seed_index"] == 0
        assert res.witness["bound"] < 1e-13 < res.witness["spread"]
    # at p = 1024 a move of twice the bound fails
    _moved_weights(monkeypatch, moved(lambda log_u: 2.0 * analysis._collapse_bound(log_u)))
    res = _collapse((1024,))
    assert not res.passed and res.witness["p"] == 1024
    assert res.witness["spread"] > res.witness["bound"]


def test_polygon_collapse_fails_on_nan(monkeypatch):
    def with_nan(w, log_u):
        w = w.copy()
        w[..., 1] = np.nan
        return w

    _moved_weights(monkeypatch, with_nan)
    res = _collapse((3,), seeds_per_p=1)
    assert not res.passed
    assert res.witness["seed_index"] == 0 and math.isnan(res.witness["spread"])


def _grid_by_scalar_loop():
    # The grid check as it was before the array step: one validated
    # ConjugateTuple and one conjugate_step per grid point.
    alpha = solve_alpha(3)
    n = 20
    axis = [(i + 0.5) / n for i in range(n)]
    spurious = 0
    for x in axis:
        for y in axis:
            for z in axis:
                state = ConjugateTuple.of((x, y, z))
                nxt = conjugate_step(state)
                diff = max(abs(a - b) for a, b in zip(nxt.u, state.u))
                if diff < 1e-9 and max(abs(v - alpha) for v in state.u) > 1e-4:
                    spurious += 1
    return CheckResult("unique_fixed_point_grid", spurious == 0, {"spurious": spurious})


def test_unique_fixed_point_grid_matches_the_scalar_loop():
    (res,) = default_suite(p_values=(3,), seeds_per_p=1, checks=["unique_fixed_point_grid"])
    assert res == _grid_by_scalar_loop()
    assert res.passed and res.witness == {"spurious": 0}


def test_unique_fixed_point_grid_notices_a_spurious_fixed_point(monkeypatch):
    # a clean call first: a result kept from it must not hide the fault below
    (clean,) = default_suite(p_values=(3,), seeds_per_p=1, checks=["unique_fixed_point_grid"])
    assert clean.passed
    # make the grid point (0.025, 0.975, 0.525), far from alpha, map onto itself
    fake = np.log((0.025, 0.975, 0.525))
    real = dynamics._excluded_sums

    def with_a_fixed_row(b):
        out = real(b)
        row = np.all(b == fake, axis=-1)
        out[row] = np.log1p(-np.exp(b[row]))
        return out

    # the grid steps through dynamics._step, which looks the kernel up when
    # it is called
    monkeypatch.setattr(dynamics, "_excluded_sums", with_a_fixed_row)
    (res,) = default_suite(p_values=(3,), seeds_per_p=1, checks=["unique_fixed_point_grid"])
    assert not res.passed
    assert res.witness["spurious"] >= 1


@pytest.mark.parametrize("mutant, witness", [
    # every row the seed's own G_0, which stays 0.068 from the centroid
    (lambda real, t0, steps: np.resize(real(t0, 0), (steps + 1, t0.p)),
     {"reason": "reference seed distance floor", "min": pytest.approx(0.068, abs=1e-3)}),
    # rows that sum to 1.01
    (lambda real, t0, steps: real(t0, steps) * 1.01, {"reason": "weight normalization", "err": pytest.approx(0.01)}),
])
def test_dual_convergence_fails_wrong_dual_weights(monkeypatch, mutant, witness):
    (clean,) = default_suite(p_values=(3,), seeds_per_p=1, checks=["dual_convergence"])
    assert clean.passed
    # dual_sequence looks the weight trajectory up when it is called
    monkeypatch.setattr(geometry, "_dual_weight_trajectory",
                        functools.partial(mutant, geometry._dual_weight_trajectory))
    (res,) = default_suite(p_values=(3,), seeds_per_p=1, checks=["dual_convergence"])
    assert (res.passed, res.witness) == (False, witness)


def test_instability_growth_names_the_audited_p():
    for p_values, audited in (((3, 4, 5, 6), [3, 4, 5, 6]), ((8,), [8]), ((6, 4), [4, 6]),
                              ((1024, 8192), [1024, 8192])):
        (res,) = default_suite(p_values=p_values, seeds_per_p=1, checks=["instability_growth"])
        assert res.passed
        assert res.witness == {"p_audited": audited}


def _on_p(p, fault):
    # analysis._step with fault(u, nxt) in place of its next state on states
    # of p components, the real step elsewhere
    real = analysis._step

    def step(u):
        sums, nxt = real(u)
        return sums, fault(u, nxt) if u.shape[-1] == p else nxt

    return step


def _static(name, p_values=(3, 5, 8)):
    (res,) = default_suite(p_values=p_values, seeds_per_p=1, checks=[name])
    return res


def test_fixed_point_fails_on_a_step_that_moves_alpha(monkeypatch):
    monkeypatch.setattr(analysis, "_step", _on_p(5, lambda u, nxt: nxt + 1e-12))
    res = _static("fixed_point")
    assert not res.passed
    assert set(res.witness) == {"p", "diff"} and res.witness["p"] == 5
    assert 0.9e-12 < res.witness["diff"] < 1.1e-12


def _wrong_jacobian(u, nxt):
    # keeps every fixed point, but the Jacobian J becomes 1.5 J - 0.5 I
    return nxt + 0.5 * (nxt - u)


def test_spectral_fails_on_a_step_with_a_wrong_jacobian(monkeypatch):
    monkeypatch.setattr(analysis, "_step", _on_p(5, _wrong_jacobian))
    assert _static("fixed_point").passed
    res = _static("spectral")
    assert not res.passed and res.witness == {"p": 5, "reason": "eigen action"}


def test_instability_growth_fails_on_a_step_with_a_wrong_jacobian(monkeypatch):
    monkeypatch.setattr(analysis, "_step", _on_p(5, _wrong_jacobian))
    res = _static("instability_growth")
    assert not res.passed
    assert set(res.witness) == {"p", "factor", "expected"} and res.witness["p"] == 5
    assert res.witness["expected"] == abs(certificate(5).lambda_repulsive)
    assert abs(res.witness["factor"] / res.witness["expected"] - 1.0) > 0.1


def _with_certificate(monkeypatch, **fields):
    # analysis.certificate(p) with fields(p) replacing its entries
    monkeypatch.setattr(analysis, "certificate", lambda p: dataclasses.replace(
        certificate(p), **{name: f(p) for name, f in fields.items()}))


def test_stationary_certificate_fails_on_alpha_at_its_bound(monkeypatch):
    _with_certificate(monkeypatch, alpha=lambda p: 1.0 - 1.0 / p if p == 5 else solve_alpha(p))
    res = _static("stationary_certificate")
    assert not res.passed and res.witness == {"p": 5, "reason": "alpha bound"}


def test_stationary_certificate_fails_on_alpha_falling_with_p(monkeypatch):
    _with_certificate(monkeypatch, alpha=lambda p: solve_alpha(3) - 0.01 * (p - 3))
    res = _static("stationary_certificate")
    assert not res.passed and res.witness == {"p": 5, "reason": "monotonicity in p"}


@pytest.mark.parametrize("lam", [-0.5, -1.0, math.nan])
@pytest.mark.parametrize("exact_step", [False, True])
def test_only_spectral_tests_the_repulsive_eigenvalue(monkeypatch, lam, exact_step):
    # |lambda_repulsive| > 1 is spectral's claim alone: with a repulsive
    # eigenvalue of modulus at most 1 (or NaN) at p = 5, spectral fails,
    # also when the step's eigen actions match the certificate exactly,
    # and stationary_certificate, which tests alpha, passes
    _with_certificate(monkeypatch, lambda_repulsive=lambda p: lam if p == 5 else certificate(p).lambda_repulsive)
    if exact_step:
        monkeypatch.setattr(analysis, "_spectral_residual", lambda cert: 0.0)
    res = _static("spectral")
    assert not res.passed and res.witness == {"p": 5, "reason": "eigen action"}
    assert _static("stationary_certificate").passed


def test_spectral_check_takes_its_p_rules_from_certificate():
    with pytest.raises(ValueError, match=r"^the instability certificate requires p >= 3, got 2$"):
        spectral_check(2)
    for p in (2.0, 3.0):
        with pytest.raises(ValueError, match=r"^p must be an integer"):
            spectral_check(p)


def test_trajectory_checks_pass_and_catch_faults():
    traj = _traj((0.12, 0.34, 0.56, 0.78), steps=400)
    results = trajectory_checks(traj)
    assert len(results) == 9
    assert all(r.passed for r in results)
    corrupted = _with_state(traj, 2, 0, min(traj.states[2, 0] + 0.07, 0.99))
    assert any(not r.passed for r in trajectory_checks(corrupted))


def test_trajectory_check_witnesses_are_pinned():
    readme_seed = _traj((0.2, 0.5, 0.8), steps=400)
    expected = {
        "order_preserved": {},
        "ratio_monotone": {},
        "spread_contraction": {},
        "contraction_certificates": {"certificates": 9},
        "spread_geometric_bound": {},
        "t_ratio_transfer": {},
        "phase_alternation": {"m0": 2, "m0_from": "recorded"},
        "even_odd_limits": {"verdict": "even_to_zero_odd_to_one"},
        "comparison_domination": {"pairs": 15},
    }
    first = trajectory_checks(readme_seed)
    assert [(r.name, r.passed, r.witness) for r in first] == [
        (name, True, witness) for name, witness in expected.items()
    ]
    # every call builds its own witness dicts, so a caller may edit one
    for r in first:
        r.witness["edited"] = True
    assert [r.witness for r in trajectory_checks(readme_seed)] == list(expected.values())
    failed = {r.name: r.witness for r in trajectory_checks(_fixed_point_traj()) if not r.passed}
    assert failed == {
        "phase_alternation": {"reason": "no decided phase within the recorded horizon"},
        "even_odd_limits": {"reason": "undecided at the recorded horizon"},
    }


def test_seeds_at_alpha_and_tied_seeds_get_their_documented_verdicts():
    # At the float alpha the p = 3 and 5 orbits never move, so no state is
    # decided and the two phase checks FAIL on no evidence: the fixed point
    # the claims exclude.  At p = 8 and 64 the float orbit leaves alpha and
    # saturates, and every check passes, as it does on tied seeds.
    undecided = {"phase_alternation": {"reason": "no decided phase within the recorded horizon"},
                 "even_odd_limits": {"reason": "undecided at the recorded horizon"}}
    for p, leaves_at in ((3, None), (5, None), (8, 66), (64, 34)):
        alpha = solve_alpha(p)
        for u in ([alpha] * p, [0.3, 0.3] + [0.7] * (p - 2), [0.4] * p):
            traj = run_trajectory(ConjugateTuple.of(u), 400, alpha)
            failed = {r.name: r.witness for r in trajectory_checks(traj) if not r.passed}
            at_alpha = u[0] == alpha
            if at_alpha:
                assert traj.saturation_step == leaves_at and len(traj) == (401 if leaves_at is None else leaves_at)
            assert failed == (undecided if at_alpha and leaves_at is None else {}), (p, u)


def test_default_suite_small_run_is_clean():
    results = default_suite(p_values=(3, 5), seeds_per_p=5)
    assert [r.name for r in results] == [n for n in KNOWN_CHECKS]
    assert all(r.passed for r in results)
    payload = results[0].as_json()
    assert set(payload) == {"name", "passed", "witness"}


def test_default_suite_check_filter():
    results = default_suite(p_values=(4,), seeds_per_p=2, checks=["fixed_point"])
    assert [r.name for r in results] == ["fixed_point"]
    with pytest.raises(ValueError):
        default_suite(checks=["no_such_check"])


def test_the_check_registry_is_one_table_of_what_each_check_reads():
    # One row per check, in report order, naming the one input default_suite
    # hands it; the trajectory checks, whose names perfbench reads, are its
    # "batch" rows in order.
    traj = ["order_preserved", "ratio_monotone", "spread_contraction", "contraction_certificates",
            "spread_geometric_bound", "t_ratio_transfer", "phase_alternation", "even_odd_limits",
            "comparison_domination"]
    static = ["stationary_certificate", "fixed_point", "spectral", "instability_growth", "unique_fixed_point_grid"]
    assert KNOWN_CHECKS == tuple(analysis._CHECKS)
    assert [(name, takes) for name, (_, takes) in analysis._CHECKS.items()] == [
        *((name, "p_values") for name in static), *((name, "batch") for name in traj),
        ("dual_convergence", "rng"), ("polygon_collapse", "drawn")]
    assert list(_TRAJ_CHECKS) == traj
    assert all(analysis._CHECKS[name][0] is fn for name, fn in _TRAJ_CHECKS.items())


@pytest.mark.parametrize("name", KNOWN_CHECKS)
def test_default_suite_runs_each_registered_check_alone(name, monkeypatch):
    # A check run alone reports what the full sweep reports for it: its
    # inputs, dual_convergence's RNG state included, do not depend on which
    # other checks run.
    monkeypatch.setitem(analysis._CHECKS, "dual_convergence", (lambda rng: (True, {"next": rng.uniform()}), "rng"))
    full = {r.name: r for r in default_suite(p_values=(3, 5), seeds_per_p=4, rng_seed=2)}
    assert list(full) == list(KNOWN_CHECKS)
    assert default_suite(p_values=(3, 5), seeds_per_p=4, rng_seed=2, checks=[name]) == [full[name]]


def test_default_suite_draws_every_seed_and_steps_only_for_trajectory_checks(monkeypatch):
    # The sweep's seeds are drawn whichever checks run, and stepped only when
    # a trajectory check runs; dual_convergence draws from the suite's RNG
    # after them under every selection.
    stepped = []
    real = analysis._run_batch
    monkeypatch.setattr(analysis, "_run_batch", lambda *args: stepped.append(None) or real(*args))
    monkeypatch.setitem(analysis._CHECKS, "dual_convergence", (lambda rng: (True, {"next": rng.uniform()}), "rng"))

    def run(checks):
        stepped.clear()
        res = default_suite(p_values=(3, 5), seeds_per_p=4, rng_seed=2, checks=checks)
        return {r.name: r.witness for r in res}, len(stepped)

    rng = np.random.default_rng(2)
    collapse = analysis._check_polygon_collapse(
        [(p, rng.uniform(1e-3, 1.0 - 1e-3, size=(4, p))) for p in (3, 5)])[1]
    after_seeds = {"next": rng.uniform()}
    assert run(["dual_convergence"]) == ({"dual_convergence": after_seeds}, 0)
    witnesses, steps = run(["fixed_point", "dual_convergence"])
    assert steps == 0 and witnesses["dual_convergence"] == after_seeds
    assert run(["polygon_collapse"]) == ({"polygon_collapse": collapse}, 0)
    assert run(["dual_convergence", "polygon_collapse"]) == (
        {"dual_convergence": after_seeds, "polygon_collapse": collapse}, 0)
    witnesses, steps = run(["order_preserved", "dual_convergence", "polygon_collapse"])
    assert steps == 2 and witnesses["dual_convergence"] == after_seeds and witnesses["polygon_collapse"] == collapse


def test_default_suite_draws_each_p_as_one_batch_of_per_seed_draws(monkeypatch):
    # One (seeds, p) draw takes the numbers that one size-p draw per seed
    # takes, in the same order, and leaves the RNG where they leave it.
    batches = []
    real = analysis._run_batch

    def recording(u0, max_steps, alpha):
        batches.append(u0.copy())
        batch = real(u0, max_steps, alpha)
        assert batch.states.shape[2] == batch.length.size == len(u0)
        return batch

    monkeypatch.setattr(analysis, "_run_batch", recording)
    p_values = (5, 3, 8)
    res = default_suite(p_values=p_values, seeds_per_p=7, rng_seed=4,
                        checks=["order_preserved", "polygon_collapse"])
    rng = np.random.default_rng(4)
    assert len(batches) == len(p_values)
    drawn = []
    for u0, p in zip(batches, p_values):
        per_seed = np.array([rng.uniform(1e-3, 1.0 - 1e-3, size=p) for _ in range(7)])
        assert u0.tobytes() == per_seed.tobytes()
        drawn.append((p, per_seed))
    assert (res[-1].passed, res[-1].witness) == analysis._check_polygon_collapse(drawn)


def test_stationary_certificate_takes_p_in_any_order():
    def run(p_values):
        (res,) = default_suite(p_values=p_values, seeds_per_p=1, checks=["stationary_certificate"])
        return res

    assert run((8, 3)).passed and run((8, 3)) == run((3, 8))
    assert run((4, 4)).passed and run((4, 4)) == run((4,))
    assert run((8, 3, 5, 3)) == run((3, 5, 8))


def test_default_suite_runs_static_checks_once_per_distinct_p():
    static = ["stationary_certificate", "fixed_point", "spectral", "instability_growth"]

    def witnesses(p_values):
        return [r.witness for r in default_suite(p_values=p_values, seeds_per_p=1, checks=static)]

    assert witnesses((4, 4)) == witnesses((4,))
    assert witnesses((5, 3, 4, 3)) == witnesses((3, 4, 5))
    assert witnesses((5, 3, 4, 3))[2:] == [{"p_count": 3}, {"p_audited": [3, 4, 5]}]


def test_default_suite_rejects_a_non_integer_p():
    for p_values in ((4.0,), (3, 4.5)):
        with pytest.raises(ValueError, match="integer"):
            default_suite(p_values=p_values, seeds_per_p=1)
    (res,) = default_suite(p_values=(np.int64(4),), seeds_per_p=1, checks=["spectral"])
    assert res.passed and res.witness == {"p_count": 1}


def test_default_suite_rejects_p_below_3():
    for p_values in ((2,), (3, 2)):
        with pytest.raises(ValueError, match="p >= 3"):
            default_suite(p_values=p_values, seeds_per_p=5, checks=["order_preserved"])


def test_default_suite_rejects_a_sweep_of_nothing():
    for kwargs in (dict(p_values=()), dict(seeds_per_p=0), dict(seeds_per_p=-3), dict(max_steps=-3),
                   dict(rng_seed=-1)):
        with pytest.raises(ValueError):
            default_suite(checks=["fixed_point"], **kwargs)


def test_default_suite_notices_injected_fault():
    results = default_suite(p_values=(4,), seeds_per_p=2, inject_fault=True)
    assert any(not r.passed for r in results)


def test_default_suite_checks_each_p_batch_once_with_a_fault(monkeypatch):
    # the fault is injected into the first p's batch, which every check
    # then reads once, as it reads every other p's batch
    calls = collections.Counter()
    for name, check in _TRAJ_CHECKS.items():
        monkeypatch.setitem(_TRAJ_CHECKS, name, lambda batch, name=name, check=check: (
            calls.update([(name, batch.states.shape[0])]) or check(batch)))
    results = default_suite(p_values=(3, 5), seeds_per_p=4, inject_fault=True)
    assert calls == {(name, p): 1 for name in _TRAJ_CHECKS for p in (3, 5)}
    failed = {r.name: r.witness["first_failure"] for r in results if not r.passed}
    assert failed and all(w["p"] == 3 and w["seed_index"] == 0 for w in failed.values())


def test_every_trajectory_check_gives_a_p_2_row_a_verdict():
    # At p = 2 the two-step map is the identity, slope 1 and intercept 0, so
    # a state inside the certificate window fails on positivity.  No check
    # raises for the batch.
    traj = _traj((0.3, 0.6), steps=6)
    verdicts = {name: _check(name, traj) for name in _TRAJ_CHECKS}
    assert verdicts["contraction_certificates"] == (False, {
        "step": 0, "reason": "positivity failed at m=0: slope=1.0, intercept=0.0"})


def test_sweep_is_fully_clean(sweep_results):
    for res in sweep_results:
        for name, r in res.items():
            assert r.passed, (name, r.witness)


def test_each_row_of_a_batch_gets_the_verdict_of_its_own_batch():
    # Rows of different lengths share one batch: random seeds, seeds ever
    # closer to the fixed tuple, which saturate ever later, the fixed tuple,
    # which never saturates, and a row corrupted in a copy of the batch's
    # states.  Every check must give each row the verdict of that row's
    # one-row view, so nothing leaks between rows through the padding.
    rng = np.random.default_rng(9)
    for p in (3, 5, 8, 32, 256):
        alpha = solve_alpha(p)
        near = alpha * (1.0 + np.geomspace(1e-2, 1e-8, 3)[:, None] * rng.uniform(-1.0, 1.0, size=(3, p)))
        seeds = np.concatenate([rng.uniform(1e-3, 1.0 - 1e-3, size=(3, p)), near, np.full((1, p), alpha)])
        batch = _run_batch(seeds, 20, alpha)
        assert batch.saturation_step[-1] == -1 and batch.length[-1] == 21
        assert len(set(batch.saturation_step.tolist()) - {-1}) >= 2
        states = batch.states.copy()
        m = min(2, batch.length[0] - 1)
        states[0, m, 0] = min(states[0, m, 0] + 0.07, 1.0 - 1e-9)
        batch = dataclasses.replace(batch, states=states)
        for name, check in _TRAJ_CHECKS.items():
            # every row's verdict and witness, passing rows' witnesses too
            passed, witness = check(batch)
            assert passed.dtype == bool and passed.shape == (len(seeds),)
            alone = [_check(name, batch.row(r)) for r in range(len(seeds))]
            assert [(bool(passed[r]), witness(r)) for r in range(len(seeds))] == alone, (p, name)
        verdicts = [r.passed for r in trajectory_checks(batch.row(0))]
        assert not all(verdicts)


def test_a_row_failing_at_several_steps_names_its_first():
    # A row corrupted at two steps a < b gets the witness of the corruption
    # at a alone, and the corruption at b alone fails later: the step, q and
    # reason of a witness are the row's first failure, whatever follows it.
    traj = _traj((0.2, 0.5, 0.8), steps=400)
    bounds = _geometric_bounds(traj)

    def nan_at(*ms):
        return functools.reduce(lambda rec, m: _with_state(rec, m, 1, math.nan), ms, traj)

    def swapped_at(*ms):
        states = traj.states.copy()
        for m in ms:
            states[m, [1, 2]] = states[m, [2, 1]]
        return dataclasses.replace(traj, states=states)

    def twice_the_bound_at(*qs):
        spread = traj.spread.copy()
        for q in qs:
            spread[2 * q] = 2.0 * (bounds[q] + 1e-12)
        return dataclasses.replace(traj, spread=spread)

    for name, corrupt, a, b, key in (("order_preserved", nan_at, 3, 5, "step"),
                                     ("spread_geometric_bound", twice_the_bound_at, 1, 2, "q"),
                                     ("contraction_certificates", swapped_at, 3, 5, "step")):
        ok, first = _check(name, corrupt(a))
        later = _check(name, corrupt(b))[1]
        assert not ok and later[key] > first[key], name
        assert _check(name, corrupt(a, b)) == (False, first), name
    assert _check("order_preserved", nan_at(3, 5)) == (False, {"step": 3})
    assert _check("spread_geometric_bound", twice_the_bound_at(1, 2))[1]["q"] == 1
    # state 3 is state m + 2 of the certificate at m = 1, and state 5 of the one at m = 3
    assert _check("contraction_certificates", swapped_at(3, 5))[1]["reason"].endswith(" at m=1")
    assert _check("contraction_certificates", swapped_at(5))[1]["reason"].endswith(" at m=3")


def test_a_row_whose_bad_entries_lie_past_its_length_passes():
    # Unsorted states and large spreads written into the padding of the
    # shorter rows, past their saturating line, change no row's verdict or
    # witness.
    rng = np.random.default_rng(33)
    alpha = solve_alpha(3)
    clean = _run_batch(rng.uniform(1e-3, 1.0 - 1e-3, size=(40, 3)), 400, alpha)
    states, spread = clean.states.copy(), clean.spread.copy()
    short = np.flatnonzero(clean.length + 3 < clean.states.shape[1])
    assert short.size >= 10
    for r in short:
        states[:, clean.length[r] + 1:, r] = np.array([0.9, 0.5, 0.1])[:, None]
        spread[clean.length[r] + 1:, r] = 1e3
    padded = dataclasses.replace(clean, states=states, spread=spread)
    for name, check in _TRAJ_CHECKS.items():
        (passed, witness), (ref_passed, ref_witness) = check(padded), check(clean)
        assert passed.all() and ref_passed.all(), name
        assert [witness(r) for r in range(40)] == [ref_witness(r) for r in range(40)], name


def test_batches_of_at_most_two_states_have_empty_pair_planes():
    # At max_steps 0 and 1 no row records a pair (m, m + 2): its planes are
    # (max_steps, rows), the line past the last recorded one included, and the
    # verdicts are those the component-major layout gave: only
    # order_preserved and t_ratio_transfer can fail a state, at row 0's
    # bumped state 1 and its pair (0, 1).
    rng = np.random.default_rng(33)
    alpha = solve_alpha(5)
    seeds = rng.uniform(1e-3, 1.0 - 1e-3, size=(3, 5))
    seeds[1] = alpha
    seeds[2, 0] = 1e-300
    undecided = {"reason": "no decided phase within the recorded horizon"}
    not_at_corners = {"reason": "undecided at the recorded horizon"}
    want = {
        0: {"order_preserved": [(True, {})] * 3,
            "phase_alternation": [(False, undecided), (False, undecided), (True, {"m0": 0, "m0_from": "recorded"})],
            "even_odd_limits": [(False, not_at_corners)] * 3,
            "comparison_domination": [(True, {"pairs": 0})] * 3,
            "t_ratio_transfer": [(True, {})] * 3},
        1: {"order_preserved": [(False, {"step": 1}), (True, {}), (True, {})],
            "phase_alternation": [(True, {"m0": 1, "m0_from": "recorded"}), (False, undecided),
                                  (True, {"m0": 0, "m0_from": "recorded"})],
            "even_odd_limits": [(False, not_at_corners), (False, not_at_corners),
                                (True, {"verdict": "even_to_zero_odd_to_one"})],
            "comparison_domination": [(True, {"pairs": 1})] * 3,
            "t_ratio_transfer": [(False, {"step": 0, "pair": [0, 2], "diff": 1.0821102704984633}),
                                 (True, {}), (True, {})]},
    }
    for steps, verdicts in want.items():
        batch = analysis._perturbed(_run_batch(seeds, steps, alpha))
        assert batch.pair_noise.shape == analysis._spread_allowance(batch).shape == (steps, 3)
        assert batch.valid[2:].shape == batch.spread[2:].shape == (steps, 3)
        assert not batch.valid[2:].any()
        for name, check in _TRAJ_CHECKS.items():
            passed, witness = check(batch)
            got = [(bool(passed[r]), witness(r)) for r in range(3)]
            pair_only = [(True, {"certificates": 0} if name == "contraction_certificates" else {})] * 3
            assert got == verdicts.get(name, pair_only), (steps, name)


def _json_numbers(value):
    # every number of a JSON-ready structure, keys excluded
    if isinstance(value, dict):
        return [x for v in value.values() for x in _json_numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _json_numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


def test_default_suite_reports_are_pinned():
    # Reports captured before the sweep was checked as one array batch per
    # p, byte for byte, failure witnesses and the contraction reason string
    # included; the (16, 64) case, whose batches reduce over the components
    # with numpy's reduce instead of folding columns, was captured before
    # the column folds.  The residual_high of the inject_fault (3, 8) seed 9
    # reason reads 0.000e+00 since the certificate's intercept took its
    # closed form (1.726e-16 with the series).  Their numbers are plain int
    # and float: numpy scalars would serialize differently, or not at all.
    golden = json.loads((Path(__file__).parent / "golden_default_suite.json").read_text())
    reasons = []
    for case in golden:
        report = [r.as_json() for r in default_suite(**case["kwargs"])]
        assert json.dumps(report, sort_keys=True) == json.dumps(case["report"], sort_keys=True)
        assert {type(x) for x in _json_numbers(report)} <= {bool, int, float}
        reasons += [r["witness"]["first_failure"]["reason"] for r in report
                    if r["name"] == "contraction_certificates" and not r["passed"]]
    assert reasons and all(r.startswith("recurrence identity residuals") for r in reasons)


def test_default_suite_builds_no_conjugate_tuple(monkeypatch):
    # A sweep, run_trajectory and trajectory_checks work in arrays from
    # stepping to verdict: none of them builds a ConjugateTuple, not even
    # for an injected fault.
    built = []
    post_init = ConjugateTuple.__post_init__

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    u0 = ConjugateTuple.of((0.2, 0.5, 0.8))
    monkeypatch.setattr(ConjugateTuple, "__post_init__", counted_post_init)
    results = default_suite(p_values=(3, 8), seeds_per_p=20)
    assert all(r.passed for r in results)
    assert not all(r.passed for r in default_suite(p_values=(4,), seeds_per_p=2, inject_fault=True))
    traj = run_trajectory(u0, 400, solve_alpha(3))
    assert all(r.passed for r in trajectory_checks(traj))
    assert built == []
    # the counter sees a ConjugateTuple that is built
    stepped = conjugate_step(u0)
    assert built == [stepped]
