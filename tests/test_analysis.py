import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barypoly import (
    KNOWN_CHECKS,
    CheckResult,
    ConjugateTuple,
    EvenOddVerdict,
    Phase,
    PointSet,
    VerificationError,
    WeightTuple,
    certificate,
    check_comparison_domination,
    check_ratio_monotonicity,
    comparison_sequence,
    conjugate_step,
    contraction_certificate,
    default_suite,
    detect_alternation,
    elementary_symmetric_all,
    even_odd_limits,
    linearized_update_matrix,
    polygon_step,
    reliable_horizon,
    run_trajectory,
    solve_alpha,
    spectral_check,
    trajectory_checks,
)
from barypoly import analysis
from barypoly.analysis import _traj_t_ratio_transfer
from barypoly.geometry import _polygon_average


def test_elementary_symmetric_hand_case():
    assert elementary_symmetric_all((2.0, 3.0, 4.0)) == [1.0, 9.0, 26.0, 24.0]


@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=0, max_size=7))
def test_elementary_symmetric_against_combinations(vals):
    got = elementary_symmetric_all(vals)
    for i in range(len(vals) + 1):
        brute = sum(math.prod(c) for c in itertools.combinations(vals, i))
        # both sides cancel internally, so the agreement is semantic, not ulp
        assert got[i] == pytest.approx(brute, rel=1e-9, abs=1e-9)


def _traj(u, steps=2):
    u = tuple(u)
    return run_trajectory(ConjugateTuple.of(u), steps, solve_alpha(len(u)))


def test_contraction_certificate_hand_case():
    # pi = 0.012, mid factors (0.3 - pi)(0.4 - pi), series 0.7 - pi
    traj = _traj((0.2, 0.3, 0.4, 0.5))
    cert = contraction_certificate(traj, 0)
    assert cert.slope == pytest.approx(0.288 * 0.388, rel=1e-15)
    assert cert.intercept == pytest.approx(0.2 * 0.5 * 0.688, rel=1e-15)
    assert cert.ratio_bound == pytest.approx(cert.slope * 0.2 / cert.intercept, rel=1e-15)
    assert cert.residual_low <= 1e-12 and cert.residual_high <= 1e-12
    u2 = traj.states[2].u
    assert cert.slope * 0.2 + cert.intercept == pytest.approx(u2[0], rel=1e-12)
    assert cert.slope * 0.5 + cert.intercept == pytest.approx(u2[-1], rel=1e-12)


def test_contraction_equals_observed_spread_ratio():
    """The two-step affine recurrence makes the spread ratio exactly the
    certificate's contraction field, up to rounding."""
    traj = _traj((0.2, 0.3, 0.4, 0.5), steps=4)
    for m in (0, 2):
        cert = contraction_certificate(traj, m)
        assert traj.spread[m + 2] / traj.spread[m] == pytest.approx(
            cert.contraction, rel=1e-8
        )
        assert cert.contraction < 0.5


def test_contraction_certificate_errors():
    with pytest.raises(ValueError):
        contraction_certificate(_traj((0.3, 0.3, 0.3, 0.3)), 0)  # regular state
    with pytest.raises(ValueError):
        contraction_certificate(_traj((0.2, 0.3, 0.4, 0.5)), 1)  # m+2 not recorded
    with pytest.raises(ValueError):
        contraction_certificate(_traj((0.4, 0.6)), 0)  # p too small
    good = _traj((0.2, 0.3, 0.4, 0.5))
    shuffled = dataclasses.replace(
        good, states=(ConjugateTuple.of((0.4, 0.2, 0.5, 0.3)),) + good.states[1:]
    )
    with pytest.raises(ValueError):
        contraction_certificate(shuffled, 0)


def test_reliable_horizon():
    traj = _traj((0.15, 0.5, 0.85), steps=400)
    h = reliable_horizon(traj)
    assert 0 < h <= len(traj.states)
    assert all(1.0 - max(st.u) > 1e-10 for st in traj.states[:h])
    assert reliable_horizon(traj, gap=0.5) <= h


def test_ratio_monotonicity_catches_corruption():
    traj = _traj((0.2, 0.3, 0.4, 0.5), steps=6)
    ok, first = check_ratio_monotonicity(traj)
    assert ok and first is None
    states = list(traj.states)
    u = list(states[2].u)
    u[-1] = min(u[-1] + 0.2, 0.999)
    states[2] = ConjugateTuple.of(u)
    bad = dataclasses.replace(traj, states=tuple(states))
    ok, first = check_ratio_monotonicity(bad)
    assert not ok and first in (0, 2)


def test_detect_alternation_on_generic_seed():
    traj = _traj((0.2, 0.5, 0.8), steps=400)
    report = detect_alternation(traj)
    assert report.found
    assert report.violations == 0
    assert traj.phase[report.m0] is not Phase.MIXED
    assert len(report.pattern) == len(traj.states) - report.m0


def test_detect_alternation_fixed_point_has_nothing_to_find():
    alpha = solve_alpha(3)
    traj = run_trajectory(ConjugateTuple.of([alpha] * 3), 10, alpha)
    report = detect_alternation(traj)
    assert not report.found
    assert report.m0 is None and report.violations == 0


def test_even_odd_limits_saturated_is_decided():
    traj = _traj((0.2, 0.5, 0.8), steps=400)
    assert traj.saturation_step is not None
    verdict = even_odd_limits(traj, tol=1e-6)
    assert verdict is not EvenOddVerdict.UNDECIDED


def test_even_odd_limits_fixed_point_is_undecided():
    alpha = solve_alpha(3)
    traj = run_trajectory(ConjugateTuple.of([alpha] * 3), 10, alpha)
    assert even_odd_limits(traj, tol=1e-6) is EvenOddVerdict.UNDECIDED


def test_even_odd_limits_tol_validation():
    traj = _traj((0.2, 0.5, 0.8))
    for tol in (0.0, 0.5, -1.0):
        with pytest.raises(ValueError):
            even_odd_limits(traj, tol=tol)


def test_verdict_matches_alternation_parity(sweep):
    """The saturation-side verdict and the phase pattern tell the same story:
    whichever parity is BELOW heads to the zero corner."""
    for traj in sweep[::17]:
        report = detect_alternation(traj)
        verdict = even_odd_limits(traj, tol=1e-6)
        if not report.found or verdict is EvenOddVerdict.UNDECIDED:
            continue
        below_on_even = (report.pattern[0] is Phase.BELOW) == (report.m0 % 2 == 0)
        expected = (
            EvenOddVerdict.EVEN_TO_ZERO_ODD_TO_ONE
            if below_on_even
            else EvenOddVerdict.EVEN_TO_ONE_ODD_TO_ZERO
        )
        assert verdict is expected


def test_comparison_domination():
    traj = _traj((0.2, 0.5, 0.8), steps=400)
    ok, first = check_comparison_domination(traj)
    assert ok and first is None
    alpha = solve_alpha(3)
    fixed = run_trajectory(ConjugateTuple.of([alpha] * 3), 10, alpha)
    assert check_comparison_domination(fixed) == (True, None)  # vacuous: never BELOW


def _comparison_domination_inline(traj, slack=1e-12):
    # The check as it was with the scalar orbit written inline, kept as the
    # oracle for the version that iterates comparison_sequence.
    states = traj.states
    b0 = next((i for i, ph in enumerate(traj.phase) if ph is Phase.BELOW), None)
    if b0 is None or b0 + 1 >= len(states):
        return True, None
    p = traj.p
    u_top = states[b0].u[-1]
    u_low_next = states[b0 + 1].u[0]
    if u_low_next > 1.0 - u_top ** (p - 1):
        tau = u_top
    else:
        tau = (1.0 - u_low_next) ** (1.0 / (p - 1))
    for offset in range(len(states) - b0):
        m = b0 + offset
        u = states[m].u
        if offset % 2 == 0:
            if tau < u[-1] - slack:
                return False, m
        else:
            if tau > u[0] + slack:
                return False, m
        tau = 1.0 - tau ** (p - 1)
    return True, None


def test_comparison_domination_matches_the_inline_orbit(sweep):
    rng = np.random.default_rng(17)
    verdicts = set()
    for traj in sweep:
        assert check_comparison_domination(traj) == _comparison_domination_inline(traj)
    # negative slacks make the comparisons fail at every margin size, which
    # pins the orbit values well below the default slack
    for slack in (1e-12, 0.0, -1e-15, -1e-13, -1e-11, -1e-8, -1e-4):
        for traj in sweep[::4]:
            got = check_comparison_domination(traj, slack)
            assert got == _comparison_domination_inline(traj, slack)
            verdicts.add(got[0])
    for traj in sweep[::5]:
        if len(traj.states) < 2:
            continue
        # move one component of one state, leaving the phases as recorded
        states = list(traj.states)
        m = int(rng.integers(0, len(states)))
        u = list(states[m].u)
        q = int(rng.integers(0, len(u)))
        step = rng.choice([-1.0, 1.0]) * rng.choice([1e-13, 1e-11, 1e-3, 0.1])
        u[q] = min(max(u[q] + float(step), 1e-9), 1.0 - 1e-9)
        states[m] = ConjugateTuple.of(u)
        bad = dataclasses.replace(traj, states=tuple(states))
        got = check_comparison_domination(bad)
        assert got == _comparison_domination_inline(bad)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_comparison_domination_requires_p3():
    # p = 2 alternates between BELOW and ABOVE forever; the scalar orbit, like
    # the contraction certificate, is defined from p = 3 on
    traj = _traj((0.2, 0.3), steps=4)
    assert traj.phase[0] is Phase.BELOW
    with pytest.raises(ValueError, match="p >= 3"):
        check_comparison_domination(traj)


def test_comparison_orbit_is_the_scalar_map():
    seq = comparison_sequence(0.7, 4, 5)
    x = 0.7
    for val in seq:
        assert val == x
        x = 1.0 - x ** 3


def test_linearized_matrix_and_spectrum(det_residuals):
    A = linearized_update_matrix(4, 0.25)
    assert A.shape == (4, 4)
    assert np.all(np.diag(A) == 0.0)
    off = A[~np.eye(4, dtype=bool)]
    assert np.all(off == -0.25)
    assert all(spectral_check(p) for p in range(3, 33))
    with pytest.raises(ValueError):
        spectral_check(2)
    for p in range(3, 9):
        assert max(det_residuals(p)) < 1e-9


def _spectral_by_products(p, atol=1e-13):
    # The matrix-vector form spectral_check replaced: one product A @ w per
    # basis vector of the sum-zero hyperplane.
    cert = certificate(p)
    A = analysis.linearized_update_matrix(p, cert.beta)
    ones = np.ones(p)
    if np.max(np.abs(A @ ones - cert.lambda_repulsive * ones)) > atol:
        return False
    for i in range(1, p):
        w = np.zeros(p)
        w[0], w[i] = 1.0, -1.0
        if np.max(np.abs(A @ w - cert.lambda_contractive * w)) > atol:
            return False
    return abs(cert.lambda_repulsive) > 1.0


def _patch_matrix(monkeypatch, edits):
    # edits: (row, col, delta) added to the true linearized matrix
    def edited(p, beta):
        A = linearized_update_matrix(p, beta)
        for r, c, delta in edits:
            A[r, c] += delta
        return A

    monkeypatch.setattr(analysis, "linearized_update_matrix", edited)


def test_spectral_check_agrees_with_matrix_vector_products(monkeypatch):
    for p in range(3, 65):
        assert spectral_check(p) is _spectral_by_products(p) is True
    # edited matrices, with entries moved by amounts on both sides of atol
    rng = np.random.default_rng(11)
    for p in (3, 4, 8, 17, 64):
        for delta in (5e-14, 2e-13, 1e-9):
            r, c = (int(v) for v in rng.integers(0, p, size=2))
            _patch_matrix(monkeypatch, [(r, c, delta)])
            assert spectral_check(p) is _spectral_by_products(p)
            # a pair of edits that keeps the row sum, so only the hyperplane
            # vectors can notice it
            c2 = (c + 1) % p
            _patch_matrix(monkeypatch, [(r, c, delta), (r, c2, -delta)])
            assert spectral_check(p) is _spectral_by_products(p)


def test_spectral_check_notices_one_changed_entry(monkeypatch):
    _patch_matrix(monkeypatch, [(3, 5, 1e-9)])
    assert not spectral_check(8)
    # same row sum, so the all-ones vector still sees the true eigenvalue
    _patch_matrix(monkeypatch, [(3, 5, 1e-9), (3, 6, -1e-9)])
    assert not spectral_check(8)
    _patch_matrix(monkeypatch, [(3, 0, 1e-9), (3, 6, -1e-9)])
    assert not spectral_check(1024)


def _t_ratio_by_pair_loop(traj):
    # The scalar pair loop the array kernel replaced, kept as its oracle.
    p = traj.p
    for m in range(0, len(traj.states), 2):
        lp = traj.log_products[m]
        u = traj.states[m].u
        for k in range(p - 1):
            for l in range(k + 1, p):
                lhs = math.exp(lp[l] - lp[k])
                rhs = u[k] / u[l]
                if abs(lhs - rhs) > 1e-12:
                    return False, {"step": m, "pair": [k, l], "diff": abs(lhs - rhs)}
    return True, {}


def _record_of_states(rows):
    # A record whose states are the given sorted rows; the log products come
    # from the record builder itself.
    recs = [_traj(u, steps=0) for u in rows]
    return dataclasses.replace(
        recs[0],
        states=tuple(r.states[0] for r in recs),
        log_products=tuple(r.log_products[0] for r in recs),
    )


def _corrupt(traj, m, q, delta, where):
    if where == "log_products":
        lps = [list(row) for row in traj.log_products]
        lps[m][q] += delta
        return dataclasses.replace(traj, log_products=tuple(tuple(r) for r in lps))
    states = list(traj.states)
    u = list(states[m].u)
    u[q] *= 1.0 + delta
    states[m] = ConjugateTuple.of(u)
    return dataclasses.replace(traj, states=tuple(states))


def _assert_same_t_ratio_verdict(traj):
    ok, info = _traj_t_ratio_transfer(traj)
    ref_ok, ref_info = _t_ratio_by_pair_loop(traj)
    assert ok == ref_ok
    if not ok:
        assert (info["step"], info["pair"]) == (ref_info["step"], ref_info["pair"])
        assert info["diff"] == pytest.approx(ref_info["diff"], rel=1e-6)
    return ok


def test_t_ratio_transfer_agrees_with_pair_loop():
    rng = np.random.default_rng(7)
    verdicts = []
    for p, n_states in [(p, 7) for p in range(3, 9)] + [(64, 5), (256, 5)]:
        rows = [sorted(rng.uniform(1e-3, 1.0 - 1e-3, size=p)) for _ in range(n_states)]
        clean = _record_of_states(rows)
        verdicts.append(_assert_same_t_ratio_verdict(clean))
        for _ in range(6):
            m = int(rng.integers(0, n_states))  # may be odd: odd steps are not audited
            q = int(rng.integers(0, p))
            delta = float(rng.choice([1e-6, 1e-9, 1e-11, 1e-13]))
            where = ("log_products", "states")[int(rng.integers(0, 2))]
            verdicts.append(_assert_same_t_ratio_verdict(_corrupt(clean, m, q, delta, where)))
    assert True in verdicts and False in verdicts


def test_t_ratio_transfer_reports_the_first_failure_across_blocks():
    # p = 256 with three audited states spans several blocks of rows.
    # Step 0 fails only from row 150 on (the small leading components hide
    # the error in the earlier rows), step 2 fails in row 0; the report must
    # name step 0, as the pair loop does.
    p, q = 256, 150
    rng = np.random.default_rng(3)
    lead = [0.01] * q + sorted(rng.uniform(0.3, 0.7, size=p - q))
    rows = [lead] + [sorted(rng.uniform(1e-3, 1.0 - 1e-3, size=p)) for _ in range(4)]
    clean = _record_of_states(rows)
    traj = _corrupt(clean, 0, q, 1e-11, "log_products")
    traj = _corrupt(traj, 2, 1, 1e-9, "log_products")
    assert not _assert_same_t_ratio_verdict(traj)
    ok, info = _traj_t_ratio_transfer(traj)
    assert info["step"] == 0 and info["pair"][0] == q
    # a first failure (k, 200) with k in an early block lies in that block's
    # rectangle of far columns, not in its own triangle
    traj = _corrupt(clean, 2, 200, 1e-9, "log_products")
    assert not _assert_same_t_ratio_verdict(traj)
    ok, info = _traj_t_ratio_transfer(traj)
    assert info["step"] == 2 and info["pair"][0] < 100 and info["pair"][1] == 200


def test_default_suite_large_p_t_ratio_negative_control():
    kwargs = dict(p_values=(1024,), seeds_per_p=1, checks=["t_ratio_transfer"])
    (clean,) = default_suite(**kwargs)
    assert clean.passed, clean.witness
    (faulty,) = default_suite(inject_fault=True, **kwargs)
    assert not faulty.passed


def test_polygon_average_matches_polygon_step():
    rng = np.random.default_rng(5)
    A = PointSet.of(rng.uniform(-1.0, 1.0, size=(6, 3)))
    t = WeightTuple.of(rng.uniform(0.1, 0.9, size=6))
    w = np.asarray(t.t)[:, None]
    raw, B, rolled = A.points, A, A.points
    for _ in range(500):
        raw = _polygon_average(raw, w)
        B = polygon_step(B, t)
        # the np.roll form of the step, bitwise the same data movement
        rolled = w * rolled + (1.0 - w) * np.roll(rolled, -1, axis=0)
    assert np.array_equal(raw, B.points)
    assert np.array_equal(raw, rolled)


def test_polygon_collapse_fails_on_nan(monkeypatch):
    monkeypatch.setattr(analysis, "limit_point", lambda A, t: np.full(A.dim, np.nan))
    (res,) = default_suite(p_values=(3,), seeds_per_p=1, checks=["polygon_collapse"])
    assert not res.passed
    assert math.isnan(res.witness["err"])


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
    real = analysis._excluded_sums

    def with_a_fixed_row(b):
        out = real(b)
        row = np.all(b == fake, axis=-1)
        out[row] = np.log1p(-np.exp(b[row]))
        return out

    monkeypatch.setattr(analysis, "_excluded_sums", with_a_fixed_row)
    (res,) = default_suite(p_values=(3,), seeds_per_p=1, checks=["unique_fixed_point_grid"])
    assert not res.passed
    assert res.witness["spurious"] >= 1


def test_instability_growth_names_the_audited_p():
    for p_values, audited in (((3, 4, 5, 6), [3, 4, 5]), ((8,), []), ((6, 4), [4])):
        (res,) = default_suite(p_values=p_values, seeds_per_p=1, checks=["instability_growth"])
        assert res.passed
        assert res.witness == {"p_audited": audited}


def test_trajectory_checks_pass_and_catch_faults():
    traj = _traj((0.12, 0.34, 0.56, 0.78), steps=400)
    results = trajectory_checks(traj)
    assert len(results) == 9
    assert all(r.passed for r in results)
    states = list(traj.states)
    u = list(states[2].u)
    u[0] = min(u[0] + 0.07, 0.99)
    states[2] = ConjugateTuple.of(u)
    corrupted = dataclasses.replace(traj, states=tuple(states))
    assert any(not r.passed for r in trajectory_checks(corrupted))


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


def test_default_suite_rejects_a_sweep_of_nothing():
    for kwargs in (dict(p_values=()), dict(seeds_per_p=0), dict(seeds_per_p=-3)):
        with pytest.raises(ValueError):
            default_suite(checks=["fixed_point"], **kwargs)


def test_default_suite_notices_injected_fault():
    results = default_suite(p_values=(4,), seeds_per_p=2, inject_fault=True)
    assert any(not r.passed for r in results)


def test_sweep_is_fully_clean(sweep_results):
    for res in sweep_results:
        for name, r in res.items():
            assert r.passed, (name, r.witness)
