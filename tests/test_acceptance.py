"""Acceptance gate: one test per shipped claim, each at its stated tolerance.

Every test prints a single `[acceptance] criterion N` line; run with -s for
the full scoreboard.  The shared 1000-seed sweep fixture backs criteria 5
through 9, so this module exercises the whole battery end to end.
"""
import math
import time
import timeit

import numpy as np

import barypoly as bp
from barypoly.cli import figure_iterates, main

_T0 = time.perf_counter()


def _criterion(n, desc, ok, detail=""):
    line = f"[acceptance] criterion {n:2d} {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _regular_polygon(p):
    return bp.PointSet.of(
        (math.cos(2.0 * math.pi * k / p), math.sin(2.0 * math.pi * k / p))
        for k in range(p)
    )


def test_criterion_1_stationary_constants():
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a3 = bp.solve_alpha(3)
    a4 = bp.solve_alpha(4)
    # independent oracle: plain bisection of x**3 + x - 1 to a 1e-15 bracket
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid**3 + mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    oracle4 = 0.5 * (lo + hi)
    t_best = min(
        min(timeit.repeat(lambda: bp.solve_alpha(p), number=1, repeat=7))
        for p in (3, 4)
    )
    ok = abs(a3 - golden) < 1e-12 and abs(a4 - oracle4) < 1e-12 and t_best < 1e-3
    _criterion(
        1, "stationary constants match closed form and bisection oracle", ok,
        f"|d3|={abs(a3 - golden):.1e} |d4|={abs(a4 - oracle4):.1e} {t_best * 1e6:.0f}us",
    )


def test_criterion_2_instability_inequalities():
    t0 = time.perf_counter()
    ok = True
    for p in range(3, 65):
        a = bp.solve_alpha(p)
        if not (a < 1.0 - 1.0 / p and (1 - p) * a ** (p - 2) < -1.0):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 0.1
    _criterion(2, "threshold and eigenvalue inequalities for p in [3,64]", ok,
               f"{elapsed * 1e3:.1f}ms")


def test_criterion_3_spectral_certificate(det_residuals):
    t0 = time.perf_counter()
    eigen_ok = bp.analysis.SPECTRAL_ATOL <= 1e-13 and all(
        bp.spectral_check(p) for p in (*range(3, 33), 64, 256, 1024, 8192)
    )
    det_worst = max(max(det_residuals(p)) for p in range(3, 9))
    elapsed = time.perf_counter() - t0
    ok = eigen_ok and det_worst < 1e-9 and elapsed < 1.0
    _criterion(3, "eigen-action p in [3,32] + 64, 256, 1024, 8192 and determinants p <= 8", ok,
               f"worst det {det_worst:.1e}, {elapsed * 1e3:.0f}ms")


def test_criterion_4_fixed_point():
    worst = 0.0
    for p in range(3, 17):
        a = bp.solve_alpha(p)
        stepped = bp.conjugate_step(bp.ConjugateTuple.of([a] * p))
        worst = max(worst, max(abs(v - a) for v in stepped.u))
    ok = worst <= 1e-14
    _criterion(4, "all-alpha tuple fixed under the conjugate step, p in [3,16]",
               ok, f"worst {worst:.1e}")


def test_criterion_5_sortedness(sweep):
    bad = sum(
        1
        for traj in sweep
        for u in traj.states.tolist()
        for a, b in zip(u, u[1:])
        if b < a - 1e-14
    )
    ok = bad == 0 and len(sweep) == 1000
    _criterion(5, "sortedness preserved across the 1000-seed sweep (slack 1e-14)",
               ok, f"{len(sweep)} trajectories, {bad} violations")


def test_criterion_6_ratio_and_spread_contraction(sweep_results):
    ratio_bad = sum(1 for res in sweep_results if not res["ratio_monotone"].passed)
    spread_bad = sum(1 for res in sweep_results if not res["spread_contraction"].passed)
    geom_bad = sum(1 for res in sweep_results if not res["spread_geometric_bound"].passed)
    ok = bp.analysis.RATIO_SLACK <= 1e-12 and ratio_bad == 0 and spread_bad == 0 and geom_bad == 0
    _criterion(
        6, "ratio monotonicity, spread halving, geometric bound on the sweep", ok,
        f"ratio {ratio_bad}, halving {spread_bad}, geometric {geom_bad} violations",
    )


def test_criterion_7_certificate_algebra():
    rng = np.random.default_rng(7)
    worst_res = 0.0
    count = 0
    ok = True
    while count < 500:
        p = int(rng.integers(4, 9))
        u = np.sort(rng.uniform(0.1, 0.9, size=p))
        if not u[0] < u[-1]:
            continue
        traj = bp.run_trajectory(bp.ConjugateTuple.of(u), 2, bp.solve_alpha(p))
        figures = bp.analysis._certificate_fields(traj.states[0], traj.states[2])
        if any(fails(traj.states[0], figures) for fails, _ in bp.analysis._CERTIFICATE_CLAIMS):
            ok = False
            break
        f = {name: float(x) for name, x in figures.items()}
        worst_res = max(worst_res, f["residual_low"], f["residual_high"])
        if not (f["slope"] > 0 and f["intercept"] > 0 and 0 < f["ratio_bound"] < 1 and f["contraction"] < 0.5):
            ok = False
            break
        count += 1
    ok = ok and worst_res <= 1e-10
    _criterion(7, "two-step recurrence identities on 500 random states, p in [4,8]",
               ok, f"worst relative residual {worst_res:.1e}")


def test_criterion_8_phase_alternation(sweep_results):
    bad = sum(1 for res in sweep_results if not res["phase_alternation"].passed)
    ok = bad == 0
    _criterion(8, "strict phase alternation from m0 on every swept trajectory",
               ok, f"{bad} violations")


def test_criterion_9_even_odd_limits(sweep, sweep_results):
    undecided = sum(1 for res in sweep_results if not res["even_odd_limits"].passed)
    domination_bad = sum(
        1 for res in sweep_results if not res["comparison_domination"].passed
    )
    # every trajectory was capped at 400 steps, so a decided verdict is a
    # decision before step 400 by construction
    horizon_ok = all(len(traj) <= 401 for traj in sweep)
    ok = undecided == 0 and domination_bad == 0 and horizon_ok
    _criterion(
        9, "even/odd boundary verdicts and one-step bracket", ok,
        f"{undecided} undecided, {domination_bad} domination violations",
    )


def test_criterion_10_dual_sequence_reference_seed():
    t0 = time.perf_counter()
    pent = _regular_polygon(5)
    rec = bp.dual_sequence(pent, bp.WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01)), 60)
    reg = bp.dual_sequence(pent, bp.WeightTuple.of([0.2] * 5), 60)
    elapsed = time.perf_counter() - t0
    min_dist = float(rec.distances_to_centroid.min())
    reg_max = float(reg.distances_to_centroid.max())
    ok = (
        min_dist < 1e-8
        and rec.fitted_rate is not None
        and rec.fitted_rate < 0.0
        and reg_max <= 1e-14
        and elapsed < 1.0
    )
    _criterion(
        10, "dual sequence hits the centroid for the reference seed", ok,
        f"min dist {min_dist:.1e}, rate {rec.fitted_rate}, regular max {reg_max:.1e}",
    )


def test_criterion_11_polygon_collapse():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(3, 9))
        A = bp.PointSet.of(rng.uniform(-1.0, 1.0, size=(p, 2)))
        t = bp.WeightTuple.of(rng.uniform(0.1, 0.9, size=p))
        target = bp.limit_point(A, t)
        B = A
        for _ in range(500):
            B = bp.polygon_step(B, t)
        worst = max(worst, float(np.max(np.linalg.norm(B.points - target, axis=1))))
    ok = worst < 1e-8
    _criterion(11, "500 averaging passes collapse 100 random families onto the limit",
               ok, f"worst vertex error {worst:.1e}")


def _diameter(ps):
    pts = ps.points
    return max(
        float(np.max(np.linalg.norm(pts[i + 1:] - pts[i], axis=1)))
        for i in range(pts.shape[0] - 1)
    )


def test_criterion_12_figures(tmp_path):
    spiral = "0.3,0.08,0.06,0.04,0.01"
    overlay = "0.03,0.02,0.03,0.02,0.01"
    out1 = tmp_path / "spiral.svg"
    out2 = tmp_path / "overlay.svg"
    rc1 = main(["figure", "--weights", spiral, "--order", "0", "--out", str(out1)])
    first1 = out1.read_bytes()
    rc1b = main(["figure", "--weights", spiral, "--order", "0", "--out", str(out1)])
    rc2 = main(["figure", "--weights", overlay, "--superpose", "--out", str(out2)])
    first2 = out2.read_bytes()
    rc2b = main(["figure", "--weights", overlay, "--superpose", "--out", str(out2)])
    deterministic = first1 == out1.read_bytes() and first2 == out2.read_bytes()

    pent = _regular_polygon(5)
    ratios = []
    for seed_text in (spiral, overlay):
        t0 = bp.WeightTuple.of(float(v) for v in seed_text.split(","))
        for t in bp.weight_orders(t0, 1):
            fam = figure_iterates(pent, t)
            ratios.append(_diameter(fam[-1]) / _diameter(fam[0]))
    ok = (
        rc1 == rc1b == rc2 == rc2b == 0
        and deterministic
        and first1.startswith(b"<?xml")
        and max(ratios) < 0.01
    )
    _criterion(12, "figures are deterministic and visibly collapsed", ok,
               f"worst final/initial diameter {max(ratios):.1e}")


def test_total_runtime_budget():
    elapsed = time.perf_counter() - _T0
    ok = elapsed < 30.0
    print(f"[acceptance] total runtime {elapsed:.1f}s (budget 30s): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok
