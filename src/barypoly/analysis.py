"""Verifiers for the qualitative claims about the weight-product dynamics.

Each check takes computed data (usually a TrajectoryRecord) and confirms one
structural property at a stated tolerance: order preservation, two-step ratio
monotonicity, the affine two-step contraction of the sorted spread, phase
alternation, the even/odd boundary limits with their scalar comparison orbit,
the spectral splitting of the linearized step, and the collapse of the
averaging polygon onto its limit point.  default_suite sweeps randomized
seeds through every check and aggregates the outcomes into CheckResult rows
that serialize directly to a JSON report.

The check registry is the one place a check is added: _STATIC_CHECKS (run
once on the swept p values), _TRAJ_CHECKS (run on every swept record) and
_GEOMETRY_CHECKS (run on the suite's RNG after the sweep has drawn its
seeds) map each name to a function that returns (passed, witness), a fresh
dict per call.  Each function is the only implementation of its claim.
Their order, KNOWN_CHECKS, is the report order.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    ConjugateTuple,
    Phase,
    TrajectoryRecord,
    WeightTuple,
    _run_batch,
    _step,
    comparison_sequence,
    conjugate_step,
)
from .geometry import (
    PointSet,
    _polygon_average,
    _regular_polygon,
    dual_sequence,
    dual_weight_trajectory,
    limit_point,
)
from .stationary import certificate, solve_alpha

__all__ = [
    "IDENTITY_RTOL",
    "VerificationError",
    "ContractionCertificate",
    "CheckResult",
    "RELIABLE_GAP",
    "contraction_certificate",
    "spectral_check",
    "trajectory_checks",
    "default_suite",
    "KNOWN_CHECKS",
]

# Relative tolerance of the two-step affine recurrence identities.
IDENTITY_RTOL = 1e-10

# Components this close to 1 are stored with fewer significant digits of
# boundary distance than ratio claims at 1e-12 slack need; see
# _reliable_horizon.
RELIABLE_GAP = 1e-10

# Entrywise tolerance of the eigen-action residuals in spectral_check.
SPECTRAL_ATOL = 1e-13


class VerificationError(AssertionError):
    """A verifier postcondition failed on the supplied data."""


def _elementary_symmetric(values: Sequence[float]) -> list[float]:
    # All elementary symmetric functions e_0 .. e_n of the values, by the
    # incremental coefficient recurrence: after absorbing each value v the
    # partial coefficients update as e_j += v * e_{j-1}, descending j.
    n = len(values)
    e = [1.0] + [0.0] * n
    for idx, v in enumerate(values, start=1):
        for j in range(min(idx, n), 0, -1):
            e[j] += v * e[j - 1]
    return e


@dataclass(frozen=True)
class ContractionCertificate:
    """Witness of the two-step affine recurrence on the extreme components.

    Both extremes of a sorted state satisfy u^(m+2) = slope * u^(m) +
    intercept with positive slope and intercept, so the sorted spread
    contracts by factor `contraction` < 1/2 every two steps.  ratio_bound is
    slope * u_min / intercept and must sit strictly inside (0, 1).
    """

    m: int
    slope: float
    intercept: float
    ratio_bound: float
    contraction: float
    residual_low: float
    residual_high: float


def contraction_certificate(traj: TrajectoryRecord, m: int) -> ContractionCertificate:
    """Build and validate the two-step contraction certificate at step m.

    Needs recorded states at m and m+2, a sorted irregular state (strictly
    distinct extremes), and p >= 3.  Raises VerificationError if either
    recurrence identity misses IDENTITY_RTOL or any positivity/contraction
    claim fails.
    """
    p = traj.p
    if p < 3:
        raise ValueError(f"the contraction certificate requires p >= 3, got {p}")
    if m < 0 or m + 2 >= len(traj.states):
        raise ValueError(f"states at m={m} and m+2 must both be recorded")
    u = traj.states[m].u
    if not all(a <= b for a, b in zip(u, u[1:])):
        raise ValueError(f"state at m={m} is not sorted ascending")
    if not u[0] < u[-1]:
        raise ValueError("regular state: extreme components coincide")

    pi = math.prod(u)
    mids = u[1:-1]
    slope = math.prod(v - pi for v in mids)
    # intercept = u_min * u_max * sum_{j=0}^{p-3} (-pi)^j e_{p-3-j}(mids),
    # evaluated by Horner; for small pi the series is dominated by its first
    # term, which keeps the sum cancellation-free.
    sig = _elementary_symmetric(mids)
    s = 0.0
    for coeff in sig[: p - 2]:  # e_0 .. e_{p-3}, highest power of -pi first
        s = s * (-pi) + coeff
    intercept = u[0] * u[-1] * s

    u2 = traj.states[m + 2].u
    pred_low = slope * u[0] + intercept
    pred_high = slope * u[-1] + intercept
    residual_low = abs(pred_low - u2[0]) / abs(u2[0])
    residual_high = abs(pred_high - u2[-1]) / abs(u2[-1])
    ratio_bound = slope * u[0] / intercept
    contraction = slope * u[0] / (slope * u[0] + intercept)

    if slope <= 0.0 or intercept <= 0.0:
        raise VerificationError(
            f"positivity failed at m={m}: slope={slope!r}, intercept={intercept!r}"
        )
    if not 0.0 < ratio_bound < 1.0:
        raise VerificationError(f"ratio bound {ratio_bound!r} outside (0, 1) at m={m}")
    if not contraction < 0.5:
        raise VerificationError(f"two-step contraction {contraction!r} not below 1/2 at m={m}")
    if residual_low > IDENTITY_RTOL or residual_high > IDENTITY_RTOL:
        raise VerificationError(
            f"recurrence identity residuals ({residual_low:.3e}, {residual_high:.3e}) "
            f"exceed {IDENTITY_RTOL} at m={m}"
        )
    return ContractionCertificate(
        m=m,
        slope=slope,
        intercept=intercept,
        ratio_bound=ratio_bound,
        contraction=contraction,
        residual_low=residual_low,
        residual_high=residual_high,
    )


# Elements per temporary array in spectral_check and the t-ratio check:
# about 0.25 MB each at large p, while small p takes a single block.
_BLOCK_ELEMS = 1 << 15


def _linearized_update_matrix(p: int, beta: float) -> np.ndarray:
    # Jacobian of the conjugate step at the stationary state: zero diagonal,
    # -beta everywhere else.
    A = np.full((p, p), -beta)
    np.fill_diagonal(A, 0.0)
    return A


def spectral_check(p: int) -> bool:
    """Eigen-action check of the linearized step.

    The all-ones vector must carry eigenvalue (1-p) * beta with modulus
    above 1, and the basis e_0 - e_i (i = 1 .. p-1) of the sum-zero
    hyperplane must carry beta, each entry to within SPECTRAL_ATOL.  A @
    (e_0 - e_i) is the column difference A[:, 0] - A[:, i], bitwise: every
    other product is with 0 and these two are with +1 and -1, all exact.  So
    each basis vector costs O(p) instead of a matrix-vector product, and the
    whole check O(p^2) instead of O(p^3); the columns are taken in blocks, so
    no p x p temporary is made.
    """
    if p < 3:
        raise ValueError(f"spectral_check requires p >= 3, got {p}")
    cert = certificate(p)
    A = _linearized_update_matrix(p, cert.beta)
    ones = np.ones(p)
    if np.max(np.abs(A @ ones - cert.lambda_repulsive * ones)) > SPECTRAL_ATOL:
        return False
    lam = cert.lambda_contractive
    width = max(1, _BLOCK_ELEMS // p)
    for i0 in range(1, p, width):
        # column j is (A - lam I)(e_0 - e_i) for i = i0 + j
        r = A[:, :1] - A[:, i0 : i0 + width]
        j = np.arange(r.shape[1])
        r[0] -= lam
        r[i0 + j, j] += lam
        if np.max(np.abs(r, out=r)) > SPECTRAL_ATOL:
            return False
    return abs(cert.lambda_repulsive) > 1.0


# ---------------------------------------------------------------------------
# Aggregated randomized suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One named verifier outcome with serializable witness data."""

    name: str
    passed: bool
    witness: dict

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


SORTED_SLACK = 1e-14
SPREAD_FLOOR = 1e-12
# Slack of the two-step ratio and the comparison-orbit comparisons, and the
# distance from a corner of [0, 1]^p that decides an unsaturated even/odd
# limit.
RATIO_SLACK = 1e-12
DOMINATION_SLACK = 1e-12
LIMIT_TOL = 1e-6
# Certificates are only emitted on states whose components sit far enough
# inside (0, 1) that the 1e-10 identity tolerance is numerically meaningful.
CERT_WINDOW = (1e-3, 1.0 - 1e-3)
# Random polygons drawn by polygon_collapse.
_COLLAPSE_DRAWS = 8


def _traj_order_preserved(traj: TrajectoryRecord) -> tuple[bool, dict]:
    for m, st in enumerate(traj.states):
        for a, b in zip(st.u, st.u[1:]):
            if b < a - SORTED_SLACK:
                return False, {"step": m}
    return True, {}


def _traj_ratio_monotone(traj: TrajectoryRecord) -> tuple[bool, dict]:
    # Sorted component ratios never increase across two steps: for every
    # sorted pair k < l and every pair of states two steps apart,
    # 1 <= u_l^(m+2)/u_k^(m+2) <= u_l^(m)/u_k^(m) + slack.  The slack widens
    # from RATIO_SLACK to ten times the quantization noise the pair inherits
    # from storage, so deep-corner states degrade to vacuous comparisons
    # instead of spurious failures.  A failure names the first violating m.
    states = traj.states
    p = traj.p
    for m in range(len(states) - 2):
        a = states[m].u
        b = states[m + 2].u
        tol = max(RATIO_SLACK, 10.0 * _pair_quantization_noise(traj, m))
        for k in range(p - 1):
            for l in range(k + 1, p):
                r_now = b[l] / b[k]
                if r_now < 1.0 - tol or r_now > a[l] / a[k] + tol:
                    return False, {"step": m}
    return True, {}


def _pair_quantization_noise(traj: TrajectoryRecord, m: int) -> float:
    # Relative error inherited by state m+2 from storing state m+1: a
    # component 1 - d keeps d only to half an ulp of 1.  The 1e-14 term
    # covers the log/exp round-off of the two steps themselves.
    return 5.6e-17 / (1.0 - max(traj.states[m + 1].u)) + 1e-14


def _traj_spread_contraction(traj: TrajectoryRecord) -> tuple[bool, dict]:
    # The exact two-step factor is strictly below 1/2, but its margin can be
    # any size (near-ties in the upper components), so the comparison gets
    # an allowance of ten times the hard bound on the inherited noise
    # instead of a skip rule: a real violation always exceeds it.
    spread = traj.spread
    for m in range(len(spread) - 2):
        if spread[m] <= SPREAD_FLOOR:
            continue
        allowance = 10.0 * _pair_quantization_noise(traj, m) * (1.0 + spread[m])
        if not spread[m + 2] < 0.5 * spread[m] + allowance:
            return False, {"step": m, "ratio": spread[m + 2] / spread[m]}
    return True, {}


def _cert_window_ok(traj: TrajectoryRecord, m: int) -> bool:
    lo, hi = CERT_WINDOW
    for idx in (m, m + 1, m + 2):
        u = traj.states[idx].u
        if u[0] < lo or u[-1] > hi:
            return False
    return traj.spread[m] > 1e-9 and traj.states[m].u[0] < traj.states[m].u[-1]


def _traj_contraction_certificates(traj: TrajectoryRecord) -> tuple[bool, dict]:
    emitted = 0
    for m in range(len(traj.states) - 2):
        if not _cert_window_ok(traj, m):
            continue
        try:
            contraction_certificate(traj, m)
        except VerificationError as exc:
            return False, {"step": m, "reason": str(exc)}
        emitted += 1
    return True, {"certificates": emitted}


def _reliable_horizon(traj: TrajectoryRecord) -> int:
    # Number of leading states whose ratios carry working precision.  A
    # component stored as 1 - d keeps d only to half an ulp of 1 in absolute
    # terms, a relative error near 5.6e-17/d, and the following two states
    # inherit that error in every component ratio.  The audit window for
    # ratio and spread claims therefore ends at the first state with a
    # component within RELIABLE_GAP of 1; everything before supports
    # comparisons at 1e-12 slack with two decades to spare.
    for m, st in enumerate(traj.states):
        if 1.0 - max(st.u) <= RELIABLE_GAP:
            return m
    return len(traj.states)


def _traj_geometric_bound(traj: TrajectoryRecord) -> tuple[bool, dict]:
    spread = traj.spread
    horizon = _reliable_horizon(traj)
    for q in range(1, (horizon + 1) // 2):
        bound = 0.5**q * spread[0] + 1e-12
        if spread[2 * q] > bound:
            return False, {"q": q, "spread": spread[2 * q], "bound": bound}
    return True, {}


@functools.lru_cache(maxsize=16)
def _triangle_pairs(r: int) -> tuple[np.ndarray, np.ndarray]:
    # Pairs i < j < r in row-major order (i ascending, then j).
    i, j = np.triu_indices(r, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _ratio_gap(lp_k, lp_l, u_k, u_l) -> np.ndarray:
    # |exp(lp_l - lp_k) - u_k / u_l| elementwise, on gathered or broadcast
    # operands alike.
    gap = lp_l - lp_k
    np.exp(gap, gap)
    gap -= u_k / u_l
    return np.abs(gap, gap)


def _traj_t_ratio_transfer(traj: TrajectoryRecord) -> tuple[bool, dict]:
    # Weight components of step m+1 are exp(log_products[m]); their ratios
    # must mirror the inverted conjugate ratios of step m: for every even m
    # and pair k < l, |exp(lp[l] - lp[k]) - u[k] / u[l]| <= 1e-12.
    #
    # All even states are compared at once, in blocks of rows k0 <= k < k1.
    # The pairs with both ends inside the block are gathered through the
    # cached triangle indices; those with l >= k1 form a rectangle and are
    # broadcast.  Small p is one block with no rectangle; at large p the
    # block size bounds the temporaries.  The failure reported is the first
    # in (step, k, l) order, whichever part of which block holds it.
    lp = np.array(traj.log_products[::2])
    u = np.array([st.u for st in traj.states[::2]])
    n, p = lp.shape
    rows = max(1, min(p, _BLOCK_ELEMS // (n * p)))
    found = []
    for k0 in range(0, p, rows):
        k1 = min(k0 + rows, p)
        i, j = _triangle_pairs(k1 - k0)
        lpb, ub = lp[:, k0:k1], u[:, k0:k1]
        gap = _ratio_gap(lpb.take(i, 1), lpb.take(j, 1), ub.take(i, 1), ub.take(j, 1))
        bad = gap > 1e-12
        if np.count_nonzero(bad):
            m, q = np.unravel_index(np.argmax(bad), bad.shape)
            found.append((int(m), k0 + int(i[q]), k0 + int(j[q]), float(gap[m, q])))
        if k1 < p:
            gap = _ratio_gap(lpb[:, :, None], lp[:, None, k1:], ub[:, :, None], u[:, None, k1:])
            bad = gap > 1e-12
            if np.count_nonzero(bad):
                m, r, c = np.unravel_index(np.argmax(bad), bad.shape)
                found.append((int(m), k0 + int(r), k1 + int(c), float(gap[m, r, c])))
    if not found:
        return True, {}
    m, k, l, diff = min(found)
    return False, {"step": 2 * m, "pair": [k, l], "diff": diff}


def _traj_phase_alternation(traj: TrajectoryRecord) -> tuple[bool, dict]:
    # From the first decided (non-MIXED) phase m0 on, the recorded phases
    # must alternate strictly between BELOW and ABOVE; a failure counts the
    # steps that break the alternation.
    phases = traj.phase
    m0 = next((i for i, ph in enumerate(phases) if ph is not Phase.MIXED), None)
    if m0 is None:
        return False, {"reason": "no decided phase before saturation"}
    first = phases[m0]
    other = Phase.ABOVE if first is Phase.BELOW else Phase.BELOW
    violations = sum(
        1 for i, ph in enumerate(phases[m0:]) if ph is not (first if i % 2 == 0 else other)
    )
    if violations:
        return False, {"m0": m0, "violations": violations}
    return True, {"m0": m0}


def _traj_even_odd_limits(traj: TrajectoryRecord) -> tuple[bool, dict]:
    # Which parity of steps heads for which corner of [0, 1]^p, by global
    # step parity.  Saturation is decisive on its own: the saturating state
    # reached a corner at working precision, and its virtual index fixes
    # which parity heads there.  Without a decisive saturation the verdict
    # needs every component of the final recorded even state within
    # LIMIT_TOL of one corner and every component of the final odd state
    # within LIMIT_TOL of the other.
    even_to_zero = None
    if traj.saturation_step is not None and traj.saturation_values is not None:
        vals = traj.saturation_values
        hit_one = any(1.0 - v <= math.ulp(1.0) for v in vals)
        hit_zero = any(v <= math.ulp(0.0) for v in vals)
        if hit_one != hit_zero:
            even_to_zero = hit_one == (traj.saturation_step % 2 == 1)
    states = traj.states
    if even_to_zero is None and len(states) >= 2:
        last = len(states) - 1
        even = states[last if last % 2 == 0 else last - 1].u
        odd = states[last if last % 2 == 1 else last - 1].u
        if max(even) < LIMIT_TOL and min(odd) > 1.0 - LIMIT_TOL:
            even_to_zero = True
        elif min(even) > 1.0 - LIMIT_TOL and max(odd) < LIMIT_TOL:
            even_to_zero = False
    if even_to_zero is None:
        return False, {"reason": "undecided at the recorded horizon"}
    verdict = "even_to_zero_odd_to_one" if even_to_zero else "even_to_one_odd_to_zero"
    return True, {"verdict": verdict}


def _traj_comparison_domination(traj: TrajectoryRecord) -> tuple[bool, dict]:
    # The scalar comparison orbit brackets the extremes from the first
    # BELOW step b0.  The scalar seed is u_max^(b0) when u_min^(b0+1)
    # exceeds 1 - (u_max^(b0))**(p-1), and otherwise the preimage
    # (1 - u_min^(b0+1))**(1/(p-1)).  Then along the scalar orbit tau,
    # tau_{b0+2q} >= u_max^(b0+2q) and tau_{b0+2q+1} <= u_min^(b0+2q+1) at
    # every recorded offset, to within DOMINATION_SLACK.  Records that never
    # reach a BELOW phase have nothing to check and pass vacuously; where
    # there is something to check, p < 3 raises ValueError, as
    # comparison_sequence does.
    states = traj.states
    b0 = next((i for i, ph in enumerate(traj.phase) if ph is Phase.BELOW), None)
    if b0 is None or b0 + 1 >= len(states):
        return True, {}
    p = traj.p
    u_top = states[b0].u[-1]
    u_low_next = states[b0 + 1].u[0]
    if u_low_next > 1.0 - u_top ** (p - 1):
        tau0 = u_top
    else:
        tau0 = (1.0 - u_low_next) ** (1.0 / (p - 1))
    for offset, tau in enumerate(comparison_sequence(tau0, p, len(states) - b0 - 1)):
        m = b0 + offset
        u = states[m].u
        if offset % 2 == 0:
            if tau < u[-1] - DOMINATION_SLACK:
                return False, {"step": m}
        else:
            if tau > u[0] + DOMINATION_SLACK:
                return False, {"step": m}
    return True, {}


def _check_stationary(p_values: Sequence[int]) -> tuple[bool, dict]:
    # alpha_p must grow with p: the distinct p are taken in ascending order
    distinct = sorted(set(p_values))
    worst = 0.0
    prev_alpha = None
    for p in distinct:
        cert = certificate(p)
        worst = max(worst, abs(cert.alpha ** (p - 1) + cert.alpha - 1.0))
        if not cert.alpha < 1.0 - 1.0 / p:
            return False, {"p": p, "reason": "alpha bound"}
        if not cert.lambda_repulsive < -1.0:
            return False, {"p": p, "reason": "eigenvalue bound"}
        if prev_alpha is not None and not cert.alpha > prev_alpha:
            return False, {"p": p, "reason": "monotonicity in p"}
        prev_alpha = cert.alpha
    return True, {"p_count": len(distinct), "worst_residual": worst}


def _check_fixed_point(p_values: Sequence[int]) -> tuple[bool, dict]:
    worst = 0.0
    for p in p_values:
        alpha = solve_alpha(p)
        state = ConjugateTuple.of([alpha] * p)
        diff = max(abs(v - alpha) for v in conjugate_step(state).u)
        worst = max(worst, diff)
        if diff > 1e-14:
            return False, {"p": p, "diff": diff}
    return True, {"worst_diff": worst}


def _check_spectral(p_values: Sequence[int]) -> tuple[bool, dict]:
    # The eigen-action on the ones vector and the p - 1 hyperplane vectors
    # covers a full eigenbasis, which fixes the characteristic polynomial.
    for p in p_values:
        if not spectral_check(p):
            return False, {"p": p, "reason": "eigen action"}
    return True, {"p_count": len(p_values)}


def _check_instability_growth(p_values: Sequence[int]) -> tuple[bool, dict]:
    # Only p = 3, 4, 5 are audited; the witness names them, so a sweep that
    # audits none of them shows an empty list.
    eps = 1e-8
    audited = [p for p in p_values if p in (3, 4, 5)]
    for p in audited:
        cert = certificate(p)
        rho = abs(cert.lambda_repulsive)
        state = ConjugateTuple.of([cert.alpha + eps] * p)
        dist = eps
        for _ in range(5):
            state = conjugate_step(state)
            new_dist = max(abs(v - cert.alpha) for v in state.u)
            factor = new_dist / dist
            if abs(factor / rho - 1.0) > 0.1:
                return False, {"p": p, "factor": factor, "expected": rho}
            dist = new_dist
    return True, {"p_audited": audited}


def _check_unique_fixed_point_grid(p_values: Sequence[int]) -> tuple[bool, dict]:
    # 20-per-axis midpoint grid over (0,1)^3, whatever p_values hold (the
    # suite runs it only when they include 3): near-fixed states must all sit
    # within 1e-4 of the known stationary tuple.  The grid is stepped in one
    # slab of 400 rows per first coordinate, which keeps the temporaries
    # small; no grid state saturates, as every product of two midpoints lies
    # in [0.025^2, 0.975^2].
    alpha = solve_alpha(3)
    n = 20
    axis = (np.arange(n) + 0.5) / n
    rest = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    spurious = 0
    for x in axis:
        slab = np.column_stack((np.full(len(rest), x), rest))
        _, nxt = _step(slab)
        near_fixed = np.max(np.abs(nxt - slab), axis=1) < 1e-9
        off_alpha = np.max(np.abs(slab - alpha), axis=1) > 1e-4
        spurious += int(np.count_nonzero(near_fixed & off_alpha))
    return spurious == 0, {"spurious": spurious}


def _check_dual_convergence(rng: np.random.Generator) -> tuple[bool, dict]:
    # Slowly spreading reference seed on the regular pentagon, one randomized
    # family, and the regular-weight degenerate case.
    seed = WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01))
    record = dual_sequence(_regular_polygon(5), seed, 60)
    if not record.distances_to_centroid.min() < 1e-8:
        return False, {"reason": "reference seed distance floor", "min": float(record.distances_to_centroid.min())}
    if record.fitted_rate is None or not record.fitted_rate < 0.0:
        return False, {"reason": "fitted rate", "rate": record.fitted_rate}
    rows = dual_weight_trajectory(seed, 60)
    norm_err = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
    if norm_err > 1e-14:
        return False, {"reason": "weight normalization", "err": norm_err}

    regular = WeightTuple.of([0.25] * 4)
    square = PointSet.of([(0, 0), (1, 0), (1, 1), (0, 1)])
    reg_record = dual_sequence(square, regular, 20)
    if not float(reg_record.distances_to_centroid.max()) <= 1e-14:
        return False, {"reason": "regular weights not centered", "max": float(reg_record.distances_to_centroid.max())}

    p = int(rng.integers(3, 8))
    pts = PointSet.of(rng.uniform(-1.0, 1.0, size=(p, 3)))
    t0 = WeightTuple.of(rng.uniform(0.05, 0.95, size=p))
    rec = dual_sequence(pts, t0, 80)
    if not rec.distances_to_centroid.min() < 1e-8:
        return False, {"reason": "random seed distance floor", "p": p}
    return True, {"reference_rate": record.fitted_rate}


def _check_polygon_collapse(rng: np.random.Generator) -> tuple[bool, dict]:
    # The raw-array iterates are not validated per step, so a non-finite
    # iterate or target shows up only as a NaN error: the comparisons are
    # written so that NaN fails.
    worst = 0.0
    for _ in range(_COLLAPSE_DRAWS):
        p = int(rng.integers(3, 8))
        dim = int(rng.integers(1, 4))
        pts = PointSet.of(rng.uniform(-1.0, 1.0, size=(p, dim))).require_distinct()
        t = WeightTuple.of(rng.uniform(0.1, 0.9, size=p))
        target = limit_point(pts, t)
        w = np.asarray(t.t)[:, None]
        B = pts.points
        for _ in range(500):
            B = _polygon_average(B, w)
        err = float(np.max(np.linalg.norm(B - target, axis=1)))
        if not err <= 1e-8:
            return False, {"p": p, "dim": dim, "err": err}
        worst = max(worst, err)
    return True, {"draws": _COLLAPSE_DRAWS, "worst_err": worst}


# The check registry; see the module docstring.
_STATIC_CHECKS: dict[str, Callable[[Sequence[int]], tuple[bool, dict]]] = {
    "stationary_certificate": _check_stationary,
    "fixed_point": _check_fixed_point,
    "spectral": _check_spectral,
    "instability_growth": _check_instability_growth,
    "unique_fixed_point_grid": _check_unique_fixed_point_grid,
}

_TRAJ_CHECKS: dict[str, Callable[[TrajectoryRecord], tuple[bool, dict]]] = {
    "order_preserved": _traj_order_preserved,
    "ratio_monotone": _traj_ratio_monotone,
    "spread_contraction": _traj_spread_contraction,
    "contraction_certificates": _traj_contraction_certificates,
    "spread_geometric_bound": _traj_geometric_bound,
    "t_ratio_transfer": _traj_t_ratio_transfer,
    "phase_alternation": _traj_phase_alternation,
    "even_odd_limits": _traj_even_odd_limits,
    "comparison_domination": _traj_comparison_domination,
}

_GEOMETRY_CHECKS: dict[str, Callable[[np.random.Generator], tuple[bool, dict]]] = {
    "dual_convergence": _check_dual_convergence,
    "polygon_collapse": _check_polygon_collapse,
}

KNOWN_CHECKS = (*_STATIC_CHECKS, *_TRAJ_CHECKS, *_GEOMETRY_CHECKS)


_P_BELOW_3 = "verification sweeps require p >= 3"


def trajectory_checks(traj: TrajectoryRecord) -> list[CheckResult]:
    """Run every per-trajectory verifier against one record of p >= 3."""
    if traj.p < 3:
        raise ValueError(_P_BELOW_3)
    return [CheckResult(name, *fn(traj)) for name, fn in _TRAJ_CHECKS.items()]


def _perturbed_record(traj: TrajectoryRecord) -> TrajectoryRecord:
    # Harness sanity fixture: bump one component of a middle state so that
    # order and recurrence checks must notice.
    states = list(traj.states)
    idx = min(2, len(states) - 1)
    u = list(states[idx].u)
    u[0] = min(u[0] + 0.07, 1.0 - 1e-9)
    states[idx] = ConjugateTuple.of(u)
    return replace(traj, states=tuple(states))


def default_suite(
    p_values: Sequence[int] = (3, 4, 5, 6, 7, 8),
    seeds_per_p: int = 100,
    max_steps: int = 400,
    rng_seed: int = 0,
    checks: Sequence[str] | None = None,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Randomized verification sweep across every registered check.

    Unknown check names, an empty p_values, a p below 3 and seeds_per_p < 1
    raise ValueError: a sweep over no trajectories would pass on no
    evidence.  inject_fault corrupts the first swept trajectory so the
    harness itself can be shown to catch failures.
    """
    if len(p_values) == 0:
        raise ValueError("p_values must name at least one p")
    if any(p < 3 for p in p_values):
        raise ValueError(_P_BELOW_3)
    if seeds_per_p < 1:
        raise ValueError(f"seeds_per_p must be >= 1, got {seeds_per_p}")
    wanted = set(KNOWN_CHECKS if checks is None else checks)
    unknown = wanted.difference(KNOWN_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if 3 not in p_values:
        wanted.discard("unique_fixed_point_grid")
    names = [n for n in KNOWN_CHECKS if n in wanted]

    # The seeds are drawn only when a trajectory check runs, and before the
    # geometry checks draw theirs.
    rng = np.random.default_rng(rng_seed)
    traj_names = [n for n in names if n in _TRAJ_CHECKS]
    swept, violations, first_failure = 0, dict.fromkeys(traj_names, 0), {}
    for p in p_values if traj_names else ():
        # one draw takes the same numbers from the RNG as one draw per seed
        seeds = rng.uniform(1e-3, 1.0 - 1e-3, size=(seeds_per_p, p))
        for s, traj in enumerate(_run_batch(seeds, max_steps, solve_alpha(p))):
            if inject_fault and swept == 0:
                traj = _perturbed_record(traj)
            swept += 1
            for name in traj_names:
                ok, info = _TRAJ_CHECKS[name](traj)
                if not ok:
                    violations[name] += 1
                    first_failure.setdefault(name, {"p": p, "seed_index": s, **info})

    results = []
    for name in names:
        if name in _STATIC_CHECKS:
            passed, witness = _STATIC_CHECKS[name](p_values)
        elif name in _TRAJ_CHECKS:
            passed = violations[name] == 0
            witness = {"trajectories": swept, "violations": violations[name]}
            if name in first_failure:
                witness["first_failure"] = first_failure[name]
        else:
            passed, witness = _GEOMETRY_CHECKS[name](rng)
        results.append(CheckResult(name, passed, witness))
    return results
