"""Verifiers for the qualitative claims about the weight-product dynamics.

Each check takes computed data (usually a TrajectoryRecord) and confirms one
structural property at a stated tolerance: order preservation, two-step ratio
monotonicity, the affine two-step contraction of the sorted spread, phase
alternation, the even/odd boundary limits with their scalar comparison orbit,
the spectral splitting of the linearized step, and the collapse of the
averaging polygon onto its limit point.  default_suite sweeps randomized
seeds through every check and aggregates the outcomes into CheckResult rows
that serialize directly to a JSON report.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    ConjugateTuple,
    Phase,
    TrajectoryRecord,
    WeightTuple,
    comparison_sequence,
    conjugate_step,
    run_trajectory,
)
from .geometry import (
    PointSet,
    _excluded_sums,
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
    "AlternationReport",
    "EvenOddVerdict",
    "CheckResult",
    "RELIABLE_GAP",
    "elementary_symmetric_all",
    "reliable_horizon",
    "contraction_certificate",
    "check_ratio_monotonicity",
    "detect_alternation",
    "even_odd_limits",
    "check_comparison_domination",
    "linearized_update_matrix",
    "spectral_check",
    "trajectory_checks",
    "default_suite",
    "KNOWN_CHECKS",
]

# Relative tolerance of the two-step affine recurrence identities.
IDENTITY_RTOL = 1e-10

# Components this close to 1 are stored with fewer significant digits of
# boundary distance than ratio claims at 1e-12 slack need; see
# reliable_horizon.
RELIABLE_GAP = 1e-10


class VerificationError(AssertionError):
    """A verifier postcondition failed on the supplied data."""


def elementary_symmetric_all(values: Sequence[float]) -> list[float]:
    """All elementary symmetric functions e_0 .. e_n of the values.

    Incremental coefficient recurrence: after absorbing each value v the
    partial coefficients update as e_j += v * e_{j-1}, descending j.
    """
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
    state = traj.states[m]
    if not state.sorted_flag:
        raise ValueError(f"state at m={m} is not sorted ascending")
    u = state.u
    if not u[0] < u[-1]:
        raise ValueError("regular state: extreme components coincide")

    pi = math.prod(u)
    mids = u[1:-1]
    slope = math.prod(v - pi for v in mids)
    # intercept = u_min * u_max * sum_{j=0}^{p-3} (-pi)^j e_{p-3-j}(mids),
    # evaluated by Horner; for small pi the series is dominated by its first
    # term, which keeps the sum cancellation-free.
    sig = elementary_symmetric_all(mids)
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


def reliable_horizon(traj: TrajectoryRecord, gap: float = RELIABLE_GAP) -> int:
    """Number of leading states whose ratios carry working precision.

    A component stored as 1 - d keeps d only to half an ulp of 1 in absolute
    terms, a relative error near 5.6e-17/d, and the following two states
    inherit that error in every component ratio.  The audit window for
    ratio and spread claims therefore ends at the first state with a
    component within gap of 1; everything before supports comparisons at
    1e-12 slack with two decades to spare.
    """
    for m, st in enumerate(traj.states):
        if 1.0 - max(st.u) <= gap:
            return m
    return len(traj.states)


def check_ratio_monotonicity(
    traj: TrajectoryRecord, slack: float = 1e-12
) -> tuple[bool, int | None]:
    """Sorted component ratios never increase across two steps.

    For every sorted pair k < l and every pair of states two steps apart,
    1 <= u_l^(m+2)/u_k^(m+2) <= u_l^(m)/u_k^(m) + slack.  The slack widens
    to ten times the quantization noise the pair inherits from storage, so
    deep-corner states degrade to vacuous comparisons instead of spurious
    failures.  Returns the first violating step index when the property
    fails.
    """
    states = traj.states
    p = traj.p
    for m in range(len(states) - 2):
        a = states[m].u
        b = states[m + 2].u
        tol = max(slack, 10.0 * _pair_quantization_noise(traj, m))
        for k in range(p - 1):
            for l in range(k + 1, p):
                r_now = b[l] / b[k]
                if r_now < 1.0 - tol or r_now > a[l] / a[k] + tol:
                    return False, m
    return True, None


@dataclass(frozen=True)
class AlternationReport:
    """First decided phase index and the strictness of alternation after it.

    m0 is None when every recorded phase is MIXED (nothing to decide);
    violations counts recorded steps from m0 onward that break the strict
    BELOW/ABOVE alternation.
    """

    m0: int | None
    pattern: tuple[Phase, ...]
    violations: int

    @property
    def found(self) -> bool:
        return self.m0 is not None


def detect_alternation(traj: TrajectoryRecord) -> AlternationReport:
    """Locate the first non-MIXED phase and audit the alternation after it."""
    phases = traj.phase
    m0 = next((i for i, ph in enumerate(phases) if ph is not Phase.MIXED), None)
    if m0 is None:
        return AlternationReport(m0=None, pattern=(), violations=0)
    pattern = tuple(phases[m0:])
    first = pattern[0]
    other = Phase.ABOVE if first is Phase.BELOW else Phase.BELOW
    violations = sum(
        1
        for i, ph in enumerate(pattern)
        if ph is not (first if i % 2 == 0 else other)
    )
    return AlternationReport(m0=m0, pattern=pattern, violations=violations)


class EvenOddVerdict(Enum):
    """Which parity of steps heads for which corner of [0, 1]^p."""

    EVEN_TO_ZERO_ODD_TO_ONE = "even_to_zero_odd_to_one"
    EVEN_TO_ONE_ODD_TO_ZERO = "even_to_one_odd_to_zero"
    UNDECIDED = "undecided"


def even_odd_limits(traj: TrajectoryRecord, tol: float) -> EvenOddVerdict:
    """Decide the boundary limits, by saturation pattern or final states.

    Global step parity is used.  Saturation is decisive on its own: the
    saturating state reached a corner of [0,1] at working precision, and its
    virtual index fixes which parity heads there.  Without saturation the
    verdict requires every component of the final recorded even state within
    tol of one corner and every component of the final odd state within tol
    of the other.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tol must lie inside (0, 0.5), got {tol!r}")
    if traj.saturation_step is not None and traj.saturation_values is not None:
        vals = traj.saturation_values
        hit_one = any(1.0 - v <= math.ulp(1.0) for v in vals)
        hit_zero = any(v <= math.ulp(0.0) for v in vals)
        if hit_one != hit_zero:
            sat_parity = traj.saturation_step % 2
            if hit_one:
                if sat_parity == 1:
                    return EvenOddVerdict.EVEN_TO_ZERO_ODD_TO_ONE
                return EvenOddVerdict.EVEN_TO_ONE_ODD_TO_ZERO
            if sat_parity == 1:
                return EvenOddVerdict.EVEN_TO_ONE_ODD_TO_ZERO
            return EvenOddVerdict.EVEN_TO_ZERO_ODD_TO_ONE
    states = traj.states
    if len(states) < 2:
        return EvenOddVerdict.UNDECIDED
    last = len(states) - 1
    even = states[last if last % 2 == 0 else last - 1].u
    odd = states[last if last % 2 == 1 else last - 1].u
    if max(even) < tol and min(odd) > 1.0 - tol:
        return EvenOddVerdict.EVEN_TO_ZERO_ODD_TO_ONE
    if min(even) > 1.0 - tol and max(odd) < tol:
        return EvenOddVerdict.EVEN_TO_ONE_ODD_TO_ZERO
    return EvenOddVerdict.UNDECIDED


def check_comparison_domination(
    traj: TrajectoryRecord, slack: float = 1e-12
) -> tuple[bool, int | None]:
    """Scalar comparison orbit brackets the extremes from the first BELOW step.

    With b0 the first fully-below step, the scalar seed is u_max^(b0) when
    u_min^(b0+1) exceeds 1 - (u_max^(b0))**(p-1), and otherwise the preimage
    (1 - u_min^(b0+1))**(1/(p-1)).  Then along the scalar orbit tau,
    tau_{b0+2q} >= u_max^(b0+2q) and tau_{b0+2q+1} <= u_min^(b0+2q+1) at
    every recorded offset.  Trajectories that never reach a BELOW phase have
    nothing to check and pass vacuously; where there is something to check,
    p < 3 raises ValueError, as comparison_sequence does.
    """
    states = traj.states
    b0 = next((i for i, ph in enumerate(traj.phase) if ph is Phase.BELOW), None)
    if b0 is None or b0 + 1 >= len(states):
        return True, None
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
            if tau < u[-1] - slack:
                return False, m
        else:
            if tau > u[0] + slack:
                return False, m
    return True, None


# Elements per temporary array in spectral_check and the t-ratio check:
# about 0.25 MB each at large p, while small p takes a single block.
_BLOCK_ELEMS = 1 << 15


def linearized_update_matrix(p: int, beta: float) -> np.ndarray:
    """Jacobian of the conjugate step at the stationary state: zero diagonal,
    -beta everywhere else."""
    A = np.full((p, p), -beta)
    np.fill_diagonal(A, 0.0)
    return A


def spectral_check(p: int, atol: float = 1e-13) -> bool:
    """Eigen-action check of the linearized step.

    The all-ones vector must carry eigenvalue (1-p) * beta with modulus
    above 1, and the basis e_0 - e_i (i = 1 .. p-1) of the sum-zero
    hyperplane must carry beta.  A @ (e_0 - e_i) is the column difference
    A[:, 0] - A[:, i], bitwise: every other product is with 0 and these two
    are with +1 and -1, all exact.  So each basis vector costs O(p) instead
    of a matrix-vector product, and the whole check O(p^2) instead of
    O(p^3); the columns are taken in blocks, so no p x p temporary is made.
    """
    if p < 3:
        raise ValueError(f"spectral_check requires p >= 3, got {p}")
    cert = certificate(p)
    A = linearized_update_matrix(p, cert.beta)
    ones = np.ones(p)
    if np.max(np.abs(A @ ones - cert.lambda_repulsive * ones)) > atol:
        return False
    lam = cert.lambda_contractive
    width = max(1, _BLOCK_ELEMS // p)
    for i0 in range(1, p, width):
        # column j is (A - lam I)(e_0 - e_i) for i = i0 + j
        r = A[:, :1] - A[:, i0 : i0 + width]
        j = np.arange(r.shape[1])
        r[0] -= lam
        r[i0 + j, j] += lam
        if np.max(np.abs(r, out=r)) > atol:
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
# Certificates are only emitted on states whose components sit far enough
# inside (0, 1) that the 1e-10 identity tolerance is numerically meaningful.
CERT_WINDOW = (1e-3, 1.0 - 1e-3)


def _traj_order_preserved(traj: TrajectoryRecord) -> tuple[bool, dict]:
    for m, st in enumerate(traj.states):
        for a, b in zip(st.u, st.u[1:]):
            if b < a - SORTED_SLACK:
                return False, {"step": m}
    return True, {}


def _traj_ratio_monotone(traj: TrajectoryRecord) -> tuple[bool, dict]:
    ok, first = check_ratio_monotonicity(traj)
    return ok, {} if ok else {"step": first}


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


def _traj_geometric_bound(traj: TrajectoryRecord) -> tuple[bool, dict]:
    spread = traj.spread
    horizon = reliable_horizon(traj)
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
    report = detect_alternation(traj)
    if not report.found:
        return False, {"reason": "no decided phase before saturation"}
    if report.violations:
        return False, {"m0": report.m0, "violations": report.violations}
    return True, {"m0": report.m0}


def _traj_even_odd_limits(traj: TrajectoryRecord) -> tuple[bool, dict]:
    verdict = even_odd_limits(traj, tol=1e-6)
    if verdict is EvenOddVerdict.UNDECIDED:
        return False, {"reason": "undecided at the recorded horizon"}
    return True, {"verdict": verdict.value}


def _traj_comparison_domination(traj: TrajectoryRecord) -> tuple[bool, dict]:
    ok, first = check_comparison_domination(traj)
    return ok, {} if ok else {"step": first}


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

_STATIC_CHECKS = (
    "stationary_certificate",
    "fixed_point",
    "spectral",
    "instability_growth",
    "unique_fixed_point_grid",
)

_GEOMETRY_CHECKS = ("dual_convergence", "polygon_collapse")

KNOWN_CHECKS = _STATIC_CHECKS + tuple(_TRAJ_CHECKS) + _GEOMETRY_CHECKS


def trajectory_checks(traj: TrajectoryRecord) -> list[CheckResult]:
    """Run every per-trajectory verifier against one record."""
    out = []
    for name, fn in _TRAJ_CHECKS.items():
        ok, info = fn(traj)
        out.append(CheckResult(name, ok, info))
    return out


def _check_stationary(p_values: Sequence[int]) -> CheckResult:
    worst = 0.0
    prev_alpha = None
    for p in p_values:
        cert = certificate(p)
        worst = max(worst, abs(cert.alpha ** (p - 1) + cert.alpha - 1.0))
        if not cert.alpha < 1.0 - 1.0 / p:
            return CheckResult("stationary_certificate", False, {"p": p, "reason": "alpha bound"})
        if not cert.lambda_repulsive < -1.0:
            return CheckResult("stationary_certificate", False, {"p": p, "reason": "eigenvalue bound"})
        if prev_alpha is not None and not cert.alpha > prev_alpha:
            return CheckResult("stationary_certificate", False, {"p": p, "reason": "monotonicity in p"})
        prev_alpha = cert.alpha
    return CheckResult("stationary_certificate", True, {"p_count": len(list(p_values)), "worst_residual": worst})


def _check_fixed_point(p_values: Sequence[int]) -> CheckResult:
    worst = 0.0
    for p in p_values:
        alpha = solve_alpha(p)
        state = ConjugateTuple.of([alpha] * p)
        diff = max(abs(v - alpha) for v in conjugate_step(state).u)
        worst = max(worst, diff)
        if diff > 1e-14:
            return CheckResult("fixed_point", False, {"p": p, "diff": diff})
    return CheckResult("fixed_point", True, {"worst_diff": worst})


def _check_spectral(p_values: Sequence[int]) -> CheckResult:
    # The eigen-action on the ones vector and the p - 1 hyperplane vectors
    # covers a full eigenbasis, which fixes the characteristic polynomial.
    for p in p_values:
        if not spectral_check(p):
            return CheckResult("spectral", False, {"p": p, "reason": "eigen action"})
    return CheckResult("spectral", True, {"p_count": len(p_values)})


def _check_instability_growth(p_values: Sequence[int]) -> CheckResult:
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
                return CheckResult(
                    "instability_growth", False, {"p": p, "factor": factor, "expected": rho}
                )
            dist = new_dist
    return CheckResult("instability_growth", True, {"p_audited": audited})


def _check_unique_fixed_point_grid() -> CheckResult:
    # 20-per-axis midpoint grid over (0,1)^3: near-fixed states must all sit
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
        nxt = -np.expm1(_excluded_sums(np.log(slab)))
        near_fixed = np.max(np.abs(nxt - slab), axis=1) < 1e-9
        off_alpha = np.max(np.abs(slab - alpha), axis=1) > 1e-4
        spurious += int(np.count_nonzero(near_fixed & off_alpha))
    return CheckResult("unique_fixed_point_grid", spurious == 0, {"spurious": spurious})


def _check_dual_convergence(rng: np.random.Generator) -> CheckResult:
    # Slowly spreading reference seed on the regular pentagon, one randomized
    # family, and the regular-weight degenerate case.
    seed = WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01))
    record = dual_sequence(_regular_polygon(5), seed, 60)
    if not record.distances_to_centroid.min() < 1e-8:
        return CheckResult(
            "dual_convergence", False,
            {"reason": "reference seed distance floor", "min": float(record.distances_to_centroid.min())},
        )
    if record.fitted_rate is None or not record.fitted_rate < 0.0:
        return CheckResult("dual_convergence", False, {"reason": "fitted rate", "rate": record.fitted_rate})
    rows = dual_weight_trajectory(seed, 60)
    norm_err = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
    if norm_err > 1e-14:
        return CheckResult("dual_convergence", False, {"reason": "weight normalization", "err": norm_err})

    regular = WeightTuple.of([0.25] * 4)
    square = PointSet.of([(0, 0), (1, 0), (1, 1), (0, 1)])
    reg_record = dual_sequence(square, regular, 20)
    if not float(reg_record.distances_to_centroid.max()) <= 1e-14:
        return CheckResult(
            "dual_convergence", False,
            {"reason": "regular weights not centered", "max": float(reg_record.distances_to_centroid.max())},
        )

    p = int(rng.integers(3, 8))
    pts = PointSet.of(rng.uniform(-1.0, 1.0, size=(p, 3)))
    t0 = WeightTuple.of(rng.uniform(0.05, 0.95, size=p))
    rec = dual_sequence(pts, t0, 80)
    if not rec.distances_to_centroid.min() < 1e-8:
        return CheckResult("dual_convergence", False, {"reason": "random seed distance floor", "p": p})
    return CheckResult("dual_convergence", True, {"reference_rate": record.fitted_rate})


def _check_polygon_collapse(rng: np.random.Generator, draws: int = 8) -> CheckResult:
    # The raw-array iterates are not validated per step, so a non-finite
    # iterate or target shows up only as a NaN error: the comparisons are
    # written so that NaN fails.
    worst = 0.0
    for _ in range(draws):
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
            return CheckResult("polygon_collapse", False, {"p": p, "dim": dim, "err": err})
        worst = max(worst, err)
    return CheckResult("polygon_collapse", True, {"draws": draws, "worst_err": worst})


def _perturbed_record(traj: TrajectoryRecord) -> TrajectoryRecord:
    # Harness sanity fixture: bump one component of a middle state so that
    # order and recurrence checks must notice.
    import dataclasses

    states = list(traj.states)
    idx = min(2, len(states) - 1)
    u = list(states[idx].u)
    u[0] = min(u[0] + 0.07, 1.0 - 1e-9)
    states[idx] = ConjugateTuple.of(u)
    return dataclasses.replace(traj, states=tuple(states))


def default_suite(
    p_values: Sequence[int] = (3, 4, 5, 6, 7, 8),
    seeds_per_p: int = 100,
    max_steps: int = 400,
    rng_seed: int = 0,
    checks: Sequence[str] | None = None,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Randomized verification sweep across every registered check.

    Unknown check names, an empty p_values and seeds_per_p < 1 raise
    ValueError: a sweep over no trajectories would pass on no evidence.
    inject_fault corrupts the first swept trajectory so the harness itself
    can be shown to catch failures.
    """
    if len(p_values) == 0:
        raise ValueError("p_values must name at least one p")
    if seeds_per_p < 1:
        raise ValueError(f"seeds_per_p must be >= 1, got {seeds_per_p}")
    wanted = None if checks is None else set(checks)
    if wanted is not None:
        unknown = wanted.difference(KNOWN_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")

    def enabled(name: str) -> bool:
        return wanted is None or name in wanted

    rng = np.random.default_rng(rng_seed)
    results: list[CheckResult] = []

    if enabled("stationary_certificate"):
        results.append(_check_stationary(p_values))
    if enabled("fixed_point"):
        results.append(_check_fixed_point(p_values))
    if enabled("spectral"):
        results.append(_check_spectral(p_values))
    if enabled("instability_growth"):
        results.append(_check_instability_growth(p_values))
    if enabled("unique_fixed_point_grid") and 3 in p_values:
        results.append(_check_unique_fixed_point_grid())

    traj_names = [n for n in _TRAJ_CHECKS if enabled(n)]
    if traj_names:
        stats = {n: {"checked": 0, "violations": 0, "first_failure": None} for n in traj_names}
        fault_pending = inject_fault
        for p in p_values:
            alpha = solve_alpha(p)
            for s in range(seeds_per_p):
                u0 = ConjugateTuple.of(sorted(rng.uniform(1e-3, 1.0 - 1e-3, size=p)))
                traj = run_trajectory(u0, max_steps, alpha)
                if fault_pending:
                    traj = _perturbed_record(traj)
                    fault_pending = False
                for name in traj_names:
                    ok, info = _TRAJ_CHECKS[name](traj)
                    st = stats[name]
                    st["checked"] += 1
                    if not ok:
                        st["violations"] += 1
                        if st["first_failure"] is None:
                            st["first_failure"] = {"p": p, "seed_index": s, **info}
        for name in traj_names:
            st = stats[name]
            passed = st["violations"] == 0
            witness = {"trajectories": st["checked"], "violations": st["violations"]}
            if st["first_failure"] is not None:
                witness["first_failure"] = st["first_failure"]
            results.append(CheckResult(name, passed, witness))

    if enabled("dual_convergence"):
        results.append(_check_dual_convergence(rng))
    if enabled("polygon_collapse"):
        results.append(_check_polygon_collapse(rng))
    return results
