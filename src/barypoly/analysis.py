"""Verifiers for the qualitative claims about the weight-product dynamics.

Each check takes computed data and confirms one structural property at a
stated tolerance: order preservation, two-step ratio monotonicity, the affine
two-step contraction of the sorted spread, phase alternation, the even/odd
boundary limits, the one-step order-reversing bracket, the spectral splitting
of the linearized step, and the collapse of the averaging polygon onto its
limit point.  default_suite sweeps randomized seeds through every check and
aggregates the outcomes into CheckResult rows that serialize directly to a
JSON report.

The check registry, _CHECKS, is the one place a check is added: one row per
name, (function, input), where the input is one of the four things
default_suite builds: "p_values" (the distinct swept p, ascending), "drawn"
(every swept p's (p, seeds)), "rng" (the suite's RNG after the sweep has
drawn its seeds) or "batch" (each swept p's _Batch).  A batch function
returns a verdict per row, and the others (passed, witness), a fresh dict
per call.  _TRAJ_CHECKS is the "batch" rows, in order.  Each function is the
only implementation of its claim.  The registry's order, KNOWN_CHECKS, is the
report order.

A sweep is checked one p at a time, as one array batch from stepping to
verdict: dynamics._run_batch steps the p's seeds into a step-major
dynamics._Batch, and every trajectory check reduces that batch over its steps
(axis 0 of its (n, rows) planes) to a verdict per row, reading only the row's
recorded states and, where a claim is about it, its saturating state on the
line after them, with no Python per row.  Only a failing row's witness looks
for the step where it first fails.  A TrajectoryRecord holds the same arrays
as one row of a batch, and trajectory_checks runs the same functions on its
one-row view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    TrajectoryRecord,
    WeightTuple,
    _EPS,
    _LIBM_REL,
    _Batch,
    _reduce_components,
    _run_batch,
    _step,
)
from .geometry import PointSet, _limit_weights, _regular_polygon, dual_sequence
from .stationary import StationaryCertificate, _index, certificate, solve_alpha

__all__ = [
    "IDENTITY_RTOL",
    "CheckResult",
    "spectral_check",
    "trajectory_checks",
    "default_suite",
    "KNOWN_CHECKS",
]

# Relative tolerance of the two-step affine recurrence identities.
IDENTITY_RTOL = 1e-10

# Entrywise tolerance of the complex-step residuals in spectral_check.
SPECTRAL_ATOL = 1e-13


def _certificate_fields(u: np.ndarray, u2: np.ndarray) -> dict[str, np.ndarray]:
    # The two-step contraction certificate of every state of u (at m) and u2
    # (at m + 2), components on the first axis, in O(p) array operations,
    # the same for a (p,) state alone as in a batch.  With pi = prod_i u_i,
    # prod_mid over all but the extremes and u'_j = 1 - pi / u_j, u''_0 = 1 -
    # u'_{p-1} prod_mid u'_j and u'_{p-1} = 1 - u_0 prod_mid u_j, so u''_0 =
    # intercept + slope u_0 with slope = prod_mid (u_j - pi) and intercept =
    # 1 - prod_mid (1 - pi / u_j), and likewise u''_{p-1}; residual_low and
    # residual_high are the relative misses of the two.  With slope and
    # intercept positive and ratio_bound = slope u_0 / intercept strictly
    # inside (0, 1), the sorted spread contracts by the factor contraction =
    # slope u_0 / (slope u_0 + intercept) < 1/2 every two steps.  The
    # intercept is the running union c <- c + x_j (1 - c) of x_j = pi / u_j,
    # whose terms are all non-negative, so nothing cancels (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., SIAM 2002).
    # numpy 2.4's multiply.reduce over the first axis multiplies in index
    # order, so pi and slope are the running products u_0 u_1 ... bit for
    # bit.  numpy does not document that order (add.reduce sums pairwise);
    # test_certificate_fields_equal_the_running_product_loops pins it, and if
    # it fails after a numpy upgrade, go back to the running-product loops.
    pi = np.multiply.reduce(u, axis=0)
    slope = np.multiply.reduce(u[1:-1] - pi, axis=0)
    intercept = np.zeros(u.shape[1:])
    for j in range(1, len(u) - 1):
        intercept = intercept + pi / u[j] * (1.0 - intercept)
    low = slope * u[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return {"slope": slope, "intercept": intercept, "ratio_bound": low / intercept,
                "contraction": low / (low + intercept),
                "residual_low": np.abs(low + intercept - u2[0]) / np.abs(u2[0]),
                "residual_high": np.abs(slope * u[-1] + intercept - u2[-1]) / np.abs(u2[-1])}


# A certificate's claims, in the order that picks a failure's reason.  A row is
# (fails, text): fails(u, f) is True where the claim fails for the state u at
# m with figures f = _certificate_fields(u, u2) (only corrupt data gives an
# unsorted state), and text, formatted with m, rtol and the figures at one
# index, is the reason.
_CERTIFICATE_CLAIMS = (
    (lambda u, f: ~(u[:-1] <= u[1:]).all(axis=0), "state at m={m} is not sorted ascending"),
    (lambda u, f: (f["slope"] <= 0.0) | (f["intercept"] <= 0.0),
     "positivity failed at m={m}: slope={slope!r}, intercept={intercept!r}"),
    (lambda u, f: ~((0.0 < f["ratio_bound"]) & (f["ratio_bound"] < 1.0)),
     "ratio bound {ratio_bound!r} outside (0, 1) at m={m}"),
    (lambda u, f: ~(f["contraction"] < 0.5), "two-step contraction {contraction!r} not below 1/2 at m={m}"),
    (lambda u, f: ~((f["residual_low"] <= IDENTITY_RTOL) & (f["residual_high"] <= IDENTITY_RTOL)),
     "recurrence identity residuals ({residual_low:.3e}, {residual_high:.3e}) exceed {rtol} at m={m}"),
)


def _spectral_residual(cert: StationaryCertificate) -> float:
    # Largest entry of J V - lambda V at the certificate's p, with J V the
    # complex-step derivative Im step(alpha + i h V) / h of the production
    # step at the stationary state (Squire and Trapp, SIAM Rev. 40, 1998):
    # at h = 1e-20 it has no truncation error, only the step's own rounding.
    # The rows of V are 1 (lambda_repulsive), e_0 - e_1 and a sum-zero w with
    # distinct entries (lambda_contractive).  A NaN anywhere gives NaN.
    V = np.zeros((3, cert.p))
    V[0], V[1, :2], V[2] = 1.0, (1.0, -1.0), (2.0 * np.arange(cert.p) - (cert.p - 1)) / cert.p
    JV = _step(cert.alpha + 1e-20j * V)[1].imag / 1e-20
    lam = np.array([cert.lambda_repulsive, cert.lambda_contractive, cert.lambda_contractive])
    return float(np.max(np.abs(JV - lam[:, None] * V)))


def spectral_check(p: int) -> bool:
    """Spectrum of the real step linearized at the stationary state.

    The step is differentiated at the all-alpha state by the complex step,
    in O(p), along the all-ones vector 1 and the sum-zero directions
    e_0 - e_1 and w_i = (2i - p + 1)/p.  1 must carry (1-p) * beta, with
    modulus above 1, and both sum-zero directions beta, each entry to
    within SPECTRAL_ATOL.  The step commutes with permutations of the
    components, so its Jacobian there is a I + b 1 1^T and the actions on 1
    and e_0 - e_1 fix the whole spectrum; the entries of w are distinct, so
    a defect that breaks the symmetry in any column moves J w as well.
    """
    cert = certificate(p)
    return _spectral_residual(cert) <= SPECTRAL_ATOL and abs(cert.lambda_repulsive) > 1.0


# ---------------------------------------------------------------------------
# Aggregated randomized suite
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class CheckResult:
    """One named verifier outcome with serializable witness data.

    Slotted: a caller may keep every report of a long run.
    """

    name: str
    passed: bool
    witness: dict

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


SORTED_SLACK = 1e-14
SPREAD_FLOOR = 1e-12
# Slack of the two-step ratio comparisons, and the distance from a corner of
# [0, 1]^p that decides an unsaturated even/odd limit.
RATIO_SLACK = 1e-12
LIMIT_TOL = 1e-6
# Certificates are only emitted on states whose components sit far enough
# inside (0, 1) that the 1e-10 identity tolerance is numerically meaningful.
CERT_WINDOW = (1e-3, 1.0 - 1e-3)

# Every trajectory check takes a _Batch and returns (passed, witness):
# passed is a (rows,) bool array and witness(r) builds row r's witness dict.
# A row's verdict reads only that row's recorded states, and its saturating
# state where the claim is about it: the lines from its length on are masked
# out with batch.valid, (n, rows).
_Verdicts = tuple[np.ndarray, Callable[[int], dict]]


def _verdicts(bad: np.ndarray, more=lambda r, m: {}, key: str = "step", clean=lambda r: {}) -> _Verdicts:
    # The verdicts of a check that fails row r at the first True of the
    # (n, rows) bad[:, r]: a failure's witness names that index m, and more(r,
    # m) adds to it; a passing row's witness is clean(r).  m is looked up in
    # the witness, so only for a failing row.
    passed = ~bad.any(axis=0)

    def witness(r: int) -> dict:
        if passed[r]:
            return clean(r)
        m = int(bad[:, r].argmax())
        return {key: m, **more(r, m)}

    return passed, witness


def _traj_order_preserved(batch: _Batch) -> _Verdicts:
    # the comparison is negated, so that a NaN component fails
    U = batch.states
    return _verdicts((~(U[1:] >= U[:-1] - SORTED_SLACK)).any(axis=0) & batch.valid)


def _traj_ratio_monotone(batch: _Batch) -> _Verdicts:
    # Sorted component ratios never increase across two steps: for every
    # sorted pair k < l and every pair of states two steps apart,
    # 1 <= u_l^(m+2)/u_k^(m+2) <= u_l^(m)/u_k^(m) + tol.  tol widens from
    # RATIO_SLACK to ten times the quantization noise the pair inherits from
    # storage (batch.pair_noise), so deep-corner states degrade to vacuous
    # comparisons instead of spurious failures.  A failure names the first
    # violating m; the comparisons are negated, so that a NaN fails.
    #
    # Every pair is tested in one pass over the components.  With b = u^(m+2)
    # and y = u^(m+2) / u^(m) componentwise, the lower claims of the pairs
    # (k, l), k < l, are b_l >= (1 - tol) max_{k<l} b_k.  Dividing the upper
    # claim r^(m+2) <= r^(m) + tol of a pair by r^(m) = u_l^(m) / u_k^(m)
    # gives y_l / y_k - 1 <= tol u_k^(m) / u_l^(m).  The test allows
    # y_l / min_{k<l} y_k - 1 <= tol min u^(m) / max u^(m), and min u^(m) /
    # max u^(m) <= u_k^(m) / u_l^(m): no pair gets more slack than its own
    # claim grants it.  So a running max of b and a running min of y decide
    # all p(p-1)/2 pairs in O(p).  Testing the consecutive pairs alone would
    # be looser, as their slacks add up over the gaps of a pair.
    U = batch.states
    a, b = U[:, :-2], U[:, 2:]
    tol = np.maximum(RATIO_SLACK, 10.0 * batch.pair_noise)
    bad = np.zeros(b.shape[1:], dtype=bool)
    if bad.size:
        keep, allowance = 1.0 - tol, tol * batch.low[:-2] / batch.high[:-2]
        high, low = b[0], b[0] / a[0]
        # a saturating state in b may have zero components, masked out with valid
        with np.errstate(divide="ignore", invalid="ignore"):
            for l in range(1, len(U)):
                y = b[l] / a[l]
                bad |= ~((b[l] >= keep * high) & (y / low - 1.0 <= allowance))
                high, low = np.maximum(high, b[l]), np.minimum(low, y)
    return _verdicts(bad & batch.valid[2:])


def _spread_allowance(batch: _Batch) -> np.ndarray:
    # (n - 2, rows): the allowance of the claim spread[m+2] < spread[m]
    # / 2, ten times the hard bound on the noise the pair inherits from
    # storage.
    return 10.0 * batch.pair_noise * (1.0 + batch.spread[:-2])


def _traj_spread_contraction(batch: _Batch) -> _Verdicts:
    # The exact two-step factor is strictly below 1/2, but its margin can be
    # any size (near-ties in the upper components), so the comparison gets
    # _spread_allowance instead of a skip rule: a real violation always
    # exceeds it.
    S = batch.spread
    now, later = S[:-2], S[2:]
    bad = (now > SPREAD_FLOOR) & ~(later < 0.5 * now + _spread_allowance(batch)) & batch.valid[2:]
    return _verdicts(bad, lambda r, m: {"ratio": float(S[m + 2, r] / S[m, r])})


def _traj_contraction_certificates(batch: _Batch) -> _Verdicts:
    # A certificate is emitted at every m whose states m, m+1 and m+2 lie in
    # CERT_WINDOW and whose state m has a spread above 1e-9.  A row fails at
    # its first m where a claim of _CERTIFICATE_CLAIMS fails, with the reason
    # of the first such claim; the other rows keep their verdicts.
    U = batch.states
    lo, hi = CERT_WINDOW
    inside = ~((U[0] < lo) | (U[-1] > hi))
    window = (inside[:-2] & inside[1:-1] & inside[2:] & (batch.spread[:-2] > 1e-9)
              & (U[0, :-2] < U[-1, :-2]) & batch.valid[2:])

    def clean(r: int) -> dict:
        return {"certificates": int(window[:, r].sum())}

    if not window.any():
        return np.ones(U.shape[2], dtype=bool), clean
    # every m is evaluated and then masked: the temporaries keep the batch's
    # shape instead of one that varies with the number of certificates.
    # Gathering only the window's states took ~0.3 ms less per default sweep
    # but grew a process's peak RSS by ~1 MB over 1200 sweeps, against ~0.1
    # MB this way (allocator fragmentation; numpy 2.4, glibc 2.36).
    u = U[:, :-2]
    figures = _certificate_fields(u, U[:, 2:])
    failures = np.stack([fails(u, figures) for fails, _ in _CERTIFICATE_CLAIMS]) & window
    return _verdicts(failures.any(axis=0), lambda r, m: {
        "reason": _CERTIFICATE_CLAIMS[failures[:, m, r].argmax()][1].format(
            m=m, rtol=IDENTITY_RTOL, **{name: float(f[m, r]) for name, f in figures.items()})}, clean=clean)


def _traj_geometric_bound(batch: _Batch) -> _Verdicts:
    # spread[2q] <= B_q + 1e-12 for every recorded even state 2q >= 2, with
    # B_0 = spread[0] and B_q = B_{q-1} / 2 + a_q, a_q the allowance that
    # spread_contraction grants the pair (2q - 2, 2q), whose claim carries
    # spread[2q - 2] <= B_{q-1} to spread[2q] < B_q.  2**q B_q is the
    # running sum of spread[0] and the 2**j a_j, bit for bit.  The
    # allowances grow with the storage noise of a component near 1, so the
    # bound holds on every recorded state, deep-corner ones included.
    S = batch.spread
    even = S[::2]
    q = np.arange(len(even))[:, None]
    scaled = np.concatenate((S[:1], _spread_allowance(batch)[::2] * 2.0 ** q[1:]))
    bound = np.cumsum(scaled, axis=0) * 2.0 ** -q + 1e-12
    bad = (even > bound) & (q >= 1) & (2 * q < batch.length)
    return _verdicts(bad, lambda r, i: {"spread": float(even[i, r]), "bound": float(bound[i, r])}, "q")


def _traj_t_ratio_transfer(batch: _Batch) -> _Verdicts:
    # The weights of step m+1 are t'_k = 1 - u_k^(m+1) = P / u_k^(m), with P
    # the product of the components of state m, so t'_l / t'_k = u_k / u_l
    # for every pair exactly when w_k = t'_k u_k^(m) is one number for every
    # k.  Every recorded state m whose successor is recorded is audited, in
    # O(p), by the relative spread max w / min w - 1 against twice a
    # forward-error bound B of the computed spread; a NaN spread fails.
    #
    # The step takes log t'_k as the shared log total T less b_k = log u_k.
    # T's error is the same in every component and cancels from every ratio
    # of the w_k, which leaves per component: eta |log u_k| from log (eta = 4
    # ulp); eps |log t'_k| from rounding T - b_k; (eta + eps) / t'_k from
    # expm1 and from storing u' = 1 - t' as a double; and eps each from
    # rounding 1 - u' and the product.  A sorted state has its largest
    # |log u_k| at k = 0 and its smallest t'_k at k = p - 1, so the spread of
    # two components, with the rounding of their quotient, is within
    #     B = 2 (eta |log u_0| + eps |log t'_{p-1}| + (eta + eps) / t'_{p-1}) + 5 eps
    # to first order; the factor 2 of the test covers the rest.  An unsorted
    # state can only get a smaller B.  The last line holds no recorded state
    # and is left out.
    U = batch.states[:, :-1]
    t = 1.0 - U[:, 1:]
    w = t * U[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = w.max(axis=0) / w.min(axis=0) - 1.0
        t_min = t[-1]
        bound = (2.0 * (_LIBM_REL * np.abs(np.log(U[0, :-1])) + _EPS * np.abs(np.log(t_min))
                        + (_LIBM_REL + _EPS) / t_min) + 5 * _EPS)
    return _verdicts(~(diff <= 2.0 * bound) & batch.valid[1:-1], lambda r, m: {
        "pair": sorted((int(w[:, m, r].argmin()), int(w[:, m, r].argmax()))), "diff": float(diff[m, r])})


def _traj_phase_alternation(batch: _Batch) -> _Verdicts:
    # By the bracket of _traj_comparison_domination a BELOW state maps to
    # F(u) >= f(u_max) > f(alpha) = alpha, ABOVE, and an ABOVE one to BELOW,
    # so from one decided state m0 on the phases alternate strictly forever.
    # m0 is the first decided recorded state, or else the saturating state,
    # which is audited when its code is decided; a failure counts the
    # states that break the alternation.
    # phases are MIXED past a row's saturating line, and on it if it did not
    # saturate, so every decided entry is audited
    index = np.arange(len(batch.phase))[:, None]
    decided = batch.phase != 0
    audited = (index < batch.length) | decided
    m0 = decided.argmax(axis=0)
    first = batch.phase[m0, np.arange(len(m0))]
    offset = index - m0
    expected = np.where(offset % 2 == 0, first, -first)
    violations = ((batch.phase != expected) & audited & (offset >= 0)).sum(axis=0)
    has = decided.any(axis=0)

    def witness(r: int) -> dict:
        if not has[r]:
            return {"reason": "no decided phase before saturation" if batch.saturation_step[r] >= 0
                    else "no decided phase within the recorded horizon"}
        out = {"m0": int(m0[r]), "m0_from": "recorded" if m0[r] < batch.length[r] else "saturation"}
        return {**out, "violations": int(violations[r])} if violations[r] else out

    return has & (violations == 0), witness


def _traj_even_odd_limits(batch: _Batch) -> _Verdicts:
    # Which parity of steps heads for which corner of [0, 1]^p, by global
    # step parity.  A saturating state with a decided phase code that hit
    # one corner decides on its own, by its virtual index, and the corner
    # must be the one its code names: 1 for ABOVE, 0 for BELOW; its extremes
    # tell which corner it hit, as rounded 1 - v is monotone.  Otherwise
    # every component of the final recorded even state must lie within
    # LIMIT_TOL of one corner and every component of the final odd state
    # within LIMIT_TOL of the other.
    sat, length, low, high = batch.saturation_step, batch.length, batch.low, batch.high
    rows = np.arange(len(length))
    code = batch.phase[length, rows]
    hit_one = 1.0 - high[length, rows] <= math.ulp(1.0)
    by_saturation = (code != 0) & (hit_one != (low[length, rows] <= math.ulp(0.0)))
    wrong_corner = by_saturation & (hit_one != (code == 1))
    last = length - 1
    even, odd = last - last % 2, np.maximum(last - (last + 1) % 2, 0)
    to_zero = (high[even, rows] < LIMIT_TOL) & (low[odd, rows] > 1.0 - LIMIT_TOL)
    to_one = (low[even, rows] > 1.0 - LIMIT_TOL) & (high[odd, rows] < LIMIT_TOL)
    # a one-state row compares its seed with itself, which decides nothing
    decided = by_saturation | to_zero | to_one
    even_to_zero = np.where(by_saturation, hit_one == (sat % 2 == 1), to_zero)
    return decided & ~wrong_corner, lambda r: (
        {"reason": f"saturating state of phase code {code[r]} hit corner {int(hit_one[r])}"} if wrong_corner[r]
        else {"verdict": "even_to_zero_odd_to_one" if even_to_zero[r] else "even_to_one_odd_to_zero"} if decided[r]
        else {"reason": "undecided at the recorded horizon"})


def _traj_comparison_domination(batch: _Batch) -> _Verdicts:
    # F(u)_k = 1 - prod_{i != k} u_i reverses the componentwise order, so
    # f(u_max) <= F(u)_k <= f(u_min), f(x) = 1 - x^(p-1) (Smith, Monotone
    # Dynamical Systems, AMS 1995), tested at every recorded pair (m, m+1)
    # and at (last recorded, saturating state), u_min and u_max the first and
    # last component of a recorded state and the extremes of a saturating one.
    # f decreases, so by induction it carries the scalar orbit of f from any
    # start that brackets a state.
    #
    # f is -expm1((p-1) log x).  The step's exponent is within (2 eta + p
    # eps) p L of exact (see _run_batch), L = |log u_min^(m)|, and f's within
    # (eta + eps) p L.  An exponent error d moves -expm1 by (1 - y) d and
    # expm1 adds eta y, so the sides y, z of a test are within B = (1 -
    # min(y, z)) (3 eta + (p + 1) eps) p L + eta (y + z) to first order, p
    # eps relative on the log sum; the test allows 2 B.  A NaN fails.
    U = batch.states
    p, n, _ = U.shape
    index = np.arange(n)[:, None]
    at = index == batch.length
    lo, hi = np.where(at, batch.low, U[0]), np.where(at, batch.high, U[-1])
    audited = (index < batch.length + (batch.saturation_step >= 0))[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lo = np.log(lo[:-1])
        f_hi, f_lo = -np.expm1((p - 1) * np.log(hi[:-1])), -np.expm1((p - 1) * log_lo)
    g = (3 * _LIBM_REL + (p + 1) * _EPS) * p * -log_lo

    def allowance(y, z):
        return 2.0 * ((1.0 - np.minimum(y, z)) * g + _LIBM_REL * (y + z))

    low = ~(lo[1:] >= f_hi - allowance(lo[1:], f_hi)) & audited
    high = ~(hi[1:] <= f_lo + allowance(hi[1:], f_lo)) & audited
    return _verdicts(low | high, lambda r, m: {"bracket": "lower" if low[m, r] else "upper"},
                     clean=lambda r: {"pairs": int(audited[:, r].sum())})


def _check_stationary(p_values: Sequence[int]) -> tuple[bool, dict]:
    # alpha_p < 1 - 1/p and growing in p, over the distinct p in ascending order
    worst, prev_alpha = 0.0, -math.inf
    for p in p_values:
        cert = certificate(p)
        worst = max(worst, abs(cert.alpha ** (p - 1) + cert.alpha - 1.0))
        if not cert.alpha < 1.0 - 1.0 / p:
            return False, {"p": p, "reason": "alpha bound"}
        if not cert.alpha > prev_alpha:
            return False, {"p": p, "reason": "monotonicity in p"}
        prev_alpha = cert.alpha
    return True, {"p_count": len(p_values), "worst_residual": worst}


def _check_fixed_point(p_values: Sequence[int]) -> tuple[bool, dict]:
    worst = 0.0
    for p in p_values:
        alpha = solve_alpha(p)
        diff = float(np.max(np.abs(_step(np.full(p, alpha))[1] - alpha)))
        worst = max(worst, diff)
        if diff > 1e-14:
            return False, {"p": p, "diff": diff}
    return True, {"worst_diff": worst}


def _check_spectral(p_values: Sequence[int]) -> tuple[bool, dict]:
    for p in p_values:
        if not spectral_check(p):
            return False, {"p": p, "reason": "eigen action"}
    return True, {"p_count": len(p_values)}


def _check_instability_growth(p_values: Sequence[int]) -> tuple[bool, dict]:
    # Every p is audited: five steps from alpha + eps must each grow the
    # offset by |lambda_repulsive| to within 10 %.  With eps = 1e-8 /
    # |lambda|^4 the fifth step starts 1e-8 from alpha, inside the linear
    # range at every p; from a fixed 1e-8 it would start at 1e-8 |lambda|^4
    # and miss by 0.108 at p = 8192.
    for p in p_values:
        cert = certificate(p)
        rho = abs(cert.lambda_repulsive)
        eps = 1e-8 / rho**4
        u = np.full(p, cert.alpha + eps)
        dist = eps
        for _ in range(5):
            u = _step(u)[1]
            new_dist = float(np.max(np.abs(u - cert.alpha)))
            factor = new_dist / dist
            if abs(factor / rho - 1.0) > 0.1:
                return False, {"p": p, "factor": factor, "expected": rho}
            dist = new_dist
    return True, {"p_audited": list(p_values)}


def _check_unique_fixed_point_grid(p_values: Sequence[int]) -> tuple[bool, dict]:
    # 20-per-axis midpoint grid over (0,1)^3, whatever p_values hold (the
    # suite runs it only when they include 3): near-fixed states must all sit
    # within 1e-4 of the known stationary tuple.  No grid state saturates, as
    # every product of two midpoints lies in [0.025^2, 0.975^2].  It is
    # stepped in four slabs: stepped whole, its ~190 KB temporaries are paged
    # in afresh on every call, ~1 ms more per default sweep (glibc 2.36).
    alpha = solve_alpha(3)
    axis = (np.arange(20) + 0.5) / 20
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    spurious = 0
    for slab in np.split(grid, 4):
        _, nxt = _step(slab)
        near_fixed = _reduce_components(np.maximum, np.abs(nxt - slab)) < 1e-9
        off_alpha = _reduce_components(np.maximum, np.abs(slab - alpha)) > 1e-4
        spurious += int(np.count_nonzero(near_fixed & off_alpha))
    return spurious == 0, {"spurious": spurious}


# Fixed inputs of dual_convergence: the reference seed on the regular
# pentagon and the regular weights on the unit square.
_DUAL_SEED = WeightTuple.of((0.3, 0.08, 0.06, 0.04, 0.01))
_DUAL_PENTAGON = _regular_polygon(5)
_DUAL_REGULAR = WeightTuple.of([0.25] * 4)
_DUAL_SQUARE = PointSet.of([(0, 0), (1, 0), (1, 1), (0, 1)])


def _check_dual_convergence(rng: np.random.Generator) -> tuple[bool, dict]:
    # Slowly spreading reference seed on the regular pentagon, one randomized
    # family, and the regular-weight degenerate case.
    record = dual_sequence(_DUAL_PENTAGON, _DUAL_SEED, 60)
    if not record.distances_to_centroid.min() < 1e-8:
        return False, {"reason": "reference seed distance floor", "min": float(record.distances_to_centroid.min())}
    if record.fitted_rate is None or not record.fitted_rate < 0.0:
        return False, {"reason": "fitted rate", "rate": record.fitted_rate}
    norm_err = float(np.max(np.abs(record.weights.sum(axis=1) - 1.0)))
    if norm_err > 1e-14:
        return False, {"reason": "weight normalization", "err": norm_err}

    reg_record = dual_sequence(_DUAL_SQUARE, _DUAL_REGULAR, 20)
    if not float(reg_record.distances_to_centroid.max()) <= 1e-14:
        return False, {"reason": "regular weights not centered", "max": float(reg_record.distances_to_centroid.max())}

    p = int(rng.integers(3, 8))
    pts = PointSet(p, 3, rng.uniform(-1.0, 1.0, size=(p, 3)))
    t0 = WeightTuple.of(rng.uniform(0.05, 0.95, size=p))
    rec = dual_sequence(pts, t0, 80)
    if not rec.distances_to_centroid.min() < 1e-8:
        return False, {"reason": "random seed distance floor", "p": p}
    return True, {"reference_rate": record.fitted_rate}


def _collapse_bound(log_u: np.ndarray) -> np.ndarray:
    # B of every weight tuple t on the last axis, from log_u = log1p(-t),
    # derived at _check_polygon_collapse.
    a = np.abs(log_u)
    return (2.0 * ((_LIBM_REL + _EPS) * _reduce_components(np.maximum, a) + _EPS * a.sum(axis=-1)
                   + _LIBM_REL + 3 * _EPS) + _EPS)


def _check_polygon_collapse(seeds: Sequence[tuple[int, np.ndarray]]) -> tuple[bool, dict]:
    # A pass is B_{n+1} = M B_n with the row-stochastic M[k, k] = t_k,
    # M[k, k+1 mod p] = 1 - t_k.  Every t_k lies in (0, 1), so M is a cycle
    # with a self-loop at every vertex, hence primitive, and M^n B_0 tends to
    # 1 pi B_0 for the pi with pi M = pi (Seneta, Non-negative Matrices and
    # Markov Chains, 2nd ed., Springer 2006, ch. 1).  Entry k of pi M = pi
    # reads pi_k t_k + pi_{k-1} (1 - t_{k-1}) = pi_k, so limit_point's
    # weights pi_k ~ prod_{i != k} (1 - t_i) are pi exactly when v_k =
    # pi_k (1 - t_k) is one number for every k.  The tuples are every swept
    # p's seeds, t = 1 - u.  A row passes when max v / min v - 1 <= B, so a
    # NaN fails; the report names the first row that does not.
    #
    # B bounds that spread for the computed v, in log terms per component,
    # with eps = 2^-53 and eta = 4 ulp for numpy's log1p and exp.
    # _limit_weights takes a_k = log1p(-t_k), which B shares, L_k = T - a_k
    # with T the row total, and exp(L_k - max L) over their sum; the errors
    # of T and of the sum are shared and cancel.  Left are eta |a_k|, eps
    # |L_k|, eps |L_k - max L| and eta, and eps each for /, 1 - t_k and *.
    # As a <= 0, |L_k| <= sum |a| and |L_k - max L| <= max |a|, so to first
    # order two components and their quotient differ by at most
    #     B = 2 ((eta + eps) max |a| + eps sum |a| + eta + 3 eps) + eps,
    # which grows like p eps.
    worst = 0.0
    for p, u in seeds:
        t = 1.0 - u
        log_u = np.log1p(-t)
        v = _limit_weights(log_u) * (1.0 - t)
        spread = _reduce_components(np.maximum, v) / _reduce_components(np.minimum, v) - 1.0
        bound = _collapse_bound(log_u)
        bad = ~(spread <= bound)
        if bad.any():
            s = int(bad.argmax())
            return False, {"p": p, "seed_index": s, "spread": float(spread[s]), "bound": float(bound[s])}
        worst = max(worst, float((spread / bound).max()))
    return True, {"p_audited": [p for p, _ in seeds], "tuples": sum(len(u) for _, u in seeds),
                  "worst_spread_over_bound": worst}


# The check registry; see the module docstring.
_CHECKS: dict[str, tuple[Callable, str]] = {
    "stationary_certificate": (_check_stationary, "p_values"),
    "fixed_point": (_check_fixed_point, "p_values"),
    "spectral": (_check_spectral, "p_values"),
    "instability_growth": (_check_instability_growth, "p_values"),
    "unique_fixed_point_grid": (_check_unique_fixed_point_grid, "p_values"),
    "order_preserved": (_traj_order_preserved, "batch"),
    "ratio_monotone": (_traj_ratio_monotone, "batch"),
    "spread_contraction": (_traj_spread_contraction, "batch"),
    "contraction_certificates": (_traj_contraction_certificates, "batch"),
    "spread_geometric_bound": (_traj_geometric_bound, "batch"),
    "t_ratio_transfer": (_traj_t_ratio_transfer, "batch"),
    "phase_alternation": (_traj_phase_alternation, "batch"),
    "even_odd_limits": (_traj_even_odd_limits, "batch"),
    "comparison_domination": (_traj_comparison_domination, "batch"),
    "dual_convergence": (_check_dual_convergence, "rng"),
    "polygon_collapse": (_check_polygon_collapse, "drawn"),
}

KNOWN_CHECKS = tuple(_CHECKS)

_TRAJ_CHECKS: dict[str, Callable[[_Batch], _Verdicts]] = {
    name: fn for name, (fn, takes) in _CHECKS.items() if takes == "batch"}


_P_BELOW_3 = "verification sweeps require p >= 3"


def trajectory_checks(traj: TrajectoryRecord) -> list[CheckResult]:
    """Run every per-trajectory verifier against one record of p >= 3."""
    if traj.p < 3:
        raise ValueError(_P_BELOW_3)
    batch = _Batch.of(traj)
    verdicts = {name: fn(batch) for name, fn in _TRAJ_CHECKS.items()}
    return [CheckResult(name, bool(passed[0]), witness(0)) for name, (passed, witness) in verdicts.items()]


def _perturbed(batch: _Batch) -> _Batch:
    # Harness sanity fixture: bump the first component of row 0's state
    # min(2, length - 1), in a copy of the states, so that order and
    # recurrence checks must notice.  The other rows are untouched.
    states = batch.states.copy()
    m = min(2, batch.length[0] - 1)
    states[0, m, 0] = min(states[0, m, 0] + 0.07, 1.0 - 1e-9)
    return replace(batch, states=states)


def _perturbed_record(traj: TrajectoryRecord) -> TrajectoryRecord:
    # the record with _perturbed's fault
    return _perturbed(_Batch.of(traj)).row(0)


def default_suite(
    p_values: Sequence[int] = (3, 4, 5, 6, 7, 8),
    seeds_per_p: int = 100,
    max_steps: int = 400,
    rng_seed: int = 0,
    checks: Sequence[str] | None = None,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Randomized verification sweep across every registered check.

    Unknown check names, an empty p_values, a non-integer p or one below 3,
    seeds_per_p < 1, max_steps < 0 and rng_seed < 0 raise ValueError,
    whichever checks run: a sweep over no trajectories would pass on no
    evidence.  The static checks take each distinct p once, ascending.
    inject_fault corrupts the first swept trajectory so the harness itself
    can be shown to catch failures.
    """
    if len(p_values) == 0:
        raise ValueError("p_values must name at least one p")
    p_values = [_index(p) for p in p_values]
    if any(p < 3 for p in p_values):
        raise ValueError(_P_BELOW_3)
    if seeds_per_p < 1:
        raise ValueError(f"seeds_per_p must be >= 1, got {seeds_per_p}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {rng_seed}")
    wanted = set(KNOWN_CHECKS if checks is None else checks)
    unknown = wanted.difference(KNOWN_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if 3 not in p_values:
        wanted.discard("unique_fixed_point_grid")
    names = [n for n in KNOWN_CHECKS if n in wanted]

    # Every p's seeds are drawn whichever checks run, and before the
    # geometry checks draw theirs, so a check sees the same inputs under any
    # selection; they are stepped only when a trajectory check runs.
    rng = np.random.default_rng(rng_seed)
    # one draw takes the same numbers from the RNG as one draw per seed
    drawn = [(p, rng.uniform(1e-3, 1.0 - 1e-3, size=(seeds_per_p, p))) for p in p_values]
    traj_names = [n for n in names if n in _TRAJ_CHECKS]
    violations, first_failure = dict.fromkeys(traj_names, 0), {}
    for i, (p, seeds) in enumerate(drawn if traj_names else ()):
        batch = _run_batch(seeds, max_steps, solve_alpha(p))
        if inject_fault and i == 0:
            batch = _perturbed(batch)
        for name in traj_names:
            passed, witness = _TRAJ_CHECKS[name](batch)
            if passed.all():
                continue
            failed = np.flatnonzero(~passed)
            violations[name] += failed.size
            if name not in first_failure:
                s = int(failed[0])
                first_failure[name] = {"p": p, "seed_index": s, **witness(s)}

    inputs = {"p_values": sorted(set(p_values)), "drawn": drawn, "rng": rng}
    results = []
    for name in names:
        fn, takes = _CHECKS[name]
        if takes == "batch":
            passed = violations[name] == 0
            witness = {"trajectories": len(p_values) * seeds_per_p, "violations": violations[name]}
            if name in first_failure:
                witness["first_failure"] = first_failure[name]
        else:
            passed, witness = fn(inputs[takes])
        results.append(CheckResult(name, passed, witness))
    return results
