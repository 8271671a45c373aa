"""Output checks for the benchmark workloads.

Every check takes what barypoly produced and raises OutputError when the
output disagrees with a computation made apart from the program (mpmath at
50 digits) or with a property the method must have.  This module does not
import barypoly, so a fault in the package cannot hide in its own oracle.
"""
from __future__ import annotations

import functools
import json
import math
import re
import xml.etree.ElementTree as ET
from typing import Iterable, Sequence

import mpmath
from mpmath import mpf

DPS = 50
EPS = 2.0**-52

# The one verdict the sweeps are allowed to get wrong: phase_alternation on
# orbits that saturate right after the seed (every trajectory at p >= 256).
KNOWN_FAULT = ("phase_alternation", "no decided phase before saturation")

_SVG_POLYLINE = "{http://www.w3.org/2000/svg}polyline"


class OutputError(AssertionError):
    """A program output failed its independent check."""


def _close(name: str, got: float, want, tol: float) -> None:
    if not abs(mpf(got) - want) <= tol:
        raise OutputError(f"{name}: got {got!r}, expected {mpmath.nstr(want, 20)} (tol {float(tol):.1e})")


@functools.lru_cache(maxsize=None)
def mp_alpha(p: int):
    """Root of x**(p-1) + x - 1 in (0, 1) at DPS digits: bisection, then Newton."""
    with mpmath.workdps(DPS + 10):
        lo, hi = mpf(0), mpf(1)
        for _ in range(64):
            mid = (lo + hi) / 2
            if mid ** (p - 1) + mid - 1 < 0:
                lo = mid
            else:
                hi = mid
        x = (lo + hi) / 2
        for _ in range(4):
            x -= (x ** (p - 1) + x - 1) / ((p - 1) * x ** (p - 2) + 1)
        return +x


# ---------------------------------------------------------------------------
# alpha --json
# ---------------------------------------------------------------------------

def check_alpha_json(text: str, p: int) -> None:
    """Residual of x**(p-1) + x - 1 at the printed alpha, and the eigenvalues."""
    d = json.loads(text)
    if d.get("p") != p:
        raise OutputError(f"alpha: printed p={d.get('p')!r}, asked for {p}")
    with mpmath.workdps(DPS):
        a = mpf(d["alpha"])
        residual = a ** (p - 1) + a - 1
        if not abs(residual) <= 1e-14:
            raise OutputError(f"alpha: residual {mpmath.nstr(residual, 5)} exceeds 1e-14 at p={p}")
        _close("alpha", d["alpha"], mp_alpha(p), 1e-14)
        beta = a ** (p - 2)
        lam = (1 - p) * beta
        _close("beta", d["beta"], beta, 1e-14 * beta)
        _close("lambda_repulsive", d["lambda_repulsive"], lam, 1e-14 * abs(lam))
        _close("lambda_contractive", d["lambda_contractive"], beta, 1e-14 * beta)
        _close("instability_margin", d["instability_margin"], abs(lam) - 1, 1e-14 * abs(lam))
        _close("stationary_weight", d["stationary_weight"], 1 - a, 1e-15)


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def _parse_csv(text: str, header: Sequence[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != list(header):
        raise OutputError(f"csv header {lines[0] if lines else ''!r}, expected {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    for m, row in enumerate(rows):
        if len(row) != len(header) or row[0] != str(m):
            raise OutputError(f"csv row {m} is malformed: {','.join(row)!r}")
    return rows


def _mp_step(u: Sequence) -> list:
    """u'_k = 1 - prod_{i != k} u_i with direct products at DPS digits."""
    out = []
    for k in range(len(u)):
        prod = mpf(1)
        for i, v in enumerate(u):
            if i != k:
                prod *= v
        out.append(1 - prod)
    return out


def _step_tolerance(u: Sequence[float], nxt) -> list:
    # Forward error of the float step: the shared log sum carries a few ulps
    # of sum |log u_i|, which moves u'_k = -expm1(S_k) by e^S_k = 1 - u'_k
    # times that; the final rounding adds a few ulps of u'_k.  Sixteen-fold
    # margin on both terms.
    log_mass = sum(abs(math.log(v)) for v in u) + 1.0
    return [16 * EPS * (log_mass * (1 - w) + w) for w in nxt]


def _expected_phase(u: Sequence[float], alpha) -> set[str]:
    if min(abs(mpf(v) - alpha) for v in u) <= 2e-15:
        return {"below", "above", "mixed"}  # within the program's tie band
    if all(v < alpha for v in u):
        return {"below"}
    if all(v > alpha for v in u):
        return {"above"}
    return {"mixed"}


_SATURATED = re.compile(r"saturated at step (\d+): a component left \(0, 1\); (\d+) states recorded")
_UNSATURATED = re.compile(r"recorded (\d+) states \(no saturation\)")


def check_trajectory_csv(text: str, weights: Sequence[float], steps: int, note: str) -> None:
    """Recompute every row from the row before it, and the spread and phase columns."""
    p = len(weights)
    header = ["m"] + [f"u_{k + 1}" for k in range(p)] + ["spread", "phase"]
    rows = _parse_csv(text, header)
    if not rows:
        raise OutputError("trajectory: no rows")
    with mpmath.workdps(DPS):
        alpha = mp_alpha(p)
        prev = None
        for m, row in enumerate(rows):
            u = [float(x) for x in row[1 : p + 1]]
            if m == 0:
                want = sorted(1 - mpf(w) for w in weights)
                tol = [EPS * w for w in want]
            else:
                want = _mp_step([mpf(v) for v in prev])
                tol = _step_tolerance(prev, want)
            for k in range(p):
                _close(f"trajectory row {m} u_{k + 1}", u[k], want[k], tol[k])
            spread = mpf(u[-1]) / mpf(u[0]) - 1
            _close(f"trajectory row {m} spread", float(row[p + 1]), spread, 4 * EPS * (1 + spread))
            if row[p + 2] not in _expected_phase(u, alpha):
                raise OutputError(f"trajectory row {m}: phase {row[p + 2]!r} is wrong")
            prev = u

        sat = _SATURATED.search(note)
        if sat:
            if int(sat.group(1)) != len(rows) or int(sat.group(2)) != len(rows):
                raise OutputError(f"trajectory: note {sat.group(0)!r} disagrees with {len(rows)} rows")
            nxt = _mp_step([mpf(v) for v in prev])
            if not any(1 - v <= 4e-16 or v <= 1e-320 for v in nxt):
                raise OutputError("trajectory: reported saturation, but the next state is interior")
        else:
            unsat = _UNSATURATED.search(note)
            if not unsat or int(unsat.group(1)) != len(rows) or len(rows) != steps + 1:
                raise OutputError(f"trajectory: note {note.strip()!r} disagrees with {len(rows)} rows")


# ---------------------------------------------------------------------------
# dual CSV
# ---------------------------------------------------------------------------

def mp_dual_sequence(weights: Sequence[float], steps: int) -> list[tuple]:
    """G_0 .. G_steps on the regular p-gon at DPS digits.

    G_m is the mean of the vertices weighted by t^(m+1)_k = prod_{i != k}
    (1 - t^(m)_i), the next iterate of the weight map.  Each u = 1 - t is
    carried as its logarithm and rebuilt from the product with log1p or
    expm1, whichever keeps it exact, so the orbit stays meaningful long
    after the float components round to 0 or 1.
    """
    p = len(weights)
    with mpmath.workdps(DPS):
        pts = [(mpmath.cos(2 * mpmath.pi * k / p), mpmath.sin(2 * mpmath.pi * k / p)) for k in range(p)]
        log_u = [mpmath.log1p(-mpf(w)) for w in weights]
        out = []
        for m in range(steps + 1):
            log_t = [mpmath.fsum(log_u[:k] + log_u[k + 1 :]) for k in range(p)]
            top = max(log_t)
            w = [mpmath.exp(x - top) for x in log_t]
            total = mpmath.fsum(w)
            out.append(tuple(mpmath.fsum(w[k] * pts[k][d] for k in range(p)) / total for d in (0, 1)))
            log_u = [mpmath.log1p(-mpmath.exp(x)) if x < -1 else mpmath.log(-mpmath.expm1(x)) for x in log_t]
        return out


def check_dual_csv(text: str, weights: Sequence[float], steps: int) -> None:
    """Rebuild G_m from the iterated weights and check its distance to the centroid."""
    rows = _parse_csv(text, ["m", "g_1", "g_2", "distance"])
    if len(rows) != steps + 1:
        raise OutputError(f"dual: {len(rows)} rows for {steps} steps")
    with mpmath.workdps(DPS):
        for m, (row, g) in enumerate(zip(rows, mp_dual_sequence(weights, steps))):
            for d in (0, 1):
                _close(f"dual row {m} g_{d + 1}", float(row[d + 1]), g[d], 1e-12)
            # the centroid of the regular polygon is the origin
            _close(f"dual row {m} distance", float(row[3]), mpmath.hypot(*g), 1e-12)


# ---------------------------------------------------------------------------
# verify --weights
# ---------------------------------------------------------------------------

def check_verify_output(text: str, returncode: int, names: Iterable[str]) -> None:
    """Every named check prints PASS once, the summary says so, and the exit code is 0."""
    lines = text.splitlines()
    verdicts = sorted(lines[:-1])
    if returncode != 0 or lines[-1:] != ["all checks passed"] or verdicts != sorted(f"PASS {n}" for n in names):
        raise OutputError(f"verify: exit {returncode}, output {lines!r}")


# ---------------------------------------------------------------------------
# figure SVG
# ---------------------------------------------------------------------------

_WROTE = re.compile(r"wrote .* \((\d+) polygons\)")


def check_svg(data: bytes, note: str, rerun: bytes | None = None) -> None:
    """The SVG parses, has as many polylines as printed, and is byte-identical on a rerun."""
    match = _WROTE.search(note)
    if not match:
        raise OutputError(f"figure: unexpected note {note.strip()!r}")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise OutputError(f"figure: SVG does not parse: {exc}") from None
    count = sum(1 for el in root.iter(_SVG_POLYLINE))
    if count != int(match.group(1)):
        raise OutputError(f"figure: {count} polylines, {match.group(1)} printed")
    if rerun is not None and rerun != data:
        raise OutputError("figure: a second run wrote different bytes")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def check_sweep(results, expected_names: Sequence[str], traj_names: Sequence[str],
                trajectories: int, allow_known_fault: bool) -> bool:
    """Validate one default_suite verdict; returns True when the verdict failed.

    Every expected check is reported once, every trajectory check audited
    all swept trajectories, and every check passes, apart from the known
    phase_alternation fault where the workload admits it.
    """
    names = [r.name for r in results]
    if sorted(names) != sorted(expected_names):
        raise OutputError(f"sweep: checks {names}, expected {list(expected_names)}")
    failed = False
    for r in results:
        if r.name in traj_names and r.witness.get("trajectories") != trajectories:
            raise OutputError(f"sweep: {r.name} audited {r.witness.get('trajectories')} of {trajectories} trajectories")
        if r.passed:
            continue
        failed = True
        reason = r.witness.get("first_failure", {}).get("reason")
        if not (allow_known_fault and (r.name, reason) == KNOWN_FAULT):
            raise OutputError(f"sweep: {r.name} failed: {r.witness}")
    return failed


def check_negative_control(results) -> None:
    """A sweep over a deliberately corrupted trajectory must report a failure."""
    if not any(not r.passed and r.name != KNOWN_FAULT[0] for r in results):
        raise OutputError("sweep: inject_fault=True went unnoticed")
