"""Shared fixtures: one randomized trajectory sweep reused across test modules."""
import numpy as np
import pytest

from barypoly import (
    ConjugateTuple,
    certificate,
    run_trajectory,
    solve_alpha,
    trajectory_checks,
)
from barypoly.analysis import _linearized_update_matrix

SWEEP_SEED = 20260819
SWEEP_SIZE = 1000
SWEEP_MAX_STEPS = 400


@pytest.fixture(scope="session")
def alphas():
    return {p: solve_alpha(p) for p in range(3, 9)}


@pytest.fixture(scope="session")
def sweep(alphas):
    """1000 sorted random seeds, p cycling over 3..8, run to 400 steps or saturation."""
    rng = np.random.default_rng(SWEEP_SEED)
    out = []
    for i in range(SWEEP_SIZE):
        p = 3 + i % 6
        u0 = ConjugateTuple.of(sorted(rng.uniform(1e-3, 1.0 - 1e-3, size=p)))
        out.append(run_trajectory(u0, SWEEP_MAX_STEPS, alphas[p]))
    return out


@pytest.fixture(scope="session")
def sweep_results(sweep):
    """Per-trajectory verifier outcomes for the shared sweep, keyed by check name."""
    return [{r.name: r for r in trajectory_checks(traj)} for traj in sweep]


@pytest.fixture(scope="session")
def det_residuals():
    """|det(lambda I - A)| at both claimed eigenvalues, by LU determinant.

    An oracle independent of spectral_check's eigen-action test; at machine
    precision the determinant of a dense p x p matrix is a meaningful
    residual only for p <= 8 or so.
    """

    def residuals(p):
        cert = certificate(p)
        A = _linearized_update_matrix(p, cert.beta)
        eye = np.eye(p)
        return tuple(
            abs(float(np.linalg.det(lam * eye - A)))
            for lam in (cert.lambda_repulsive, cert.lambda_contractive)
        )

    return residuals
