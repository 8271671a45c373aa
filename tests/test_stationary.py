import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barypoly import WeightTuple, certificate, derived_step, solve_alpha
from barypoly.stationary import _alpha_residual

# independently computed digits: bisection of x**(p-1) + x - 1 to a 1e-15
# bracket, double checked against the closed form for p = 3
FROZEN_ALPHA = {
    3: 0.6180339887498949,
    4: 0.6823278038280193,
    5: 0.7244919590005157,
    8: 0.7965443541284571,
    16: 0.8719505387818479,
    64: 0.9527164300537517,
}


def test_frozen_digits():
    for p, expected in FROZEN_ALPHA.items():
        assert solve_alpha(p) == pytest.approx(expected, abs=1e-13)


def test_golden_section_case():
    assert solve_alpha(3) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-15)


def test_against_inline_bisection():
    """Fresh bisection oracle, no shared code with the solver's Newton polish."""
    for p in (4, 7, 12):
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            if mid ** (p - 1) + mid - 1.0 < 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(solve_alpha(p) - 0.5 * (lo + hi)) < 1e-12


def test_degenerate_linear_case():
    # p = 2 turns the equation into 2x - 1 = 0
    assert solve_alpha(2) == pytest.approx(0.5, abs=1e-15)


def test_solve_alpha_validation():
    with pytest.raises(ValueError):
        solve_alpha(1)


def test_non_integer_p_is_a_value_error():
    # 4.0 follows a call with 4: a root kept for 4 must not answer 4.0
    solve_alpha(4)
    for fn in (solve_alpha, certificate):
        for p in (3.5, 4.0, "4"):
            with pytest.raises(ValueError, match="integer"):
                fn(p)
    # integers of other types pass, and the certificate holds a Python int
    assert certificate(np.int64(5)) == certificate(5)
    assert type(certificate(np.int64(5)).p) is int
    assert solve_alpha(np.int32(4)) == solve_alpha(4)


def test_residual_is_certified():
    for p in (3, 10, 50, 200):
        assert abs(_alpha_residual(p, solve_alpha(p))) <= 1e-14


def test_certificate_fields():
    cert = certificate(5)
    assert cert.p == 5
    assert cert.beta == pytest.approx(cert.alpha ** 3, rel=1e-15)
    assert cert.lambda_repulsive == pytest.approx(-4.0 * cert.beta, rel=1e-15)
    assert cert.lambda_contractive == cert.beta
    assert cert.instability_margin == pytest.approx(abs(cert.lambda_repulsive) - 1.0)
    assert cert.instability_margin > 0.0


def test_certificate_rejects_small_p():
    with pytest.raises(ValueError):
        certificate(2)


def test_alpha_monotone_in_p():
    values = [solve_alpha(p) for p in range(3, 65)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_the_two_step_lemma_numbers():
    # README's proof that f(f(x)) < x on (0, alpha), with q = p - 1: psi(x) =
    # q^2 x^(q-1) - (q^2 - 1) x^q - 1 is alpha (lambda^2 - 1) > 0 at alpha and
    # changes sign once on (0, alpha], and phi(x) = q log(1 - x^q) - log(1 - x)
    # is positive inside it.  The grid part is checked numerically, not proven.
    for p in [*range(3, 65), 128, 256, 512, 1024]:
        q, cert = p - 1, certificate(p)
        alpha, lam = cert.alpha, cert.lambda_repulsive

        def psi(x):
            return q * q * x ** (q - 1) - (q * q - 1) * x ** q - 1.0

        assert psi(alpha) == pytest.approx(alpha * (lam * lam - 1.0), rel=1e-12)
        assert psi(alpha) > 0.0
        x = np.linspace(0.0, alpha, 4001)[1:]
        sign = np.sign(psi(x))
        assert sign.all() and np.count_nonzero(sign[1:] != sign[:-1]) == 1, p
        inner = x[:-1]
        assert (q * np.log1p(-inner ** q) - np.log1p(-inner) > 0.0).all(), p


@given(st.integers(min_value=3, max_value=128))
def test_root_and_spectrum_properties(p):
    cert = certificate(p)
    assert 0.0 < cert.alpha < 1.0
    assert abs(_alpha_residual(p, cert.alpha)) <= 1e-14
    assert cert.alpha < 1.0 - 1.0 / p
    assert cert.lambda_repulsive < -1.0
    assert 0.0 < cert.lambda_contractive < 1.0


def test_stationary_weights_are_fixed():
    for p in (3, 5, 9):
        t = WeightTuple.of([1.0 - solve_alpha(p)] * p)
        stepped = derived_step(t)
        for a, b in zip(stepped.t, t.t):
            assert a == pytest.approx(b, rel=1e-14)
