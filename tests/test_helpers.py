"""Self-tests of the oracles in tests/helpers.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from dpsgld.core import InvalidParameterError
from dpsgld.losses import GlmLoss

from helpers import finite_diff_gradient, renyi_gaussian


class TestFiniteDiffGradient:
    def test_agrees_with_analytic_gradient(self):
        gen = np.random.default_rng(3)
        for family in ("logistic", "smoothed-hinge", "quadratic"):
            loss = GlmLoss(family)
            for _ in range(10):
                d = int(gen.integers(1, 6))
                x = gen.standard_normal(d)
                x *= 0.95 / max(np.linalg.norm(x), 1e-12)
                y = float(gen.choice([-1.0, 1.0]))
                w = gen.standard_normal(d)
                numeric = finite_diff_gradient(loss, w, x, y, h=1e-6)
                analytic = float(loss.phi_prime(w @ x, y)) * x
                np.testing.assert_allclose(numeric, analytic, rtol=2e-5, atol=1e-8)

    def test_quadratic_is_exact_for_central_differences(self):
        loss = GlmLoss("quadratic")
        x = np.array([0.5, -0.5])
        w = np.array([0.2, 0.4])
        numeric = finite_diff_gradient(loss, w, x, 0.3, h=1e-3)
        np.testing.assert_allclose(numeric, float(loss.phi_prime(w @ x, 0.3)) * x, atol=1e-10)

    def test_step_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            finite_diff_gradient(GlmLoss("logistic"), np.zeros(1), np.array([0.5]), 1.0, 0.0)


def numeric_renyi_1d(alpha, gap, sigma):
    # direct quadrature of (1/(alpha-1)) ln E_q[(p/q)^alpha] in one dimension
    p = norm(loc=gap, scale=sigma)
    q = norm(loc=0.0, scale=sigma)

    def integrand(x):
        return p.pdf(x) ** alpha * q.pdf(x) ** (1.0 - alpha)

    lo = min(-12 * sigma, gap - 12 * sigma)
    hi = max(12 * sigma, gap + 12 * sigma)
    val, _ = integrate.quad(integrand, lo, hi, limit=400)
    return math.log(val) / (alpha - 1.0)


class TestRenyiGaussian:
    def test_matches_numeric_integral(self):
        for alpha, gap, sigma in ((2.0, 0.5, 1.0), (3.5, 1.2, 0.8), (1.5, 0.1, 0.3)):
            closed = renyi_gaussian(alpha, [gap], [0.0], sigma**2)
            np.testing.assert_allclose(closed, numeric_renyi_1d(alpha, gap, sigma), rtol=1e-6)

    def test_isotropic_sum_over_coordinates(self):
        closed = renyi_gaussian(2.0, [1.0, 2.0], [0.0, 0.0], 0.5)
        np.testing.assert_allclose(closed, 2.0 * 5.0 / (2.0 * 0.5), rtol=1e-14)

    def test_degenerate_variance(self):
        assert renyi_gaussian(2.0, [1.0], [1.0], 0.0) == 0.0
        assert renyi_gaussian(2.0, [1.0], [0.0], 0.0) == math.inf

    def test_order_validation(self):
        with pytest.raises(InvalidParameterError):
            renyi_gaussian(1.0, [0.0], [0.0], 1.0)


@given(
    alpha=st.floats(min_value=1.01, max_value=50.0),
    gap=st.floats(min_value=0.0, max_value=10.0),
    sigma2=st.floats(min_value=1e-6, max_value=100.0),
)
@settings(max_examples=200)
def test_renyi_scales_linearly_in_alpha(alpha, gap, sigma2):
    one = renyi_gaussian(alpha, [gap], [0.0], sigma2)
    two = renyi_gaussian(2.0 * alpha, [gap], [0.0], sigma2)
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12, atol=1e-300)
