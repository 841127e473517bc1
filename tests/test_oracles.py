import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from dpsgld.core import Example, InvalidParameterError
from dpsgld.losses import GlmLoss, loss_gradient
from dpsgld.oracles import (
    finite_diff_gradient,
    renyi_gaussian,
    stability_bound,
    theorem1_excess_bound,
    theorem2_excess_bound,
)
from dpsgld.schedules import MultiPassSchedule


class TestFiniteDiffGradient:
    def test_agrees_with_analytic_gradient(self):
        gen = np.random.default_rng(3)
        for family in ("logistic", "smoothed-hinge", "quadratic"):
            loss = GlmLoss(family)
            for _ in range(10):
                d = int(gen.integers(1, 6))
                x = gen.standard_normal(d)
                x *= 0.95 / max(np.linalg.norm(x), 1e-12)
                z = Example(x, float(gen.choice([-1.0, 1.0])))
                w = gen.standard_normal(d)
                numeric = finite_diff_gradient(loss, w, z, h=1e-6)
                analytic = loss_gradient(loss, w, z)
                np.testing.assert_allclose(numeric, analytic, rtol=2e-5, atol=1e-8)

    def test_quadratic_is_exact_for_central_differences(self):
        loss = GlmLoss("quadratic")
        z = Example(np.array([0.5, -0.5]), 0.3)
        w = np.array([0.2, 0.4])
        numeric = finite_diff_gradient(loss, w, z, h=1e-3)
        np.testing.assert_allclose(numeric, loss_gradient(loss, w, z), atol=1e-10)

    def test_step_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            finite_diff_gradient(GlmLoss("logistic"), np.zeros(1), Example(np.array([0.5]), 1.0), 0.0)


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


class TestStabilityBound:
    def test_hand_value(self):
        # 4 * 1 * (3/100 + 1/10) * (0.01 + 0.04 + 0.09) = 4 * 0.13 * 0.14
        got = stability_bound(3, 10, 1.0, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(got, 4.0 * 0.13 * 0.14, rtol=1e-14)

    def test_prefix_sum_only(self):
        etas = [0.1, 0.2, 0.3, 100.0]
        got = stability_bound(3, 10, 1.0, etas)
        np.testing.assert_allclose(got, 4.0 * 0.13 * 0.14, rtol=1e-14)

    def test_monotone_in_t(self):
        etas = np.full(50, 0.05)
        values = [stability_bound(t, 20, 1.0, etas) for t in range(1, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            stability_bound(0, 10, 1.0, [0.1])
        with pytest.raises(InvalidParameterError):
            stability_bound(2, 10, 1.0, [0.1])
        with pytest.raises(InvalidParameterError):
            stability_bound(1, 0, 1.0, [0.1])

    def test_schedule_outside_noise_domain_rejected(self):
        # n·δ >= 2.5 would make η_1 NaN and so the bound at every t
        with pytest.raises(InvalidParameterError, match="n·δ"):
            sched = MultiPassSchedule(
                n=10, pass_exponent=1.0, epsilon=0.1, delta=0.5,
                eta0=1.0, G=1.0, T=5, beta0=0.25,
            )
            stability_bound(3, sched.n, sched.G, sched.etas)


class TestExcessRiskBounds:
    def test_single_pass_reference_value(self):
        got = theorem1_excess_bound(1.0, 10_000, 1.0, 1.0, 0.5, 1e-5, 0.25)
        np.testing.assert_allclose(got, 0.23140980184590159124, rtol=1e-13)

    def test_single_pass_terms(self):
        opt = theorem1_excess_bound(1.0, 10_000, 1.0, 1.0, 0.5, 1e-5, 0.0)
        np.testing.assert_allclose(opt, 0.23025850929940456840, rtol=1e-13)
        with_priv = theorem1_excess_bound(1.0, 10_000, 1.0, 1.0, 0.5, 1e-5, 0.25)
        np.testing.assert_allclose(with_priv - opt, 0.0011512925464970228420, rtol=1e-10)

    def test_single_pass_privacy_term_decays_in_epsilon(self):
        loose = theorem1_excess_bound(1.0, 1000, 1.0, 1.0, 0.1, 1e-5, 0.25)
        tight = theorem1_excess_bound(1.0, 1000, 1.0, 1.0, 1.0, 1e-5, 0.25)
        assert tight < loose

    def test_multi_pass_shape(self):
        base = theorem2_excess_bound(1.0, 1000, 2.0, 1.0, 1.0, 0.5, 1e-5, 0.25)
        assert base > 0
        bigger_n = theorem2_excess_bound(1.0, 4000, 2.0, 1.0, 1.0, 0.5, 1e-5, 0.25)
        assert bigger_n < base

    def test_multi_pass_manual_sum(self):
        n, a, eps, delta = 100, 2.0, 0.5, 1e-4
        T = round(n**a * eps**2)
        comp = 1.0 * 4.0 * math.sqrt(math.log(T / delta)) / (0.5 * math.sqrt(n))
        opt = 0.5 * 1.0 / math.sqrt(n * math.log(1.0 / delta))
        priv = 0.25 * 0.3 / (eps**2 * n ** (a - 1.0))
        got = theorem2_excess_bound(2.0, n, a, 1.0, 0.5, eps, delta, 0.3)
        np.testing.assert_allclose(got, comp + opt + priv, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            theorem1_excess_bound(1.0, 0, 1.0, 1.0, 0.5, 1e-5, 0.25)
        with pytest.raises(InvalidParameterError):
            theorem1_excess_bound(1.0, 100, 1.0, 1.0, 0.5, 2.0, 0.25)
        with pytest.raises(InvalidParameterError):
            theorem1_excess_bound(-1.0, 100, 1.0, 1.0, 0.5, 1e-5, 0.25)
        with pytest.raises(InvalidParameterError):
            theorem2_excess_bound(1.0, 100, 3.0, 1.0, 1.0, 0.5, 1e-5, 0.25)
