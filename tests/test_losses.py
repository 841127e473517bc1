import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from dpsgld.core import Dataset, InvalidParameterError
from dpsgld.losses import (
    FAMILIES,
    LOGISTIC,
    QUADRATIC,
    SMOOTHED_HINGE,
    GlmLoss,
    LossBounds,
    empirical_risk,
    logistic,
    loss_bounds,
)

from helpers import phi_double_prime

LN2 = 0.69314718055994530942
LN_ONE_PLUS_EXP_NEG2 = 0.12692801104297249644


def all_losses():
    return [GlmLoss(LOGISTIC), GlmLoss(SMOOTHED_HINGE, h=0.5), GlmLoss(QUADRATIC)]


class TestLogistic:
    def test_known_values(self):
        loss = GlmLoss(LOGISTIC)
        np.testing.assert_allclose(loss.phi(0.0, 1.0), LN2, rtol=1e-15)
        np.testing.assert_allclose(loss.phi(2.0, 1.0), LN_ONE_PLUS_EXP_NEG2, rtol=1e-14)
        np.testing.assert_allclose(loss.phi(-2.0, -1.0), LN_ONE_PLUS_EXP_NEG2, rtol=1e-14)
        np.testing.assert_allclose(loss.phi_prime(0.0, 1.0), -0.5, rtol=1e-15)
        np.testing.assert_allclose(phi_double_prime(loss, 0.0, 1.0), 0.25, rtol=1e-15)

    def test_no_overflow_at_extreme_margins(self):
        loss = GlmLoss(LOGISTIC)
        assert np.isfinite(loss.phi(-800.0, 1.0))
        np.testing.assert_allclose(loss.phi(-800.0, 1.0), 800.0, rtol=1e-12)
        assert loss.phi(800.0, 1.0) == 0.0

    def test_logistic_agrees_with_scipy_expit(self):
        # within 4 ulp wherever expit's own e^(−x) is finite; below −709.78
        # expit returns 0 and the logistic returns the correctly rounded e^x,
        # a subnormal at most 5.6e-309 away
        x = np.concatenate([
            [0.0, -0.0, 709.8, -709.8, 1e3, -1e3, 1e308, -1e308, np.inf, -np.inf],
            np.linspace(-800.0, 800.0, 160_001),
            np.geomspace(1e-300, 1e308, 2_000),
            -np.geomspace(1e-300, 1e308, 2_000),
        ])
        got = logistic(x)
        inside = x >= -709.78
        np.testing.assert_array_max_ulp(got[inside], expit(x[inside]), maxulp=4)
        below = x[~inside]
        assert below.size > 100
        np.testing.assert_array_equal(got[~inside], np.exp(below))
        assert np.abs(got[~inside] - expit(below)).max() <= 5.6e-309

    def test_huge_margins_raise_no_warning(self):
        # tier-1 treats warnings as errors
        loss = GlmLoss(LOGISTIC)
        a = np.array([-1e4, 1e4, -1e308, 1e308])
        np.testing.assert_array_equal(loss.phi_prime(a, 1.0), [-1.0, 0.0, -1.0, 0.0])
        np.testing.assert_array_equal(loss.phi_prime(a, -1.0), [0.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(phi_double_prime(loss, a, 1.0), 0.0)

    def test_curvature_peaks_at_zero_margin(self):
        loss = GlmLoss(LOGISTIC)
        a = np.linspace(-6, 6, 101)
        curv = phi_double_prime(loss, a, np.ones_like(a))
        assert np.argmax(curv) == 50


class TestSmoothedHinge:
    def test_piecewise_joins_are_continuous(self):
        for h in (0.1, 0.5, 1.0):
            loss = GlmLoss(SMOOTHED_HINGE, h=h)
            eps = 1e-9
            for knot in (1.0 - h, 1.0 + h):
                left = loss.phi(knot - eps, 1.0)
                right = loss.phi(knot + eps, 1.0)
                np.testing.assert_allclose(left, right, atol=1e-8)
                left_d = loss.phi_prime(knot - eps, 1.0)
                right_d = loss.phi_prime(knot + eps, 1.0)
                np.testing.assert_allclose(left_d, right_d, atol=1e-8)

    def test_values_at_knots(self):
        h = 0.3
        loss = GlmLoss(SMOOTHED_HINGE, h=h)
        np.testing.assert_allclose(loss.phi(1.0 - h, 1.0), h, rtol=1e-12)
        assert loss.phi(1.0 + h, 1.0) == 0.0
        np.testing.assert_allclose(loss.phi(1.0, 1.0), h / 4.0, rtol=1e-12)

    def test_linear_region_matches_hinge(self):
        loss = GlmLoss(SMOOTHED_HINGE, h=0.2)
        np.testing.assert_allclose(loss.phi(-0.5, 1.0), 1.5, rtol=1e-12)
        np.testing.assert_allclose(loss.phi_prime(-0.5, 1.0), -1.0, rtol=1e-12)

    def test_negative_label_mirrors(self):
        loss = GlmLoss(SMOOTHED_HINGE, h=0.4)
        a = np.linspace(-2, 2, 41)
        np.testing.assert_allclose(
            loss.phi(a, -np.ones_like(a)), loss.phi(-a, np.ones_like(a)), rtol=1e-12
        )

    def test_invalid_width_rejected(self):
        for h in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError) as info:
                GlmLoss(SMOOTHED_HINGE, h=h)
            assert str(info.value) == f"smoothing half-width must be > 0 and finite, got {h}"


class TestQuadratic:
    def test_value_and_derivatives(self):
        loss = GlmLoss(QUADRATIC)
        np.testing.assert_allclose(loss.phi(0.3, 0.8), 0.5 * 0.25, rtol=1e-12)
        np.testing.assert_allclose(loss.phi_prime(0.3, 0.8), -0.5, rtol=1e-12)
        assert phi_double_prime(loss, 0.3, 0.8) == 1.0

    def test_vectorized_shapes(self):
        loss = GlmLoss(QUADRATIC)
        a = np.zeros((7,))
        y = np.ones((7,))
        assert loss.phi(a, y).shape == (7,)
        assert phi_double_prime(loss, a, y).shape == (7,)


class TestBounds:
    def test_certified_constants(self):
        b = loss_bounds(GlmLoss(LOGISTIC))
        assert (b.G, b.L, b.gamma1, b.gamma2) == (1.0, 0.25, 1.0, 0.25)
        assert b.hessian_trace_bound == 0.25
        b = loss_bounds(GlmLoss(SMOOTHED_HINGE, h=0.5))
        assert (b.G, b.L, b.gamma2) == (1.0, 1.0, 1.0)
        b = loss_bounds(GlmLoss(SMOOTHED_HINGE, h=0.25))
        assert b.L == 2.0 and b.hessian_trace_bound == 2.0
        b = loss_bounds(GlmLoss(QUADRATIC))
        assert (b.G, b.L, b.gamma1, b.gamma2) == (2.0, 1.0, 2.0, 1.0)

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            LossBounds(G=2.0, L=1.0, gamma1=1.0, gamma2=1.0, hessian_trace_bound=1.0)
        with pytest.raises(InvalidParameterError):
            LossBounds(G=1.0, L=1.0, gamma1=1.0, gamma2=0.5, hessian_trace_bound=1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            GlmLoss("l1-hinge")


@given(
    a=st.floats(min_value=-50, max_value=50),
    y=st.sampled_from([-1.0, 1.0]),
    family_index=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=300, deadline=None)
def test_margin_derivative_within_gamma1(a, y, family_index):
    loss = all_losses()[family_index]
    b = loss_bounds(loss)
    assert abs(float(loss.phi_prime(a, y))) <= b.gamma1 + 1e-12


@given(
    a=st.floats(min_value=-50, max_value=50),
    y=st.sampled_from([-1.0, 1.0, 0.3]),
    family_index=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=300, deadline=None)
def test_curvature_within_gamma2(a, y, family_index):
    loss = all_losses()[family_index]
    b = loss_bounds(loss)
    curv = float(phi_double_prime(loss, a, y))
    assert -1e-12 <= curv <= b.gamma2 + 1e-12


@given(
    a1=st.floats(min_value=-20, max_value=20),
    a2=st.floats(min_value=-20, max_value=20),
    y=st.sampled_from([-1.0, 1.0]),
    family_index=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=300, deadline=None)
def test_margin_derivative_is_gamma2_lipschitz(a1, a2, y, family_index):
    loss = all_losses()[family_index]
    b = loss_bounds(loss)
    lhs = abs(float(loss.phi_prime(a1, y)) - float(loss.phi_prime(a2, y)))
    assert lhs <= b.gamma2 * abs(a1 - a2) + 1e-9


@given(data=st.data(), family_index=st.integers(min_value=0, max_value=2))
@settings(max_examples=200, deadline=None)
def test_gradient_norm_within_g(data, family_index):
    loss = all_losses()[family_index]
    b = loss_bounds(loss)
    d = data.draw(st.integers(min_value=1, max_value=6))
    coords = st.floats(min_value=-1.0, max_value=1.0)
    x = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    norm = np.linalg.norm(x)
    if norm > 1.0:
        x = x / (norm * (1 + 1e-12))
    if loss.family == QUADRATIC:
        # constants certified on the unit range only, so keep |w'x| <= 1
        w = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
        wn = np.linalg.norm(w)
        if wn > 1.0:
            w = w / (wn * (1 + 1e-12))
        y = data.draw(st.floats(min_value=-1.0, max_value=1.0))
    else:
        w = np.array(data.draw(st.lists(st.floats(-40, 40), min_size=d, max_size=d)))
        y = data.draw(st.sampled_from([-1.0, 1.0]))
    g = float(loss.phi_prime(w @ x, y)) * x
    assert np.linalg.norm(g) <= b.G + 1e-9


class TestEmpiricalRisk:
    def test_gradient_direction(self):
        # the gradient the samplers take, φ′(wᵀx, y)·x, points against a positive label
        x = np.array([0.0, 1.0])
        g = float(GlmLoss(LOGISTIC).clipped_phi_prime(float(np.zeros(2) @ x), 1.0)) * x
        np.testing.assert_allclose(g, [0.0, -0.5], rtol=1e-12)

    def test_empirical_risk_is_mean_of_pointwise_losses(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True) * 1.001
        y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        data = Dataset(X, y)
        w = rng.standard_normal(4)
        for loss in all_losses():
            direct = np.mean([float(loss.phi(float(w @ X[i]), y[i])) for i in range(20)])
            np.testing.assert_allclose(empirical_risk(loss, w, data), direct, rtol=1e-12)

    def test_empirical_risk_dimension_check(self):
        data = Dataset(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(InvalidParameterError):
            empirical_risk(GlmLoss(LOGISTIC), np.zeros(3), data)


def test_families_tuple_is_exported():
    assert FAMILIES == (LOGISTIC, SMOOTHED_HINGE, QUADRATIC)
    assert len(set(FAMILIES)) == 3


def test_logistic_phi_matches_math_formula():
    w = np.array([1.0, 1.0])
    expected = math.log1p(math.exp(1.0))
    np.testing.assert_allclose(GlmLoss(LOGISTIC).phi(w @ np.array([0.5, 0.5]), -1.0), expected, rtol=1e-14)
