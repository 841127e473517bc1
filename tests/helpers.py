"""Test-side oracles and a one-step driver for the per-step kernel.

The oracles stay apart from the library code they check: a central-difference
gradient of a loss's φ, its φ″ (the curvature the certified γ₂ bounds), the
Rényi divergence between two isotropic
Gaussians, and the textbook per-step privacy chain (``step_delta_allotment``,
``gaussian_step_epsilon``, ``subsample_amplify``), which checks one step's
scalars and which the account report's closed-form step ε is checked
against. ``advance_one_step`` runs one update of ``engine._advance``, the
kernel that single-pass and coupled runs step through.
"""

import math

import numpy as np

from dpsgld import engine
from dpsgld.core import (
    InfinitePrivacyLossError, InvalidParameterError, _require_count, _require_unit_interval, as_vector,
)
from dpsgld.losses import LOGISTIC, SMOOTHED_HINGE, logistic
from dpsgld.privacy import _ZERO_NOISE, DpBudget, _amplified_epsilon


def finite_diff_gradient(loss, w, x, y, h: float) -> np.ndarray:
    """Central differences of w ↦ φ(wᵀx, y): (φ((w+heᵢ)ᵀx, y) − φ((w−heᵢ)ᵀx, y))/(2h) per coordinate."""
    if not h > 0:
        raise InvalidParameterError(f"step h must be > 0, got {h}")
    w = as_vector(w)
    x = as_vector(x)
    g = np.empty_like(w)
    for i in range(w.shape[0]):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (float(loss.phi(float(wp @ x), y)) - float(loss.phi(float(wm @ x), y))) / (2.0 * h)
    return g


def phi_double_prime(loss, a, y):
    """φ″ of ``loss`` at activation a = wᵀx and label y, for float64 arrays or Python floats."""
    if loss.family == LOGISTIC:
        p = logistic(y * a)
        return p * (1.0 - p)
    if loss.family == SMOOTHED_HINGE:
        m = y * a
        inside = (m < 1.0 + loss.h) & (m > 1.0 - loss.h)
        return np.where(inside, 1.0 / (2.0 * loss.h), 0.0)
    return np.ones(np.broadcast(a, y).shape)


def renyi_gaussian(alpha: float, mu1, mu2, sigma2: float) -> float:
    """Order-α Rényi divergence between N(μ1, σ²I) and N(μ2, σ²I): α‖μ1−μ2‖²/(2σ²)."""
    if not alpha > 1:
        raise InvalidParameterError(f"order must be > 1, got {alpha}")
    if sigma2 < 0:
        raise InvalidParameterError(f"variance must be >= 0, got {sigma2}")
    gap2 = float(np.sum((as_vector(mu1) - as_vector(mu2)) ** 2))
    if sigma2 == 0.0:
        return 0.0 if gap2 == 0.0 else math.inf
    return alpha * gap2 / (2.0 * sigma2)


def gaussian_step_epsilon(eta: float, G: float, sigma: float, delta: float) -> float:
    """ε(δ) of one noisy gradient step, √(8·ln(1.25/δ))·ηG/σ.

    Args:
        eta: effective step size multiplying the released gradient.
        G: gradient-norm bound (the 2ηG sensitivity is absorbed by the √8).
        sigma: noise standard deviation, in the same units as ηG.
        delta: Gaussian-mechanism failure probability.

    Returns:
        The per-step ε; 0 when the step has zero sensitivity.
    """
    if eta < 0 or G < 0:
        raise InvalidParameterError("eta and G must be >= 0")
    _require_unit_interval(delta=delta)
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        if eta * G > 0.0:
            raise InfinitePrivacyLossError(_ZERO_NOISE)
        sigma = math.inf
    return math.sqrt(8.0 * math.log(1.25 / delta)) * eta * G / sigma


def subsample_amplify(step_epsilon: float, m: int, delta: float) -> DpBudget:
    """Amplification by uniform subsampling of one element among m.

    Returns (ln(1 + m⁻¹·e^ε), δ/m), the lemma's form verbatim: the +1 inside
    the log keeps the whole e^ε rather than e^ε − 1.
    """
    if step_epsilon < 0:
        raise InvalidParameterError(f"step epsilon must be >= 0, got {step_epsilon}")
    _require_count("m", m, 1)
    _require_unit_interval(delta=delta)
    return DpBudget(float(_amplified_epsilon(step_epsilon, m)), delta / m)


def step_delta_allotment(t: int, delta: float) -> float:
    """Per-step δ_t = 0.5·δ/(t(t−1)) for t ≥ 2; telescopes to δ/2 in total."""
    if t < 2:
        raise InvalidParameterError(f"allotment starts at t=2, got t={t}")
    return 0.5 * delta / (t * (t - 1))


def advance_one_step(W0, X, y, loss, eta, lambda_eta, beta0, noise_gens) -> np.ndarray:
    """The (g, k, d) iterates after one ``engine._advance`` step from ``W0``.

    Every chain reads the whole mini-batch of rows ``X`` (b, d) and labels
    ``y``; group j draws its noise from ``noise_gens[j]``, shared by its k
    chains. The step's (η, λη, β₀) go through ``engine._steps``, so its
    refusals apply.
    """
    W0 = np.asarray(W0, dtype=np.float64)
    g, k, _ = W0.shape
    b = len(y)
    steps = engine._steps(np.array([eta]), np.array([lambda_eta]), beta0, np.array([b]))
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    data = (np.broadcast_to(X, (g, k, *X.shape)), np.broadcast_to(y, (g, k, b)))
    orders = np.tile(np.arange(b), (g, 1))
    W, _ = engine._advance(W0, data, loss, orders, steps, noise_gens, ())
    return W
