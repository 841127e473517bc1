"""Convex GLM losses ℓ(w, z) = φ(wᵀx, y) with certified constants.

Three families: logistic, smoothed-hinge (quadratically smoothed with
half-width h), and a quadratic family used by tests because its population
risk has a closed form. Each family certifies G (gradient-norm bound),
L (smoothness of ℓ(·, z)), γ₁ = sup|φ′|, γ₂ = sup φ″, and a Hessian-trace
bound; all hold under ‖x‖₂ ≤ 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import Dataset, Example, InvalidParameterError, Vector, as_vector

LOGISTIC = "logistic"
SMOOTHED_HINGE = "smoothed-hinge"
QUADRATIC = "quadratic"
FAMILIES = (LOGISTIC, SMOOTHED_HINGE, QUADRATIC)

# The quadratic family's constants are certified on the stated unit range
# |wᵀx| <= 1, |y| <= 1 (it has no global gradient bound).
_QUAD_A_MAX = 1.0
_QUAD_Y_MAX = 1.0


@dataclass(frozen=True)
class GlmLoss:
    """A loss family; ``h`` is the smoothed-hinge half-width and is ignored elsewhere."""

    family: str
    h: float = 0.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(
                f"unknown loss family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == SMOOTHED_HINGE and not self.h > 0:
            raise InvalidParameterError(f"smoothing half-width must be > 0, got {self.h}")

    # φ, φ′, φ″ as functions of the activation a = wᵀx, for float64 arrays or
    # Python floats a and y (no coercion: φ′ runs once per engine step).

    def phi(self, a, y):
        if self.family == LOGISTIC:
            return np.logaddexp(0.0, -y * a)
        if self.family == SMOOTHED_HINGE:
            m = y * a
            h = self.h
            return np.where(
                m >= 1.0 + h,
                0.0,
                np.where(m <= 1.0 - h, 1.0 - m, (1.0 + h - m) ** 2 / (4.0 * h)),
            )
        return 0.5 * (a - y) ** 2

    def phi_prime(self, a, y):
        if self.family == LOGISTIC:
            return -y * expit(-y * a)
        if self.family == SMOOTHED_HINGE:
            m = y * a
            h = self.h
            slope = np.where(
                m >= 1.0 + h,
                0.0,
                np.where(m <= 1.0 - h, -1.0, -(1.0 + h - m) / (2.0 * h)),
            )
            return y * slope
        return a - y

    def phi_double_prime(self, a, y):
        if self.family == LOGISTIC:
            p = expit(y * a)
            return p * (1.0 - p)
        if self.family == SMOOTHED_HINGE:
            m = y * a
            inside = (m < 1.0 + self.h) & (m > 1.0 - self.h)
            return np.where(inside, 1.0 / (2.0 * self.h), 0.0)
        return np.ones(np.broadcast(a, y).shape)


@dataclass(frozen=True)
class LossBounds:
    """Certified constants for one family under ‖x‖₂ ≤ 1."""

    G: float
    L: float
    gamma1: float
    gamma2: float
    hessian_trace_bound: float

    def __post_init__(self):
        if min(self.G, self.L, self.gamma1, self.gamma2, self.hessian_trace_bound) < 0:
            raise InvalidParameterError("loss bounds must be nonnegative")
        if self.G > self.gamma1 + 1e-12:
            raise InvalidParameterError("G cannot exceed gamma1 when ‖x‖₂ ≤ 1")
        if self.hessian_trace_bound > self.gamma2 + 1e-12:
            raise InvalidParameterError("trace bound cannot exceed gamma2 when ‖x‖₂ ≤ 1")


def loss_bounds(loss: GlmLoss) -> LossBounds:
    """Certified (G, L, γ₁, γ₂, trace) for the family.

    Logistic: sup|φ′| = 1, sup φ″ = sup σ(m)(1−σ(m)) = 1/4.
    Smoothed hinge: |φ′| ≤ 1; curvature 1/(2h) on the quadratic segment.
    Quadratic: certified on the stated unit range, so |φ′| = |a−y| ≤ 2, φ″ = 1.
    """
    if loss.family == LOGISTIC:
        return LossBounds(G=1.0, L=0.25, gamma1=1.0, gamma2=0.25, hessian_trace_bound=0.25)
    if loss.family == SMOOTHED_HINGE:
        c = 1.0 / (2.0 * loss.h)
        return LossBounds(G=1.0, L=c, gamma1=1.0, gamma2=c, hessian_trace_bound=c)
    g = _QUAD_A_MAX + _QUAD_Y_MAX
    return LossBounds(G=g, L=1.0, gamma1=g, gamma2=1.0, hessian_trace_bound=1.0)


def _check_dim(w: Vector, z: Example) -> None:
    if w.shape[0] != z.x.shape[0]:
        raise InvalidParameterError(
            f"dimension mismatch: w has {w.shape[0]} coordinates, x has {z.x.shape[0]}"
        )


def loss_value(loss: GlmLoss, w, z: Example) -> float:
    """φ(wᵀx, y) for one example."""
    w = as_vector(w)
    _check_dim(w, z)
    return float(loss.phi(float(w @ z.x), z.y))


def loss_gradient(loss: GlmLoss, w, z: Example) -> Vector:
    """∇_w ℓ(w, z) = φ′(wᵀx, y)·x."""
    w = as_vector(w)
    _check_dim(w, z)
    return float(loss.phi_prime(float(w @ z.x), z.y)) * z.x


def empirical_risk(loss: GlmLoss, w, dataset: Dataset) -> float:
    """Mean loss over the sample, (1/n) Σᵢ φ(wᵀxᵢ, yᵢ)."""
    w = as_vector(w)
    if w.shape[0] != dataset.d:
        raise InvalidParameterError(
            f"dimension mismatch: w has {w.shape[0]} coordinates, data has {dataset.d}"
        )
    return float(np.mean(loss.phi(dataset.X @ w, dataset.y)))
