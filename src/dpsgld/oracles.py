"""Independent oracles the test suite and the harness check everything else against.

The coupled-run stability bound and the excess-risk bounds, kept deliberately
separate from the code they audit: nothing here is imported by the engine or
the accountant, and ``theorem2_excess_bound`` keeps its own copy of the
T = round(n^α·ε²) rule. Only the argument checks come from ``core``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import InvalidParameterError, _require_positive, _require_unit_interval


def stability_bound(t: int, n: int, G: float, etas) -> float:
    """Coupled-run bound on E‖w_t − w_t′‖²: 4G²(t/n² + 1/n)·Σ_{s≤t} η_s²."""
    etas = np.asarray(etas, dtype=np.float64)
    if not 1 <= t <= etas.shape[0]:
        raise InvalidParameterError(f"t={t} outside the schedule of length {etas.shape[0]}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return 4.0 * G * G * (t / n**2 + 1.0 / n) * float(np.sum(etas[:t] ** 2))


def theorem1_excess_bound(
    w_norm: float, n: int, G: float, eta0: float, epsilon: float, delta: float, trace: float
) -> float:
    """Single-pass excess-risk bound: ln(n)(G‖w‖² + 1.5η₀²G)/(η₀√n) + η₀²ln(1/δ)·trace/(ε²n)."""
    _require_positive(n=n, G=G, eta0=eta0, epsilon=epsilon)
    _require_unit_interval(delta=delta)
    if w_norm < 0 or trace < 0:
        raise InvalidParameterError("w_norm and trace must be >= 0")
    opt = math.log(n) * (G * w_norm**2 + 1.5 * eta0**2 * G) / (eta0 * math.sqrt(n))
    priv = eta0**2 * math.log(1.0 / delta) * trace / (epsilon**2 * n)
    return opt + priv


def theorem2_excess_bound(
    w_norm: float,
    n: int,
    pass_exponent: float,
    G: float,
    eta0: float,
    epsilon: float,
    delta: float,
    trace: float,
) -> float:
    """Multi-pass excess-risk shape oracle with the hidden constant set to 1.

    G‖w‖²√(ln(T/δ))/(η₀√n) + η₀G/√(n·ln(1/δ)) + η₀²·trace/(ε²·n^{α−1}),
    T = round(n^α·ε²). Shape only: the stated bound hides an absolute
    constant, so this value is never used in ≤ assertions.
    """
    _require_positive(n=n, G=G, eta0=eta0, epsilon=epsilon)
    _require_unit_interval(delta=delta)
    if not 1 <= pass_exponent <= 2:
        raise InvalidParameterError(f"pass exponent must be in [1,2], got {pass_exponent}")
    if w_norm < 0 or trace < 0:
        raise InvalidParameterError("w_norm and trace must be >= 0")
    T = max(1, round(n**pass_exponent * epsilon**2))
    comp = G * w_norm**2 * math.sqrt(math.log(T / delta)) / (eta0 * math.sqrt(n))
    opt = eta0 * G / math.sqrt(n * math.log(1.0 / delta))
    priv = eta0**2 * trace / (epsilon**2 * n ** (pass_exponent - 1.0))
    return comp + opt + priv
