"""Per-step parameter sequences (η_t, λ_t, β₀, |M_t|) for both run modes.

Single pass: constant η, λ_t = 1/(tη), growing mini-batches, an explicit
Rényi order, and a sample budget Σ_t |M_t| ≈ √2·T that the runner requires
the dataset to cover (the budget is reported, never silently rescaled).

Multi pass: T = round(n^α·ε²) unit batches sampled with replacement,
β₀ = η₀²·n/T, strictly decreasing η_t, and λ_t = 1/η_t − 1/η_{t−1}.

Both schedules pin λ₁η₁ = 1 exactly, which makes the first update's output
N(0, β₀I) regardless of the data; the initial draw is step one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import InvalidParameterError, _require_count, _require_positive, _require_unit_interval

SINGLE_PASS = "single-pass"
MULTI_PASS = "multi-pass"


def minibatch_size(T: int, t: int) -> int:
    """⌈√(T/(2(T−t+1)))⌉, computed in exact integer arithmetic."""
    if not 1 <= t <= T:
        raise InvalidParameterError(f"step t={t} outside 1..{T}")
    k = T - t + 1
    # smallest m with m²·2k >= T
    m = math.isqrt(T // (2 * k))
    while m * m * 2 * k < T:
        m += 1
    return max(m, 1)


@dataclass(frozen=True)
class SinglePassSchedule:
    T: int
    G: float
    eta0: float
    epsilon: float
    delta: float
    eta: float
    beta0: float
    renyi_order: float

    mode = SINGLE_PASS

    def __post_init__(self):
        _require_count("T", self.T, 1)
        _require_positive(G=self.G, eta0=self.eta0, epsilon=self.epsilon, eta=self.eta, beta0=self.beta0)
        _require_unit_interval(delta=self.delta)
        if not self.renyi_order > 1:
            raise InvalidParameterError(f"Renyi order must be > 1, got {self.renyi_order}")

    def lambda_(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise InvalidParameterError(f"step t={t} outside 1..{self.T}")
        return 1.0 / (t * self.eta)

    def lambda_eta(self, t: int) -> float:
        # λ_t·η = 1/t exactly; kept separate from lambda_() so noise variances
        # never pick up the 1/η roundtrip error.
        if not 1 <= t <= self.T:
            raise InvalidParameterError(f"step t={t} outside 1..{self.T}")
        return 1.0 / t

    def batch_size(self, t: int) -> int:
        return minibatch_size(self.T, t)

    @cached_property
    def etas(self) -> np.ndarray:
        """The constant step size η for t = 1..T (read-only array)."""
        return np.broadcast_to(self.eta, (self.T,))

    @cached_property
    def lambda_etas(self) -> np.ndarray:
        """λ_t·η = 1/t for t = 1..T (read-only array)."""
        return _read_only(1.0 / np.arange(1, self.T + 1, dtype=np.float64))

    @cached_property
    def batch_sizes(self) -> np.ndarray:
        """minibatch_size(T, t) for t = 1..T (read-only int64 array)."""
        # size m serves the k = T − t + 1 with ⌈T/2m²⌉ <= k < ⌈T/2(m−1)²⌉, so
        # in t order the sizes are runs of 1, 2, ..., minibatch_size(T, T)
        m = np.arange(1, minibatch_size(self.T, self.T) + 1, dtype=np.int64)
        k_min = -(-self.T // (2 * m * m))
        return _read_only(np.repeat(m, -np.diff(k_min, prepend=self.T + 1)))

    @cached_property
    def sample_budget(self) -> int:
        return int(self.batch_sizes.sum())


def single_pass_schedule(
    T: int, G: float, eta0: float, epsilon: float, delta: float
) -> SinglePassSchedule:
    """Schedule with η = η₀√(1/(4G²T)), β₀ = (ε + ln(1/δ))η₀²/(2ε²T), α = 1 + ln(1/δ)/ε."""
    _require_count("T", T, 1)
    _require_positive(G=G, eta0=eta0, epsilon=epsilon)
    _require_unit_interval(delta=delta)
    eta = eta0 * math.sqrt(1.0 / (4.0 * G * G * T))
    beta0 = (epsilon + math.log(1.0 / delta)) * eta0**2 / (2.0 * epsilon**2 * T)
    renyi_order = 1.0 + math.log(1.0 / delta) / epsilon
    return SinglePassSchedule(
        T=int(T),
        G=float(G),
        eta0=float(eta0),
        epsilon=float(epsilon),
        delta=float(delta),
        eta=eta,
        beta0=beta0,
        renyi_order=renyi_order,
    )


@dataclass(frozen=True)
class MultiPassSchedule:
    n: int
    pass_exponent: float
    epsilon: float
    delta: float
    eta0: float
    G: float
    T: int
    beta0: float

    mode = MULTI_PASS

    def __post_init__(self):
        _require_positive(n=self.n, G=self.G, beta0=self.beta0)
        _require_unit_interval(delta=self.delta)
        if not self.T >= 0:
            raise InvalidParameterError(f"T must be >= 0, got {self.T}")
        if not 2.5 / (self.n * self.delta) > 1.0:
            raise InvalidParameterError(
                f"need 2.5/(n·δ) > 1 for a real step size at t=1, got n·δ = {self.n * self.delta:.6g}"
            )

    @cached_property
    def etas(self) -> np.ndarray:
        """η_t = G⁻¹√β₀ / √(8·ln(2.5t²/(nδ))·t) for t = 1..T (read-only array)."""
        # in place over one work array beside t (T ≈ 10⁷ makes each array 80 MB),
        # in the operation order of √β₀ / (G·√(8·ln(2.5·t·t/(nδ))·t))
        t = np.arange(1, self.T + 1, dtype=np.float64)
        a = 2.5 * t
        a *= t
        a /= self.n * self.delta
        np.log(a, out=a)
        a *= 8.0
        a *= t
        np.sqrt(a, out=a)
        a *= self.G
        np.divide(math.sqrt(self.beta0), a, out=a)
        return _read_only(a)

    @cached_property
    def lambda_etas(self) -> np.ndarray:
        """λ_t·η_t: exactly 1 at t = 1, then 1 − η_t/η_{t−1} ∈ (0, 1)."""
        e = self.etas
        return _read_only(np.concatenate(([1.0], 1.0 - e[1:] / e[:-1])))

    @cached_property
    def batch_sizes(self) -> np.ndarray:
        """Unit batches for t = 1..T (read-only int64 array)."""
        return np.broadcast_to(np.int64(1), (self.T,))

    def eta(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise InvalidParameterError(f"step t={t} outside 1..{self.T}")
        return float(self.etas[t - 1])

    def lambda_(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise InvalidParameterError(f"step t={t} outside 1..{self.T}")
        if t == 1:
            return 1.0 / float(self.etas[0])
        return 1.0 / float(self.etas[t - 1]) - 1.0 / float(self.etas[t - 2])

    def lambda_eta(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise InvalidParameterError(f"step t={t} outside 1..{self.T}")
        return float(self.lambda_etas[t - 1])

    def batch_size(self, t: int) -> int:
        if not 1 <= t <= self.T:
            raise InvalidParameterError(f"step t={t} outside 1..{self.T}")
        return 1

    @property
    def sample_budget(self) -> int:
        # one draw with replacement per step
        return self.T


def multi_pass_schedule(
    n: int, pass_exponent: float, epsilon: float, delta: float, eta0: float, G: float
) -> MultiPassSchedule:
    """Schedule with T = round(n^α·ε²), β₀ = η₀²·n/T, decreasing η_t."""
    _require_count("n", n, 2)
    if not 1.0 <= pass_exponent <= 2.0:
        raise InvalidParameterError(f"pass exponent must be in [1, 2], got {pass_exponent}")
    _require_positive(epsilon=epsilon, eta0=eta0, G=G)
    _require_unit_interval(delta=delta)
    T = round(float(n) ** pass_exponent * epsilon * epsilon)
    if T < 1:
        raise InvalidParameterError(
            f"T = round(n^α·ε²) = {T} < 1: epsilon too small for n={n}, α={pass_exponent}"
        )
    beta0 = eta0 * eta0 * (n / T)
    return MultiPassSchedule(
        n=int(n),
        pass_exponent=float(pass_exponent),
        epsilon=float(epsilon),
        delta=float(delta),
        eta0=float(eta0),
        G=float(G),
        T=int(T),
        beta0=beta0,
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
