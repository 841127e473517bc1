"""Per-step parameter sequences for both run modes, read as the arrays
``etas`` (η_t), ``lambda_etas`` (λ_tη_t) and ``batch_sizes`` (|M_t|), beside β₀.

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
        return _read_only(np.repeat(*_batch_runs(self.T)))

    @cached_property
    def sample_budget(self) -> int:
        sizes, counts = _batch_runs(self.T)
        return int(sizes @ counts)


def _batch_runs(T: int) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, counts): the batch sizes of t = 1..T are counts[i] steps of sizes[i] in turn."""
    # size m serves the k = T − t + 1 with ⌈T/2m²⌉ <= k < ⌈T/2(m−1)²⌉, so
    # in t order the sizes are runs of 1, 2, ..., minibatch_size(T, T)
    sizes = np.arange(1, minibatch_size(T, T) + 1, dtype=np.int64)
    k_min = -(-T // (2 * sizes * sizes))
    return sizes, -np.diff(k_min, prepend=T + 1)


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
        _require_count("T", self.T, 1)
        if not 2.5 / (self.n * self.delta) > 1.0:
            raise InvalidParameterError(
                f"need 2.5/(n·δ) > 1 for a real step size at t=1, got n·δ = {self.n * self.delta:.6g}"
            )

    @cached_property
    def etas(self) -> np.ndarray:
        """η_t for t = 1..T (read-only array); ``_multi_pass_etas`` gives the formula."""
        return _read_only(_multi_pass_etas(self, 1, self.T))

    @cached_property
    def lambda_etas(self) -> np.ndarray:
        """λ_t·η_t: exactly 1 at t = 1, then 1 − η_t/η_{t−1} ∈ (0, 1)."""
        e = self.etas
        return _read_only(np.concatenate(([1.0], 1.0 - e[1:] / e[:-1])))

    @cached_property
    def batch_sizes(self) -> np.ndarray:
        """Unit batches for t = 1..T (read-only int64 array)."""
        return np.broadcast_to(np.int64(1), (self.T,))

    @property
    def sample_budget(self) -> int:
        # one draw with replacement per step
        return self.T


def _multi_pass_etas(schedule: MultiPassSchedule, first: int, last: int) -> np.ndarray:
    """η_t = G⁻¹√β₀ / √(8·ln(2.5t²/(nδ))·t) for t = first..last.

    Each η_t is computed from its own t in one fixed operation order, so any
    range of steps gives the same bits as the whole schedule's ``etas``.
    """
    t = np.arange(first, last + 1, dtype=np.float64)
    scale = np.sqrt(8.0 * np.log(2.5 * t * t / (schedule.n * schedule.delta)) * t) * schedule.G
    return math.sqrt(schedule.beta0) / scale


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


def _noise_scales(lambda_etas, beta0: float):
    """σ_t = √(λ_tη_t(2 − λ_tη_t)β₀), for one λ_tη_t or an array of them."""
    return np.sqrt(lambda_etas * (2.0 - lambda_etas) * beta0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
