"""Per-step parameter sequences for both run modes, read as the arrays
``etas`` (η_t), ``lambda_etas`` (λ_tη_t), ``sigmas`` (σ_t) and ``batch_sizes``
(|M_t|), beside β₀.

A schedule is built from its inputs alone, and each rule on them is checked
once, in the class. The values the certificates are calibrated on (η, β₀
and the Rényi order in single pass, T and β₀ in multi pass) are computed
from the inputs and cannot be passed in, so no schedule holds a derived
value that disagrees with its inputs, and ``dataclasses.replace`` rebuilds
them. ``single_pass_schedule`` and ``multi_pass_schedule`` name the classes.

Single pass: constant η, λ_t = 1/(tη), growing mini-batches, an explicit
Rényi order, and a sample budget Σ_t |M_t| ≈ √2·T that the runner requires
the dataset to cover (the budget is reported, never silently rescaled).

Multi pass: T = round(n^α·ε²) unit batches sampled with replacement,
β₀ = η₀²·n/T, strictly decreasing η_t, and λ_t = 1/η_t − 1/η_{t−1}.

Both schedules pin λ₁η₁ = 1 exactly, which makes the first update's output
N(0, β₀I) regardless of the data; the initial draw is step one.

Every step is noisy. A step's account rests on its Gaussian noise
σ_t = √(λ_tη_t(2 − λ_tη_t)β₀) and is infinite where σ_t = 0, which happens
when σ_t² underflows (β₀ tiny). σ_t falls with t in both modes, so σ_T = 0
iff some σ_t = 0, and each class checks σ_T alone, from λ_Tη_T in closed
form (1/T in single pass, 1 − η_T/η_(T−1) in multi pass): a schedule with
σ_t = 0 at any step cannot be built, at any T, without a T-long array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    InfinitePrivacyLossError, InvalidParameterError, _require_count, _require_positive, _require_unit_interval,
)

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


def _set(schedule, **values) -> None:
    """Write fields of a frozen schedule; only its ``__post_init__`` calls this."""
    for name, value in values.items():
        object.__setattr__(schedule, name, value)


def _require_noise(schedule, last_lambda_eta: float) -> None:
    """Refuse a schedule with σ_t = 0 at some step, given λ_Tη_T: the module docstring says why."""
    if not _noise_scales(last_lambda_eta, schedule.beta0):
        raise InfinitePrivacyLossError(
            f"zero noise with nonzero sensitivity: sigma_t = 0 at step T = {schedule.T} "
            f"(beta0 = {schedule.beta0:.6g}), an unbounded privacy loss"
        )


def _sigmas(schedule) -> np.ndarray:
    """σ_t = √(λ_tη_t(2 − λ_tη_t)β₀) for t = 1..T, formed on each read and not held."""
    return _noise_scales(schedule.lambda_etas, schedule.beta0)


@dataclass(frozen=True)
class SinglePassSchedule:
    """η = η₀√(1/(4G²T)), β₀ = (ε + ln(1/δ))η₀²/(2ε²T), α = 1 + ln(1/δ)/ε."""

    T: int
    G: float
    eta0: float
    epsilon: float
    delta: float
    eta: float = field(init=False)
    beta0: float = field(init=False)
    renyi_order: float = field(init=False)

    mode = SINGLE_PASS

    def __post_init__(self):
        _require_count("T", self.T, 1)
        _require_positive(G=self.G, eta0=self.eta0, epsilon=self.epsilon)
        _require_unit_interval(delta=self.delta)
        T, G, eta0, epsilon, delta = (
            int(self.T), float(self.G), float(self.eta0), float(self.epsilon), float(self.delta)
        )
        eta = eta0 * math.sqrt(1.0 / (4.0 * G * G * T))
        denominator = 2.0 * epsilon**2 * T
        # ε² underflows to 0 below about 1e-162; β₀ is then infinite, which is refused
        beta0 = (epsilon + math.log(1.0 / delta)) * eta0**2 / denominator if denominator else math.inf
        renyi_order = 1.0 + math.log(1.0 / delta) / epsilon
        _require_positive(eta=eta, beta0=beta0)
        if not renyi_order > 1:
            raise InvalidParameterError(f"Renyi order must be > 1, got {renyi_order}")
        _set(self, T=T, G=G, eta0=eta0, epsilon=epsilon, delta=delta,
             eta=eta, beta0=beta0, renyi_order=renyi_order)
        _require_noise(self, 1.0 / T)

    @cached_property
    def etas(self) -> np.ndarray:
        """The constant step size η for t = 1..T (read-only array)."""
        return np.broadcast_to(self.eta, (self.T,))

    @cached_property
    def lambda_etas(self) -> np.ndarray:
        """λ_t·η = 1/t for t = 1..T (read-only array)."""
        return _read_only(1.0 / np.arange(1, self.T + 1, dtype=np.float64))

    sigmas = property(_sigmas)

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


@dataclass(frozen=True)
class MultiPassSchedule:
    """T = round(n^α·ε²), β₀ = η₀²·n/T, decreasing η_t."""

    n: int
    pass_exponent: float
    epsilon: float
    delta: float
    eta0: float
    G: float
    T: int = field(init=False)
    beta0: float = field(init=False)

    mode = MULTI_PASS

    def __post_init__(self):
        _require_count("n", self.n, 2)
        if not 1.0 <= self.pass_exponent <= 2.0:
            raise InvalidParameterError(f"pass exponent must be in [1, 2], got {self.pass_exponent}")
        _require_positive(epsilon=self.epsilon, eta0=self.eta0, G=self.G)
        _require_unit_interval(delta=self.delta)
        n, pass_exponent, epsilon, delta, eta0, G = (
            int(self.n), float(self.pass_exponent), float(self.epsilon),
            float(self.delta), float(self.eta0), float(self.G),
        )
        T = round(float(n) ** pass_exponent * epsilon * epsilon)
        if T < 1:
            raise InvalidParameterError(
                f"T = round(n^α·ε²) = {T} < 1: epsilon too small for n={n}, α={pass_exponent}"
            )
        beta0 = eta0 * eta0 * (n / T)
        _require_positive(beta0=beta0)
        if not 2.5 / (n * delta) > 1.0:
            raise InvalidParameterError(
                f"need 2.5/(n·δ) > 1 for a real step size at t=1, got n·δ = {n * delta:.6g}"
            )
        _set(self, n=n, pass_exponent=pass_exponent, epsilon=epsilon, delta=delta,
             eta0=eta0, G=G, T=T, beta0=beta0)
        if T == 1:
            _require_noise(self, 1.0)
        else:
            eta_before, eta_last = _multi_pass_etas(self, T - 1, T)
            _require_noise(self, 1.0 - eta_last / eta_before)

    @cached_property
    def etas(self) -> np.ndarray:
        """η_t for t = 1..T (read-only array); ``_multi_pass_etas`` gives the formula."""
        return _read_only(_multi_pass_etas(self, 1, self.T))

    @cached_property
    def lambda_etas(self) -> np.ndarray:
        """λ_t·η_t: exactly 1 at t = 1, then 1 − η_t/η_{t−1} ∈ (0, 1)."""
        e = self.etas
        return _read_only(np.concatenate(([1.0], 1.0 - e[1:] / e[:-1])))

    sigmas = property(_sigmas)

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


# The one constructor of each mode, under the names callers use.
single_pass_schedule = SinglePassSchedule
multi_pass_schedule = MultiPassSchedule


def _noise_scales(lambda_etas, beta0: float):
    """σ_t = √(λ_tη_t(2 − λ_tη_t)β₀), for one λ_tη_t or an array of them."""
    return np.sqrt(lambda_etas * (2.0 - lambda_etas) * beta0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
