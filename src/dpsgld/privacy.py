"""Privacy accountant: per-step Gaussian mechanism, subsampling amplification,
strong composition, the multi-pass closed form, the last-iterate RDP bound,
and RDP→DP conversion.

Pure functions of schedule parameters and loss bounds; the accountant never
sees data. All logarithms are natural. The amplification step keeps the
nonstandard ln(1 + m⁻¹·e^ε) form (not ln(1 + m⁻¹(e^ε − 1))); the account
report says so next to the numbers.

The certificates take the schedule that runs: ``certify_theorem1`` a
single-pass one, ``certify_theorem2`` a multi-pass one. The per-step
functions (``step_delta_allotment``, ``gaussian_step_epsilon``,
``subsample_amplify``) take the scalars of one step; each checks its
arguments and then calls a private core that holds its formula. The account
report enumerates the multi-pass steps through those cores on arrays of
steps, so a long schedule is validated once rather than once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InfinitePrivacyLossError,
    InvalidParameterError,
    _fmt,
    _require_count,
    _require_unit_interval,
)
from .schedules import MultiPassSchedule, SinglePassSchedule

# Per-step enumeration in the account report is vectorized over chunks of
# _REPORT_CHUNK steps; past _REPORT_STEP_CAP steps only the closed form is
# printed.
_REPORT_STEP_CAP = 10**7
_REPORT_CHUNK = 1 << 16

_ZERO_NOISE = "zero noise with nonzero sensitivity"


@dataclass(frozen=True)
class DpBudget:
    """(ε, δ) guarantee."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvalidParameterError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise InvalidParameterError(f"delta must be in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class RdpBudget:
    """(α, ε) Rényi guarantee at order α > 1."""

    alpha: float
    epsilon: float

    def __post_init__(self):
        if not self.alpha > 1:
            raise InvalidParameterError(f"Renyi order must be > 1, got {self.alpha}")
        if self.epsilon < 0:
            raise InvalidParameterError(f"epsilon must be >= 0, got {self.epsilon}")


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
    return float(_gaussian_epsilon(eta, G, sigma, delta))


def _gaussian_epsilon(eta, G, sigma, delta):
    """gaussian_step_epsilon's formula without its checks."""
    return np.sqrt(8.0 * np.log(1.25 / delta)) * eta * G / sigma


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


def _amplified_epsilon(step_epsilon, m: int):
    """subsample_amplify's ε without its checks."""
    return np.log1p(np.exp(step_epsilon) / m)


def step_delta_allotment(t: int, delta: float) -> float:
    """Per-step δ_t = 0.5·δ/(t(t−1)) for t ≥ 2; telescopes to δ/2 in total."""
    if t < 2:
        raise InvalidParameterError(f"allotment starts at t=2, got t={t}")
    return _delta_allotment(t, delta)


def _delta_allotment(t, delta: float):
    """step_delta_allotment's δ_t without its check."""
    return 0.5 * delta / (t * (t - 1))


def strong_compose(per_step, delta_prime: float) -> DpBudget:
    """Strong composition of adaptively chosen (ε_t, δ_t) mechanisms.

    Args:
        per_step: sequence of (epsilon_t, delta_t) pairs (any array-like).
        delta_prime: the composition's own slack δ′.

    Returns:
        (√(2·ln(2/δ′)·Σε_t²) + Σ ε_t(e^{ε_t}−1), δ′ + Σδ_t).
    """
    pairs = np.asarray(per_step, dtype=np.float64).reshape(-1, 2)
    eps = pairs[:, 0]
    if np.any(eps < 0):
        raise InvalidParameterError("per-step epsilons must be >= 0")
    return _composed(
        float(np.sum(eps * eps)), float(np.sum(eps * np.expm1(eps))), float(np.sum(pairs[:, 1])),
        delta_prime,
    )


def _composed(sum_sq: float, sum_excess: float, sum_delta: float, delta_prime: float) -> DpBudget:
    """Strong composition from Σε_t², Σε_t(e^{ε_t}−1) and Σδ_t."""
    _require_unit_interval(**{"delta'": delta_prime})
    delta_total = delta_prime + sum_delta
    if delta_total >= 1.0:
        raise InvalidParameterError(f"composed delta budget {delta_total:.6g} >= 1")
    first = math.sqrt(2.0 * math.log(2.0 / delta_prime) * sum_sq)
    return DpBudget(first + sum_excess, delta_total)


def multi_pass_privacy(n: int, T: int, delta: float) -> DpBudget:
    """Closed-form multi-pass guarantee (√(2T·ln(2/δ))·e/n + T·e²/n², δ).

    T = 0 yields ε = 0.
    """
    _require_count("n", n, 1)
    _require_count("T", T, 0)
    _require_unit_interval(delta=delta)
    eps = math.sqrt(2.0 * T * math.log(2.0 / delta)) * math.e / n + T * math.e**2 / n**2
    return DpBudget(eps, delta)


def feldman_rdp_bound(alpha: float, G: float, etas, sigmas, batch_sizes) -> RdpBudget:
    """Last-iterate RDP bound for noisy mini-batch SGD.

    Args:
        alpha: Rényi order (> 1).
        G: gradient-norm bound.
        etas: per-step step sizes η_t.
        sigmas: per-step noise scales σ_t, in gradient units (the injected
            noise has variance η_t²σ_t² in iterate units).
        batch_sizes: per-step mini-batch sizes |M_t|.

    Returns:
        (α, max_τ 2αG²η_τ² / (|M_τ|²·Σ_{t=τ}^{T} η_t²σ_t²)).
    """
    etas = np.asarray(etas, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    batches = np.asarray(batch_sizes, dtype=np.float64)
    if etas.size == 0:
        raise InvalidParameterError("schedule lists must be nonempty")
    if not etas.shape == sigmas.shape == batches.shape:
        raise InvalidParameterError("schedule lists must have equal length")
    if np.any(sigmas <= 0):
        raise InvalidParameterError("sigmas must be > 0")
    if np.any(batches < 1):
        raise InvalidParameterError("batch sizes must be >= 1")
    if not alpha > 1 or G < 0:
        raise InvalidParameterError("need alpha > 1 and G >= 0")
    # suffix sums of the injected variance, Σ_{t=τ}^T η_t²σ_t²
    tail = np.cumsum((etas**2 * sigmas**2)[::-1])[::-1]
    per_tau = 2.0 * alpha * G * G * etas**2 / (batches**2 * tail)
    return RdpBudget(alpha, float(np.max(per_tau)))


def single_pass_rdp(alpha: float, eta: float, G: float, beta0: float) -> RdpBudget:
    """Last-iterate RDP of the single-pass schedule: ε = 2αη²G²/β₀."""
    if not alpha > 1:
        raise InvalidParameterError(f"Renyi order must be > 1, got {alpha}")
    if eta < 0 or G < 0:
        raise InvalidParameterError("eta and G must be >= 0")
    if beta0 <= 0:
        raise InfinitePrivacyLossError("beta0 = 0 gives unbounded privacy loss")
    return RdpBudget(alpha, 2.0 * alpha * eta * eta * G * G / beta0)


def rdp_to_dp(rdp: RdpBudget, delta: float) -> DpBudget:
    """Convert (α, ε)-RDP to (ε + ln(1/δ)/(α−1), δ)-DP."""
    if not rdp.alpha > 1:
        raise InvalidParameterError(f"Renyi order must be > 1, got {rdp.alpha}")
    _require_unit_interval(delta=delta)
    return DpBudget(rdp.epsilon + math.log(1.0 / delta) / (rdp.alpha - 1.0), delta)


def certify_theorem1(schedule: SinglePassSchedule) -> DpBudget:
    """DP budget of a single-pass schedule via its RDP bound and conversion.

    With β₀ and the Rényi order calibrated as the schedule does, the RDP ε
    equals the target ε and the conversion adds exactly ε again, so the
    result is (2ε, δ) up to rounding.
    """
    rdp = single_pass_rdp(schedule.renyi_order, schedule.eta, schedule.G, schedule.beta0)
    return rdp_to_dp(rdp, schedule.delta)


def certify_theorem2(schedule: MultiPassSchedule) -> tuple[DpBudget, DpBudget]:
    """Exact closed-form multi-pass budget next to the claimed one.

    Returns (exact, claimed) where exact is multi_pass_privacy at the
    schedule's T = round(n^α·ε²) and claimed is (3ε√(ln(2/δ)) + 3ε², δ).
    Their ratio depends on δ (it grows as δ does) and is reported by the
    account CLI.
    """
    exact = multi_pass_privacy(schedule.n, schedule.T, schedule.delta)
    return exact, _claimed_budget(schedule.epsilon, schedule.delta)


def _claimed_budget(epsilon: float, delta: float) -> DpBudget:
    return DpBudget(3.0 * epsilon * math.sqrt(math.log(2.0 / delta)) + 3.0 * epsilon**2, delta)


def _enumerated_multi_pass(schedule: MultiPassSchedule) -> tuple:
    """(max step ε, max amplified ε, strong composition) over steps 2..T.

    Steps are enumerated _REPORT_CHUNK at a time, keeping only the running
    maxima and the sums the composition needs. The chunks call the unchecked
    formulas: the schedule has checked n, G, β₀ and δ (so every δ_t lies in
    (0, 1)), and the one value a chunk could still get wrong, a zero σ_t from
    two equal step sizes, makes its ε infinite, which is checked once at the end.
    """
    n, T, delta = schedule.n, schedule.T, schedule.delta
    etas = schedule.etas
    step_max = amplified_max = sum_sq = sum_excess = sum_delta = 0.0
    for lo in range(2, T + 1, _REPORT_CHUNK):
        t = np.arange(lo, min(lo + _REPORT_CHUNK, T + 1), dtype=np.float64)
        # step t releases (η_t/η_{t−1})·(w − η_t·ḡ) + N(0, (1−(η_t/η_{t−1})²)β₀)
        eta_t = etas[lo - 1 : lo - 1 + len(t)]
        ratio = eta_t / etas[lo - 2 : lo - 2 + len(t)]
        eta_eff = eta_t * ratio
        sigma_eff = np.sqrt((1.0 - ratio**2) * schedule.beta0)
        # amplification divides δ by n, so the Gaussian step gets n·δ_t
        delta_gauss = _delta_allotment(t, n * delta)
        step_eps = _gaussian_epsilon(eta_eff, schedule.G, sigma_eff, delta_gauss)
        amplified = _amplified_epsilon(step_eps, n)
        step_max = max(step_max, float(np.max(step_eps)))
        amplified_max = max(amplified_max, float(np.max(amplified)))
        sum_sq += float(np.sum(amplified * amplified))
        sum_excess += float(np.sum(amplified * np.expm1(amplified)))
        sum_delta += float(np.sum(delta_gauss / n))
    if not math.isfinite(step_max):
        raise InfinitePrivacyLossError(_ZERO_NOISE)
    return step_max, amplified_max, _composed(sum_sq, sum_excess, sum_delta, delta / 2.0)


def account_report(schedule) -> str:
    """Full accounting block for a schedule, one ``key = value`` line each.

    Single-pass schedules report the RDP route (order, RDP ε, converted ε)
    and the 2ε theorem value. Multi-pass schedules enumerate the per-step
    pipeline (Gaussian step ε at the per-step δ allotment, amplified by
    uniform subsampling over n, strongly composed with δ′ = δ/2) next to the
    closed form and the claimed theorem value.
    """
    if not isinstance(schedule, (SinglePassSchedule, MultiPassSchedule)):
        raise InvalidParameterError(f"unknown schedule type {type(schedule).__name__}")
    lines = [
        f"mode = {schedule.mode}",
        f"T = {schedule.T}",
        f"G = {_fmt(schedule.G)}",
        f"eta0 = {_fmt(schedule.eta0)}",
        f"beta0 = {_fmt(schedule.beta0)}",
        f"epsilon_target = {_fmt(schedule.epsilon)}",
        f"delta = {_fmt(schedule.delta)}",
        f"sample_budget = {schedule.sample_budget}",
    ]
    if isinstance(schedule, SinglePassSchedule):
        rdp = single_pass_rdp(schedule.renyi_order, schedule.eta, schedule.G, schedule.beta0)
        dp = rdp_to_dp(rdp, schedule.delta)
        lines += [
            f"eta = {_fmt(schedule.eta)}",
            f"renyi_order = {_fmt(schedule.renyi_order)}",
            f"rdp_epsilon = {_fmt(rdp.epsilon)}",
            f"dp_epsilon = {_fmt(dp.epsilon)}",
            f"dp_delta = {_fmt(dp.delta)}",
            f"theorem_epsilon = {_fmt(2.0 * schedule.epsilon)}",
            f"theorem_delta = {_fmt(schedule.delta)}",
        ]
        return "\n".join(lines) + "\n"

    T, delta = schedule.T, schedule.delta
    closed, claimed = certify_theorem2(schedule)
    if T >= 1:
        lines += [
            f"eta1 = {_fmt(schedule.eta(1))}",
            f"etaT = {_fmt(schedule.eta(T))}",
        ]
    if T <= _REPORT_STEP_CAP:
        if T >= 2:
            step_max, amplified_max, composed = _enumerated_multi_pass(schedule)
            lines += [
                f"step_epsilon_max = {_fmt(step_max)}",
                f"amplified_epsilon_max = {_fmt(amplified_max)}",
                f"composed_epsilon = {_fmt(composed.epsilon)}",
                f"composed_delta = {_fmt(composed.delta)}",
            ]
        else:
            # no step, or a single one that is the data-independent initial draw
            lines += [
                "step_epsilon_max = 0",
                "amplified_epsilon_max = 0",
                "composed_epsilon = 0",
                f"composed_delta = {_fmt(delta)}",
            ]
    else:
        lines.append(f"note = per-step enumeration skipped for T > {_REPORT_STEP_CAP}")
    lines += [
        f"closed_form_epsilon = {_fmt(closed.epsilon)}",
        f"claimed_epsilon = {_fmt(claimed.epsilon)}",
    ]
    if claimed.epsilon > 0:
        lines.append(f"closed_to_claimed_ratio = {_fmt(closed.epsilon / claimed.epsilon)}")
    lines.append(
        "note = amplification uses ln(1 + exp(eps)/m) with the whole exp(eps) kept inside the log"
    )
    return "\n".join(lines) + "\n"
