"""Privacy accountant: per-step Gaussian mechanism, subsampling amplification,
strong composition, the multi-pass closed form, the last-iterate RDP bound,
and RDP→DP conversion.

Pure functions of schedule parameters and loss bounds; the accountant never
sees data. All logarithms are natural. The amplification step keeps the
nonstandard ln(1 + m⁻¹·e^ε) form (not ln(1 + m⁻¹(e^ε − 1))); the account
report says so next to the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InfinitePrivacyLossError, InvalidParameterError
from .schedules import MultiPassSchedule, SinglePassSchedule, _pass_steps

# Per-step enumeration in the account report is vectorized; past this many
# steps only the closed form is printed.
_REPORT_STEP_CAP = 10**7


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
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        if eta * G > 0.0:
            raise InfinitePrivacyLossError("zero noise with nonzero sensitivity")
        return 0.0
    return math.sqrt(8.0 * math.log(1.25 / delta)) * eta * G / sigma


def subsample_amplify(step_epsilon: float, m: int, delta: float) -> DpBudget:
    """Amplification by uniform subsampling of one element among m.

    Returns (ln(1 + m⁻¹·e^ε), δ/m), the lemma's form verbatim: the +1 inside
    the log keeps the whole e^ε rather than e^ε − 1.
    """
    if step_epsilon < 0:
        raise InvalidParameterError(f"step epsilon must be >= 0, got {step_epsilon}")
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise InvalidParameterError(f"m must be an integer >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return DpBudget(math.log1p(math.exp(step_epsilon) / m), delta / m)


def step_delta_allotment(t: int, delta: float) -> float:
    """Per-step δ_t = 0.5·δ/(t(t−1)) for t ≥ 2; telescopes to δ/2 in total."""
    if t < 2:
        raise InvalidParameterError(f"allotment starts at t=2, got t={t}")
    return 0.5 * delta / (t * (t - 1))


def strong_compose(per_step, delta_prime: float) -> DpBudget:
    """Strong composition of adaptively chosen (ε_t, δ_t) mechanisms.

    Args:
        per_step: sequence of (epsilon_t, delta_t) pairs (any array-like).
        delta_prime: the composition's own slack δ′.

    Returns:
        (√(2·ln(2/δ′)·Σε_t²) + Σ ε_t(e^{ε_t}−1), δ′ + Σδ_t).
    """
    if not 0.0 < delta_prime < 1.0:
        raise InvalidParameterError(f"delta' must be in (0, 1), got {delta_prime}")
    pairs = np.asarray(per_step, dtype=np.float64).reshape(-1, 2)
    eps = pairs[:, 0]
    if np.any(eps < 0):
        raise InvalidParameterError("per-step epsilons must be >= 0")
    delta_total = delta_prime + float(np.sum(pairs[:, 1]))
    if delta_total >= 1.0:
        raise InvalidParameterError(f"composed delta budget {delta_total:.6g} >= 1")
    first = math.sqrt(2.0 * math.log(2.0 / delta_prime) * float(np.sum(eps * eps)))
    second = float(np.sum(eps * np.expm1(eps)))
    return DpBudget(first + second, delta_total)


def multi_pass_privacy(n: int, T: int, delta: float) -> DpBudget:
    """Closed-form multi-pass guarantee (√(2T·ln(2/δ))·e/n + T·e²/n², δ).

    T = 0 yields ε = 0.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"n must be an integer >= 1, got {n}")
    if not (isinstance(T, (int, np.integer)) and T >= 0):
        raise InvalidParameterError(f"T must be an integer >= 0, got {T}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
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
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return DpBudget(rdp.epsilon + math.log(1.0 / delta) / (rdp.alpha - 1.0), delta)


def certify_theorem1(schedule: SinglePassSchedule) -> DpBudget:
    """DP budget of a single-pass schedule via its RDP bound and conversion.

    With β₀ and the Rényi order calibrated as the schedule does, the RDP ε
    equals the target ε and the conversion adds exactly ε again, so the
    result is (2ε, δ) up to rounding.
    """
    rdp = single_pass_rdp(schedule.renyi_order, schedule.eta, schedule.G, schedule.beta0)
    return rdp_to_dp(rdp, schedule.delta)


def certify_theorem2(
    n: int, pass_exponent: float, epsilon: float, delta: float
) -> tuple[DpBudget, DpBudget]:
    """Exact closed-form multi-pass budget next to the claimed one.

    Returns (exact, claimed) where exact is multi_pass_privacy at
    T = round(n^α·ε²) and claimed is (3ε√(ln(2/δ)) + 3ε², δ). Their ratio
    depends on δ (it grows as δ does) and is reported by the account CLI.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"n must be an integer >= 1, got {n}")
    if not 1.0 <= pass_exponent <= 2.0:
        raise InvalidParameterError(f"pass exponent must be in [1, 2], got {pass_exponent}")
    if epsilon < 0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    exact = multi_pass_privacy(n, _pass_steps(n, pass_exponent, epsilon), delta)
    return exact, _claimed_budget(epsilon, delta)


def _claimed_budget(epsilon: float, delta: float) -> DpBudget:
    return DpBudget(3.0 * epsilon * math.sqrt(math.log(2.0 / delta)) + 3.0 * epsilon**2, delta)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.9g}"


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

    n, T, delta = schedule.n, schedule.T, schedule.delta
    closed = multi_pass_privacy(n, T, delta)
    claimed = _claimed_budget(schedule.epsilon, delta)
    lines += [
        f"eta1 = {_fmt(schedule.eta(1))}",
        f"etaT = {_fmt(schedule.eta(T))}",
    ]
    if T <= _REPORT_STEP_CAP:
        if T >= 2:
            etas = schedule.etas
            t = np.arange(2, T + 1, dtype=np.float64)
            # step t releases (η_t/η_{t−1})·(w − η_t·ḡ) + N(0, (1−(η_t/η_{t−1})²)β₀)
            ratio = etas[1:] / etas[:-1]
            eta_eff = etas[1:] * ratio
            sigma_eff = np.sqrt((1.0 - ratio**2) * schedule.beta0)
            delta_gauss = 0.5 * n * delta / (t * (t - 1.0))
            step_eps = (
                np.sqrt(8.0 * np.log(1.25 / delta_gauss)) * eta_eff * schedule.G / sigma_eff
            )
            amplified = np.log1p(np.exp(step_eps) / n)
            per_step = np.column_stack([amplified, delta_gauss / n])
            composed = strong_compose(per_step, delta / 2.0)
            lines += [
                f"step_epsilon_max = {_fmt(float(np.max(step_eps)))}",
                f"amplified_epsilon_max = {_fmt(float(np.max(amplified)))}",
                f"composed_epsilon = {_fmt(composed.epsilon)}",
                f"composed_delta = {_fmt(composed.delta)}",
            ]
        else:
            # a single step is the data-independent initial draw
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
        f"closed_to_claimed_ratio = {_fmt(closed.epsilon / claimed.epsilon)}",
        "note = amplification uses ln(1 + exp(eps)/m) with the whole exp(eps) kept inside the log",
    ]
    return "\n".join(lines) + "\n"
