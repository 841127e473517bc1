"""Privacy accountant: per-step Gaussian mechanism, subsampling amplification,
strong composition, the multi-pass closed form, the last-iterate RDP bound,
and RDP→DP conversion.

Pure functions of schedule parameters and loss bounds; the accountant never
sees data. All logarithms are natural. The amplification step keeps the
nonstandard ln(1 + m⁻¹·e^ε) form (not ln(1 + m⁻¹(e^ε − 1))); the account
report says so next to the numbers.

The certificates take the schedule that runs: ``certify_theorem1`` a
single-pass one, ``certify_theorem2`` a multi-pass one.

The account report enumerates the multi-pass steps in closed form rather
than step by step through the textbook chain (the per-step δ_t, the
Gaussian mechanism's ε, then amplification; tests/helpers.py keeps that
chain as the reference the closed form is checked against). Step t
releases r_t·(w − η_t·ḡ) plus N(0, (1 − r_t²)·β₀), r_t = η_t/η_{t−1}, a
Gaussian mechanism at δ = n·δ_t that subsampling over n amplifies. With
c = ln(2.5/(nδ)), ℓ_u = c + 2·ln u and m_u = ℓ_u·u, the schedule's step
size is η_u² = β₀/(8G²m_u), so r_t² = m_{t−1}/m_t, G and β₀ cancel (the
noise is calibrated to the step), and with q_t = ln(t/(t−1)) =
log1p(1/(t−1)):

    ε_t = √(Λ_t·m_{t−1} / (m_t·D_t)),  Λ_t = ln(1.25/(n·δ_t)) = ℓ_t − q_t,
    D_t = m_t − m_{t−1} = ℓ_t + 2(t−1)·q_t.

D_t is a sum of positive terms, so it keeps every digit where 1 − r_t² =
D_t/m_t, formed from the step sizes, loses about log₁₀ t of them. Each
chunk of steps is one pass through work buffers allocated once per report
and written in place: one ``np.log`` of u = t−1..t and one ``np.log1p`` give
the ε_t, one ``np.exp`` and one ``np.log1p`` their amplification
ε′_t = ln(1 + x_t), x_t = e^{ε_t}/n, and the composition's excess term
ε′_t·(e^{ε′_t} − 1) reads x_t itself, since e^{ln(1+x)} − 1 = x. The δ_t
telescope: Σ_(t=2..T) δ_t = δ/2·(1 − 1/T). A step without noise has an
infinite ε that the m-form never shows, so the report checks the noise
first, once: σ_t falls with t in both modes, so σ_T = 0 (underflow) iff
some σ_t = 0, and the report refuses the schedules that
``engine._schedule_steps`` refuses, also past the enumeration's step cap.
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
from .schedules import MultiPassSchedule, SinglePassSchedule, _multi_pass_etas, _noise_scales

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


def _amplified_epsilon(step_epsilon, m: int, ratio=None, out=None):
    """ε of amplification by uniform subsampling of one element among m:
    ln(1 + m⁻¹·e^ε), the lemma's form verbatim (the +1 inside the log keeps
    the whole e^ε rather than e^ε − 1). Given float arrays, x = e^ε/m is
    written to ``ratio`` and the result to ``out``."""
    ratio = np.exp(step_epsilon, out=ratio)
    ratio /= m
    return np.log1p(ratio, out=out)


def _composed(sum_sq: float, sum_excess: float, sum_delta: float, delta_prime: float) -> DpBudget:
    """Strong composition of (ε_t, δ_t) mechanisms with slack δ′, from Σε_t², Σε_t(e^{ε_t}−1)
    and Σδ_t: (√(2·ln(2/δ′)·Σε_t²) + Σε_t(e^{ε_t}−1), δ′ + Σδ_t)."""
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


def _step_work(steps: int) -> np.ndarray:
    """Work rows for _step_epsilons over up to ``steps`` steps; row 0 holds
    0, 1, ..., steps, from which each range's u = lo−1..hi is formed."""
    work = np.empty((5, steps + 1))
    work[0] = np.arange(steps + 1)
    return work


def _step_epsilons(schedule: MultiPassSchedule, lo: int, hi: int, work=None) -> np.ndarray:
    """Gaussian ε_t of multi-pass steps t = lo..hi (2 <= lo <= hi), in the
    m-form the module docstring derives. Each ε_t depends on its own t alone,
    so any range gives the same bits for a step.

    ``work`` is a _step_work array for at least hi − lo + 1 steps, written in
    place; the result is a view into it, valid until its next use."""
    size = hi - lo + 1
    if work is None:
        work = _step_work(size)
    ramp, u, ell, m, q = work[:, : size + 1]
    before, q = u[:-1], q[:-1]
    c = math.log(2.5 / (schedule.n * schedule.delta))
    np.add(ramp, lo - 1, out=u)
    np.log(u, out=ell)
    ell *= 2.0
    ell += c
    np.multiply(ell, u, out=m)
    np.divide(1.0, before, out=q)
    np.log1p(q, out=q)
    D = np.multiply(before, 2.0, out=before)  # u is spent: D takes its row
    D *= q
    D += ell[1:]
    lam = np.subtract(ell[1:], q, out=q)
    lam *= m[:-1]
    D *= m[1:]
    lam /= D
    return np.sqrt(lam, out=lam)


def _enumerated_multi_pass(schedule: MultiPassSchedule) -> tuple:
    """(max step ε, max amplified ε, strong composition) over steps 2..T.

    Steps are enumerated _REPORT_CHUNK at a time, keeping only the running
    maxima and the sums the composition needs, so memory does not grow with
    T. Each chunk is one pass through work buffers allocated once, cut to
    the chunk's length. The excess term ε′(e^{ε′} − 1) reads x = e^ε/n from
    the amplification, since e^{ln(1+x)} − 1 = x. The δ_t need no
    enumeration: they telescope to δ/2·(1 − 1/T). The caller has refused a
    schedule with a zero σ_t.
    """
    n, T, delta = schedule.n, schedule.T, schedule.delta
    steps = min(_REPORT_CHUNK, T - 1)
    work = _step_work(steps)
    buffers = np.empty((2, steps))
    step_max = amplified_max = sum_sq = sum_excess = 0.0
    for lo in range(2, T + 1, _REPORT_CHUNK):
        step_eps = _step_epsilons(schedule, lo, min(lo + _REPORT_CHUNK - 1, T), work)
        ratio, amplified = buffers[:, : step_eps.size]
        _amplified_epsilon(step_eps, n, ratio, amplified)
        step_max = max(step_max, float(np.max(step_eps)))
        amplified_max = max(amplified_max, float(np.max(amplified)))
        # spent rows take the products: the step ε the squares, x the excess terms
        sum_sq += float(np.sum(np.multiply(amplified, amplified, out=step_eps)))
        sum_excess += float(np.sum(np.multiply(amplified, ratio, out=ratio)))
    sum_delta = 0.5 * delta * (1.0 - 1.0 / T)
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
    # σ_t falls with t in both modes, so the last step has the smallest: σ_T
    # = 0 (underflow) iff some σ_t = 0. λ_1η_1 = 1, so a one-step schedule is noisy.
    T = schedule.T
    if T == 1:
        last_lambda_eta = 1.0
    elif isinstance(schedule, SinglePassSchedule):
        last_lambda_eta = 1.0 / T
    else:
        eta_before, eta_last = _multi_pass_etas(schedule, T - 1, T)
        last_lambda_eta = 1.0 - eta_last / eta_before
    if not _noise_scales(last_lambda_eta, schedule.beta0):
        raise InfinitePrivacyLossError(_ZERO_NOISE)
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

    closed, claimed = certify_theorem2(schedule)
    lines += [
        f"eta1 = {_fmt(_multi_pass_etas(schedule, 1, 1)[0])}",
        f"etaT = {_fmt(_multi_pass_etas(schedule, T, T)[0])}",
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
            # the one step is the data-independent initial draw
            lines += [
                "step_epsilon_max = 0",
                "amplified_epsilon_max = 0",
                "composed_epsilon = 0",
                f"composed_delta = {_fmt(schedule.delta)}",
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
