"""The noisy update: gradient step, shrink, Gaussian resample.

One step maps w to N((1−λ_tη_t)(w − η_t·ḡ), λ_tη_t(2−λ_tη_t)β₀·I) where ḡ is
the mini-batch mean gradient. Both schedules set λ₁η₁ = 1, so step one's
output is N(0, β₀I) no matter what the data says: the initial draw and the
first update coincide, and a run is exactly T update steps from a zero state.

One kernel, ``_advance``, makes every update: it moves a (c, d) matrix of
iterates, one chain per dataset, through an index plan, giving all chains the
same indices and noise row at each step. Single-pass runs read disjoint
blocks of a pre-shuffled dataset, multi-pass runs one index per step drawn
with replacement, coupled runs are two chains on neighbouring datasets, and
``sgld_step`` is one step of one chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, InvalidParameterError, RngStream, Vector, as_vector, seeded_rng
from .losses import GlmLoss, loss_bounds
from .schedules import MultiPassSchedule, SinglePassSchedule

# Noise rows are drawn about 1 MB at a time: one (k, d) draw gives the same
# numbers as k successive draws of d.
_NOISE_BLOCK_FLOATS = 1 << 17


@dataclass
class SgldState:
    """Chain state after t steps; the rng is the chain's noise stream."""

    t: int
    w: Vector
    samples_consumed: int
    rng: RngStream


@dataclass(frozen=True)
class RunRecord:
    """What a finished run exposes: final iterate plus thinned logs."""

    mode: str
    final_iterate: Vector
    iterate_log: list | None
    per_step_risk: list | None
    samples_consumed: int


def _steps(etas, lambda_etas, beta0: float, batch_sizes) -> tuple:
    """(η_t, λ_tη_t, σ_t, |M_t|) arrays, with σ_t = √(λ_tη_t(2−λ_tη_t)β₀)."""
    outside = ~((lambda_etas >= 0.0) & (lambda_etas <= 2.0))
    if outside.any():
        raise InvalidParameterError(
            f"lambda_t*eta_t = {lambda_etas[outside][0]:.6g} outside [0, 2]: negative noise variance"
        )
    if beta0 < 0:
        raise InvalidParameterError(f"beta0 must be >= 0, got {beta0}")
    return etas, lambda_etas, np.sqrt(lambda_etas * (2.0 - lambda_etas) * beta0), batch_sizes


def _advance(W0, Xs, ys, loss: GlmLoss, order, steps: tuple, noise_gen, observe) -> np.ndarray:
    """Advance a copy of the (c, d) iterates ``W0``, chain i on data (Xs[i], ys[i]).

    Step t reads the next |M_t| entries of ``order`` and one noise row (none
    when σ_t = 0), the same for every chain, then calls ``observe(t, W)``.
    W is updated in place, so an observer that keeps it must copy it.
    """
    etas, lambda_etas, sigmas, batch_sizes = steps
    W = np.array(W0, dtype=np.float64)
    W_col = W[:, :, None]
    d = W.shape[1]
    block = max(1, _NOISE_BLOCK_FLOATS // d)
    pos = 0
    for start in range(0, len(etas), block):
        stop = start + block
        sizes = batch_sizes[start:stop]
        rows = order[pos : pos + int(sizes.sum())]
        pos += len(rows)
        Xg, yg = Xs[:, rows], ys[:, rows]  # each step below takes a view
        sig = sigmas[start:stop]
        noise = iter(noise_gen.standard_normal((int(np.count_nonzero(sig > 0.0)), 1, d)))
        q = 0
        for t, b, eta, le, s in zip(
            range(start + 1, stop + 1), sizes.tolist(),
            etas[start:stop].tolist(), lambda_etas[start:stop].tolist(), sig.tolist(),
        ):
            Xb = Xg[:, q : q + b]
            # matmul, not vecdot or einsum: those sum in another order once b > 1
            g = loss.phi_prime((Xb @ W_col)[..., 0], yg[:, q : q + b])
            q += b
            grad = (g[:, None, :] @ Xb)[:, 0, :]
            # (1 − λη)(W − η·ḡ) + σz in place, with the same roundings
            grad /= b
            grad *= eta
            W -= grad
            W *= 1.0 - le
            if s > 0.0:
                W += s * next(noise)
            observe(t, W)
    return W


def sgld_step(
    state: SgldState,
    minibatch: list,
    eta_t: float,
    lambda_t: float,
    beta0: float,
    loss: GlmLoss,
) -> SgldState:
    """One update: w̃ = w − η·ḡ, then the shrink-and-noise resample.

    Args:
        state: current chain state; its rng supplies the noise draw.
        minibatch: nonempty list of Example; ḡ averages their gradients.
        eta_t: step size.
        lambda_t: regularization weight; λ_tη_t must lie in [0, 2].
        beta0: prior variance scale.
        loss: the loss family.

    Returns:
        The advanced state (t+1, new iterate, updated consumption count).
    """
    if not minibatch:
        raise InvalidParameterError("minibatch must be nonempty")
    w = as_vector(state.w)
    Xb = np.stack([z.x for z in minibatch])
    if Xb.shape[1] != w.shape[0]:
        raise InvalidParameterError(
            f"dimension mismatch: w has {w.shape[0]} coordinates, x has {Xb.shape[1]}"
        )
    yb = np.array([z.y for z in minibatch])
    b = len(minibatch)
    lambda_eta = np.array([lambda_t * eta_t], dtype=np.float64)
    steps = _steps(np.array([eta_t], dtype=np.float64), lambda_eta, beta0, np.array([b]))
    W = _advance(w[None], Xb[None], yb[None], loss, np.arange(b), steps, state.rng.generator, lambda t, W: None)
    return SgldState(t=state.t + 1, w=W[0], samples_consumed=state.samples_consumed + b, rng=state.rng)


def _logged_run(dataset, loss, schedule, order, rng, log_interval, risk_eval, risk_interval):
    """One chain from zero through ``order``, logged as run_single_pass describes."""
    T = schedule.T
    log_interval = max(1, T // 1000) if log_interval is None else max(1, int(log_interval))
    risk_interval = log_interval if risk_interval is None else max(1, int(risk_interval))
    iterate_log: list = []
    per_step_risk: list | None = [] if risk_eval is not None else None

    def observe(t, W):
        if t % log_interval == 0 or t == T:
            iterate_log.append((t, W[0].copy()))
        if risk_eval is not None and (t % risk_interval == 0 or t == T):
            pop, emp = risk_eval(W[0].copy())
            per_step_risk.append((t, float(pop), float(emp)))

    steps = _steps(schedule.etas, schedule.lambda_etas, schedule.beta0, schedule.batch_sizes)
    W = _advance(
        np.zeros((1, dataset.d)), dataset.X[None], dataset.y[None], loss, order, steps,
        rng.substream(1).generator, observe,
    )
    return RunRecord(schedule.mode, W[0], iterate_log, per_step_risk, schedule.sample_budget)


def run_single_pass(
    dataset: Dataset,
    loss: GlmLoss,
    schedule: SinglePassSchedule,
    rng: RngStream,
    log_interval: int | None = None,
    risk_eval=None,
    risk_interval: int | None = None,
) -> RunRecord:
    """Run T steps over disjoint blocks of a pre-shuffled dataset.

    Requires dataset.n >= the schedule's sample budget; consumes exactly the
    budget, each example at most once. ``rng`` is split into a shuffle stream
    and a noise stream, so two runs with equal (dataset, schedule, seed)
    produce identical records.

    Args:
        log_interval: iterate-log thinning; default max(1, T//1000). The final
            iterate is always logged.
        risk_eval: optional callable w -> (population_risk, empirical_risk),
            applied every ``risk_interval`` steps (default: log_interval).
    """
    budget = schedule.sample_budget
    if dataset.n < budget:
        raise InvalidParameterError(
            f"single-pass run needs at least {budget} examples "
            f"(sample budget for T={schedule.T}), dataset has {dataset.n}"
        )
    order = rng.substream(0).generator.permutation(dataset.n)
    return _logged_run(dataset, loss, schedule, order, rng, log_interval, risk_eval, risk_interval)


def run_multi_pass(
    dataset: Dataset,
    loss: GlmLoss,
    schedule: MultiPassSchedule,
    rng: RngStream,
    log_interval: int | None = None,
    risk_eval=None,
    risk_interval: int | None = None,
) -> RunRecord:
    """Run T steps sampling one example per step uniformly with replacement.

    Same logging contract as run_single_pass. A degenerate T = 0 schedule
    returns just the initial N(0, β₀I) draw.
    """
    if schedule.T == 0:
        w = float(np.sqrt(schedule.beta0)) * rng.substream(1).generator.standard_normal(dataset.d)
        return RunRecord(schedule.mode, w, [(0, w.copy())], None, 0)
    indices = rng.substream(0).generator.integers(0, dataset.n, size=schedule.T)
    return _logged_run(dataset, loss, schedule, indices, rng, log_interval, risk_eval, risk_interval)


def coupled_stability_run(
    dataset: Dataset,
    dataset_prime: Dataset,
    loss: GlmLoss,
    schedule: MultiPassSchedule,
    seed: int,
) -> list:
    """Run two chains on neighboring datasets under shared randomness.

    The datasets must agree everywhere except possibly the last example; the
    chains share both the index stream and the noise stream, so the squared
    distance grows only when the differing index is sampled. Returns
    [(t, ‖w_t − w_t′‖₂²)] for every step.
    """
    if dataset.n != dataset_prime.n or dataset.d != dataset_prime.d:
        raise InvalidParameterError("neighboring datasets must share n and d")
    n = dataset.n
    same = np.all(dataset.X[: n - 1] == dataset_prime.X[: n - 1]) and np.all(
        dataset.y[: n - 1] == dataset_prime.y[: n - 1]
    )
    if not same:
        raise InvalidParameterError(
            "neighboring datasets may differ only in the last example"
        )
    bounds = loss_bounds(loss)
    eta1 = schedule.eta(1)
    if bounds.L > 0 and eta1 > 1.0 / bounds.L:
        raise InvalidParameterError(
            f"eta_1 = {eta1:.6g} exceeds 1/L = {1.0 / bounds.L:.6g}"
        )
    out = []

    def observe(t, W):
        diff = W[0] - W[1]
        out.append((t, float(diff @ diff)))

    Xs = np.stack([dataset.X, dataset_prime.X])
    ys = np.stack([dataset.y, dataset_prime.y])
    indices = seeded_rng(seed, 0).generator.integers(0, n, size=schedule.T)
    steps = _steps(schedule.etas, schedule.lambda_etas, schedule.beta0, schedule.batch_sizes)
    _advance(np.zeros((2, dataset.d)), Xs, ys, loss, indices, steps, seeded_rng(seed, 1).generator, observe)
    return out


def write_run_record(record: RunRecord, path) -> None:
    """Line-oriented record file: one row per logged step."""
    risk_at = {t: (p, e) for (t, p, e) in (record.per_step_risk or [])}
    lines = ["t,risk_population,risk_empirical,iterate_norm"]
    for t, w in record.iterate_log or []:
        pop, emp = risk_at.get(t, (float("nan"), float("nan")))
        lines.append(
            f"{t},{pop:.9g},{emp:.9g},{float(np.linalg.norm(w)):.9g}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
