"""The noisy update: gradient step, shrink, Gaussian resample.

One step maps w to N((1−λ_tη_t)(w − η_t·ḡ), λ_tη_t(2−λ_tη_t)β₀·I) where ḡ is
the mini-batch mean gradient. Both schedules set λ₁η₁ = 1, so step one's
output is N(0, β₀I) no matter what the data says: the initial draw and the
first update coincide, and a run is exactly T update steps from a zero state.

One kernel, ``_advance``, makes every update. It moves a (g, k, d) array of
iterates: g independent groups (replicates), each with its own index row and
its own noise generator, and k chains per group, one per dataset, that share
the group's indices and noise row at every step. Single-pass runs read
disjoint blocks of a pre-shuffled dataset (g = k = 1), multi-pass runs draw
one index per step with replacement (g replicates, k = 1), coupled runs are
pairs of chains on neighbouring datasets (g pairs, k = 2), and ``sgld_step``
is one step with g = k = 1. The steps run in blocks of
``_NOISE_BLOCK_FLOATS // (g·k·d)``: each block gathers its rows from every
chain's own arrays (about 1 MB for unit batches) and draws each group's noise
rows, into buffers that every block reuses, so no dataset is copied whole.
Replicates share one group while their index rows fit in ``_GROUP_BYTES``; a
larger batch advances one group after another. Every replicate draws from its
own generators in the same order whatever the grouping, so its output does
not depend on which replicates run beside it.

The engine runs whatever coordinates it is given: the privacy-utility
experiment hands it each replicate's data in a basis of the rows' span, and
lifts the result itself (see ``harness``). On d-dimensional data it is the
library path and the reference that the reduced chains are tested against.
A run returns its final iterate and a thinned log of iterates; scoring them
(risk, norms) is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, InvalidParameterError, RngStream, Vector, as_vector, seeded_rng
from .losses import GlmLoss, loss_bounds
from .schedules import MultiPassSchedule, SinglePassSchedule

# A block of steps gathers about 1 MB of rows (unit batches) across all
# chains and draws its noise rows at once: one (m, d) draw gives the same
# numbers as m successive draws of d.
_NOISE_BLOCK_FLOATS = 1 << 17
# Replicates advance as one group while their index rows fit in 32 MiB.
_GROUP_BYTES = 1 << 25


@dataclass
class SgldState:
    """Chain state after t steps; the rng is the chain's noise stream."""

    t: int
    w: Vector
    samples_consumed: int
    rng: RngStream


@dataclass(frozen=True)
class RunRecord:
    """What a finished run exposes: final iterate plus its thinned (t, w_t) log."""

    mode: str
    final_iterate: Vector
    iterate_log: list
    samples_consumed: int


def _steps(etas, lambda_etas, beta0: float, batch_sizes) -> tuple:
    """(η_t, λ_tη_t, σ_t, |M_t|) arrays, with σ_t = √(λ_tη_t(2−λ_tη_t)β₀)."""
    outside = ~((lambda_etas >= 0.0) & (lambda_etas <= 2.0))
    if outside.any():
        lambda_eta = lambda_etas[outside][0]
        if np.isnan(lambda_eta):
            raise InvalidParameterError("lambda_t*eta_t is not a number")
        raise InvalidParameterError(
            f"lambda_t*eta_t = {lambda_eta:.6g} outside [0, 2]: negative noise variance"
        )
    if beta0 < 0:
        raise InvalidParameterError(f"beta0 must be >= 0, got {beta0}")
    return etas, lambda_etas, np.sqrt(lambda_etas * (2.0 - lambda_etas) * beta0), batch_sizes


def _advance(W0, Xs, ys, loss: GlmLoss, orders, steps: tuple, noise_gens, observe) -> np.ndarray:
    """Advance a copy of the (g, k, d) iterates ``W0``; chain (j, i) reads (Xs[j][i], ys[j][i]).

    Step t reads the next |M_t| entries of group j's index row ``orders[j]``
    and one noise row from ``noise_gens[j]`` (none when σ_t = 0), the same for
    the group's k chains, then calls ``observe(t, W)``. W is updated in place,
    so an observer that keeps it must copy it.
    """
    etas, lambda_etas, sigmas, batch_sizes = steps
    W = np.array(W0, dtype=np.float64)
    W_col = W[..., None]
    g, k, d = W.shape
    block = max(1, _NOISE_BLOCK_FLOATS // (g * k * d))
    starts = range(0, len(etas), block)
    # one buffer each for a block's rows and noise, reused by every block
    most = int(np.add.reduceat(batch_sizes, starts).max())
    X_block, y_block = np.empty((g, k, most, d)), np.empty((g, k, most))
    noise_block = np.empty((g, block, 1, d))
    grad_buf = np.empty((g, k, d))
    pos = 0
    for start in starts:
        stop = start + block
        sizes = batch_sizes[start:stop]
        m = int(sizes.sum())
        for j in range(g):
            rows = orders[j, pos : pos + m]
            for i in range(k):
                np.take(Xs[j][i], rows, axis=0, out=X_block[j, i, :m])
                np.take(ys[j][i], rows, out=y_block[j, i, :m])
        pos += m
        sig = sigmas[start:stop]
        scales = sig[sig > 0.0]
        draws = len(scales)
        for gen, group_noise in zip(noise_gens, noise_block):
            gen.standard_normal(out=group_noise[:draws])
        # σ_t·z_t for the block's noisy steps at once: the same products as step by step
        noise_block[:, :draws] *= scales[:, None, None]
        noise = iter(noise_block[:, :draws].swapaxes(0, 1))
        q = 0
        for t, b, eta, le, s in zip(
            range(start + 1, stop + 1), sizes.tolist(),
            etas[start:stop].tolist(), lambda_etas[start:stop].tolist(), sig.tolist(),
        ):
            Xb = X_block[:, :, q : q + b]
            # matmul, not vecdot or einsum: those sum in another order once b > 1
            phi = loss.phi_prime((Xb @ W_col)[..., 0], y_block[:, :, q : q + b])
            q += b
            if b == 1:
                # a one-term matmul is this single product, so the bits agree
                grad = np.multiply(phi, Xb[:, :, 0], out=grad_buf)
            else:
                grad = (phi[..., None, :] @ Xb)[..., 0, :]
                grad /= b
            # (1 − λη)(W − η·ḡ) + σz in place, with the same roundings
            grad *= eta
            W -= grad
            W *= 1.0 - le
            if s > 0.0:
                W += next(noise)
            observe(t, W)
    return W


def _groups(count: int, T: int) -> list:
    """Slices of ``count`` replicates whose index rows of T steps fit in _GROUP_BYTES."""
    size = max(1, _GROUP_BYTES // (8 * T))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _require_batch(datasets: list, streams: list) -> None:
    if len(datasets) != len(streams):
        raise InvalidParameterError(
            f"got {len(datasets)} replicates but {len(streams)} random streams"
        )
    if not datasets:
        raise InvalidParameterError("need at least one replicate")
    if any(data.d != datasets[0].d for data in datasets):
        raise InvalidParameterError("replicates run together must share d")


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
    W = _advance(
        w[None, None], [[Xb]], [[yb]], loss, np.arange(b)[None], steps,
        [state.rng.generator], lambda t, W: None,
    )
    return SgldState(t=state.t + 1, w=W[0, 0], samples_consumed=state.samples_consumed + b, rng=state.rng)


def _logged_runs(datasets, loss, schedule, orders, rngs, log_interval):
    """One chain per dataset from zero through its row of ``orders``.

    Logged as run_single_pass describes; returns one RunRecord per dataset.
    """
    T = schedule.T
    log_interval = max(1, T // 1000) if log_interval is None else max(1, int(log_interval))
    iterate_logs = [[] for _ in datasets]

    def observe(t, W):
        if t % log_interval == 0 or t == T:
            for log, w in zip(iterate_logs, W[:, 0]):
                log.append((t, w.copy()))

    steps = _steps(schedule.etas, schedule.lambda_etas, schedule.beta0, schedule.batch_sizes)
    W = _advance(
        np.zeros((len(datasets), 1, datasets[0].d)),
        [[data.X] for data in datasets], [[data.y] for data in datasets],
        loss, orders, steps, [rng.substream(1).generator for rng in rngs], observe,
    )
    return [
        RunRecord(schedule.mode, w, iterate_log, schedule.sample_budget)
        for w, iterate_log in zip(W[:, 0], iterate_logs)
    ]


def run_single_pass(
    dataset: Dataset,
    loss: GlmLoss,
    schedule: SinglePassSchedule,
    rng: RngStream,
    log_interval: int | None = None,
) -> RunRecord:
    """Run T steps over disjoint blocks of a pre-shuffled dataset.

    Requires dataset.n >= the schedule's sample budget; consumes exactly the
    budget, each example at most once. ``rng`` is split into a shuffle stream
    and a noise stream, so two runs with equal (dataset, schedule, seed)
    produce identical records.

    Args:
        log_interval: iterate-log thinning; default max(1, T//1000). The final
            iterate is always logged.
    """
    budget = schedule.sample_budget
    if dataset.n < budget:
        raise InvalidParameterError(
            f"single-pass run needs at least {budget} examples "
            f"(sample budget for T={schedule.T}), dataset has {dataset.n}"
        )
    order = rng.substream(0).generator.permutation(dataset.n)
    return _logged_runs([dataset], loss, schedule, order[None], [rng], log_interval)[0]


def run_multi_pass(
    datasets,
    loss: GlmLoss,
    schedule: MultiPassSchedule,
    rngs,
    log_interval: int | None = None,
) -> list:
    """Run T steps per replicate, each sampling one example per step uniformly with replacement.

    Replicate r runs on ``datasets[r]`` with stream ``rngs[r]``, split into an
    index stream and a noise stream as in run_single_pass. The replicates must
    share d; they advance together and return one RunRecord each, equal
    bit for bit to what a run of that replicate alone returns. Same logging
    contract as run_single_pass. A degenerate T = 0 schedule returns just each
    replicate's initial N(0, β₀I) draw.
    """
    datasets, rngs = list(datasets), list(rngs)
    _require_batch(datasets, rngs)
    if schedule.T == 0:
        records = []
        for data, rng in zip(datasets, rngs):
            w = float(np.sqrt(schedule.beta0)) * rng.substream(1).generator.standard_normal(data.d)
            records.append(RunRecord(schedule.mode, w, [(0, w.copy())], 0))
        return records
    records = []
    for group in _groups(len(datasets), schedule.T):
        indices = np.stack([
            rng.substream(0).generator.integers(0, data.n, size=schedule.T)
            for data, rng in zip(datasets[group], rngs[group])
        ])
        records += _logged_runs(datasets[group], loss, schedule, indices, rngs[group], log_interval)
    return records


def coupled_stability_run(pairs, loss: GlmLoss, schedule: MultiPassSchedule, seeds) -> np.ndarray:
    """Run pairs of chains on neighboring datasets under shared randomness.

    In each pair (dataset, dataset′) the datasets must agree everywhere except
    possibly the last example. The pair's two chains share the index stream
    seeded_rng(seed, 0) and the noise stream seeded_rng(seed, 1), so their
    squared distance grows only when the differing index is sampled. Pairs
    must share d; they advance together. Returns the (R, T) array whose
    row r holds ‖w_t − w_t′‖₂² of pair r for t = 1..T.
    """
    pairs, seeds = list(pairs), list(seeds)
    for dataset, dataset_prime in pairs:
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
    _require_batch([dataset for dataset, _ in pairs], seeds)
    bounds = loss_bounds(loss)
    eta1 = schedule.eta(1)
    if bounds.L > 0 and eta1 > 1.0 / bounds.L:
        raise InvalidParameterError(
            f"eta_1 = {eta1:.6g} exceeds 1/L = {1.0 / bounds.L:.6g}"
        )
    out = np.empty((len(pairs), schedule.T))
    steps = _steps(schedule.etas, schedule.lambda_etas, schedule.beta0, schedule.batch_sizes)
    for group in _groups(len(pairs), schedule.T):
        group_out = out[group]

        def observe(t, W):
            diff = W[:, 0] - W[:, 1]
            # batched matmul, not einsum: einsum sums in another order
            group_out[:, t - 1] = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]

        indices = np.stack([
            seeded_rng(seed, 0).generator.integers(0, a.n, size=schedule.T)
            for (a, _), seed in zip(pairs[group], seeds[group])
        ])
        _advance(
            np.zeros((len(indices), 2, pairs[0][0].d)),
            [[a.X, b.X] for a, b in pairs[group]], [[a.y, b.y] for a, b in pairs[group]],
            loss, indices, steps, [seeded_rng(seed, 1).generator for seed in seeds[group]], observe,
        )
    return out
