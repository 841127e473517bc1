"""The noisy update: gradient step, shrink, Gaussian resample.

One step maps w to N((1−λ_tη_t)(w − η_t·ḡ), λ_tη_t(2−λ_tη_t)β₀·I) where ḡ is
the mini-batch mean gradient of φ′ clipped to [−γ₁, γ₁]
(``GlmLoss.clipped_phi_prime``), so every gradient obeys the bound G that the
account assumes. Both schedules set λ₁η₁ = 1, so step one's output is
N(0, β₀I) no matter what the data says: the initial draw and the first update
coincide, and a run is exactly T update steps from a zero state.

Two kernels make the updates, and both read the same index rows and noise
streams. ``_advance`` runs one step at a time and moves a (g, k, d) array of
iterates: g independent groups (replicates), each with its own index row and
its own noise generator, and k chains per group, one per dataset, that share
the group's indices and noise row at every step. Single-pass runs read
disjoint blocks of a pre-shuffled dataset (g = k = 1), coupled runs are pairs
of chains on neighbouring datasets (g pairs, k = 2), and ``sgld_step`` is one
step with g = k = 1. The steps run in blocks of
``_NOISE_BLOCK_FLOATS // (g·k·d)``: each block gathers its rows (about 1 MB
for unit batches) and draws each group's noise rows into a buffer that every
block reuses.

Multi-pass runs (g replicates, k = 1, one index per step drawn with
replacement) go through ``_advance_blocks``, which advances _BLOCK_STEPS
unit-batch steps per round trip to NumPy. With a_t = 1 − λ_tη_t and Π_j the
product of a over the block's first j steps, v_j = w_j/Π_j moves by
c_j·x_j + (σ_j/Π_j)·z_j with c_j = −(η_j/Π_(j−1))·φ′_j, so the margin of step j
is Π_(j−1)·(x_jᵀw₀ + Σ_(l<j) x_jᵀx_l·c_l + Σ_(l<j) (σ_l/Π_l)·x_jᵀz_l): two
batched matmuls give the Gram and noise cross terms of the whole block. The
coefficients c are found by sweeps c ← F(c) from c = 0 until a sweep returns
c unchanged. Row j of F reads only rows before j, so row j is final after
j + 1 sweeps, at most _BLOCK_STEPS + 1 sweeps run, and the fixed point they
stop at is the unique one: the forward-substitution answer, which is the
per-step chain's. The logged iterates and the block's last one then come from
matmuls. The two kernels see the same indices and noise and do the same
arithmetic in another order, so they differ only by rounding
(tests/test_engine.py holds them within 1e-12·max(1, max|w|)). A block ends
before |Π| falls below _MIN_SHRINK, so a step with λ_tη_t = 1 (a_t = 0,
step one) runs alone through ``_advance``; a step with σ_t = 0 draws nothing
in either kernel. Both kernels gather a block's rows of all chains with one
``np.take`` for X and one for y, from the chains' data concatenated once per
run (no copy when there is one chain).

Replicates share one group while their index rows fit in ``_GROUP_BYTES``; a
larger batch advances one group after another. Every replicate draws from its
own generators in the same order whatever the grouping, so its output does
not depend on which replicates run beside it.

The engine runs whatever coordinates it is given: the privacy-utility
experiment hands it each replicate's data in a basis of the rows' span, and
lifts the result itself (see ``harness``). On d-dimensional data it is the
library path and the reference that the reduced chains are tested against.
A run returns its final iterate and a thinned log of iterates; scoring them
(risk, norms) is the caller's job. Under the logistic and smoothed-hinge
losses a run refuses labels outside [−1, 1], on which their gradient bound G
rests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .core import Dataset, InvalidParameterError, RngStream, Vector, as_vector, seeded_rng
from .losses import QUADRATIC, GlmLoss, loss_bounds
from .schedules import MultiPassSchedule, SinglePassSchedule

# A block of steps gathers about 1 MB of rows (unit batches) across all
# chains and draws its noise rows at once: one (m, d) draw gives the same
# numbers as m successive draws of d.
_NOISE_BLOCK_FLOATS = 1 << 17
# Replicates advance as one group while their index rows fit in 32 MiB.
_GROUP_BYTES = 1 << 25
# Unit-batch steps per block of _advance_blocks. With k = 256 on a 2-core Xeon
# VM, 64 ran best at 2 replicates and 16 at 30 (the Gram matmuls grow with
# the block); 32 was within 10 % of the best at both.
_BLOCK_STEPS = 32
# A block ends before the product of its shrink factors 1 − λ_tη_t falls
# below this, so dividing by it stays finite; a step with λ_tη_t = 1 runs alone.
_MIN_SHRINK = 1e-100


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


def _stacked(Xs, ys) -> tuple:
    """(X, y, firsts): the rows of every (Xs[i], ys[i]) in one array each, and
    the index of each one's first row there.

    The arrays are copied unless there is one, so that a block of steps
    gathers the rows of all its chains with one ``np.take``.
    """
    firsts = np.cumsum([0] + [len(y) for y in ys[:-1]])
    if len(ys) == 1:
        return Xs[0], ys[0], firsts
    return np.concatenate(Xs), np.concatenate(ys), firsts


def _advance(W0, data: tuple, loss: GlmLoss, orders, steps: tuple, noise_gens, observe) -> np.ndarray:
    """Advance a copy of the (g, k, d) iterates ``W0`` on ``data = (X, y, firsts)``.

    Step t reads the next |M_t| entries of group j's index row ``orders[j]``
    and one noise row from ``noise_gens[j]`` (none when σ_t = 0), the same for
    the group's k chains, then calls ``observe(t, W)``; chain (j, i) reads
    row firsts[j, i] + orders[j, s] of X and y. W is updated in place, so an
    observer that keeps it must copy it.
    """
    etas, lambda_etas, sigmas, batch_sizes = steps
    X_all, y_all, firsts = data
    firsts = firsts[..., None]
    W = np.array(W0, dtype=np.float64)
    W_col = W[..., None]
    g, k, d = W.shape
    block = max(1, _NOISE_BLOCK_FLOATS // (g * k * d))
    starts = range(0, len(etas), block)
    # one buffer for a block's noise, reused by every block
    noise_block = np.empty((g, block, 1, d))
    grad_buf = np.empty((g, k, d))
    pos = 0
    for start in starts:
        stop = start + block
        sizes = batch_sizes[start:stop]
        m = int(sizes.sum())
        rows = orders[:, None, pos : pos + m] + firsts
        X_block, y_block = np.take(X_all, rows, axis=0), np.take(y_all, rows)
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
            phi = loss.clipped_phi_prime((Xb @ W_col)[..., 0], y_block[:, :, q : q + b])
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


def _advance_blocks(W0, data: tuple, loss: GlmLoss, orders, steps: tuple, noise_gens, log_times):
    """Advance a copy of the (g, d) iterates ``W0`` by unit-batch steps, _BLOCK_STEPS at a time.

    Replicate j reads rows firsts[j] + orders[j, s] of ``data = (X, y, firsts)``
    and its noise from ``noise_gens[j]`` in the order ``_advance`` reads them
    with k = 1, so the two kernels see the same rows and noise. Returns the
    final (g, d) iterates and the (g, len(log_times), d) iterates after the
    ascending steps ``log_times``. See the module docstring for the solve.
    """
    etas, lambda_etas, sigmas, _ = steps
    W = np.array(W0, dtype=np.float64)
    g, d = W.shape
    T = len(etas)
    X_all, y_all, firsts = data
    firsts = firsts[:, None]
    shrinks = 1.0 - lambda_etas
    neg_etas = -etas
    noisy = sigmas > 0.0
    draws_before = np.concatenate(([0], np.cumsum(noisy)))
    strict = np.tri(_BLOCK_STEPS, k=-1)
    through = np.tri(_BLOCK_STEPS)
    logged = np.empty((g, len(log_times), d))
    done = 0  # iterates logged so far
    start = 0
    while start < T:
        stop = min(T, start + _BLOCK_STEPS)
        prod = np.cumprod(np.concatenate(([1.0], shrinks[start:stop])))  # Π_0..Π_L
        if abs(prod[-1]) < _MIN_SHRINK:
            # end the block before its product gets too small to divide by
            stop = start + max(1, int(np.argmax(np.abs(prod[1:]) < _MIN_SHRINK)))
        L = stop - start
        block_logs = log_times[done : bisect.bisect_right(log_times, stop, lo=done)]
        if L == 1:
            # one step, e.g. λη = 1, runs the per-step kernel
            W = _advance(
                W[:, None], (X_all, y_all, firsts), loss, orders[:, start:stop],
                tuple(part[start:stop] for part in steps), noise_gens, lambda t, W: None,
            )[:, 0]
            if block_logs:
                logged[:, done] = W
                done += 1
            start = stop
            continue
        P = prod[1 : L + 1]       # Π_j, j = 1..L
        P_before = prod[:L]       # Π_(j−1)
        rows = orders[:, start:stop] + firsts
        X = np.take(X_all, rows, axis=0)
        y = np.take(y_all, rows)
        Z = np.empty((g, int(draws_before[stop] - draws_before[start]), d))
        for gen, z in zip(noise_gens, Z):
            gen.standard_normal(out=z)
        if len(Z[0]) < L:
            # steps with σ_t = 0 draw nothing; their z_t is 0
            drawn, Z = Z, np.zeros((g, L, d))
            Z[:, noisy[start:stop]] = drawn
        # v_j = w_j/Π_j moves by c_j·x_j + (σ_j/Π_j)·z_j
        noise_coef = sigmas[start:stop] / P
        step_coef = neg_etas[start:stop] / P_before
        K = X @ X.mT
        K *= strict[:L, :L]
        cross = X @ Z.mT
        cross *= strict[:L, :L]
        # x_jᵀv_(j−1) = x_jᵀw₀ + Σ_(l<j) (σ_l/Π_l)·x_jᵀz_l + Σ_(l<j) K_jl·c_l
        base = cross @ noise_coef
        base += (X @ W[..., None])[..., 0]
        # row j of the sweep reads only rows before it, so it is final after
        # j + 1 sweeps; the fixed point is the forward-substitution answer
        c = np.zeros((g, L))
        for _ in range(L + 1):
            margins = (K @ c[..., None])[..., 0]
            margins += base
            margins *= P_before
            swept = loss.clipped_phi_prime(margins, y)
            swept *= step_coef
            if np.array_equal(swept, c):
                break
            c = swept
        # the logged iterates and the block's last one: w_j = Π_j·v_j
        ends = [t - start for t in block_logs]
        if not ends or ends[-1] != L:
            ends.append(L)
        ends = np.array(ends)
        upto = through[ends - 1, :L]
        out = (c[:, None, :] * upto) @ X
        out += (noise_coef * upto) @ Z
        out += W[:, None, :]
        out *= P[ends - 1, None]
        logged[:, done : done + len(block_logs)] = out[:, : len(block_logs)]
        done += len(block_logs)
        W = out[:, -1]
        start = stop
    return W, logged


def _groups(count: int, T: int) -> list:
    """Slices of ``count`` replicates whose index rows of T steps fit in _GROUP_BYTES."""
    size = max(1, _GROUP_BYTES // (8 * T))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _require_labels(loss: GlmLoss, datasets) -> None:
    """Refuse labels outside [−1, 1] under the ±1 losses, naming the first bad row.

    The logistic and smoothed-hinge bounds G assume |y| <= 1; the quadratic
    family takes real labels.
    """
    if loss.family == QUADRATIC:
        return
    for r, data in enumerate(datasets):
        bad = np.flatnonzero(np.abs(data.y) > 1.0)
        if bad.size:
            raise InvalidParameterError(
                f"dataset {r}, example {bad[0]}: label {data.y[bad[0]]:.17g} lies outside "
                f"[-1, 1], which the {loss.family} loss needs"
            )


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
        w[None, None], (Xb, yb, np.zeros((1, 1), dtype=np.int64)), loss, np.arange(b)[None],
        steps, [state.rng.generator], lambda t, W: None,
    )
    return SgldState(t=state.t + 1, w=W[0, 0], samples_consumed=state.samples_consumed + b, rng=state.rng)


def _logged_runs(datasets, loss, schedule, orders, rngs, log_interval):
    """One chain per dataset from zero through its row of ``orders``.

    Logged as run_single_pass describes; returns one RunRecord per dataset.
    Multi-pass schedules run through _advance_blocks, single-pass ones
    through _advance.
    """
    T = schedule.T
    log_interval = max(1, T // 1000) if log_interval is None else max(1, int(log_interval))
    times = list(range(log_interval, T + 1, log_interval))
    if T % log_interval:
        times.append(T)
    steps = _steps(schedule.etas, schedule.lambda_etas, schedule.beta0, schedule.batch_sizes)
    W0 = np.zeros((len(datasets), datasets[0].d))
    X, y, firsts = _stacked([data.X for data in datasets], [data.y for data in datasets])
    gens = [rng.substream(1).generator for rng in rngs]
    if isinstance(schedule, MultiPassSchedule):
        W, logged = _advance_blocks(W0, (X, y, firsts), loss, orders, steps, gens, times)
    else:
        logged = np.empty((len(datasets), len(times), W0.shape[1]))
        slots = {t: i for i, t in enumerate(times)}

        def observe(t, W):
            if t in slots:
                logged[:, slots[t]] = W[:, 0]

        W = _advance(W0[:, None], (X, y, firsts[:, None]), loss, orders, steps, gens, observe)[:, 0]
    return [
        RunRecord(schedule.mode, w, list(zip(times, log)), schedule.sample_budget)
        for w, log in zip(W, logged)
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
    _require_labels(loss, [dataset])
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
    _require_labels(loss, datasets)
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
    _require_labels(loss, [data for pair in pairs for data in pair])
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
        X, y, firsts = _stacked(
            [data.X for pair in pairs[group] for data in pair],
            [data.y for pair in pairs[group] for data in pair],
        )
        _advance(
            np.zeros((len(indices), 2, pairs[0][0].d)), (X, y, firsts.reshape(-1, 2)),
            loss, indices, steps, [seeded_rng(seed, 1).generator for seed in seeds[group]], observe,
        )
    return out
