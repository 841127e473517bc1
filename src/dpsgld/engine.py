"""The noisy update: gradient step, shrink, Gaussian resample.

One step maps w to N((1−λ_tη_t)(w − η_t·ḡ), λ_tη_t(2−λ_tη_t)β₀·I) where ḡ is
the mini-batch mean gradient of φ′ clipped to [−γ₁, γ₁]
(``GlmLoss.clipped_phi_prime``), so every gradient obeys the bound G that the
account assumes. Both schedules set λ₁η₁ = 1, so step one's output is
N(0, β₀I) no matter what the data says: the initial draw and the first update
coincide, and a run is exactly T update steps from a zero state.

Two kernels make the updates under one contract,
``kernel(W0, data, loss, orders, steps, noise_gens, log_times) -> (W, logged)``.
Each advances a copy of the (g, k, d) iterates ``W0``: g independent groups
(replicates), each with its own index row ``orders[j]`` and its own noise
generator, and k chains per group, one per dataset, that share the group's
indices and noise row at every step. ``data = (X, y)`` holds every chain's
dataset, X of shape (g, k, n, d) and y of shape (g, k, n): the chains share
n as they share d, since replicates draw the same n rows and neighbouring
datasets differ in one row, not in size. ``_stacked`` stacks them once per
run (no copy for one dataset), and chain (j, i) reads flat row
(j·k + i)·n + orders[j, s], so a block of steps gathers with one ``np.take``
for X and one for y. ``steps`` holds the (η_t, λ_tη_t, σ_t, |M_t|) arrays. A
kernel returns the final iterates and the (g, k, len(log_times), d) iterates
after the ascending steps ``log_times``.

Every step is noisy. A step's account rests on its Gaussian noise and is
infinite where σ_t = 0 (σ_t² underflows to 0 when β₀ is tiny), so a run
builds its steps through ``_schedule_steps``, which refuses such a schedule
before anything runs, and both kernels draw noise at every step.

``_advance`` runs one step at a time, on any batch sizes. Single-pass runs
read disjoint blocks of a pre-shuffled dataset (g = k = 1), and coupled runs
are pairs of chains on neighbouring datasets (g pairs, k = 2). The steps run
in blocks of ``_NOISE_BLOCK_FLOATS // (g·k·d)``: each block gathers its rows
(about 1 MB for unit batches) and draws each group's noise rows into a buffer
that every block reuses.

Multi-pass runs (unit batches, k = 1, one index per step drawn with
replacement) go through ``_advance_blocks``, which advances _BLOCK_STEPS
steps per round trip to NumPy. In a block's own indices, with
a_l = 1 − λ_lη_l, step l maps w_l to a_l·w_l + g_l·x_l + σ_l·z_l with
g_l = −a_l·η_l·φ′_l, so

    w_j = P_j·w₀ + Σ_(l<j) N_jl·(g_l·x_l + σ_l·z_l),
    P_j = a_0···a_(j−1),  N_jl = a_(l+1)···a_(j−1)  (N_jl = 0 for l >= j),

and the margin of step j is P_j·x_jᵀw₀ + Σ_(l<j) N_jl·g_l·K_jl + n_j with
K = XXᵀ, n_j = x_jᵀζ_j and ζ_j = Σ_l A_jl·z_l, the noise carried into w_j,
A = N·diag(σ). Nothing is divided, so a step with a_l = 0 (step one) needs no
care. N, (L+1)×L for a block of L steps, is one masked ``cumprod``. The
coefficients g are found by sweeps
g ← F(g) from g = 0 until a sweep returns g unchanged. Row j of F reads only
rows before j, so row j is final after j + 1 sweeps, at most L + 1 sweeps
run, and the fixed point they stop at is the unique one: the
forward-substitution answer, which is the per-step chain's. The logged
iterates and the block's last one (the block's ends e) take their rows of N
through one more matmul, plus the end sums ζ_e.

The block reads its noise only through n and the ζ_e, so ``_block_noise``
draws those, exactly in law, instead of the L·d normals of the z_l. Let the
L×E matrix Ĉ have orthonormal columns spanning the rows A_e of the E ends.
The ends are nested, and on [0, e) a later row A_e′ is a multiple of A_e, so
column s is row A_(e_s) on [e_(s−1), e_s), normalised (0 if that part
vanishes). Split Z along Ĉ: Ξ = ĈᵀZ is E×d standard normal, ζ_e = A_eĈ·Ξ,
and ζ_j = Ξᵀ·M_jᵀ plus a part independent of Ξ, with M = A·Ĉ. So
n_j = x_jᵀΞᵀM_jᵀ + r_j, where the r_j are jointly Gaussian with
Cov(r_j, r_j′) = K_jj′·Σ_jj′ and Σ = BBᵀ, B = A(I − ĈĈᵀ).

K∘Σ is singular by structure. B_j = 0 for row 0 (A_0 = 0) and for each inner
end (A_e lies in Ĉ's span). ``_block_cov`` zeroes these rows in B, never by a
rounding test, so that their rows of Σ are exactly 0. The other rows are
kept. r is drawn as W·F·u with u ~ N(0, I_L), W = diag(w),
w_j = √(K_jj·Σ_jj) = ‖x_j‖·‖B_j‖, and F the Cholesky factor of W⁻¹(K∘Σ)W⁻¹
with unit rows where w_j = 0: one batched ``np.linalg.cholesky`` over the g
groups and the blocks of a chunk. That matrix is K̂∘Σ′, where K̂ is the
correlation matrix of the x_j and Σ′ that of the kept B_j, each with unit rows
where the row is zero. K̂ is positive semidefinite with a unit diagonal, so by
Schur's bounds λ_min(Σ′) <= λ(K̂∘Σ′) <= λ_max(Σ′): the factor is as well
conditioned as Σ′, a property of the schedule whatever the data, and of
neither β₀ nor the step. Repeated, zero or tiny rows and d < L need no
special case.

Σ′ is positive definite. Row j+1 of A has σ_j > 0 in column j and nothing
after it, so the rows A_1..A_L are independent, and projecting out the span
of the ends' rows leaves the kept rows independent. Each group reads E·d
normals for Ξ, then L for u, whatever the rank: d + L per block at the usual
E = 1, against L·d for the z_l. The draw is exact for one chain per group,
which is why ``_advance_blocks`` takes k = 1: chains that shared noise would
need the joint law of all their margins.

The two kernels therefore agree in law, not bit for bit. With a full draw of
the z_l in ``_advance``'s order put in place of ``_block_noise``, they see the
same indices and noise and do the same arithmetic in another order, so they
differ only by rounding: tests/test_engine.py holds them within
1e-12·max(1, max|w|) that way, and tests the law of the draw on its own.

K has two routes, chosen once per call from the batch's n, d and T
(``_gram_route``). Every entry of K is an entry of the group's n×n data Gram,
whose n²·d multiply-adds are paid once per call, against L·d per step for the
blocks' own Grams. So the groups gather K from their data Grams iff n <= d,
where a Gram holds no more floats than the rows, and n² <= _BLOCK_STEPS·T,
where it costs no more multiply-adds; else they multiply their rows, K = XXᵀ,
with one batched matmul a chunk. The Grams are one batched product over C-ordered
rows, each group's from its own rows alone, so a group's bits depend neither
on its data's memory layout nor on what runs beside it. The two routes sum the
same products in a different BLAS tiling, so they agree up to rounding, not
bit for bit; tests/test_engine.py holds both to ``_advance`` within the same
1e-12.

``_advance_blocks`` works a chunk at a time: a run of consecutive blocks
with the same length and the same logged steps inside them (``_chunks``),
capped so that its rows (g·L·d floats a block) and its K (g·L²) each fit in
``_NOISE_BLOCK_FLOATS``, the per-step kernel's bound. It first prepares the
chunk, one NumPy call for all its blocks wherever the iterate is not read:
the rows, K, P and N, ``_block_cov``, the normals, X·Ξᵀ,
K̂∘Σ′ and its Cholesky factors. Then it solves the blocks one by one, doing
only what reads W: the base margins P·XW + n, the sweeps and the end
iterates. Each group's normals for the chunk come from one
``standard_normal`` call on its generator, block after block, and one draw
of m normals gives the numbers of successive draws that add up to m; no
other operation changes its order within a block either, so every chunking
gives the same bits.

A run stacks its replicates' data and index rows and makes one kernel call;
it refuses replicates whose n or d differ. Every replicate draws from its own
generators, so its output does not depend on which replicates run beside it.

The engine runs whatever coordinates it is given: the privacy-utility
experiment hands it each replicate's data in a basis of the rows' span, and
lifts the result itself (see ``harness``). On d-dimensional data it is the
library path and the reference that the reduced chains are tested against.
A run returns the kernels' arrays, its logged steps and the iterates after
them (the last is the final one); scoring them (risk, norms) is the caller's
job. Under the logistic and smoothed-hinge losses a run refuses labels
outside [−1, 1], on which their gradient bound G rests.
"""

from __future__ import annotations

import bisect

import numpy as np

from .core import (
    Dataset, InfinitePrivacyLossError, InvalidParameterError, RngStream, _require_count, _require_times,
    seeded_rng,
)
from .losses import QUADRATIC, GlmLoss, loss_bounds
from .schedules import MultiPassSchedule, SinglePassSchedule, _noise_scales

# A block of steps gathers about 1 MB of rows (unit batches) across all
# chains and draws its noise rows at once: one (m, d) draw gives the same
# numbers as m successive draws of d. A chunk of _advance_blocks keeps its
# rows, and its K, within the same bound.
_NOISE_BLOCK_FLOATS = 1 << 17
# Unit-batch steps per block of _advance_blocks. With k = 256 on a 2-core Xeon
# VM, 64 ran best at 2 replicates and 16 at 30 (the Gram matmuls grow with
# the block); 32 was within 10 % of the best at both.
_BLOCK_STEPS = 32
# Masks of a block's (L+1)×L matrix N: N_jl is a product where l < j (else 0),
# and that product has the factor a_(j−1) where l < j − 1.
_BEFORE = np.tri(_BLOCK_STEPS + 1, _BLOCK_STEPS, k=-1)
_BEFORE_LAST = np.tri(_BLOCK_STEPS + 1, _BLOCK_STEPS, k=-2, dtype=bool)
# The smallest scale whose square is a normal float64. A row of K∘Σ with a
# smaller scale is normalised as if it had this one, which keeps 1/w² finite.
_MIN_SCALE = np.sqrt(np.finfo(np.float64).tiny)


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
    return etas, lambda_etas, _noise_scales(lambda_etas, beta0), batch_sizes


def _schedule_steps(schedule) -> tuple:
    """``_steps`` of a schedule's arrays; refuses a schedule with σ_t = 0 at any
    step, naming the first (the module docstring says why)."""
    steps = _steps(schedule.etas, schedule.lambda_etas, schedule.beta0, schedule.batch_sizes)
    sigmas = steps[2]
    if not sigmas.all():
        raise InfinitePrivacyLossError(
            f"sigma_t = 0 at step t = {int(sigmas.argmin()) + 1} of {len(sigmas)}: a step "
            f"without noise has unbounded privacy loss (beta0 = {schedule.beta0:.6g})"
        )
    return steps


def _stacked(datasets, k: int = 1) -> tuple:
    """(X, y) of g·k datasets of one shape, in order: X of shape (g, k, n, d)
    and y of shape (g, k, n).

    The arrays are copied unless there is one dataset, so that a block of
    steps gathers the rows of all its chains with one ``np.take``.
    """
    if len(datasets) == 1:
        X, y = datasets[0].X[None], datasets[0].y[None]
    else:
        X, y = np.stack([data.X for data in datasets]), np.stack([data.y for data in datasets])
    return X.reshape(-1, k, *X.shape[1:]), y.reshape(-1, k, y.shape[1])


def _advance(W0, data: tuple, loss: GlmLoss, orders, steps: tuple, noise_gens, log_times) -> tuple:
    """The per-step kernel: the module docstring gives its contract.

    Step t reads the next |M_t| entries of group j's index row ``orders[j]``
    and one noise row from ``noise_gens[j]``, the same for the group's k
    chains.
    """
    etas, lambda_etas, sigmas, batch_sizes = steps
    W = np.array(W0, dtype=np.float64)
    W_col = W[..., None]
    g, k, d = W.shape
    X_all, y_all = data
    firsts = X_all.shape[2] * np.arange(g * k).reshape(g, k, 1)
    X_all, y_all = X_all.reshape(-1, d), y_all.reshape(-1)
    logged = np.empty((g, k, len(log_times), d))
    slots = {t: i for i, t in enumerate(log_times)}
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
        noise = noise_block[:, : len(sig)]
        for gen, group_noise in zip(noise_gens, noise):
            gen.standard_normal(out=group_noise)
        # σ_t·z_t for the whole block at once: the same products as step by step
        noise *= sig[:, None, None]
        q = 0
        for t, b, eta, le, z in zip(
            range(start + 1, stop + 1), sizes.tolist(),
            etas[start:stop].tolist(), lambda_etas[start:stop].tolist(), noise.swapaxes(0, 1),
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
            W += z
            if t in slots:
                logged[:, :, slots[t]] = W
    return W, logged


def _block_cov(A, ends) -> tuple:
    """(M, Σ) of a stack of blocks: ``A`` holds each one's N·diag(σ), (L+1)×L,
    and ``ends`` ascend to L, the same for every block.

    M = A·Ĉ is (B, L+1, E), and Σ = BBᵀ, (B, L, L), with B = A(I − ĈĈᵀ), its
    rows zeroed where B_j is zero by structure: row 0 and the inner ends. The
    module docstring gives the reasons.
    """
    L = A.shape[-1]
    # Ĉ: row A_(e_s) on [e_(s−1), e_s), normalised (0 where it vanishes). The
    # ends are nested, so these disjoint pieces span every row A_e.
    C = np.zeros((len(A), L, len(ends)))
    lo = 0
    for s, e in enumerate(ends):
        piece = A[:, e, lo:e]
        # vecdot: each block's dot product piece·piece, as ``piece @ piece`` forms it
        norm = np.sqrt(np.vecdot(piece, piece))[:, None]
        np.divide(piece, norm, out=C[:, lo:e, s], where=norm > 0.0)
        lo = e
    M = A @ C
    # Σ formed as BBᵀ: no difference to round below 0
    B = A[:, :L] - M[:, :L] @ C.mT
    B[:, [0, *ends[:-1]]] = 0.0
    return M, B @ B.mT


def _block_noise(X, K, A, ends, noise_gens) -> tuple:
    """(n, S) of a stack of B blocks, exact in law: the margin noise n_j = x_jᵀζ_j and the end sums ζ_e.

    ``X`` holds each block's (g, L, d) rows and ``K`` their (g, L, L) Grams;
    ζ_j = Σ_l A_jl·z_l with ``A`` = N·diag(σ), (B, L+1, L); ``ends`` ascend to
    L. Returns n, (B, g, L), and S, (B, g, len(ends), d). Each group's
    generator gives E·d + L normals a block (E = len(ends)), the B blocks'
    in one draw. The module docstring gives the draw.
    """
    blocks, g, L, d = X.shape
    E = len(ends)
    M, Sigma = _block_cov(A, ends)
    draws = np.empty((g, blocks, E * d + L))
    for gen, row in zip(noise_gens, draws):
        gen.standard_normal(out=row)
    draws = draws.swapaxes(0, 1)
    Xi = draws[..., : E * d].reshape(blocks, g, E, d)
    n = ((X @ Xi.mT) * M[:, None, :L]).sum(axis=-1)
    # the rest of each ζ_j is independent of Ξ, with covariance K∘Σ: drawn as
    # W·F·u, F the Cholesky factor of K̂∘Σ′ = W⁻¹(K∘Σ)W⁻¹ with unit rows where
    # w_j = √(K_jj·Σ_jj) = ‖x_j‖·‖B_j‖ is 0
    KS = K * Sigma[:, None]
    scales = np.sqrt(KS.diagonal(axis1=-2, axis2=-1))
    # a row with w_j = 0 is zero, so any finite 1/w_j zeroes it
    inverse = 1.0 / np.maximum(scales, _MIN_SCALE)
    KS *= inverse[..., :, None] * inverse[..., None, :]
    diagonal = np.arange(L)
    KS[..., diagonal, diagonal] = 1.0
    n += (np.linalg.cholesky(KS) @ draws[..., E * d :, None])[..., 0] * scales
    return n, M[:, None, ends] @ Xi


def _chunks(T: int, log_times, most: int):
    """Runs of at most ``most`` consecutive blocks alike in length and in the steps they log.

    Yields (start, count, L, logs): the run's first step, its number of
    blocks, their length L and the steps each logs, counted from its own
    start.
    """
    chunk = None
    done = 0  # log steps passed
    for start in range(0, T, _BLOCK_STEPS):
        stop = min(T, start + _BLOCK_STEPS)
        end = bisect.bisect_right(log_times, stop, lo=done)
        key = [stop - start, [t - start for t in log_times[done:end]]]
        done = end
        if chunk and chunk[1] < most and chunk[2:] == key:
            chunk[1] += 1
            continue
        if chunk:
            yield tuple(chunk)
        chunk = [start, 1, *key]
    if chunk:
        yield tuple(chunk)


def _gram_route(n: int, d: int, T: int) -> bool:
    """Whether groups of n rows take their blocks' K from their data Grams:
    iff n <= d and n² <= _BLOCK_STEPS·T."""
    return n <= d and n * n <= _BLOCK_STEPS * T


def _advance_blocks(W0, data: tuple, loss: GlmLoss, orders, steps: tuple, noise_gens, log_times) -> tuple:
    """The block kernel for unit batches and one chain per group (k = 1).

    The module docstring gives its contract, its solve, its noise draw, its
    chunks and the two routes of K. Group j reads its rows in the order
    ``_advance`` reads them, its K from its data Gram where ``_gram_route``
    says so, and its noise from ``noise_gens[j]`` through ``_block_noise``.
    """
    etas, lambda_etas, sigmas, _ = steps
    W = np.array(W0, dtype=np.float64)
    g, k, d = W.shape
    T = len(etas)
    X_all, y_all = data
    n = X_all.shape[2]
    # K from the data Grams where they are cheaper, else from each block's rows
    # (the two routes agree up to rounding)
    gathered = _gram_route(n, d, T)
    if gathered:
        # C order, whatever the data's layout: a group's Gram has the bits of its rows alone
        X_c = np.ascontiguousarray(X_all)
        grams = (X_c @ X_c.mT).reshape(-1)
    firsts = n * np.arange(g)[:, None]
    X_all, y_all = X_all.reshape(-1, d), y_all.reshape(-1)
    shrinks = 1.0 - lambda_etas
    grad_coefs = (lambda_etas - 1.0) * etas  # g_l = −a_l·η_l·φ′_l
    logged = np.empty((g, k, len(log_times), d))
    # a chunk's rows, and its K, fit in _NOISE_BLOCK_FLOATS
    most = max(1, _NOISE_BLOCK_FLOATS // (g * _BLOCK_STEPS * max(d, _BLOCK_STEPS)))
    done = 0  # iterates logged so far
    for start, count, L, logs in _chunks(T, log_times, most):
        stop = start + count * L
        # the logged iterates and each block's last one
        ends = logs if logs and logs[-1] == L else [*logs, L]
        # prepare the chunk: all that does not read W
        # row j holds a_(j−1): P is its running product, N_jl its product over rows l+2..j
        shifted = np.ones((count, L + 1))
        shifted[:, 1:] = shrinks[start:stop].reshape(count, L)
        P = shifted.cumprod(axis=1)
        N = np.where(_BEFORE_LAST[: L + 1, :L], shifted[..., None], 1.0).cumprod(axis=1)
        N *= _BEFORE[: L + 1, :L]
        local = orders[:, start:stop].reshape(g, count, L).swapaxes(0, 1)
        rows = (local + firsts)[:, :, None]
        X = np.take(X_all, rows, axis=0)
        y = np.take(y_all, rows)
        if gathered:
            # K_jl is entry (i_j, i_l) of group j's n×n Gram, whose row i_j is flat row rows_j
            K = np.take(grams, rows[..., None] * n + local[:, :, None, None])
        else:
            K = X @ X.mT
        noise, ends_noise = _block_noise(
            X[:, :, 0], K[:, :, 0], N * sigmas[start:stop].reshape(count, 1, L), ends, noise_gens
        )
        K *= N[:, None, None, :L]
        # solve block by block: margins = base + (N∘K)·g, base_j = P_j·x_jᵀw₀ + n_j
        for X_b, y_b, K_b, P_b, P_ends, N_b, phi_scale, noise_b, ends_noise_b in zip(
            X, y, K, P[:, :L], P[:, ends, None], N[:, ends], grad_coefs[start:stop].reshape(count, L),
            noise, ends_noise,
        ):
            base = P_b * (X_b @ W[..., None])[..., 0]
            base += noise_b[:, None]
            # row j of the sweep reads only rows before it, so it is final after
            # j + 1 sweeps; the fixed point is the forward-substitution answer.
            # The first sweep, from g = 0, reads the base margins alone.
            coefs = np.zeros((g, k, L))
            margins = base
            for _ in range(L + 1):
                swept = loss.clipped_phi_prime(margins, y_b)
                swept *= phi_scale
                if (swept == coefs).all():
                    break
                coefs = swept
                margins = (K_b @ coefs[..., None])[..., 0]
                margins += base
            # the ends' iterates from their rows of N
            out = (coefs[..., None, :] * N_b) @ X_b
            out += ends_noise_b[:, None]
            out += P_ends * W[..., None, :]
            logged[:, :, done : done + len(logs)] = out[:, :, : len(logs)]
            done += len(logs)
            W = out[:, :, -1]
    return W, logged


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
    shapes = sorted({data.X.shape for data in datasets})
    if len(shapes) > 1:
        raise InvalidParameterError(f"replicates run together must share n and d, got (n, d) in {shapes}")


def _logged_runs(datasets, loss, schedule, orders, rngs, log_interval):
    """One chain per dataset from zero through its row of ``orders``.

    Logged as run_single_pass describes; returns (times, iterates) with
    iterates of shape (len(datasets), len(times), d). Multi-pass schedules
    run through _advance_blocks, single-pass ones through _advance.
    """
    T = schedule.T
    if log_interval is None:
        log_interval = max(1, T // 1000)
    _require_count("log_interval", log_interval, 1)
    times = list(range(log_interval, T + 1, log_interval))
    if T % log_interval:
        times.append(T)
    steps = _schedule_steps(schedule)
    gens = [rng.substream(1).generator for rng in rngs]
    kernel = _advance_blocks if isinstance(schedule, MultiPassSchedule) else _advance
    _, logged = kernel(
        np.zeros((len(datasets), 1, datasets[0].d)), _stacked(datasets), loss, orders, steps, gens, times
    )
    return times, logged[:, 0]


def run_single_pass(
    dataset: Dataset,
    loss: GlmLoss,
    schedule: SinglePassSchedule,
    rng: RngStream,
    log_interval: int | None = None,
) -> tuple[list, np.ndarray]:
    """Run T steps over disjoint blocks of a pre-shuffled dataset.

    Requires dataset.n >= the schedule's sample budget; consumes exactly the
    budget, each example at most once. ``rng`` is split into a shuffle stream
    and a noise stream, so two runs with equal (dataset, schedule, seed)
    return equal (times, iterates): the logged steps, ascending to T, and the
    (len(times), d) iterates after them.

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
    times, iterates = _logged_runs([dataset], loss, schedule, order[None], [rng], log_interval)
    return times, iterates[0]


def run_multi_pass(
    datasets,
    loss: GlmLoss,
    schedule: MultiPassSchedule,
    rngs,
    log_interval: int | None = None,
) -> tuple[list, np.ndarray]:
    """Run T steps per replicate, each sampling one example per step uniformly with replacement.

    Replicate r runs on ``datasets[r]`` with stream ``rngs[r]``, split into an
    index stream and a noise stream as in run_single_pass. The replicates must
    share n and d; they advance together. Returns (times, iterates) as
    run_single_pass does, with iterates of shape (R, len(times), d): row r is
    bit for bit what a run of replicate r alone returns.
    """
    datasets, rngs = list(datasets), list(rngs)
    _require_batch(datasets, rngs)
    _require_labels(loss, datasets)
    indices = np.stack([
        rng.substream(0).generator.integers(0, data.n, size=schedule.T)
        for data, rng in zip(datasets, rngs)
    ])
    return _logged_runs(datasets, loss, schedule, indices, rngs, log_interval)


def coupled_stability_run(pairs, loss: GlmLoss, schedule: MultiPassSchedule, seeds, times) -> np.ndarray:
    """Run pairs of chains on neighboring datasets under shared randomness.

    In each pair (dataset, dataset′) the datasets must agree everywhere except
    possibly the last example. The pair's two chains share the index stream
    seeded_rng(seed, 0) and the noise stream seeded_rng(seed, 1), so their
    squared distance grows only when the differing index is sampled. Pairs
    must share n and d; they advance together. ``times`` are steps in 1..T,
    in any order and with repeats. Returns the (R, len(times)) array whose entry
    (r, i) is ‖w_t − w_t′‖₂² of pair r at step t = times[i].
    """
    pairs, seeds = list(pairs), list(seeds)
    if any(dataset.X.shape != dataset_prime.X.shape for dataset, dataset_prime in pairs):
        raise InvalidParameterError("neighboring datasets must share n and d")
    _require_batch([dataset for dataset, _ in pairs], seeds)
    X, y = _stacked([data for pair in pairs for data in pair], 2)
    if not ((X[:, 0, :-1] == X[:, 1, :-1]).all() and (y[:, 0, :-1] == y[:, 1, :-1]).all()):
        raise InvalidParameterError("neighboring datasets may differ only in the last example")
    _require_labels(loss, [data for pair in pairs for data in pair])
    bounds = loss_bounds(loss)
    eta1 = schedule.etas[0]
    if bounds.L > 0 and eta1 > 1.0 / bounds.L:
        raise InvalidParameterError(
            f"eta_1 = {eta1:.6g} exceeds 1/L = {1.0 / bounds.L:.6g}"
        )
    log_times, slots = np.unique(_require_times(times, schedule.T), return_inverse=True)
    steps = _schedule_steps(schedule)
    indices = np.stack([
        seeded_rng(seed, 0).generator.integers(0, a.n, size=schedule.T)
        for (a, _), seed in zip(pairs, seeds)
    ])
    _, logged = _advance(
        np.zeros((len(pairs), 2, pairs[0][0].d)), (X, y), loss, indices, steps, [seeded_rng(seed, 1).generator for seed in seeds], log_times.tolist(),
    )
    diff = logged[:, 0] - logged[:, 1]
    # batched matmul, not einsum: einsum sums in another order
    return (diff[..., None, :] @ diff[..., None])[..., 0, 0][:, slots]
