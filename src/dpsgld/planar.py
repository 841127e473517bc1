"""The exact two-coordinate reduction of the sphere and ball laws.

The data law puts w* on e₁, and the sphere and ball laws are invariant under
the rotations that fix e₁. So on them, with d >= 3 (``applies``), a
single-pass run and its score need only the pair (α, β) = (w₁, ‖w − w₁e₁‖)
of each iterate w, whatever d is. This module passes (g, 2) arrays of pairs;
``pairs`` projects d-vectors onto them. A row is r·g/‖g‖ with g ~ N(0, I_d)
and r the ball radius (1 on the sphere). Rotating a frame (e₁, v) onto the
first two axes leaves g's law unchanged, so the row's (e₁, v) coordinates
are r·(g₁, g₂)/‖g‖, and its part outside span{e₁, v}, like the noise's, is
a standard Gaussian vector in R^(d−2).

Scoring: the loss of w at x reads x only through its coordinates in the
frame of span{e₁, w}, so held-out rows are drawn as r·(g₁, g₂)/‖g‖ with
‖g‖² = g₁² + g₂² + χ²_(d−2) (``_held_out_margins``): each estimate has its
d-dimensional law, and iterates scored together share the draws.

The chain (``single_pass``) runs (α, β) from (0, 0). A single pass reads
each i.i.d. row once, so step t may use fresh rows in the frame (e₁, v), v
the direction of w's part orthogonal to e₁. Only the Gram matrix S of the b
rows' and the noise's outside parts enters the step, through
‖g_i‖² = g_i1² + g_i2² + S_ii and the new orthogonal length: with
a = 1 − λ_tη, α ← a(α − (η/b)Σφ′_i x_i1) + σ_t z₁ and β ← √(β₂² + cᵀSc),
where β₂ = a(β − (η/b)Σφ′_i x_i2) + σ_t z₂, c_i = −a(η/b)φ′_i r_i/‖g_i‖ and
c_(b+1) = σ_t, with φ′ clipped to [−γ₁, γ₁] as in the engine. S is drawn as
LLᵀ from its Bartlett factor (χ_(d−2−j) on the diagonal, N(0, 1) below it),
which has rank min(b + 1, d − 2) and is kept (b + 1)×(b + 1), its columns past
d − 2 zero, so a step costs O(b²) whatever d is and the draws of every cell of
one schedule stack. The low-rank law and d < 3 run the engine on drawn data,
this chain's reference.
"""

from __future__ import annotations

import numpy as np

from .engine import _schedule_steps

# Rows per chunk of the 2-D held-out sampler. It depends on neither d nor the
# number of iterates, so an iterate scored alone sees the same draws as when
# scored beside others.
_MARGIN_CHUNK_ROWS = 1 << 13

# Floats per chain in one block of the single-pass chain's bulk draws.
_REDUCED_BLOCK_FLOATS = 1 << 16


def applies(model) -> bool:
    """Whether the law is the sphere or ball law with d >= 3, so the reduction is exact."""
    return model.feature_law != "low-rank" and model.d >= 3


def pairs(W: np.ndarray) -> np.ndarray:
    """The (α, β) = (w₁, ‖w − w₁e₁‖) pair of each row w of W, as a (g, 2) array."""
    # an iterate parallel to wStar gets a second coordinate of exactly 0
    across = W.copy()
    across[:, 0] = 0.0
    return np.stack([W[:, 0], np.linalg.norm(across, axis=1)], axis=1)


def _held_out_margins(model, pairs: np.ndarray, rows: int, gen):
    """(margins, y) of ``rows`` held-out rows drawn from ``gen``: margins[i, j]
    is pair j's margin at row i, and y the rows' labels."""
    P = gen.standard_normal((rows, 2))
    P /= np.sqrt(np.sum(P * P, axis=1) + gen.chisquare(model.d - 2, rows))[:, None]
    if model.feature_law == "ball":
        P *= gen.uniform(0.5, 1.0, size=(rows, 1))
    # (2, g) in C order, the layout the scorer has always handed P @ coords
    return P @ pairs.T.copy(), model.labels(model.wstar_norm * P[:, 0], gen)


def mean_and_se(loss, chunks, n_test: int) -> tuple[np.ndarray, np.ndarray]:
    """Each iterate's mean loss and its standard error over the (margins, y)
    chunks of an n_test-row sample, 2-D here or d-dimensional in ``datagen``."""
    total = total_sq = 0.0
    for margins, y in chunks:
        values = loss.phi(margins, y[:, None])
        total = total + values.sum(axis=0)
        total_sq = total_sq + (values * values).sum(axis=0)
    mean = total / n_test
    var = np.maximum(total_sq / n_test - mean * mean, 0.0)
    return mean, np.sqrt(var / n_test)


def population_risk(loss, pairs: np.ndarray, model, n_test: int, gen):
    """(estimates, standard errors) of the iterates with these pairs on one shared
    2-D sample, drawn and scored a chunk of rows at a time."""
    chunks = (
        _held_out_margins(model, pairs, min(_MARGIN_CHUNK_ROWS, n_test - done), gen)
        for done in range(0, n_test, _MARGIN_CHUNK_ROWS)
    )
    return mean_and_se(loss, chunks, n_test)


def _reduced_draws(model, b: int, steps: int, gen):
    """The state-free draws of ``steps`` reduced-chain steps of batch size b.

    Returns (x, scale, y, z, L): the rows' (e₁, v) coordinates x (steps, b, 2),
    their r/‖g‖ (steps, b), labels (steps, b), the noise's (e₁, v) part
    (steps, 2), and the Bartlett factor L (steps, b + 1, b + 1) of the Gram
    matrix of the b + 1 parts outside span{e₁, v}, whose columns past d − 2
    are zero.
    """
    p = model.d - 2
    m = b + 1
    q = min(m, p)
    L = np.zeros((steps, m, m))
    # the draws land below the diagonal of the first q columns, in one copy
    np.copyto(L[..., :q], gen.standard_normal((steps, m, q)), where=np.tri(m, q, -1, dtype=bool))
    diag = np.arange(q)
    L[:, diag, diag] = np.sqrt(gen.chisquare(p - diag, size=(steps, q)))
    g = gen.standard_normal((steps, b, 2))
    scale = 1.0 / np.sqrt((g * g).sum(axis=2) + (L[:, :b, :q] ** 2).sum(axis=2))
    if model.feature_law == "ball":
        scale *= gen.uniform(0.5, 1.0, size=(steps, b))
    x = g * scale[..., None]
    y = model.labels(model.wstar_norm * x[..., 0].reshape(-1), gen).reshape(steps, b)
    return x, scale, y, gen.standard_normal((steps, 2)), L


def single_pass(models, loss, schedule, gens) -> np.ndarray:
    """Final pairs of the single-pass chains of cells that share ``schedule``, run as one batch.

    Chain (cell i, replicate r) draws with model i from ``gens[i][r]``, a
    generator of its own, a block of steps of one batch size at a time; a
    block's length depends only on b, so a chain's output does not depend on
    which cells or replicates run beside it. Returns the (cells, replicates, 2)
    array of final pairs.
    """
    chains = [(model, gen) for model, cell in zip(models, gens) for gen in cell]
    # (α, β) of every chain, updated in place
    state = np.zeros((len(chains), 2))
    beta = state[:, 1]
    etas, lambda_etas, sigmas, sizes = _schedule_steps(schedule)
    shrinks, etas = (1.0 - lambda_etas).tolist(), etas.tolist()
    runs = np.flatnonzero(np.diff(sizes, prepend=0, append=0))
    for lo, hi in zip(runs[:-1], runs[1:]):
        b = int(sizes[lo])
        c = np.empty((len(chains), b + 1))
        block = max(1, _REDUCED_BLOCK_FLOATS // ((b + 1) * (b + 1)))
        for start in range(lo, hi, block):
            stop = min(hi, start + block)
            draws = [_reduced_draws(model, b, stop - start, gen) for model, gen in chains]
            x, scale, y, sz, L = (np.stack(part) for part in zip(*draws))
            sig = sigmas[start:stop]
            # σ_t·z_t for the whole block at once: the same products as step by step
            sz *= sig[:, None]
            for k, a, eta, s in zip(
                range(stop - start), shrinks[start:stop], etas[start:stop], sig.tolist()
            ):
                xk = x[:, k]
                margins = state[:, :1] * xk[..., 0] + state[:, 1:] * xk[..., 1]
                # u_i = −a(η/b)φ′_i: the drift is Σu_i·x_i and c_i = u_i·r_i/‖g_i‖
                u = loss.clipped_phi_prime(margins, y[:, k]) * (-a * eta / b)
                # a(α, β) + drift + σz, with β the in-span part β₂ until the root below
                state *= a
                state += (u[..., None] * xk).sum(axis=1)
                state += sz[:, k]
                np.multiply(u, scale[:, k], out=c[:, :b])
                c[:, b] = s
                # cᵀSc = ‖Lᵀc‖²
                outside = (c[..., None] * L[:, k]).sum(axis=1)
                beta *= beta
                beta += (outside * outside).sum(axis=1)
                np.sqrt(beta, out=beta)
    return state.reshape(len(models), -1, 2)
