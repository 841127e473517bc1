"""Named experiments emitting machine-readable CSV rows.

Four experiments: excess-risk-vs-n (single pass, rate in n),
dimension-independence (fixed n, growing d), stability (coupled chains on
neighboring datasets against the closed-form bound), and privacy-utility
(multi pass, risk across an epsilon grid).

An experiment is its cells (``_cells``): the loss and, for each row group,
the data law and schedule. Building an ``ExperimentConfig`` builds them, so
what they refuse is refused before anything runs. ``run_experiment`` builds
them once more, passes every cell's schedule through the engine's
``_schedule_steps`` before any data is drawn, so a schedule with σ_t = 0 at
some step is refused before any cell runs or any file is written, and hands
the loss and cells to the experiment's runner, which runs those very cells.

Determinism contract: every row is a pure function of (config, seed).
Replicate r draws everything from stream id r of the base seed; the held-out
evaluation sample lives on its own stream shared by all evaluations, so risks
are compared under common random numbers. Wall-clock time goes to the sidecar
text file, never into the CSV, so reruns are byte-identical.

The single-pass experiments run ``planar``'s exact-in-law chain of
(α, β) = (w₁, ‖w − w₁e₁‖) on the sphere and ball laws with d >= 3, one batch
per schedule, and score its pairs directly. The low-rank law and d < 3 run
the engine on drawn data, which is also the reference the reduced chain is
tested against.

Privacy-utility runs each multi-pass chain in the span of its data. A
gradient φ′·x lies in span{x₁…x_n}, so the iterate's part orthogonal to that
span is a data-free Gaussian AR(1) chain, and the rest lives in the
k = min(n, d) coordinates of an orthonormal basis Q of the rows. The engine
runs on the projected data XQ, and each logged iterate is lifted to d
dimensions with an exact draw of the orthogonal part (``_complement``). The
lifted chain has the d-dimensional chain's law, jointly over the logged
steps, while a step costs O(k) instead of O(d). The sidecar names the
simulator behind each experiment.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, fields, replace

import numpy as np

from . import losses, planar
from .core import Dataset, InvalidParameterError, RngStream, _fmt, _require_count, _require_times, seeded_rng
from .datagen import (
    LOGISTIC_KIND,
    QUADRATIC_KIND,
    PopulationModel,
    draw_dataset,
    population_risk_many,
)
from .engine import _schedule_steps, coupled_stability_run, run_multi_pass, run_single_pass
from .losses import GlmLoss, loss_bounds
from .oracles import stability_bound, theorem1_excess_bound, theorem2_excess_bound
from .privacy import certify_theorem1, certify_theorem2
from .schedules import SINGLE_PASS, multi_pass_schedule, single_pass_schedule

EXCESS_RISK_VS_N = "excess-risk-vs-n"
DIMENSION_INDEPENDENCE = "dimension-independence"
STABILITY = "stability"
PRIVACY_UTILITY = "privacy-utility"
EXPERIMENTS = (EXCESS_RISK_VS_N, DIMENSION_INDEPENDENCE, STABILITY, PRIVACY_UTILITY)

# stream ids inside one replicate: the engine takes 0 (sampling) and 1 (noise)
DATA_SUBSTREAM = 10
# the multi-pass chain's part orthogonal to the data, sampled at logged times
COMPLEMENT_SUBSTREAM = 11
# stream id reserved for the shared held-out evaluation sample
EVAL_STREAM = 1 << 20

# What produces each experiment's rows, named in its sidecar.
_SINGLE_PASS_SIMULATOR = (
    "the exact-in-law chain of (w1, |w - w1 e1|) on the sphere and ball laws with d >= 3; "
    "engine.run_single_pass on d-dimensional data for the low-rank law and d < 3"
)
SIMULATORS = {
    EXCESS_RISK_VS_N: _SINGLE_PASS_SIMULATOR,
    DIMENSION_INDEPENDENCE: _SINGLE_PASS_SIMULATOR,
    STABILITY: "engine.coupled_stability_run on d-dimensional data",
    PRIVACY_UTILITY: (
        "engine.run_multi_pass in the span of each replicate's data; "
        "lifted to d dimensions with an exact draw of the orthogonal part; "
        "steps advance in blocks whose margins are solved exactly, "
        "equal to the per-step chain up to rounding"
    ),
}

LOGLOG_FLOOR = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs; zeros mean per-n defaults.

    epsilon = 0 resolves to n^(-1/4) and delta = 0 to 1/n² at each grid
    point. d_grid drives dimension-independence, stability and
    privacy-utility; excess-risk-vs-n ignores it and uses d = dim_factor·n,
    and it alone reads more than one n. Rows are keyed by their grid values,
    so no grid may repeat one. Building a config builds its cells
    (``_cells``): the loss, data law and schedule refuse what they cannot
    run, in their own words, so an infeasible schedule (T = round(n^α·ε²)
    < 1, or n·δ >= 2.5) is refused here by every experiment, as are stability
    checkpoints outside 1..T. The cells check only the fields their
    experiment reads; the CLI refuses the rest as keys.
    """

    experiment: str
    n_grid: tuple[int, ...] = (128, 256, 512, 1024, 2048)
    d_grid: tuple[int, ...] = ()
    eps_grid: tuple[float, ...] = ()
    replicates: int = 30
    n_test: int = 100_000
    seed: int = 1234
    out_dir: str = "."
    loss_family: str = losses.LOGISTIC
    hinge_half_width: float = 0.5
    feature_law: str = "ball"
    wstar_norm: float = 2.0
    label_noise: float = 0.1
    eta0: float = 1.0
    pass_exponent: float = 2.0
    epsilon: float = 0.0
    delta: float = 0.0
    dim_factor: int = 2
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidParameterError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if len(self.n_grid) == 0:
            raise InvalidParameterError("n grid must be nonempty")
        if any(not n >= 2 for n in self.n_grid):
            raise InvalidParameterError(f"every n must be >= 2, got {self.n_grid}")
        if self.replicates < 2:
            raise InvalidParameterError(f"replicates must be >= 2, got {self.replicates}")
        if self.n_test < 100:
            raise InvalidParameterError(f"n_test must be >= 100, got {self.n_test}")
        # checked here too, so a bad seed is refused before any cell runs
        _require_count("seed", self.seed, 0)
        if self.experiment == DIMENSION_INDEPENDENCE and len(self.d_grid) == 0:
            raise InvalidParameterError("dimension-independence needs a d grid")
        if self.experiment == PRIVACY_UTILITY and len(self.eps_grid) == 0:
            raise InvalidParameterError("privacy-utility needs an epsilon grid")
        if self.experiment in (STABILITY, PRIVACY_UTILITY) and len(self.d_grid) != 1:
            raise InvalidParameterError(f"{self.experiment} needs exactly one d")
        if self.experiment != EXCESS_RISK_VS_N and len(self.n_grid) != 1:
            raise InvalidParameterError(f"{self.experiment} needs exactly one n")
        if self.dim_factor < 1:
            raise InvalidParameterError(f"dim factor must be >= 1, got {self.dim_factor}")
        for name, value in (("epsilon", self.epsilon), ("delta", self.delta)):
            if not value >= 0:
                raise InvalidParameterError(
                    f"{name} must be >= 0 (0 means the per-n default), got {value}"
                )
        for name, grid in (
            ("n", self.n_grid), ("d", self.d_grid), ("epsilon", self.eps_grid),
            ("checkpoint", self.checkpoints),
        ):
            if len(set(grid)) != len(grid):
                raise InvalidParameterError(f"the {name} grid repeats a value, got {grid}")
        _, cells = _cells(self)
        if self.experiment == STABILITY and self.checkpoints:
            # refused here, not after every replicate's data is drawn
            _require_times(self.checkpoints, cells[0][2].T)


# The ExperimentConfig fields each experiment never reads; the CLI refuses them.
UNREAD_FIELDS = {
    EXCESS_RISK_VS_N: ("d_grid", "eps_grid", "pass_exponent", "checkpoints"),
    DIMENSION_INDEPENDENCE: ("eps_grid", "pass_exponent", "dim_factor", "checkpoints"),
    STABILITY: ("eps_grid", "n_test", "dim_factor"),
    PRIVACY_UTILITY: ("epsilon", "dim_factor", "checkpoints"),
}


def unread_fields(experiment: str, loss_family: str) -> tuple[str, ...]:
    """The fields ``experiment`` never reads; only smoothed hinge reads its
    half-width, and only the quadratic family's real labels the label noise."""
    unread = UNREAD_FIELDS[experiment]
    if loss_family != losses.SMOOTHED_HINGE:
        unread += ("hinge_half_width",)
    if loss_family != losses.QUADRATIC:
        unread += ("label_noise",)
    return unread


def default_config(experiment: str, seed: int = 1234, out_dir: str = ".") -> ExperimentConfig:
    """Desk-scale defaults sized to finish in minutes on one machine."""
    base = ExperimentConfig(experiment=EXCESS_RISK_VS_N, seed=seed, out_dir=out_dir)
    if experiment == EXCESS_RISK_VS_N:
        return base
    if experiment == DIMENSION_INDEPENDENCE:
        return replace(
            base,
            experiment=experiment,
            n_grid=(512,),
            d_grid=(512, 2048, 8192),
            feature_law="sphere",
        )
    if experiment == STABILITY:
        return replace(
            base,
            experiment=experiment,
            n_grid=(100,),
            d_grid=(16,),
            replicates=200,
            epsilon=math.sqrt(0.1),
            delta=1e-4,
        )
    if experiment == PRIVACY_UTILITY:
        return replace(
            base,
            experiment=experiment,
            n_grid=(256,),
            d_grid=(512,),
            eps_grid=(0.1, 0.3, 1.0),
        )
    raise InvalidParameterError(
        f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}"
    )


@dataclass(frozen=True)
class ResultRow:
    """One aggregated measurement; eps_accounted always comes from the accountant."""

    experiment: str
    n: int
    d: int
    eps_target: float
    eps_accounted: float
    eps_claimed: float
    delta: float
    T: int
    checkpoint_t: int
    mean_value: float
    standard_error: float
    bound_value: float
    samples_consumed: int
    note: str = ""

    def __post_init__(self):
        se = self.standard_error
        if not (math.isnan(se) or se >= 0):
            raise InvalidParameterError(f"standard error must be >= 0, got {se}")


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def data_kind(loss_family: str) -> str:
    """The label law a loss family trains on: real labels for quadratic, ±1 otherwise."""
    return QUADRATIC_KIND if loss_family == losses.QUADRATIC else LOGISTIC_KIND


def _cells(config: ExperimentConfig) -> tuple[GlmLoss, list]:
    """The experiment's loss and its cells, one (n, data law, schedule) per row group.

    Excess-risk-vs-n has a cell per n, with d = dim_factor·n;
    dimension-independence a cell per d; stability one cell; privacy-utility
    a cell per ε of its grid, each taken as it is. Elsewhere ε = 0 resolves
    to n^(-1/4), and δ = 0 to 1/n² everywhere. The loss, law and schedules
    refuse what they cannot run; no schedule's per-step arrays are built.
    """
    loss = GlmLoss(config.loss_family, h=config.hinge_half_width)
    G = loss_bounds(loss).G
    n = config.n_grid[0]

    def default_eps(n):
        return config.epsilon if config.epsilon > 0 else float(n) ** -0.25

    if config.experiment == EXCESS_RISK_VS_N:
        grid = [(n, config.dim_factor * n, default_eps(n)) for n in config.n_grid]
    elif config.experiment == DIMENSION_INDEPENDENCE:
        grid = [(n, d, default_eps(n)) for d in config.d_grid]
    elif config.experiment == STABILITY:
        grid = [(n, config.d_grid[0], default_eps(n))]
    else:
        grid = [(n, config.d_grid[0], eps) for eps in config.eps_grid]
    cells = []
    for n, d, eps in grid:
        delta = config.delta if config.delta > 0 else 1.0 / (float(n) * float(n))
        if config.experiment in (STABILITY, PRIVACY_UTILITY):
            schedule = multi_pass_schedule(n, config.pass_exponent, eps, delta, config.eta0, G)
        else:
            schedule = single_pass_schedule(n, G, config.eta0, eps, delta)
        model = PopulationModel(
            data_kind(config.loss_family), d, config.wstar_norm, config.feature_law,
            config.label_noise,
        )
        cells.append((n, model, schedule))
    return loss, cells


def _replicates(config: ExperimentConfig) -> list:
    """Replicate r's stream: stream id r of the base seed."""
    return [seeded_rng(config.seed, r) for r in range(config.replicates)]


def _excess_risks(
    config: ExperimentConfig, loss, model: PopulationModel, iterates, as_pairs=False
) -> np.ndarray:
    """Each iterate's population risk minus w*'s, all scored on the shared held-out
    sample; ``as_pairs`` iterates are (R, 2) pairs, scored beside w*'s (wstar_norm, 0)."""
    # a fresh evaluation stream replays the same sample on every call
    rng = seeded_rng(config.seed, EVAL_STREAM)
    if as_pairs:
        scored = np.vstack([iterates, (model.wstar_norm, 0.0)])
        est, _ = planar.population_risk(loss, scored, model, config.n_test, rng.generator)
    else:
        est, _ = population_risk_many(loss, [*iterates, model.w_star], model, config.n_test, rng)
    return est[:-1] - est[-1]


def _row(config, cell, mean, se, bound, checkpoint_t=None) -> ResultRow:
    """A measured row of ``cell`` whose account columns come from its schedule's certificate.

    Theorem 1 certifies a single-pass schedule and claims (2ε, δ); Theorem 2
    certifies a multi-pass one next to its own claimed ε.
    """
    n, model, schedule = cell
    if schedule.mode == SINGLE_PASS:
        accounted, claimed = certify_theorem1(schedule), 2.0 * schedule.epsilon
    else:
        accounted, claimed_budget = certify_theorem2(schedule)
        claimed = claimed_budget.epsilon
    return ResultRow(
        experiment=config.experiment,
        n=n,
        d=model.d,
        eps_target=schedule.epsilon,
        eps_accounted=accounted.epsilon,
        eps_claimed=claimed,
        delta=accounted.delta,
        T=schedule.T,
        checkpoint_t=schedule.T if checkpoint_t is None else checkpoint_t,
        mean_value=mean,
        standard_error=se,
        bound_value=bound,
        samples_consumed=schedule.sample_budget,
    )


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    r = values.shape[0]
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(r))


def experiment_single_pass(config: ExperimentConfig, loss: GlmLoss, cells: list) -> list:
    """Excess-risk-vs-n and dimension-independence: one single-pass row per cell.

    The schedule and accountant never see d, so dimension-independence's
    cells hold equal schedules and differ only in the data law. Planar cells
    that share a schedule run as one batch of reduced chains; each cell's
    pairs are then scored on their own.
    """
    trace_bound = loss_bounds(loss).hessian_trace_bound
    reps = _replicates(config)
    finals = [None] * len(cells)
    batches: dict = {}
    for i, (_, model, schedule) in enumerate(cells):
        if planar.applies(model):
            batches.setdefault(schedule, []).append(i)
        else:
            finals[i] = [
                run_single_pass(
                    draw_dataset(model, schedule.sample_budget, rep.substream(DATA_SUBSTREAM)),
                    loss, schedule, rep, log_interval=schedule.T,
                )[1][-1]
                for rep in reps
            ]
    for schedule, batch in batches.items():
        # each (cell, replicate) chain gets a fresh DATA_SUBSTREAM stream,
        # since a stream caches its generator
        gens = [[rep.substream(DATA_SUBSTREAM).generator for rep in reps] for _ in batch]
        pairs = planar.single_pass([cells[i][1] for i in batch], loss, schedule, gens)
        for i, cell_pairs in zip(batch, pairs):
            finals[i] = cell_pairs
    rows = []
    for cell, final in zip(cells, finals):
        n, model, schedule = cell
        bound = theorem1_excess_bound(
            model.wstar_norm,
            n,
            schedule.G,
            schedule.eta0,
            schedule.epsilon,
            schedule.delta,
            trace_bound,
        )
        excess = _excess_risks(config, loss, model, final, as_pairs=planar.applies(model))
        rows.append(_row(config, cell, *_mean_se(excess), bound))
    return rows


def _checkpoint_ladder(T: int) -> tuple:
    ladder = []
    value = 1
    while value <= T:
        for mult in (1, 2, 5):
            point = value * mult
            if point <= T:
                ladder.append(point)
        value *= 10
    if ladder[-1] != T:
        ladder.append(T)
    return tuple(ladder)


def experiment_stability(config: ExperimentConfig, loss: GlmLoss, cells: list) -> list:
    """Coupled chains on datasets differing in the last example.

    Each replicate draws n+1 examples and swaps the extra one into the last
    slot of the twin dataset. Chains share sampling and noise streams through
    one pair seed per replicate. Asserts the replicate-mean squared distance
    stays below the closed-form bound plus three standard errors at every
    checkpoint.
    """
    [cell] = cells
    n, model, schedule = cell
    checkpoints = config.checkpoints if config.checkpoints else _checkpoint_ladder(schedule.T)
    pairs, seeds = [], []
    for r, rep in enumerate(_replicates(config)):
        both = draw_dataset(model, n + 1, rep.substream(DATA_SUBSTREAM))
        dataset = Dataset(both.X[:n], both.y[:n])
        x_prime = both.X[:n].copy()
        y_prime = both.y[:n].copy()
        x_prime[n - 1] = both.X[n]
        y_prime[n - 1] = both.y[n]
        pairs.append((dataset, Dataset(x_prime, y_prime)))
        seeds.append(int(np.random.SeedSequence([config.seed, r]).generate_state(1, np.uint64)[0]))
    distances = coupled_stability_run(pairs, loss, schedule, seeds, checkpoints)
    rows = []
    for j, t in enumerate(checkpoints):
        mean, se = _mean_se(distances[:, j])
        bound = stability_bound(int(t), n, schedule.G, schedule.etas)
        # raised, not asserted: ``python -O`` strips asserts, and no row may be written
        if not mean <= bound + 3.0 * se:
            raise AssertionError(
                f"stability bound violated at t={t}: mean {mean:.6g} > "
                f"bound {bound:.6g} + 3*SE {se:.6g}"
            )
        rows.append(_row(config, cell, mean, se, bound, int(t)))
    return rows


def _span_basis(data: Dataset) -> tuple[np.ndarray, Dataset]:
    """(Q, the dataset in Q's coordinates) for an orthonormal basis Q of its rows' span.

    Q is d×k with k = min(n, d), from X = RᵀQᵀ, so row i of the projected
    features Rᵀ = XQ keeps every margin: x_iᵀw = (XQ)_i·(Qᵀw).
    """
    Q, R = np.linalg.qr(data.X.T)
    return Q, Dataset(np.ascontiguousarray(R.T), data.y, copy=False)


def _complement(Q: np.ndarray, schedule, times, rng: RngStream) -> np.ndarray:
    """The multi-pass chain's part orthogonal to Q's columns at steps ``times``, one row each.

    No gradient reaches that part, so it is the data-free AR(1) chain
    P_t = a_t·P_{t−1} + σ_t·(I − QQᵀ)z_t with a_t = 1 − λ_tη_t and
    σ_t² = (1 − a_t²)β₀. Since a₁ = 0 it is stationary, N(0, β₀(I − QQᵀ)),
    and from step s to step t it moves as P_t = A·P_s + √((1 − A²)β₀)·(I − QQᵀ)ξ
    with A = a_{s+1}···a_t and ξ ~ N(0, I_d); from the zero state, A = 0.
    """
    d, k = Q.shape
    P = np.zeros((len(times), d))
    if k == d:
        return P
    xi = rng.generator.standard_normal((len(times), d))
    xi -= (xi @ Q) @ Q.T
    # A over each gap between logged steps; the first gap starts at step 1
    steps = np.asarray(times)
    A = np.multiply.reduceat(1.0 - schedule.lambda_etas[: steps[-1]], np.r_[0, steps[:-1]])
    scales = np.sqrt((1.0 - A * A) * schedule.beta0)
    previous = np.zeros(d)
    for row, a, scale, z in zip(P, A, scales, xi):
        np.multiply(z, scale, out=row)
        row += a * previous
        previous = row
    return P


def _span_runs(spans, loss, schedule, reps, log_interval) -> tuple[list, np.ndarray]:
    """Multi-pass runs in the span of each replicate's data, lifted to d dimensions.

    ``spans`` holds each replicate's (Q, projected data) from ``_span_basis``,
    Q an orthonormal basis of its rows. Each replicate runs ``run_multi_pass``
    on the projected data: the same index draws, noise in k = min(n, d)
    dimensions. Each logged k-vector c_t is lifted to Q·c_t plus the
    orthogonal part P_t (``_complement``), drawn from the replicate's
    COMPLEMENT_SUBSTREAM. The lifted chain has the law of the
    d-dimensional one at every logged step, jointly over the logged steps.
    Returns (times, iterates) as ``run_multi_pass`` does, in d dimensions.
    """
    bases, projected = zip(*spans)
    times, C = run_multi_pass(projected, loss, schedule, reps, log_interval=log_interval)
    return times, np.stack([
        c @ Q.T + _complement(Q, schedule, times, rep.substream(COMPLEMENT_SUBSTREAM))
        for Q, rep, c in zip(bases, reps, C)
    ])


def experiment_privacy_utility(config: ExperimentConfig, loss: GlmLoss, cells: list) -> list:
    """Multi-pass risk across an epsilon grid, time-averaged over the run.

    The chains run in the span of their data (``_span_runs``), so a step
    costs O(min(n, d)) rather than O(d). Each replicate's data and basis are
    built once and serve every ε. Every ε's chains run before any is
    scored, so the bases are freed before scoring, the memory peak; each ε's
    lifted iterates are held until then, so that peak grows with the ε grid.
    """
    trace_bound = loss_bounds(loss).hessian_trace_bound
    n, model, _ = cells[0]
    reps = _replicates(config)
    spans = [_span_basis(draw_dataset(model, n, rep.substream(DATA_SUBSTREAM))) for rep in reps]
    runs = [
        _span_runs(spans, loss, schedule, reps, max(1, schedule.T // 16))[1]
        for _, _, schedule in cells
    ]
    del spans
    rows = []
    for cell, W in zip(cells, runs):
        _, _, schedule = cell
        excess = _excess_risks(config, loss, model, W.reshape(-1, model.d))
        # every replicate logs the same steps; its value is its run's time average
        per_rep = excess.reshape(config.replicates, -1).mean(axis=1)
        bound = theorem2_excess_bound(
            model.wstar_norm,
            n,
            schedule.pass_exponent,
            schedule.G,
            schedule.eta0,
            schedule.epsilon,
            schedule.delta,
            trace_bound,
        )
        rows.append(_row(config, cell, *_mean_se(per_rep), bound))
    return rows


def loglog_slope_fit(points) -> tuple[float, float, float]:
    """Ordinary least squares of ln(value) on ln(n).

    Args:
        points: at least three (n, value) pairs, all strictly positive.

    Returns:
        (slope, intercept, r2); constant values give slope 0 and r² = 1.
    """
    pts = [(float(a), float(v)) for a, v in points]
    if len(pts) < 3:
        raise InvalidParameterError(f"need at least 3 points, got {len(pts)}")
    if any(a <= 0 or v <= 0 for a, v in pts):
        raise InvalidParameterError("all points must be strictly positive")
    x = np.log([a for a, _ in pts])
    y = np.log([v for _, v in pts])
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise InvalidParameterError("all abscissae equal; slope undefined")
    slope = float(xc @ yc) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residual = y - (intercept + slope * x)
    tss = float(yc @ yc)
    r2 = 1.0 if tss == 0.0 else 1.0 - float(residual @ residual) / tss
    return slope, intercept, r2


def summarize(config: ExperimentConfig, rows) -> dict:
    """Headline numbers for the sidecar; everything here is also derivable from the rows."""
    summary: dict = {"rows": len(rows)}
    if config.experiment in (EXCESS_RISK_VS_N, DIMENSION_INDEPENDENCE):
        if config.experiment == EXCESS_RISK_VS_N and len(rows) >= 3:
            points = [(row.n, max(row.mean_value, LOGLOG_FLOOR)) for row in rows]
            slope, intercept, r2 = loglog_slope_fit(points)
            summary["loglog_slope"] = slope
            summary["loglog_intercept"] = intercept
            summary["loglog_r2"] = r2
        means = [row.mean_value for row in rows]
        if min(means) > 0:
            summary["excess_max_over_min"] = max(means) / min(means)
        summary["eps_accounted_distinct"] = len({row.eps_accounted for row in rows})
    elif config.experiment == STABILITY:
        ratios = [
            row.bound_value / row.mean_value for row in rows if row.mean_value > 0
        ]
        if ratios:
            summary["bound_to_empirical_min"] = min(ratios)
            # statistics.median, not np.median, which loads numpy.ma (about 10 ms) on first use
            summary["bound_to_empirical_median"] = statistics.median(ratios)
    elif config.experiment == PRIVACY_UTILITY:
        ordered = sorted(rows, key=lambda row: row.eps_target)
        worst = 0.0
        for prev, cur in zip(ordered[:-1], ordered[1:]):
            gap = cur.mean_value - prev.mean_value
            scale = math.hypot(cur.standard_error, prev.standard_error)
            if gap > 0 and scale > 0:
                worst = max(worst, gap / scale)
        summary["worst_monotonicity_violation_se"] = worst
        summary["claimed_to_exact_min"] = min(
            row.eps_claimed / row.eps_accounted for row in rows
        )
    return summary


def run_experiment(config: ExperimentConfig) -> tuple[list, dict]:
    """Dispatch on the experiment name; returns (rows, summary).

    The cells are built once and handed to the runner. Every cell's schedule
    first goes through ``_schedule_steps``, so a schedule with σ_t = 0 at
    some step is refused before any cell runs.
    """
    loss, cells = _cells(config)
    for _, _, schedule in cells:
        _schedule_steps(schedule)
    runner = {
        EXCESS_RISK_VS_N: experiment_single_pass,
        DIMENSION_INDEPENDENCE: experiment_single_pass,
        STABILITY: experiment_stability,
        PRIVACY_UTILITY: experiment_privacy_utility,
    }[config.experiment]
    rows = runner(config, loss, cells)
    return rows, summarize(config, rows)


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value.replace(",", ";")
    return _fmt(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt_cell(getattr(row, name)) for name in RESULT_COLUMNS))
    return "\n".join(lines) + "\n"


def config_echo(config: ExperimentConfig) -> str:
    lines = []
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, tuple):
            text = ",".join(_fmt_cell(v) for v in value)
        else:
            text = _fmt_cell(value)
        lines.append(f"{field.name} = {text}")
    return "\n".join(lines) + "\n"


def write_results(
    config: ExperimentConfig, rows, summary: dict, elapsed_seconds: float | None = None
) -> tuple[str, str]:
    """One CSV per experiment plus a sidecar echoing version, simulator, config, summary.

    The CSV is a pure function of (config, seed); wall-clock time is reported
    only in the sidecar.
    """
    from . import __version__

    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, f"{config.experiment}.csv")
    sidecar_path = os.path.join(config.out_dir, f"{config.experiment}.config.txt")
    with open(csv_path, "w") as fh:
        fh.write(rows_to_csv(rows))
    lines = [
        f"version = {__version__}",
        f"simulator = {SIMULATORS[config.experiment]}",
        config_echo(config).rstrip("\n"),
    ]
    for key in sorted(summary):
        lines.append(f"summary.{key} = {_fmt_cell(summary[key])}")
    if elapsed_seconds is not None:
        lines.append(f"wall_clock_seconds = {elapsed_seconds:.3f}")
    with open(sidecar_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return csv_path, sidecar_path
