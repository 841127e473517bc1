"""Named experiments emitting machine-readable CSV rows.

Four experiments: excess-risk-vs-n (single pass, rate in n),
dimension-independence (fixed n, growing d), stability (coupled chains on
neighboring datasets against the closed-form bound), and privacy-utility
(multi pass, risk across an epsilon grid).

Determinism contract: every row is a pure function of (config, seed).
Replicate r draws everything from stream id r of the base seed; the held-out
evaluation sample lives on its own stream shared by all evaluations, so risks
are compared under common random numbers. Wall-clock time goes to the sidecar
text file, never into the CSV, so reruns are byte-identical.

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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import losses
from .core import Dataset, InvalidParameterError, RngStream, _fmt, seeded_rng
from .datagen import (
    LOGISTIC_KIND,
    QUADRATIC_KIND,
    PopulationModel,
    draw_dataset,
    population_risk_many,
)
from .engine import coupled_stability_run, run_multi_pass, run_single_pass
from .losses import GlmLoss, loss_bounds
from .oracles import stability_bound, theorem1_excess_bound, theorem2_excess_bound
from .privacy import certify_theorem1, certify_theorem2
from .schedules import multi_pass_schedule, single_pass_schedule

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
SIMULATORS = {
    EXCESS_RISK_VS_N: "engine.run_single_pass on d-dimensional data",
    DIMENSION_INDEPENDENCE: "engine.run_single_pass on d-dimensional data",
    STABILITY: "engine.coupled_stability_run on d-dimensional data",
    PRIVACY_UTILITY: (
        "engine.run_multi_pass in the span of each replicate's data; "
        "lifted to d dimensions with an exact draw of the orthogonal part"
    ),
}

LOGLOG_FLOOR = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs; zeros mean per-n defaults.

    epsilon = 0 resolves to n^(-1/4) and delta = 0 to 1/n² at each grid
    point. d_grid drives dimension-independence, stability and
    privacy-utility; excess-risk-vs-n ignores it and uses d = dim_factor·n.
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
        if self.loss_family not in losses.FAMILIES:
            raise InvalidParameterError(
                f"unknown loss family {self.loss_family!r}; expected {losses.FAMILIES}"
            )
        if self.experiment == DIMENSION_INDEPENDENCE and len(self.d_grid) == 0:
            raise InvalidParameterError("dimension-independence needs a d grid")
        if self.experiment == PRIVACY_UTILITY and len(self.eps_grid) == 0:
            raise InvalidParameterError("privacy-utility needs an epsilon grid")
        if self.experiment in (STABILITY, PRIVACY_UTILITY) and len(self.d_grid) != 1:
            raise InvalidParameterError(f"{self.experiment} needs exactly one d")
        if self.dim_factor < 1:
            raise InvalidParameterError(f"dim factor must be >= 1, got {self.dim_factor}")


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


def _loss(config: ExperimentConfig) -> GlmLoss:
    return GlmLoss(config.loss_family, h=config.hinge_half_width)


def data_kind(loss_family: str) -> str:
    """The label law a loss family trains on: real labels for quadratic, ±1 otherwise."""
    return QUADRATIC_KIND if loss_family == losses.QUADRATIC else LOGISTIC_KIND


def population_model(
    loss_family: str, d: int, wstar_norm: float, feature_law: str, label_noise: float
) -> PopulationModel:
    """The synthetic law for a loss family, with w* = wstar_norm·e₁."""
    w_star = np.zeros(d)
    w_star[0] = wstar_norm
    return PopulationModel(
        data_kind(loss_family), d, w_star, feature_law=feature_law, label_noise=label_noise
    )


def _model(config: ExperimentConfig, d: int) -> PopulationModel:
    return population_model(
        config.loss_family, d, config.wstar_norm, config.feature_law, config.label_noise
    )


def _eval_rng(config: ExperimentConfig) -> RngStream:
    # a fresh instance replays the stream, so every call sees the same sample
    return seeded_rng(config.seed, EVAL_STREAM)


def _resolved(config: ExperimentConfig, n: int) -> tuple[float, float]:
    eps = config.epsilon if config.epsilon > 0 else float(n) ** -0.25
    delta = config.delta if config.delta > 0 else 1.0 / (float(n) * float(n))
    return eps, delta


def _error_row(config, n, d, eps, delta, err) -> ResultRow:
    nan = float("nan")
    return ResultRow(
        experiment=config.experiment,
        n=n,
        d=d,
        eps_target=eps,
        eps_accounted=nan,
        eps_claimed=nan,
        delta=delta,
        T=0,
        checkpoint_t=0,
        mean_value=nan,
        standard_error=nan,
        bound_value=nan,
        samples_consumed=0,
        note=f"error: {err}",
    )


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    r = values.shape[0]
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(r))


def _single_pass_point(config, loss, n: int, d: int) -> ResultRow:
    """Run one (n, d) cell of a single-pass experiment and aggregate it."""
    eps, delta = _resolved(config, n)
    bounds = loss_bounds(loss)
    try:
        schedule = single_pass_schedule(n, bounds.G, config.eta0, eps, delta)
    except InvalidParameterError as err:
        return _error_row(config, n, d, eps, delta, err)
    model = _model(config, d)
    budget = schedule.sample_budget
    finals = []
    for r in range(config.replicates):
        rep = seeded_rng(config.seed, r)
        data = draw_dataset(model, budget, rep.substream(DATA_SUBSTREAM))
        record = run_single_pass(data, loss, schedule, rep, log_interval=schedule.T)
        finals.append(record.final_iterate)
    est, _ = population_risk_many(
        loss, finals + [model.w_star], model, config.n_test, _eval_rng(config)
    )
    mean, se = _mean_se(est[:-1] - est[-1])
    accounted = certify_theorem1(schedule)
    bound = theorem1_excess_bound(
        config.wstar_norm,
        n,
        bounds.G,
        config.eta0,
        eps,
        delta,
        bounds.hessian_trace_bound,
    )
    return ResultRow(
        experiment=config.experiment,
        n=n,
        d=d,
        eps_target=eps,
        eps_accounted=accounted.epsilon,
        eps_claimed=2.0 * eps,
        delta=accounted.delta,
        T=schedule.T,
        checkpoint_t=schedule.T,
        mean_value=mean,
        standard_error=se,
        bound_value=bound,
        samples_consumed=budget,
    )


def experiment_excess_risk_vs_n(config: ExperimentConfig) -> list:
    """Single-pass rate check: one row per n, d = dim_factor·n."""
    loss = _loss(config)
    return [_single_pass_point(config, loss, n, config.dim_factor * n) for n in config.n_grid]


def experiment_dimension_independence(config: ExperimentConfig) -> list:
    """Fixed n, growing d; the schedule and accountant never see d."""
    loss = _loss(config)
    n = config.n_grid[0]
    return [_single_pass_point(config, loss, n, d) for d in config.d_grid]


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


def experiment_stability(config: ExperimentConfig) -> list:
    """Coupled chains on datasets differing in the last example.

    Each replicate draws n+1 examples and swaps the extra one into the last
    slot of the twin dataset. Chains share sampling and noise streams through
    one pair seed per replicate. Asserts the replicate-mean squared distance
    stays below the closed-form bound plus three standard errors at every
    checkpoint.
    """
    loss = _loss(config)
    bounds = loss_bounds(loss)
    n = config.n_grid[0]
    d = config.d_grid[0]
    eps, delta = _resolved(config, n)
    schedule = multi_pass_schedule(n, config.pass_exponent, eps, delta, config.eta0, bounds.G)
    T = schedule.T
    checkpoints = config.checkpoints if config.checkpoints else _checkpoint_ladder(T)
    if any(not 1 <= t <= T for t in checkpoints):
        raise InvalidParameterError(f"checkpoints must lie in 1..{T}, got {checkpoints}")
    model = _model(config, d)
    marks = np.asarray(checkpoints, dtype=np.int64)
    pairs, seeds = [], []
    for r in range(config.replicates):
        data_rng = seeded_rng(config.seed, r).substream(DATA_SUBSTREAM)
        both = draw_dataset(model, n + 1, data_rng)
        dataset = Dataset(both.X[:n], both.y[:n])
        x_prime = both.X[:n].copy()
        y_prime = both.y[:n].copy()
        x_prime[n - 1] = both.X[n]
        y_prime[n - 1] = both.y[n]
        pairs.append((dataset, Dataset(x_prime, y_prime)))
        seeds.append(int(np.random.SeedSequence([config.seed, r]).generate_state(1, np.uint64)[0]))
    distances = coupled_stability_run(pairs, loss, schedule, seeds)[:, marks - 1]
    accounted, claimed = certify_theorem2(schedule)
    rows = []
    for j, t in enumerate(checkpoints):
        mean, se = _mean_se(distances[:, j])
        bound = stability_bound(int(t), n, bounds.G, schedule.etas)
        holds = mean <= bound + 3.0 * se
        rows.append(
            ResultRow(
                experiment=config.experiment,
                n=n,
                d=d,
                eps_target=eps,
                eps_accounted=accounted.epsilon,
                eps_claimed=claimed.epsilon,
                delta=delta,
                T=T,
                checkpoint_t=int(t),
                mean_value=mean,
                standard_error=se,
                bound_value=bound,
                samples_consumed=T,
                note="" if holds else "bound_violated",
            )
        )
        assert holds, (
            f"stability bound violated at t={t}: mean {mean:.6g} > "
            f"bound {bound:.6g} + 3*SE {se:.6g}"
        )
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


def _span_runs(datasets, loss, schedule, reps, log_interval) -> list:
    """Multi-pass runs in the span of each replicate's data, lifted to d dimensions.

    Each replicate runs ``run_multi_pass`` on its dataset in the coordinates
    of an orthonormal basis Q of its rows (``_span_basis``): the same index
    draws, noise in k = min(n, d) dimensions. Each logged k-vector c_t is
    lifted to Q·c_t plus the orthogonal part P_t (``_complement``), drawn from
    the replicate's COMPLEMENT_SUBSTREAM. The lifted chain has the law of the
    d-dimensional one at every logged step, jointly over the logged steps.
    Returns one (logged steps, (steps, d) iterates) pair per replicate.
    """
    bases, projected = zip(*(_span_basis(data) for data in datasets))
    runs = []
    for Q, rep, record in zip(
        bases, reps, run_multi_pass(projected, loss, schedule, reps, log_interval=log_interval)
    ):
        times = [t for t, _ in record.iterate_log]
        C = np.stack([c for _, c in record.iterate_log])
        P = _complement(Q, schedule, times, rep.substream(COMPLEMENT_SUBSTREAM))
        runs.append((times, C @ Q.T + P))
    return runs


def experiment_privacy_utility(config: ExperimentConfig) -> list:
    """Multi-pass risk across an epsilon grid, time-averaged over the run.

    The chains run in the span of their data (``_span_runs``), so a step
    costs O(min(n, d)) rather than O(d).
    """
    loss = _loss(config)
    bounds = loss_bounds(loss)
    n = config.n_grid[0]
    d = config.d_grid[0]
    model = _model(config, d)
    _, delta = _resolved(config, n)
    rows = []
    for eps in config.eps_grid:
        try:
            schedule = multi_pass_schedule(
                n, config.pass_exponent, eps, delta, config.eta0, bounds.G
            )
        except InvalidParameterError as err:
            rows.append(_error_row(config, n, d, eps, delta, err))
            continue
        T = schedule.T
        interval = max(1, T // 16)
        reps = [seeded_rng(config.seed, r) for r in range(config.replicates)]
        datasets = (draw_dataset(model, n, rep.substream(DATA_SUBSTREAM)) for rep in reps)
        iterates = []
        counts = []
        for _, logged in _span_runs(datasets, loss, schedule, reps, interval):
            iterates.extend(logged)
            counts.append(len(logged))
        est, _ = population_risk_many(
            loss, iterates + [model.w_star], model, config.n_test, _eval_rng(config)
        )
        star = est[-1]
        per_rep = []
        start = 0
        for k in counts:
            per_rep.append(float(np.mean(est[start : start + k])) - star)
            start += k
        mean, se = _mean_se(np.asarray(per_rep))
        exact, claimed = certify_theorem2(schedule)
        bound = theorem2_excess_bound(
            config.wstar_norm,
            n,
            config.pass_exponent,
            bounds.G,
            config.eta0,
            eps,
            delta,
            bounds.hessian_trace_bound,
        )
        rows.append(
            ResultRow(
                experiment=config.experiment,
                n=n,
                d=d,
                eps_target=eps,
                eps_accounted=exact.epsilon,
                eps_claimed=claimed.epsilon,
                delta=delta,
                T=T,
                checkpoint_t=T,
                mean_value=mean,
                standard_error=se,
                bound_value=bound,
                samples_consumed=T,
            )
        )
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


def _clean_rows(rows) -> list:
    return [row for row in rows if not row.note.startswith("error:")]


def summarize(config: ExperimentConfig, rows) -> dict:
    """Headline numbers for the sidecar; everything here is also derivable from the rows."""
    summary: dict = {"rows": len(rows)}
    errors = len(rows) - len(_clean_rows(rows))
    if errors:
        summary["error_rows"] = errors
    rows = _clean_rows(rows)
    if not rows:
        return summary
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
            summary["bound_to_empirical_median"] = float(np.median(ratios))
        summary["bound_holds_everywhere"] = all(row.note == "" for row in rows)
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
    """Dispatch on the experiment name; returns (rows, summary)."""
    runner = {
        EXCESS_RISK_VS_N: experiment_excess_risk_vs_n,
        DIMENSION_INDEPENDENCE: experiment_dimension_independence,
        STABILITY: experiment_stability,
        PRIVACY_UTILITY: experiment_privacy_utility,
    }[config.experiment]
    rows = runner(config)
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
