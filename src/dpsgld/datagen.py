"""Synthetic overparameterized data with known population structure.

Feature laws, all with ‖x‖₂ ≤ 1: "sphere" (uniform on the unit sphere),
"ball" (sphere times a U[0.5, 1] radius, the default), and "low-rank"
(Gaussian coordinates damped as 1/i, then normalized, so unit norm with
energy concentrated on the leading coordinates). Labels: logistic draws
y ∈ {−1, +1} with P(y=1|x) = σ(wStarᵀx); the quadratic kind draws
y = wStarᵀx + noise with bounded uniform noise of variance s², so its
population risk has the closed form ‖w − wStar‖²·E‖x‖²/(2d) + s²/2 on the
isotropic laws.

Population risk is estimated by streaming a held-out Monte-Carlo sample in
chunks regenerated from the caller's stream: memory stays flat and reusing
one stream across evaluations gives common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import Dataset, InvalidParameterError, RngStream, Vector, as_vector
from .losses import GlmLoss, loss_bounds

LOGISTIC_KIND = "logistic"
QUADRATIC_KIND = "quadratic"
KINDS = (LOGISTIC_KIND, QUADRATIC_KIND)

FEATURE_LAWS = ("ball", "sphere", "low-rank")

def _chunk_rows(d: int) -> int:
    # keep a feature chunk near 32 MB regardless of dimension
    return max(128, min(16384, (1 << 22) // max(1, d)))


@dataclass(frozen=True)
class PopulationModel:
    """The data law: feature law on the unit ball plus a labeling rule."""

    kind: str
    d: int
    w_star: Vector
    feature_law: str = "ball"
    label_noise: float = 0.1  # quadratic only: uniform noise with this std

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown kind {self.kind!r}; expected {KINDS}")
        if self.feature_law not in FEATURE_LAWS:
            raise InvalidParameterError(
                f"unknown feature law {self.feature_law!r}; expected {FEATURE_LAWS}"
            )
        if not self.d >= 1:
            raise InvalidParameterError(f"d must be >= 1, got {self.d}")
        w = as_vector(self.w_star)
        if w.shape[0] != self.d:
            raise InvalidParameterError(
                f"wStar has {w.shape[0]} coordinates, model says d={self.d}"
            )
        if self.label_noise < 0:
            raise InvalidParameterError(f"label noise must be >= 0, got {self.label_noise}")
        object.__setattr__(self, "w_star", w)


def _draw_features(model: PopulationModel, n: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.standard_normal((n, model.d))
    if model.feature_law == "low-rank":
        g = g / np.arange(1.0, model.d + 1.0)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    x = g / norms
    if model.feature_law == "ball":
        x = x * gen.uniform(0.5, 1.0, size=(n, 1))
    return x


def _draw_labels(model: PopulationModel, X: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    margins = X @ model.w_star
    if model.kind == LOGISTIC_KIND:
        u = gen.uniform(size=X.shape[0])
        return np.where(u < expit(margins), 1.0, -1.0)
    half_width = math.sqrt(3.0) * model.label_noise
    return margins + gen.uniform(-half_width, half_width, size=X.shape[0])


def draw_dataset(model: PopulationModel, n: int, rng: RngStream) -> Dataset:
    """n i.i.d. examples from the model; deterministic given the stream."""
    if not n >= 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    gen = rng.generator
    X = _draw_features(model, n, gen)
    y = _draw_labels(model, X, gen)
    return Dataset(X, y)


def _held_out_chunks(model: PopulationModel, n_test: int, rng: RngStream):
    """Yield the (X, y) chunks of an n_test-row held-out sample drawn from ``rng``."""
    gen = rng.generator
    chunk = _chunk_rows(model.d)
    for done in range(0, n_test, chunk):
        X = _draw_features(model, min(chunk, n_test - done), gen)
        yield X, _draw_labels(model, X, gen)


def population_risk_many(
    loss: GlmLoss, ws, model: PopulationModel, n_test: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo population risk of several iterates on one shared sample.

    Streams the held-out sample in chunks regenerated from ``rng``, scoring
    every iterate against the same draws (common random numbers).

    Args:
        ws: sequence of iterates, all of the model's dimension.
        n_test: held-out sample size (>= 100).
        rng: evaluation stream; reuse the same (seed, stream) across calls to
            share the held-out sample between evaluations.

    Returns:
        (estimates, standard errors), one entry per iterate.
    """
    if n_test < 100:
        raise InvalidParameterError(f"n_test must be >= 100, got {n_test}")
    W = np.stack([as_vector(w) for w in ws])
    if W.shape[1] != model.d:
        raise InvalidParameterError(
            f"iterates have {W.shape[1]} coordinates, model says d={model.d}"
        )
    total = np.zeros(W.shape[0])
    total_sq = np.zeros(W.shape[0])
    for X, y in _held_out_chunks(model, n_test, rng):
        values = loss.phi(X @ W.T, y[:, None])
        total += values.sum(axis=0)
        total_sq += (values * values).sum(axis=0)
    mean = total / n_test
    var = np.maximum(total_sq / n_test - mean * mean, 0.0)
    se = np.sqrt(var / n_test)
    return mean, se


def population_risk(
    loss: GlmLoss, w, model: PopulationModel, n_test: int, rng: RngStream
) -> tuple[float, float]:
    """Monte-Carlo estimate of E_z ℓ(w, z) with its standard error."""
    est, se = population_risk_many(loss, [w], model, n_test, rng)
    return float(est[0]), float(se[0])


def hessian_trace_estimate(
    loss: GlmLoss, model: PopulationModel, w, n_test: int, rng: RngStream
) -> float:
    """Monte-Carlo mean of φ″(wᵀx, y)·‖x‖₂², the per-example Hessian trace.

    Never exceeds the family's γ₂ because φ″ ≤ γ₂ and ‖x‖₂ ≤ 1 pointwise.
    """
    if n_test < 100:
        raise InvalidParameterError(f"n_test must be >= 100, got {n_test}")
    w = as_vector(w)
    if w.shape[0] != model.d:
        raise InvalidParameterError(
            f"w has {w.shape[0]} coordinates, model says d={model.d}"
        )
    total = 0.0
    for X, y in _held_out_chunks(model, n_test, rng):
        curv = loss.phi_double_prime(X @ w, y)
        total += float(np.sum(curv * np.sum(X * X, axis=1)))
    estimate = total / n_test
    assert estimate <= loss_bounds(loss).gamma2 + 1e-12
    return estimate


def feature_second_moment(feature_law: str) -> float:
    """E‖x‖₂² for the isotropic laws (sphere: 1, ball: E U² = 7/12)."""
    if feature_law == "sphere":
        return 1.0
    if feature_law == "ball":
        return 7.0 / 12.0
    raise InvalidParameterError(
        f"no closed-form second moment for feature law {feature_law!r}"
    )


def closed_form_quadratic_risk(model: PopulationModel, w) -> float:
    """Exact population risk of the quadratic kind on an isotropic law.

    E[(wᵀx − y)²]/2 = ‖w − wStar‖²·E‖x‖²/(2d) + s²/2, using that the sphere
    and ball laws have E[xxᵀ] = (E‖x‖²/d)·I.
    """
    if model.kind != QUADRATIC_KIND:
        raise InvalidParameterError("closed form applies to the quadratic kind only")
    m2 = feature_second_moment(model.feature_law)
    w = as_vector(w)
    gap = w - model.w_star
    return float(gap @ gap) * m2 / (2.0 * model.d) + 0.5 * model.label_noise**2


def export_dataset(dataset: Dataset, path, kind: str) -> None:
    """Write the sample as delimiter-separated text with a d/n/kind header."""
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown kind {kind!r}; expected {KINDS}")
    lines = [f"# d={dataset.d} n={dataset.n} kind={kind}"]
    for i in range(dataset.n):
        row = [f"{v:.17g}" for v in dataset.X[i]]
        row.append(f"{dataset.y[i]:.17g}")
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_dataset(path) -> tuple[Dataset, str]:
    """Read a dataset written by export_dataset; returns (dataset, kind)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise InvalidParameterError(f"missing header line in {path}")
        fields = dict(
            part.split("=", 1) for part in header.lstrip("# ").split() if "=" in part
        )
        try:
            d = int(fields["d"])
            n = int(fields["n"])
            kind = fields["kind"]
        except KeyError as missing:
            raise InvalidParameterError(f"header lacks {missing} in {path}") from None
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (n, d + 1):
        raise InvalidParameterError(
            f"{path}: expected {n} rows of {d + 1} columns, got {rows.shape}"
        )
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown kind {kind!r} in {path}")
    return Dataset(rows[:, :d], rows[:, d]), kind
