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
one stream across evaluations gives common random numbers. On the sphere and
ball laws with d >= 3 the sample is drawn in two dimensions, so its cost does
not grow with d. The loss of w at x depends on x only through wᵀx and
wStarᵀx, that is through the projection of x onto an orthonormal basis
(u₁, u₂) of span{wStar, w} with u₁ = wStar/‖wStar‖ (e₁ when wStar = 0).
A uniform sphere point is g/‖g‖ with g standard Gaussian; rotating the basis
onto the first two axes leaves g's law unchanged, so the projection is
exactly (g₁, g₂)/√(g₁² + g₂² + χ²_{d−2}) with the chi-square independent of
(g₁, g₂), and the ball law scales it by its radius. Each chunk draws one set
of these 2-D rows and scores every iterate w on it through its coordinates
(wᵀu₁, ‖w − (wᵀu₁)u₁‖). Each iterate's estimate has exactly the law it has
on d-dimensional rows, and iterates scored together share the draws, so
their differences keep common random numbers. The low-rank law and d < 3
draw full d-dimensional rows.
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


# Rows per chunk of the 2-D held-out sampler. It depends on neither d nor the
# number of iterates, so an iterate scored alone sees the same draws as when
# scored beside others.
_MARGIN_CHUNK_ROWS = 1 << 13


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
        g /= np.arange(1.0, model.d + 1.0)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    if model.feature_law == "ball":
        g *= gen.uniform(0.5, 1.0, size=(n, 1))
    return g


def _draw_labels(
    model: PopulationModel, margins: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Labels given the true margins wStarᵀx of the rows."""
    if model.kind == LOGISTIC_KIND:
        u = gen.uniform(size=margins.shape[0])
        return np.where(u < expit(margins), 1.0, -1.0)
    half_width = math.sqrt(3.0) * model.label_noise
    return margins + gen.uniform(-half_width, half_width, size=margins.shape[0])


def draw_dataset(model: PopulationModel, n: int, rng: RngStream) -> Dataset:
    """n i.i.d. examples from the model; deterministic given the stream."""
    if not n >= 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    gen = rng.generator
    X = _draw_features(model, n, gen)
    y = _draw_labels(model, X @ model.w_star, gen)
    return Dataset(X, y, copy=False)


def _held_out_chunks(model: PopulationModel, n_test: int, rng: RngStream):
    """Yield the (X, y) chunks of an n_test-row held-out sample drawn from ``rng``."""
    gen = rng.generator
    chunk = _chunk_rows(model.d)
    for done in range(0, n_test, chunk):
        X = _draw_features(model, min(chunk, n_test - done), gen)
        yield X, _draw_labels(model, X @ model.w_star, gen)


def _held_out_margins(model: PopulationModel, W: np.ndarray, n_test: int, rng: RngStream):
    """Yield (margins, y, rows) chunks of an n_test-row held-out sample.

    margins[i, j] is W[j]ᵀx_i for the chunk's rows x_i and y their labels.
    Row i of ``rows`` has the norm of x_i: it is x_i itself, or on the 2-D
    path a single column holding the ball radius (1 on the sphere). See the
    module docstring for the 2-D law used on the sphere and ball laws when
    d >= 3.
    """
    if model.feature_law == "low-rank" or model.d < 3:
        for X, y in _held_out_chunks(model, n_test, rng):
            yield X @ W.T, y, X
        return
    gen = rng.generator
    star_norm = float(np.linalg.norm(model.w_star))
    if star_norm > 0:
        u1 = model.w_star / star_norm
    else:
        u1 = np.zeros(model.d)
        u1[0] = 1.0
    # with wStar on a coordinate axis, as the harness and CLI build it, u1 is
    # exact and an iterate parallel to wStar gets a second coordinate of 0
    along = W @ u1
    coords = np.stack([along, np.linalg.norm(W - np.outer(along, u1), axis=1)])
    for done in range(0, n_test, _MARGIN_CHUNK_ROWS):
        c = min(_MARGIN_CHUNK_ROWS, n_test - done)
        P = gen.standard_normal((c, 2))
        P /= np.sqrt(np.sum(P * P, axis=1) + gen.chisquare(model.d - 2, c))[:, None]
        radii = np.ones((c, 1))
        if model.feature_law == "ball":
            radii = gen.uniform(0.5, 1.0, size=(c, 1))
            P *= radii
        yield P @ coords, _draw_labels(model, star_norm * P[:, 0], gen), radii


def population_risk_many(
    loss: GlmLoss, ws, model: PopulationModel, n_test: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo population risk of several iterates on one shared sample.

    Streams the held-out sample in chunks regenerated from ``rng``, scoring
    every iterate against the same draws (common random numbers). On the
    sphere and ball laws with d >= 3 the draws are 2-D projections, so the
    cost per iterate does not grow with d (module docstring).

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
    for margins, y, _ in _held_out_margins(model, W, n_test, rng):
        values = loss.phi(margins, y[:, None])
        total += values.sum(axis=0)
        total_sq += (values * values).sum(axis=0)
    mean = total / n_test
    var = np.maximum(total_sq / n_test - mean * mean, 0.0)
    se = np.sqrt(var / n_test)
    return mean, se


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
    for margins, y, rows in _held_out_margins(model, w[None, :], n_test, rng):
        curv = loss.phi_double_prime(margins[:, 0], y)
        total += float(np.sum(curv * np.sum(rows * rows, axis=1)))
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
    """Read a dataset written by export_dataset; returns (dataset, kind).

    A kind=logistic file is refused unless every label is -1 or +1.
    """
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
    y = rows[:, d]
    if kind == LOGISTIC_KIND:
        bad = np.flatnonzero((y != 1.0) & (y != -1.0))
        if bad.size:
            raise InvalidParameterError(
                f"{path}: data row {bad[0] + 1} has label {y[bad[0]]:.17g}; "
                "kind=logistic labels must be -1 or +1"
            )
    return Dataset(rows[:, :d], y), kind
