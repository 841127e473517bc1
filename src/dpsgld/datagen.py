"""Synthetic overparameterized data with known population structure.

Feature laws, all with ‖x‖₂ ≤ 1: "sphere" (uniform on the unit sphere),
"ball" (sphere times a U[0.5, 1] radius, the default), and "low-rank"
(Gaussian coordinates damped as 1/i, then normalized, so unit norm with
energy concentrated on the leading coordinates). wStar = wstar_norm·e₁: the
excess-risk bounds see only ‖wStar‖, and the sphere and ball laws are
rotation invariant. Labels: logistic draws y ∈ {−1, +1} with
P(y=1|x) = σ(wStarᵀx); the quadratic kind draws y = wStarᵀx + noise with
bounded uniform noise of variance s², so its population risk has the closed
form ‖w − wStar‖²·E‖x‖²/(2d) + s²/2 on the isotropic laws.

Population risk is estimated by streaming a held-out Monte-Carlo sample in
chunks regenerated from the caller's stream: memory stays flat and reusing
one stream across evaluations gives common random numbers. On the sphere and
ball laws with d >= 3 the sample is drawn in two dimensions, so its cost does
not grow with d. The model's wStar is wstar_norm·e₁, so the loss of w at x
depends on x only through wᵀx and x₁, that is through the projection of x
onto the orthonormal frame (e₁, u₂) of span{e₁, w}. A uniform sphere point
is g/‖g‖ with g standard Gaussian; rotating the frame onto the first two
axes leaves g's law unchanged, so the projection is exactly
(g₁, g₂)/√(g₁² + g₂² + χ²_{d−2}) with the chi-square independent of
(g₁, g₂), and the ball law scales it by its radius. Each chunk draws one set
of these 2-D rows and scores every iterate w on it through its coordinates
(w₁, ‖w − w₁e₁‖). Each iterate's estimate has exactly the law it has on
d-dimensional rows, and iterates scored together share the draws, so their
differences keep common random numbers. The low-rank law and d < 3 draw
full d-dimensional rows.

``export_dataset`` writes a sample as text under a ``# d= n= kind=`` header,
and ``import_dataset`` reads it back for ``dpsgld run``, refusing a malformed
header or cell, a wrong shape or a non-sign logistic label with an
InvalidParameterError that names the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, InvalidParameterError, RngStream, as_vector
from .losses import GlmLoss, logistic

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
    """The data law: feature law on the unit ball plus a labeling rule, wStar = wstar_norm·e₁."""

    kind: str
    d: int
    wstar_norm: float
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
        if not self.wstar_norm >= 0:
            raise InvalidParameterError(f"wstar_norm must be >= 0, got {self.wstar_norm}")
        if self.wstar_norm == math.inf:
            raise InvalidParameterError(f"wstar_norm must be finite, got {self.wstar_norm}")
        if not 0 <= self.label_noise < math.inf:
            raise InvalidParameterError(
                f"label noise must be >= 0 and finite, got {self.label_noise}"
            )

    @property
    def w_star(self) -> np.ndarray:
        """wStar as a d-vector."""
        w = np.zeros(self.d)
        w[0] = self.wstar_norm
        return w


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
    """Labels given the true margins wStarᵀx = wstar_norm·x₁ of the rows."""
    if model.kind == LOGISTIC_KIND:
        u = gen.uniform(size=margins.shape[0])
        return np.where(u < logistic(margins), 1.0, -1.0)
    half_width = math.sqrt(3.0) * model.label_noise
    return margins + gen.uniform(-half_width, half_width, size=margins.shape[0])


def draw_dataset(model: PopulationModel, n: int, rng: RngStream) -> Dataset:
    """n i.i.d. examples from the model; deterministic given the stream."""
    if not n >= 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    gen = rng.generator
    X = _draw_features(model, n, gen)
    y = _draw_labels(model, model.wstar_norm * X[:, 0], gen)
    return Dataset(X, y, copy=False)


def _planar(model: PopulationModel) -> bool:
    """Whether the law is the sphere or ball law with d >= 3, so 2-D projections are exact."""
    return model.feature_law != "low-rank" and model.d >= 3


def _held_out_chunks(model: PopulationModel, n_test: int, rng: RngStream):
    """Yield the (X, y) chunks of an n_test-row held-out sample drawn from ``rng``."""
    gen = rng.generator
    chunk = _chunk_rows(model.d)
    for done in range(0, n_test, chunk):
        X = _draw_features(model, min(chunk, n_test - done), gen)
        yield X, _draw_labels(model, model.wstar_norm * X[:, 0], gen)


def _held_out_margins(model: PopulationModel, W: np.ndarray, n_test: int, rng: RngStream):
    """Yield (margins, y) chunks of an n_test-row held-out sample.

    margins[i, j] is W[j]ᵀx_i for the chunk's rows x_i and y their labels.
    See the module docstring for the 2-D law used on the sphere and ball laws
    when d >= 3.
    """
    if not _planar(model):
        for X, y in _held_out_chunks(model, n_test, rng):
            yield X @ W.T, y
        return
    gen = rng.generator
    # an iterate parallel to wStar gets a second coordinate of exactly 0
    across = W.copy()
    across[:, 0] = 0.0
    coords = np.stack([W[:, 0], np.linalg.norm(across, axis=1)])
    for done in range(0, n_test, _MARGIN_CHUNK_ROWS):
        c = min(_MARGIN_CHUNK_ROWS, n_test - done)
        P = gen.standard_normal((c, 2))
        P /= np.sqrt(np.sum(P * P, axis=1) + gen.chisquare(model.d - 2, c))[:, None]
        if model.feature_law == "ball":
            P *= gen.uniform(0.5, 1.0, size=(c, 1))
        yield P @ coords, _draw_labels(model, model.wstar_norm * P[:, 0], gen)


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
    for margins, y in _held_out_margins(model, W, n_test, rng):
        values = loss.phi(margins, y[:, None])
        total += values.sum(axis=0)
        total_sq += (values * values).sum(axis=0)
    mean = total / n_test
    var = np.maximum(total_sq / n_test - mean * mean, 0.0)
    se = np.sqrt(var / n_test)
    return mean, se


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
        except ValueError as bad:
            raise InvalidParameterError(f"{path}: header {header!r}: {bad}") from None
        for name, value in (("n", n), ("d", d)):
            if value < 1:
                raise InvalidParameterError(
                    f"{path}: header {header!r}: {name} must be >= 1, got {value}"
                )
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as bad:
            raise InvalidParameterError(f"{path}: {bad}") from None
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
