"""Seeded randomness, dense vectors, the dataset container, and the argument
checks and number format shared by every module.

All numerics are float64. Randomness is addressed by (seed, stream id) so that
any replicate, and any substream inside a replicate, can be replayed exactly.
The ``_require_*`` checks raise InvalidParameterError with one wording per
rule, and ``_fmt`` prints every reported number (integers exactly, floats to
9 significant digits).
"""

from __future__ import annotations

import math

import numpy as np
# numpy loads numpy.random on first use; every run uses it, so load it with the library
from numpy.random import PCG64, Generator, SeedSequence

# Dense model coordinates w ∈ R^d; 1-d float64 arrays throughout.
Vector = np.ndarray

# Slack for ‖x‖₂ ≤ 1 checks: normalized draws land within a few ulp of 1.
_NORM_TOL = 1e-9


class InvalidParameterError(ValueError):
    """A parameter lies outside the domain a formula or schedule is defined on."""


class InfinitePrivacyLossError(ValueError):
    """Zero noise against nonzero sensitivity: the privacy loss is unbounded."""


def _require_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        # a comparison, not math.isfinite: exact for ints of any size
        if not 0 < value < math.inf:
            raise InvalidParameterError(f"{name} must be > 0 and finite, got {value}")


def _require_unit_interval(**kwargs) -> None:
    for name, value in kwargs.items():
        if not 0.0 < value < 1.0:
            raise InvalidParameterError(f"{name} must be in (0, 1), got {value}")


def _require_count(name: str, value, minimum: int) -> None:
    if not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value}")


def _require_times(times, T: int) -> np.ndarray:
    """``times`` as an array; refuses it unless it is one row of integer steps in 1..T."""
    marks = np.asarray(times)
    in_range = np.issubdtype(marks.dtype, np.integer) and ((1 <= marks) & (marks <= T)).all()
    if marks.ndim != 1 or not in_range:
        raise InvalidParameterError(f"times must be steps in 1..{T}, got {times}")
    return marks


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def as_vector(values) -> Vector:
    """Coerce to a finite 1-d float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InvalidParameterError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("vector entries must be finite")
    return v


class RngStream:
    """Reproducible random stream addressed by (seed, stream id).

    The same (seed, stream) replays the identical draw sequence from the start;
    distinct stream ids are statistically independent. ``substream(k)`` derives
    an independent child stream, so a replicate can keep mini-batch sampling and
    noise on separate streams that coupled runs may share selectively.
    """

    def __init__(self, seed: int, stream: int = 0, _path: tuple = ()):
        self.seed = int(seed)
        self.stream = int(stream)
        _require_count("seed", self.seed, 0)
        self._path = tuple(int(k) for k in _path)
        self._generator: Generator | None = None

    @property
    def generator(self) -> Generator:
        if self._generator is None:
            seq = SeedSequence(
                entropy=self.seed, spawn_key=(self.stream, *self._path)
            )
            self._generator = Generator(PCG64(seq))
        return self._generator

    def substream(self, k: int) -> "RngStream":
        return RngStream(self.seed, self.stream, self._path + (k,))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream}, path={self._path})"


def seeded_rng(seed: int, stream: int = 0) -> RngStream:
    """Fresh reproducible stream; replays identically for identical (seed, stream)."""
    return RngStream(seed, stream)


class Dataset:
    """Ordered immutable sample, stored densely as (X: n×d, y: n).

    The arrays are copied unless ``copy=False``, which hands a freshly built
    X and y over to the dataset: they are checked and made read-only in
    place, so the caller must hold no writable reference to them.
    """

    def __init__(self, X, y, *, copy: bool = True):
        to_array = np.array if copy else np.asarray
        X = to_array(X, dtype=np.float64)
        if X.ndim != 2:
            raise InvalidParameterError(f"X must be 2-d (n, d), got shape {X.shape}")
        y = to_array(y, dtype=np.float64).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise InvalidParameterError(
                f"label count {y.shape[0]} != example count {X.shape[0]}"
            )
        if X.shape[0] < 1:
            raise InvalidParameterError("dataset needs at least one example")
        if X.shape[1] < 1:
            raise InvalidParameterError(f"d must be >= 1, got {X.shape[1]}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise InvalidParameterError("dataset entries must be finite")
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms > 1.0 + _NORM_TOL):
            bad = int(np.argmax(norms))
            raise InvalidParameterError(
                f"example {bad} has feature norm {norms[bad]:.6g} > 1"
            )
        X.setflags(write=False)
        y.setflags(write=False)
        self.X = X
        self.y = y

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"
