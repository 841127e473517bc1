import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsgld.core import (
    Dataset,
    InvalidParameterError,
    RngStream,
    as_vector,
    seeded_rng,
)


class TestAsVector:
    def test_accepts_lists_and_arrays(self):
        np.testing.assert_array_equal(as_vector([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        assert as_vector(np.ones(4)).dtype == np.float64

    def test_rejects_matrices(self):
        with pytest.raises(InvalidParameterError):
            as_vector(np.ones((2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            as_vector([1.0, np.inf])
        with pytest.raises(InvalidParameterError):
            as_vector([np.nan])


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = seeded_rng(99, 3).generator.standard_normal(16)
        b = seeded_rng(99, 3).generator.standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = seeded_rng(99, 0).generator.standard_normal(16)
        b = seeded_rng(99, 1).generator.standard_normal(16)
        assert not np.array_equal(a, b)

    def test_substream_is_deterministic_and_distinct(self):
        root = seeded_rng(7, 2)
        child = root.substream(5)
        again = seeded_rng(7, 2).substream(5)
        np.testing.assert_array_equal(
            child.generator.standard_normal(8), again.generator.standard_normal(8)
        )
        other = seeded_rng(7, 2).substream(6)
        assert not np.array_equal(
            seeded_rng(7, 2).substream(5).generator.standard_normal(8),
            other.generator.standard_normal(8),
        )

    def test_substream_does_not_disturb_parent(self):
        root = seeded_rng(11, 0)
        root.substream(1).generator.standard_normal(100)
        fresh = seeded_rng(11, 0)
        np.testing.assert_array_equal(
            root.generator.standard_normal(8), fresh.generator.standard_normal(8)
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        stream=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=50)
    def test_replay_property(self, seed, stream):
        first = seeded_rng(seed, stream).generator.integers(0, 1 << 30, size=4)
        second = seeded_rng(seed, stream).generator.integers(0, 1 << 30, size=4)
        np.testing.assert_array_equal(first, second)

    def test_repr_names_the_stream(self):
        text = repr(RngStream(5, 2))
        assert "5" in text and "2" in text

    def test_negative_seed_is_refused(self):
        # refused when the stream is made, not later inside numpy's SeedSequence
        with pytest.raises(InvalidParameterError, match="seed must be an integer >= 0, got -1"):
            seeded_rng(-1, 0)


class TestDataset:
    def test_shape_accessors(self):
        data = Dataset(np.zeros((5, 3)), np.ones(5))
        assert data.n == 5 and data.d == 3

    def test_row_label_mismatch(self):
        with pytest.raises(InvalidParameterError):
            Dataset(np.zeros((5, 3)), np.ones(4))

    def test_needs_a_feature(self):
        # the per-step kernel sizes its blocks by dividing by g·k·d
        with pytest.raises(InvalidParameterError, match="d must be >= 1, got 0"):
            Dataset(np.zeros((2, 0)), np.ones(2))
        with pytest.raises(InvalidParameterError, match="d must be >= 1, got 0"):
            Dataset(np.zeros((2, 0)), np.ones(2), copy=False)

    def test_row_list_round_trip(self):
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        y = np.array([1.0, -1.0])
        data = Dataset(X, y)
        rebuilt = Dataset([list(x) for x in data.X], list(data.y))
        np.testing.assert_array_equal(rebuilt.X, X)
        np.testing.assert_array_equal(rebuilt.y, y)

    def test_arrays_are_read_only(self):
        data = Dataset(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            data.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.y[0] = 1.0

    def test_norm_validation(self):
        with pytest.raises(InvalidParameterError):
            Dataset(np.array([[2.0, 0.0]]), np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            Dataset(np.array([[2.0, 0.0]]), np.array([1.0]), copy=False)
        with pytest.raises(InvalidParameterError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([1.0]), copy=False)
        with pytest.raises(InvalidParameterError):
            Dataset(np.array([[0.5, 0.0]]), np.array([np.nan]))

    def test_caller_arrays_are_copied(self):
        X, y = np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([1.0, -1.0])
        data = Dataset(X, y)
        X[0, 0], y[0] = 0.9, 5.0
        np.testing.assert_array_equal(data.X, [[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(data.y, [1.0, -1.0])
        assert X.flags.writeable and y.flags.writeable

    def test_handed_over_arrays_are_kept_read_only(self):
        X, y = np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([1.0, -1.0])
        data = Dataset(X, y, copy=False)
        assert np.shares_memory(data.X, X) and np.shares_memory(data.y, y)
        assert not X.flags.writeable
        with pytest.raises(ValueError):
            data.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.y[0] = 1.0
