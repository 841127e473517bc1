import hashlib
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsgld import engine
from dpsgld.core import Dataset, InfinitePrivacyLossError, InvalidParameterError, seeded_rng
from dpsgld.engine import coupled_stability_run, run_multi_pass, run_single_pass
from dpsgld.losses import GlmLoss, loss_bounds
from dpsgld.schedules import multi_pass_schedule, single_pass_schedule

from helpers import advance_one_step

LOGISTIC = GlmLoss("logistic")
QUADRATIC = GlmLoss("quadratic")


def toy_dataset(n, d, seed=0):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    X *= 0.9 / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    y = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    return Dataset(X, y)


class TestOneStep:
    """One update of the per-step kernel ``_advance``, as single-pass and coupled runs make it."""

    def test_pure_gradient_step_when_lambda_zero(self):
        gens = [seeded_rng(1, 0).generator]
        W = advance_one_step(np.zeros((1, 1, 2)), [[0.0, 1.0]], [1.0], LOGISTIC, 0.5, 0.0, 1.0, gens)
        np.testing.assert_allclose(W[0, 0], [0.0, 0.25], rtol=1e-14)

    def test_full_shrink_is_data_independent(self):
        beta0 = 0.7
        wa = advance_one_step(
            [[[5.0, -3.0]]], [[0.9, 0.0]], [1.0], LOGISTIC, 0.2, 1.0, beta0,
            [seeded_rng(42, 1).generator],
        )
        wb = advance_one_step(
            [[[-8.0, 2.0]]], [[0.0, -0.9]], [-1.0], LOGISTIC, 0.2, 1.0, beta0,
            [seeded_rng(42, 1).generator],
        )
        np.testing.assert_array_equal(wa, wb)
        z = seeded_rng(42, 1).generator.standard_normal(2)
        np.testing.assert_allclose(wa[0, 0], np.sqrt(beta0) * z, rtol=1e-15)

    def test_lambda_eta_two_flips_sign_without_noise(self):
        x = np.array([0.5, 0.5])
        w0 = np.array([1.0, 2.0])
        gens = [seeded_rng(3, 0).generator]
        W = advance_one_step(w0[None, None], x[None], [1.0], QUADRATIC, 0.1, 2.0, 0.5, gens)
        g = float(QUADRATIC.phi_prime(w0 @ x, 1.0)) * x
        np.testing.assert_allclose(W[0, 0], -(w0 - 0.1 * g), rtol=1e-14)

    def test_minibatch_mean_gradient(self):
        X = np.array([[0.4, 0.0], [0.0, 0.8]])
        gens = [seeded_rng(0, 0).generator]
        W = advance_one_step(np.zeros((1, 1, 2)), X, [1.0, -1.0], QUADRATIC, 1.0, 0.0, 0.0, gens)
        g = (float(QUADRATIC.phi_prime(0.0, 1.0)) * X[0]
             + float(QUADRATIC.phi_prime(0.0, -1.0)) * X[1]) / 2.0
        np.testing.assert_allclose(W[0, 0], -g, rtol=1e-14)

    def test_gradient_is_clipped_to_the_certified_bound(self):
        # quadratic G = 2 holds only on |wᵀx| <= 1, |y| <= 1; the clip enforces it for any label
        eta = 0.3
        gens = [seeded_rng(0, 0).generator]
        W = advance_one_step(np.zeros((1, 1, 2)), [[1.0, 0.0]], [-1e6], QUADRATIC, eta, 0.0, 0.0, gens)
        assert np.linalg.norm(W[0, 0]) <= eta * loss_bounds(QUADRATIC).G
        np.testing.assert_array_equal(W[0, 0], [-eta * 2.0, 0.0])

    def test_steps_refuse_a_negative_noise_variance(self):
        one = np.ones(1)
        with pytest.raises(InvalidParameterError, match="outside"):
            engine._steps(0.1 * one, 3.0 * one, 1.0, one)  # lambda*eta = 3 > 2
        with pytest.raises(InvalidParameterError, match="outside"):
            engine._steps(0.1 * one, -0.5 * one, 1.0, one)
        with pytest.raises(InvalidParameterError, match="beta0"):
            engine._steps(0.1 * one, 0.1 * one, -1.0, one)
        with pytest.raises(InvalidParameterError, match="not a number"):
            engine._steps(0.1 * one, np.full(1, np.nan), 1.0, one)


class TestNoiselessStepsAreRefused:
    """A schedule whose σ_t² underflows to 0 at some step runs nowhere: its account is infinite."""

    def test_single_pass(self):
        # β₀ = 1e-323: σ_t = √(λη(2 − λη)β₀) is 0 from step 8 on
        sched = single_pass_schedule(256, 1.0, 1e-161, 0.5, 1e-5)
        assert sched.beta0 > 0.0
        with pytest.raises(InfinitePrivacyLossError, match=r"sigma_t = 0 at step t = 8 of 256"):
            run_single_pass(toy_dataset(sched.sample_budget, 3), LOGISTIC, sched, seeded_rng(0, 0))

    def test_multi_pass(self, monkeypatch):
        sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1e-161, 1.0)
        assert sched.beta0 > 0.0

        def kernel(*args):
            raise AssertionError("a noiseless schedule reached a kernel")

        monkeypatch.setattr(engine, "_advance_blocks", kernel)
        with pytest.raises(InfinitePrivacyLossError, match=f"step t = 10 of {sched.T}"):
            run_multi_pass([toy_dataset(40, 3)], LOGISTIC, sched, [seeded_rng(0, 0)])

    def test_coupled_stability_run(self):
        sched = multi_pass_schedule(20, 1.5, 0.9, 1e-4, 1e-161, 1.0)
        data = toy_dataset(20, 3)
        with pytest.raises(InfinitePrivacyLossError, match=f"step t = 14 of {sched.T}"):
            coupled_stability_run([(data, data)], LOGISTIC, sched, [3], [1, sched.T])


class TestRunSinglePass:
    def test_budget_shortfall_names_required_count(self):
        sched = single_pass_schedule(8, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(10, 3)
        with pytest.raises(InvalidParameterError, match="at least 11"):
            run_single_pass(data, LOGISTIC, sched, seeded_rng(0, 0))

    def test_consumes_exact_budget(self, monkeypatch):
        sched = single_pass_schedule(8, 1.0, 1.0, 0.5, 1e-5)
        assert sched.sample_budget == 11 and sched.mode == "single-pass"
        data = toy_dataset(50, 3)
        seen = []
        advance = engine._advance

        def spy(W0, data, loss, orders, steps, *rest):
            seen.append((orders, steps[3]))
            return advance(W0, data, loss, orders, steps, *rest)

        monkeypatch.setattr(engine, "_advance", spy)
        times, iterates = run_single_pass(data, LOGISTIC, sched, seeded_rng(0, 0))
        assert times == list(range(1, 9)) and iterates.shape == (8, 3)
        # step t reads the next |M_t| distinct rows of the shuffled order
        [(orders, sizes)] = seen
        assert int(sizes.sum()) == 11
        assert sorted(orders[0].tolist()) == list(range(50))

    def test_deterministic_replay(self):
        sched = single_pass_schedule(32, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(80, 4)
        times_a, a = run_single_pass(data, LOGISTIC, sched, seeded_rng(7, 0), log_interval=1)
        times_b, b = run_single_pass(data, LOGISTIC, sched, seeded_rng(7, 0), log_interval=1)
        assert times_a == times_b == list(range(1, 33))
        assert a.shape == (32, 4)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_outcome(self):
        sched = single_pass_schedule(32, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(80, 4)
        _, a = run_single_pass(data, LOGISTIC, sched, seeded_rng(7, 0))
        _, b = run_single_pass(data, LOGISTIC, sched, seeded_rng(8, 0))
        assert not np.array_equal(a[-1], b[-1])

    def test_log_thinning(self):
        sched = single_pass_schedule(20, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(60, 2)
        times, iterates = run_single_pass(data, LOGISTIC, sched, seeded_rng(1, 0), log_interval=7)
        assert times == [7, 14, 20] and iterates.shape == (3, 2)
        _, every = run_single_pass(data, LOGISTIC, sched, seeded_rng(1, 0), log_interval=1)
        np.testing.assert_array_equal(iterates, every[np.array(times) - 1])

    def test_first_step_output_ignores_data(self):
        # lambda_1 eta_1 = 1, so a T = 1 run is the prior draw N(0, beta0 I)
        sched = single_pass_schedule(1, 1.0, 1.0, 0.5, 1e-5)
        _, a = run_single_pass(toy_dataset(5, 3, seed=1), LOGISTIC, sched, seeded_rng(9, 0))
        _, b = run_single_pass(toy_dataset(5, 3, seed=2), LOGISTIC, sched, seeded_rng(9, 0))
        np.testing.assert_array_equal(a, b)


class TestRunMultiPass:
    def test_deterministic_replay(self):
        sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
        data = toy_dataset(40, 3)
        times_a, a = run_multi_pass([data], LOGISTIC, sched, [seeded_rng(11, 0)], log_interval=1)
        times_b, b = run_multi_pass([data], LOGISTIC, sched, [seeded_rng(11, 0)], log_interval=1)
        assert times_a == times_b == list(range(1, sched.T + 1))
        assert a.shape == (1, sched.T, 3)
        np.testing.assert_array_equal(a, b)

    def test_first_logged_iterate_ignores_data(self):
        sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
        _, [a, b] = run_multi_pass(
            [toy_dataset(40, 3, seed=1), toy_dataset(40, 3, seed=2)], LOGISTIC, sched,
            [seeded_rng(2, 0), seeded_rng(2, 0)], log_interval=1,
        )
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[-1], b[-1])

    def test_rejects_schedule_outside_noise_domain(self):
        # n·δ >= 2.5 would make η_1 NaN: the schedule refuses to exist, so no run sees it
        with pytest.raises(InvalidParameterError, match="n·δ = 5"):
            sched = multi_pass_schedule(10, 1.0, 0.75, 0.5, 1.0, 1.0)
            run_multi_pass([toy_dataset(10, 2)], LOGISTIC, sched, [seeded_rng(0, 0)])

    def test_final_state_always_logged(self):
        sched = multi_pass_schedule(30, 1.5, 0.9, 1e-4, 1.0, 1.0)
        times, iterates = run_multi_pass([toy_dataset(30, 2)], LOGISTIC, sched, [seeded_rng(4, 0)], log_interval=10**6)
        assert times == [sched.T] and iterates.shape == (1, 1, 2)


class TestCoupledStabilityRun:
    def swapped_pair(self, n=24, d=3, seed=5):
        # flip only the last label; negating (x, y) jointly would leave the
        # logistic gradient unchanged and the chains would never separate
        data = toy_dataset(n, d, seed=seed)
        yp = data.y.copy()
        yp[-1] = -yp[-1]
        return data, Dataset(data.X, yp)

    def test_identical_datasets_never_separate(self):
        data = toy_dataset(20, 3)
        sched = multi_pass_schedule(20, 1.5, 0.9, 1e-4, 0.2, 1.0)
        out = coupled_stability_run([(data, data)], LOGISTIC, sched, [77], range(1, sched.T + 1))
        assert out.shape == (1, sched.T)
        assert np.all(out == 0.0)

    def test_distance_zero_until_swap_index_sampled(self):
        data, prime = self.swapped_pair()
        sched = multi_pass_schedule(24, 1.5, 0.9, 1e-4, 0.2, 1.0)
        seed = 123
        [out] = coupled_stability_run([(data, prime)], LOGISTIC, sched, [seed], range(1, sched.T + 1))
        indices = seeded_rng(seed, 0).generator.integers(0, data.n, size=sched.T)
        hits = np.flatnonzero(indices == data.n - 1) + 1
        # a hit at t=1 cannot separate the chains: lambda_1*eta_1 = 1 wipes
        # the data term, so the first effective hit is the first with t >= 2
        effective = [int(t) for t in hits if sched.lambda_etas[t - 1] != 1.0]
        first_hit = effective[0] if effective else sched.T + 1
        assert np.all(out[: first_hit - 1] == 0.0)
        if effective:
            assert out[first_hit - 1] > 0.0

    def test_shared_first_draw_keeps_chains_together(self):
        data, prime = self.swapped_pair()
        sched = multi_pass_schedule(24, 1.5, 0.9, 1e-4, 0.2, 1.0)
        out = coupled_stability_run([(data, prime)], LOGISTIC, sched, [9], [1])
        assert out[0, 0] == 0.0

    def test_times_in_any_order_with_repeats(self):
        data, prime = self.swapped_pair()
        sched = multi_pass_schedule(24, 1.5, 0.9, 1e-4, 0.2, 1.0)
        pairs = [(data, prime)] * 2
        every = coupled_stability_run(pairs, LOGISTIC, sched, [3, 4], range(1, sched.T + 1))
        assert np.all(every[:, -1] > 0.0)
        times = [sched.T, 5, 5, 1, sched.T - 1]
        some = coupled_stability_run(pairs, LOGISTIC, sched, [3, 4], times)
        assert some.tobytes() == every[:, np.array(times) - 1].tobytes()

    def test_times_must_be_steps_of_the_run(self):
        data, prime = self.swapped_pair()
        sched = multi_pass_schedule(24, 1.5, 0.9, 1e-4, 0.2, 1.0)
        for bad in ([0], [sched.T + 1], [2.0], [[1, 2]], []):
            with pytest.raises(InvalidParameterError, match=rf"times must be steps in 1\.\.{sched.T}"):
                coupled_stability_run([(data, prime)], LOGISTIC, sched, [3], bad)

    def test_validation(self):
        data = toy_dataset(20, 3)
        sched = multi_pass_schedule(20, 1.5, 0.9, 1e-4, 0.2, 1.0)
        Xp = data.X.copy()
        Xp[0] = -Xp[0]
        bad_pairs = [
            (data, toy_dataset(21, 3)),  # other n
            (data, Dataset(np.hstack([data.X, np.zeros((20, 1))]), data.y)),  # other d
            (data, Dataset(Xp, data.y)),  # differs before the last example
        ]
        # alone, or at any place in a batch of three
        for bad in bad_pairs:
            with pytest.raises(InvalidParameterError, match="neighboring datasets"):
                coupled_stability_run([bad], LOGISTIC, sched, [1], [1])
            for bad_at in range(3):
                pairs = [(data, data)] * 3
                pairs[bad_at] = bad
                with pytest.raises(InvalidParameterError, match="neighboring datasets"):
                    coupled_stability_run(pairs, LOGISTIC, sched, [1, 2, 3], [1])

    def test_pairs_in_a_batch_must_share_n_and_d(self):
        sched = multi_pass_schedule(20, 1.5, 0.9, 1e-4, 0.2, 1.0)
        narrow, wide, longer = toy_dataset(20, 3), toy_dataset(20, 4), toy_dataset(21, 3)
        message = r"replicates run together must share n and d, got \(n, d\) in "
        with pytest.raises(InvalidParameterError, match=message + r"\[\(20, 3\), \(20, 4\)\]"):
            coupled_stability_run([(narrow, narrow), (wide, wide)], LOGISTIC, sched, [1, 2], [1])
        with pytest.raises(InvalidParameterError, match=message + r"\[\(20, 3\), \(21, 3\)\]"):
            coupled_stability_run([(narrow, narrow), (longer, longer)], LOGISTIC, sched, [1, 2], [1])
        with pytest.raises(InvalidParameterError, match="random streams"):
            coupled_stability_run([(narrow, narrow)], LOGISTIC, sched, [1, 2], [1])

    def test_step_size_guard(self):
        data, prime = self.swapped_pair(n=30)
        hot = multi_pass_schedule(30, 1.5, 0.9, 1e-4, 50.0, 1.0)
        assert hot.etas[0] > 1.0
        for replicates in (1, 3):
            with pytest.raises(InvalidParameterError, match="exceeds 1/L"):
                coupled_stability_run(
                    [(data, prime)] * replicates, QUADRATIC, hot, list(range(replicates)), [1]
                )


class TestLabelRange:
    """The logistic and smoothed-hinge losses refuse labels outside [-1, 1] where a run starts."""

    def labelled(self, y_bad_at=None, label=5.0, n=30):
        data = toy_dataset(n, 3, seed=4)
        y = data.y.copy()
        if y_bad_at is not None:
            y[y_bad_at] = label
        return Dataset(data.X, y)

    @pytest.mark.parametrize("family", ["logistic", "smoothed-hinge"])
    def test_every_entry_point_names_the_first_bad_row(self, family):
        loss = GlmLoss(family)
        good, bad = self.labelled(), self.labelled(y_bad_at=7)
        y = bad.y.copy()
        y[11] = -3.0
        worse = Dataset(bad.X, y)
        message = rf"dataset 1, example 7: label 5 lies outside \[-1, 1\], which the {family} loss"
        single = single_pass_schedule(16, 1.0, 1.0, 0.5, 1e-4)
        with pytest.raises(InvalidParameterError, match="dataset 0, example 7: label 5 "):
            run_single_pass(worse, loss, single, seeded_rng(0, 0))
        multi = multi_pass_schedule(30, 1.5, 0.9, 1e-4, 0.2, 1.0)
        with pytest.raises(InvalidParameterError, match=message):
            run_multi_pass([good, worse], loss, multi, [seeded_rng(0, r) for r in range(2)])
        # the pair (dataset, dataset′) counts as datasets 0 and 1
        twin = Dataset(good.X, np.r_[good.y[:-1], 5.0])
        with pytest.raises(InvalidParameterError, match="dataset 1, example 29: label 5 "):
            coupled_stability_run([(good, twin)], loss, multi, [1], [1])

    def test_boundary_labels_and_quadratic_labels_run(self):
        at_edge = self.labelled(y_bad_at=3, label=-1.0)
        multi = multi_pass_schedule(30, 1.5, 0.9, 1e-4, 0.2, 1.0)
        run_multi_pass([at_edge], LOGISTIC, multi, [seeded_rng(0, 0)])
        run_multi_pass([self.labelled(y_bad_at=3)], QUADRATIC, multi, [seeded_rng(0, 0)])


class TestReplicateBatches:
    """A batch of replicates gives each one exactly what it gets alone."""

    D = 512  # a block holds fewer steps than T, for one chain or several

    def schedule(self):
        sched = multi_pass_schedule(60, 1.5, 0.9, 1e-4, 0.2, 1.0)
        assert engine._NOISE_BLOCK_FLOATS // self.D < sched.T
        return sched

    def datasets(self, replicates):
        # replicates share n and d
        return [toy_dataset(60, self.D, seed=40 + r) for r in range(replicates)]

    def pairs(self, replicates):
        pairs = []
        for data in self.datasets(replicates):
            yp = data.y.copy()
            yp[-1] = -yp[-1]
            pairs.append((data, Dataset(data.X, yp)))
        return pairs

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_multi_pass_records_match_single_runs(self, replicates):
        sched = self.schedule()
        datasets = self.datasets(replicates)
        rngs = [seeded_rng(31, r) for r in range(replicates)]
        times, batch = run_multi_pass(datasets, LOGISTIC, sched, rngs, log_interval=50)
        assert batch.shape == (replicates, len(times), self.D)
        for data, rng, iterates in zip(datasets, rngs, batch):
            alone_times, [alone] = run_multi_pass([data], LOGISTIC, sched, [rng], log_interval=50)
            assert _record_digest(sched, times, iterates) == _record_digest(sched, alone_times, alone)

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_coupled_rows_match_single_pairs(self, replicates):
        sched = self.schedule()
        pairs = self.pairs(replicates)
        seeds = [500 + r for r in range(replicates)]
        every = range(1, sched.T + 1)
        batch = coupled_stability_run(pairs, LOGISTIC, sched, seeds, every)
        assert batch.shape == (replicates, sched.T)
        assert np.all(batch[:, -1] > 0.0)
        for pair, seed, row in zip(pairs, seeds, batch):
            [alone] = coupled_stability_run([pair], LOGISTIC, sched, [seed], every)
            assert row.tobytes() == alone.tobytes()

    def test_replicates_must_line_up(self):
        sched = self.schedule()
        data = toy_dataset(60, 3)
        with pytest.raises(InvalidParameterError, match="random streams"):
            run_multi_pass([data, data], LOGISTIC, sched, [seeded_rng(1, 0)])
        with pytest.raises(InvalidParameterError, match="at least one replicate"):
            run_multi_pass([], LOGISTIC, sched, [])
        message = r"replicates run together must share n and d, got \(n, d\) in "
        with pytest.raises(InvalidParameterError, match=message + r"\[\(60, 3\), \(60, 4\)\]"):
            run_multi_pass([data, toy_dataset(60, 4)], LOGISTIC, sched, [seeded_rng(1, 0)] * 2)
        with pytest.raises(InvalidParameterError, match=message + r"\[\(60, 3\), \(61, 3\)\]"):
            run_multi_pass([data, data, toy_dataset(61, 3)], LOGISTIC, sched, [seeded_rng(1, 0)] * 3)

    @pytest.mark.parametrize("d", [5, 64])
    def test_the_bits_do_not_depend_on_memory_layout(self, d):
        # n = 40 > d = 5 multiplies each block's rows for K, n <= d = 64 gathers
        # it from the data Gram: on both routes one dataset gives the same bits
        # Fortran-ordered alone, C-ordered alone and Fortran-ordered in a batch
        sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
        data = toy_dataset(40, d, seed=3)
        assert engine._gram_route(data.n, d, sched.T) == (d == 64)
        fortran = Dataset(np.asfortranarray(data.X), data.y)
        assert fortran.X.flags.f_contiguous and not fortran.X.flags.c_contiguous
        rngs = [seeded_rng(33, 0), seeded_rng(33, 1)]
        _, [c_alone] = run_multi_pass([data], LOGISTIC, sched, rngs[:1], log_interval=7)
        _, [f_alone] = run_multi_pass([fortran], LOGISTIC, sched, rngs[:1], log_interval=7)
        _, [f_batch, _] = run_multi_pass(
            [fortran, toy_dataset(40, d, seed=4)], LOGISTIC, sched, rngs, log_interval=7
        )
        assert f_alone.tobytes() == c_alone.tobytes() == f_batch.tobytes()


def _full_draw(X, K, A, ends, noise_gens):
    """``engine._block_noise`` from a full draw: z_l for every step, in ``_advance``'s order."""
    blocks, g, L, d = X.shape
    Z = np.stack([gen.standard_normal((blocks, L, d)) for gen in noise_gens], axis=1)
    return ((X @ Z.mT) * A[:, None, :L]).sum(axis=-1), A[:, None, ends] @ Z


def _kernel_cases(test):
    """TestBlockKernel's (family, g, interval, T) grid."""
    for mark in (
        pytest.mark.parametrize("family", ["logistic", "smoothed-hinge", "quadratic"]),
        pytest.mark.parametrize("g", [1, 3]),
        pytest.mark.parametrize("interval", [1, 7, None]),
        pytest.mark.parametrize("T", [1, 2, 33, 200]),
    ):
        test = mark(test)
    return test


class TestBlockKernel:
    """_advance_blocks against the per-step _advance on the same index rows and noise streams."""

    D = 12  # below the n of ``inputs``: K from each block's rows
    # the kernels differ only in rounding order; a block's products are O(1)
    # and the chain contracts, so about 4 500 ulps at unit scale is ample
    RTOL = 1e-12

    def inputs(self, family, g, T, seed=0, d=D):
        """g datasets of 40 rows in d dimensions, and an index row for each."""
        datasets = [toy_dataset(40, d, seed=seed + r) for r in range(g)]
        if family == "quadratic":
            # a canary label far outside [-1, 1] makes the clip fire
            datasets = [Dataset(data.X, np.append(data.y[:-1], -1e6)) for data in datasets]
        gen = np.random.default_rng(seed + 100)
        orders = np.stack([gen.integers(0, data.n, size=T) for data in datasets])
        return datasets, orders

    def both(self, loss, datasets, orders, steps, noise_seed, log_times, data=None):
        """(reference log, block log, reference final, block final, data Gram
        floats built) of both kernels.

        The block kernel draws its noise through ``_full_draw``, so both
        kernels read the same z_t and differ only by rounding. ``data`` is
        the kernels' data tuple, by default the datasets stacked.
        """
        g = len(orders)
        data = engine._stacked(datasets) if data is None else data
        n, d = data[0].shape[2:]
        args = (np.zeros((g, 1, d)), data, loss, orders, steps)
        W_ref, reference = engine._advance(
            *args, [np.random.default_rng(noise_seed + r) for r in range(g)], log_times
        )
        built = []
        gram_route = engine._gram_route

        def spy(*rest):
            gathered = gram_route(*rest)
            built.append(g * n * n if gathered else 0)
            return gathered

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_block_noise", _full_draw)
            patch.setattr(engine, "_gram_route", spy)
            W, got = engine._advance_blocks(
                *args, [np.random.default_rng(noise_seed + r) for r in range(g)], log_times
            )
        return reference, got, W_ref, W, sum(built)

    def assert_close(self, reference, got):
        assert reference.shape == got.shape
        assert np.all(np.abs(got - reference) <= self.RTOL * max(1.0, np.abs(reference).max()))

    def check_against_per_step(self, family, g, interval, T, d):
        """Both kernels on ``inputs`` in d dimensions; returns the Gram floats the block kernel built."""
        interval = T if interval is None else interval
        sched = multi_pass_schedule(60, 1.5, 0.9, 1e-4, 1.0, 1.0)
        steps = engine._steps(
            np.resize(sched.etas, T), np.resize(sched.lambda_etas, T), sched.beta0,
            np.ones(T, dtype=np.int64),
        )
        log_times = [t for t in range(1, T + 1) if t % interval == 0 or t == T]
        datasets, orders = self.inputs(family, g, T, d=d)
        reference, got, W_ref, W, built = self.both(
            GlmLoss(family, h=0.3), datasets, orders, steps, 50, log_times
        )
        self.assert_close(reference, got)
        self.assert_close(W_ref, W)
        np.testing.assert_array_equal(got[:, :, -1], W)
        return built

    @_kernel_cases
    def test_matches_the_per_step_kernel(self, family, g, interval, T):
        assert self.check_against_per_step(family, g, interval, T, self.D) == 0

    @_kernel_cases
    def test_matches_the_per_step_kernel_from_data_grams(self, family, g, interval, T):
        # at d = 64 the n = 40 of ``inputs`` is at most d, so K comes from the
        # data Grams once n² <= 32·T: at T = 200, not at T = 33
        built = self.check_against_per_step(family, g, interval, T, 64)
        assert built == (g * 40**2 if T == 200 else 0)

    def test_noisy_schedule_with_full_and_reversing_shrinks_mid_block(self):
        # λη = 1 (a = 0: w forgotten, fresh noise) and λη = 1.9 (a = −0.9)
        # inside blocks of noisy steps
        T = 100
        gen = np.random.default_rng(6)
        etas = 0.5 * gen.random(T)
        lambda_etas = 0.05 + 0.55 * gen.random(T)
        lambda_etas[[0, 10, 40, 41, 63]] = 1.0
        lambda_etas[[20, 45, 46, 95]] = 1.9
        steps = engine._steps(etas, lambda_etas, 0.8, np.ones(T, dtype=np.int64))
        assert steps[2].all()
        datasets, orders = self.inputs("quadratic", 2, T, seed=12)
        log_times = [5, 10, 11, 32, 33, 41, 64, 77, 100]
        reference, got, W_ref, W, _ = self.both(QUADRATIC, datasets, orders, steps, 80, log_times)
        self.assert_close(reference, got)
        self.assert_close(W_ref, W)

    def test_groups_that_share_a_dataset_through_a_broadcast_view(self):
        # four groups on one dataset, passed as a broadcast view, with
        # n = 40 <= d = 64 and n² <= 32·T: K from the data Grams, and the
        # kernel matches the per-step one
        T, g = 100, 4
        [data], _ = self.inputs("logistic", 1, T, d=64)
        orders = np.random.default_rng(9).integers(0, data.n, size=(g, T))
        sched = multi_pass_schedule(60, 1.5, 0.9, 1e-4, 1.0, 1.0)
        steps = engine._steps(sched.etas[:T], sched.lambda_etas[:T], sched.beta0, np.ones(T, dtype=np.int64))
        shared = (np.broadcast_to(data.X, (g, 1, *data.X.shape)), np.broadcast_to(data.y, (g, 1, data.n)))
        reference, got, W_ref, W, built = self.both(LOGISTIC, None, orders, steps, 60, [50, T], data=shared)
        assert built > 0
        self.assert_close(reference, got)
        self.assert_close(W_ref, W)

    def test_the_gram_route_rule(self):
        # groups gather K iff n <= d and n² <= 32·T; at T = 200, 32·T = 80²
        ns = [1, 70, 71, 80, 81]
        assert [engine._gram_route(n, 70, 200) for n in ns] == [True, True, False, False, False]
        assert [engine._gram_route(n, 100, 200) for n in ns] == [True, True, True, True, False]
        assert [engine._gram_route(n, 100, 199) for n in ns] == [True, True, True, False, False]

    def blocks(self, datasets, orders, steps, log_times):
        """(final, logged, blocks per _block_noise call) of the block kernel."""
        g = len(orders)
        counts = []
        block_noise = engine._block_noise

        def spy(X, *rest):
            counts.append(len(X))
            return block_noise(X, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_block_noise", spy)
            W, logged = engine._advance_blocks(
                np.zeros((g, 1, self.D)), engine._stacked(datasets), LOGISTIC, orders, steps,
                [np.random.default_rng(70 + r) for r in range(g)], log_times,
            )
        return W, logged, counts

    @pytest.mark.parametrize("interval", [1, 100, None])
    def test_chunks_of_one_block_or_many_give_the_same_bits(self, monkeypatch, interval):
        # a chunk only shares NumPy calls between blocks: the same draws, the
        # same arithmetic, the same bits
        T, g = 300, 2
        interval = T if interval is None else interval
        sched = multi_pass_schedule(60, 1.5, 0.9, 1e-4, 1.0, 1.0)
        steps = engine._steps(sched.etas[:T], sched.lambda_etas[:T], sched.beta0, np.ones(T, dtype=np.int64))
        log_times = [t for t in range(1, T + 1) if t % interval == 0 or t == T]
        datasets, orders = self.inputs("logistic", g, T)
        monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", 1)
        W_one, one, counts_one = self.blocks(datasets, orders, steps, log_times)
        monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", 1 << 30)
        W_many, many, counts_many = self.blocks(datasets, orders, steps, log_times)
        assert sum(counts_one) == sum(counts_many) == -(-T // engine._BLOCK_STEPS)
        assert set(counts_one) == {1} and max(counts_many) > 1
        assert one.tobytes() == many.tobytes()
        assert W_one.tobytes() == W_many.tobytes()

    def test_multi_pass_runs_use_the_block_kernel(self, monkeypatch):
        sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
        assert sched.T > engine._BLOCK_STEPS + 1

        def per_step(*args):
            raise AssertionError("a multi-pass run stepped through _advance")

        calls = []
        blocks = engine._advance_blocks

        def count(*args):
            calls.append(len(args[4][0]))
            return blocks(*args)

        monkeypatch.setattr(engine, "_advance", per_step)
        monkeypatch.setattr(engine, "_advance_blocks", count)
        times, _ = run_multi_pass([toy_dataset(40, 3)], LOGISTIC, sched, [seeded_rng(1, 0)], log_interval=1)
        assert calls == [sched.T]
        assert times == list(range(1, sched.T + 1))


def _z_scores(a, b):
    """|z| of the two-sample differences of the column means of a and b.

    Columns that are constant on both sides must agree exactly and are left out.
    """
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    diff = a.mean(axis=0) - b.mean(axis=0)
    constant = se == 0.0
    assert not diff[constant].any()
    return np.abs(diff[~constant]) / se[~constant]


def _moments(V):
    """Each row of V (samples × variables) with the products of every pair of its entries."""
    i, j = np.triu_indices(V.shape[1])
    return np.concatenate([V, V[:, i] * V[:, j]], axis=1)


class TestBlockNoise:
    """engine._block_noise: the law of (n, S) and the count of normals it reads."""

    # a block of L = 7 steps in d = 3 < L, row 4 repeating row 1, a full shrink
    # (a = 0) at step 3, a reversing step 5 (λη = 1.8), and logs after steps 2 and 5
    L, D = 7, 3
    ENDS = [2, 5, 7]

    def block(self, d=D):
        """(X, K, A) of the block, with N_jl = a_(l+1)···a_(j−1) built entry by entry."""
        gen = np.random.default_rng(31)
        X = gen.standard_normal((self.L, d))
        X[4] = X[1]
        lambda_etas = 0.2 + 0.6 * gen.random(self.L)
        lambda_etas[[3, 5]] = [1.0, 1.8]
        sigmas = engine._steps(np.ones(self.L), lambda_etas, 0.7, np.ones(self.L))[2]
        a = 1.0 - lambda_etas
        N = np.array([
            [np.prod(a[l + 1 : j]) if l < j else 0.0 for l in range(self.L)]
            for j in range(self.L + 1)
        ])
        return X, X @ X.T, N * sigmas

    def test_moments_match_the_full_draw(self):
        # 20 000 draws a side: every mean and every second moment of the 16
        # entries of (n, S) must agree within 4.5 standard errors (fixed before
        # the first run); n_0 = 0 on both sides
        draws = 20_000
        X, K, A = self.block()
        samples = []
        for draw, seed in ((engine._block_noise, 1), (_full_draw, 2)):
            gen = np.random.default_rng(seed)
            [n], [S] = draw(
                np.broadcast_to(X, (1, draws, *X.shape)), np.broadcast_to(K, (1, draws, *K.shape)),
                A[None], self.ENDS, [gen] * draws,
            )
            samples.append(_moments(np.concatenate([n, S.reshape(draws, -1)], axis=1)))
        worst = max(_z_scores(*samples))
        assert worst <= 4.5, worst

    @pytest.mark.parametrize("d", [3, 12])
    @pytest.mark.parametrize("ends", [[7], ENDS])
    def test_a_noisy_block_reads_ends_times_d_plus_L_normals(self, ends, d):
        # whatever the rank of K∘Σ: 3 when d = 3, full when d = 12
        X, K, A = self.block(d)
        gen = np.random.default_rng(5)
        engine._block_noise(X[None, None], K[None, None], A[None], ends, [gen])
        fresh = np.random.default_rng(5)
        fresh.standard_normal(len(ends) * d + self.L)
        assert gen.random() == fresh.random()

    def test_zero_tiny_and_repeated_rows_factor_and_keep_the_law(self):
        # kept rows with x = 0 (row 1), a 10⁻⁹-norm row (row 3) and three
        # parallel rows (2, 5 and 6), a full shrink at step 2 and an inner
        # end at 4: every mean and second moment of (n, S) within 4.5
        # standard errors of the full draw, 20 000 draws a side (fixed before
        # the first run)
        draws, L, d, ends = 20_000, 7, 3, [4, 7]
        gen = np.random.default_rng(32)
        X = gen.standard_normal((L, d))
        X[1] = 0.0
        X[3] *= 1e-9 / np.linalg.norm(X[3])
        X[5] = X[2]
        X[6] = -0.5 * X[2]
        lambda_etas = 0.2 + 0.6 * gen.random(L)
        lambda_etas[2] = 1.0
        sigmas = engine._steps(np.ones(L), lambda_etas, 0.7, np.ones(L))[2]
        a = 1.0 - lambda_etas
        N = np.array([[np.prod(a[l + 1 : j]) if l < j else 0.0 for l in range(L)] for j in range(L + 1)])
        A = N * sigmas
        kept = engine._block_cov(A[None], ends)[1][0].diagonal() > 0.0
        np.testing.assert_array_equal(kept, [False, True, True, True, False, True, True])
        samples = []
        for draw, seed in ((engine._block_noise, 3), (_full_draw, 4)):
            rng = np.random.default_rng(seed)
            [n], [S] = draw(
                np.broadcast_to(X, (1, draws, L, d)), np.broadcast_to(X @ X.T, (1, draws, L, L)),
                A[None], ends, [rng] * draws,
            )
            samples.append(_moments(np.concatenate([n, S.reshape(draws, -1)], axis=1)))
        worst = max(_z_scores(*samples))
        assert worst <= 4.5, worst

    def test_a_stack_of_blocks_is_its_blocks_one_by_one(self):
        # three blocks of one shape, each with its own steps and rows, for two
        # groups: one call on the stack gives every bit that a call per block
        # gives, and leaves each generator where those calls leave it
        blocks, g, L, d = 3, 2, self.L, self.D
        gen = np.random.default_rng(34)
        a = 1.0 - (0.2 + 0.6 * gen.random((blocks, L)))
        a[1, 3] = 0.0  # a full shrink inside the second block
        N = np.array([
            [[np.prod(a[b, l + 1 : j]) if l < j else 0.0 for l in range(L)] for j in range(L + 1)]
            for b in range(blocks)
        ])
        A = N * engine._steps(np.ones(blocks * L), 1.0 - a.ravel(), 0.7, np.ones(blocks * L))[2].reshape(blocks, 1, L)
        X = gen.standard_normal((blocks, g, L, d))
        K = X @ X.mT
        M, Sigma = engine._block_cov(A, self.ENDS)
        stacked = [np.random.default_rng(60 + j) for j in range(g)]
        n, S = engine._block_noise(X, K, A, self.ENDS, stacked)
        one_by_one = [np.random.default_rng(60 + j) for j in range(g)]
        for b in range(blocks):
            [M_b], [Sigma_b] = engine._block_cov(A[b : b + 1], self.ENDS)
            assert M[b].tobytes() == M_b.tobytes() and Sigma[b].tobytes() == Sigma_b.tobytes()
            [n_b], [S_b] = engine._block_noise(X[b : b + 1], K[b : b + 1], A[b : b + 1], self.ENDS, one_by_one)
            assert n[b].tobytes() == n_b.tobytes() and S[b].tobytes() == S_b.tobytes()
        assert [r.bit_generator.state for r in stacked] == [r.bit_generator.state for r in one_by_one]

    def test_the_layout_of_K_does_not_matter(self):
        # a K with the same entries in another memory layout (a K gathered by
        # fancy indexing need not be C-contiguous) gives the same bits and
        # leaves each generator in the same state
        blocks, g, L, d = 3, 2, self.L, self.D
        gen = np.random.default_rng(35)
        X, _, A = self.block()
        X = X + 0.1 * gen.standard_normal((blocks, g, L, d))
        A = np.broadcast_to(A, (blocks, *A.shape))
        K = X @ X.mT
        out = []
        for layout in (K, np.asfortranarray(K), K.mT.copy().mT):
            assert np.array_equal(layout, K)
            gens = [np.random.default_rng(70 + j) for j in range(g)]
            n, S = engine._block_noise(X, layout, A, self.ENDS, gens)
            out.append((n.tobytes(), S.tobytes(), [r.bit_generator.state for r in gens]))
        assert out[1] == out[0] and out[2] == out[0]

    def test_structural_rows_are_decoupled(self):
        # row 0 and the inner ends 2 and 5 have B_j = 0 up to rounding and
        # exactly 0 rows of Σ; the other rows keep Σ = BBᵀ
        X, K, A = self.block()
        [M], [Sigma] = engine._block_cov(A[None], self.ENDS)
        kept = Sigma.diagonal() > 0.0
        np.testing.assert_array_equal(kept, [False, True, False, True, True, False, True])
        # BBᵀ = AAᵀ − MMᵀ, since Ĉ has orthonormal columns
        BB = A[: self.L] @ A[: self.L].T - M[: self.L] @ M[: self.L].T
        tolerance = 1e-14 * np.abs(A).max() ** 2
        assert np.abs(BB[~kept]).max() <= tolerance
        assert not Sigma[~kept].any() and not Sigma[:, ~kept].any()
        np.testing.assert_allclose(Sigma[kept][:, kept], BB[kept][:, kept], atol=tolerance)

    def test_block_kernel_has_the_law_of_the_per_step_kernel(self):
        # 4 000 chains a side on one quadratic dataset (n = 5, d = 3 < L, row 4
        # repeating row 1), T = 80 with η in [0.5, 2] so that the margin noise
        # moves the iterate, a full shrink at step 40, a reversing step 50
        # (λη = 1.9), and logs inside blocks and at their ends.
        # At each logged step every mean and second moment of the coordinates
        # must agree within 4.5 standard errors; fixed before the first run.
        chains, T, d = 4000, 80, 3
        gen = np.random.default_rng(41)
        X = gen.standard_normal((5, d))
        X *= 0.9 / np.linalg.norm(X, axis=1, keepdims=True)
        X[4] = X[1]
        y = np.array([0.8, -0.5, 0.3, -0.9, 0.6])
        etas = 0.5 + 1.5 * gen.random(T)
        lambda_etas = 0.05 + 0.25 * gen.random(T)
        lambda_etas[[0, 39, 49]] = [1.0, 1.0, 1.9]
        steps = engine._steps(etas, lambda_etas, 1.0, np.ones(T, dtype=np.int64))
        log_times = [10, 32, 45, 50, 64, 71, 80]
        samples = []
        for kernel, seed in ((engine._advance, 1), (engine._advance_blocks, 2)):
            rng = np.random.default_rng(seed)
            logs = []
            for _ in range(4):  # 1 000 chains at a time keeps the block Grams small
                orders = rng.integers(0, 5, size=(chains // 4, T))
                # every chain on the one dataset, as a broadcast view
                shared = (np.broadcast_to(X, (chains // 4, 1, 5, d)), np.broadcast_to(y, (chains // 4, 1, 5)))
                _, logged = kernel(
                    np.zeros((chains // 4, 1, d)), shared, QUADRATIC, orders, steps,
                    [rng] * (chains // 4), log_times,
                )
                logs.append(logged[:, 0])
            W = np.concatenate(logs)
            samples.append(np.concatenate([_moments(W[:, i]) for i in range(len(log_times))], axis=1))
        worst = max(_z_scores(*samples))
        assert worst <= 4.5, worst


# The largest condition number of Σ′, the correlation matrix of a block's
# kept residuals, that any block of a multi-pass schedule may have; fixed
# before any run. K̂∘Σ′, the matrix the block draw factors, is no worse.
MAX_SIGMA_CONDITION = 1e6


def _residual_correlation_condition(Sigma):
    """cond(Σ′), Σ′ the correlation matrix of the rows of Σ that are not zero."""
    kept = Sigma.diagonal() > 0.0
    scales = np.sqrt(Sigma.diagonal()[kept])
    return np.linalg.cond(Sigma[kept][:, kept] / np.outer(scales, scales)) if kept.any() else 1.0


@given(
    multi=st.booleans(),
    T=st.integers(min_value=1, max_value=2000),
    n=st.integers(min_value=10, max_value=100),
    pass_exponent=st.floats(min_value=1.0, max_value=2.0),
    epsilon=st.floats(min_value=0.3, max_value=1.0),
    delta=st.floats(min_value=1e-7, max_value=1e-3),
    eta0=st.floats(min_value=0.1, max_value=3.0),
    G=st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=100, deadline=None)
def test_data_free_chain_variance_is_beta0_at_every_step(
    multi, T, n, pass_exponent, epsilon, delta, eta0, G
):
    # without data each coordinate follows v_t = a_t²·v_(t−1) + σ_t² from v₀ = 0,
    # a_t = 1 − λ_tη_t; σ_t² = (1 − a_t²)·β₀, through its factor (2 − λ_tη_t), keeps v_t = β₀
    if multi:
        sched = multi_pass_schedule(n, pass_exponent, epsilon, delta, eta0, G)
    else:
        sched = single_pass_schedule(T, G, eta0, epsilon, delta)
    _, lambda_etas, sigmas, _ = engine._schedule_steps(sched)
    terms = zip(((1.0 - lambda_etas) ** 2).tolist(), (sigmas**2).tolist())
    variances = list(itertools.accumulate(terms, lambda v, term: term[0] * v + term[1], initial=0.0))
    np.testing.assert_allclose(variances[1:], sched.beta0, rtol=1e-12)


def test_multi_pass_iterate_is_a_dual_average():
    # in multi pass a_t = 1 − λ_tη_t = η_t/η_(t−1) and a₁ = 0, so dividing step t by η_t gives
    # w_t/η_t = w_(t−1)/η_(t−1) − a_t·ḡ_t + (σ_t/η_t)·z_t: w_T = η_T·(−Σ a_t·ḡ_t + Σ (σ_t/η_t)·z_t)
    sched = multi_pass_schedule(50, 2.0, 0.5, 1e-5, 1.0, loss_bounds(LOGISTIC).G)
    T, d = sched.T, 8
    assert T == 625
    data = toy_dataset(50, d, seed=3)
    steps = engine._schedule_steps(sched)
    etas, lambda_etas, sigmas, _ = steps
    order = np.random.default_rng(5).integers(0, data.n, size=(1, T))
    _, logged = engine._advance(
        np.zeros((1, 1, d)), engine._stacked([data]), LOGISTIC, order, steps,
        [np.random.default_rng(7)], list(range(1, T + 1)),
    )
    W = logged[0, 0]
    # the noise replayed, and each step's clipped gradient at the iterate before it
    z = np.random.default_rng(7).standard_normal((T, d))
    X, y = data.X[order[0]], data.y[order[0]]
    before = np.vstack([np.zeros(d), W[:-1]])
    grads = LOGISTIC.clipped_phi_prime(np.sum(before * X, axis=1), y)[:, None] * X
    dual = -(1.0 - lambda_etas) @ grads + (sigmas / etas) @ z
    np.testing.assert_allclose(etas[-1] * dual, W[-1], rtol=0, atol=1e-12 * max(1.0, np.abs(W).max()))
    # and the noise alone has variance η_T²·Σ (σ_t/η_t)² = β₀
    np.testing.assert_allclose(etas[-1] ** 2 * np.sum((sigmas / etas) ** 2), sched.beta0, rtol=1e-12)


@pytest.mark.parametrize("log_interval", [7, 50])
@pytest.mark.parametrize(
    ("n", "alpha", "epsilon", "n_delta"),
    [
        (4, 1.0, 1.0, 2.4),
        (20, 2.0, 1.0, 1e-3),
        (20, 2.0, 1.0, 2.4999),
        (100, 2.0, 0.1**0.5, 1e-2),
        (256, 2.0, 0.3, 1 / 256),
        (256, 2.0, 0.3, 2.4999),
        (1000, 1.5, 0.5, 1e-2),
        (1000, 1.0, 1.0, 2.49),
    ],
)
def test_every_block_of_a_multi_pass_schedule_is_well_conditioned(
    monkeypatch, n, alpha, epsilon, n_delta, log_interval
):
    # cond(Σ′) depends only on the schedule and the log steps, never on the data
    sched = multi_pass_schedule(n, alpha, epsilon, n_delta / n, 1.0, 1.0)
    conditions = []
    block_noise = engine._block_noise

    def record(X, K, A, ends, noise_gens):
        # one condition number per block of the stack
        conditions.extend(map(_residual_correlation_condition, engine._block_cov(A, ends)[1]))
        return block_noise(X, K, A, ends, noise_gens)

    monkeypatch.setattr(engine, "_block_noise", record)
    run_multi_pass([toy_dataset(n, 3)], LOGISTIC, sched, [seeded_rng(1, 0)], log_interval=log_interval)
    assert len(conditions) == -(-sched.T // engine._BLOCK_STEPS)
    assert max(conditions) < MAX_SIGMA_CONDITION


def test_the_library_runs_without_scipy(tmp_path):
    # with scipy unimportable: account and run in both modes, then a small
    # stability, privacy-utility and excess-risk-vs-n experiment
    script = "\n".join([
        "import io, sys, contextlib",
        "sys.modules['scipy'] = None",
        "from dpsgld import cli, harness",
        "from dpsgld.harness import ExperimentConfig",
        "multi = ['--set', 'mode=multi-pass']",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['account']) == 0",
        "    assert cli.main(['account', *multi]) == 0",
        "    assert cli.main(['run', '--out', sys.argv[1], '--set', 'schedule.T=16']) == 0",
        "    assert cli.main(['run', '--out', sys.argv[2], *multi, '--set', 'data.n=40']) == 0",
        "for experiment, grid in [('stability', {}), ('privacy-utility', {'eps_grid': (0.5,)}),",
        "                         ('excess-risk-vs-n', {'n_grid': (16, 32)})]:",
        "    rows, _ = harness.run_experiment(ExperimentConfig(",
        "        experiment=experiment, **{'n_grid': (20,), 'd_grid': (3,), **grid},",
        "        replicates=2, n_test=500, epsilon=0.5, delta=1e-3, checkpoints=(1, 5)))",
        "    assert rows, experiment",
    ])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, str(tmp_path / "single"), str(tmp_path / "multi")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _digest(*parts):
    # arrays hash by their float64 bytes, everything else by repr (exact for floats)
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _record_digest(schedule, times, iterates, log_interval=1, risk_interval=None):
    """Digest of a run's mode and consumption (from its schedule), its final
    iterate and its logged (t, w_t).

    For a run that logs every step, ``log_interval`` thins the log, and
    ``risk_interval`` appends (t, w·w, Σw) at every risk_interval-th step and
    the last (None without it): the golden digests were recorded in that form.
    """
    last = times[-1]
    parts = [schedule.mode, schedule.sample_budget, iterates[-1]]
    risks = None if risk_interval is None else []
    for t, w in zip(times, iterates):
        if t % log_interval == 0 or t == last:
            parts += [t, w]
        if risks is not None and (t % risk_interval == 0 or t == last):
            risks.append((t, float(w @ w), float(w.sum())))
    return _digest(*parts, risks)


def _golden_single_logistic():
    sched = single_pass_schedule(48, 1.0, 1.0, 0.5, 1e-5)
    times, iterates = run_single_pass(
        toy_dataset(120, 6, seed=3), LOGISTIC, sched, seeded_rng(21, 0), log_interval=1
    )
    return _record_digest(sched, times, iterates, risk_interval=1)


def _golden_single_hinge_d64():
    sched = single_pass_schedule(64, 1.0, 2.0, 0.8, 1e-5)
    times, iterates = run_single_pass(
        toy_dataset(200, 64, seed=4), GlmLoss("smoothed-hinge", h=0.3), sched,
        seeded_rng(22, 0), log_interval=1,
    )
    return _record_digest(sched, times, iterates, log_interval=3, risk_interval=5)


def _golden_multi_logistic():
    sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
    times, [iterates] = run_multi_pass(
        [toy_dataset(40, 5, seed=5)], LOGISTIC, sched, [seeded_rng(23, 0)], log_interval=1
    )
    return _record_digest(sched, times, iterates, risk_interval=1)


def _golden_multi_quadratic_d33():
    sched = multi_pass_schedule(60, 1.3, 0.7, 1e-4, 0.5, 2.0)
    times, [iterates] = run_multi_pass(
        [toy_dataset(60, 33, seed=6)], QUADRATIC, sched, [seeded_rng(24, 0)], log_interval=1
    )
    return _record_digest(sched, times, iterates)


def _golden_multi_logistic_gram():
    # n = 40 <= d = 64 and n² <= 32·T: K gathered from the data Gram
    sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
    data = toy_dataset(40, 64, seed=9)
    assert engine._gram_route(data.n, data.d, sched.T)
    times, [iterates] = run_multi_pass([data], LOGISTIC, sched, [seeded_rng(27, 0)], log_interval=1)
    return _record_digest(sched, times, iterates, risk_interval=1)


def _golden_coupled_d16():
    data = toy_dataset(24, 16, seed=7)
    yp = data.y.copy()
    yp[-1] = -yp[-1]
    sched = multi_pass_schedule(24, 1.5, 0.9, 1e-4, 0.2, 1.0)
    [sq] = coupled_stability_run(
        [(data, Dataset(data.X, yp))], LOGISTIC, sched, [25], range(1, sched.T + 1)
    )
    return _digest([(t, float(v)) for t, v in enumerate(sq, 1)])


def _golden_one_step():
    # two steps of one chain from t = 3 after 7 rows, the second on a smaller batch
    gen = np.random.default_rng(8)
    X = np.stack([0.15 * gen.standard_normal(5) for _ in range(3)])
    y = [0.5, -0.2, 0.9]
    w = gen.standard_normal(5)[None, None]
    noise = [seeded_rng(26, 0).generator]
    w = advance_one_step(w, X, y, QUADRATIC, 0.3, 2.0 * 0.3, 0.4, noise)
    w = advance_one_step(w, X[:2], y[:2], LOGISTIC, 0.2, 1.5 * 0.2, 0.4, noise)
    return _digest(5, 12, w[0, 0])


# sha256 of each run's full output. They pin every bit of every iterate, so a
# change to the update arithmetic (operation order, the shape of a BLAS call)
# shows here; re-record them only for an intended change of output. The three
# multi-pass digests come from the block kernel, which TestBlockKernel holds to
# the per-step kernel and TestBlockNoise to its law; multi-pass-logistic-gram
# gathers K from the data Gram, the other two (n > d) build it from each block.
GOLDEN = {
    "single-pass-logistic": (
        _golden_single_logistic,
        "bca34c0ec49472f115b75139c8a0b57de05839723574001e9b2397d3073adf67",
    ),
    "single-pass-hinge-d64": (
        _golden_single_hinge_d64,
        "c55e14aed6e22d7fa4c3a93b5c84b366912575384207b5b8eb6013407950ff83",
    ),
    "multi-pass-logistic": (
        _golden_multi_logistic,
        "2a667e70edaa20ee53d22ea28b0bcf0fdeed15cc273b811396e9e899a1c3dd48",
    ),
    "multi-pass-quadratic-d33": (
        _golden_multi_quadratic_d33,
        "a563e8ee10793264f14d28d334acc45696b1b050034ea041b5e9e84e65ad7c36",
    ),
    "multi-pass-logistic-gram": (
        _golden_multi_logistic_gram,
        "76c10890690e0726c138ab78c505dae67c7c9f0c4e4b282ddf9a7369f281fc2c",
    ),
    "coupled-d16": (
        _golden_coupled_d16,
        "4ef3faf46232ccb9280c084a829f9703960f1eeb8f8768d66a03c06f9c23d675",
    ),
    "one-step": (
        _golden_one_step,
        "d6ada47c725bba68dd2d8597e0802ab7fc6996a15851d73534ad0723daa29e05",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(name):
    run, expected = GOLDEN[name]
    assert run() == expected
