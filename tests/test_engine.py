import hashlib

import numpy as np
import pytest

from dpsgld import engine
from dpsgld.core import Dataset, Example, InvalidParameterError, seeded_rng
from dpsgld.engine import (
    SgldState,
    coupled_stability_run,
    run_multi_pass,
    run_single_pass,
    sgld_step,
)
from dpsgld.losses import GlmLoss
from dpsgld.schedules import MultiPassSchedule, multi_pass_schedule, single_pass_schedule

LOGISTIC = GlmLoss("logistic")
QUADRATIC = GlmLoss("quadratic")


def toy_dataset(n, d, seed=0):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    X *= 0.9 / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    y = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    return Dataset(X, y)


class TestSgldStep:
    def test_pure_gradient_step_when_lambda_zero(self):
        z = Example(np.array([0.0, 1.0]), 1.0)
        state = SgldState(t=0, w=np.zeros(2), samples_consumed=0, rng=seeded_rng(1, 0))
        out = sgld_step(state, [z], eta_t=0.5, lambda_t=0.0, beta0=1.0, loss=LOGISTIC)
        np.testing.assert_allclose(out.w, [0.0, 0.25], rtol=1e-14)
        assert out.t == 1 and out.samples_consumed == 1

    def test_full_shrink_is_data_independent(self):
        beta0 = 0.7
        eta = 0.2
        za = Example(np.array([0.9, 0.0]), 1.0)
        zb = Example(np.array([0.0, -0.9]), -1.0)
        wa = sgld_step(
            SgldState(0, np.array([5.0, -3.0]), 0, seeded_rng(42, 1)),
            [za], eta, 1.0 / eta, beta0, LOGISTIC,
        ).w
        wb = sgld_step(
            SgldState(0, np.array([-8.0, 2.0]), 0, seeded_rng(42, 1)),
            [zb], eta, 1.0 / eta, beta0, LOGISTIC,
        ).w
        np.testing.assert_array_equal(wa, wb)
        z = seeded_rng(42, 1).generator.standard_normal(2)
        np.testing.assert_allclose(wa, np.sqrt(beta0) * z, rtol=1e-15)

    def test_lambda_eta_two_flips_sign_without_noise(self):
        z = Example(np.array([0.5, 0.5]), 1.0)
        w0 = np.array([1.0, 2.0])
        state = SgldState(0, w0, 0, seeded_rng(3, 0))
        out = sgld_step(state, [z], eta_t=0.1, lambda_t=20.0, beta0=0.5, loss=QUADRATIC)
        g = float(QUADRATIC.phi_prime(w0 @ z.x, z.y)) * z.x
        np.testing.assert_allclose(out.w, -(w0 - 0.1 * g), rtol=1e-14)

    def test_minibatch_mean_gradient(self):
        zs = [Example(np.array([0.4, 0.0]), 1.0), Example(np.array([0.0, 0.8]), -1.0)]
        state = SgldState(0, np.zeros(2), 0, seeded_rng(0, 0))
        out = sgld_step(state, zs, eta_t=1.0, lambda_t=0.0, beta0=0.0, loss=QUADRATIC)
        g = (float(QUADRATIC.phi_prime(0.0, 1.0)) * zs[0].x
             + float(QUADRATIC.phi_prime(0.0, -1.0)) * zs[1].x) / 2.0
        np.testing.assert_allclose(out.w, -g, rtol=1e-14)
        assert out.samples_consumed == 2

    def test_rejects_bad_inputs(self):
        state = SgldState(0, np.zeros(2), 0, seeded_rng(0, 0))
        with pytest.raises(InvalidParameterError):
            sgld_step(state, [], 0.1, 1.0, 1.0, LOGISTIC)
        z3 = Example(np.array([0.1, 0.1, 0.1]), 1.0)
        with pytest.raises(InvalidParameterError):
            sgld_step(state, [z3], 0.1, 1.0, 1.0, LOGISTIC)
        z = Example(np.array([0.1, 0.1]), 1.0)
        with pytest.raises(InvalidParameterError):
            sgld_step(state, [z], 0.1, 30.0, 1.0, LOGISTIC)  # lambda*eta = 3 > 2
        with pytest.raises(InvalidParameterError):
            sgld_step(state, [z], 0.1, 1.0, -1.0, LOGISTIC)
        with pytest.raises(InvalidParameterError, match="not a number"):
            sgld_step(state, [z], float("nan"), 1.0, 1.0, LOGISTIC)


class TestRunSinglePass:
    def test_budget_shortfall_names_required_count(self):
        sched = single_pass_schedule(8, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(10, 3)
        with pytest.raises(InvalidParameterError, match="at least 11"):
            run_single_pass(data, LOGISTIC, sched, seeded_rng(0, 0))

    def test_consumes_exact_budget(self):
        sched = single_pass_schedule(8, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(50, 3)
        rec = run_single_pass(data, LOGISTIC, sched, seeded_rng(0, 0))
        assert rec.samples_consumed == 11
        assert rec.mode == "single-pass"

    def test_deterministic_replay(self):
        sched = single_pass_schedule(32, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(80, 4)
        a = run_single_pass(data, LOGISTIC, sched, seeded_rng(7, 0), log_interval=1)
        b = run_single_pass(data, LOGISTIC, sched, seeded_rng(7, 0), log_interval=1)
        np.testing.assert_array_equal(a.final_iterate, b.final_iterate)
        assert len(a.iterate_log) == len(b.iterate_log) == 32
        for (ta, wa), (tb, wb) in zip(a.iterate_log, b.iterate_log):
            assert ta == tb
            np.testing.assert_array_equal(wa, wb)

    def test_seed_changes_outcome(self):
        sched = single_pass_schedule(32, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(80, 4)
        a = run_single_pass(data, LOGISTIC, sched, seeded_rng(7, 0))
        b = run_single_pass(data, LOGISTIC, sched, seeded_rng(8, 0))
        assert not np.array_equal(a.final_iterate, b.final_iterate)

    def test_log_thinning(self):
        sched = single_pass_schedule(20, 1.0, 1.0, 0.5, 1e-5)
        data = toy_dataset(60, 2)
        rec = run_single_pass(data, LOGISTIC, sched, seeded_rng(1, 0), log_interval=7)
        assert [t for t, _ in rec.iterate_log] == [7, 14, 20]

    def test_first_step_output_ignores_data(self):
        # lambda_1 eta_1 = 1, so a T = 1 run is the prior draw N(0, beta0 I)
        sched = single_pass_schedule(1, 1.0, 1.0, 0.5, 1e-5)
        a = run_single_pass(toy_dataset(5, 3, seed=1), LOGISTIC, sched, seeded_rng(9, 0))
        b = run_single_pass(toy_dataset(5, 3, seed=2), LOGISTIC, sched, seeded_rng(9, 0))
        np.testing.assert_array_equal(a.final_iterate, b.final_iterate)


class TestRunMultiPass:
    def test_deterministic_replay(self):
        sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
        data = toy_dataset(40, 3)
        [a] = run_multi_pass([data], LOGISTIC, sched, [seeded_rng(11, 0)], log_interval=1)
        [b] = run_multi_pass([data], LOGISTIC, sched, [seeded_rng(11, 0)], log_interval=1)
        np.testing.assert_array_equal(a.final_iterate, b.final_iterate)
        assert a.samples_consumed == b.samples_consumed == sched.T

    def test_first_logged_iterate_ignores_data(self):
        sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
        [a, b] = run_multi_pass(
            [toy_dataset(40, 3, seed=1), toy_dataset(40, 3, seed=2)], LOGISTIC, sched,
            [seeded_rng(2, 0), seeded_rng(2, 0)], log_interval=1,
        )
        np.testing.assert_array_equal(a.iterate_log[0][1], b.iterate_log[0][1])
        assert not np.array_equal(a.final_iterate, b.final_iterate)

    def test_degenerate_t_zero_returns_prior_draw(self):
        sched = MultiPassSchedule(
            n=10, pass_exponent=1.0, epsilon=0.1, delta=1e-4,
            eta0=1.0, G=1.0, T=0, beta0=0.25,
        )
        [rec] = run_multi_pass([toy_dataset(10, 4)], LOGISTIC, sched, [seeded_rng(3, 0)])
        assert rec.samples_consumed == 0
        assert [t for t, _ in rec.iterate_log] == [0]
        z = seeded_rng(3, 0).substream(1).generator.standard_normal(4)
        np.testing.assert_allclose(rec.final_iterate, 0.5 * z, rtol=1e-15)

    def test_rejects_schedule_outside_noise_domain(self):
        # n·δ >= 2.5 would make η_1 NaN: the schedule refuses to exist, so no run sees it
        with pytest.raises(InvalidParameterError, match="n·δ = 5"):
            sched = MultiPassSchedule(
                n=10, pass_exponent=1.0, epsilon=0.1, delta=0.5,
                eta0=1.0, G=1.0, T=5, beta0=0.25,
            )
            run_multi_pass([toy_dataset(10, 2)], LOGISTIC, sched, [seeded_rng(0, 0)])

    def test_final_state_always_logged(self):
        sched = multi_pass_schedule(30, 1.5, 0.9, 1e-4, 1.0, 1.0)
        [rec] = run_multi_pass([toy_dataset(30, 2)], LOGISTIC, sched, [seeded_rng(4, 0)], log_interval=10**6)
        assert [t for t, _ in rec.iterate_log] == [sched.T]
        np.testing.assert_array_equal(rec.iterate_log[-1][1], rec.final_iterate)


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
        out = coupled_stability_run([(data, data)], LOGISTIC, sched, [77])
        assert out.shape == (1, sched.T)
        assert np.all(out == 0.0)

    def test_distance_zero_until_swap_index_sampled(self):
        data, prime = self.swapped_pair()
        sched = multi_pass_schedule(24, 1.5, 0.9, 1e-4, 0.2, 1.0)
        seed = 123
        [out] = coupled_stability_run([(data, prime)], LOGISTIC, sched, [seed])
        indices = seeded_rng(seed, 0).generator.integers(0, data.n, size=sched.T)
        hits = np.flatnonzero(indices == data.n - 1) + 1
        # a hit at t=1 cannot separate the chains: lambda_1*eta_1 = 1 wipes
        # the data term, so the first effective hit is the first with t >= 2
        effective = [int(t) for t in hits if sched.lambda_eta(int(t)) != 1.0]
        first_hit = effective[0] if effective else sched.T + 1
        assert np.all(out[: first_hit - 1] == 0.0)
        if effective:
            assert out[first_hit - 1] > 0.0

    def test_shared_first_draw_keeps_chains_together(self):
        data, prime = self.swapped_pair()
        sched = multi_pass_schedule(24, 1.5, 0.9, 1e-4, 0.2, 1.0)
        out = coupled_stability_run([(data, prime)], LOGISTIC, sched, [9])
        assert out[0, 0] == 0.0

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
                coupled_stability_run([bad], LOGISTIC, sched, [1])
            for bad_at in range(3):
                pairs = [(data, data)] * 3
                pairs[bad_at] = bad
                with pytest.raises(InvalidParameterError, match="neighboring datasets"):
                    coupled_stability_run(pairs, LOGISTIC, sched, [1, 2, 3])

    def test_pairs_in_a_batch_must_share_d(self):
        sched = multi_pass_schedule(20, 1.5, 0.9, 1e-4, 0.2, 1.0)
        narrow, wide = toy_dataset(20, 3), toy_dataset(20, 4)
        with pytest.raises(InvalidParameterError, match="share d"):
            coupled_stability_run([(narrow, narrow), (wide, wide)], LOGISTIC, sched, [1, 2])
        with pytest.raises(InvalidParameterError, match="random streams"):
            coupled_stability_run([(narrow, narrow)], LOGISTIC, sched, [1, 2])

    def test_step_size_guard(self):
        data, prime = self.swapped_pair(n=30)
        hot = multi_pass_schedule(30, 1.5, 0.9, 1e-4, 50.0, 1.0)
        assert hot.eta(1) > 1.0
        for replicates in (1, 3):
            with pytest.raises(InvalidParameterError, match="exceeds 1/L"):
                coupled_stability_run([(data, prime)] * replicates, QUADRATIC, hot, list(range(replicates)))


class TestReplicateBatches:
    """A batch of replicates gives each one exactly what it gets alone."""

    D = 512  # a block holds fewer steps than T, for one chain or several

    def schedule(self):
        sched = multi_pass_schedule(60, 1.5, 0.9, 1e-4, 0.2, 1.0)
        assert engine._NOISE_BLOCK_FLOATS // self.D < sched.T
        return sched

    def datasets(self, replicates):
        # replicates may differ in n, not in d
        return [toy_dataset(60 + r, self.D, seed=40 + r) for r in range(replicates)]

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
        batch = run_multi_pass(datasets, LOGISTIC, sched, rngs, log_interval=50)
        assert len(batch) == replicates
        for data, rng, record in zip(datasets, rngs, batch):
            [alone] = run_multi_pass([data], LOGISTIC, sched, [rng], log_interval=50)
            assert _record_digest(record) == _record_digest(alone)

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_coupled_rows_match_single_pairs(self, replicates):
        sched = self.schedule()
        pairs = self.pairs(replicates)
        seeds = [500 + r for r in range(replicates)]
        batch = coupled_stability_run(pairs, LOGISTIC, sched, seeds)
        assert batch.shape == (replicates, sched.T)
        assert np.all(batch[:, -1] > 0.0)
        for pair, seed, row in zip(pairs, seeds, batch):
            [alone] = coupled_stability_run([pair], LOGISTIC, sched, [seed])
            assert row.tobytes() == alone.tobytes()

    def test_groups_split_a_large_batch_without_changing_it(self, monkeypatch):
        sched = self.schedule()
        datasets = self.datasets(3)
        rngs = [seeded_rng(32, r) for r in range(3)]
        pairs = self.pairs(3)
        whole = run_multi_pass(datasets, LOGISTIC, sched, rngs, log_interval=1)
        whole_pairs = coupled_stability_run(pairs, LOGISTIC, sched, [1, 2, 3])
        assert np.all(whole_pairs[:, -1] > 0.0)
        # room for the index rows of two replicates per group
        monkeypatch.setattr(engine, "_GROUP_BYTES", 2 * 8 * sched.T)
        split = run_multi_pass(datasets, LOGISTIC, sched, rngs, log_interval=1)
        assert [_record_digest(r) for r in split] == [_record_digest(r) for r in whole]
        split_pairs = coupled_stability_run(pairs, LOGISTIC, sched, [1, 2, 3])
        assert split_pairs.tobytes() == whole_pairs.tobytes()

    def test_replicates_must_line_up(self):
        sched = self.schedule()
        data = toy_dataset(60, 3)
        with pytest.raises(InvalidParameterError, match="random streams"):
            run_multi_pass([data, data], LOGISTIC, sched, [seeded_rng(1, 0)])
        with pytest.raises(InvalidParameterError, match="at least one replicate"):
            run_multi_pass([], LOGISTIC, sched, [])
        with pytest.raises(InvalidParameterError, match="share d"):
            run_multi_pass([data, toy_dataset(60, 4)], LOGISTIC, sched, [seeded_rng(1, 0)] * 2)


def _digest(*parts):
    # arrays hash by their float64 bytes, everything else by repr (exact for floats)
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _record_digest(record, log_interval=1, risk_interval=None):
    """Digest of a record's mode, consumption, final iterate and (t, w_t) log.

    For a record that logs every step, ``log_interval`` thins the log, and
    ``risk_interval`` appends (t, w·w, Σw) at every risk_interval-th step and
    the last (None without it): the golden digests were recorded in that form.
    """
    last = record.iterate_log[-1][0]
    parts = [record.mode, record.samples_consumed, record.final_iterate]
    risks = None if risk_interval is None else []
    for t, w in record.iterate_log:
        if t % log_interval == 0 or t == last:
            parts += [t, w]
        if risks is not None and (t % risk_interval == 0 or t == last):
            risks.append((t, float(w @ w), float(w.sum())))
    return _digest(*parts, risks)


def _golden_single_logistic():
    sched = single_pass_schedule(48, 1.0, 1.0, 0.5, 1e-5)
    rec = run_single_pass(
        toy_dataset(120, 6, seed=3), LOGISTIC, sched, seeded_rng(21, 0), log_interval=1
    )
    return _record_digest(rec, risk_interval=1)


def _golden_single_hinge_d64():
    sched = single_pass_schedule(64, 1.0, 2.0, 0.8, 1e-5)
    rec = run_single_pass(
        toy_dataset(200, 64, seed=4), GlmLoss("smoothed-hinge", h=0.3), sched,
        seeded_rng(22, 0), log_interval=1,
    )
    return _record_digest(rec, log_interval=3, risk_interval=5)


def _golden_multi_logistic():
    sched = multi_pass_schedule(40, 1.5, 0.9, 1e-4, 1.0, 1.0)
    [rec] = run_multi_pass(
        [toy_dataset(40, 5, seed=5)], LOGISTIC, sched, [seeded_rng(23, 0)], log_interval=1
    )
    return _record_digest(rec, risk_interval=1)


def _golden_multi_quadratic_d33():
    sched = multi_pass_schedule(60, 1.3, 0.7, 1e-4, 0.5, 2.0)
    [rec] = run_multi_pass([toy_dataset(60, 33, seed=6)], QUADRATIC, sched, [seeded_rng(24, 0)], log_interval=1)
    return _record_digest(rec)


def _golden_coupled_d16():
    data = toy_dataset(24, 16, seed=7)
    yp = data.y.copy()
    yp[-1] = -yp[-1]
    sched = multi_pass_schedule(24, 1.5, 0.9, 1e-4, 0.2, 1.0)
    [sq] = coupled_stability_run([(data, Dataset(data.X, yp))], LOGISTIC, sched, [25])
    return _digest([(t, float(v)) for t, v in enumerate(sq, 1)])


def _golden_sgld_step():
    gen = np.random.default_rng(8)
    batch = [Example(0.15 * gen.standard_normal(5), float(y)) for y in (0.5, -0.2, 0.9)]
    state = SgldState(t=3, w=gen.standard_normal(5), samples_consumed=7, rng=seeded_rng(26, 0))
    out = sgld_step(state, batch, eta_t=0.3, lambda_t=2.0, beta0=0.4, loss=QUADRATIC)
    out = sgld_step(out, batch[:2], eta_t=0.2, lambda_t=1.5, beta0=0.4, loss=LOGISTIC)
    return _digest(out.t, out.samples_consumed, out.w)


# sha256 of each run's full output. They pin every bit of every iterate, so a
# change to the update arithmetic (operation order, the shape of a BLAS call)
# shows here; re-record them only for an intended change of output.
GOLDEN = {
    "single-pass-logistic": (
        _golden_single_logistic,
        "12801866cd9821563f64fe1ef92e50dc24a6c212046096cffeb4262dd0564276",
    ),
    "single-pass-hinge-d64": (
        _golden_single_hinge_d64,
        "c55e14aed6e22d7fa4c3a93b5c84b366912575384207b5b8eb6013407950ff83",
    ),
    "multi-pass-logistic": (
        _golden_multi_logistic,
        "52ea4a9434d5e989be6f08828cebf441fed61d6812386384ce27635ec5c5f465",
    ),
    "multi-pass-quadratic-d33": (
        _golden_multi_quadratic_d33,
        "d81acc4296d6ea432407e8b57c8526c099594a6b72e20808dee81720179063ff",
    ),
    "coupled-d16": (
        _golden_coupled_d16,
        "4ef3faf46232ccb9280c084a829f9703960f1eeb8f8768d66a03c06f9c23d675",
    ),
    "sgld-step": (
        _golden_sgld_step,
        "d6ada47c725bba68dd2d8597e0802ab7fc6996a15851d73534ad0723daa29e05",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(name):
    run, expected = GOLDEN[name]
    assert run() == expected
