import math

import numpy as np
import pytest

from dpsgld import engine, harness
from dpsgld.core import Dataset, InvalidParameterError, seeded_rng
from dpsgld.harness import (
    COMPLEMENT_SUBSTREAM,
    DIMENSION_INDEPENDENCE,
    EXCESS_RISK_VS_N,
    EXPERIMENTS,
    PRIVACY_UTILITY,
    RESULT_COLUMNS,
    STABILITY,
    ExperimentConfig,
    ResultRow,
    _checkpoint_ladder,
    _complement,
    _span_basis,
    _span_runs,
    config_echo,
    data_kind,
    default_config,
    loglog_slope_fit,
    population_model,
    rows_to_csv,
    run_experiment,
    summarize,
    write_results,
)
from dpsgld.losses import GlmLoss
from dpsgld.schedules import multi_pass_schedule


class TestLoglogSlopeFit:
    def test_reference_curve(self):
        ns = (128, 256, 512, 1024, 2048)
        points = [(n, math.log(n) / math.sqrt(n)) for n in ns]
        slope, intercept, r2 = loglog_slope_fit(points)
        np.testing.assert_allclose(slope, -0.33739185119532513546, rtol=1e-13)
        np.testing.assert_allclose(intercept, 0.80369598727080083152, rtol=1e-12)
        np.testing.assert_allclose(r2, 0.99896374867885615716, rtol=1e-12)

    def test_exact_power_law(self):
        points = [(n, 3.0 * n**-0.5) for n in (10, 100, 1000, 10_000)]
        slope, intercept, r2 = loglog_slope_fit(points)
        np.testing.assert_allclose(slope, -0.5, atol=1e-12)
        np.testing.assert_allclose(intercept, math.log(3.0), atol=1e-12)
        np.testing.assert_allclose(r2, 1.0, atol=1e-12)

    def test_constant_values_have_unit_r2(self):
        slope, _, r2 = loglog_slope_fit([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert slope == 0.0
        assert r2 == 1.0

    def test_needs_three_points(self):
        with pytest.raises(InvalidParameterError):
            loglog_slope_fit([(10, 1.0), (20, 0.5)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(InvalidParameterError):
            loglog_slope_fit([(10, 1.0), (20, 0.0), (30, 0.5)])
        with pytest.raises(InvalidParameterError):
            loglog_slope_fit([(10, 1.0), (-20, 0.5), (30, 0.5)])

    def test_rejects_degenerate_abscissae(self):
        with pytest.raises(InvalidParameterError):
            loglog_slope_fit([(10, 1.0), (10, 0.5), (10, 0.25)])


class TestExperimentConfig:
    def test_unknown_experiment(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment="ablation")

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment=EXCESS_RISK_VS_N, n_grid=())
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment=EXCESS_RISK_VS_N, n_grid=(1,))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment=EXCESS_RISK_VS_N, replicates=1)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment=EXCESS_RISK_VS_N, n_test=50)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment=EXCESS_RISK_VS_N, loss_family="huber")
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment=EXCESS_RISK_VS_N, dim_factor=0)

    def test_experiment_specific_requirements(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment=DIMENSION_INDEPENDENCE, d_grid=())
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(experiment=PRIVACY_UTILITY, d_grid=(8,), eps_grid=())
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(
                experiment=STABILITY, d_grid=(8, 16), n_grid=(100,)
            )

    def test_result_row_rejects_negative_se(self):
        with pytest.raises(InvalidParameterError):
            ResultRow(
                experiment=EXCESS_RISK_VS_N, n=10, d=10, eps_target=0.5,
                eps_accounted=1.0, eps_claimed=1.0, delta=1e-4, T=10,
                checkpoint_t=10, mean_value=0.1, standard_error=-0.01,
                bound_value=1.0, samples_consumed=10,
            )


class TestDefaultConfigs:
    def test_every_experiment_has_one(self):
        for name in EXPERIMENTS:
            config = default_config(name)
            assert config.experiment == name

    def test_excess_risk_grid(self):
        config = default_config(EXCESS_RISK_VS_N)
        assert config.n_grid == (128, 256, 512, 1024, 2048)
        assert config.replicates == 30
        assert config.dim_factor == 2

    def test_dimension_independence_grid(self):
        config = default_config(DIMENSION_INDEPENDENCE)
        assert config.n_grid == (512,)
        assert config.d_grid == (512, 2048, 8192)
        assert config.feature_law == "sphere"

    def test_stability_settings(self):
        config = default_config(STABILITY)
        assert config.n_grid == (100,) and config.d_grid == (16,)
        assert config.replicates == 200
        np.testing.assert_allclose(config.epsilon, math.sqrt(0.1), rtol=1e-15)
        assert config.delta == 1e-4

    def test_privacy_utility_settings(self):
        config = default_config(PRIVACY_UTILITY)
        assert config.eps_grid == (0.1, 0.3, 1.0)
        assert config.n_grid == (256,) and config.d_grid == (512,)

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            default_config("warmup")


class TestCheckpointLadder:
    def test_decade_ladder(self):
        assert _checkpoint_ladder(1000) == (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

    def test_endpoint_always_included(self):
        assert _checkpoint_ladder(7) == (1, 2, 5, 7)
        assert _checkpoint_ladder(1) == (1,)
        assert _checkpoint_ladder(43) == (1, 2, 5, 10, 20, 43)


@pytest.mark.parametrize(
    "family, kind",
    [("logistic", "logistic"), ("smoothed-hinge", "logistic"), ("quadratic", "quadratic")],
)
def test_population_model_kind_and_wstar(family, kind):
    model = population_model(family, 4, 1.5, "sphere", 0.2)
    assert model.kind == data_kind(family) == kind
    np.testing.assert_array_equal(model.w_star, [1.5, 0.0, 0.0, 0.0])
    assert (model.d, model.feature_law, model.label_noise) == (4, "sphere", 0.2)


def small_config(experiment, **overrides):
    base = {
        EXCESS_RISK_VS_N: dict(n_grid=(16, 32, 64), replicates=3, n_test=2000, dim_factor=1),
        DIMENSION_INDEPENDENCE: dict(n_grid=(32,), d_grid=(8, 16), replicates=3, n_test=2000),
        STABILITY: dict(n_grid=(20,), d_grid=(4,), replicates=5, n_test=2000),
        PRIVACY_UTILITY: dict(
            n_grid=(24,), d_grid=(6,), eps_grid=(0.3, 0.8), replicates=3, n_test=2000
        ),
    }[experiment]
    base.update(overrides)
    return ExperimentConfig(experiment=experiment, seed=99, **base)


class TestExcessRiskExperiment:
    def test_rows_and_summary(self):
        config = small_config(EXCESS_RISK_VS_N)
        rows, summary = run_experiment(config)
        assert [row.n for row in rows] == [16, 32, 64]
        for row in rows:
            assert row.d == row.n
            assert row.T == row.n
            assert row.samples_consumed > row.n  # budget is about sqrt(2) n
            np.testing.assert_allclose(row.eps_target, row.n**-0.25, rtol=1e-12)
            np.testing.assert_allclose(row.eps_claimed, 2.0 * row.eps_target, rtol=1e-12)
            np.testing.assert_allclose(row.eps_accounted, row.eps_claimed, rtol=1e-9)
            np.testing.assert_allclose(row.delta, 1.0 / row.n**2, rtol=1e-12)
            assert row.bound_value > 0
            assert row.note == ""
        assert summary["rows"] == 3
        assert {"loglog_slope", "loglog_intercept", "loglog_r2"} <= set(summary)
        assert summary["eps_accounted_distinct"] == 3

    def test_rerun_is_identical(self):
        config = small_config(EXCESS_RISK_VS_N)
        rows_a, _ = run_experiment(config)
        rows_b, _ = run_experiment(config)
        assert rows_to_csv(rows_a) == rows_to_csv(rows_b)

    def test_zero_wstar_keeps_positive_noise_floor(self):
        # the true optimum is never significantly beaten, and the injected
        # noise keeps the measured excess strictly positive
        config = ExperimentConfig(
            experiment=EXCESS_RISK_VS_N, n_grid=(32, 64), replicates=6,
            n_test=5000, seed=11, wstar_norm=0.0, dim_factor=2,
        )
        rows, _ = run_experiment(config)
        for row in rows:
            assert row.mean_value >= -3.0 * row.standard_error
            assert row.mean_value > 0


class TestDimensionIndependenceExperiment:
    def test_accounting_is_dimension_blind(self):
        config = small_config(DIMENSION_INDEPENDENCE)
        rows, summary = run_experiment(config)
        assert [row.d for row in rows] == [8, 16]
        assert rows[0].eps_accounted == rows[1].eps_accounted
        assert rows[0].T == rows[1].T == 32
        assert summary["eps_accounted_distinct"] == 1
        assert "excess_max_over_min" in summary


class TestStabilityExperiment:
    def test_bound_holds_at_small_scale(self):
        config = small_config(STABILITY)
        rows, summary = run_experiment(config)
        assert summary["bound_holds_everywhere"] is True
        ts = [row.checkpoint_t for row in rows]
        assert ts == sorted(ts)
        assert ts[-1] == rows[0].T
        for row in rows:
            assert row.note == ""
            assert row.mean_value <= row.bound_value + 3.0 * row.standard_error
            assert row.bound_value > 0
        assert summary["bound_to_empirical_min"] >= 1.0

    def test_custom_checkpoints(self):
        config = small_config(STABILITY, checkpoints=(1, 3))
        rows, _ = run_experiment(config)
        assert [row.checkpoint_t for row in rows] == [1, 3]

    def test_checkpoints_must_fit_schedule(self):
        config = small_config(STABILITY, checkpoints=(10**9,))
        with pytest.raises(InvalidParameterError):
            run_experiment(config)


class TestPrivacyUtilityExperiment:
    def test_rows_track_epsilon_grid(self):
        config = small_config(PRIVACY_UTILITY)
        rows, summary = run_experiment(config)
        assert [row.eps_target for row in rows] == [0.3, 0.8]
        for row in rows:
            assert row.T == round(24.0**2 * row.eps_target**2)
            assert row.samples_consumed == row.T
            assert row.note == ""
            assert math.isfinite(row.mean_value)
        assert "worst_monotonicity_violation_se" in summary
        assert summary["claimed_to_exact_min"] > 0

    def test_infeasible_epsilon_becomes_error_row(self):
        config = small_config(PRIVACY_UTILITY, eps_grid=(0.01, 0.5))
        rows, summary = run_experiment(config)
        assert rows[0].note.startswith("error:")
        assert math.isnan(rows[0].mean_value)
        assert rows[0].samples_consumed == 0
        assert rows[1].note == ""
        assert summary["error_rows"] == 1


class TestCsvAndSidecar:
    def test_header_names_every_column(self):
        header = rows_to_csv([]).strip()
        assert header == ",".join(RESULT_COLUMNS)
        assert header.split(",")[0] == "experiment"
        assert "note" in header.split(",")

    def test_float_formatting_and_note_sanitizing(self):
        row = ResultRow(
            experiment=STABILITY, n=10, d=4, eps_target=1 / 3, eps_accounted=0.5,
            eps_claimed=1.0, delta=1e-4, T=7, checkpoint_t=3, mean_value=0.123456789123,
            standard_error=0.01, bound_value=2.5, samples_consumed=7,
            note="error: bad, worse, worst",
        )
        text = rows_to_csv([row])
        line = text.splitlines()[1]
        cells = line.split(",")
        assert len(cells) == len(RESULT_COLUMNS)
        assert cells[3] == "0.333333333"
        assert cells[9] == "0.123456789"
        assert cells[-1] == "error: bad; worse; worst"

    def test_config_echo_lists_every_field(self):
        config = small_config(STABILITY)
        echo = config_echo(config)
        parsed = {}
        for line in echo.splitlines():
            key, sep, value = line.partition(" = ")
            assert sep, f"line {line!r} is not key = value"
            parsed[key] = value
        assert parsed["experiment"] == STABILITY
        assert parsed["n_grid"] == "20"
        assert parsed["seed"] == "99"
        assert parsed["replicates"] == "5"
        # empty grids still get a line, with an empty right-hand side
        assert parsed["checkpoints"] == ""
        import dataclasses

        assert len(parsed) == len(dataclasses.fields(config))

    def test_write_results_files(self, tmp_path):
        config = small_config(PRIVACY_UTILITY, out_dir=str(tmp_path))
        rows, summary = run_experiment(config)
        csv_path, sidecar_path = write_results(config, rows, summary, elapsed_seconds=1.25)
        with open(csv_path) as fh:
            assert fh.read() == rows_to_csv(rows)
        with open(sidecar_path) as fh:
            sidecar = fh.read()
        assert sidecar.startswith("version = ")
        assert "summary.worst_monotonicity_violation_se = " in sidecar
        assert "wall_clock_seconds = 1.250" in sidecar
        assert "experiment = privacy-utility" in sidecar
        assert "\nsimulator = engine.run_multi_pass in the span of each replicate's data;" in sidecar

    def test_summarize_empty_after_errors(self):
        config = small_config(PRIVACY_UTILITY, eps_grid=(0.01,))
        rows, summary = run_experiment(config)
        assert summary["rows"] == 1
        assert summary["error_rows"] == 1
        assert "claimed_to_exact_min" not in summary


def _leaning_dataset(n, d, seed):
    """Rows near e₁, all labelled +1, so every sampled gradient pushes one way."""
    gen = np.random.default_rng(seed)
    X = np.eye(d)[0] + 0.5 * gen.standard_normal((n, d))
    X *= 0.9 / np.linalg.norm(X, axis=1, keepdims=True)
    return Dataset(X, np.ones(n))


class TestSpanRuns:
    """The privacy-utility chains run in the span of their data, then are lifted."""

    LOSS = GlmLoss("logistic")

    def test_lifted_chain_has_the_law_of_the_full_chain(self):
        # Two independent samples of 2 000 chains on one dataset (n = 6, d = 20,
        # T = 144, logged at 40, 80, 120, 144): the span path against the
        # d-dimensional engine. At each logged step the means and variances
        # of x₁ᵀw and of vᵀw for a unit v ⊥ span(X), the mean of ‖w‖², and the
        # lag-1 covariance of vᵀw between logged steps (which sees the
        # complement's decay factor A) must agree within 4.5 standard errors.
        # The tolerance was fixed before the first run.
        n, d, chains = 6, 20, 2000
        data = _leaning_dataset(n, d, seed=3)
        schedule = multi_pass_schedule(n, 2.0, 2.0, 0.3, 1.0, 1.0)
        assert schedule.T == 144
        span = _span_runs(
            [data] * chains, self.LOSS, schedule, [seeded_rng(1, r) for r in range(chains)], 40
        )
        full = engine.run_multi_pass(
            [data] * chains, self.LOSS, schedule, [seeded_rng(2, r) for r in range(chains)],
            log_interval=40,
        )
        assert all(times == [40, 80, 120, 144] for times, _ in span)
        W_span = np.stack([W for _, W in span])
        W_full = np.stack([np.stack([w for _, w in record.iterate_log]) for record in full])
        basis, _ = np.linalg.qr(data.X.T, mode="complete")
        x1, v = data.X[0], basis[:, n]

        def z(a, b):
            se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
            return (a.mean() - b.mean()) / se

        def centered(u):
            return u - u.mean(axis=0)

        stats = {}
        for name, W in (("span", W_span), ("full", W_full)):
            along, across = W @ x1, W @ v
            stats[name] = {
                "x1 mean": along,
                "x1 var": centered(along) ** 2,
                "v mean": across,
                "v var": centered(across) ** 2,
                "norm2 mean": np.sum(W * W, axis=2),
                "v lag-1 cov": centered(across)[:, 1:] * centered(across)[:, :-1],
            }
        # the data moves x₁ᵀw well clear of 0, so a dropped or misplaced gradient shows
        final = W_full[:, -1] @ x1
        assert final.mean() > 6.0 * final.std(ddof=1) / math.sqrt(chains)
        worst = {
            key: max(abs(z(a, b)) for a, b in zip(stats["span"][key].T, stats["full"][key].T))
            for key in stats["span"]
        }
        assert max(worst.values()) <= 4.5, worst

    def test_basis_and_complement_are_exact(self):
        n, d = 5, 12
        data = _leaning_dataset(n, d, seed=8)
        schedule = multi_pass_schedule(n, 2.0, 3.0, 0.3, 1.0, 1.0)
        Q, projected = _span_basis(data)
        assert Q.shape == (d, n) and projected.X.shape == (n, n)
        np.testing.assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(projected.X, data.X @ Q, rtol=0, atol=1e-12)
        assert not projected.X.flags.writeable and not projected.y.flags.writeable
        rep = seeded_rng(4, 0)
        (times, lifted), = _span_runs([data], self.LOSS, schedule, [rep], 10)
        record, = engine.run_multi_pass([projected], self.LOSS, schedule, [rep], log_interval=10)
        assert times == [t for t, _ in record.iterate_log] and times[-1] == schedule.T
        C = np.stack([c for _, c in record.iterate_log])
        P = _complement(Q, schedule, times, rep.substream(COMPLEMENT_SUBSTREAM))
        np.testing.assert_allclose(Q.T @ P.T, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lifted @ Q, C, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(lifted, C @ Q.T + P)

    def test_square_basis_has_no_complement(self):
        data = _leaning_dataset(8, 5, seed=2)
        schedule = multi_pass_schedule(8, 2.0, 1.0, 0.1, 1.0, 1.0)
        Q, projected = _span_basis(data)
        assert Q.shape == (5, 5) and projected.d == 5
        P = _complement(Q, schedule, [10, schedule.T], seeded_rng(0, 0))
        np.testing.assert_array_equal(P, 0.0)

    def test_experiment_runs_the_engine_in_n_columns(self, monkeypatch):
        seen = []

        def recording(datasets, *args, **kwargs):
            seen.extend(data.d for data in datasets)
            return engine.run_multi_pass(datasets, *args, **kwargs)

        monkeypatch.setattr(harness, "run_multi_pass", recording)
        config = small_config(
            PRIVACY_UTILITY, n_grid=(16,), d_grid=(4096,), eps_grid=(0.5,), replicates=2, n_test=100
        )
        rows, _ = run_experiment(config)
        assert rows[0].d == 4096 and rows[0].note == ""
        assert seen == [16, 16]
