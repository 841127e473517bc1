import hashlib
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from dpsgld import datagen, engine, harness, planar
from dpsgld.core import Dataset, InvalidParameterError, seeded_rng
from dpsgld.datagen import PopulationModel, draw_dataset
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
    rows_to_csv,
    run_experiment,
    summarize,
    unread_fields,
    write_results,
)
from dpsgld.losses import GlmLoss
from dpsgld.schedules import multi_pass_schedule

from helpers import refuses_zero_noise


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

    @pytest.mark.parametrize(
        "experiment, field, value, message",
        [
            (DIMENSION_INDEPENDENCE, "d_grid", (512, 0), "d must be >= 1, got 0"),
            (STABILITY, "d_grid", (-4,), "d must be >= 1, got -4"),
            (EXCESS_RISK_VS_N, "n_grid", (16, 16, 16), "the n grid repeats a value, got (16, 16, 16)"),
            (DIMENSION_INDEPENDENCE, "d_grid", (8, 16, 8), "the d grid repeats a value, got (8, 16, 8)"),
            (PRIVACY_UTILITY, "eps_grid", (0.3, 0.3), "the epsilon grid repeats a value, got (0.3, 0.3)"),
            (STABILITY, "checkpoints", (5, 5), "the checkpoint grid repeats a value, got (5, 5)"),
        ],
        ids=["d=0", "d<0", "repeated-n", "repeated-d", "repeated-eps", "repeated-checkpoint"],
    )
    def test_bad_grid_entries_are_refused(self, experiment, field, value, message):
        # rows are keyed by their grid values, so a repeat is refused before any cell runs
        with pytest.raises(InvalidParameterError) as info:
            small_config(experiment, **{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("experiment", [DIMENSION_INDEPENDENCE, STABILITY, PRIVACY_UTILITY])
    def test_one_n_experiments_refuse_a_longer_n_grid(self, experiment):
        # they read only n_grid[0]; a second n would be echoed but never run
        with pytest.raises(InvalidParameterError) as info:
            small_config(experiment, n_grid=(32, 64))
        assert str(info.value) == f"{experiment} needs exactly one n"

    @pytest.mark.parametrize(
        "field, value, message, experiments",
        [
            ("delta", 1.0, "delta must be in (0, 1), got 1.0", None),
            ("delta", 2.0, "delta must be in (0, 1), got 2.0", None),
            ("delta", math.inf, "delta must be in (0, 1), got inf", None),
            ("eta0", 0.0, "eta0 must be > 0 and finite, got 0.0", None),
            ("eta0", -1.0, "eta0 must be > 0 and finite, got -1.0", None),
            ("eta0", math.nan, "eta0 must be > 0 and finite, got nan", None),
            ("eta0", math.inf, "eta0 must be > 0 and finite, got inf", None),
            ("pass_exponent", 3.0, "pass exponent must be in [1, 2], got 3.0", None),
            ("pass_exponent", 0.5, "pass exponent must be in [1, 2], got 0.5", None),
            ("pass_exponent", math.nan, "pass exponent must be in [1, 2], got nan", None),
            ("feature_law", "foo", "unknown feature law 'foo'; expected ('ball', 'sphere', 'low-rank')", None),
            ("epsilon", math.inf, "epsilon must be > 0 and finite, got inf", None),
            ("eps_grid", (0.3, 0.0), "epsilon must be > 0 and finite, got 0.0", None),
            ("eps_grid", (-0.1,), "epsilon must be > 0 and finite, got -0.1", None),
            ("eps_grid", (math.nan,), "epsilon must be > 0 and finite, got nan", None),
            ("eps_grid", (0.3, math.inf), "epsilon must be > 0 and finite, got inf", None),
            (
                "eps_grid", (0.01,),
                "T = round(n^α·ε²) = 0 < 1: epsilon too small for n=24, α=2.0", None,
            ),
            (
                "epsilon", 0.001,
                "T = round(n^α·ε²) = 0 < 1: epsilon too small for n=20, α=2.0", (STABILITY,),
            ),
            (
                "delta", 0.5,
                "need 2.5/(n·δ) > 1 for a real step size at t=1, got n·δ = 12", (PRIVACY_UTILITY,),
            ),
            (
                "delta", 0.5,
                "need 2.5/(n·δ) > 1 for a real step size at t=1, got n·δ = 10", (STABILITY,),
            ),
            ("label_noise", math.nan, "label noise must be >= 0 and finite, got nan", None),
            ("label_noise", math.inf, "label noise must be >= 0 and finite, got inf", None),
            (
                "hinge_half_width", math.inf,
                "smoothing half-width must be > 0 and finite, got inf", None,
            ),
            ("wstar_norm", -1.0, "wstar_norm must be >= 0, got -1.0", None),
            ("wstar_norm", math.inf, "wstar_norm must be finite, got inf", None),
        ],
        ids=[
            "delta=1", "delta=2", "delta=inf", "eta0=0", "eta0=-1", "eta0=nan", "eta0=inf",
            "pass_exponent=3", "pass_exponent=0.5", "pass_exponent=nan", "feature_law=foo",
            "epsilon=inf", "eps_grid=0.3,0", "eps_grid=-0.1", "eps_grid=nan", "eps_grid=0.3,inf",
            "eps_grid=0.01", "stability-epsilon=0.001", "privacy-utility-delta=0.5",
            "stability-delta=0.5", "label_noise=nan", "label_noise=inf", "hinge_half_width=inf",
            "wstar_norm=-1", "wstar_norm=inf",
        ],
    )
    def test_inputs_a_schedule_or_law_refuses_are_refused_here(self, field, value, message, experiments):
        # Refused when the config is built, in the loss's, law's or schedule's
        # own words, by each experiment that reads the field (``None``: every one).
        family = {"label_noise": "quadratic", "hinge_half_width": "smoothed-hinge"}.get(field, "logistic")
        readers = tuple(name for name in EXPERIMENTS if field not in unread_fields(name, family))
        assert set(experiments or readers) <= set(readers)
        for experiment in experiments or readers:
            config = small_config(experiment, loss_family=family)
            with pytest.raises(InvalidParameterError) as info:
                replace(config, **{field: value})
            assert str(info.value) == message, experiment

    @pytest.mark.parametrize(
        "experiment, epsilon",
        [(STABILITY, dict(epsilon=10.0)), (PRIVACY_UTILITY, dict(eps_grid=(10.0,)))],
        ids=[STABILITY, PRIVACY_UTILITY],
    )
    def test_building_a_config_evaluates_no_per_step_array(self, experiment, epsilon):
        # T = round(n^α·ε²) = 10^14, so a T-long array would not fit in memory
        config = ExperimentConfig(experiment=experiment, n_grid=(10**6,), d_grid=(4,), **epsilon)
        _, [(_, _, schedule)] = harness._cells(config)
        assert schedule.T == 10**14
        assert not {"etas", "lambda_etas", "batch_sizes"} & set(vars(schedule))

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
    model = PopulationModel(data_kind(family), 4, 1.5, "sphere", 0.2)
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


@pytest.mark.parametrize(
    ("name", "eta0", "T", "beta0"),
    [
        (EXCESS_RISK_VS_N, 1e-161, 128, "4.44659e-323"),
        (DIMENSION_INDEPENDENCE, 1e-161, 512, "2.96439e-323"),
        (STABILITY, 1e-161, 1000, "9.88131e-324"),
        # the ε = 0.1 cell could run; the ε = 0.3 cell after it could not
        (PRIVACY_UTILITY, 1e-160, 5898, "4.34778e-322"),
    ],
)
def test_a_noiseless_cell_is_refused_before_any_data_is_drawn(monkeypatch, name, eta0, T, beta0):
    def drawn(*args, **kwargs):
        raise AssertionError("data drawn before every cell's schedule was checked")

    monkeypatch.setattr(harness, "draw_dataset", drawn)
    monkeypatch.setattr(planar, "_reduced_draws", drawn)
    # the config builds every cell's schedule, which refuses σ_t = 0 at some step
    with refuses_zero_noise(T, beta0):
        replace(default_config(name), eta0=eta0, replicates=2)


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

    def test_a_norm_whose_square_overflows_writes_an_infinite_bound(self, tmp_path):
        # every chain runs and every row is written; only the bound overflows
        config = small_config(EXCESS_RISK_VS_N, wstar_norm=1e200, out_dir=str(tmp_path))
        rows, summary = run_experiment(config)
        assert [row.bound_value for row in rows] == [math.inf] * 3
        assert all(math.isfinite(row.mean_value) for row in rows)
        write_results(config, rows, summary)
        lines = (tmp_path / "excess-risk-vs-n.csv").read_text().splitlines()
        column = RESULT_COLUMNS.index("bound_value")
        assert [line.split(",")[column] for line in lines[1:]] == ["inf"] * 3

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

    @pytest.mark.parametrize("checkpoints", [(0,), (5, 10**9)])
    def test_checkpoints_must_fit_schedule(self, monkeypatch, checkpoints):
        # refused when the config is built, before any replicate's data is drawn
        def drawn(*args, **kwargs):
            raise AssertionError("data drawn before the checkpoints were checked")

        monkeypatch.setattr(harness, "draw_dataset", drawn)
        [(_, _, schedule)] = harness._cells(small_config(STABILITY))[1]
        with pytest.raises(InvalidParameterError) as info:
            run_experiment(small_config(STABILITY, checkpoints=checkpoints))
        assert str(info.value) == f"times must be steps in 1..{schedule.T}, got {checkpoints}"

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_a_violated_bound_exits_1_and_writes_nothing(self, tmp_path, flags):
        # the check is raised, not asserted, so ``python -O`` keeps it
        script = "\n".join([
            "import sys",
            "from dpsgld import cli, harness",
            "harness.stability_bound = lambda *args: -1.0",
            "sys.exit(cli.main(['experiment', '--out', sys.argv[1], '--set', 'experiment.name=stability',",
            "    '--set', 'experiment.n_grid=20', '--set', 'experiment.d_grid=4',",
            "    '--set', 'experiment.replicates=5']))",
        ])
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script, str(out)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1, proc.stderr
        assert "stability bound violated at t=1:" in proc.stderr
        assert not out.exists() or not any(out.iterdir())


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

    def test_infeasible_epsilon_is_refused(self):
        # an ε whose schedule has no certificate never becomes a row
        with pytest.raises(InvalidParameterError) as info:
            small_config(PRIVACY_UTILITY, eps_grid=(0.5, 0.01))
        assert str(info.value) == "T = round(n^α·ε²) = 0 < 1: epsilon too small for n=24, α=2.0"


# sha256 of the CSV of small configs, one per way a row is built: the reduced
# single-pass chain (ball law), the engine's single pass (low-rank law),
# stability at chosen checkpoints, and privacy-utility at one ε.
# Every cell is pinned to its printed digits, so a change in how a row's
# columns are derived shows here; re-record only for an intended change.
CSV_DIGESTS = {
    "single-pass-ball": (
        small_config(EXCESS_RISK_VS_N),
        "88362a40deebcaffff70466013e2371983c06ba54bff841c02aaa527a4e25ab1",
    ),
    "single-pass-low-rank": (
        small_config(DIMENSION_INDEPENDENCE, feature_law="low-rank"),
        "f67fa829e694b304f5aabc33b7f6951a79093de966d5b15c3d10d2d3cb0096ee",
    ),
    "stability-checkpoints": (
        small_config(STABILITY, checkpoints=(2, 30, 89)),
        "f500ef5e421df8b2b030c8681ad08a564e9b3ce63265ea12bd86ca1e7cf639e7",
    ),
    "privacy-utility": (
        small_config(PRIVACY_UTILITY, eps_grid=(0.5,)),
        "8c450bb5337afb8fb8b738deb88c61bc105be32e4b41011f778ab066943245c1",
    ),
}


@pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
def test_small_config_csv_matches_recorded_digest(name):
    config, expected = CSV_DIGESTS[name]
    rows, _ = run_experiment(config)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == expected


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

        single = small_config(DIMENSION_INDEPENDENCE, out_dir=str(tmp_path))
        _, sidecar_path = write_results(single, *run_experiment(single))
        with open(sidecar_path) as fh:
            sidecar = fh.read()
        assert (
            "\nsimulator = the exact-in-law chain of (w1, |w - w1 e1|) on the sphere and "
            "ball laws with d >= 3; engine.run_single_pass on d-dimensional data for the "
            "low-rank law and d < 3\n"
        ) in sidecar
        assert harness.SIMULATORS[EXCESS_RISK_VS_N] == harness.SIMULATORS[DIMENSION_INDEPENDENCE]

    def test_grid_with_no_feasible_epsilon_is_refused(self):
        # there are no error rows to count, so the summary holds only headline numbers
        with pytest.raises(InvalidParameterError) as info:
            small_config(PRIVACY_UTILITY, eps_grid=(0.01,))
        assert str(info.value) == "T = round(n^α·ε²) = 0 < 1: epsilon too small for n=24, α=2.0"
        _, summary = run_experiment(small_config(PRIVACY_UTILITY, eps_grid=(0.5,)))
        assert set(summary) == {"rows", "worst_monotonicity_violation_se", "claimed_to_exact_min"}


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
        span_times, W_span = _span_runs(
            [_span_basis(data)] * chains, self.LOSS, schedule, [seeded_rng(1, r) for r in range(chains)], 40
        )
        full_times, W_full = engine.run_multi_pass(
            [data] * chains, self.LOSS, schedule, [seeded_rng(2, r) for r in range(chains)],
            log_interval=40,
        )
        assert span_times == full_times == [40, 80, 120, 144]
        assert W_span.shape == W_full.shape == (chains, 4, d)
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
        times, [lifted] = _span_runs([(Q, projected)], self.LOSS, schedule, [rep], 10)
        C_times, [C] = engine.run_multi_pass([projected], self.LOSS, schedule, [rep], log_interval=10)
        assert times == C_times and times[-1] == schedule.T
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

    def test_experiment_draws_each_replicate_once_for_every_epsilon(self, monkeypatch):
        drawn, factored = [], []

        def drawing(*args):
            drawn.append(args[1])
            return draw_dataset(*args)

        def factoring(data):
            factored.append(data.n)
            return _span_basis(data)

        monkeypatch.setattr(harness, "draw_dataset", drawing)
        monkeypatch.setattr(harness, "_span_basis", factoring)
        config = small_config(PRIVACY_UTILITY, eps_grid=(0.3, 0.5, 0.8), replicates=3)
        rows, _ = run_experiment(config)
        assert [row.note for row in rows] == ["", "", ""]
        assert drawn == factored == [config.n_grid[0]] * 3

    def test_rows_keep_epsilon_order_and_an_infeasible_epsilon_draws_no_data(self, monkeypatch):
        drawn = []

        def drawing(*args):
            drawn.append(args[1])
            return draw_dataset(*args)

        monkeypatch.setattr(harness, "draw_dataset", drawing)
        config = small_config(PRIVACY_UTILITY, eps_grid=(0.3, 0.8, 0.5), replicates=2)
        rows, _ = run_experiment(config)
        assert [row.eps_target for row in rows] == [0.3, 0.8, 0.5]
        assert [row.note for row in rows] == ["", "", ""]
        assert len(drawn) == 2
        drawn.clear()
        # refused when the config is built, before any replicate draws
        with pytest.raises(InvalidParameterError):
            replace(config, eps_grid=(0.3, 0.01))
        assert drawn == []


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        (EXCESS_RISK_VS_N, {}),
        (DIMENSION_INDEPENDENCE, {}),
        (DIMENSION_INDEPENDENCE, {"feature_law": "low-rank"}),
        (STABILITY, {}),
        (PRIVACY_UTILITY, {}),
    ],
)
def test_run_experiment_builds_the_cells_once(monkeypatch, experiment, overrides):
    # the config builds its cells to validate them and run_experiment once
    # more; the runner runs the very schedules run_experiment constructed,
    # each of which refused σ_t = 0 as it was built
    built, constructed, ran = [], [], []

    def spy(module, name, record, argument=None):
        real = getattr(module, name)

        def spied(*args, **kwargs):
            result = real(*args, **kwargs)
            record.append(result if argument is None else args[argument])
            return result

        monkeypatch.setattr(module, name, spied)

    spy(harness, "_cells", built, 0)
    for name in ("single_pass_schedule", "multi_pass_schedule"):
        spy(harness, name, constructed)
    # every run takes its schedule third
    for name in ("run_single_pass", "coupled_stability_run", "run_multi_pass"):
        spy(harness, name, ran, 2)
    spy(planar, "single_pass", ran, 2)
    config = small_config(experiment, **overrides)
    assert len(built) == 1
    constructed.clear()
    run_experiment(config)
    assert len(built) == 2
    # cells with equal schedules run as one batch, on the first cell's schedule
    assert ran and {id(schedule) for schedule in ran} <= {id(schedule) for schedule in constructed}


class TestSinglePassBatches:
    """The single-pass runner batches its planar cells' chains and runs the rest on the engine."""

    @staticmethod
    def _spy(monkeypatch):
        groups = []

        def recording(models, *args):
            groups.append([model.d for model in models])
            return single_pass(models, *args)

        single_pass = planar.single_pass
        monkeypatch.setattr(planar, "single_pass", recording)
        return groups

    def test_a_shared_schedule_runs_its_cells_as_one_batch(self, monkeypatch):
        groups = self._spy(monkeypatch)
        run_experiment(small_config(DIMENSION_INDEPENDENCE, d_grid=(8, 16, 64, 512)))
        assert groups == [[8, 16, 64, 512]]
        groups.clear()
        run_experiment(small_config(EXCESS_RISK_VS_N))
        assert groups == [[16], [32], [64]]

    @pytest.mark.parametrize(
        "d_grid, batches",
        [
            # n = 32 takes batch sizes 1 to 4: d = 4 and 5 pad their Bartlett
            # factors' columns past d − 2 with zeros, so all four cells stack
            ((4, 512, 5, 64), [[4, 512, 5, 64]]),
            # d = 2 runs the engine, between two batched cells
            ((16, 2, 32), [[16, 32]]),
        ],
    )
    def test_every_cell_of_a_grid_keeps_its_row_alone(self, monkeypatch, d_grid, batches):
        groups = self._spy(monkeypatch)
        config = small_config(DIMENSION_INDEPENDENCE, d_grid=d_grid)
        rows, _ = run_experiment(config)
        assert groups == batches
        assert [row.d for row in rows] == list(d_grid)
        assert [row.note for row in rows] == [""] * len(d_grid)
        for row, d in zip(rows, d_grid):
            [alone], _ = run_experiment(replace(config, d_grid=(d,)))
            assert row == alone

    @pytest.mark.parametrize(
        "law, d_grid", [("low-rank", (8,)), ("sphere", (2,)), ("ball", (1,))]
    )
    def test_low_rank_law_and_small_d_use_the_engine(self, monkeypatch, law, d_grid):
        calls = []

        def recording(data, *args, **kwargs):
            calls.append(data.d)
            return engine.run_single_pass(data, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the reduced chain ran")

        monkeypatch.setattr(harness, "run_single_pass", recording)
        monkeypatch.setattr(planar, "single_pass", refuse)
        config = small_config(DIMENSION_INDEPENDENCE, d_grid=d_grid, feature_law=law)
        rows, _ = run_experiment(config)
        assert [row.note for row in rows] == [""]
        assert calls == [d_grid[0]] * config.replicates

    def test_sphere_and_ball_never_draw_d_dimensional_rows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("d-dimensional rows were drawn")

        monkeypatch.setattr(datagen, "_draw_features", refuse)
        monkeypatch.setattr(harness, "run_single_pass", refuse)
        for law in ("sphere", "ball"):
            for experiment in (EXCESS_RISK_VS_N, DIMENSION_INDEPENDENCE):
                rows, _ = run_experiment(small_config(experiment, feature_law=law))
                assert all(row.note == "" and math.isfinite(row.mean_value) for row in rows)


def test_dimension_independence_far_beyond_the_default_grid(monkeypatch):
    # Criterion 10's checks on n = 512 with the default replicates and n_test,
    # sphere law, at d up to 2⁵⁰: max/min mean excess risk <= 1.5 and one
    # distinct accounted epsilon. No d-dimensional data is drawn, the engine
    # never runs and the chain's (α, β) pairs are scored as they are, so d
    # costs nothing; a d-vector at d = 2⁵⁰ would not fit the address space.
    def refuse(*args, **kwargs):
        raise AssertionError("d-dimensional work ran")

    monkeypatch.setattr(datagen, "_draw_features", refuse)
    monkeypatch.setattr(engine, "run_single_pass", refuse)
    monkeypatch.setattr(harness, "run_single_pass", refuse)
    config = replace(default_config(DIMENSION_INDEPENDENCE), d_grid=(512, 8192, 131072, 2**50))
    assert (config.n_grid, config.feature_law, config.replicates, config.n_test) == (
        (512,), "sphere", 30, 100_000
    )
    rows, summary = run_experiment(config)
    assert [row.d for row in rows] == [512, 8192, 131072, 2**50]
    assert all(row.note == "" for row in rows)
    assert summary["eps_accounted_distinct"] == 1
    ratio = summary["excess_max_over_min"]
    assert ratio <= 1.5, f"excess risk ratio across d is {ratio} > 1.5"
