import hashlib
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from dpsgld.cli import ConfigError, main, parse_config_text, write_run_record
from dpsgld.core import Dataset, seeded_rng
from dpsgld.datagen import draw_dataset, export_dataset, PopulationModel
from dpsgld.harness import EXPERIMENTS, ExperimentConfig, unread_fields
from dpsgld.losses import FAMILIES, GlmLoss


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


class TestParseConfigText:
    def test_basic_lines(self):
        text = "a = 1\nschedule.T = 8 # trailing comment\n\n# full comment\nb=x\n"
        assert parse_config_text(text) == {"a": "1", "schedule.T": "8", "b": "x"}

    def test_later_duplicate_wins(self):
        assert parse_config_text("k = 1\nk = 2\n") == {"k": "2"}

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match="myfile.cfg:2"):
            parse_config_text("a = 1\nbroken line\n", source="myfile.cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 3\n")


class TestRunCommand:
    def test_single_pass_consumes_exact_budget(self, capsys, tmp_path):
        code, out, err = run_main(
            capsys,
            ["run", "--out", str(tmp_path), "--set", "schedule.T=8", "--set", "data.d=4"],
        )
        assert code == 0, err
        report = parse_kv(out)
        assert report["mode"] == "single-pass"
        assert report["T"] == "8"
        assert report["samples_consumed"] == "11"
        assert (tmp_path / "run_record.csv").exists()
        assert (tmp_path / "account.txt").exists()
        float(report["final_iterate_norm"])

    def test_rerun_outputs_are_byte_identical(self, capsys, tmp_path):
        argv = ["run", "--out", None, "--set", "schedule.T=16", "--set", "data.d=4"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv[2] = str(out_a)
        assert main(list(argv)) == 0
        argv[2] = str(out_b)
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert (out_a / "run_record.csv").read_bytes() == (out_b / "run_record.csv").read_bytes()
        assert (out_a / "account.txt").read_bytes() == (out_b / "account.txt").read_bytes()

    def test_seed_changes_the_run(self, capsys, tmp_path):
        base = ["run", "--set", "schedule.T=16", "--set", "data.d=4"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(base + ["--out", str(out_a), "--seed", "1"]) == 0
        assert main(base + ["--out", str(out_b), "--seed", "2"]) == 0
        capsys.readouterr()
        assert (out_a / "run_record.csv").read_bytes() != (out_b / "run_record.csv").read_bytes()

    def test_multi_pass_mode(self, capsys, tmp_path):
        code, out, err = run_main(
            capsys,
            [
                "run", "--out", str(tmp_path),
                "--set", "mode=multi-pass",
                "--set", "data.n=64", "--set", "data.d=8",
                "--set", "schedule.epsilon=0.3", "--set", "schedule.delta=1e-4",
            ],
        )
        assert code == 0, err
        report = parse_kv(out)
        assert report["mode"] == "multi-pass"
        assert report["T"] == "369"  # round(64^2 * 0.09)
        assert report["samples_consumed"] == "369"
        account = (tmp_path / "account.txt").read_text()
        assert "closed_form_epsilon = " in account

    def test_runs_on_an_imported_dataset(self, capsys, tmp_path):
        model = PopulationModel("logistic", 3, 1.0)
        data = draw_dataset(model, 20, seeded_rng(5, 0))
        data_path = tmp_path / "data.csv"
        export_dataset(data, data_path, "logistic")
        code, out, err = run_main(
            capsys,
            [
                "run", "--out", str(tmp_path / "out"),
                "--set", f"data.file={data_path}",
                "--set", "schedule.T=8",
            ],
        )
        assert code == 0, err
        assert parse_kv(out)["samples_consumed"] == "11"

    @pytest.mark.parametrize(
        "kind, family",
        [("quadratic", "logistic"), ("quadratic", "smoothed-hinge"), ("logistic", "quadratic")],
    )
    def test_imported_kind_must_match_the_loss(self, capsys, tmp_path, kind, family):
        data = draw_dataset(PopulationModel(kind, 3, 0.5), 20, seeded_rng(5, 0))
        data_path = tmp_path / "data.csv"
        export_dataset(data, data_path, kind)
        out_dir = tmp_path / "out"
        base = ["run", "--out", str(out_dir), "--set", f"data.file={data_path}"]
        base += ["--set", "schedule.T=8"]
        code, out, err = run_main(capsys, base + ["--set", f"loss.family={family}"])
        assert code == 2
        assert out == ""
        assert f"holds kind={kind} data, but loss.family={family}" in err
        assert not out_dir.exists()
        code, out, err = run_main(capsys, base + ["--set", f"loss.family={kind}"])
        assert code == 0, err

    @pytest.mark.parametrize("mode", ["single-pass", "multi-pass"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("# d=0 n=2 kind=quadratic\n0.5\n-0.5\n", "d must be >= 1, got 0"),
            ("# d=1 n=0 kind=quadratic\n", "data.csv: header '# d=1 n=0 kind=quadratic': n must be >= 1"),
            ("# d=x n=2 kind=quadratic\n0.5,1\n0.1,-1\n", "data.csv: header '# d=x"),
            ("# d=1 n=2 kind=quadratic\n0.5,abc\n0.1,-1\n", "data.csv: "),
            ("# d=1 n=2 kind=quadratic\n0.5,nan\n0.1,-1\n", "dataset entries must be finite"),
            ("# d=2 n=2 kind=quadratic\n0.9,0.9,1\n0.1,0.1,-1\n", "feature norm 1.27279 > 1"),
        ],
        ids=["no-features", "no-rows", "header-value", "cell", "label-nan", "outside-unit-ball"],
    )
    def test_a_malformed_file_is_a_config_error(self, capsys, tmp_path, text, message, mode):
        data_path = tmp_path / "data.csv"
        data_path.write_text(text)
        out_dir = tmp_path / "out"
        code, out, err = run_main(
            capsys,
            [
                "run", "--out", str(out_dir), "--set", f"data.file={data_path}",
                "--set", "loss.family=quadratic", "--set", f"mode={mode}",
            ],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()

    def test_quiet_suppresses_stdout_but_writes_files(self, capsys, tmp_path):
        code, out, err = run_main(
            capsys,
            ["run", "--quiet", "--out", str(tmp_path), "--set", "schedule.T=8"],
        )
        assert code == 0
        assert out == ""
        assert (tmp_path / "run_record.csv").exists()

    def test_config_file_with_set_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("schedule.T = 100\ndata.d = 4\n")
        code, out, err = run_main(
            capsys,
            [
                "run", "--config", str(config), "--out", str(tmp_path / "out"),
                "--set", "schedule.T=8",
            ],
        )
        assert code == 0, err
        assert parse_kv(out)["T"] == "8"


# sha256 of what `dpsgld run` printed and wrote, run from the output's parent
# directory so stdout holds no absolute path; re-record only for an intended
# change of output.
RUN_DIGESTS = {
    "single-pass-logistic": (
        ["--set", "schedule.T=64", "--set", "data.d=8", "--set", "run.log_interval=5"],
        {
            "stdout": "9fbf32c207be1f083625702c9ccb77f1eb95ac22cfc1bf18becb81d64c9aa340",
            "run_record.csv": "345ceea51e523311aa0112db3bdf3f3b9b0322a0219e4655a3c166404f222e5e",
            "account.txt": "1466faefe8f8d17a7f0a49cca2bd021cb4397d5566b561cbbe958fd72972d492",
        },
    ),
    "multi-pass-quadratic": (
        [
            "--set", "mode=multi-pass", "--set", "loss.family=quadratic",
            "--set", "data.n=40", "--set", "data.d=6", "--set", "schedule.epsilon=0.3",
            "--set", "schedule.delta=1e-4", "--set", "run.log_interval=7",
        ],
        {
            "stdout": "5badc3a9851c1e8f763c4e9783f2b6e26b2de949ff49c64b96c6b81ea8e645aa",
            "run_record.csv": "8f5bbe07be47bda251df6a49e429aaca925b803356c2e03a4d13a489eeea68e0",
            "account.txt": "39b2e3def1f27ffc0d4373d9805373ab1723cf68a373f51bf3529d13d025b4ac",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_outputs_match_recorded_digests(capsys, tmp_path, monkeypatch, name):
    settings, expected = RUN_DIGESTS[name]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(capsys, ["run", "--out", "out"] + settings)
    assert code == 0, err
    got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for file in ("run_record.csv", "account.txt"):
        got[file] = hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest()
    assert got == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_run_record_memory_does_not_grow_with_the_iterates(tmp_path, family):
    # 640 logged iterates on n = 4 000 rows: their margins at once would take
    # 20 MB, and the loss's temporaries as much again; the record scores at
    # most 31 iterates at a time, so its peak stays under four 32-row chunks
    gen = np.random.default_rng(5)
    n, iterates = 4000, 640
    X = gen.standard_normal((n, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True) * 1.001
    data = Dataset(X, np.where(gen.random(n) < 0.5, -1.0, 1.0))
    W = gen.standard_normal((iterates, 4))
    tracemalloc.start()
    try:
        write_run_record(range(1, iterates + 1), W, GlmLoss(family), data, tmp_path / "record.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 32 * n * 8


class TestAccountCommand:
    def test_default_block_is_the_calibration_example(self, capsys):
        code, out, err = run_main(capsys, ["account"])
        assert code == 0, err
        report = parse_kv(out)
        assert report["mode"] == "single-pass"
        assert report["T"] == "10000"
        np.testing.assert_allclose(float(report["rdp_epsilon"]), 0.5, atol=1e-9)
        np.testing.assert_allclose(float(report["dp_epsilon"]), 1.0, atol=1e-9)
        np.testing.assert_allclose(float(report["renyi_order"]), 24.0258509, atol=1e-6)
        np.testing.assert_allclose(float(report["theorem_epsilon"]), 1.0, atol=1e-12)

    def test_multi_pass_block(self, capsys):
        code, out, err = run_main(
            capsys,
            [
                "account",
                "--set", "mode=multi-pass", "--set", "schedule.n=200",
                "--set", "schedule.epsilon=0.9", "--set", "schedule.delta=1e-5",
            ],
        )
        assert code == 0, err
        report = parse_kv(out)
        assert report["mode"] == "multi-pass"
        assert "closed_form_epsilon" in report
        assert "claimed_epsilon" in report
        assert "composed_epsilon" in report
        assert "exp(eps)" in report["note"]

    def test_zero_epsilon_is_a_config_error(self, capsys):
        code, out, err = run_main(capsys, ["account", "--set", "schedule.epsilon=0"])
        assert code == 2
        assert err.startswith("error:")

    def test_every_line_is_key_value(self, capsys):
        code, out, _ = run_main(capsys, ["account"])
        assert code == 0
        for line in out.strip().splitlines():
            assert " = " in line


class TestExperimentCommand:
    PU_ARGS = [
        "--set", "experiment.name=privacy-utility",
        "--set", "experiment.n_grid=24",
        "--set", "experiment.d_grid=6",
        "--set", "experiment.eps_grid=0.3,0.8",
        "--set", "experiment.replicates=3",
        "--set", "experiment.n_test=2000",
    ]

    def test_small_run_writes_csv_and_sidecar(self, capsys, tmp_path):
        code, out, err = run_main(
            capsys, ["experiment", "--out", str(tmp_path)] + self.PU_ARGS
        )
        assert code == 0, err
        report = parse_kv(out)
        assert report["experiment"] == "privacy-utility"
        assert report["rows"] == "2"
        csv_path = tmp_path / "privacy-utility.csv"
        sidecar = tmp_path / "privacy-utility.config.txt"
        assert csv_path.exists() and sidecar.exists()
        assert "summary.worst_monotonicity_violation_se" in report
        sidecar_text = sidecar.read_text()
        assert "eps_grid = 0.3,0.8" in sidecar_text
        assert "wall_clock_seconds = " in sidecar_text

    def test_rerun_is_byte_identical_and_seed_changes_it(self, capsys, tmp_path):
        out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
        assert main(["experiment", "--out", str(out_a), "--seed", "5"] + self.PU_ARGS) == 0
        assert main(["experiment", "--out", str(out_b), "--seed", "5"] + self.PU_ARGS) == 0
        assert main(["experiment", "--out", str(out_c), "--seed", "6"] + self.PU_ARGS) == 0
        capsys.readouterr()
        a = (out_a / "privacy-utility.csv").read_bytes()
        b = (out_b / "privacy-utility.csv").read_bytes()
        c = (out_c / "privacy-utility.csv").read_bytes()
        assert a == b
        assert a != c
        assert "seed = 5" in (out_a / "privacy-utility.config.txt").read_text()
        assert "seed = 6" in (out_c / "privacy-utility.config.txt").read_text()

    def test_unknown_experiment_names_the_choices(self, capsys, tmp_path):
        code, out, err = run_main(
            capsys,
            ["experiment", "--out", str(tmp_path), "--set", "experiment.name=warmup"],
        )
        assert code == 2
        for name in ("excess-risk-vs-n", "dimension-independence", "stability", "privacy-utility"):
            assert name in err

    def test_missing_name_is_an_error(self, capsys, tmp_path):
        code, _, err = run_main(capsys, ["experiment", "--out", str(tmp_path)])
        assert code == 2
        assert "experiment.name" in err


class TestExperimentKeys:
    EVERY_FIELD = {
        "n_grid": "20",
        "d_grid": "3",
        "eps_grid": "0.2,0.4",
        "replicates": "3",
        "n_test": "500",
        "loss_family": "smoothed-hinge",
        "hinge_half_width": "0.25",
        "feature_law": "sphere",
        "wstar_norm": "1.5",
        "label_noise": "0.2",
        "eta0": "0.5",
        "pass_exponent": "1.5",
        "epsilon": "0.7",
        "delta": "0.001",
        "dim_factor": "3",
        "checkpoints": "1,5",
    }
    # only smoothed hinge reads hinge_half_width and only quadratic reads
    # label_noise, so these experiments run under the quadratic loss
    QUADRATIC_RUNS = ("stability", "privacy-utility")

    def test_every_config_field_is_settable(self, capsys, tmp_path):
        # each experiment gets every field it reads, and reads each one back
        fixed = {"experiment", "seed", "out_dir"}
        assert set(self.EVERY_FIELD) == {f.name for f in fields(ExperimentConfig)} - fixed
        read_somewhere = set()
        for name in EXPERIMENTS:
            settings = dict(self.EVERY_FIELD)
            if name in self.QUADRATIC_RUNS:
                settings["loss_family"] = "quadratic"
            reads = {
                field: value for field, value in settings.items()
                if field not in unread_fields(name, settings["loss_family"])
            }
            argv = ["experiment", "--out", str(tmp_path), "--set", f"experiment.name={name}"]
            for field, value in reads.items():
                argv += ["--set", f"experiment.{field}={value}"]
            code, _, err = run_main(capsys, argv)
            assert code == 0, (name, err)
            echo = parse_kv((tmp_path / f"{name}.config.txt").read_text())
            for field, value in reads.items():
                assert echo[field] == value, (name, field)
            read_somewhere |= set(reads)
        assert read_somewhere == set(self.EVERY_FIELD)

        for field in sorted(fixed):
            argv += ["--set", f"experiment.{field}=x"]
        code, _, err = run_main(capsys, argv)
        assert code == 2
        assert (
            "unknown config key(s): experiment.experiment, experiment.out_dir, experiment.seed"
            in err
        )

    @pytest.mark.parametrize(
        "name, settings, refused",
        [
            ("stability", ["eps_grid=0.2"], "eps_grid"),
            ("stability", ["n_test=500"], "n_test"),
            ("stability", ["dim_factor=3"], "dim_factor"),
            ("dimension-independence", ["eps_grid=0.2"], "eps_grid"),
            ("dimension-independence", ["pass_exponent=1.5"], "pass_exponent"),
            ("dimension-independence", ["dim_factor=3"], "dim_factor"),
            ("dimension-independence", ["checkpoints=1"], "checkpoints"),
            ("excess-risk-vs-n", ["d_grid=3"], "d_grid"),
            ("excess-risk-vs-n", ["eps_grid=0.2"], "eps_grid"),
            ("excess-risk-vs-n", ["pass_exponent=1.5"], "pass_exponent"),
            ("excess-risk-vs-n", ["checkpoints=1"], "checkpoints"),
            ("privacy-utility", ["epsilon=0.7"], "epsilon"),
            ("privacy-utility", ["dim_factor=3"], "dim_factor"),
            ("privacy-utility", ["checkpoints=1"], "checkpoints"),
            ("stability", ["hinge_half_width=0.25"], "hinge_half_width"),
            (
                "privacy-utility",
                ["loss_family=quadratic", "hinge_half_width=0.25"],
                "hinge_half_width",
            ),
            ("stability", ["label_noise=0.7"], "label_noise"),
            ("excess-risk-vs-n", ["label_noise=0.7"], "label_noise"),
            (
                "privacy-utility",
                ["loss_family=smoothed-hinge", "label_noise=0.7"],
                "label_noise",
            ),
        ],
    )
    def test_unread_keys_are_refused(self, capsys, tmp_path, name, settings, refused):
        argv = ["experiment", "--out", str(tmp_path / "out"), "--set", f"experiment.name={name}"]
        for setting in settings:
            argv += ["--set", f"experiment.{setting}"]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: unknown config key(s): experiment.{refused}\n"
        assert not (tmp_path / "out").exists()

    def test_unread_and_unknown_keys_are_listed_together(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys,
            [
                "experiment", "--out", str(tmp_path), "--set", "experiment.name=stability",
                "--set", "experiment.n_test=500", "--set", "experiment.nn_grid=4",
            ],
        )
        assert code == 2
        assert err == "error: unknown config key(s): experiment.n_test, experiment.nn_grid\n"


class TestErrorPaths:
    def test_unknown_key_is_named(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys,
            ["run", "--out", str(tmp_path), "--set", "etaa0=1", "--set", "schedule.T=8"],
        )
        assert code == 2
        assert "unknown config key(s): etaa0" in err

    def test_bad_set_syntax(self, capsys):
        code, _, err = run_main(capsys, ["account", "--set", "epsilon"])
        assert code == 2
        assert "--set expects key=value" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_main(capsys, ["account", "--config", "/nonexistent/x.cfg"])
        assert code == 2
        assert "config file not found" in err

    def test_non_numeric_value(self, capsys):
        code, _, err = run_main(capsys, ["account", "--set", "schedule.T=ten"])
        assert code == 2
        assert "schedule.T must be an integer" in err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("experiment.replicates=x", "experiment.replicates must be an integer, got 'x'"),
            ("experiment.eta0=foo", "experiment.eta0 must be a number, got 'foo'"),
            (
                "experiment.n_grid=1,a",
                "experiment.n_grid must be comma-separated integers, got '1,a'",
            ),
            (
                "experiment.eps_grid=0.1,zz",
                "experiment.eps_grid must be comma-separated numbers, got '0.1,zz'",
            ),
        ],
    )
    def test_experiment_value_types(self, capsys, tmp_path, setting, message):
        code, _, err = run_main(
            capsys,
            [
                "experiment", "--out", str(tmp_path),
                "--set", "experiment.name=stability", "--set", setting,
            ],
        )
        assert code == 2
        assert err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["data.d=0"], "d must be >= 1, got 0"),
            (
                ["experiment.name=dimension-independence", "experiment.d_grid=512,0"],
                "d must be >= 1, got 0",
            ),
            (
                ["experiment.name=excess-risk-vs-n", "experiment.n_grid=16,16,16"],
                "the n grid repeats a value, got (16, 16, 16)",
            ),
            (
                ["experiment.name=stability", "experiment.checkpoints=5,5"],
                "the checkpoint grid repeats a value, got (5, 5)",
            ),
        ],
        ids=["run-d=0", "experiment-d_grid-0", "experiment-repeated-n", "experiment-repeated-checkpoint"],
    )
    def test_bad_dimensions_and_grids_are_refused(self, capsys, tmp_path, settings, message):
        command = "experiment" if settings[0].startswith("experiment.") else "run"
        argv = [command, "--out", str(tmp_path / "out")]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_mode(self, capsys):
        code, _, err = run_main(capsys, ["account", "--set", "mode=batch"])
        assert code == 2
        assert "mode must be one of" in err

    @pytest.mark.parametrize("mode", ["single-pass", "multi-pass"])
    @pytest.mark.parametrize("interval", [0, -5])
    def test_log_interval_below_one_is_refused(self, capsys, tmp_path, mode, interval):
        sizes = ["schedule.T=20"] if mode == "single-pass" else ["data.n=40"]
        argv = ["run", "--out", str(tmp_path / "out"), "--set", f"mode={mode}"]
        for setting in [*sizes, f"run.log_interval={interval}"]:
            argv += ["--set", setting]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: log_interval must be an integer >= 1, got {interval}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("experiment.epsilon=-0.5", "epsilon must be >= 0 (0 means the per-n default), got -0.5"),
            ("experiment.epsilon=nan", "epsilon must be >= 0 (0 means the per-n default), got nan"),
            ("experiment.delta=-3", "delta must be >= 0 (0 means the per-n default), got -3.0"),
            ("experiment.delta=nan", "delta must be >= 0 (0 means the per-n default), got nan"),
        ],
    )
    def test_negative_or_nan_epsilon_and_delta_are_refused(self, capsys, tmp_path, setting, message):
        code, out, err = run_main(
            capsys,
            [
                "experiment", "--out", str(tmp_path),
                "--set", "experiment.name=dimension-independence", "--set", setting,
            ],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name, setting, message",
        [
            ("excess-risk-vs-n", "delta=2", "delta must be in (0, 1), got 2.0"),
            ("excess-risk-vs-n", "eta0=-1", "eta0 must be > 0 and finite, got -1.0"),
            ("excess-risk-vs-n", "epsilon=inf", "epsilon must be > 0 and finite, got inf"),
            ("privacy-utility", "eta0=-1", "eta0 must be > 0 and finite, got -1.0"),
            ("privacy-utility", "pass_exponent=3", "pass exponent must be in [1, 2], got 3.0"),
            ("privacy-utility", "eps_grid=0.3,-0.1", "epsilon must be > 0 and finite, got -0.1"),
            ("privacy-utility", "eps_grid=inf", "epsilon must be > 0 and finite, got inf"),
            (
                "privacy-utility", "eps_grid=0.001,0.3",
                "T = round(n^α·ε²) = 0 < 1: epsilon too small for n=256, α=2.0",
            ),
            (
                "privacy-utility", "delta=0.5",
                "need 2.5/(n·δ) > 1 for a real step size at t=1, got n·δ = 128",
            ),
            (
                "stability", "delta=0.5",
                "need 2.5/(n·δ) > 1 for a real step size at t=1, got n·δ = 50",
            ),
        ],
    )
    def test_inputs_a_schedule_refuses_write_no_error_rows(self, capsys, tmp_path, name, setting, message):
        argv = ["experiment", "--out", str(tmp_path / "out"), "--set", f"experiment.name={name}"]
        code, out, err = run_main(capsys, argv + ["--set", f"experiment.{setting}"])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["dimension-independence", "stability", "privacy-utility"])
    def test_second_n_is_refused_where_one_n_is_read(self, capsys, tmp_path, name):
        argv = ["experiment", "--out", str(tmp_path / "out"), "--set", f"experiment.name={name}"]
        code, out, err = run_main(capsys, argv + ["--set", "experiment.n_grid=32,64"])
        assert code == 2
        assert out == ""
        assert err == f"error: {name} needs exactly one n\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["mode=multi-pass", "schedule.epsilon=inf"], "epsilon must be > 0 and finite, got inf"),
            (["mode=multi-pass", "schedule.G=inf"], "G must be > 0 and finite, got inf"),
            (["schedule.eta0=inf"], "eta0 must be > 0 and finite, got inf"),
            (["schedule.epsilon=inf"], "epsilon must be > 0 and finite, got inf"),
            (["schedule.epsilon=-inf"], "epsilon must be > 0 and finite, got -inf"),
            # ε² underflows to 0, so β₀ = (ε + ln(1/δ))η₀²/(2ε²T) is infinite
            (["schedule.epsilon=1e-300"], "beta0 must be > 0 and finite, got inf"),
        ],
    )
    def test_infinite_schedule_inputs_are_refused(self, capsys, settings, message):
        argv = ["account"]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("nan", "nan")])
    def test_negative_or_nan_wstar_norm_is_refused_by_run(self, capsys, tmp_path, value, shown):
        code, out, err = run_main(
            capsys, ["run", "--out", str(tmp_path / "out"), "--set", f"data.wstar_norm={value}"]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: wstar_norm must be >= 0, got {shown}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["stability", "privacy-utility", "excess-risk-vs-n"])
    @pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("nan", "nan")])
    def test_negative_or_nan_wstar_norm_is_refused_by_experiment(
        self, capsys, tmp_path, name, value, shown
    ):
        code, out, err = run_main(
            capsys,
            [
                "experiment", "--out", str(tmp_path), "--set", f"experiment.name={name}",
                "--set", f"experiment.wstar_norm={value}",
            ],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: wstar_norm must be >= 0, got {shown}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("family", ["logistic", "quadratic"])
    def test_infinite_wstar_norm_is_refused_by_run(self, capsys, tmp_path, family):
        code, out, err = run_main(
            capsys,
            [
                "run", "--out", str(tmp_path / "out"), "--set", f"loss.family={family}",
                "--set", "data.wstar_norm=inf",
            ],
        )
        assert code == 2
        assert out == ""
        assert err == "error: wstar_norm must be finite, got inf\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name", ["stability", "privacy-utility", "excess-risk-vs-n", "dimension-independence"]
    )
    def test_infinite_wstar_norm_is_refused_by_experiment(self, capsys, tmp_path, name):
        code, out, err = run_main(
            capsys,
            [
                "experiment", "--out", str(tmp_path), "--set", f"experiment.name={name}",
                "--set", "experiment.wstar_norm=inf",
            ],
        )
        assert code == 2
        assert out == ""
        assert err == "error: wstar_norm must be finite, got inf\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["experiment", "--set", "experiment.name=stability"],
            # every schedule infeasible too: the seed is refused first
            ["experiment", "--set", "experiment.name=privacy-utility",
             "--set", "experiment.eps_grid=0.001"],
        ],
        ids=["run", "experiment", "experiment-infeasible-eps"],
    )
    def test_negative_seed_is_refused(self, capsys, tmp_path, argv):
        code, out, err = run_main(capsys, argv + ["--out", str(tmp_path / "out"), "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "settings",
        [
            ["loss.family=quadratic", "data.label_noise={}"],
            ["experiment.name=stability", "experiment.loss_family=quadratic", "experiment.label_noise={}"],
        ],
        ids=["run", "experiment"],
    )
    def test_non_finite_label_noise_is_refused(self, capsys, tmp_path, settings, value):
        command = "experiment" if settings[0].startswith("experiment.") else "run"
        argv = [command, "--out", str(tmp_path / "out")]
        for setting in settings:
            argv += ["--set", setting.format(value)]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: label noise must be >= 0 and finite, got {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "settings",
        [
            ["loss.family=smoothed-hinge", "loss.h=inf", "schedule.T=16"],
            ["experiment.name=stability", "experiment.loss_family=smoothed-hinge",
             "experiment.hinge_half_width=inf"],
        ],
        ids=["run", "experiment"],
    )
    def test_infinite_hinge_half_width_is_refused(self, capsys, tmp_path, settings):
        # φ′ would be inf/inf = NaN on the quadratic segment
        command = "experiment" if settings[0].startswith("experiment.") else "run"
        argv = [command, "--out", str(tmp_path / "out")]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: smoothing half-width must be > 0 and finite, got inf\n"
        assert not (tmp_path / "out").exists()


class TestZeroNoiseIsRefused:
    """A schedule whose σ_t underflows to 0 at some step has an infinite account:
    every command refuses it with exit 2, warns of nothing and writes nothing."""

    @pytest.mark.parametrize(
        "settings, step",
        [
            (["schedule.eta0=1e-161"], "step t = 8 of 256"),
            (["mode=multi-pass", "schedule.epsilon=0.3", "schedule.eta0=1e-160"], "step t = 197 of 5898"),
        ],
        ids=["single-pass", "multi-pass"],
    )
    def test_run(self, capsys, tmp_path, settings, step):
        argv = ["run", "--out", str(tmp_path)]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: sigma_t = 0 at {step}: ")
        assert not (tmp_path / "run_record.csv").exists()
        assert not (tmp_path / "account.txt").exists()

    @pytest.mark.parametrize(
        "settings",
        [
            # σ_t = 0 from step 8: the report checks σ_T, the smallest
            ["schedule.T=256", "schedule.eta0=1e-161"],
            # the enumeration refuses σ_t = 0 before dividing by it
            ["mode=multi-pass", "schedule.n=256", "schedule.epsilon=0.3", "schedule.eta0=1e-160"],
        ],
        ids=["single-pass", "multi-pass"],
    )
    def test_account(self, capsys, settings):
        argv = ["account"]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: zero noise with nonzero sensitivity\n"

    @pytest.mark.parametrize(
        "name, eta0, step",
        [
            ("excess-risk-vs-n", "1e-161", "step t = 36 of 128"),
            ("dimension-independence", "1e-161", "step t = 24 of 512"),
            ("stability", "1e-161", "step t = 5 of 1000"),
            # at 1e-161, β₀ of the ε = 0.1 cell is 0, which the schedule refuses
            ("privacy-utility", "3e-161", "step t = 160 of 655"),
        ],
    )
    def test_experiment(self, capsys, tmp_path, name, eta0, step):
        argv = ["experiment", "--out", str(tmp_path / "out"), "--set", f"experiment.name={name}"]
        argv += ["--set", f"experiment.eta0={eta0}", "--set", "experiment.replicates=2"]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: sigma_t = 0 at {step}: ")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["account", "--out", "{out}"], "unrecognized arguments: --out"),
        (["account", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["account", "--quiet"], "unrecognized arguments: --quiet"),
        (
            ["run", "--set", "mode=multi-pass", "--set", "schedule.T=5", "--set", "data.n=40"],
            "unknown config key(s): schedule.T",
        ),
        (["run", "--set", "schedule.pass_exponent=1.5"], "unknown config key(s): schedule.pass_exponent"),
        (
            ["run", "--set", "data.file={data}", "--set", "schedule.T=8", "--set", "data.d=4",
             "--set", "data.law=sphere"],
            "unknown config key(s): data.d, data.law",
        ),
        (
            ["run", "--set", "data.file={data}", "--set", "schedule.T=8", "--set", "data.n=40"],
            "unknown config key(s): data.n",
        ),
        (["run", "--set", "loss.h=0.3"], "unknown config key(s): loss.h"),
        (
            ["run", "--set", "loss.family=quadratic", "--set", "loss.h=0.3"],
            "unknown config key(s): loss.h",
        ),
        (
            ["run", "--set", "schedule.T=16", "--set", "data.label_noise=0.7"],
            "unknown config key(s): data.label_noise",
        ),
        (
            ["run", "--set", "loss.family=smoothed-hinge", "--set", "mode=multi-pass",
             "--set", "data.n=40", "--set", "data.label_noise=0.7"],
            "unknown config key(s): data.label_noise",
        ),
    ],
    ids=[
        "account-out", "account-seed", "account-quiet", "multi-pass-T",
        "single-pass-exponent", "file-with-shape", "file-with-n",
        "logistic-h", "quadratic-h", "logistic-label-noise", "hinge-label-noise",
    ],
)
def test_inapplicable_flags_and_keys_are_refused(capsys, tmp_path, argv, message):
    data = draw_dataset(PopulationModel("logistic", 3, 1.0), 20, seeded_rng(5, 0))
    data_path = tmp_path / "data.csv"
    export_dataset(data, data_path, "logistic")
    out_dir = tmp_path / "out"
    argv = [arg.format(out=out_dir, data=data_path) for arg in argv]
    if argv[0] == "run":
        argv += ["--out", str(out_dir)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert not out_dir.exists()


def test_hinge_half_width_is_read_for_smoothed_hinge(capsys, tmp_path):
    settings = ["--set", "loss.family=smoothed-hinge", "--set", "schedule.T=8", "--set", "data.d=4"]
    argv = ["run", "--quiet", "--out", str(tmp_path / "{}")] + settings
    assert main([arg.format("a") for arg in argv] + ["--set", "loss.h=0.1"]) == 0
    assert main([arg.format("b") for arg in argv] + ["--set", "loss.h=0.9"]) == 0
    capsys.readouterr()
    # the width changes the loss, so it changes the recorded empirical risk
    assert (tmp_path / "a" / "run_record.csv").read_bytes() != (
        tmp_path / "b" / "run_record.csv"
    ).read_bytes()


def test_selftest_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "dpsgld.cli", "account", "--set", "schedule.T=100"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "rdp_epsilon = 0.5" in proc.stdout
