import hashlib
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from dpsgld.cli import ConfigError, main, parse_config_text
from dpsgld.core import seeded_rng
from dpsgld.datagen import draw_dataset, export_dataset, PopulationModel
from dpsgld.harness import ExperimentConfig


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
        w = np.zeros(3)
        w[0] = 1.0
        model = PopulationModel("logistic", 3, w)
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
        w = np.zeros(3)
        w[0] = 0.5
        data = draw_dataset(PopulationModel(kind, 3, w), 20, seeded_rng(5, 0))
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
            "run_record.csv": "c9b315cc7609783a6cf185297df234640da18f2eee6d0d5bcd56bbd0d8928e63",
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
            "stdout": "66a83fa444738166603dec77f996ecad0bd3dd72a4ae32b138f69a05d904fc71",
            "run_record.csv": "38b610a744c929ff9bc2b6edb6b023767575582bda53ba5be613c0cf41f8243b",
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

    def test_every_config_field_is_settable(self, capsys, tmp_path):
        fixed = {"experiment", "seed", "out_dir"}
        assert set(self.EVERY_FIELD) == {f.name for f in fields(ExperimentConfig)} - fixed
        argv = ["experiment", "--out", str(tmp_path), "--set", "experiment.name=stability"]
        for field, value in self.EVERY_FIELD.items():
            argv += ["--set", f"experiment.{field}={value}"]
        code, _, err = run_main(capsys, argv)
        assert code == 0, err
        echo = parse_kv((tmp_path / "stability.config.txt").read_text())
        for field, value in self.EVERY_FIELD.items():
            assert echo[field] == value, field

        for field in sorted(fixed):
            argv += ["--set", f"experiment.{field}=x"]
        code, _, err = run_main(capsys, argv)
        assert code == 2
        assert (
            "unknown config key(s): experiment.experiment, experiment.out_dir, experiment.seed"
            in err
        )


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

    def test_unknown_mode(self, capsys):
        code, _, err = run_main(capsys, ["account", "--set", "mode=batch"])
        assert code == 2
        assert "mode must be one of" in err


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
    ],
    ids=[
        "account-out", "account-seed", "account-quiet", "multi-pass-T",
        "single-pass-exponent", "file-with-shape", "file-with-n",
    ],
)
def test_inapplicable_flags_and_keys_are_refused(capsys, tmp_path, argv, message):
    data = draw_dataset(PopulationModel("logistic", 3, np.eye(3)[0]), 20, seeded_rng(5, 0))
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
