"""Command-line front end: run, account, experiment, selftest.

Configuration is a flat text file of ``key = value`` lines (``#`` comments,
nested keys via dots), merged with repeatable ``--set key=value`` overrides;
explicit flags win over both. Unknown keys are rejected by name. All floats
print with 9 significant digits (``core._fmt``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import losses
from .core import (
    Example,
    InfinitePrivacyLossError,
    InvalidParameterError,
    _fmt,
    seeded_rng,
)
from .datagen import (
    LOGISTIC_KIND,
    QUADRATIC_KIND,
    PopulationModel,
    draw_dataset,
    import_dataset,
)
from .engine import SgldState, run_multi_pass, run_single_pass, sgld_step, write_run_record
from .harness import (
    DATA_SUBSTREAM,
    EXPERIMENTS,
    default_config,
    loglog_slope_fit,
    run_experiment,
    write_results,
)
from .losses import GlmLoss, empirical_risk, loss_bounds, loss_gradient
from .oracles import finite_diff_gradient
from .privacy import (
    RdpBudget,
    account_report,
    certify_theorem1,
    gaussian_step_epsilon,
    multi_pass_privacy,
    rdp_to_dp,
)
from .schedules import MULTI_PASS, SINGLE_PASS, multi_pass_schedule, single_pass_schedule

DEFAULT_SEED = 1234

_MODES = (SINGLE_PASS, MULTI_PASS)


class ConfigError(Exception):
    """Bad configuration; the CLI maps this to exit status 2."""


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key = value lines; later duplicates win."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        out[key] = value.strip()
    return out


def _load_options(args) -> dict:
    options: dict = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            options.update(parse_config_text(fh.read(), source=args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        options[key.strip()] = value.strip()
    return options


class _Options:
    """Typed pop-style access; whatever is left at the end is unknown."""

    def __init__(self, raw: dict):
        self._raw = dict(raw)

    def _pop(self, key, default):
        return self._raw.pop(key, default)

    def text(self, key, default=None):
        value = self._pop(key, default)
        return value

    def integer(self, key, default=None):
        value = self._pop(key, None)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None

    def floating(self, key, default=None):
        value = self._pop(key, None)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {value!r}") from None

    def int_tuple(self, key, default=()):
        value = self._pop(key, None)
        if value is None:
            return default
        try:
            return tuple(int(part) for part in str(value).split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated integers, got {value!r}") from None

    def float_tuple(self, key, default=()):
        value = self._pop(key, None)
        if value is None:
            return default
        try:
            return tuple(float(part) for part in str(value).split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated numbers, got {value!r}") from None

    def reject_leftovers(self):
        if self._raw:
            names = ", ".join(sorted(self._raw))
            raise ConfigError(f"unknown config key(s): {names}")


def _loss_from(options: _Options) -> GlmLoss:
    family = options.text("loss.family", losses.LOGISTIC)
    h = options.floating("loss.h", 0.5)
    return GlmLoss(family, h=h)


def cmd_run(options: _Options, seed: int, out_dir: str, quiet: bool) -> int:
    mode = options.text("mode", SINGLE_PASS)
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    loss = _loss_from(options)
    bounds = loss_bounds(loss)
    eta0 = options.floating("schedule.eta0", 1.0)
    epsilon = options.floating("schedule.epsilon", 0.5)
    delta = options.floating("schedule.delta", 1e-5)
    T = options.integer("schedule.T", 256)
    pass_exponent = options.floating("schedule.pass_exponent", 2.0)
    log_interval = options.integer("run.log_interval", None)

    data_file = options.text("data.file", None)
    n = options.integer("data.n", None)
    d = options.integer("data.d", 32)
    law = options.text("data.law", "ball")
    wstar_norm = options.floating("data.wstar_norm", 1.0)
    label_noise = options.floating("data.label_noise", 0.1)
    options.reject_leftovers()

    rng = seeded_rng(seed, 0)
    if data_file is not None:
        dataset, _ = import_dataset(data_file)
    else:
        if mode == SINGLE_PASS and n is None:
            # size the synthetic sample to the schedule's exact budget
            n = single_pass_schedule(T, bounds.G, eta0, epsilon, delta).sample_budget
        if mode == MULTI_PASS and n is None:
            n = 256
        kind = QUADRATIC_KIND if loss.family == losses.QUADRATIC else LOGISTIC_KIND
        w_star = np.zeros(d)
        w_star[0] = wstar_norm
        model = PopulationModel(kind, d, w_star, feature_law=law, label_noise=label_noise)
        dataset = draw_dataset(model, n, rng.substream(DATA_SUBSTREAM))

    def risk_eval(w):
        return float("nan"), empirical_risk(loss, w, dataset)

    if mode == SINGLE_PASS:
        schedule = single_pass_schedule(T, bounds.G, eta0, epsilon, delta)
        record = run_single_pass(
            dataset, loss, schedule, rng, log_interval=log_interval, risk_eval=risk_eval
        )
    else:
        schedule = multi_pass_schedule(
            dataset.n, pass_exponent, epsilon, delta, eta0, bounds.G
        )
        record = run_multi_pass(
            [dataset], loss, schedule, [rng], log_interval=log_interval, risk_eval=risk_eval
        )[0]

    os.makedirs(out_dir, exist_ok=True)
    record_path = os.path.join(out_dir, "run_record.csv")
    account_path = os.path.join(out_dir, "account.txt")
    write_run_record(record, record_path)
    with open(account_path, "w") as fh:
        fh.write(account_report(schedule))
    if not quiet:
        print(f"mode = {record.mode}")
        print(f"T = {schedule.T}")
        print(f"samples_consumed = {record.samples_consumed}")
        print(f"final_iterate_norm = {_fmt(np.linalg.norm(record.final_iterate))}")
        print(f"run_record = {record_path}")
        print(f"account = {account_path}")
    return 0


def cmd_account(options: _Options, quiet: bool) -> int:
    mode = options.text("mode", SINGLE_PASS)
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    G = options.floating("schedule.G", 1.0)
    eta0 = options.floating("schedule.eta0", 1.0)
    epsilon = options.floating("schedule.epsilon", 0.5)
    delta = options.floating("schedule.delta", 1e-5)
    if mode == SINGLE_PASS:
        T = options.integer("schedule.T", 10000)
        options.reject_leftovers()
        schedule = single_pass_schedule(T, G, eta0, epsilon, delta)
    else:
        n = options.integer("schedule.n", 1000)
        pass_exponent = options.floating("schedule.pass_exponent", 2.0)
        options.reject_leftovers()
        schedule = multi_pass_schedule(n, pass_exponent, epsilon, delta, eta0, G)
    sys.stdout.write(account_report(schedule))
    return 0


_EXPERIMENT_OVERRIDES = {
    "n_grid": "int_tuple",
    "d_grid": "int_tuple",
    "eps_grid": "float_tuple",
    "checkpoints": "int_tuple",
    "replicates": "integer",
    "n_test": "integer",
    "dim_factor": "integer",
    "loss_family": "text",
    "feature_law": "text",
    "hinge_half_width": "floating",
    "wstar_norm": "floating",
    "label_noise": "floating",
    "eta0": "floating",
    "pass_exponent": "floating",
    "epsilon": "floating",
    "delta": "floating",
}


def cmd_experiment(options: _Options, seed: int, out_dir: str, quiet: bool) -> int:
    from dataclasses import replace

    name = options.text("experiment.name", None)
    if name is None:
        raise ConfigError("experiment.name is required")
    config = default_config(name, seed=seed, out_dir=out_dir)
    overrides = {}
    for field, getter in _EXPERIMENT_OVERRIDES.items():
        value = getattr(options, getter)(f"experiment.{field}", None)
        if value is not None:
            overrides[field] = value
    options.reject_leftovers()
    if overrides:
        config = replace(config, **overrides)
    started = time.monotonic()
    rows, summary = run_experiment(config)
    elapsed = time.monotonic() - started
    csv_path, sidecar_path = write_results(config, rows, summary, elapsed)
    if not quiet:
        print(f"experiment = {config.experiment}")
        print(f"rows = {len(rows)}")
        for key in sorted(summary):
            print(f"summary.{key} = {_fmt(summary[key])}")
        print(f"csv = {csv_path}")
        print(f"sidecar = {sidecar_path}")
        print(f"wall_clock_seconds = {elapsed:.3f}")
    return 0


def _selftest_checks():
    def budget_enumeration():
        schedule = single_pass_schedule(8, 1.0, 1.0, 0.5, 1e-5)
        assert schedule.sample_budget == 11, schedule.sample_budget
        assert schedule.lambda_eta(1) == 1.0

    def calibration_certificate():
        schedule = single_pass_schedule(10_000, 1.0, 1.0, 0.5, 1e-5)
        budget = certify_theorem1(schedule)
        assert abs(budget.epsilon - 1.0) < 1e-9, budget.epsilon
        assert abs(budget.delta - 1e-5) < 1e-20

    def accountant_constants():
        got = gaussian_step_epsilon(0.1, 1.0, 1.0, 1e-5)
        assert abs(got - 0.9689610525210779) < 1e-9, got
        got = multi_pass_privacy(1000, 1000, 1e-5).epsilon
        assert abs(got - 0.43210391462272967) < 1e-9, got
        got = rdp_to_dp(RdpBudget(10.0, 0.1), 1e-6).epsilon
        assert abs(got - 1.6350567286626971) < 1e-9, got

    def gradient_oracle():
        gen = seeded_rng(20240, 0).generator
        for family in losses.FAMILIES:
            loss = GlmLoss(family)
            for _ in range(10):
                d = int(gen.integers(1, 6))
                x = gen.standard_normal(d)
                x /= max(1.0, float(np.linalg.norm(x)) * (1.0 + 1e-9))
                y = float(gen.choice([-1.0, 1.0]))
                if family == losses.QUADRATIC:
                    y = float(gen.uniform(-1.0, 1.0))
                w = gen.standard_normal(d)
                z = Example(x, y)
                g = loss_gradient(loss, w, z)
                fd = finite_diff_gradient(loss, w, z, 1e-6)
                scale = max(1.0, float(np.linalg.norm(g)))
                assert float(np.linalg.norm(g - fd)) / scale < 1e-5

    def lambda_identity():
        schedule = multi_pass_schedule(64, 1.5, 0.9, 1e-4, 1.0, 1.0)
        for t in range(2, schedule.T + 1):
            lhs = schedule.lambda_(t)
            rhs = 1.0 / schedule.eta(t) - 1.0 / schedule.eta(t - 1)
            assert lhs == rhs, (t, lhs, rhs)
        le = schedule.lambda_etas
        assert np.all(le > 0) and np.all(le <= 1.0)

    def contraction():
        gen = seeded_rng(20241, 0).generator
        loss = GlmLoss(losses.LOGISTIC)
        L = loss_bounds(loss).L
        for trial in range(50):
            d = int(gen.integers(1, 5))
            x = gen.standard_normal(d)
            x /= max(1.0, float(np.linalg.norm(x)) * (1.0 + 1e-9))
            z = Example(x, float(gen.choice([-1.0, 1.0])))
            w1 = gen.standard_normal(d)
            w2 = gen.standard_normal(d)
            eta = float(gen.uniform(0.0, 2.0 / L))
            lam = float(gen.uniform(0.0, 1.0)) / eta
            s1 = SgldState(0, w1, 0, seeded_rng(5000 + trial, 9))
            s2 = SgldState(0, w2, 0, seeded_rng(5000 + trial, 9))
            out1 = sgld_step(s1, [z], eta, lam, 0.01, loss)
            out2 = sgld_step(s2, [z], eta, lam, 0.01, loss)
            before = float(np.linalg.norm(w1 - w2))
            after = float(np.linalg.norm(out1.w - out2.w))
            assert after <= before * (1.0 + 1e-12), (after, before)

    def run_determinism():
        loss = GlmLoss(losses.LOGISTIC)
        schedule = single_pass_schedule(32, 1.0, 1.0, 0.5, 1e-4)
        w_star = np.zeros(8)
        w_star[0] = 1.0
        model = PopulationModel(LOGISTIC_KIND, 8, w_star)
        data = draw_dataset(model, schedule.sample_budget, seeded_rng(7, 3))
        a = run_single_pass(data, loss, schedule, seeded_rng(7, 0))
        b = run_single_pass(data, loss, schedule, seeded_rng(7, 0))
        assert np.array_equal(a.final_iterate, b.final_iterate)

    def loglog_recovery():
        points = [(n, 3.0 * n**-0.5) for n in (128, 256, 512, 1024, 2048)]
        slope, _, r2 = loglog_slope_fit(points)
        assert abs(slope + 0.5) < 1e-12 and r2 > 1.0 - 1e-12

    return [
        ("single-pass budget enumeration", budget_enumeration),
        ("theorem-1 calibration certificate", calibration_certificate),
        ("accountant reference constants", accountant_constants),
        ("gradients match finite differences", gradient_oracle),
        ("multi-pass lambda identity", lambda_identity),
        ("contraction under shared noise", contraction),
        ("run determinism", run_determinism),
        ("log-log fit recovers a power law", loglog_recovery),
    ]


def cmd_selftest(options: _Options, quiet: bool) -> int:
    options.reject_leftovers()
    failures = 0
    for label, check in _selftest_checks():
        try:
            check()
        except Exception as err:
            failures += 1
            print(f"FAIL {label}: {err}")
        else:
            if not quiet:
                print(f"ok   {label}")
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 1
    if not quiet:
        print("all selftest checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsgld",
        description="Noisy-GD training, privacy accounting, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "train one chain and write its run record"),
        ("account", "print the privacy accounting report for a schedule"),
        ("experiment", "run a named experiment and write CSV results"),
        ("selftest", "run the built-in invariant suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, metavar="N")
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key; repeatable",
        )
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    out_dir = "." if args.out is None else args.out
    try:
        options = _Options(_load_options(args))
        if args.command == "run":
            return cmd_run(options, seed, out_dir, args.quiet)
        if args.command == "account":
            return cmd_account(options, args.quiet)
        if args.command == "experiment":
            return cmd_experiment(options, seed, out_dir, args.quiet)
        return cmd_selftest(options, args.quiet)
    except (ConfigError, InvalidParameterError, InfinitePrivacyLossError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"assertion failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
