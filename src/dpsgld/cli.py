"""Command-line front end: run, account, experiment.

Configuration is a flat text file of ``key = value`` lines (``#`` comments,
nested keys via dots), merged with repeatable ``--set key=value`` overrides.
``run`` and ``experiment`` also take ``--seed``, ``--out`` and ``--quiet``;
``account`` writes nothing and draws nothing, so it takes none of them. A key
the command does not read (an unknown name, or one that does not apply to the
chosen mode or data source) is rejected by name. All floats print with 9
significant digits (``core._fmt``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import typing
from dataclasses import replace

import numpy as np

from . import losses
from .core import Dataset, InfinitePrivacyLossError, InvalidParameterError, _fmt, seeded_rng
from .datagen import draw_dataset, import_dataset
from .engine import RunRecord, run_multi_pass, run_single_pass
from .harness import (
    DATA_SUBSTREAM,
    ExperimentConfig,
    data_kind,
    default_config,
    population_model,
    run_experiment,
    write_results,
)
from .losses import GlmLoss, empirical_risk, loss_bounds
from .privacy import account_report
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


# what a value must parse as, for the error message: (one value, a list)
_NOUNS = {int: ("an integer", "integers"), float: ("a number", "numbers")}


class _Options:
    """Typed pop-style access; whatever is left at the end is unknown."""

    def __init__(self, raw: dict):
        self._raw = dict(raw)

    def get(self, key, kind=str, default=None):
        """Pop ``key`` as str, int, float, tuple[int, ...] or tuple[float, ...]."""
        value = self._raw.pop(key, None)
        if value is None:
            return default
        if kind is str:
            return value
        scalar = kind in _NOUNS
        parse = kind if scalar else typing.get_args(kind)[0]
        try:
            if scalar:
                return parse(value)
            return tuple(parse(part) for part in value.split(",") if part.strip())
        except ValueError:
            one, many = _NOUNS[parse]
            wanted = one if scalar else f"comma-separated {many}"
            raise ConfigError(f"{key} must be {wanted}, got {value!r}") from None

    def reject_leftovers(self):
        if self._raw:
            names = ", ".join(sorted(self._raw))
            raise ConfigError(f"unknown config key(s): {names}")


def _loss_from(options: _Options) -> GlmLoss:
    family = options.get("loss.family", str, losses.LOGISTIC)
    h = options.get("loss.h", float, 0.5)
    return GlmLoss(family, h=h)


def cmd_run(options: _Options, seed: int, out_dir: str, quiet: bool) -> int:
    mode = options.get("mode", str, SINGLE_PASS)
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    loss = _loss_from(options)
    bounds = loss_bounds(loss)
    eta0 = options.get("schedule.eta0", float, 1.0)
    epsilon = options.get("schedule.epsilon", float, 0.5)
    delta = options.get("schedule.delta", float, 1e-5)
    if mode == SINGLE_PASS:
        T = options.get("schedule.T", int, 256)
    else:
        pass_exponent = options.get("schedule.pass_exponent", float, 2.0)
    log_interval = options.get("run.log_interval", int)

    data_file = options.get("data.file")
    if data_file is None:
        n = options.get("data.n", int)
        d = options.get("data.d", int, 32)
        law = options.get("data.law", str, "ball")
        wstar_norm = options.get("data.wstar_norm", float, 1.0)
        label_noise = options.get("data.label_noise", float, 0.1)
    options.reject_leftovers()

    rng = seeded_rng(seed, 0)
    if data_file is not None:
        dataset, kind = import_dataset(data_file)
        expected = data_kind(loss.family)
        if kind != expected:
            raise ConfigError(
                f"{data_file} holds kind={kind} data, but loss.family={loss.family} "
                f"trains on kind={expected}"
            )
    else:
        if mode == SINGLE_PASS and n is None:
            # size the synthetic sample to the schedule's exact budget
            n = single_pass_schedule(T, bounds.G, eta0, epsilon, delta).sample_budget
        if mode == MULTI_PASS and n is None:
            n = 256
        model = population_model(loss.family, d, wstar_norm, law, label_noise)
        dataset = draw_dataset(model, n, rng.substream(DATA_SUBSTREAM))

    if mode == SINGLE_PASS:
        schedule = single_pass_schedule(T, bounds.G, eta0, epsilon, delta)
        record = run_single_pass(dataset, loss, schedule, rng, log_interval=log_interval)
    else:
        schedule = multi_pass_schedule(
            dataset.n, pass_exponent, epsilon, delta, eta0, bounds.G
        )
        record = run_multi_pass([dataset], loss, schedule, [rng], log_interval=log_interval)[0]

    os.makedirs(out_dir, exist_ok=True)
    record_path = os.path.join(out_dir, "run_record.csv")
    account_path = os.path.join(out_dir, "account.txt")
    write_run_record(record, loss, dataset, record_path)
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


def write_run_record(record: RunRecord, loss: GlmLoss, dataset: Dataset, path) -> None:
    """One row per logged step: t, population risk (never estimated, so nan),
    empirical risk on ``dataset``, and ‖w_t‖."""
    lines = ["t,risk_population,risk_empirical,iterate_norm"]
    for t, w in record.iterate_log:
        risk = empirical_risk(loss, w, dataset)
        lines.append(f"{t},nan,{_fmt(risk)},{_fmt(np.linalg.norm(w))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_account(options: _Options) -> int:
    mode = options.get("mode", str, SINGLE_PASS)
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    G = options.get("schedule.G", float, 1.0)
    eta0 = options.get("schedule.eta0", float, 1.0)
    epsilon = options.get("schedule.epsilon", float, 0.5)
    delta = options.get("schedule.delta", float, 1e-5)
    if mode == SINGLE_PASS:
        T = options.get("schedule.T", int, 10000)
        options.reject_leftovers()
        schedule = single_pass_schedule(T, G, eta0, epsilon, delta)
    else:
        n = options.get("schedule.n", int, 1000)
        pass_exponent = options.get("schedule.pass_exponent", float, 2.0)
        options.reject_leftovers()
        schedule = multi_pass_schedule(n, pass_exponent, epsilon, delta, eta0, G)
    sys.stdout.write(account_report(schedule))
    return 0


# set by --seed and --out, or naming the experiment itself
_FIXED_FIELDS = ("experiment", "seed", "out_dir")


def cmd_experiment(options: _Options, seed: int, out_dir: str, quiet: bool) -> int:
    name = options.get("experiment.name")
    if name is None:
        raise ConfigError("experiment.name is required")
    config = default_config(name, seed=seed, out_dir=out_dir)
    overrides = {}
    for field, kind in typing.get_type_hints(ExperimentConfig).items():
        if field in _FIXED_FIELDS:
            continue
        value = options.get(f"experiment.{field}", kind)
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
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key; repeatable",
        )
        if name != "account":
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="N")
            p.add_argument("--out", default=".", metavar="DIR")
            p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        options = _Options(_load_options(args))
        if args.command == "account":
            return cmd_account(options)
        if args.command == "run":
            return cmd_run(options, args.seed, args.out, args.quiet)
        return cmd_experiment(options, args.seed, args.out, args.quiet)
    except (ConfigError, InvalidParameterError, InfinitePrivacyLossError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"assertion failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
