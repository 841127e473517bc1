"""The benchmark's four workloads: their inputs, step counts and correctness gate.

Each workload reaches the library only through its public entry points,
``dpsgld.harness.run_experiment`` (plus ``rows_to_csv`` to render the CSV)
and ``dpsgld.cli.main(["account", ...])``. A workload has three phases:

* ``setup(seed)`` builds the configs and the schedules the gate needs; it is
  part of the benchmark's set-up time;
* ``run(prepared)`` is the measured work and returns the rendered output;
* ``check(prepared, output)`` is the correctness gate. It returns the number
  of operations attempted and a list of failure messages, one per failed
  operation. An operation is one result row of an experiment, or one
  account report.

The gate recomputes the accounted epsilon with ``dpsgld.privacy`` from
schedules the benchmark builds itself, and compares Monte-Carlo means with
values recorded at the commit that defined the benchmark (``reference.json``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

from dpsgld import cli, harness
from dpsgld.harness import ExperimentConfig
from dpsgld.losses import GlmLoss, loss_bounds
from dpsgld.privacy import certify_theorem1, multi_pass_privacy
from dpsgld.schedules import multi_pass_schedule, single_pass_schedule

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# A row's mean_value fails the gate when it lies further than this many
# standard errors, times sqrt(2), from the value recorded for the same seed.
# The standard error is the spread of mean_value over the recorded seeds, so a
# change that draws different random numbers still passes. Over the 64
# recorded seeds the widest gap between two seeds' means on one row is 6.2
# standard errors (coupled-d16 at t = 100, whose means are skewed to the
# right), so the tolerance, 5 * sqrt(2) = 7.1, clears every gap a redraw has
# produced; a multiplier taken from normal tails would not.
MEAN_TOLERANCE_SE = 5.0

# Relative rounding allowed between a printed 9-significant-digit epsilon and
# the value it stands for.
PRINT_RTOL = 1e-8


@dataclass
class Prepared:
    """What set-up hands to the measured run and to the gate."""

    seed: int
    steps: int
    expected: dict  # per operation, in grid order
    config: ExperimentConfig | None = None
    commands: list = field(default_factory=list)


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class ExperimentWorkload:
    """One harness experiment at a fixed shape; rows are keyed by ``key_column``."""

    name: str
    experiment: str
    key_column: str
    n: int
    d_grid: tuple
    replicates: int
    n_test: int = 100_000
    eps_grid: tuple = ()
    epsilon: float = 0.0
    delta: float = 0.0
    feature_law: str = "ball"
    checkpoints: tuple = ()
    dominant: tuple = ()
    dominant_min_share: float = 0.5

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            experiment=self.experiment,
            n_grid=(self.n,),
            d_grid=self.d_grid,
            eps_grid=self.eps_grid,
            replicates=self.replicates,
            n_test=self.n_test,
            seed=seed,
            feature_law=self.feature_law,
            epsilon=self.epsilon,
            delta=self.delta,
            checkpoints=self.checkpoints,
        )

    def setup(self, seed: int) -> Prepared:
        config = self.config(seed)
        G = loss_bounds(GlmLoss(config.loss_family, h=config.hinge_half_width)).G
        expected = {}
        if self.experiment == harness.PRIVACY_UTILITY:
            steps = 0
            for eps in self.eps_grid:
                schedule = multi_pass_schedule(
                    self.n, config.pass_exponent, eps, self.delta, config.eta0, G
                )
                accounted = multi_pass_privacy(self.n, schedule.T, self.delta).epsilon
                expected[eps] = (accounted, schedule.T)
                steps += schedule.T * self.replicates
        elif self.experiment == harness.STABILITY:
            schedule = multi_pass_schedule(
                self.n, config.pass_exponent, self.epsilon, self.delta, config.eta0, G
            )
            accounted = multi_pass_privacy(self.n, schedule.T, self.delta).epsilon
            expected = {t: (accounted, schedule.T) for t in self.checkpoints}
            steps = schedule.T * self.replicates
        else:
            schedule = single_pass_schedule(self.n, G, config.eta0, self.epsilon, self.delta)
            accounted = certify_theorem1(schedule).epsilon
            expected = {d: (accounted, schedule.sample_budget) for d in self.d_grid}
            steps = schedule.T * self.replicates * len(self.d_grid)
        return Prepared(seed=seed, steps=steps, expected=expected, config=config)

    def run(self, prepared: Prepared):
        rows, _ = harness.run_experiment(prepared.config)
        return rows, harness.rows_to_csv(rows)

    def row_means(self, rows) -> dict:
        return {str(getattr(row, self.key_column)): row.mean_value for row in rows}

    def check(self, prepared: Prepared, output, reference: dict | None):
        rows, _ = output
        failures = []
        seen = set()
        recorded = None
        if reference is not None:
            recorded = reference["seeds"].get(str(prepared.seed))
        for row in rows:
            key = getattr(row, self.key_column)
            label = f"{self.name} row {self.key_column}={key}"
            problem = self._row_problem(row, key, prepared.expected, recorded, reference)
            seen.add(key)
            if problem:
                failures.append(f"{label}: {problem}")
        missing = [key for key in prepared.expected if key not in seen]
        failures += [f"{self.name} row {self.key_column}={key}: missing" for key in missing]
        return len(rows) + len(missing), failures

    def _row_problem(self, row, key, expected, recorded, reference) -> str:
        if row.note.startswith("error:"):
            return row.note
        if key not in expected:
            return "unexpected row"
        accounted, samples = expected[key]
        if row.eps_accounted != accounted:
            return f"eps_accounted {row.eps_accounted!r} != recomputed {accounted!r}"
        if row.samples_consumed != samples:
            return f"samples_consumed {row.samples_consumed} != {samples}"
        if self.experiment == harness.STABILITY and (
            row.note == "bound_violated"
            or not row.mean_value <= row.bound_value + 3.0 * row.standard_error
        ):
            return "stability bound violated"
        if not math.isfinite(row.mean_value):
            return f"mean_value {row.mean_value!r} is not finite"
        if reference is None:
            return ""
        center, spread = reference["pooled"][str(key)]
        source = "the mean over recorded seeds"
        if recorded is not None:
            center, source = recorded["rows"][str(key)], "the value recorded for this seed"
        # Two independent estimates differ by sqrt(2) times the standard error
        # of one; the standard error is the spread of mean_value over seeds.
        tolerance = MEAN_TOLERANCE_SE * math.sqrt(2.0) * spread
        if abs(row.mean_value - center) > tolerance:
            return (
                f"mean_value {row.mean_value:.9g} differs from {source}, {center:.9g}, "
                f"by more than {MEAN_TOLERANCE_SE:g} standard errors ({spread:.3g})"
            )
        return ""


def _parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"unparsable report line {line!r}")
        out.setdefault(key, value)
    return out


def _close(printed: float, exact: float) -> bool:
    return abs(printed - exact) <= PRINT_RTOL * abs(exact)


@dataclass(frozen=True)
class AccountantWorkload:
    """``dpsgld account`` over single- and multi-pass schedules; uses no data.

    The seed only fixes the order in which the reports run; the fingerprint
    hashes the reports in grid order, so it does not depend on the seed.
    """

    name: str
    single_pass_T: tuple
    multi_pass: tuple  # (n, epsilon) pairs; T = round(n²·ε²)
    single_pass_epsilon: float = 0.5
    delta: float = 1e-5
    dominant: tuple = ()
    dominant_min_share: float = 0.5

    def setup(self, seed: int) -> Prepared:
        commands = []
        expected = {}
        steps = 0
        for T in self.single_pass_T:
            key = f"single-pass T={T}"
            expected[key] = ("single", self.single_pass_epsilon, T)
            commands.append(
                (
                    key,
                    [
                        "account",
                        "--set", f"schedule.T={T}",
                        "--set", f"schedule.epsilon={self.single_pass_epsilon!r}",
                        "--set", f"schedule.delta={self.delta!r}",
                    ],
                )
            )
            steps += T
        for n, eps in self.multi_pass:
            key = f"multi-pass n={n} eps={eps:g}"
            T = multi_pass_schedule(n, 2.0, eps, self.delta, 1.0, 1.0).T
            expected[key] = ("multi", multi_pass_privacy(n, T, self.delta).epsilon, T)
            commands.append(
                (
                    key,
                    [
                        "account",
                        "--set", "mode=multi-pass",
                        "--set", f"schedule.n={n}",
                        "--set", f"schedule.epsilon={eps!r}",
                        "--set", f"schedule.delta={self.delta!r}",
                    ],
                )
            )
            steps += T
        random.Random(seed).shuffle(commands)
        return Prepared(seed=seed, steps=steps, expected=expected, commands=commands)

    def run(self, prepared: Prepared):
        texts = {}
        for key, argv in prepared.commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                status = cli.main(argv)
            texts[key] = (status, buffer.getvalue())
        rendered = "".join(texts[key][1] for key in prepared.expected)
        return texts, rendered

    def check(self, prepared: Prepared, output, reference: dict | None):
        texts, _ = output
        failures = []
        for key, expected in prepared.expected.items():
            problem = self._report_problem(texts.get(key), expected)
            if problem:
                failures.append(f"{self.name} {key}: {problem}")
        return len(prepared.expected), failures

    def _report_problem(self, result, expected) -> str:
        if result is None:
            return "missing"
        status, text = result
        if status != 0:
            return f"exit status {status}"
        mode, value, expected_T = expected
        field_name, target = (
            ("dp_epsilon", 2.0 * value) if mode == "single" else ("closed_form_epsilon", value)
        )
        try:
            report = _parse_report(text)
            T = int(report["T"])
            printed = float(report[field_name])
        except (KeyError, ValueError) as err:
            return f"report does not parse: {err}"
        if T != expected_T:
            return f"T = {T}, expected {expected_T}"
        if not _close(printed, target):
            return f"{field_name} {printed!r} != expected {target!r}"
        return ""


WORKLOADS = {
    workload.name: workload
    for workload in (
        ExperimentWorkload(
            name="multipass-d512",
            experiment=harness.PRIVACY_UTILITY,
            key_column="eps_target",
            n=256,
            d_grid=(512,),
            eps_grid=(0.1, 0.3, 1.0),
            delta=1.0 / (256.0 * 256.0),
            replicates=2,
            n_test=10_000,
            dominant=("engine.run_multi_pass.busy_s",),
        ),
        ExperimentWorkload(
            name="coupled-d16",
            experiment=harness.STABILITY,
            key_column="checkpoint_t",
            n=100,
            d_grid=(16,),
            epsilon=math.sqrt(0.1),
            delta=1e-4,
            replicates=100,
            checkpoints=(1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
            dominant=("engine.coupled_stability_run.busy_s",),
            dominant_min_share=0.9,
        ),
        ExperimentWorkload(
            name="singlepass-dsweep",
            experiment=harness.DIMENSION_INDEPENDENCE,
            key_column="d",
            n=512,
            d_grid=(512, 2048, 8192),
            epsilon=512.0 ** -0.25,
            delta=1.0 / (512.0 * 512.0),
            feature_law="sphere",
            replicates=2,
            n_test=10_000,
            dominant=("datagen.population_risk_many.busy_s",),
        ),
        AccountantWorkload(
            name="accountant-sweep",
            single_pass_T=(10_000, 100_000, 1_000_000),
            multi_pass=((1_000, 1.0), (4_000, 0.5), (10_000, 0.316)),
            dominant=("privacy.self_s", "schedules.self_s"),
        ),
    )
}
