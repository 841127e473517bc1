"""Per-layer tracing of one workload run, from outside the library.

Every dpsgld module is a layer. The tracer wraps, for the length of one run,
the public functions of each module at the references their callers hold:
each module-level name in another dpsgld module (or in the package itself)
that is bound to a function defined in that module, plus the three entry
points the benchmark calls on their own modules. ``Dataset.__init__`` is
wrapped on its class, and the loss methods ``GlmLoss.phi`` and
``GlmLoss.phi_prime`` are wrapped as per-step leaves. Calls inside one module
are not boundaries and are not wrapped, and neither are lazily computed
schedule properties (``sample_budget``, ``etas``), so their cost is charged
to whichever span first reads them. Every wrapped reference is restored when
the run ends.

A span records (name, start, end, parent, counts) and is kept in memory.
Leaf calls happen once per step, so they are aggregated into a call count
and busy time per parent span instead of one span each; every function in
``losses`` is a leaf. A span's self time is its duration minus its child
spans and the leaf time under it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

import dpsgld
from dpsgld import cli, core, datagen, engine, harness, losses, oracles, privacy, schedules

MODULES = (core, losses, schedules, engine, privacy, oracles, datagen, harness, cli)
LAYERS = tuple(module.__name__.rsplit(".", 1)[1] for module in MODULES)

# Entry points the benchmark itself calls, wrapped on their defining module.
ENTRY_POINTS = ((harness, "run_experiment"), (harness, "rows_to_csv"), (cli, "main"))

# Span names whose counts and busy time are reported together.
GROUPS = {
    "privacy.certify_theorem1": "privacy.certify",
    "privacy.certify_theorem2": "privacy.certify",
    "privacy.multi_pass_privacy": "privacy.certify",
}


def _steps(args):
    return {"steps": args["schedule"].T}


def _risk_counts(args):
    n_test, iterates, d = args["n_test"], len(args["ws"]), args["model"].d
    return {
        "test_rows": n_test,
        "iterates": iterates,
        "row_coords": n_test * d,
        "row_iterate_coords": n_test * iterates * d,
    }


def _draw_counts(args):
    return {"rows": args["n"], "row_coords": args["n"] * args["model"].d}


COUNTERS = {
    "engine.run_single_pass": _steps,
    "engine.run_multi_pass": _steps,
    "engine.coupled_stability_run": _steps,
    "privacy.account_report": _steps,
    "datagen.population_risk_many": _risk_counts,
    "datagen.draw_dataset": _draw_counts,
    "core.Dataset": lambda args: {"rows": len(args["X"])},
}

# name: (count fields, rate fields as (metric, numerator count, scale))
REPORTED = {
    "engine.run_multi_pass": (("steps",), (("us_per_step", "steps", 1e6),)),
    "engine.coupled_stability_run": (("steps",), (("us_per_step", "steps", 1e6),)),
    "engine.run_single_pass": (("steps",), (("us_per_step", "steps", 1e6),)),
    "losses.phi_prime": ((), ()),
    "losses.phi": ((), ()),
    "datagen.population_risk_many": (
        ("test_rows", "iterates"),
        (
            ("ns_per_row_coord", "row_coords", 1e9),
            ("ns_per_row_iterate_coord", "row_iterate_coords", 1e9),
        ),
    ),
    "datagen.draw_dataset": (("rows",), (("ns_per_row_coord", "row_coords", 1e9),)),
    "core.Dataset": (("rows",), ()),
    "schedules.single_pass_schedule": ((), ()),
    "schedules.multi_pass_schedule": ((), ()),
    "privacy.account_report": (("steps",), (("ns_per_step", "steps", 1e9),)),
    "privacy.certify": ((), ()),
}


class Tracer:
    """Spans and leaf aggregates for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent index, name) -> [calls, busy]
        self._stack = [-1]
        self._restore = []

    def _span(self, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments)
                except (TypeError, KeyError, AttributeError):
                    pass  # a changed signature loses the counts, not the call
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1], counts]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def _leaf(self, name, fn):
        leaves, stack = self.leaves, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = leaves[(stack[-1], name)]
                entry[0] += 1
                entry[1] += time.perf_counter() - start

        return traced

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _targets(self):
        """(owner, attribute, span name, original) for every reference to wrap."""
        holders = (*MODULES, dpsgld)
        for module in MODULES:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                for holder in holders:
                    if holder is not module and vars(holder).get(attr) is value:
                        yield holder, attr, f"{layer}.{attr}", value
        for module, attr in ENTRY_POINTS:
            layer = module.__name__.rsplit(".", 1)[1]
            yield module, attr, f"{layer}.{attr}", getattr(module, attr)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the body of the ``with`` block, then restore them."""
        wrappers = {}
        try:
            for owner, attr, name, original in list(self._targets()):
                if original not in wrappers:
                    make = self._leaf if name.startswith("losses.") else self._span
                    wrappers[original] = make(name, original)
                self._patch(owner, attr, wrappers[original])
            self._patch(core.Dataset, "__init__", self._span("core.Dataset", core.Dataset.__init__))
            for method in ("phi", "phi_prime"):
                original = getattr(losses.GlmLoss, method)
                self._patch(losses.GlmLoss, method, self._leaf(f"losses.{method}", original))
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def layer_metrics(self, run_s: float, dominant: tuple) -> dict:
        """Per-layer metrics of the finished run; ``run_s`` is its traced wall time."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
        stats = defaultdict(lambda: defaultdict(float))
        self_time = dict.fromkeys(LAYERS, 0.0)
        for index, (name, start, end, parent, counts) in enumerate(self.spans):
            entry = stats[GROUPS.get(name, name)]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            for key, value in (counts or {}).items():
                entry[key] += value
            self_time[name.split(".", 1)[0]] += end - start - child_time[index]
        for (parent, name), (calls, busy) in self.leaves.items():
            stats[name]["calls"] += calls
            stats[name]["busy_s"] += busy
            self_time["losses"] += busy
            if parent >= 0:
                owner = self.spans[parent][0].split(".", 1)[0]
                self_time[owner] -= busy

        metrics = {}
        for name, (counts, rates) in REPORTED.items():
            entry = stats[name]
            metrics[f"{name}.calls"] = entry["calls"]
            for count in counts:
                metrics[f"{name}.{count}"] = entry[count]
            metrics[f"{name}.busy_s"] = entry["busy_s"]
            for rate, numerator, scale in rates:
                work = entry[numerator]
                metrics[f"{name}.{rate}"] = entry["busy_s"] * scale / work if work else 0.0
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
            metrics[f"{layer}.share"] = self_time[layer] / run_s
        metrics["trace.run_s"] = run_s
        metrics["trace.dominant_share"] = sum(metrics[name] for name in dominant) / run_s
        return metrics
