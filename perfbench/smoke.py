"""Smoke check of the benchmark runner at tiny sizes; takes about half a minute.

Usage, from the root of a checkout: python3 perfbench/smoke.py

Checks that every workload runs through ``run.py`` in both modes and prints
exactly the metrics BENCHMARK.json names; that the tracer restores every
reference it wraps; that the correctness gate rejects tampered outputs; and
that run.py fails without printing a result where the sources are
missing. Exits nonzero on the first failed check.
"""

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def run_bench(cwd: str, workload: str, trace: int, out: str):
    argv = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--tiny", "--out", out,
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def bench_runs(scratch: str) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, workload, trace, os.path.join(scratch, "runs.jsonl"))
            label = f"{workload} --trace {trace}"
            check(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
            check(result["correct"] and result["failed"] == 0, f"{label}: {result}")
            names = {m["name"] for m in benchmark[section]}
            check(set(result["metrics"]) == names, f"{label} metrics differ from {section}")
            print(f"ok   {label}")


def _references() -> dict:
    """Every function and method the tracer may replace, by identity."""
    owners = (*tracer.MODULES, tracer.dpsgld, tracer.core.Dataset, tracer.losses.GlmLoss)
    return {
        (id(owner), attr): value
        for owner in owners
        for attr, value in vars(owner).items()
        if inspect.isfunction(value)
    }


def tracer_restores() -> None:
    before = _references()
    with tracer.Tracer().installed():
        check(_references() != before, "tracer wrapped nothing")
    check(_references() == before, "tracer left a wrapped reference behind")
    print("ok   tracer restores every wrapped reference")


def gate_rejects_tampering() -> None:
    stability = worker.tiny_variant(workloads.WORKLOADS["coupled-d16"])
    prepared = stability.setup(1)
    rows, rendered = stability.run(prepared)
    attempted, failures = stability.check(prepared, (rows, rendered), None)
    check(attempted == len(rows) and not failures, f"untampered rows fail: {failures}")
    bumped = dataclasses.replace(rows[-1], eps_accounted=rows[-1].eps_accounted * (1 + 1e-15))
    _, failures = stability.check(prepared, (rows[:-1] + [bumped], rendered), None)
    check(len(failures) == 1, "a one-ulp change to eps_accounted passed the gate")
    _, failures = stability.check(prepared, (rows[1:], rendered), None)
    check(len(failures) == 1, "a missing row passed the gate")

    accountant = worker.tiny_variant(workloads.WORKLOADS["accountant-sweep"])
    prepared = accountant.setup(1)
    texts, rendered = accountant.run(prepared)
    _, failures = accountant.check(prepared, (texts, rendered), None)
    check(not failures, f"untampered reports fail: {failures}")
    key = list(prepared.expected)[-1]
    status, text = texts[key]
    tampered = dict(texts)
    tampered[key] = (status, text.replace("closed_form_epsilon = ", "closed_form_epsilon = 9"))
    _, failures = accountant.check(prepared, (tampered, rendered), None)
    check(len(failures) == 1, "a wrong closed-form epsilon passed the gate")
    print("ok   correctness gate rejects tampered outputs")


def bare_directory_fails(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run_bench(bare, "accountant-sweep", 0, os.path.join(bare, "runs.jsonl"))
    check(done.returncode != 0, "run.py succeeded without sources")
    check(done.stdout.strip() == "", f"run.py printed a result without sources: {done.stdout}")
    print("ok   run.py fails without sources and prints no result")


def main() -> None:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        gate_rejects_tampering()
        tracer_restores()
        bare_directory_fails(scratch)
        bench_runs(scratch)
    finally:
        shutil.rmtree(scratch)
    print("smoke checks passed")


if __name__ == "__main__":
    main()
