"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: passes of the workload run one after another,
each in a fresh worker process, until the next pass would end after
``--seconds``. Every pass checks its outputs. With ``--trace 0`` the result
carries the end-to-end metrics, each the median over the passes. With
``--trace 1`` traced and untraced passes alternate; the result carries the
per-layer metrics (medians over traced passes) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run is also
appended, with its fingerprints and machine record, to ``--out``. The exit
status is 0 only when every pass ran and passed the correctness gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

# One BLAS thread: the per-step products are too small to gain from a second
# thread, and single-threaded passes vary less from run to run.
BLAS_THREADS = "1"
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}

# A run makes at least this many passes (traced runs twice as many) so that
# set-up time, which varies most, is a median of several launches.
MIN_PASSES = 3

# Everything, including the last pass, must end well inside three minutes.
DEADLINE_S = 170.0


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _launch(workload: str, seed: int, trace: bool, tiny: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SOURCE, **BLAS_ENV)
    launched = time.monotonic()
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        workload, str(seed), repr(launched), str(int(trace)), str(int(tiny)),
    ]
    try:
        done = subprocess.run(
            argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=deadline - launched
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"worker exited with status {done.returncode}"}
    report = json.loads(lines[-1])
    report["wall_s"] = time.monotonic() - launched
    return report


def _median(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=os.path.join(ROOT, ".perfbench", "runs.jsonl"),
        help="JSON-lines file each run is appended to",
    )
    parser.add_argument(
        "--tiny", action="store_true", help="shrink the workload for a smoke check"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "dpsgld", "__init__.py")):
        print(f"error: no dpsgld sources under {SOURCE}", file=sys.stderr)
        return 2
    benchmark = _benchmark()
    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; expected one of {known}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    passes, errors = [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        report = _launch(args.workload, args.seed, traced, args.tiny, deadline)
        if "error" in report:
            errors.append(report["error"])
            break
        passes.append(report)
        elapsed = time.monotonic() - started
        typical = _median(passes, "wall_s")
        enough = len(passes) >= MIN_PASSES * (2 if trace else 1)
        if enough and elapsed + typical > args.seconds:
            break
        if elapsed + 2 * typical > DEADLINE_S:
            break

    failures = [f for p in passes for f in p["failures"]] + errors
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    hashes = sorted({p["sha256"] for p in passes})
    if len(hashes) > 1:
        failures.append(f"output differs between passes of one seed: {hashes}")
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    correct = not failures and bool(untraced) and (not trace or bool(traced_passes))

    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    values = {}
    if untraced and not trace:
        values = {
            "setup_s": _median(untraced, "setup_s"),
            "run_s": _median(untraced, "run_s"),
            "steps_per_s": statistics.median(p["steps"] / p["run_s"] for p in untraced),
            "cpu_s": _median(untraced, "cpu_s"),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
        }
    elif untraced and traced_passes:
        for name in (m["name"] for m in benchmark["per_layer"]):
            if name != "trace.overhead_s":
                values[name] = statistics.median(p["layers"][name] for p in traced_passes)
        values["trace.overhead_s"] = values["trace.run_s"] - _median(untraced, "run_s")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "passes": len(passes),
        "sha256": hashes[0] if len(hashes) == 1 else hashes,
        "output_changed": any(p["output_changed"] for p in passes),
        "machine": passes[0]["machine"] if passes else None,
        "metrics": values,
        "per_pass": [
            {k: p[k] for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "traced")}
            for p in passes
        ],
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload = {args.workload}  seed = {args.seed}  passes = {len(passes)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"ops_total = {attempted} count")
    print(f"ops_failed = {len(failures)} count")
    print(f"sha256 = {record['sha256']}" + ("  (changed output)" if record["output_changed"] else ""))
    if trace and "trace.dominant_share" in values:
        layers, min_share = traced_passes[0]["dominant"]
        share = values["trace.dominant_share"]
        verdict = "confirmed" if share >= min_share else "NOT confirmed"
        print(f"dominant layer {' + '.join(layers)}: {share:.3f} of traced run_s "
              f"(expected >= {min_share:g}) {verdict}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
