"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds runs appended by ``run.py --out``; untraced runs at full
size are compared. For every end-to-end metric on every workload, prints
each side's median, first and third quartile, and spread (the distance
between the quartiles as a share of the median), then whether the sides
agree: the new median is not worse than the base median by more than the
metric's bound, and neither side's spread exceeds the bound. Also reports
failed operations and whether the output fingerprints of runs with equal
seeds match. Exits 1 if anything disagrees.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict:
    """workload -> list of untraced full-size runs."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            if not run["trace"] and not run["tiny"]:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def summary(values: list) -> tuple:
    """(median, q1, q3, spread) as the benchmark defines them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse new is than base, as a share of base (negative if better)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def compare(benchmark: dict, base: dict, new: dict) -> bool:
    agree = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        a, b = base.get(workload, []), new.get(workload, [])
        print(f"== {workload}: {len(a)} base runs, {len(b)} new runs")
        if len(a) < 2 or len(b) < 2:
            print("   too few runs to compare")
            agree = False
            continue
        failed = sum(r["failed"] for r in a + b)
        incorrect = sum(not r["correct"] for r in a + b)
        print(f"   failed operations {failed}, incorrect runs {incorrect}")
        agree &= failed == 0 and incorrect == 0
        seeds_a = {r["seed"]: r["sha256"] for r in a}
        shared = [r for r in b if r["seed"] in seeds_a]
        changed = sum(r["sha256"] != seeds_a[r["seed"]] for r in shared)
        print(f"   output fingerprints: {changed} of {len(shared)} shared seeds changed")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa = summary([r["metrics"][name] for r in a])
            sb = summary([r["metrics"][name] for r in b])
            worse = worse_by(metric, sa[0], sb[0])
            steady = sa[3] <= bound and sb[3] <= bound
            ok = worse <= bound and steady
            agree &= ok
            print(
                f"   {name:<12} base {sa[0]:.5g} [{sa[1]:.5g}, {sa[2]:.5g}] spread {sa[3]:.3f}"
                f" | new {sb[0]:.5g} [{sb[1]:.5g}, {sb[2]:.5g}] spread {sb[3]:.3f}"
                f" | worse by {worse:+.3f} (bound {bound:g}) {'agree' if ok else 'DISAGREE'}"
            )
    return agree


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    agree = compare(benchmark, load_runs(argv[0]), load_runs(argv[1]))
    print("all metrics agree within bounds" if agree else "some metrics disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
