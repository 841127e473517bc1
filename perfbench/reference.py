"""Record the correctness gate's reference values at the current commit.

For each experiment workload and each of the seeds 0 to SEEDS - 1, stores
every row's mean_value and the sha256 of the rendered CSV, and per row the
mean and standard deviation of mean_value over those seeds ("pooled"). The
gate compares a run's means with the values recorded for its seed, or with
the pooled mean for a seed outside the recorded range, in units of the pooled
standard deviation. The accountant's output does not depend on the seed, so
one fingerprint is stored for it.

Usage: PYTHONPATH=src python3 perfbench/reference.py

Rewrites reference.json for every workload, with the BLAS thread count the
benchmark's workers use, so the recorded low bits are the ones a run sees.
Run it only in a change that redefines the benchmark, since the gate is
meant to hold later code to these values.
"""

import json
import os
import statistics

from run import BLAS_ENV

os.environ.update(BLAS_ENV)  # before numpy is first imported, below

import workloads  # noqa: E402

SEEDS = 64


def record(workload) -> dict:
    if isinstance(workload, workloads.AccountantWorkload):
        _, rendered = workload.run(workload.setup(0))
        return {"sha256": workloads.fingerprint(rendered)}
    per_seed = {}
    for seed in range(SEEDS):
        rows, rendered = workload.run(workload.setup(seed))
        per_seed[str(seed)] = {
            "sha256": workloads.fingerprint(rendered),
            "rows": workload.row_means(rows),
        }
    keys = per_seed["0"]["rows"]
    pooled = {}
    for key in keys:
        means = [entry["rows"][key] for entry in per_seed.values()]
        pooled[key] = [statistics.fmean(means), statistics.stdev(means)]
    return {"seeds": per_seed, "pooled": pooled}


def main() -> None:
    reference = {}
    for name in sorted(workloads.WORKLOADS):
        reference[name] = record(workloads.WORKLOADS[name])
        print(f"recorded {name}")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
