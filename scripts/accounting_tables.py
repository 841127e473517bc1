"""Print the accountant's reference tables.

Three blocks: the calibrated single-pass account (target eps 0.5 certifying
to exactly 1.0), the single-pass sample-budget table, and the multi-pass
certificate ratio exact/claimed over a grid of n, pass exponent, and eps at
two values of delta. The ratio grows with delta; at 1e-9 it stays below 1.5
everywhere on the grid.
"""

import sys

from dpsgld.privacy import account_report, certify_theorem2
from dpsgld.schedules import multi_pass_schedule, single_pass_schedule


def main() -> int:
    print("calibrated single-pass account (T=10^4, G=1, eta0=1, eps=0.5, delta=1e-5)")
    schedule = single_pass_schedule(10_000, 1.0, 1.0, 0.5, 1e-5)
    for line in account_report(schedule).strip().splitlines():
        print(f"  {line}")

    print()
    print("single-pass sample budgets")
    print(f"  {'T':>6} {'budget':>8} {'budget/T':>9}")
    for T in (1, 8, 100, 1000, 4096):
        budget = single_pass_schedule(T, 1.0, 1.0, 0.5, 1e-5).sample_budget
        print(f"  {T:>6} {budget:>8} {budget / T:>9.3f}")

    for delta in (1e-5, 1e-9):
        print()
        print(f"multi-pass certificate ratio exact/claimed at delta = {delta:g}")
        print(f"  {'n':>7} {'exponent':>8} {'eps':>5} {'exact':>10} {'claimed':>10} {'ratio':>7}")
        for n in (1000, 10_000, 100_000):
            for exponent in (1.0, 1.5, 2.0):
                for eps in (0.1, 0.3, 1.0):
                    schedule = multi_pass_schedule(n, exponent, eps, delta, 1.0, 1.0)
                    exact, claimed = certify_theorem2(schedule)
                    ratio = exact.epsilon / claimed.epsilon
                    print(
                        f"  {n:>7} {exponent:>8.1f} {eps:>5.1f} "
                        f"{exact.epsilon:>10.5f} {claimed.epsilon:>10.5f} {ratio:>7.4f}"
                    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
