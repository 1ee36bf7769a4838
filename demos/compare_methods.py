"""Compare the three solvers on one set of monthly loads.

The exact chain search is the reference; the splitting heuristic and the
greedy sweep trade optimality for simplicity, so their objectives can
only tie or exceed it. On a month count not divisible by four the
splitting method returns the exact result.
"""

import argparse

from repair_leveler import (
    MonthlyLoads,
    Objective,
    SolverConfig,
    solve_bisection,
    solve_exact,
    solve_greedy,
)

DEFAULT_LOADS = "50,40,44,51"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--loads", default=DEFAULT_LOADS,
        help=f"comma-separated monthly totals (default {DEFAULT_LOADS})",
    )
    args = ap.parse_args()
    loads = MonthlyLoads(tuple(int(v) for v in args.loads.split(",")))

    print(f"loads: {list(loads.loads)}")
    for objective in Objective:
        cfg = SolverConfig(objective=objective)
        print(f"\nobjective: {objective.value}")
        rows = (
            ("exact", solve_exact(loads, cfg)),
            ("bisection", solve_bisection(loads, cfg)),
            ("greedy", solve_greedy(loads, cfg)),
        )
        for name, result in rows:
            flag = "optimal" if result.optimal else "heuristic"
            print(
                f"  {name:<10} x={list(result.transfers.x)!s:<22}"
                f" value={result.objective_value!s:<8} [{flag}]"
            )


if __name__ == "__main__":
    main()
