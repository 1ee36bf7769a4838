"""Spot-checker: exact solver vs exhaustive search on random instances.

The brute-force oracle enumerates every feasible transfer vector, so it
is only usable at desk scale, but within its budget it is the ground
truth.  Any disagreement printed here is a bug.
"""

import argparse
import random

from repair_leveler import (
    MonthlyLoads,
    Objective,
    SolverConfig,
    brute_force_transfers,
    solve_exact,
)

LOAD_CAP = {2: 60, 3: 60, 4: 30, 5: 14, 6: 8}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=25)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    disagreements = 0
    for i in range(args.count):
        n = rng.randint(2, 6)
        loads = MonthlyLoads(tuple(rng.randint(0, LOAD_CAP[n]) for _ in range(n)))
        objective = rng.choice(list(Objective))
        mine = solve_exact(loads, SolverConfig(objective=objective))
        ref = brute_force_transfers(loads, objective)
        agree = (
            mine.objective_value == ref.objective_value
            and mine.transfers == ref.transfers
        )
        mark = "ok " if agree else "BAD"
        print(
            f"[{mark}] {str(list(loads.loads)):<28} {objective.value:<9}"
            f" solver={mine.objective_value!s:<8} oracle={ref.objective_value!s:<8}"
            f" ({ref.visited_states} states)"
        )
        disagreements += not agree

    print(f"\n{args.count} instances, {disagreements} disagreements")
    raise SystemExit(1 if disagreements else 0)


if __name__ == "__main__":
    main()
