"""Walk through the full leveling pipeline on the bundled 4x4 plan.

Reads the demo plan, finds the optimal transfer volumes, then realizes
them as whole-item moves and prints what changed at each step.
"""

from pathlib import Path

from repair_leveler import (
    Objective,
    apply_transfers,
    column_sums,
    deviation,
    mean_load,
    parse_plan,
    realize_transfers,
    solve_exact,
)

DATA = Path(__file__).parent / "data" / "annual_plan_4x4.csv"


def main() -> None:
    plan = parse_plan(DATA)
    loads = column_sums(plan)
    mean = mean_load(loads)

    print(f"plan: {plan.k} equipment items over {plan.n} months")
    print(f"monthly totals: {list(loads.loads)}  (mean {mean})")
    print(f"starting L1 deviation: {deviation(loads, Objective.L1)}")
    print()

    result = solve_exact(loads)
    ideal = apply_transfers(loads, result.transfers)
    print(f"optimal transfer volumes: {list(result.transfers.x)}")
    print(f"leveled totals if hours could split: {list(ideal.loads)}")
    print(f"L1 deviation after transfers: {result.objective_value}")
    print()

    real = realize_transfers(plan, result.transfers)
    realized = column_sums(real.adjusted_plan)
    print("whole-item realization:")
    for b, (x, got, miss) in enumerate(
        zip(result.transfers.x, real.achieved, real.residuals), start=1
    ):
        direction = "forward" if x >= 0 else "backward"
        print(f"  boundary {b}: wanted {abs(x)}h {direction}, moved {got}h, residual {miss}h")
    print(f"realized totals: {list(realized.loads)}")
    print(f"realized L1 deviation: {deviation(realized, Objective.L1)}")
    print()
    print("per-item moves (-1 earlier, 0 stay, +1 later):")
    for row in real.shift_matrix.shifts:
        print(f"  {list(row)}")


if __name__ == "__main__":
    main()
