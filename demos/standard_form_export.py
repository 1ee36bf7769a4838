"""Show the quadratic objective in max-form with slack variables.

The leveling problem can be handed to a stock QP solver once the
deviation sum is rewritten as a maximization with equality constraints.
This script prints that encoding for a small instance and checks the
defining identity on a sample point: z(x) plus the deviation V(x) always
equals the centered sum of squares of the original loads.
"""

import json

from repair_leveler import (
    MonthlyLoads,
    Objective,
    TransferVector,
    apply_transfers,
    deviation,
    solve_exact,
    standard_form,
)
from repair_leveler.io import standard_form_to_dict

LOADS = MonthlyLoads((50, 40, 44, 51))


def main() -> None:
    qp = standard_form(LOADS)
    print(json.dumps(standard_form_to_dict(qp), indent=2))
    print()

    x = solve_exact(LOADS).transfers
    v = deviation(apply_transfers(LOADS, x), Objective.QUADRATIC)
    z = qp.objective_z(x.x)
    print(f"at x = {list(x.x)}:")
    print(f"  z(x)        = {z}")
    print(f"  V(x)        = {v}")
    print(f"  z + V       = {z + v}")
    print(f"  sum of squares of centered loads = {qp.constant_offset}")

    primes, dprimes = qp.slack_values(x.x)
    print(f"  slack x'  = {list(primes)}")
    print(f"  slack x'' = {list(dprimes)}")

    zero = TransferVector((0,) * (len(LOADS.loads) - 1))
    print(f"\nat x = 0 the objective is z = {qp.objective_z(zero.x)} (nothing gained yet)")


if __name__ == "__main__":
    main()
