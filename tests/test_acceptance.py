"""Acceptance gate for the leveling library.

Eight end-to-end criteria, each printing a single PASS/FAIL line so the
whole contract is visible from one `pytest tests/test_acceptance.py -s`
run.  Every numeric check is exact rational arithmetic; the only
tolerances here are the wall-clock ceilings.
"""

import random
import time
from fractions import Fraction

import pytest

from repair_leveler import (
    Objective,
    SelectionProblem,
    ShiftMatrix,
    SolverConfig,
    apply_shift_matrix,
    apply_transfers,
    brute_force_shifts,
    brute_force_subset,
    brute_force_transfers,
    column_sums,
    mean_load,
    realize_transfers,
    solve_bisection,
    solve_exact,
    solve_greedy,
    standard_form,
    subset_select,
    validate_transfers,
)
from helpers import (
    GOLDEN_LOADS,
    GOLDEN_PLAN,
    direct_deviation,
    random_feasible_transfers,
    random_loads,
    random_plan,
    sweep_instances,
)

GOLDEN_SHIFTS = ShiftMatrix((
    (0, 0, 0, 0),
    (0, -1, 0, -1),
    (1, -1, -1, 0),
    (0, 1, 0, 0),
))


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed{': ' + detail if detail else ''}"


@pytest.fixture(scope="module")
def sweep():
    return sweep_instances(seed=1729, count=500)


def test_acceptance_1_golden_apply_path():
    def apply_path():
        moved = apply_shift_matrix(GOLDEN_PLAN, GOLDEN_SHIFTS)
        sums = column_sums(moved)
        return moved, sums, direct_deviation(sums, Objective.L1)

    moved, sums, dev = apply_path()
    ok = (
        sums.loads == (48, 44, 48, 45)
        and moved.total_hours() == 185
        and mean_load(sums) == Fraction(185, 4)
        and dev == 7
    )
    # warm best-of-5 timing
    best = min(
        (lambda t0: (apply_path(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    ok = ok and best < 0.001
    _verdict(1, ok, f"sums={sums.loads} dev={dev} best={best * 1000:.3f}ms")


def test_acceptance_2_exact_solver_optimality():
    t0 = time.perf_counter()
    checks = []
    for objective, expected in ((Objective.L1, Fraction(3, 2)), (Objective.QUADRATIC, Fraction(3, 4))):
        mine = solve_exact(GOLDEN_LOADS, SolverConfig(objective=objective))
        ref = brute_force_transfers(GOLDEN_LOADS, objective)
        checks.append(mine.objective_value == expected)
        checks.append(ref.objective_value == expected)
        checks.append(mine.transfers == ref.transfers)
    elapsed = time.perf_counter() - t0
    _verdict(2, all(checks) and elapsed < 1.0, f"checks={checks} elapsed={elapsed:.2f}s")


def test_acceptance_3_oracle_equivalence_sweep(sweep):
    t0 = time.perf_counter()
    bad = []
    for i, loads in enumerate(sweep):
        for objective in Objective:
            mine = solve_exact(loads, SolverConfig(objective=objective))
            ref = brute_force_transfers(loads, objective)
            if mine.objective_value != ref.objective_value or mine.transfers != ref.transfers:
                bad.append((i, loads.loads, objective.value, mine.transfers.x, ref.transfers.x))
    elapsed = time.perf_counter() - t0
    _verdict(3, not bad and elapsed < 60.0, f"violations={bad[:3]} elapsed={elapsed:.1f}s")


def test_acceptance_4_heuristic_dominance(sweep):
    bad = []
    for i, loads in enumerate(sweep):
        total = sum(loads.loads)
        for objective in Objective:
            cfg = SolverConfig(objective=objective)
            best = solve_exact(loads, cfg)
            candidates = [solve_greedy(loads, cfg)]
            if len(loads.loads) % 4 == 0:
                candidates.append(solve_bisection(loads, cfg))
            for result in candidates:
                try:
                    validate_transfers(loads, result.transfers)
                except Exception as exc:
                    bad.append((i, result.method, str(exc)))
                    continue
                adjusted = apply_transfers(loads, result.transfers)
                if sum(adjusted.loads) != total:
                    bad.append((i, result.method, "total not conserved"))
                if result.objective_value < best.objective_value:
                    bad.append((i, result.method, "beat the exact optimum"))
    _verdict(4, not bad, f"violations={bad[:3]}")


def test_acceptance_5_subset_correctness():
    rng = random.Random(5005)
    t0 = time.perf_counter()
    bad = []
    for i in range(200):
        count = rng.randint(1, 15)
        items = tuple(rng.randint(1, 20) for _ in range(count))
        capacity = rng.randint(0, sum(items) + 3)
        problem = SelectionProblem(items, capacity)
        mine = subset_select(problem)
        ref = brute_force_subset(problem)
        if mine != ref:
            bad.append((i, items, capacity, mine, ref))
    elapsed = time.perf_counter() - t0
    _verdict(5, not bad and elapsed < 10.0, f"violations={bad[:3]} elapsed={elapsed:.1f}s")


def test_acceptance_6_standard_form_identity():
    rng = random.Random(606060)
    bad = 0
    for _ in range(100):
        loads = random_loads(rng, rng.randint(2, 8), 50)
        qp = standard_form(loads)
        offset = direct_deviation(loads, Objective.QUADRATIC)
        if qp.constant_offset != offset:
            bad += 1
            continue
        for _ in range(100):
            x = random_feasible_transfers(rng, loads)
            v = direct_deviation(apply_transfers(loads, x), Objective.QUADRATIC)
            if qp.objective_z(x.x) + v != offset:
                bad += 1
    _verdict(6, bad == 0, f"violations={bad}")


def test_acceptance_7_greedy_golden_run():
    result = solve_greedy(GOLDEN_LOADS)
    adjusted = apply_transfers(GOLDEN_LOADS, result.transfers)
    ok = result.transfers.x == (4, -2, -4) and adjusted.loads == (46, 46, 46, 47)
    _verdict(7, ok, f"x={result.transfers.x} adjusted={adjusted.loads}")


def test_acceptance_8_pipeline_vs_shift_oracle():
    rng = random.Random(88)
    bad = []
    for i in range(60):
        k = rng.randint(1, 3)
        n = rng.randint(2, 4)
        plan = random_plan(rng, k, n, 4)
        loads = column_sums(plan)
        result = solve_exact(loads)
        real = realize_transfers(plan, result.transfers)
        realized = direct_deviation(column_sums(real.adjusted_plan), Objective.L1)
        _, oracle_best = brute_force_shifts(plan, Objective.L1)
        if realized < oracle_best:
            bad.append((i, plan.entries, "beat the exhaustive shift search"))
        expected = tuple(
            abs(x) - g for x, g in zip(result.transfers.x, real.achieved)
        )
        if real.residuals != expected:
            bad.append((i, plan.entries, "residual identity broken"))
    _verdict(8, not bad, f"violations={bad[:3]}")
