import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repair_leveler import (
    AnnualPlan,
    BudgetExceededError,
    MonthlyLoads,
    Objective,
    OracleBudget,
    SelectionProblem,
    apply_shift_matrix,
    apply_transfers,
    brute_force_shifts,
    brute_force_subset,
    brute_force_transfers,
    column_sums,
    subset_select,
    validate_transfers,
)
from helpers import GOLDEN_LOADS, SWEEP_LOAD_CAP, direct_deviation, pruned_brute_force_transfers, random_loads


def test_transfer_oracle_golden():
    l1 = brute_force_transfers(GOLDEN_LOADS, Objective.L1)
    assert l1.transfers.x == (3, -3, -5)
    assert l1.objective_value == Fraction(3, 2)
    assert l1.method == "brute-force"
    assert l1.optimal
    quad = brute_force_transfers(GOLDEN_LOADS, Objective.QUADRATIC)
    assert quad.transfers.x == (3, -3, -5)
    assert quad.objective_value == Fraction(3, 4)


def test_transfer_oracle_tie_break():
    assert brute_force_transfers(MonthlyLoads((5, 0, 5)), Objective.L1).transfers.x == (1, -2)
    assert brute_force_transfers(MonthlyLoads((1, 0)), Objective.L1).transfers.x == (0,)


def test_transfer_oracle_level_and_two_month_cases():
    level = brute_force_transfers(MonthlyLoads((7, 7, 7)), Objective.L1)
    assert level.transfers.x == (0, 0)
    assert level.objective_value == 0
    halved = brute_force_transfers(MonthlyLoads((10, 0)), Objective.QUADRATIC)
    assert halved.transfers.x == (5,)
    assert halved.objective_value == 0


def test_transfer_oracle_output_feasible():
    rng = random.Random(3)
    for _ in range(50):
        loads = random_loads(rng, rng.randint(2, 4), 15)
        result = brute_force_transfers(loads, Objective.L1)
        validate_transfers(loads, result.transfers)


def test_transfer_oracle_refuses_many_months():
    with pytest.raises(BudgetExceededError):
        brute_force_transfers(MonthlyLoads((1,) * 7), Objective.L1)


def test_transfer_oracle_refuses_heavy_months():
    with pytest.raises(BudgetExceededError):
        brute_force_transfers(MonthlyLoads((61, 0)), Objective.L1)
    brute_force_transfers(MonthlyLoads((60, 0)), Objective.L1)


def test_transfer_oracle_state_cap():
    tiny = OracleBudget(max_states=10)
    with pytest.raises(BudgetExceededError):
        brute_force_transfers(MonthlyLoads((50, 50, 50, 50)), Objective.L1, tiny)


def _search(search, loads, objective, budget):
    try:
        return search(loads, objective, budget)
    except BudgetExceededError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda n: st.lists(st.integers(0, SWEEP_LOAD_CAP[n]), min_size=n, max_size=n)),
    st.sampled_from(Objective),
    st.one_of(st.integers(1, 300), st.just(OracleBudget().max_states)),
)
def test_transfer_oracle_matches_pruned_reference(loads, objective, max_states):
    # the whole SolveResult, visited_states included, or the same refusal
    loads, budget = MonthlyLoads(tuple(loads)), OracleBudget(max_states=max_states)
    assert _search(brute_force_transfers, loads, objective, budget) == _search(
        pruned_brute_force_transfers, loads, objective, budget
    )


def test_transfer_oracle_custom_budget_widens_range():
    wide = OracleBudget(max_month_load=80)
    result = brute_force_transfers(MonthlyLoads((70, 0)), Objective.L1, wide)
    assert result.transfers.x == (35,)


def test_shift_oracle_prefers_doing_nothing():
    matrix, value = brute_force_shifts(AnnualPlan(((5, 0),)), Objective.L1)
    assert matrix.shifts == ((0, 0),)
    assert value == 5


def test_shift_oracle_two_rows():
    matrix, value = brute_force_shifts(AnnualPlan(((4, 0), (2, 0))), Objective.L1)
    assert matrix.shifts == ((0, 0), (1, 0))
    assert value == 2


def test_shift_oracle_zero_plan():
    matrix, value = brute_force_shifts(AnnualPlan(((0, 0), (0, 0))), Objective.L1)
    assert matrix.shifts == ((0, 0), (0, 0))
    assert value == 0


def test_shift_oracle_quadratic():
    matrix, value = brute_force_shifts(AnnualPlan(((4, 0), (2, 0))), Objective.QUADRATIC)
    assert matrix.shifts == ((0, 0), (1, 0))
    assert value == 2


def test_shift_oracle_value_matches_apply_path():
    rng = random.Random(8)
    for _ in range(20):
        plan = AnnualPlan(tuple(
            tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(2)
        ))
        for objective in Objective:
            matrix, value = brute_force_shifts(plan, objective)
            moved = apply_shift_matrix(plan, matrix)
            assert direct_deviation(column_sums(moved), objective) == value


def test_transfer_oracle_value_matches_plan_metric():
    # the oracle scores with the solvers' scaled integer cost; the plain
    # Fraction reference must agree at the vector it returns
    rng = random.Random(9)
    for _ in range(100):
        loads = random_loads(rng, rng.randint(2, 5), 12)
        for objective in Objective:
            result = brute_force_transfers(loads, objective)
            assert result.objective_value == direct_deviation(apply_transfers(loads, result.transfers), objective)


def test_shift_oracle_cell_cap():
    with pytest.raises(BudgetExceededError):
        brute_force_shifts(AnnualPlan(((1,) * 7, (1,) * 7)), Objective.L1)


def test_shift_oracle_state_cap():
    tiny = OracleBudget(max_states=10)
    with pytest.raises(BudgetExceededError, match="shift search passed 10 states"):
        brute_force_shifts(AnnualPlan(((1, 2, 3), (4, 5, 6))), Objective.L1, tiny)


def test_subset_oracle_examples():
    assert brute_force_subset(SelectionProblem((8, 6, 5), 11)) == (1, 2)
    assert brute_force_subset(SelectionProblem((3, 3), 3)) == (0,)
    assert brute_force_subset(SelectionProblem((5, 3, 2), 5)) == (0,)
    assert brute_force_subset(SelectionProblem((9, 8), 5)) == ()


def test_subset_oracle_item_cap():
    with pytest.raises(BudgetExceededError):
        brute_force_subset(SelectionProblem((1,) * 21, 5))
    brute_force_subset(SelectionProblem((1,) * 20, 5))


def test_subset_oracle_state_cap():
    # 12 items are within max_items, but 2**12 subsets pass max_states
    with pytest.raises(BudgetExceededError, match="would pass 1000 states"):
        brute_force_subset(SelectionProblem((1,) * 12, 5), OracleBudget(max_states=1000))
    brute_force_subset(SelectionProblem((1,) * 9, 5), OracleBudget(max_states=1000))


def test_subset_oracle_agrees_with_solver():
    rng = random.Random(606)
    for _ in range(100):
        items = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 10)))
        capacity = rng.randint(0, 25)
        problem = SelectionProblem(items, capacity)
        assert brute_force_subset(problem) == subset_select(problem)


def test_oracle_reports_nonzero_state_count():
    result = brute_force_transfers(GOLDEN_LOADS, Objective.L1)
    assert result.visited_states > 0
    # a looser state cap must not change the answer
    roomy = OracleBudget(max_states=50_000_000)
    again = brute_force_transfers(GOLDEN_LOADS, Objective.L1, roomy)
    assert again.transfers == result.transfers
    assert again.objective_value == result.objective_value


def test_budget_fields_have_sane_defaults():
    budget = OracleBudget()
    assert budget.max_months == 6
    assert budget.max_month_load == 60
    assert budget.max_cells == 12
    assert budget.max_items == 20
    assert budget.max_states == 5_000_000
