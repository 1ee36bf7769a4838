import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repair_leveler import (
    AnnualPlan,
    BudgetExceededError,
    MonthlyLoads,
    Objective,
    SelectionProblem,
    TransferVector,
    apply_shift_matrix,
    apply_transfers,
    brute_force_shifts,
    brute_force_subset,
    brute_force_transfers,
    column_sums,
    realize_transfers,
    subset_select,
    validate_transfers,
)
from repair_leveler import oracle
from repair_leveler.cli import build_parser
from helpers import (
    GOLDEN_LOADS,
    SWEEP_LOAD_CAP,
    direct_deviation,
    load_perfbench,
    pruned_brute_force_transfers,
    random_loads,
)


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


def test_transfer_oracle_state_cap(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_STATES", 10)
    with pytest.raises(BudgetExceededError):
        brute_force_transfers(MonthlyLoads((50, 50, 50, 50)), Objective.L1)


def _search(search, *args):
    try:
        return search(*args)
    except BudgetExceededError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda n: st.lists(st.integers(0, SWEEP_LOAD_CAP[n]), min_size=n, max_size=n)),
    st.sampled_from(Objective),
    st.one_of(st.integers(1, 300), st.just(oracle._MAX_STATES)),
)
def test_transfer_oracle_matches_pruned_reference(loads, objective, max_states):
    # the whole SolveResult, visited_states included, or the same refusal;
    # a function-scoped monkeypatch would not reset between examples
    loads = MonthlyLoads(tuple(loads))
    with mock.patch.object(oracle, "_MAX_STATES", max_states):
        found = _search(brute_force_transfers, loads, objective)
    limits = (max_states, oracle._MAX_MONTHS, oracle._MAX_MONTH_LOAD)
    assert found == _search(pruned_brute_force_transfers, loads, objective, *limits)


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize(
    "loads, x",
    [
        # pool 0 at the last boundary is answered under the first prefix
        # (0, 0) and reused after (-1, 0) has lowered the incumbent
        ((0, 2, 0, 4), (-1, 0, -2)),
        # n = 2: the first boundary is also the last, answered once
        ((8, 2), (3,)),
        ((0, 6), (-3,)),
        # the winning pool 0 totals the same at flows -2 and -1
        ((0, 1, 3), (-1, -2)),
    ],
    ids=["pool-reused-after-improvement", "two-months-outflow", "two-months-inflow", "last-boundary-tie"],
)
def test_transfer_oracle_last_boundary_cases(loads, x, objective):
    loads = MonthlyLoads(loads)
    result = brute_force_transfers(loads, objective)
    assert result.transfers.x == x
    limits = (oracle._MAX_STATES, oracle._MAX_MONTHS, oracle._MAX_MONTH_LOAD)
    assert result == pruned_brute_force_transfers(loads, objective, *limits)


def test_transfer_oracle_custom_budget_widens_range(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_MONTH_LOAD", 80)
    result = brute_force_transfers(MonthlyLoads((70, 0)), Objective.L1)
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


def test_shift_oracle_state_cap(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_STATES", 10)
    with pytest.raises(BudgetExceededError, match="shift search passed 10 states"):
        brute_force_shifts(AnnualPlan(((1, 2, 3), (4, 5, 6))), Objective.L1)


def test_subset_oracle_examples():
    assert brute_force_subset(SelectionProblem((8, 6, 5), 11)) == (1, 2)
    assert brute_force_subset(SelectionProblem((3, 3), 3)) == (0,)
    assert brute_force_subset(SelectionProblem((5, 3, 2), 5)) == (0,)
    assert brute_force_subset(SelectionProblem((9, 8), 5)) == ()


def test_subset_oracle_item_cap():
    with pytest.raises(BudgetExceededError):
        brute_force_subset(SelectionProblem((1,) * 21, 5))
    brute_force_subset(SelectionProblem((1,) * 20, 5))


def test_subset_oracle_state_cap(monkeypatch):
    # 12 items are within _MAX_ITEMS, but 2**12 subsets pass _MAX_STATES
    monkeypatch.setattr(oracle, "_MAX_STATES", 1000)
    with pytest.raises(BudgetExceededError, match="would pass 1000 states"):
        brute_force_subset(SelectionProblem((1,) * 12, 5))
    brute_force_subset(SelectionProblem((1,) * 9, 5))


def test_subset_oracle_agrees_with_solver():
    rng = random.Random(606)
    for _ in range(100):
        items = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 10)))
        capacity = rng.randint(0, 25)
        problem = SelectionProblem(items, capacity)
        assert brute_force_subset(problem) == subset_select(problem)


def test_oracle_reports_nonzero_state_count(monkeypatch):
    result = brute_force_transfers(GOLDEN_LOADS, Objective.L1)
    assert result.visited_states > 0
    # a looser state cap must not change the answer
    monkeypatch.setattr(oracle, "_MAX_STATES", 50_000_000)
    again = brute_force_transfers(GOLDEN_LOADS, Objective.L1)
    assert again.transfers == result.transfers
    assert again.objective_value == result.objective_value


def test_budget_fields_have_sane_defaults():
    assert oracle._MAX_MONTHS == 6
    assert oracle._MAX_MONTH_LOAD == 60
    assert oracle._MAX_CELLS == 12
    assert oracle._MAX_ITEMS == 20
    assert oracle._MAX_STATES == 5_000_000


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_and_sweeps_stay_inside_the_limits(seed):
    # every desk-verify plan runs with --verify, so one past a limit would
    # exit 3 and fail its benchmark run
    parser = build_parser()
    for case in load_perfbench("workloads").generate("desk-verify", seed):
        args = parser.parse_args(["--input", "plan.csv", *case.flags])
        plan = AnnualPlan(case.rows)
        assert plan.n <= oracle._MAX_MONTHS
        if args.shifts_only:
            pools = realize_transfers(plan, TransferVector(args.transfers)).pools
            assert max(map(len, pools)) <= oracle._MAX_ITEMS
        else:
            assert max(column_sums(plan).loads) <= oracle._MAX_MONTH_LOAD
    assert max(SWEEP_LOAD_CAP) <= oracle._MAX_MONTHS
    assert max(SWEEP_LOAD_CAP.values()) <= oracle._MAX_MONTH_LOAD
