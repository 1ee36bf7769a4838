import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repair_leveler import (
    AnnualPlan,
    PlanError,
    SelectionProblem,
    ShiftMatrix,
    TransferVector,
    apply_shift_matrix,
    apply_transfers,
    brute_force_subset,
    column_sums,
    realize_transfers,
    solve_exact,
    solve_greedy,
    subset_select,
)
from repair_leveler import realization
from helpers import (
    GOLDEN_PLAN,
    dict_subset_select,
    random_feasible_transfers,
    random_plan,
    reach_subset_select,
    scan_realize_transfers,
    table_subset_select,
)


def test_subset_select_basic():
    assert subset_select(SelectionProblem((8, 6, 5), 11)) == (1, 2)
    assert subset_select(SelectionProblem((21, 11, 3), 21)) == (0,)
    assert subset_select(SelectionProblem((2, 3), 10)) == (0, 1)


def test_subset_select_nothing_fits():
    assert subset_select(SelectionProblem((9, 8), 5)) == ()
    assert subset_select(SelectionProblem((5,), 0)) == ()
    assert subset_select(SelectionProblem((8, 6, 5), 0)) == ()


def test_subset_tie_break_fewest_items():
    # 5 alone ties the pair (3,2) on sum; the single item wins
    assert subset_select(SelectionProblem((5, 3, 2), 5)) == (0,)


def test_subset_tie_break_lexicographic():
    assert subset_select(SelectionProblem((3, 3), 3)) == (0,)
    assert subset_select(SelectionProblem((4, 4, 4), 8)) == (0, 1)


def test_subset_problem_validation():
    with pytest.raises(PlanError):
        SelectionProblem((0, 3), 5)
    with pytest.raises(PlanError):
        SelectionProblem((3, -1), 5)
    with pytest.raises(PlanError):
        SelectionProblem((3,), -1)
    assert SelectionProblem((), 4).items == ()
    assert subset_select(SelectionProblem((), 4)) == ()


def test_subset_matches_oracle():
    rng = random.Random(909)
    for _ in range(300):
        count = rng.randint(1, 12)
        items = tuple(rng.randint(1, 15) for _ in range(count))
        capacity = rng.randint(0, sum(items))
        problem = SelectionProblem(items, capacity)
        assert subset_select(problem) == brute_force_subset(problem)


def test_subset_capacity_far_above_total():
    # the count table spans min(capacity, total), not the capacity
    assert subset_select(SelectionProblem((3, 2), 10**7)) == (0, 1)


def test_subset_sparse_large_items():
    # the two big cells together overshoot; the best total pairs one with the 3
    assert subset_select(SelectionProblem((10**6, 10**6 - 1, 3), 2 * 10**6 - 5)) == (0, 2)


@pytest.mark.parametrize(
    "items, capacity, bits",
    [
        ((), 5, 1 * 1 * 3),  # no items: one row of one 3-bit field, the empty sum
        ((9, 4, 3), 5, 3 * 6 * 4),  # the 9 does not fit: two items, limit 5
        ((4, 3), 100, 3 * 8 * 4),  # limit is the items' total, 7
        ((1,) * 6, 6, 7 * 7 * 5),  # m + 2 = 8 widens the field to 5 bits
    ],
)
def test_subset_refuses_a_table_past_its_bit_limit(items, capacity, bits, monkeypatch):
    # the table holds (m + 1) * (limit + 1) fields of w bits
    problem = SelectionProblem(items, capacity)
    want = subset_select(problem)
    monkeypatch.setattr(realization, "_MAX_SUBSET_BITS", bits)
    assert subset_select(problem) == want
    monkeypatch.setattr(realization, "_MAX_SUBSET_BITS", bits - 1)
    with pytest.raises(PlanError, match=f"the subset table needs {bits} bits, past its limit of {bits - 1}$"):
        subset_select(problem)


@pytest.mark.parametrize("items, capacity, chosen", [((4, 3), 5, (0,)), ((7, 7, 7), 20, (0, 1))])
def test_subset_best_total_short_of_capacity(items, capacity, chosen):
    # the table spans min(capacity, sum) and the best total is its highest
    # reachable sum, here below that span's top, as in the sparse case above
    problem = SelectionProblem(items, capacity)
    assert subset_select(problem) == reach_subset_select(problem) == chosen


@st.composite
def selection_problems(draw, max_items):
    # draw the length first so long pools come up as often as short ones
    count = draw(st.integers(0, max_items))
    items = draw(st.lists(st.integers(1, 100), min_size=count, max_size=count))
    capacity = draw(st.integers(0, sum(items) + 5))
    # items larger than the capacity ride along at any position
    for _ in range(draw(st.integers(0, 3))):
        items.insert(draw(st.integers(0, len(items))), draw(st.integers(capacity + 1, capacity + 100)))
    return SelectionProblem(tuple(items), capacity)


@settings(max_examples=60, deadline=None)
@given(selection_problems(max_items=80))
def test_subset_matches_dict_reference(problem):
    assert subset_select(problem) == dict_subset_select(problem)


@settings(max_examples=60, deadline=None)
@given(selection_problems(max_items=300))
def test_subset_matches_table_reference(problem):
    assert subset_select(problem) == table_subset_select(problem)


@settings(max_examples=100, deadline=None)
@given(selection_problems(max_items=120))
def test_subset_matches_reach_reference(problem):
    assert subset_select(problem) == reach_subset_select(problem)


@settings(max_examples=200, deadline=None)
@given(selection_problems(max_items=9))
def test_subset_matches_brute_force(problem):
    assert subset_select(problem) == brute_force_subset(problem)


@st.composite
def forced_selection_problems(draw, max_items):
    # the capacity is at least the items' total, or equal to one of them,
    # with more copies of that item at any position; either way items
    # larger than the capacity ride along, so the answer is forced
    count = draw(st.integers(0, max_items))
    items = draw(st.lists(st.integers(1, 100), min_size=count, max_size=count))
    if items and draw(st.booleans()):
        capacity = draw(st.sampled_from(items))
        for _ in range(draw(st.integers(0, 2))):
            items.insert(draw(st.integers(0, len(items))), capacity)
    else:
        capacity = sum(items) + draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, 3))):
        items.insert(draw(st.integers(0, len(items))), draw(st.integers(capacity + 1, capacity + 100)))
    return SelectionProblem(tuple(items), capacity)


@settings(max_examples=200, deadline=None)
@given(forced_selection_problems(max_items=9))
def test_forced_selections_match_brute_force(problem):
    assert subset_select(problem) == brute_force_subset(problem)


@settings(max_examples=100, deadline=None)
@given(forced_selection_problems(max_items=80))
def test_forced_selections_match_dict_reference(problem):
    assert subset_select(problem) == dict_subset_select(problem)


@pytest.mark.parametrize(
    "items, capacity, chosen",
    [
        ((4, 7, 2, 7), 7, (1,)),  # the capacity equals two items: the first is taken
        ((), 0, ()),  # an empty pool
        ((), 6, ()),
        ((3, 1), 0, ()),  # capacity 0: nothing fits
        ((9, 5, 2, 3), 5, (1,)),  # an oversized item before the exact hit
        ((9, 2, 3), 6, (1, 2)),  # an oversized item before the fitting rest, all taken
        ((2, 3), 5, (0, 1)),  # the items total the capacity exactly
    ],
)
def test_forced_selection_cases(items, capacity, chosen):
    problem = SelectionProblem(items, capacity)
    assert subset_select(problem) == dict_subset_select(problem) == chosen


@pytest.mark.parametrize("m", [1, 2, 5, 6, 13, 14, 29, 30, 61, 62, 125, 126, 253, 254])
def test_subset_field_width_edges(m):
    # m one-hour items: the fewest count at the best total is m itself, the
    # largest value a packed field holds, and m + 2 crosses a power of two
    # in this list, so the field width steps up between neighbours
    items = (1,) * m
    assert subset_select(SelectionProblem(items, m)) == tuple(range(m))
    assert subset_select(SelectionProblem(items, m - 1)) == tuple(range(m - 1))


@pytest.mark.parametrize("solve, digest", [
    (solve_greedy, "0eb01a8fdb8eba9633c5d82a6981420f605cae5bc1067982c52949d84f6836c3"),
    (solve_exact, "3f2531b3e936cea12e62ab19cd502ef6ea94e8e9aa4a1306e247d9bb0cd43f56"),
])
def test_realize_fleet_scale_is_pinned(solve, digest):
    # about 1 000 h/month over 100 rows, so each boundary picks from a pool
    # of 92-98 cells; the two solvers' flows differ at every boundary
    plan = random_plan(random.Random(2), 100, 12, 20)
    real = realize_transfers(plan, solve(column_sums(plan)).transfers)
    pinned = repr((real.shift_matrix.shifts, real.achieved, real.residuals))
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest


def test_realize_golden():
    result = solve_exact(column_sums(GOLDEN_PLAN))
    real = realize_transfers(GOLDEN_PLAN, result.transfers)
    assert result.transfers.x == (3, -3, -5)
    assert real.achieved == (0, 3, 5)
    assert real.residuals == (3, 0, 0)
    assert column_sums(real.adjusted_plan).loads == (50, 43, 46, 46)


def test_realize_golden_cells():
    real = realize_transfers(GOLDEN_PLAN, TransferVector((3, -3, -5)))
    # boundary 2 pulls row 3's 3-hour item out of month 3; boundary 3
    # pulls the 2- and 3-hour items out of month 4
    assert real.shift_matrix.shifts == (
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, -1, -1),
        (0, 0, 0, -1),
    )
    assert real.adjusted_plan.entries == (
        (10, 20, 30, 40),
        (5, 8, 6, 6),
        (21, 14, 2, 0),
        (14, 1, 8, 0),
    )


def test_realize_supplied_vector():
    real = realize_transfers(GOLDEN_PLAN, TransferVector((4, -2, -4)))
    # no month-1 item fits under 4 hours and nothing in month 3 fits
    # under 2, so only the last boundary moves work
    assert real.achieved == (0, 0, 3)
    assert real.residuals == (4, 2, 1)
    assert column_sums(real.adjusted_plan).loads == (50, 40, 47, 48)


def test_realize_zero_vector_is_noop():
    real = realize_transfers(GOLDEN_PLAN, TransferVector((0, 0, 0)))
    assert real.achieved == (0, 0, 0)
    assert real.residuals == (0, 0, 0)
    assert real.adjusted_plan.entries == GOLDEN_PLAN.entries
    assert all(v == 0 for row in real.shift_matrix.shifts for v in row)


def test_realize_rejects_wrong_length():
    with pytest.raises(PlanError):
        realize_transfers(GOLDEN_PLAN, TransferVector((1, 2)))


def test_realize_excludes_cells_already_moved():
    # boundary 1 pulls row 2's 4 hours back out of month 2; boundary 2
    # must not reuse that cell, and nothing else fits under 4
    plan = AnnualPlan(((0, 5, 0), (0, 4, 0)))
    real = realize_transfers(plan, TransferVector((-4, 4)))
    assert real.achieved == (4, 0)
    assert real.residuals == (0, 4)
    assert real.shift_matrix.shifts == ((0, 0, 0), (0, -1, 0))
    assert real.pools == ((5, 4), (5,))


def test_realize_forward_then_forward_uses_fresh_cells():
    plan = AnnualPlan(((4, 3, 0),))
    real = realize_transfers(plan, TransferVector((4, 3)))
    # month 2 gains the moved 4 but only its own original 3 may move on
    assert real.achieved == (4, 3)
    assert real.adjusted_plan.entries == ((0, 4, 3),)


def test_realize_residual_identity():
    rng = random.Random(4242)
    for _ in range(200):
        plan = random_plan(rng, rng.randint(1, 4), rng.randint(2, 5), 8)
        x = random_feasible_transfers(rng, column_sums(plan))
        real = realize_transfers(plan, x)
        for flow, got in zip(x.x, real.achieved):
            assert 0 <= got <= abs(flow)
        residuals = tuple(abs(f) - g for f, g in zip(x.x, real.achieved))
        assert real.residuals == residuals


def test_realize_consistency_invariant():
    # the realized plan's column sums equal the original sums moved by
    # the signed achieved flows
    rng = random.Random(77)
    for _ in range(200):
        plan = random_plan(rng, rng.randint(1, 4), rng.randint(2, 5), 8)
        loads = column_sums(plan)
        x = random_feasible_transfers(rng, loads)
        real = realize_transfers(plan, x)
        signed = tuple(
            g if f >= 0 else -g for f, g in zip(x.x, real.achieved)
        )
        expected = apply_transfers(loads, TransferVector(signed))
        assert column_sums(real.adjusted_plan).loads == expected.loads
        assert real.adjusted_plan.total_hours() == plan.total_hours()
        # the returned plan is exactly the shift matrix applied to the input
        assert apply_shift_matrix(plan, real.shift_matrix).entries == real.adjusted_plan.entries


def test_realize_single_row_plan():
    plan = AnnualPlan(((6, 0),))
    real = realize_transfers(plan, TransferVector((6,)))
    assert real.achieved == (6,)
    assert real.adjusted_plan.entries == ((0, 6),)


def test_realize_single_mover():
    real = realize_transfers(AnnualPlan(((5, 0), (0, 0))), TransferVector((5,)))
    assert real.shift_matrix.shifts == ((1, 0), (0, 0))
    assert real.achieved == (5,)
    assert real.residuals == (0,)


def test_realize_best_under_target():
    # neither 4 nor 3 alone hits 5, and together they overshoot
    real = realize_transfers(AnnualPlan(((4, 0), (3, 0))), TransferVector((5,)))
    assert real.achieved == (4,)
    assert real.residuals == (1,)
    assert real.shift_matrix.shifts == ((1, 0), (0, 0))


@st.composite
def plans_and_vectors(draw):
    rng = draw(st.randoms(use_true_random=False))
    # small cell caps leave many cells empty; a random feasible vector
    # often claims cells backward that the next boundary then skips
    plan = random_plan(rng, draw(st.integers(1, 30)), draw(st.integers(2, 14)), draw(st.sampled_from((1, 2, 5, 40))))
    return plan, random_feasible_transfers(rng, column_sums(plan))


@settings(max_examples=150, deadline=None)
@given(plans_and_vectors())
def test_realize_matches_scan_reference(case):
    plan, transfers = case
    real = realize_transfers(plan, transfers)
    # the whole result: shift matrix, achieved, residuals, adjusted plan, pools
    assert real == scan_realize_transfers(plan, transfers)


@settings(max_examples=100, deadline=None)
@given(plans_and_vectors())
def test_realize_outputs_equal_their_checked_rebuilds(case):
    # realization builds these without their constructors' checks
    real = realize_transfers(*case)
    assert ShiftMatrix(real.shift_matrix.shifts) == real.shift_matrix
    assert AnnualPlan(real.adjusted_plan.entries) == real.adjusted_plan
    assert type(real.pools) is tuple
    for pool in real.pools:
        assert SelectionProblem(pool, 0).items == pool and type(pool) is tuple


@pytest.mark.parametrize("plan, x", [
    (GOLDEN_PLAN, (3, 0, -5)),
    (GOLDEN_PLAN, (0, 0, 0)),
    (random_plan(random.Random(3), 9, 6, 4), (2, -3, 0, 4, -1)),
])
def test_realize_calls_subset_select_per_boundary(monkeypatch, plan, x):
    # the traced benchmark wraps realization.subset_select and counts its
    # calls, donor items and capacities
    calls = []

    def spy(problem):
        calls.append(problem)
        return subset_select(problem)

    monkeypatch.setattr(realization, "subset_select", spy)
    real = realize_transfers(plan, TransferVector(x))
    assert all(type(p) is SelectionProblem for p in calls)
    assert [(p.items, p.capacity) for p in calls] == [(pool, abs(f)) for f, pool in zip(x, real.pools) if f]
    assert all(SelectionProblem(p.items, p.capacity) == p for p in calls)


def test_realize_memory_stays_flat():
    # a pool built as tuple(filter(None, column)) left about 3 MB on
    # CPython's tuple free lists over this loop; pools of 10-20 cells, none
    # of which fits under a 1-hour flow, keep the subset DP cheap
    rng = random.Random(1)
    plan = AnnualPlan(tuple(tuple(rng.choice((0, rng.randint(2, 9))) for _ in range(52)) for _ in range(30)))
    transfers = TransferVector((1, -1) * 25 + (1,))
    realize_transfers(plan, transfers)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1500):
            realize_transfers(plan, transfers)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 1 << 20
