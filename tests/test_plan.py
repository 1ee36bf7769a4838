import enum
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repair_leveler import (
    AnnualPlan,
    MonthlyLoads,
    Objective,
    PlanError,
    SelectionProblem,
    ShiftMatrix,
    TransferVector,
    apply_shift_matrix,
    apply_transfers,
    column_sums,
    deviation,
    mean_load,
    validate_transfers,
)
from repair_leveler.plan import _first_bad_int
from helpers import (
    GOLDEN_LOADS,
    GOLDEN_PLAN,
    direct_deviation,
    random_feasible_transfers,
    random_loads,
    sequence_first_bad_int,
)

L1, QD = Objective.L1, Objective.QUADRATIC


def test_column_sums_golden():
    assert column_sums(GOLDEN_PLAN).loads == (50, 40, 44, 51)


def test_column_sums_small():
    assert column_sums(AnnualPlan(((0, 0),))).loads == (0, 0)
    assert column_sums(AnnualPlan(((1, 2), (3, 4)))).loads == (4, 6)


def test_total_hours_golden():
    assert GOLDEN_PLAN.total_hours() == 185


def test_mean_load_is_exact_and_unreduced():
    mean = mean_load(GOLDEN_LOADS)
    assert mean.numerator == 185
    assert mean.denominator == 4
    assert mean == Fraction(185, 4)
    assert mean_load(MonthlyLoads((6, 6))) == 6
    assert mean_load(MonthlyLoads((7, 7, 7))) == 7
    assert mean_load(MonthlyLoads((0, 0, 0, 0))) == 0


def test_plan_rejects_bad_shapes():
    with pytest.raises(PlanError):
        AnnualPlan(())
    with pytest.raises(PlanError):
        AnnualPlan(((1,),))  # single month
    with pytest.raises(PlanError):
        AnnualPlan(((1, 2), (3,)))  # ragged
    with pytest.raises(PlanError):
        AnnualPlan(((1, -2),))
    with pytest.raises(PlanError):
        AnnualPlan(((1, 2.5),))
    with pytest.raises(PlanError):
        AnnualPlan(((True, False),))  # bools are not hours


class Hours(int):
    """An int subclass that is not a bool, so it counts as hours."""


def test_value_types_take_int_subclasses_and_name_the_first_bad_value():
    h = Hours(1)
    assert AnnualPlan(((h, 0), (2, h))).entries == ((1, 0), (2, 1))
    assert MonthlyLoads((h, 0)).loads == (1, 0)
    assert TransferVector((h,)).x == (1,)
    assert ShiftMatrix(((h, 0),)).shifts == ((1, 0),)
    assert SelectionProblem((h,), h).items == (1,)
    # the first bad value in row-major order is named, not a later one
    with pytest.raises(PlanError, match=r"^cell \(1,2\) must be a non-negative integer, got -1$"):
        AnnualPlan(((0, -1), (2.5, 0)))
    with pytest.raises(PlanError, match=r"^cell \(2,1\) must be a non-negative integer, got True$"):
        AnnualPlan(((0, 1), (True, -1)))
    with pytest.raises(PlanError, match=r"^month 2 load must be a non-negative integer, got 'x'$"):
        MonthlyLoads((1, "x", -1))
    with pytest.raises(PlanError, match=r"^boundary 3 transfer must be an integer, got 0\.5$"):
        TransferVector((1, -2, 0.5, True))
    with pytest.raises(PlanError, match=r"^cell \(2,2\) must be -1, 0 or \+1, got 2$"):
        ShiftMatrix(((0, 0, 0), (0, 2, True)))
    with pytest.raises(PlanError, match=r"^item 2 must be a positive integer, got False$"):
        SelectionProblem((3, False, 0), 5)
    with pytest.raises(PlanError, match=r"^capacity must be a non-negative integer, got True$"):
        SelectionProblem((3,), True)


class _Grade(enum.IntEnum):
    LOW = -1
    NONE = 0
    HIGH = 3


# ints, bools, IntEnum members, floats and Fractions, many of them equal to an int
_SCALARS = st.one_of(
    st.integers(-4, 4),
    st.integers(),
    st.booleans(),
    st.sampled_from(_Grade),
    st.floats(),
    st.integers(-4, 4).map(float),
    st.fractions(),
    st.integers(-4, 4).map(Fraction),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_SCALARS, max_size=8).map(tuple),
    lo=st.none() | st.integers(-5, 5),
    hi=st.none() | st.integers(-5, 5),
)
def test_first_bad_int_walk_matches_the_sequence_form(values, lo, hi):
    want = sequence_first_bad_int(values, lo, hi)
    assert _first_bad_int(values, lo, hi) == want
    assert _first_bad_int(iter(values), lo, hi) == want  # the walk takes any iterable


def test_monthly_loads_validation():
    with pytest.raises(PlanError):
        MonthlyLoads(())
    with pytest.raises(PlanError, match="at least two months"):
        MonthlyLoads((5,))
    with pytest.raises(PlanError):
        MonthlyLoads((1, -1))
    with pytest.raises(PlanError):
        MonthlyLoads((1, 2.0))


def test_transfer_vector_validation():
    with pytest.raises(PlanError):
        TransferVector(())
    with pytest.raises(PlanError):
        TransferVector((1, 0.5))
    assert TransferVector((0, -3)).x == (0, -3)


def test_apply_transfers_golden():
    adjusted = apply_transfers(GOLDEN_LOADS, TransferVector((4, -2, -4)))
    assert adjusted.loads == (46, 46, 46, 47)


def test_apply_transfers_identity():
    zero = TransferVector((0, 0, 0))
    assert apply_transfers(GOLDEN_LOADS, zero).loads == GOLDEN_LOADS.loads


def test_apply_transfers_validates():
    # pulling from an empty month is rejected by apply itself
    with pytest.raises(PlanError, match=r"^boundary 1: backward transfer -1 exceeds month 2 hours 0$"):
        apply_transfers(MonthlyLoads((10, 0)), TransferVector((-1,)))


def test_validate_rejects_wrong_length():
    with pytest.raises(PlanError):
        validate_transfers(GOLDEN_LOADS, TransferVector((1, 2)))


def test_validate_forward_bound():
    with pytest.raises(PlanError, match=r"^boundary 1: forward transfer 51 exceeds month 1 hours 50$"):
        validate_transfers(GOLDEN_LOADS, TransferVector((51, 0, 0)))


def test_validate_backward_bound():
    with pytest.raises(PlanError, match=r"^boundary 2: backward transfer -45 exceeds month 3 hours 44$"):
        validate_transfers(GOLDEN_LOADS, TransferVector((0, -45, 0)))


def test_bounds_checked_against_original_loads():
    # month 2 ends up holding 80 hours, but the boundary-2 limit stays
    # at the original 40, so moving 41 forward is still rejected
    loads = MonthlyLoads((40, 40, 40))
    with pytest.raises(PlanError, match=r"^boundary 2: forward transfer 41 exceeds month 2 hours 40$"):
        validate_transfers(loads, TransferVector((40, 41)))


def test_validate_negative_month():
    # both flows respect their own bounds, yet month 2 drains below zero
    with pytest.raises(PlanError, match=r"^month 2 would hold -2 hours$"):
        validate_transfers(MonthlyLoads((10, 2, 10)), TransferVector((-2, 2)))
    validate_transfers(MonthlyLoads((10, 2, 10)), TransferVector((-2, 0)))


def test_l1_deviation_golden():
    assert deviation(GOLDEN_LOADS, L1) == 17
    adjusted = apply_transfers(GOLDEN_LOADS, TransferVector((4, -2, -4)))
    assert deviation(adjusted, L1) == Fraction(3, 2)


def test_deviation_zero_iff_level():
    level = MonthlyLoads((7, 7))
    assert deviation(level, L1) == 0
    uniform = MonthlyLoads((7, 7, 7))
    assert direct_deviation(apply_transfers(uniform, TransferVector((0, 0))), QD) == 0
    # any unequal month forces a strictly positive deviation
    rng = random.Random(19)
    for _ in range(100):
        loads = random_loads(rng, rng.randint(2, 6), 20)
        dev = deviation(loads, L1)
        if len(set(loads.loads)) == 1:
            assert dev == 0
        else:
            assert dev > 0


def test_squared_deviation_matches_definition():
    mean = mean_load(GOLDEN_LOADS)
    direct = sum((Fraction(v) - mean) ** 2 for v in GOLDEN_LOADS.loads)
    assert deviation(GOLDEN_LOADS, QD) == direct == Fraction(323, 4)


def test_quadratic_deviation_golden():
    zero = TransferVector((0, 0, 0))
    assert direct_deviation(apply_transfers(GOLDEN_LOADS, zero), QD) == Fraction(323, 4)
    assert direct_deviation(apply_transfers(GOLDEN_LOADS, TransferVector((4, -2, -4))), QD) == Fraction(3, 4)


def test_quadratic_equals_squared_deviation_of_adjusted():
    # the scaled integer cost must equal the plain Fraction
    # sum-of-squares of the adjusted loads, whatever the flows are
    rng = random.Random(20260817)
    for _ in range(1000):
        loads = random_loads(rng, rng.randint(2, 7), 25)
        x = random_feasible_transfers(rng, loads)
        adjusted = apply_transfers(loads, x)
        assert direct_deviation(adjusted, QD) == deviation(adjusted, QD)


def test_metrics_are_repeatable():
    adjusted = apply_transfers(GOLDEN_LOADS, TransferVector((4, -2, -4)))
    assert deviation(GOLDEN_LOADS, L1) == deviation(GOLDEN_LOADS, L1)
    assert deviation(adjusted, QD) == deviation(adjusted, QD)


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=12), st.sampled_from(Objective))
def test_deviation_metrics_consistency(hours, objective):
    loads = MonthlyLoads(tuple(hours))
    assert deviation(loads, objective) == direct_deviation(loads, objective)


def test_deviation_denominators():
    # month totals are integers, so the L1 value is a multiple of 1/n
    # and the quadratic value a multiple of 1/n^2
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 9)
        loads = random_loads(rng, n, 30)
        assert (deviation(loads, L1) * n).denominator == 1
        assert (deviation(loads, QD) * n * n).denominator == 1


@st.composite
def loads_and_transfers(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    hours = draw(st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n))
    loads = MonthlyLoads(tuple(hours))
    xs = []
    prev = 0
    for b in range(n - 1):
        lo = -hours[b + 1]
        hi = hours[b] + min(0, prev)
        x = draw(st.integers(min_value=lo, max_value=hi))
        xs.append(x)
        prev = x
    return loads, TransferVector(tuple(xs))


@given(loads_and_transfers())
def test_transfers_conserve_total(pair):
    loads, x = pair
    validate_transfers(loads, x)
    adjusted = apply_transfers(loads, x)
    assert sum(adjusted.loads) == sum(loads.loads)
    assert all(v >= 0 for v in adjusted.loads)


@given(loads_and_transfers())
def test_leveling_never_hurts_below_zero(pair):
    loads, x = pair
    assert direct_deviation(apply_transfers(loads, x), QD) >= 0
    assert deviation(apply_transfers(loads, x), L1) >= 0


def test_shift_matrix_value_validation():
    with pytest.raises(PlanError, match=r"^cell \(1,2\) must be -1, 0 or \+1, got 2$"):
        ShiftMatrix(((0, 2),))
    with pytest.raises(PlanError, match=r"^shift matrix needs at least one row$"):
        ShiftMatrix(())
    # each value equals -1, 0 or 1, but none is an int
    for bad in (1.0, -0.0, Fraction(-1), True):
        with pytest.raises(PlanError, match=rf"^cell \(1,1\) must be -1, 0 or \+1, got {re.escape(repr(bad))}$"):
            ShiftMatrix(((bad, 0),))
    with pytest.raises(PlanError, match=r"^cell \(1,1\) must be -1, 0 or \+1, got 1\.0$"):
        apply_shift_matrix(AnnualPlan(((3, 0), (0, 4))), ShiftMatrix(((1.0, 0), (0, Fraction(-1)))))


def test_shift_matrix_shape_validation():
    with pytest.raises(PlanError, match="^shift matrix needs at least two months$"):
        ShiftMatrix(((0,), (0,)))
    with pytest.raises(PlanError, match="^row 2 has 3 cells, expected 2$"):
        ShiftMatrix(((0, 0), (0, 0, 0)))


def test_shift_matrix_boundary_rules():
    with pytest.raises(PlanError, match=r"^row 1 moves work backward out of the first month$"):
        ShiftMatrix(((-1, 0),))
    with pytest.raises(PlanError, match=r"^row 1 moves work forward out of the last month$"):
        ShiftMatrix(((0, 1),))
    # interior moves in both directions are fine
    ShiftMatrix(((0, -1, 0), (1, 0, 0)))


def test_apply_shift_matrix_golden():
    shifts = ShiftMatrix((
        (0, 0, 0, 0),
        (0, -1, 0, -1),
        (1, -1, -1, 0),
        (0, 1, 0, 0),
    ))
    moved = apply_shift_matrix(GOLDEN_PLAN, shifts)
    sums = column_sums(moved)
    assert sums.loads == (48, 44, 48, 45)
    assert moved.total_hours() == 185
    assert deviation(sums, L1) == 7


def test_apply_shift_matrix_moves_whole_cells():
    plan = AnnualPlan(((7, 0), (2, 9)))
    shifts = ShiftMatrix(((1, 0), (0, -1)))
    moved = apply_shift_matrix(plan, shifts)
    assert moved.entries == ((0, 7), (11, 0))
    assert apply_shift_matrix(AnnualPlan(((5, 0),)), ShiftMatrix(((1, 0),))).entries == ((0, 5),)


def test_apply_shift_matrix_identity():
    zero = ShiftMatrix(tuple((0,) * GOLDEN_PLAN.n for _ in range(GOLDEN_PLAN.k)))
    assert apply_shift_matrix(GOLDEN_PLAN, zero).entries == GOLDEN_PLAN.entries


def test_apply_shift_matrix_identity_keeps_empty_cells():
    # a matrix with no mark gives the plan back, empty rows and cells too
    plan = AnnualPlan(((0, 0, 0), (5, 0, 7), (0, 3, 0)))
    zero = ShiftMatrix(tuple((0,) * plan.n for _ in range(plan.k)))
    assert apply_shift_matrix(plan, zero).entries == plan.entries


def test_apply_shift_matrix_rejects_empty_cell_move():
    with pytest.raises(PlanError, match=r"^cell \(1,1\) is empty but marked to move$"):
        apply_shift_matrix(AnnualPlan(((0, 5),)), ShiftMatrix(((1, 0),)))


def test_apply_shift_matrix_rejects_empty_cell_move_after_legal_row():
    # row 1's marks are all legal; the refusal names the first empty marked cell of row 2
    with pytest.raises(PlanError, match=r"^cell \(2,2\) is empty but marked to move$"):
        apply_shift_matrix(AnnualPlan(((3, 0, 2), (4, 0, 1))), ShiftMatrix(((1, 0, -1), (0, -1, 0))))


def test_apply_shift_matrix_shape_mismatch():
    with pytest.raises(PlanError, match=r"^shift matrix is 1x2, plan is 4x4$"):
        apply_shift_matrix(GOLDEN_PLAN, ShiftMatrix(((0, 0),)))


def test_apply_shift_matrix_conserves_total():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(2, 5)
        plan = AnnualPlan(tuple(tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(k)))
        rows = []
        for i in range(k):
            row = []
            for j in range(n):
                options = [0]
                if plan.entries[i][j] > 0:
                    if j > 0:
                        options.append(-1)
                    if j < n - 1:
                        options.append(1)
                row.append(rng.choice(options))
            rows.append(tuple(row))
        moved = apply_shift_matrix(plan, ShiftMatrix(tuple(rows)))
        assert moved.total_hours() == plan.total_hours()
        assert all(v >= 0 for row in moved.entries for v in row)
