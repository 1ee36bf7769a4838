import random
from fractions import Fraction

import pytest
from hypothesis import example, find, given, settings, strategies as st

from repair_leveler import (
    AnnualPlan,
    MonthlyLoads,
    Objective,
    PlanError,
    SolverConfig,
    TransferVector,
    apply_transfers,
    brute_force_shifts,
    brute_force_transfers,
    column_sums,
    deviation,
    realize_transfers,
    solve_bisection,
    solve_exact,
    solve_greedy,
    standard_form,
    subset_select,
    validate_transfers,
)
from repair_leveler.cli import _solve, build_parser
from repair_leveler import realization, solvers
from repair_leveler.solvers import _chain_dp, _month_costs
from helpers import (
    GOLDEN_LOADS,
    SWEEP_LOAD_CAP,
    direct_deviation,
    fraction_solve_greedy,
    load_baseline,
    load_perfbench,
    month_cost,
    pointer_chain_dp,
    quadratic_chain_dp,
    random_feasible_transfers,
    random_loads,
    random_plan,
)

QUAD = SolverConfig(objective=Objective.QUADRATIC)


def _metric(loads, x, objective):
    return direct_deviation(apply_transfers(loads, x), objective)


def test_exact_l1_golden():
    result = solve_exact(GOLDEN_LOADS)
    assert result.transfers.x == (3, -3, -5)
    assert result.objective_value == Fraction(3, 2)
    assert result.optimal
    assert result.method == "exact"
    assert result.visited_states > 0


def test_exact_quadratic_golden():
    result = solve_exact(GOLDEN_LOADS, QUAD)
    assert result.transfers.x == (3, -3, -5)
    assert result.objective_value == Fraction(3, 4)


def test_exact_result_is_feasible():
    result = solve_exact(GOLDEN_LOADS)
    validate_transfers(GOLDEN_LOADS, result.transfers)
    adjusted = apply_transfers(GOLDEN_LOADS, result.transfers)
    assert sum(adjusted.loads) == sum(GOLDEN_LOADS.loads)


def test_exact_lexicographic_tie_break():
    # four optimal vectors exist here; the smallest one wins
    result = solve_exact(MonthlyLoads((5, 0, 5)))
    assert result.transfers.x == (1, -2)
    assert result.objective_value == Fraction(4, 3)


def test_exact_tie_break_prefers_negative():
    # both x=0 and x=1 give deviation 1; 0 is lexicographically smaller
    result = solve_exact(MonthlyLoads((1, 0)))
    assert result.transfers.x == (0,)
    assert result.objective_value == 1


def test_exact_level_input_stays_put():
    result = solve_exact(MonthlyLoads((7, 7, 7)))
    assert result.transfers.x == (0, 0)
    assert result.objective_value == 0


def test_exact_two_months():
    assert solve_exact(MonthlyLoads((0, 10))).transfers.x == (-5,)
    assert solve_exact(MonthlyLoads((10, 0))).transfers.x == (5,)


def test_exact_rejects_single_month():
    with pytest.raises(PlanError):
        solve_exact(MonthlyLoads((9,)))


@pytest.mark.parametrize("solve", [solve_exact, solve_bisection])
@pytest.mark.parametrize("hours", [(0, 5), (3, 1, 0, 2), (2, 0, 2, 9, 2, 2, 0, 2)])
def test_solvers_refuse_past_the_chain_state_limit(solve, hours, monkeypatch):
    # month 0 has one inflow state, each later month L[b] + L[b+1] + 1
    states = 1 + sum(hours[b] + hours[b + 1] + 1 for b in range(len(hours) - 1))
    loads = MonthlyLoads(hours)
    want = solve(loads)
    monkeypatch.setattr(solvers, "_MAX_CHAIN_STATES", states)
    assert solve(loads) == want
    monkeypatch.setattr(solvers, "_MAX_CHAIN_STATES", states - 1)
    with pytest.raises(PlanError, match=f"the chain DP needs {states} states, past its limit of {states - 1}$"):
        solve(loads)


def test_exact_matches_oracle_quick():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(2, 5)
        loads = random_loads(rng, n, 12)
        for objective in Objective:
            got = solve_exact(loads, SolverConfig(objective=objective))
            ref = brute_force_transfers(loads, objective)
            assert got.objective_value == ref.objective_value
            assert got.transfers == ref.transfers


def test_greedy_golden():
    result = solve_greedy(GOLDEN_LOADS)
    assert result.transfers.x == (4, -2, -4)
    assert result.objective_value == Fraction(3, 2)
    assert not result.optimal
    assert result.method == "greedy"


def test_greedy_rounding_half_toward_zero():
    # deviations of exactly .5 round to the smaller magnitude
    assert solve_greedy(MonthlyLoads((3, 0))).transfers.x == (1,)
    assert solve_greedy(MonthlyLoads((0, 3))).transfers.x == (-1,)


@st.composite
def greedy_loads(draw):
    """Loads of 2-12 months; in half the draws n is even and the total is
    n/2 modulo n, so every boundary's distance to the mean, (n * load -
    total) / n, is an exact half, above the mean or below it."""
    halves = draw(st.booleans())
    n = draw(st.sampled_from((2, 4, 6, 8, 12))) if halves else draw(st.integers(2, 12))
    hours = draw(st.lists(st.integers(0, draw(st.sampled_from((3, 60, 10**6)))), min_size=n, max_size=n))
    if halves:
        hours[draw(st.integers(0, n - 1))] += (n // 2 - sum(hours)) % n
    return MonthlyLoads(tuple(hours))


@settings(max_examples=300, deadline=None)
@given(greedy_loads(), st.sampled_from(Objective))
def test_greedy_matches_fraction_reference(loads, objective):
    config = SolverConfig(objective)
    assert solve_greedy(loads, config) == fraction_solve_greedy(loads, config)


def test_greedy_pulls_backward():
    assert solve_greedy(MonthlyLoads((0, 10))).transfers.x == (-5,)


def test_greedy_clamps_to_available_hours():
    # month 2 holds only 1 hour, so the backward pull stops there
    result = solve_greedy(MonthlyLoads((0, 1, 20)))
    validate_transfers(MonthlyLoads((0, 1, 20)), result.transfers)
    assert result.transfers.x[0] >= -1


def test_greedy_always_feasible():
    rng = random.Random(55)
    for _ in range(400):
        loads = random_loads(rng, rng.randint(2, 9), 50)
        result = solve_greedy(loads)
        validate_transfers(loads, result.transfers)
        adjusted = apply_transfers(loads, result.transfers)
        assert sum(adjusted.loads) == sum(loads.loads)


def test_bisection_golden():
    result = solve_bisection(GOLDEN_LOADS)
    assert result.transfers.x == (3, -3, -5)
    assert result.objective_value == Fraction(3, 2)
    assert not result.optimal
    assert result.method == "bisection"


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 6, 7, 9, 10, 11, 13)).flatmap(
        lambda n: st.lists(st.integers(0, 60), min_size=n, max_size=n)
    ),
    st.sampled_from(Objective),
)
def test_bisection_answers_other_lengths_exactly(hours, objective):
    # no quarters to split: the whole result is the exact solver's
    loads = MonthlyLoads(tuple(hours))
    config = SolverConfig(objective)
    assert solve_bisection(loads, config) == solve_exact(loads, config)


def test_bisection_empty_interior_forces_zero_mid_flow():
    loads = MonthlyLoads((20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4))
    result = solve_bisection(loads)
    assert result.transfers.x[5] == 0
    validate_transfers(loads, result.transfers)


def test_bisection_dominates_exact():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.choice((4, 8))
        loads = random_loads(rng, n, 20 if n == 4 else 10)
        for objective in Objective:
            cfg = SolverConfig(objective=objective)
            heur = solve_bisection(loads, cfg)
            best = solve_exact(loads, cfg)
            validate_transfers(loads, heur.transfers)
            assert heur.objective_value >= best.objective_value


def _split_reference(L, objective):
    # bisection's three pinned flows, each the smallest flow in its donor
    # range that best balances the two sides around total/parts, in
    # Fraction arithmetic
    g = abs if objective is Objective.L1 else (lambda d: d * d)
    n, total = len(L), sum(L)
    q, mid = n // 4, n // 2

    def split(start, cut, stop, inflow, outflow, parts):
        left = sum(L[start:cut]) + inflow
        right = sum(L[cut:stop]) - outflow
        share = Fraction(total, parts)
        return min(range(-L[cut], L[cut - 1] + 1), key=lambda v: g(left - v - share) + g(right + v - share))

    v_mid = split(0, mid, n, 0, 0, 2)
    return {mid - 1: v_mid, q - 1: split(0, q, mid, 0, v_mid, 4), 3 * q - 1: split(mid, 3 * q, n, v_mid, 0, 4)}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((4, 8, 12)).flatmap(lambda n: st.lists(st.integers(0, 60), min_size=n, max_size=n)),
    st.sampled_from(Objective),
)
# side loads below zero: q1's right side spans -5..5 in the first, q3's left side in the second
@example([0, 10, 0, 0], Objective.L1)
@example([0, 10, 0, 0], Objective.QUADRATIC)
@example([0, 0, 10, 0], Objective.L1)
@example([0, 0, 10, 0], Objective.QUADRATIC)
def test_bisection_split_flows_match_fraction_reference(hours, objective):
    result = solve_bisection(MonthlyLoads(tuple(hours)), SolverConfig(objective))
    for b, v in _split_reference(hours, objective).items():
        assert result.transfers.x[b] == v


def test_bisection_uniform_year_stays_put():
    result = solve_bisection(MonthlyLoads((10,) * 12))
    assert result.transfers.x == (0,) * 11
    assert result.objective_value == 0


def test_bisection_deterministic():
    a = solve_bisection(GOLDEN_LOADS, QUAD)
    b = solve_bisection(GOLDEN_LOADS, QUAD)
    assert a.transfers == b.transfers
    assert a.objective_value == b.objective_value


def test_solvers_deterministic():
    for solver in (solve_exact, solve_greedy):
        a = solver(GOLDEN_LOADS)
        b = solver(GOLDEN_LOADS)
        assert a.transfers == b.transfers
        assert a.objective_value == b.objective_value


def test_greedy_uniform_loads_stay_put():
    assert solve_greedy(MonthlyLoads((5, 5, 5, 5))).transfers.x == (0, 0, 0)


def test_dominance_sweep():
    # exact is never beaten, never worse than doing nothing, and every
    # returned objective matches a recomputation from its own vector
    rng = random.Random(500500)
    for _ in range(500):
        k = rng.randint(1, 5)
        n = rng.randint(2, 8)
        plan = random_plan(rng, k, n, 30)
        loads = column_sums(plan)
        zero = TransferVector((0,) * (n - 1))
        for objective in Objective:
            cfg = SolverConfig(objective=objective)
            best = solve_exact(loads, cfg)
            assert best.objective_value == _metric(loads, best.transfers, objective)
            assert best.objective_value <= _metric(loads, zero, objective)
            others = [solve_greedy(loads, cfg)]
            if n % 4 == 0:
                others.append(solve_bisection(loads, cfg))
            for result in others:
                validate_transfers(loads, result.transfers)
                assert result.objective_value == _metric(loads, result.transfers, objective)
                assert result.objective_value >= best.objective_value


def test_solver_config_validation():
    with pytest.raises(PlanError):
        SolverConfig(objective="l1")


_UNEVEN = MonthlyLoads((10, 0, 0, 30))


# "l1" == Objective.L1 for a str enum, so only an identity check tells a
# plain string from the member; these calls once fell to the quadratic cost
@pytest.mark.parametrize(
    "call",
    [
        lambda: brute_force_transfers(_UNEVEN, "l1"),
        lambda: deviation(_UNEVEN, "l1"),
        lambda: brute_force_shifts(AnnualPlan((_UNEVEN.loads,)), "l1"),
    ],
    ids=["brute_force_transfers", "deviation", "brute_force_shifts"],
)
def test_plain_string_objective_is_rejected(call):
    with pytest.raises(PlanError, match="unknown objective"):
        call()


def test_standard_form_golden():
    qp = standard_form(GOLDEN_LOADS)
    assert qp.linear_coeffs == (20, -8, -14)
    assert qp.quadratic_coeffs == (
        (-2, 1, 0),
        (1, -2, 1),
        (0, 1, -2),
    )
    assert qp.constraint_rhs == (50, 40, 44, 40, 44, 51)
    assert qp.constant_offset == Fraction(323, 4)
    assert qp.variables == (
        "x1", "x2", "x3",
        "x1_prime", "x2_prime", "x3_prime",
        "x1_dprime", "x2_dprime", "x3_dprime",
    )


def test_standard_form_constraint_rows():
    qp = standard_form(GOLDEN_LOADS)
    # first block: x_i + x'_i = A_i, second block: -x_i + x''_i = A_{i+1}
    assert qp.constraint_matrix[0] == (1, 0, 0, 1, 0, 0, 0, 0, 0)
    assert qp.constraint_matrix[3] == (-1, 0, 0, 0, 0, 0, 1, 0, 0)
    assert len(qp.constraint_matrix) == 6


def test_standard_form_peak_value():
    qp = standard_form(GOLDEN_LOADS)
    # both quadratic optima score the same peak
    assert qp.objective_z((4, -2, -4)) == 80
    assert qp.objective_z((3, -3, -5)) == 80
    assert qp.objective_z((0, 0, 0)) == 0


def test_standard_form_two_months():
    qp = standard_form(MonthlyLoads((10, 0)))
    assert qp.shifted_loads == (5, -5)
    assert qp.linear_coeffs == (20,)
    assert qp.quadratic_coeffs == ((-2,),)
    assert qp.objective_z((5,)) == 50
    assert qp.constant_offset == 50


def test_standard_form_level_loads():
    qp = standard_form(MonthlyLoads((7, 7)))
    assert qp.constant_offset == 0
    assert qp.objective_z((0,)) == 0


def test_standard_form_identity_quick():
    # z(x) + V(x) always returns the centered sum of squares
    rng = random.Random(31)
    for _ in range(50):
        loads = random_loads(rng, rng.randint(2, 7), 40)
        qp = standard_form(loads)
        offset = direct_deviation(loads, Objective.QUADRATIC)
        assert qp.constant_offset == offset
        for _ in range(20):
            x = random_feasible_transfers(rng, loads)
            v = direct_deviation(apply_transfers(loads, x), Objective.QUADRATIC)
            assert qp.objective_z(x.x) + v == offset


def test_standard_form_identity_dense():
    # a deep dive on a handful of instances: a thousand sample points each
    rng = random.Random(97)
    for _ in range(5):
        loads = random_loads(rng, rng.randint(2, 8), 60)
        qp = standard_form(loads)
        offset = direct_deviation(loads, Objective.QUADRATIC)
        for _ in range(1000):
            x = random_feasible_transfers(rng, loads)
            assert qp.objective_z(x.x) + direct_deviation(apply_transfers(loads, x), Objective.QUADRATIC) == offset


def test_standard_form_slack_values():
    qp = standard_form(GOLDEN_LOADS)
    primes, dprimes = qp.slack_values((3, -3, -5))
    assert primes == (47, 43, 49)
    assert dprimes == (43, 41, 46)
    # slacks reproduce the constraint right-hand sides
    x = (3, -3, -5)
    for i in range(3):
        assert x[i] + primes[i] == qp.constraint_rhs[i]
        assert -x[i] + dprimes[i] == qp.constraint_rhs[3 + i]


def test_slack_values_nonnegative_for_feasible_x():
    rng = random.Random(13)
    for _ in range(100):
        loads = random_loads(rng, rng.randint(2, 6), 30)
        qp = standard_form(loads)
        x = random_feasible_transfers(rng, loads)
        primes, dprimes = qp.slack_values(x.x)
        assert all(v >= 0 for v in primes)
        assert all(v >= 0 for v in dprimes)


def test_substitution_removes_the_sign_constraint():
    # shifting every flow by the same offset leaves the objective alone
    qp = standard_form(GOLDEN_LOADS)
    for t in (0, 1, 5, 40):
        xbar = tuple(v + t for v in (4, -2, -4))
        assert qp.substituted_z(xbar, t) == 80
    assert qp.substitution.variables == ("xbar1", "xbar2", "xbar3", "x0")


def test_substitution_two_month_degenerate_case():
    # with a single flow the two coupling terms collapse onto one variable
    qp = standard_form(MonthlyLoads((10, 0)))
    for t in (0, 2, 7):
        assert qp.substituted_z((5 + t,), t) == 50


def test_standard_form_wrong_arity():
    qp = standard_form(GOLDEN_LOADS)
    with pytest.raises(PlanError):
        qp.objective_z((1, 2))
    with pytest.raises(PlanError):
        qp.substituted_z((1, 2), 0)
    with pytest.raises(PlanError):
        qp.slack_values((1, 2))


def test_standard_form_rejects_single_month():
    with pytest.raises(PlanError):
        standard_form(MonthlyLoads((4,)))


def test_visited_states_shrink_with_problem():
    small = solve_exact(MonthlyLoads((3, 3)))
    big = solve_exact(GOLDEN_LOADS)
    assert 0 < small.visited_states < big.visited_states


# Fixed inputs for the pinned outputs below: n = 2, 5, 12 for the exact
# solver, n = 4, 8, 12, 52 for bisection, plus DEAD, whose pinned split
# flows leave dead states in the chain DP.
_N2 = (3, 5)
_N5 = (19, 8, 23, 11, 25)
_N12 = (15, 8, 21, 16, 21, 11, 4, 12, 0, 11, 15, 8)
_Q4 = (30, 0, 27, 6)
_Q8 = (4, 22, 2, 21, 12, 23, 8, 12)
_Q12 = (15, 21, 18, 19, 9, 22, 14, 13, 24, 21, 5, 11)
_Q52 = (
    12, 6, 10, 2, 6, 3, 12, 1, 9, 0, 1, 10, 1, 0, 5, 12, 7, 9, 2, 7, 3, 3, 11, 1, 4, 10,
    8, 9, 0, 9, 4, 9, 12, 12, 5, 7, 5, 4, 3, 8, 10, 6, 0, 1, 1, 1, 1, 12, 1, 2, 6, 6,
)
_DEAD = (8, 0, 1, 5, 0, 2, 0, 2)
L1, QD = Objective.L1, Objective.QUADRATIC

def _split_cuts(solve, L):
    # the months c at whose boundary c - 1 bisection pins a split flow
    n = len(L)
    return (n // 4, n // 2, 3 * n // 4) if solve is solve_bisection and n % 4 == 0 else ()


def _closed_form_states(solve, L):
    # visited_states: the chain DP's inflow states, 1 for month 0 and then
    # L[b] + L[b+1] + 1 per boundary b, plus the L[c-1] + L[c] + 1 flows
    # each of bisection's three split scans tries
    states = 2 * sum(L) - L[0] - L[-1] + len(L)
    return states + sum(L[c - 1] + L[c] + 1 for c in _split_cuts(solve, L))


@pytest.mark.parametrize(
    # scan_work: the transitions a scan of every affordable outflow per
    # state makes on the case, plus the split scans; every state of the
    # DP that runs has at least one
    "solve, objective, loads, transfers, value, scan_work",
    [
        (solve_exact, L1, _N2, (-1,), Fraction(0), 18),
        (solve_exact, QD, _N2, (-1,), Fraction(0), 18),
        (solve_exact, L1, _N5, (1, -8, -2, -8), Fraction(8, 5), 2998),
        (solve_exact, QD, _N5, (1, -8, -2, -8), Fraction(4, 5), 2998),
        (solve_exact, L1, _N12, (-6, -10, -1, 3, 12, 11, 4, 5, -6, -6, -2), Fraction(20), 5781),
        (solve_exact, QD, _N12, (1, -5, 2, 5, 13, 11, 4, 6, -4, -3, 2), Fraction(107, 3), 5781),
        (solve_bisection, L1, _Q4, (14, -2, 9), Fraction(3, 2), 97),
        (solve_bisection, QD, _Q4, (14, -2, 9), Fraction(3, 4), 97),
        (solve_bisection, L1, _Q8, (-9, 0, -11, -3, -4, 6, 1), Fraction(0), 298),
        (solve_bisection, QD, _Q8, (-9, 0, -11, -3, -4, 6, 1), Fraction(0), 298),
        (solve_bisection, L1, _Q12, (-1, 4, 6, 9, 2, 8, 6, 3, 11, 16, 5), Fraction(0), 3893),
        (solve_bisection, QD, _Q12, (-1, 4, 6, 9, 2, 8, 6, 3, 11, 16, 5), Fraction(0), 3893),
        (
            solve_bisection, L1, _Q52,
            (2, 2, 6, 2, 2, -1, 5, 1, 5, 0, -4, 1, 0, -5, -6, 0, 1, 4, 0, 1, -2, -4, 2, -2, -3, 2,
             -3, 0, -7, -4, -9, -6, 0, 6, 5, 6, 5, 4, 3, 2, 6, 6, 0, -1, -1, -1, -5, 2, -2, -5, -4),
            Fraction(1603, 26), 5852,
        ),
        (
            solve_bisection, QD, _Q52,
            (5, 4, 7, 2, 2, -1, 5, 1, 5, 0, -3, 3, 0, -5, -6, 0, 1, 4, 0, 1, -2, -4, 2, -2, -3, 2,
             2, 3, -4, -2, -5, -3, 2, 7, 5, 6, 5, 4, 3, 4, 7, 6, 0, -1, -1, -1, -5, 2, -2, -4, -2),
            Fraction(6179, 52), 5852,
        ),
        (solve_bisection, L1, _DEAD, (3, 0, 0, 5, 0, 2, 0), Fraction(25, 2), 48),
        (solve_bisection, QD, _DEAD, (4, 0, 0, 5, 0, 2, 0), Fraction(51, 2), 48),
    ],
)
def test_pinned_solver_outputs(solve, objective, loads, transfers, value, scan_work):
    # visited_states is part of report.json, so it is pinned with the vector
    result = solve(MonthlyLoads(loads), SolverConfig(objective))
    assert result.transfers.x == transfers
    assert result.objective_value == value
    assert result.visited_states == _closed_form_states(solve, loads)
    # at a pinned split boundary the count holds L[c-1] + L[c] + 1 inflow
    # states, where the DP that runs, and so the scan, holds one
    assert result.visited_states - sum(loads[c - 1] + loads[c] for c in _split_cuts(solve, loads)) <= scan_work


# Loads near 4 000, 10 000 and 20 000 h per month: at these sizes a scan of
# every affordable outflow per state would take minutes.
_H4K = (4012, 3987, 4133, 3870, 4205, 3954, 4061, 3899, 4178, 3926, 4040, 3993)
_H10K = (10053, 9944, 10312, 9687, 10125, 9871, 10402, 9760, 10098, 9915, 10227, 9839)
_H20K = (20110, 19875, 20342, 19601, 20087, 19930, 20456, 19722, 20015, 19808, 20231, 19964)


@pytest.mark.parametrize("objective", [L1, QD])
@pytest.mark.parametrize("loads", [_H4K, _H10K, _H20K])
def test_exact_work_is_linear_in_month_hours(loads, objective):
    # each inflow state compares at most 2 transitions plus its pointer
    # advances, and the pointer crosses the next table once, so the sweep
    # compares at most 3 transitions per state of the total domain width D
    width = 1 + sum(loads[b] + loads[b + 1] + 1 for b in range(len(loads) - 1))
    result = solve_exact(MonthlyLoads(loads), SolverConfig(objective))
    assert 0 < result.visited_states <= 3 * width


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=60), min_size=2, max_size=16),
    st.sampled_from(Objective),
    st.sampled_from([solve_exact, solve_bisection]),
)
def test_visited_states_is_the_closed_form(L, objective, solve):
    # exact: 2*sum(L) - L[0] - L[-1] + n inflow states; bisection with
    # n % 4 == 0 adds L[c-1] + L[c] + 1 per cut c = n/4, n/2, 3n/4
    result = solve(MonthlyLoads(tuple(L)), SolverConfig(objective))
    assert result.visited_states == _closed_form_states(solve, L)


@st.composite
def chain_cases(draw):
    # any boundary may be pinned to any flow within its own bounds; a
    # positive pin after an unpinned boundary leaves dead states, and
    # jointly unaffordable pins leave no feasible vector at all
    n = draw(st.integers(min_value=2, max_value=10))
    L = draw(st.lists(st.integers(min_value=0, max_value=60), min_size=n, max_size=n))
    objective = draw(st.sampled_from(Objective))
    pinned = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    fixed = {b: draw(st.integers(min_value=-L[b + 1], max_value=L[b])) for b in range(n - 1) if pinned[b]}
    cost, _ = month_cost(objective, n, sum(L))
    return L, cost, fixed or None


def _table_chain_dp(L, cost, fixed=None):
    # _chain_dp reads the costs from a table, here over every load up to
    # sum(L), past the peak it needs; the references call cost
    return _chain_dp(L, [cost(u) for u in range(sum(L) + 1)], fixed)


def _chain_outcome(dp, case, parts=2):
    try:
        return dp(*case)[:parts]
    except PlanError:
        return "infeasible"


@settings(max_examples=150, deadline=None)
@given(chain_cases())
def test_chain_dp_matches_quadratic_reference(case):
    assert _chain_outcome(_table_chain_dp, case) == _chain_outcome(quadratic_chain_dp, case)


@settings(max_examples=300, deadline=None)
@given(chain_cases())
def test_chain_dp_matches_pointer_reference(case):
    # the sweep that calls cost on every state it compares: the same value
    # and flows, and the same refusal of unaffordable pins
    assert _chain_outcome(_table_chain_dp, case) == _chain_outcome(pointer_chain_dp, case)


@pytest.mark.parametrize("objective", [L1, QD])
@pytest.mark.parametrize("loads", [_H4K, _H10K, _H20K])
def test_chain_dp_matches_pointer_reference_at_scale(loads, objective):
    cost, _ = month_cost(objective, len(loads), sum(loads))
    assert _table_chain_dp(loads, cost) == pointer_chain_dp(loads, cost)[:2]


# A stage merges the cost steps up to its largest month-j load k with the
# next month's value steps, span of them; the edges of that merge below.
@pytest.mark.parametrize("objective", [L1, QD])
@pytest.mark.parametrize(
    "L, fixed",
    [
        ((0, 0), None),  # all-zero loads: no cost steps at all
        ((0, 0, 0, 0), None),
        ((5, 3, 7, 2), {1: 2}),  # the pinned boundary 1 leaves stage 1 one outflow: span 0
        ((4, 1, 6), {1: 1}),  # month 1 must take in the hour it pins forward: a raised bound
        ((0, 0, 0, 5, 3), None),  # months 0-2 empty: stages 0 and 1 have k = 0 only
        ((0, 2, 1, 4), {0: -2, 2: 1}),  # stage 1 has k = 0 only, into a raised domain of 3
        ((3, 0), None),  # an optimum where a cost step ties a value step
    ],
)
def test_chain_dp_work_count_edges(L, fixed, objective):
    cost, _ = month_cost(objective, len(L), sum(L))
    assert _table_chain_dp(L, cost, fixed) == pointer_chain_dp(L, cost, fixed)[:2]


@pytest.mark.parametrize("objective", [L1, QD])
def test_chain_dp_tie_takes_the_smaller_flow(objective):
    # loads (2, 1) and (1, 2) cost the same; the merge puts the cost step
    # before the equal value step, which keeps the flow at 1, not 2
    cost, _ = month_cost(objective, 2, 3)
    assert [cost(2) + cost(1), cost(1) + cost(2)] == [_table_chain_dp((3, 0), cost)[0]] * 2
    assert _table_chain_dp((3, 0), cost)[1] == (1,)


@pytest.mark.parametrize("objective", [L1, QD])
def test_month_costs_match_the_reference(objective):
    # a range of loads is costed in C and a list one load at a time; both
    # equal the written-out cost, below a zero load too, at scale n or n^2
    rng = random.Random(29)
    edges = [
        (2, 0, range(1)),
        (2, 0, range(10)),
        (5, 17, range(1)),
        (1, 0, range(1)),
        (12, 10**30, range(4)),
        (4, 10, range(-5, 6)),  # a bisection split side that runs below zero
        (3, 7, range(0)),  # no loads at all
        (3, 7, range(9, 9)),
    ]
    drawn = []
    for _ in range(300):
        start = rng.randint(-200, 200)
        drawn.append((rng.randint(1, 60), rng.randint(0, 5000), range(start, start + rng.randint(0, 400))))
    for n, total, loads in edges + drawn:
        cost, scale = month_cost(objective, n, total)
        assert scale == (n if objective is L1 else n * n)
        want = ([cost(u) for u in loads], scale)
        assert _month_costs(objective, n, total, loads) == want
        assert _month_costs(objective, n, total, list(loads)) == want


workloads = load_perfbench("workloads")

# solvers.visited_states summed over each benchmark workload's seed-1
# plans, each solved with the method and objective its flags name;
# shifts-only plans solve nothing. Recorded when the chain DP's count
# became its inflow states; fleet-greedy's greedy count did not move.
_WORKLOAD_WORK = {
    "annual-exact": 176_551,
    "desk-verify": 42_834,
    "fleet-greedy": 1_100,
    "weekly-52": 372_886,
}


@pytest.mark.parametrize("name", sorted(_WORKLOAD_WORK))
def test_benchmark_solver_work_is_pinned(name):
    parser = build_parser()
    total = 0
    for case in workloads.generate(name, 1):
        args = parser.parse_args(["--input", "plan.csv", *case.flags])
        if not args.shifts_only:
            loads = column_sums(AnnualPlan(case.rows))
            total += _solve(loads, Objective(args.objective), args.method).visited_states
    assert total == _WORKLOAD_WORK[name]


_REALIZATION_COUNTS = ("realization.subset_calls", "realization.donor_items", "realization.subset_cells")


@pytest.mark.parametrize("name", sorted(_WORKLOAD_WORK))
def test_benchmark_realization_work_is_pinned(name, monkeypatch):
    # the traced benchmark wraps realization.subset_select and sums its
    # calls, donor items and items x capacity; over each workload's seed-1
    # plans they must equal the recorded trace-1 counts, so an answer
    # that skipped the call would show here, not only in the benchmark
    recorded = load_baseline()["workloads"][name]["trace1"]["counts"]["1"]
    work = dict.fromkeys(_REALIZATION_COUNTS, 0)

    def spy(problem):
        work["realization.subset_calls"] += 1
        work["realization.donor_items"] += len(problem.items)
        work["realization.subset_cells"] += len(problem.items) * problem.capacity
        return subset_select(problem)

    monkeypatch.setattr(realization, "subset_select", spy)
    parser = build_parser()
    for case in workloads.generate(name, 1):
        args = parser.parse_args(["--input", "plan.csv", *case.flags])
        plan = AnnualPlan(case.rows)
        if args.shifts_only:
            transfers = TransferVector(args.transfers)
        else:
            transfers = _solve(column_sums(plan), Objective(args.objective), args.method).transfers
        realize_transfers(plan, transfers)
    assert work == {key: recorded[key] for key in _REALIZATION_COUNTS}


def test_benchmark_oracle_work_is_pinned():
    # brute_force_transfers' visited_states summed over desk-verify's seed-1
    # plans that --verify checks by the transfer search, all but the
    # shifts-only ones: it moves when the search visits other nodes
    parser = build_parser()
    checked = total = 0
    for case in workloads.generate("desk-verify", 1):
        args = parser.parse_args(["--input", "plan.csv", *case.flags])
        if not args.shifts_only:
            loads = column_sums(AnnualPlan(case.rows))
            total += brute_force_transfers(loads, Objective(args.objective)).visited_states
            checked += 1
    assert (checked, total) == (750, 1_448_379)


def test_chain_cases_include_dead_states():
    def has_dead_states(case):
        try:
            return quadratic_chain_dp(*case)[2] > 0
        except PlanError:
            return False

    find(chain_cases(), has_dead_states, settings=settings(database=None, deadline=None))


@st.composite
def oracle_sized_loads(draw):
    n = draw(st.sampled_from(sorted(SWEEP_LOAD_CAP)))
    cap = SWEEP_LOAD_CAP[n]
    return MonthlyLoads(tuple(draw(st.lists(st.integers(min_value=0, max_value=cap), min_size=n, max_size=n))))


@settings(max_examples=150, deadline=None)
@given(oracle_sized_loads(), st.sampled_from(Objective))
def test_exact_matches_brute_force_transfers(loads, objective):
    result = solve_exact(loads, SolverConfig(objective))
    oracle = brute_force_transfers(loads, objective)
    assert result.transfers == oracle.transfers
    assert result.objective_value == oracle.objective_value
