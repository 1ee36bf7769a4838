"""Exhaustive reference searches, for verification at desk scale.

Each search enumerates its whole space with the same tie-breaking as the
production path, so full outputs can be compared, not just objective
values. Instances past the budget are refused outright; a silently
truncated reference would be worse than none.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceededError
from .plan import AnnualPlan, MonthlyLoads, ShiftMatrix, TransferVector, _Frozen, column_sums
from .realization import SelectionProblem
from .solvers import Objective, SolveResult, _scaled_month_cost

__all__ = [
    "OracleBudget",
    "brute_force_transfers",
    "brute_force_shifts",
    "brute_force_subset",
]


class OracleBudget(_Frozen):
    """Hard limits for the exhaustive searches.

    max_states caps visited search nodes; the remaining fields refuse
    instances that could not finish inside it anyway.
    """

    __slots__ = ("max_states", "max_months", "max_month_load", "max_cells", "max_items")

    def __init__(
        self,
        max_states: int = 5_000_000,
        max_months: int = 6,  # transfer search
        max_month_load: int = 60,  # transfer search, per month
        max_cells: int = 12,  # shift search, k*n
        max_items: int = 20,  # subset scan
    ):
        object.__setattr__(self, "max_states", max_states)
        object.__setattr__(self, "max_months", max_months)
        object.__setattr__(self, "max_month_load", max_month_load)
        object.__setattr__(self, "max_cells", max_cells)
        object.__setattr__(self, "max_items", max_items)


def brute_force_transfers(
    loads: MonthlyLoads, objective: Objective, budget: OracleBudget = OracleBudget()
) -> SolveResult:
    """True transfer optimum by enumerating every feasible integer vector.

    Flows are scanned in ascending order and the incumbent is replaced
    only on a strict improvement, so the first optimum found, hence the
    result, is the lexicographically smallest. Per-month costs are
    non-negative, so a prefix that already reaches the incumbent cost is
    discarded; that cannot skip a strictly better or lex-smaller optimum.
    At the last boundary every flow's total is listed and the first
    smallest one is taken, which is the same rule. Each boundary's whole
    flow range counts toward visited_states, and the budget is checked
    once per range: the search passes max_states exactly when the
    one-at-a-time count does.
    """
    L = loads.loads
    n = len(L)
    if n > budget.max_months:
        raise BudgetExceededError(f"transfer search accepts up to {budget.max_months} months, got {n}")
    top_load = max(L)
    if top_load > budget.max_month_load:
        raise BudgetExceededError(
            f"transfer search accepts monthly loads up to {budget.max_month_load}, got {top_load}"
        )
    cost, scale = _scaled_month_cost(objective, n, sum(L))
    # a month keeps at most its own load plus both neighbours'
    C = [cost(v) for v in range(3 * top_load + 1)]
    B = n - 1
    end = L[n - 1]
    max_states = budget.max_states
    best_cost = None
    best_x: tuple[int, ...] | None = None
    xs = [0] * B
    state = 0

    def walk(b: int, pool: int, run: int) -> None:
        # pool: hours in month b after the inflow; run: cost of months < b
        nonlocal best_cost, best_x, state
        lo = -L[b + 1]
        hi = L[b] if L[b] < pool else pool
        state += hi - lo + 1
        if state > max_states:
            raise BudgetExceededError(f"transfer search passed {max_states} states")
        if b == B - 1:
            totals = [run + C[pool - x] + C[end + x] for x in range(lo, hi + 1)]
            final = min(totals)
            if best_cost is None or final < best_cost:
                xs[b] = lo + totals.index(final)
                best_cost = final
                best_x = tuple(xs)
            return
        for x in range(lo, hi + 1):
            c = run + C[pool - x]
            if best_cost is None or c < best_cost:
                xs[b] = x
                walk(b + 1, L[b + 1] + x, c)

    walk(0, L[0], 0)
    assert best_x is not None and best_cost is not None
    return SolveResult(TransferVector(best_x), Fraction(best_cost, scale), "brute-force", True, state)


def brute_force_shifts(
    plan: AnnualPlan, objective: Objective, budget: OracleBudget = OracleBudget()
) -> tuple[ShiftMatrix, Fraction]:
    """Best shift matrix by scanning every valid per-cell move pattern.

    Cells are visited row-major with options ascending (-1, 0, +1), so
    with strict-improvement updates the winner is the matrix whose
    row-major flattening is lexicographically smallest among optima.
    """
    k, n = plan.k, plan.n
    if k * n > budget.max_cells:
        raise BudgetExceededError(f"shift search accepts up to {budget.max_cells} cells, got {k * n}")
    cost, scale = _scaled_month_cost(objective, n, plan.total_hours())
    cells = [(i, j) for i in range(k) for j in range(n) if plan.entries[i][j] > 0]
    sums = list(column_sums(plan).loads)
    marks = [[0] * n for _ in range(k)]
    max_states = budget.max_states
    best: int | None = None
    best_marks: tuple[tuple[int, ...], ...] | None = None
    state = 0

    def walk(idx: int) -> None:
        nonlocal best, best_marks, state
        state += 1
        if state > max_states:
            raise BudgetExceededError(f"shift search passed {max_states} states")
        if idx == len(cells):
            c = sum(cost(v) for v in sums)
            if best is None or c < best:
                best = c
                best_marks = tuple(tuple(row) for row in marks)
            return
        i, j = cells[idx]
        hours = plan.entries[i][j]
        options = []
        if j > 0:
            options.append(-1)
        options.append(0)
        if j < n - 1:
            options.append(1)
        for s in options:
            marks[i][j] = s
            if s:
                sums[j] -= hours
                sums[j + s] += hours
            walk(idx + 1)
            if s:
                sums[j] += hours
                sums[j + s] -= hours
        marks[i][j] = 0

    walk(0)
    assert best is not None and best_marks is not None
    return ShiftMatrix(best_marks), Fraction(best, scale)


def brute_force_subset(problem: SelectionProblem, budget: OracleBudget = OracleBudget()) -> tuple[int, ...]:
    """Best selection by scanning all subsets, same tie-break as subset_select:
    maximal total, then fewest items, then the smallest index tuple.
    """
    N = len(problem.items)
    if N > budget.max_items:
        raise BudgetExceededError(f"subset scan accepts up to {budget.max_items} items, got {N}")
    if (1 << N) > budget.max_states:
        raise BudgetExceededError(f"subset scan would pass {budget.max_states} states")
    items = problem.items
    cap = problem.capacity

    sums = [0] * (1 << N)
    best_sum = 0
    for mask in range(1, 1 << N):
        low = mask & -mask
        s = sums[mask ^ low] + items[low.bit_length() - 1]
        sums[mask] = s
        if best_sum < s <= cap:
            best_sum = s
    best_key: tuple[int, tuple[int, ...]] | None = None
    for mask, s in enumerate(sums):
        if s != best_sum:
            continue
        idx = tuple(i for i in range(N) if mask >> i & 1)
        key = (len(idx), idx)
        if best_key is None or key < best_key:
            best_key = key
    assert best_key is not None  # mask 0 always matches when best_sum is 0
    return best_key[1]
