"""Exhaustive reference searches, for verification at desk scale.

Each search enumerates its whole space with the same tie-breaking as the
production path, so full outputs can be compared, not just objective
values. Instances past the _MAX_* limits below raise BudgetExceededError
outright; a silently truncated reference would be worse than none. The
transfer search answers its last boundary once per inflow pool and
reuses that answer; it still visits and counts every node.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import BudgetExceededError, _abridged
from .plan import AnnualPlan, MonthlyLoads, ShiftMatrix, TransferVector, column_sums
from .realization import SelectionProblem
from .solvers import Objective, SolveResult, _month_costs

__all__ = [
    "brute_force_transfers",
    "brute_force_shifts",
    "brute_force_subset",
]

# The searches' limits. _MAX_STATES caps the nodes a search visits; the
# others refuse instances that could not finish inside it anyway. 12 cells
# bound the shift search to (3**13 - 1) / 2 = 797,161 nodes and 20 items
# the subset scan to 2**20 subsets, both below _MAX_STATES, so neither
# search's state guard can fire at these values: each stays so that its
# search is still bounded if a cell or item limit is raised.
_MAX_STATES = 5_000_000
_MAX_MONTHS = 6  # transfer search
_MAX_MONTH_LOAD = 60  # transfer search, per month
_MAX_CELLS = 12  # shift search, k*n
_MAX_ITEMS = 20  # subset scan


def brute_force_transfers(loads: MonthlyLoads, objective: Objective) -> SolveResult:
    """True transfer optimum by enumerating every feasible integer vector.

    Flows are scanned in ascending order and the incumbent is replaced
    only on a strict improvement, so the first optimum found, hence the
    result, is the lexicographically smallest. Per-month costs are
    non-negative, so a prefix that already reaches the incumbent cost is
    discarded; that cannot skip a strictly better or lex-smaller optimum.
    At the last boundary the best flow depends only on the pool, the
    hours in month n-2 after its inflow, not on the prefix that led
    there: the least cost of months n-2 and n-1 and its first, hence
    smallest, flow are found once per distinct pool and kept for the rest
    of the call, which is the same rule. Each boundary's whole flow range
    counts toward visited_states on every visit, the last one's included,
    and _MAX_STATES is checked once per range: the search passes it
    exactly when the one-at-a-time count does.
    """
    L = loads.loads
    n = len(L)
    if n > _MAX_MONTHS:
        raise BudgetExceededError(f"transfer search accepts up to {_MAX_MONTHS} months, got {n}")
    top_load = max(L)
    if top_load > _MAX_MONTH_LOAD:
        raise BudgetExceededError(
            f"transfer search accepts monthly loads up to {_MAX_MONTH_LOAD}, got {_abridged(top_load)}"
        )
    # a month keeps at most its own load plus both neighbours'
    C, scale = _month_costs(objective, n, sum(L), range(3 * top_load + 1))
    B = n - 1
    best_cost = None
    best_x: tuple[int, ...] | None = None
    xs = [0] * B
    state = 0
    # pool -> (least C[pool - x] + C[L[n - 1] + x] at the last boundary, its first x)
    last: dict[int, tuple[int, int]] = {}

    def walk(b: int, pool: int, run: int) -> None:
        # pool: hours in month b after the inflow; run: cost of months < b
        nonlocal best_cost, best_x, state
        lo = -L[b + 1]
        hi = L[b] if L[b] < pool else pool
        state += hi - lo + 1
        if state > _MAX_STATES:
            raise BudgetExceededError(f"transfer search passed {_MAX_STATES} states")
        if b == B - 1:
            answer = last.get(pool)
            if answer is None:
                # C[pool - x] and C[L[n - 1] + x] for x = lo..hi, as lo == -L[n - 1]
                totals = list(map(add, C[pool - hi : pool - lo + 1][::-1], C[: hi - lo + 1]))
                least = min(totals)
                answer = last[pool] = (least, lo + totals.index(least))
            final = run + answer[0]
            if best_cost is None or final < best_cost:
                xs[b] = answer[1]
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


def brute_force_shifts(plan: AnnualPlan, objective: Objective) -> tuple[ShiftMatrix, Fraction]:
    """Best shift matrix by scanning every valid per-cell move pattern.

    Cells are visited row-major with options ascending (-1, 0, +1), so
    with strict-improvement updates the winner is the matrix whose
    row-major flattening is lexicographically smallest among optima.
    """
    k, n = plan.k, plan.n
    if k * n > _MAX_CELLS:
        raise BudgetExceededError(f"shift search accepts up to {_MAX_CELLS} cells, got {k * n}")
    total = plan.total_hours()
    _, scale = _month_costs(objective, n, total, ())
    cells = [(i, j) for i in range(k) for j in range(n) if plan.entries[i][j] > 0]
    sums = list(column_sums(plan).loads)
    marks = [[0] * n for _ in range(k)]
    best: int | None = None
    best_marks: tuple[tuple[int, ...], ...] | None = None
    state = 0

    def walk(idx: int) -> None:
        nonlocal best, best_marks, state
        state += 1
        if state > _MAX_STATES:
            raise BudgetExceededError(f"shift search passed {_MAX_STATES} states")
        if idx == len(cells):
            c = sum(_month_costs(objective, n, total, sums)[0])
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


def brute_force_subset(problem: SelectionProblem) -> tuple[int, ...]:
    """Best selection by scanning all subsets, same tie-break as subset_select:
    maximal total, then fewest items, then the smallest index tuple.
    """
    N = len(problem.items)
    if N > _MAX_ITEMS:
        raise BudgetExceededError(f"subset scan accepts up to {_MAX_ITEMS} items, got {N}")
    if (1 << N) > _MAX_STATES:
        raise BudgetExceededError(f"subset scan would pass {_MAX_STATES} states")
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
