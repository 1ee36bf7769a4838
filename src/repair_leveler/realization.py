"""Turn aggregate transfer volumes into concrete per-cell moves.

A transfer volume says how many hours should cross a boundary; actual
repairs move whole plan cells. Each boundary gets the best subset of
still-unmoved donor cells (a bounded subset-sum), and whatever cannot be
covered by whole cells is reported as a residual, never absorbed
silently.

The plan's month columns are taken once. A boundary's donor pool is its
donor month's column without the empty cells and the cells an earlier
boundary claimed: a claimed cell reads 0 in the column from then on.
A month donates only across the two boundaries at its sides, so only
the earlier of those can have claimed cells in it. A second set of
columns holds the adjusted plan: each claim moves its cell's hours to
the same row of the month it is marked for. The plan was checked and
every step keeps its rules, so the shift matrix, the adjusted plan and
each boundary's SelectionProblem are built without checking them again.

The subset-sum is an array DP over hours (Kellerer, Pferschy & Pisinger,
Knapsack Problems, ch. 4): a suffix table of fewest-item counts per
exact sum, up to min(capacity, total hours), yields the best total as
its highest reachable sum, and a forward pass picks the earliest cells
that still complete it. Each suffix row is one big int of fixed-width
count fields, updated with ten whole-int operations per cell
(bit-parallel arithmetic on packed fields: Lamport, "Multiple byte
processing with full-word instructions", CACM 1975). Its cost is
O(m * min(capacity, total hours)) bits for m donor cells, and a table
past a fixed number of bits is refused rather than built.
"""

from __future__ import annotations

from itertools import compress

from .errors import PlanError, _abridged
from .plan import (
    AnnualPlan,
    MonthlyLoads,
    ShiftMatrix,
    TransferVector,
    _first_bad_int,
    _Frozen,
    validate_transfers,
)

__all__ = ["SelectionProblem", "RealizationResult", "subset_select", "realize_transfers"]


# The most bits subset_select's table may hold, (m + 1) * (limit + 1) * w
# for m fitting items: 2**28 bits, 32 MiB. The largest table of any
# benchmark plan is about 0.05 MiB; one boundary of a 300x2 plan of
# 4000-hour cells asks for 1.8e9 bits (226 MB).
_MAX_SUBSET_BITS = 1 << 28


class SelectionProblem(_Frozen):
    """Bounded subset-sum: maximize the total of chosen items without passing capacity."""

    __slots__ = ("items", "capacity")

    def __init__(self, items: tuple[int, ...], capacity: int):
        items = tuple(items)
        bad = _first_bad_int(items, lo=1)
        if bad is not None:
            raise PlanError(f"item {bad + 1} must be a positive integer, got {_abridged(items[bad])}")
        if _first_bad_int((capacity,), lo=0) is not None:
            raise PlanError(f"capacity must be a non-negative integer, got {_abridged(capacity)}")
        super().__init__(items, capacity)


def subset_select(problem: SelectionProblem) -> tuple[int, ...]:
    """Indices of the best selection: maximal total at or under capacity,
    fewest items among ties, then the smallest index tuple.

    Items larger than the capacity are dropped. A suffix table holds, for
    each j and each s up to limit = min(capacity, sum of the fitting
    items), the fewest of the items j.. that sum to exactly s. The best
    total is the highest s that some subset of the items reaches. The
    pick walks the items forward and takes each one that still completes
    the total with the fewest items, which yields the smallest index
    tuple among the fewest-item selections.

    Two answers are forced and skip the table. When the fitting items
    total at most the capacity, they are all taken: items are positive,
    so no other selection reaches that total. Otherwise, when an item
    equals the capacity, its first occurrence alone is taken: one item is
    the fewest that reach the highest total a selection can have. A
    table past _MAX_SUBSET_BITS bits is refused before either answer is
    looked for, so whether a call is refused depends on the table's size
    alone. About a quarter of a 52-week plan's calls, on pools of about
    15 cells, are forced.

    Each table row is one int of packed fields: field s, w bits wide,
    holds m + 1 - count for sum s and 0 for an unreachable sum, with
    w = (m + 2).bit_length() + 1, so the top bit of every field is a
    guard. Adding an item shifts the row up by its hours in fields, cand,
    whose low fields shift in as 0, unreachable. One more item is one
    less in a field, so the new row is the field-wise max(row + 1, cand)
    - 1, which takes no field below 0, and one subtraction with the
    guards set finds the fields where row + 1 wins: ten big-int
    operations per item, each linear in the row's bits, where a list
    table takes one Python-level step per sum.

    Time and memory are O(m * limit) bits for m fitting items: dense in
    hours, which suits cells that hold a month's repair hours. The table
    spans the limit, not the best total, but it is never more than about
    twice as wide as the best total needs: a total of at least half the
    limit is always reachable, and when the capacity is met exactly, as
    for most boundaries of a leveled plan, the two are the same. A sparse
    pool pays for it: items (10**6, 10**6 - 1, 3) at capacity
    2 * 10**6 - 5 reach at best 10**6 + 3, take 15-21 ms and about
    12.7 MiB at peak (Python 3.11; a table sized to the best total took
    8-10 ms and 7 MiB), where a dict keyed by reachable sum needs under
    0.1 ms, and a call that builds the table on 1-2 small items costs
    about 3 microseconds more than that dict would. A table of more than
    _MAX_SUBSET_BITS bits raises PlanError before anything is built.
    """
    cap = problem.capacity
    fit = problem.items
    # when every item fits, the items and their positions serve as they
    # are, without copies
    if fit and max(fit) > cap:
        index = [i for i, a in enumerate(fit) if a <= cap]
        fit = [fit[i] for i in index]
    else:
        index = range(len(fit))
    total = sum(fit)
    limit = min(cap, total)
    # Field s of rows[j], w bits wide, holds m + 1 minus the fewest items
    # of fit[j:] summing to exactly s, for s up to limit; 0 marks an
    # unreachable sum. Fields stay at most m + 2 < 2 ** (w - 1), so each
    # field's top bit is a guard that a field-wise subtraction never
    # borrows past.
    m = len(fit)
    w = (m + 2).bit_length() + 1
    bits = (m + 1) * (limit + 1) * w
    if bits > _MAX_SUBSET_BITS:
        raise PlanError(f"the subset table needs {_abridged(bits)} bits, past its limit of {_MAX_SUBSET_BITS}")
    # the two forced answers, looked for only after the refusal
    if total <= cap:
        return tuple(index)
    if cap in fit:
        return (index[fit.index(cap)],)
    field = (1 << w) - 1
    full = (1 << (limit + 1) * w) - 1
    ones = full // field
    guards = ones << (w - 1)
    raised = ones | guards
    row = m + 1  # no items: only the empty sum 0 is reachable
    rows = [row] * (m + 1)
    for j in range(m - 1, -1, -1):
        # one more item on top of every sum s - a; the fields below a
        # shift in as 0, unreachable
        cand = (row << fit[j] * w) & full
        # a guard survives where row + 1 >= cand, and the field-wise
        # maximum then adds row + 1 - cand there
        diff = row + raised - cand
        keep = diff & guards
        row = rows[j] = cand + (diff & (keep - (keep >> (w - 1)))) - ones
    # the best total is the highest reachable field; field 0 is m + 1
    best = (row.bit_length() - 1) // w
    chosen = []
    # g is m + 1 less the items still to pick for the total
    total, g = best, row >> best * w
    j = 0
    while g <= m:
        a = fit[j]
        j += 1
        if a <= total and rows[j] >> (total - a) * w & field == g + 1:
            chosen.append(index[j - 1])
            total -= a
            g += 1
    return tuple(chosen)


class RealizationResult(_Frozen):
    """Outcome of realizing a transfer vector cell by cell.

    achieved holds the hours actually moved per boundary (magnitudes, the
    direction is the sign of the requested transfer); residuals are the
    uncovered remainders. pools holds the donor cells' hours each
    boundary chose from, in row order, and () where nothing was requested.
    """

    __slots__ = ("shift_matrix", "achieved", "residuals", "adjusted_plan", "pools")


def realize_transfers(plan: AnnualPlan, transfers: TransferVector) -> RealizationResult:
    """Select which plan cells move to realize each boundary's volume.

    Boundaries are processed first to last and a cell never moves twice:
    later boundaries only see cells no earlier boundary claimed. Forward
    volumes draw on the boundary's left month, backward volumes on its
    right month. Raises the usual constraint errors when the transfer
    vector is infeasible for this plan.
    """
    k = plan.k
    # per month column: the hours still free to move (a claimed cell
    # reads 0), each cell's mark, and the adjusted plan
    free = [list(col) for col in zip(*plan.entries)]
    validate_transfers(MonthlyLoads._trusted(tuple(map(sum, free))), transfers)
    marks = [[0] * k for _ in free]
    adjusted = [list(col) for col in free]
    achieved = []
    residuals = []
    pools = []
    for b, x in enumerate(transfers.x):
        if x == 0:
            achieved.append(0)
            residuals.append(0)
            pools.append(())
            continue
        month, cap, mark = (b, x, 1) if x > 0 else (b + 1, -x, -1)
        col, col_marks = free[month], marks[month]
        source, target = adjusted[month], adjusted[month + mark]
        rows = list(compress(range(k), col))
        # a list first: tuple() of an iterator with no length hint
        # allocates a guessed length and resizes it, so on CPython the
        # short pools it frees fill free lists that it never takes from
        pool = tuple([a for a in col if a])
        got = 0
        # called by its module-global name, once per non-zero boundary,
        # so a wrapper installed on realization.subset_select sees each call
        for c in subset_select(SelectionProblem._trusted(pool, cap)):
            i = rows[c]
            hours = col[i]
            got += hours
            col[i] = 0
            col_marks[i] = mark
            source[i] -= hours
            target[i] += hours
        achieved.append(got)
        residuals.append(cap - got)
        pools.append(pool)
    return RealizationResult._trusted(
        ShiftMatrix._trusted(tuple(zip(*marks))),
        tuple(achieved),
        tuple(residuals),
        AnnualPlan._trusted(tuple(zip(*adjusted))),
        tuple(pools),
    )
