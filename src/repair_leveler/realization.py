"""Turn aggregate transfer volumes into concrete per-cell moves.

A transfer volume says how many hours should cross a boundary; actual
repairs move whole plan cells. Each boundary gets the best subset of
still-unmoved donor cells (a bounded subset-sum), and whatever cannot be
covered by whole cells is reported as a residual, never absorbed
silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PlanError
from .plan import (
    AnnualPlan,
    ShiftMatrix,
    TransferVector,
    apply_shift_matrix,
    column_sums,
    validate_transfers,
)

__all__ = ["SelectionProblem", "RealizationResult", "subset_select", "realize_transfers"]


@dataclass(frozen=True)
class SelectionProblem:
    """Bounded subset-sum: maximize the total of chosen items without passing capacity."""

    items: tuple[int, ...]
    capacity: int

    def __post_init__(self):
        items = tuple(self.items)
        for i, a in enumerate(items):
            if not isinstance(a, int) or isinstance(a, bool) or a <= 0:
                raise PlanError(f"item {i + 1} must be a positive integer, got {a!r}")
        if not isinstance(self.capacity, int) or isinstance(self.capacity, bool) or self.capacity < 0:
            raise PlanError(f"capacity must be a non-negative integer, got {self.capacity!r}")
        object.__setattr__(self, "items", items)


def subset_select(problem: SelectionProblem) -> tuple[int, ...]:
    """Indices of the best selection: maximal total at or under capacity,
    fewest items among ties, then the smallest index set.

    Capacity-indexed DP keyed by achieved sum. Keeping a single best
    (count, indices) per sum is sound: the ranking is preserved under any
    common extension, because extensions append strictly larger indices
    to equal-length prefixes.
    """
    best: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
    cap = problem.capacity
    for i, a in enumerate(problem.items):
        if a > cap:
            continue
        for s, (cnt, idx) in list(best.items()):
            s2 = s + a
            if s2 > cap:
                continue
            key = (cnt + 1, idx + (i,))
            cur = best.get(s2)
            if cur is None or key < cur:
                best[s2] = key
    return best[max(best)][1]


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of realizing a transfer vector cell by cell.

    achieved holds the hours actually moved per boundary (magnitudes, the
    direction is the sign of the requested transfer); residuals are the
    uncovered remainders. pools holds the donor cells' hours each
    boundary chose from, in row order, and () where nothing was requested.
    """

    shift_matrix: ShiftMatrix
    achieved: tuple[int, ...]
    residuals: tuple[int, ...]
    adjusted_plan: AnnualPlan
    pools: tuple[tuple[int, ...], ...]


def realize_transfers(plan: AnnualPlan, transfers: TransferVector) -> RealizationResult:
    """Select which plan cells move to realize each boundary's volume.

    Boundaries are processed first to last and a cell never moves twice:
    later boundaries only see cells no earlier boundary claimed. Forward
    volumes draw on the boundary's left month, backward volumes on its
    right month. Raises the usual constraint errors when the transfer
    vector is infeasible for this plan.
    """
    loads = column_sums(plan)
    validate_transfers(loads, transfers)
    k, n = plan.k, plan.n
    marks = [[0] * n for _ in range(k)]
    achieved = []
    residuals = []
    pools = []
    for b, x in enumerate(transfers.x):
        if x == 0:
            achieved.append(0)
            residuals.append(0)
            pools.append(())
            continue
        month = b if x > 0 else b + 1
        cap = x if x > 0 else -x
        rows = [i for i in range(k) if plan.entries[i][month] > 0 and marks[i][month] == 0]
        pool = tuple(plan.entries[i][month] for i in rows)
        chosen = subset_select(SelectionProblem(pool, cap))
        mark = 1 if x > 0 else -1
        for c in chosen:
            marks[rows[c]][month] = mark
        got = sum(pool[c] for c in chosen)
        achieved.append(got)
        residuals.append(cap - got)
        pools.append(pool)
    shift = ShiftMatrix(tuple(tuple(row) for row in marks))
    return RealizationResult(
        shift_matrix=shift,
        achieved=tuple(achieved),
        residuals=tuple(residuals),
        adjusted_plan=apply_shift_matrix(plan, shift),
        pools=tuple(pools),
    )
