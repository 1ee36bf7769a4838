"""Exception hierarchy for plan validation, solving, and file handling.

A class exists only where a caller handles it differently: the command
line maps PlanParseError to exit 1, PlanError to exit 2 and
BudgetExceededError to exit 3. A message names the place of the fault
where there is one, e.g. "boundary 2: ..." or "month 2 would hold -2
hours".
"""

from __future__ import annotations

__all__ = [
    "LevelingError",
    "PlanError",
    "BudgetExceededError",
    "PlanParseError",
]


class LevelingError(Exception):
    """Base class for every error raised by this package."""


class PlanError(LevelingError):
    """Invalid model input or an infeasible move: a malformed plan, load
    vector, transfer vector, shift matrix or selection problem; a transfer
    past its donor month's hours or one that drains a month below zero;
    a shift out of the year or off an empty cell; no feasible vector."""


class BudgetExceededError(LevelingError):
    """An exhaustive search refused the instance or ran past its state budget."""


class PlanParseError(LevelingError):
    """Plan file unreadable; row/column carry the 1-based location when known."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column
