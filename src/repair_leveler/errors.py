"""Exception hierarchy for plan validation, solving, and file handling."""

from __future__ import annotations

__all__ = [
    "LevelingError",
    "PlanError",
    "BoundViolationError",
    "FeasibilityError",
    "ShiftBoundaryError",
    "ShiftValidationError",
    "UnsupportedLengthError",
    "BudgetExceededError",
    "PlanParseError",
]


class LevelingError(Exception):
    """Base class for every error raised by this package."""


class PlanError(LevelingError):
    """Invalid model input: plan, load vector, transfers, or selection problem."""


class BoundViolationError(LevelingError):
    """A transfer volume exceeds what its donor month holds in the original plan."""

    def __init__(self, boundary: int, message: str):
        super().__init__(message)
        self.boundary = boundary  # 1-based boundary index


class FeasibilityError(LevelingError):
    """Applying the transfers would drive some monthly load negative."""

    def __init__(self, month: int, message: str):
        super().__init__(message)
        self.month = month  # 1-based month index


class ShiftBoundaryError(LevelingError):
    """A cell shift points outside the year: first month backward or last month forward."""


class ShiftValidationError(LevelingError):
    """Shift matrix malformed: bad entry, shape mismatch, or a move on an empty cell."""


class UnsupportedLengthError(LevelingError):
    """The splitting method needs the month count divisible by four."""


class BudgetExceededError(LevelingError):
    """An exhaustive search refused the instance or ran past its state budget."""


class PlanParseError(LevelingError):
    """Plan file unreadable; row/column carry the 1-based location when known."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column
