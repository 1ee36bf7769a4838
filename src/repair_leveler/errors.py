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


def _abridged(value: object) -> str:
    """A value for a message, whole when short: a string's repr, whole up to
    20 characters, past that its first 20 and its length; an integer's sign
    and digits, whole up to 20 digits, past that its first 20 and its digit
    count; any other value's repr, cut the same way after 20 characters.
    An integer is cut by arithmetic, not by str(), so one past int()'s
    digit limit shows too."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 20 else f"{value[:20]!r}… ({len(value)} characters)"
    if isinstance(value, int):
        size = abs(value)
        if size < 10**20:
            return repr(value)
        digits = size.bit_length() * 3 // 10  # at most the digit count, as log10(2) > 0.3
        power = 10**digits
        while power <= size:
            digits += 1
            power *= 10
        return f"{'-' if value < 0 else ''}{size // 10 ** (digits - 20)}… ({digits} digits)"
    try:
        text = repr(value)
    except ValueError:  # a container or ratio that holds an int past int()'s digit limit
        text = f"<{type(value).__qualname__}>"
    return text if len(text) <= 20 else f"{text[:20]}… ({len(text)} characters)"
