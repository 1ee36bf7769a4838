"""Annual repair plans and the algebra of month-boundary transfers.

Hours are non-negative integers and the monthly mean is an exact
rational (`fractions.Fraction`), so callers compare results with plain
equality, no tolerances. The deviation metrics are
`solvers.deviation`, scored with the solvers' own per-month cost.

Sign convention for a transfer x_j at the boundary between months j and
j+1 (1-based): positive moves hours forward into month j+1, negative
moves hours backward into month j. A month can donate at most what its
original plan holds, and no adjusted month may go negative.

Each value rule has one owner: `_first_bad_int` (every value an int,
never a bool, inside given bounds; here and in
`realization.SelectionProblem`) and `_matrix_rows` (the shape of a plan
or shift matrix). A broken rule raises PlanError, whose message is built
only then.

The value types here and in the other library modules derive from
`_Frozen`, which alone stores their fields: immutable slotted classes
compared by value, whose checks run also when pickle or copy rebuilds
them. Only `_Frozen._trusted` skips the checks, for values built from
values that were checked already.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import PlanError, _abridged

__all__ = [
    "AnnualPlan",
    "MonthlyLoads",
    "TransferVector",
    "ShiftMatrix",
    "column_sums",
    "mean_load",
    "validate_transfers",
    "apply_transfers",
    "apply_shift_matrix",
]


def _first_bad_int(values, lo: int | None = None, hi: int | None = None) -> int | None:
    """Position of the first value that is not an int in [lo, hi], or None.

    Int subclasses pass except bool: bool subclasses int, but True is no
    count of hours.
    """
    for p, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool) or (lo is not None and v < lo) or (hi is not None and v > hi):
            return p
    return None


def _matrix_rows(matrix, what: str, row_name: str) -> tuple[tuple, ...]:
    """The matrix as row tuples, with at least one row, at least two
    months and every row as wide as the first."""
    rows = tuple(tuple(r) for r in matrix)
    if not rows:
        raise PlanError(f"{what} needs at least one {row_name}")
    n = len(rows[0])
    if n < 2:
        raise PlanError(f"{what} needs at least two months")
    for i, r in enumerate(rows):
        if len(r) != n:
            raise PlanError(f"row {i + 1} has {len(r)} cells, expected {n}")
    return rows


class _Frozen:
    """Base of the immutable value types.

    A subclass lists its fields in `__slots__`, in order. `__init__`
    binds them by position or keyword and is the only place that stores
    them: a plain record has no other constructor, and a checked type's
    ends with `super().__init__(...)`. A missing, extra, unknown or
    repeated field raises a TypeError that names the fields. Values of
    one class compare, hash and print by their field tuple. `__reduce__`
    hands pickle and copy that tuple, so a rebuilt value goes through its
    class's checks again.

    `_trusted(*fields)` stores the fields without the class's checks.
    Call it only with fields in their stored form (tuples, not lists)
    that the checks would accept unchanged, because they were built from
    checked values by steps that keep every rule: a plan's cells moved
    within their row, a pool of its non-empty cells. A value that comes
    from outside the package goes through the checks, but for file input:
    `io.parse_plan` checks every cell of the text, in one step when all
    are digits, and builds the plan with `_trusted`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def __init__(self, *fields, **named):
        names = self.__slots__
        if named:
            fields += tuple([named.pop(name) for name in names[len(fields) :] if name in named])
        if named or len(fields) != len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes the fields ({', '.join(names)})")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *fields):
        self = object.__new__(cls)
        _Frozen.__init__(self, *fields)
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class AnnualPlan(_Frozen):
    """Repair plan matrix: one row per equipment item, one column per month."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        rows = _matrix_rows(entries, "plan", "equipment row")
        bad = _first_bad_int(chain.from_iterable(rows), lo=0)
        if bad is not None:
            i, j = divmod(bad, len(rows[0]))
            raise PlanError(f"cell ({i + 1},{j + 1}) must be a non-negative integer, got {_abridged(rows[i][j])}")
        super().__init__(rows)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    def total_hours(self) -> int:
        return sum(sum(row) for row in self.entries)


class MonthlyLoads(_Frozen):
    """Total repair hours per month, for at least two months."""

    __slots__ = ("loads",)

    def __init__(self, loads: tuple[int, ...]):
        loads = tuple(loads)
        if len(loads) < 2:
            raise PlanError("monthly loads need at least two months")
        bad = _first_bad_int(loads, lo=0)
        if bad is not None:
            raise PlanError(f"month {bad + 1} load must be a non-negative integer, got {_abridged(loads[bad])}")
        super().__init__(loads)

    @property
    def n(self) -> int:
        return len(self.loads)

    def total(self) -> int:
        return sum(self.loads)


class TransferVector(_Frozen):
    """Integer hours moved across each month boundary (positive = forward)."""

    __slots__ = ("x",)

    def __init__(self, x: tuple[int, ...]):
        xs = tuple(x)
        if not xs:
            raise PlanError("a transfer vector needs at least one boundary")
        bad = _first_bad_int(xs)
        if bad is not None:
            raise PlanError(f"boundary {bad + 1} transfer must be an integer, got {_abridged(xs[bad])}")
        super().__init__(xs)


class ShiftMatrix(_Frozen):
    """Per-cell month shifts: -1 one month earlier, 0 stay, +1 one month later."""

    __slots__ = ("shifts",)

    def __init__(self, shifts: tuple[tuple[int, ...], ...]):
        rows = _matrix_rows(shifts, "shift matrix", "row")
        bad = _first_bad_int(chain.from_iterable(rows), lo=-1, hi=1)
        if bad is not None:
            i, j = divmod(bad, len(rows[0]))
            raise PlanError(f"cell ({i + 1},{j + 1}) must be -1, 0 or +1, got {_abridged(rows[i][j])}")
        for i, row in enumerate(rows):
            if row[0] == -1:
                raise PlanError(f"row {i + 1} moves work backward out of the first month")
            if row[-1] == 1:
                raise PlanError(f"row {i + 1} moves work forward out of the last month")
        super().__init__(rows)

    @property
    def k(self) -> int:
        return len(self.shifts)

    @property
    def n(self) -> int:
        return len(self.shifts[0])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def column_sums(plan: AnnualPlan) -> MonthlyLoads:
    """Total hours per month of the plan."""
    # a checked plan's column sums are non-negative ints over at least two months
    return MonthlyLoads._trusted(tuple(map(sum, zip(*plan.entries))))


def mean_load(loads: MonthlyLoads) -> Fraction:
    """Average monthly hours as an exact ratio, never rounded."""
    return Fraction(loads.total(), loads.n)


def _adjusted(L, xs) -> tuple[int, ...]:
    # month j receives flow x_{j-1} and gives up x_j; zero flow outside the year
    return tuple(L[j] - (xs[j] if j < len(xs) else 0) + (xs[j - 1] if j else 0) for j in range(len(L)))


def validate_transfers(loads: MonthlyLoads, transfers: TransferVector) -> None:
    """Check the transfer vector against the donor bounds and non-negativity.

    Each boundary may move forward at most what its left month holds and
    backward at most what its right month holds (bounds are against the
    original loads: hours cannot pass through a month). Raises PlanError
    whose message starts with the offending boundary or month.
    """
    L = loads.loads
    xs = transfers.x
    if len(xs) != len(L) - 1:
        raise PlanError(f"expected {len(L) - 1} transfers for {len(L)} months, got {len(xs)}")
    for b, x in enumerate(xs):
        if x > L[b]:
            raise PlanError(
                f"boundary {b + 1}: forward transfer {_abridged(x)} exceeds month {b + 1} hours {_abridged(L[b])}"
            )
        if x < -L[b + 1]:
            raise PlanError(
                f"boundary {b + 1}: backward transfer {_abridged(x)} exceeds month {b + 2} hours {_abridged(L[b + 1])}"
            )
    for j, adjusted in enumerate(_adjusted(L, xs)):
        if adjusted < 0:
            raise PlanError(f"month {j + 1} would hold {_abridged(adjusted)} hours")


def apply_transfers(loads: MonthlyLoads, transfers: TransferVector) -> MonthlyLoads:
    """Adjusted monthly loads after moving the transfer volumes.

    Month j receives the previous boundary's flow and gives up its own:
    adjusted_j = load_j - x_j + x_{j-1}, with zero flow outside the year.
    Total hours are conserved.
    """
    validate_transfers(loads, transfers)
    return MonthlyLoads(_adjusted(loads.loads, transfers.x))


def apply_shift_matrix(plan: AnnualPlan, shifts: ShiftMatrix) -> AnnualPlan:
    """Move each marked cell's full hours one month in the marked direction.

    A cell may only be marked if it holds hours; destination cells
    accumulate. Total hours are conserved and rows never mix. Raises
    PlanError on a shape mismatch or a move on an empty cell (out-of-year
    moves are rejected by ShiftMatrix itself).
    """
    if shifts.k != plan.k or shifts.n != plan.n:
        raise PlanError(f"shift matrix is {shifts.k}x{shifts.n}, plan is {plan.k}x{plan.n}")
    adjusted = []
    for i, (prow, srow) in enumerate(zip(plan.entries, shifts.shifts)):
        if any(srow):  # a row with no mark is copied as it is
            row = list(prow)
            for j, s in enumerate(srow):
                if s:
                    hours = prow[j]
                    if hours == 0:
                        raise PlanError(f"cell ({i + 1},{j + 1}) is empty but marked to move")
                    row[j] -= hours
                    row[j + s] += hours
            prow = tuple(row)
        adjusted.append(prow)
    return AnnualPlan(tuple(adjusted))
