"""Level annual equipment-repair plans and realize the moves cell by cell.

The library works in exact integer and rational arithmetic end to end:
plans hold integer hours, deviations are `fractions.Fraction` values,
and every solver returns transfers that are feasible by construction.
Work moves at most one month in either direction.
"""

from .cli import run_pipeline
from .errors import (
    BoundViolationError,
    BudgetExceededError,
    FeasibilityError,
    LevelingError,
    PlanError,
    PlanParseError,
    ShiftBoundaryError,
    ShiftValidationError,
    UnsupportedLengthError,
)
from .io import (
    build_report,
    parse_plan,
    render_report,
    standard_form_to_dict,
    write_plan,
    write_shift_matrix,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    brute_force_shifts,
    brute_force_subset,
    brute_force_transfers,
)
from .plan import (
    AnnualPlan,
    MeanLoad,
    MonthlyLoads,
    ShiftMatrix,
    TransferVector,
    apply_shift_matrix,
    apply_transfers,
    column_sums,
    l1_deviation,
    mean_load,
    quadratic_deviation,
    squared_deviation,
    validate_transfers,
)
from .realization import (
    RealizationResult,
    SelectionProblem,
    realize_transfers,
    subset_select,
)
from .solvers import (
    Method,
    Objective,
    ShiftedVariableForm,
    SolveResult,
    SolverConfig,
    StandardFormQP,
    deviation,
    solve_bisection,
    solve_exact,
    solve_greedy,
    standard_form,
)

__version__ = "0.1.0"

__all__ = [
    "AnnualPlan",
    "MonthlyLoads",
    "MeanLoad",
    "TransferVector",
    "ShiftMatrix",
    "column_sums",
    "mean_load",
    "validate_transfers",
    "apply_transfers",
    "l1_deviation",
    "squared_deviation",
    "quadratic_deviation",
    "apply_shift_matrix",
    "Objective",
    "deviation",
    "Method",
    "SolverConfig",
    "SolveResult",
    "StandardFormQP",
    "ShiftedVariableForm",
    "solve_exact",
    "solve_bisection",
    "solve_greedy",
    "standard_form",
    "SelectionProblem",
    "RealizationResult",
    "subset_select",
    "realize_transfers",
    "OracleBudget",
    "DEFAULT_BUDGET",
    "brute_force_transfers",
    "brute_force_shifts",
    "brute_force_subset",
    "parse_plan",
    "write_plan",
    "write_shift_matrix",
    "build_report",
    "render_report",
    "run_pipeline",
    "standard_form_to_dict",
    "LevelingError",
    "PlanError",
    "BoundViolationError",
    "FeasibilityError",
    "ShiftBoundaryError",
    "ShiftValidationError",
    "UnsupportedLengthError",
    "BudgetExceededError",
    "PlanParseError",
    "__version__",
]
