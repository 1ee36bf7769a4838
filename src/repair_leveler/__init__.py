"""Level annual equipment-repair plans and realize the moves cell by cell.

The library works in exact integer and rational arithmetic end to end:
plans hold integer hours, deviations are `fractions.Fraction` values,
and every solver returns transfers that are feasible by construction.
Work moves at most one month in either direction.
"""

# each library module lists its public names in its own __all__; the
# command line stays in repair_leveler.cli and is not imported here
from .errors import *
from .plan import *
from .solvers import *
from .realization import *
from .oracle import *
from .io import *

__version__ = "0.1.0"

__all__ = (
    plan.__all__
    + solvers.__all__
    + realization.__all__
    + oracle.__all__
    + io.__all__
    + errors.__all__
    + ["__version__"]
)
