"""The value types' contract: repr, equality, hashing, keyword
construction, defaults, immutability and pickling.

The ten public value types are immutable and compared by value. The
figures pinned here are what the earlier frozen-dataclass versions gave,
so a change in how the classes are built cannot change them unnoticed.
"""

import copy
import inspect
import pickle
import re
from fractions import Fraction

import pytest

from repair_leveler import (
    AnnualPlan,
    MonthlyLoads,
    Objective,
    PlanError,
    RealizationResult,
    SelectionProblem,
    ShiftedVariableForm,
    ShiftMatrix,
    SolverConfig,
    SolveResult,
    StandardFormQP,
    TransferVector,
    column_sums,
    realize_transfers,
    solve_exact,
    standard_form,
)
from helpers import GOLDEN_PLAN

SMALL_PLAN = AnnualPlan(((2, 0, 1), (3, 1, 2)))
SMALL_RESULT = solve_exact(MonthlyLoads((5, 1, 3)))
SMALL_REALIZATION = realize_transfers(SMALL_PLAN, SMALL_RESULT.transfers)
SMALL_QP = standard_form(MonthlyLoads((3, 1)))

# one instance of each type and its repr
REPRS = [
    (AnnualPlan(((1, 2), (3, 0))), "AnnualPlan(entries=((1, 2), (3, 0)))"),
    (MonthlyLoads((4, 2)), "MonthlyLoads(loads=(4, 2))"),
    (TransferVector((1, -2)), "TransferVector(x=(1, -2))"),
    (ShiftMatrix(((1, 0), (0, -1))), "ShiftMatrix(shifts=((1, 0), (0, -1)))"),
    (SolverConfig(), "SolverConfig(objective=<Objective.L1: 'l1'>)"),
    (SolverConfig(Objective.QUADRATIC), "SolverConfig(objective=<Objective.QUADRATIC: 'quadratic'>)"),
    (
        SMALL_RESULT,
        "SolveResult(transfers=TransferVector(x=(2, 0)), objective_value=Fraction(0, 1), "
        "method='exact', optimal=True, visited_states=13)",
    ),
    (
        SMALL_QP.substitution,
        "ShiftedVariableForm(variables=('xbar1', 'x0'), linear=(Fraction(4, 1), Fraction(-4, 1)), "
        "quadratic=((Fraction(-2, 1), Fraction(2, 1)), (Fraction(2, 1), Fraction(-2, 1))))",
    ),
    (
        SMALL_QP,
        "StandardFormQP(shifted_loads=(Fraction(1, 1), Fraction(-1, 1)), linear_coeffs=(Fraction(4, 1),), "
        "quadratic_coeffs=((Fraction(-2, 1),),), constraint_matrix=((1, 1, 0), (-1, 0, 1)), "
        "constraint_rhs=(3, 1), variables=('x1', 'x1_prime', 'x1_dprime'), "
        "substitution=ShiftedVariableForm(variables=('xbar1', 'x0'), linear=(Fraction(4, 1), Fraction(-4, 1)), "
        "quadratic=((Fraction(-2, 1), Fraction(2, 1)), (Fraction(2, 1), Fraction(-2, 1)))), "
        "constant_offset=Fraction(2, 1))",
    ),
    (SelectionProblem((3, 1), 2), "SelectionProblem(items=(3, 1), capacity=2)"),
    (
        SMALL_REALIZATION,
        "RealizationResult(shift_matrix=ShiftMatrix(shifts=((1, 0, 0), (0, 0, 0))), achieved=(2, 0), "
        "residuals=(0, 0), adjusted_plan=AnnualPlan(entries=((0, 2, 1), (3, 1, 2))), pools=((2, 3), ()))",
    ),
]

VALUES = [value for value, _ in REPRS]
IDS = [f"{type(value).__name__}-{n}" for n, value in enumerate(VALUES)]

# each type's fields in declaration order
FIELDS = {
    AnnualPlan: ("entries",),
    MonthlyLoads: ("loads",),
    TransferVector: ("x",),
    ShiftMatrix: ("shifts",),
    SolverConfig: ("objective",),
    SolveResult: ("transfers", "objective_value", "method", "optimal", "visited_states"),
    ShiftedVariableForm: ("variables", "linear", "quadratic"),
    StandardFormQP: (
        "shifted_loads", "linear_coeffs", "quadratic_coeffs", "constraint_matrix",
        "constraint_rhs", "variables", "substitution", "constant_offset",
    ),
    SelectionProblem: ("items", "capacity"),
    RealizationResult: ("shift_matrix", "achieved", "residuals", "adjusted_plan", "pools"),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def test_every_value_type_is_covered():
    assert {type(value) for value in VALUES} == set(FIELDS)


@pytest.mark.parametrize("value, text", REPRS, ids=IDS)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equal_values_hash_alike(value):
    twin = type(value)(*_fields(value))
    assert twin == value and not twin != value
    assert twin is not value
    assert hash(twin) == hash(value) == hash(_fields(value))
    assert value != _fields(value)


def test_equality_needs_the_same_type():
    assert MonthlyLoads((1, 2)) != TransferVector((1, 2))
    assert TransferVector((1, 2)) != MonthlyLoads((1, 2))
    assert MonthlyLoads((1, 2)) != (1, 2)
    assert MonthlyLoads((1, 2)) != MonthlyLoads((2, 1))
    assert MonthlyLoads((1, 2)).__eq__(TransferVector((1, 2))) is NotImplemented
    assert len({MonthlyLoads((1, 2)), MonthlyLoads((1, 2)), TransferVector((1, 2))}) == 2


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_keyword_construction(value):
    names = FIELDS[type(value)]
    assert type(value)(**dict(zip(names, _fields(value)))) == value


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_positional_patterns_follow_the_fields(value):
    assert type(value).__match_args__ == FIELDS[type(value)]


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_trusted_equals_the_checked_value(value):
    twin = type(value)._trusted(*_fields(value))
    assert type(twin) is type(value)
    assert twin == value
    assert repr(twin) == repr(value)
    assert hash(twin) == hash(value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_trusted_needs_every_field(value):
    fields = _fields(value)
    names = re.escape(", ".join(FIELDS[type(value)]))
    with pytest.raises(TypeError, match=names):
        type(value)._trusted(*fields[:-1])
    with pytest.raises(TypeError, match=names):
        type(value)._trusted(*fields, None)


RECORDS = (SolveResult, ShiftedVariableForm, StandardFormQP, RealizationResult)


@pytest.mark.parametrize("record", RECORDS, ids=[record.__name__ for record in RECORDS])
def test_record_signature_is_the_field_store(record):
    assert str(inspect.signature(record)) == "(*fields, **named)"


_RESULT_FIELDS = _fields(SMALL_RESULT)


@pytest.mark.parametrize(
    "args, named",
    [
        (_RESULT_FIELDS[:-1], {}),  # missing
        (_RESULT_FIELDS[:2], {"optimal": True, "visited_states": 27}),  # missing in the middle
        (_RESULT_FIELDS + (0,), {}),  # extra
        (_RESULT_FIELDS, {"solver": "exact"}),  # unknown
        (_RESULT_FIELDS[:-1], {"visited_states": 27, "states": 27}),  # unknown beside the last field
        (_RESULT_FIELDS, {"method": "exact"}),  # repeated
        ((), {}),
    ],
    ids=["missing", "missing-middle", "extra", "unknown", "unknown-and-last", "repeated", "none"],
)
def test_bad_record_calls_name_the_fields(args, named):
    text = "SolveResult takes the fields (transfers, objective_value, method, optimal, visited_states)"
    with pytest.raises(TypeError, match=re.escape(text)):
        SolveResult(*args, **named)


@pytest.mark.parametrize(
    "args, named",
    [((), {}), (((1, 2), (3, 4)), {}), ((), {"load": (1, 2)}), (((1, 2),), {"loads": (1, 2)})],
    ids=["missing", "extra", "unknown", "repeated"],
)
def test_bad_checked_calls_raise_type_error(args, named):
    with pytest.raises(TypeError):
        MonthlyLoads(*args, **named)


def test_defaults():
    assert SolverConfig().objective is Objective.L1
    assert SolverConfig() == SolverConfig(Objective.L1) == SolverConfig(objective=Objective.L1)
    # positional and keyword fields mix on a checked type
    problem = SelectionProblem((3, 1), capacity=2)
    assert _fields(problem) == ((3, 1), 2)
    assert problem == SelectionProblem((3, 1), 2) == SelectionProblem(items=(3, 1), capacity=2)


def test_constructors_normalize_sequences_to_tuples():
    assert AnnualPlan([[1, 2], [3, 0]]).entries == ((1, 2), (3, 0))
    assert MonthlyLoads([4, 2]).loads == (4, 2)
    assert TransferVector([1]).x == (1,)
    assert ShiftMatrix([[1, 0]]).shifts == ((1, 0),)
    assert SelectionProblem([3, 1], 2).items == (3, 1)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_values_are_immutable(value):
    name = FIELDS[type(value)][0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_pickle_round_trips(value, protocol):
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value
    assert repr(back) == repr(value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copy_and_deepcopy(value):
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)


def test_results_of_a_real_solve_pickle():
    result = solve_exact(column_sums(GOLDEN_PLAN))
    realization = realize_transfers(GOLDEN_PLAN, result.transfers)
    for value in (result, realization):
        for protocol in (0, pickle.HIGHEST_PROTOCOL):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value
            assert repr(back) == repr(value)
        assert copy.deepcopy(value) == value
    assert result.objective_value == Fraction(3, 2)


# a field tuple each constructor refuses, per checked type
BAD_FIELDS = [
    (AnnualPlan(((1, 2),)), (((1,),),)),
    (MonthlyLoads((4, 2)), ((-1, 2),)),
    (TransferVector((1,)), ((True,),)),
    (ShiftMatrix(((1, 0), (0, 0))), (((1, 0), (0, 1)),)),
    (SolverConfig(), ("l1",)),
    (SelectionProblem((3, 1), 2), ((3, 1), -1)),
]


@pytest.mark.parametrize("value, bad", BAD_FIELDS, ids=[type(v).__name__ for v, _ in BAD_FIELDS])
def test_reduce_rebuilds_through_the_checks(value, bad):
    rebuild, args = value.__reduce__()
    assert args == _fields(value)
    assert rebuild(*args) == value
    with pytest.raises(PlanError) as direct:
        type(value)(*bad)
    with pytest.raises(PlanError) as rebuilt:
        rebuild(*bad)
    assert str(rebuilt.value) == str(direct.value)


def test_unpickling_bad_fields_raises_plan_error():
    data = pickle.dumps(MonthlyLoads((7, 2)), 0)
    assert data.count(b"I7\n") == 1
    with pytest.raises(PlanError, match="month 1 load must be a non-negative integer, got -7"):
        pickle.loads(data.replace(b"I7\n", b"I-7\n"))
