import csv
import enum
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repair_leveler import (
    AnnualPlan,
    MonthlyLoads,
    Objective,
    PlanError,
    PlanParseError,
    SelectionProblem,
    ShiftMatrix,
    SolverConfig,
    TransferVector,
    column_sums,
    deviation,
    parse_plan,
    realize_transfers,
    solve_exact,
    standard_form,
    validate_transfers,
    write_plan,
    write_shift_matrix,
)
import repair_leveler.io as rl_io
from repair_leveler.errors import _abridged
from repair_leveler.io import (
    _is_header,
    _records,
    _walk as _walk_records,
    _write_matrix,
    build_report,
    render_report,
    standard_form_to_dict,
)
from helpers import GOLDEN_PLAN, csv_write_matrix, json_report, lifted_int_like, load_perfbench

INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="this interpreter reads integers of any length")
# a first row of "_"-grouped numbers, one plain and one signed, each with
# more digits than int() reads by default
_GROUPED = "_".join(["777"] * (max(INT_DIGITS, 4300) // 3 + 1))
LONG_GROUPED_ROW = f"{_GROUPED},+{_GROUPED}"


def test_parse_with_header(tmp_path: Path):
    csv = tmp_path / "plan.csv"
    csv.write_text("month_1,month_2\n3,4\n5,6\n")
    plan = parse_plan(csv)
    assert plan.entries == ((3, 4), (5, 6))


def test_parse_without_header(tmp_path: Path):
    csv = tmp_path / "plan.csv"
    csv.write_text("3,4\n5,6\n")
    assert parse_plan(csv).entries == ((3, 4), (5, 6))


def test_parse_accepts_string_path_and_stream(tmp_path: Path):
    csv = tmp_path / "plan.csv"
    csv.write_text("1,2\n")
    assert parse_plan(str(csv)).entries == ((1, 2),)
    assert parse_plan(io.StringIO("1,2\n")).entries == ((1, 2),)


def test_parse_skips_blank_rows():
    plan = parse_plan(io.StringIO("1,2\n\n3,4\n\n"))
    assert plan.entries == ((1, 2), (3, 4))


@pytest.mark.parametrize(
    "text",
    [
        "   \nmonth_1,month_2\n10,20\n5,6\n",  # a spaces line is no header
        "month_1,month_2\n10,20\n   \n5,6\n",  # nor a one-cell row mid-file
        "month_1,month_2\n10,20\n5,6\n,\n",  # nor a row of empty cells
    ],
)
def test_parse_skips_rows_of_blank_cells(text):
    assert parse_plan(io.StringIO(text)).entries == ((10, 20), (5, 6))


def test_parse_only_blank_rows_holds_no_rows():
    with pytest.raises(PlanParseError, match="plan file holds no rows"):
        parse_plan(io.StringIO("  \n,\n \t , \n\n"))


def test_parse_header_only_file():
    with pytest.raises(PlanParseError, match="header but no data rows"):
        parse_plan(io.StringIO("month_1,month_2\n"))


def test_parse_one_month_file():
    with pytest.raises(PlanParseError, match="at least two months"):
        parse_plan(io.StringIO("month_1\n4\n7\n"))


def test_parse_strips_whitespace():
    plan = parse_plan(io.StringIO(" 1 , 2 \n"))
    assert plan.entries == ((1, 2),)


def test_parse_ragged_row_reports_position():
    with pytest.raises(PlanParseError) as exc:
        parse_plan(io.StringIO("1,2,3\n4,5\n"))
    assert exc.value.row == 2


def test_parse_bad_cell_reports_position():
    with pytest.raises(PlanParseError) as exc:
        parse_plan(io.StringIO("month_1,month_2\n1,x\n"))
    assert exc.value.row == 2
    assert exc.value.column == 2


@pytest.mark.parametrize(
    "text, column",
    [("1,x\n2,3\n", 2), ("+5,+6\n1,2\n", 1), ("1_0,2_0\n1,2\n", 1)],
    ids=["typo", "plus-signs", "underscores"],
)
def test_parse_mixed_first_row_is_data_not_header(text, column):
    # only a row with nothing int() reads as a number is a header; a first
    # data row with a bad cell must fail at that cell rather than be dropped
    with pytest.raises(PlanParseError) as exc:
        parse_plan(io.StringIO(text))
    assert exc.value.row == 1
    assert exc.value.column == column


@pytest.mark.parametrize(
    "text, column",
    [("month_1,month_2\n1_0,2\n", 1), ("month_1,month_2\n3,\u0663\n", 2)],
    ids=["underscore", "arabic-indic-digit"],
)
def test_parse_accepts_ascii_digits_only(text, column):
    with pytest.raises(PlanParseError) as exc:
        parse_plan(io.StringIO(text))
    assert exc.value.row == 2
    assert exc.value.column == column


def test_parse_rejects_negative_hours():
    with pytest.raises(PlanParseError):
        parse_plan(io.StringIO("1,-2\n"))


def test_parse_rejects_float_hours():
    with pytest.raises(PlanParseError):
        parse_plan(io.StringIO("1,2.5\n"))


def test_parse_empty_file():
    with pytest.raises(PlanParseError):
        parse_plan(io.StringIO(""))


def test_parse_missing_file(tmp_path: Path):
    with pytest.raises(PlanParseError):
        parse_plan(tmp_path / "absent.csv")


def test_parse_utf8_bom_matches_plain_file(tmp_path: Path):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    for text in (b"10,20\n5,6\n", b"month_1,month_2\n10,20\n5,6\n"):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(text)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        assert parse_plan(bom) == parse_plan(plain)


def test_parse_utf8_bom_on_stream_matches_plain_stream(tmp_path: Path):
    for text in ("10,20\n5,6\n", "month_1,month_2\n10,20\n5,6\n"):
        assert parse_plan(io.StringIO("\ufeff" + text)) == parse_plan(io.StringIO(text))
    # a header-less file with a mark, opened by the caller as plain UTF-8
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf10,20\n5,6\n")
    with open(bom, encoding="utf-8", newline="") as fh:
        assert parse_plan(fh) == parse_plan(io.StringIO("10,20\n5,6\n"))


@needs_int_digit_limit
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["plain", "cell-walk"])
def test_parse_names_a_cell_too_long_for_int(newline):
    digits = "7" * max(5000, INT_DIGITS + 1)
    cases = {
        (3, 2): ["month_1,month_2", "1,2", f"3,{digits}", "4,5"],
        # a first row of such cells is data, not a header to drop
        (1, 1): [f"{digits},{digits}", "1,2"],
    }
    for where, rows in cases.items():
        with pytest.raises(PlanParseError) as exc:
            parse_plan(io.StringIO(newline.join(rows) + newline))
        assert (exc.value.row, exc.value.column) == where
        assert "too long" in str(exc.value)
        assert len(str(exc.value)) < 100  # the value is not echoed


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["plain", "cell-walk"])
@pytest.mark.parametrize(
    "rows, where",
    [(["month_1,month_2", "1,2", "3," + "x" * 100_000], (3, 2)), ([LONG_GROUPED_ROW, "1,2"], (1, 1))],
    ids=["long-text", "long-grouped-first-row"],
)
def test_parse_does_not_echo_a_long_bad_cell(rows, where, newline):
    # LONG_GROUPED_ROW's cells are numbers that int() refuses only for their
    # length, so the row is data that fails at its first cell, not a header
    with pytest.raises(PlanParseError) as exc:
        parse_plan(io.StringIO(newline.join(rows) + newline))
    assert (exc.value.row, exc.value.column) == where
    assert "characters) is not an integer" in str(exc.value)
    assert len(str(exc.value)) < 100


def test_parse_echoes_a_bad_cell_of_twenty_characters_whole():
    with pytest.raises(PlanParseError) as exc:
        parse_plan(io.StringIO("1,2\n3," + "x" * 20 + "\n"))
    assert str(exc.value) == "row 2, column 2: 'xxxxxxxxxxxxxxxxxxxx' is not an integer"


def test_abridged_number_counts_its_digits():
    # 10**d - 1 is the largest number of d digits and 10**d the smallest of
    # d + 1, where an estimate of the count from the bit length would slip
    for d in [*range(1, 60), 4299, 4300, 4301, 131_072]:
        assert _abridged(10**d - 1) == (str(10**d - 1) if d <= 20 else f"{'9' * 20}… ({d} digits)")
        assert _abridged(10**d) == (str(10**d) if d < 20 else f"1{'0' * 19}… ({d + 1} digits)")


def test_abridged_negative_numbers_and_other_values():
    # a sign before the digit rule; any other value's repr, cut after 20 characters
    assert _abridged(-(10**20 - 1)) == "-" + "9" * 20
    assert _abridged(-(10**20)) == f"-1{'0' * 19}… (21 digits)"
    assert _abridged(-(10**5000)) == f"-1{'0' * 19}… (5001 digits)"
    assert [_abridged(v) for v in (True, 1.5, None, Fraction(-1))] == ["True", "1.5", "None", "Fraction(-1, 1)"]
    assert _abridged(list(range(10))) == "[0, 1, 2, 3, 4, 5, 6… (30 characters)"
    # a repr that would meet int()'s digit limit names the type instead
    assert _abridged(Fraction(10**5000)) == "<Fraction>"


@pytest.mark.parametrize(
    "call",
    [
        lambda: MonthlyLoads((-(10**5000), 1)),
        lambda: AnnualPlan(((-(10**5000), 1),)),
        lambda: ShiftMatrix(((10**5000, 0),)),
        lambda: SelectionProblem((1,), -(10**5000)),
        lambda: SolverConfig(10**5000),
        lambda: deviation(MonthlyLoads((1, 2)), 10**5000),
        lambda: validate_transfers(MonthlyLoads((1, 2)), TransferVector((10**5000,))),
    ],
    ids=["loads", "plan", "shift-matrix", "capacity", "solver-config", "deviation", "validate-transfers"],
)
def test_refusal_of_a_huge_value_is_a_short_plan_error(call):
    # str() of a 5001-digit int passes int()'s digit limit: the message abridges it
    with pytest.raises(PlanError) as exc:
        call()
    assert "(5001 digits)" in str(exc.value)
    assert len(str(exc.value)) < 120


@pytest.mark.parametrize("cell", ["7" * 200_000, "x" * 200_000], ids=["digits", "text"])
@pytest.mark.parametrize("where", ["header", "data"])
def test_parse_cell_past_csv_field_limit(cell, where):
    rows = [f"month_1,{cell}", "1,2"] if where == "header" else ["month_1,month_2", "1,2", f"3,{cell}"]
    with pytest.raises(PlanParseError) as exc:
        parse_plan(io.StringIO("\n".join(rows) + "\n"))
    assert "field larger than field limit" in str(exc.value)
    assert exc.value.row == (len(rows) if where == "data" else 1)
    assert len(str(exc.value)) < 100


def test_parse_rejects_bytes_that_are_not_utf8(tmp_path: Path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1,2\n\xff,3\n")
    with pytest.raises(PlanParseError, match="UTF-8"):
        parse_plan(bad)
    with open(bad, encoding="utf-8", newline="") as fh, pytest.raises(PlanParseError, match="UTF-8"):
        parse_plan(fh)


def _walk(text: str):
    """The cell walk alone, on the records parse_plan reads past a byte-order mark."""
    return _walk_records(_records(text.removeprefix("\ufeff")))


def _outcome(parse, text: str):
    try:
        return parse(text)
    except PlanParseError as exc:
        return str(exc), exc.row, exc.column


def _parse_and_walks(text: str):
    """parse_plan's outcome on text, and how many times it ran the cell walk."""
    walks = []

    def walk(records):
        walks.append(records)
        return _walk_records(records)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl_io, "_walk", walk)
        return _outcome(lambda t: parse_plan(io.StringIO(t)), text), len(walks)


ODD_CELLS = (
    "007", "-3", "+4", "-0", " 7", "8 ", "\t6", '"9"', '" 5 "', '"1,2"', "", " ",
    "x", "1_0", "\u0663", "2.5", "month_1",
)


@st.composite
def plan_texts(draw):
    """Plan texts in the plain shape or departing from it, each way with
    odds of one in four, in ways the csv reader and the walk accept or
    refuse."""

    def departs() -> bool:
        return draw(st.integers(0, 3)) == 0

    n = draw(st.integers(1, 5)) if departs() else draw(st.integers(2, 5))
    odd = draw(st.floats(0, 0.3)) if departs() else 0  # the share of cells drawn from ODD_CELLS
    ragged = departs()
    # small ranges repeat their texts, and leading zeros give one number two texts
    top = draw(st.sampled_from((2, 30, 10**6)))
    zeros = draw(st.booleans())

    def cell() -> str:
        if draw(st.floats(0, 1)) < odd:
            return draw(st.sampled_from(ODD_CELLS))
        return "0" * (zeros and draw(st.integers(0, 1))) + str(draw(st.integers(0, top)))

    lines = []
    for _ in range(draw(st.integers(0 if departs() else 1, 6))):
        width = draw(st.integers(1, n + 2)) if ragged and draw(st.booleans()) else n
        lines.append(",".join(cell() for _ in range(width)))
    if departs():  # blank and whitespace-only rows
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t", ",", " , "))))
    if draw(st.booleans()):
        headers = (",".join(f"month_{j + 1}" for j in range(n)), "a,b", "month_1", " a , b ")
        if departs():
            headers = ('"a","b"', '"1","2"', "a\rb,c", "a,\x00", "a,1", "+5,+6", ",", "1_0,2_0", LONG_GROUPED_ROW)
        lines.insert(0, draw(st.sampled_from(headers)))
    newline = "\r\n" if departs() else "\n"
    text = newline.join(lines) + ("" if departs() else newline)
    return ("\ufeff" if draw(st.booleans()) else "") + text


# ASCII and Arabic-Indic digits, "_", signs, ASCII and non-ASCII spaces, letters
_CELL_CHARS = "0123456789\u0663\u0669_+- \t\u2003\xa0\x1cabxm"


@st.composite
def header_cells(draw):
    """Short cells over _CELL_CHARS, or digit strings longer than int()
    reads, with or without underscores and a sign."""
    if INT_DIGITS == 0 or draw(st.integers(0, 3)):
        return draw(st.text(_CELL_CHARS, max_size=8))
    digits = "7" * draw(st.integers(INT_DIGITS - 1, INT_DIGITS + 3))
    if draw(st.booleans()):
        digits = "_".join(digits[i : i + 3] for i in range(0, len(digits), 3))
    return draw(st.sampled_from(("", "+", "-", " "))) + digits + draw(st.sampled_from(("", "x", "\u0663", " ")))


@settings(max_examples=400, deadline=None)
@given(header_cells())
def test_is_header_matches_lifted_int_reference(cell):
    # both callers strip their cells first
    cell = cell.strip()
    assert _is_header([cell]) == (not lifted_int_like(cell))


@settings(max_examples=400, deadline=None)
@given(plan_texts())
def test_parse_matches_cell_walk(text):
    # the same plan, or the same message, row and column
    assert _outcome(lambda t: parse_plan(io.StringIO(t)), text) == _outcome(_walk, text)


@pytest.mark.parametrize(
    "text",
    ['"1","2"\n3,4\n', "a\rb,c\n1,2\n", "a,b\r\n1,2\r\n", "1,2\n3,4", "a,b\n\n1,2\n", "a,b\n1,+2\n", "5\n6\n"],
    ids=["quoted-header", "cr-in-header", "crlf", "no-final-newline", "blank-line", "signed-cell", "one-column"],
)
def test_parse_plain_leaves_other_texts_to_the_walk(text):
    # texts that are not a header line then newline-ended lines of digits
    assert _outcome(lambda t: parse_plan(io.StringIO(t)), text) == _outcome(_walk, text)


@pytest.mark.parametrize(
    "text, fast, outcome",
    [
        ("\n1,2\n3,4\n", True, AnnualPlan(((1, 2), (3, 4)))),
        ("\nmonth_1,month_2\n1,2\n", False, AnnualPlan(((1, 2),))),
        ("1,,2\n", False, ("row 1, column 2: '' is not an integer", 1, 2)),
        ('"1","2"\n3,4\n', True, AnnualPlan(((1, 2), (3, 4)))),
        pytest.param(
            "1,2\n3," + "7" * 5000 + "\n", False, ("row 2, column 2: a 5000-character integer is too long", 2, 2),
            marks=pytest.mark.skipif(not 0 < INT_DIGITS < 5000, reason="this interpreter reads a 5000-digit integer"),
        ),
        ("5\n6\n", False, ("plan needs at least two months", None, None)),
        ("1,2\n3,4,5\n", False, ("row 2 has 3 cells, expected 2", 2, None)),
        ("007,7\n00,0\n", True, AnnualPlan(((7, 7), (0, 0)))),
        ("007,7,7,7\n00,0,0,0\n", True, AnnualPlan(((7, 7, 7, 7), (0, 0, 0, 0)))),
        ("1,,1\n1,,1\n1,,1\n", False, ("row 1, column 2: '' is not an integer", 1, 2)),
        pytest.param(
            "1,{0}\n1,{0}\n1,{0}\n".format("7" * 5000), False,
            ("row 1, column 2: a 5000-character integer is too long", 1, 2),
            marks=pytest.mark.skipif(not 0 < INT_DIGITS < 5000, reason="this interpreter reads a 5000-digit integer"),
        ),
    ],
    ids=[
        "blank-first-row", "blank-row-then-header", "empty-cell", "quoted-digits", "5000-digit-cell", "one-column",
        "ragged", "leading-zeros", "leading-zeros-repeated", "repeated-empty-cell", "repeated-5000-digit-cell",
    ],
)
def test_parse_fast_conversion_edges(text, fast, outcome):
    assert _parse_and_walks(text) == (outcome, 0 if fast else 1)
    assert _outcome(_walk, text) == outcome


def _int_calls(text: str) -> list[str]:
    """The texts parse_plan passes to int() while it reads text."""
    calls = []

    def counted(cell):
        calls.append(cell)
        return int(cell)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl_io, "int", counted, raising=False)
        parse_plan(io.StringIO(text))
    return calls


def test_parse_reads_each_repeated_text_once():
    text = "month_1,month_2,month_3\n" + "0,12,0\n" * 30 + "007,12,7\n"
    assert sorted(_int_calls(text)) == ["0", "007", "12", "7"]
    assert parse_plan(io.StringIO(text)).entries == ((0, 12, 0),) * 30 + ((7, 12, 7),)


def test_parse_reads_mostly_distinct_texts_cell_by_cell():
    # a table of 200 texts for 200 cells would cost more than it saves
    rows = [(2 * i, 2 * i + 1) for i in range(100)]
    text = "".join(f"{a},{b}\n" for a, b in rows)
    assert _int_calls(text) == [str(value) for row in rows for value in row]
    assert parse_plan(io.StringIO(text)).entries == tuple(rows)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit to lift")
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_parse_cell_past_csv_field_limit_with_no_digit_limit(newline):
    # with int() reading any length, only csv's field limit refuses the
    # cell, and it must do so on every line ending
    text = newline.join(["month_1,month_2", "1,2", "3," + "7" * (csv.field_size_limit() + 1)]) + newline
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(PlanParseError) as exc:
            parse_plan(io.StringIO(text))
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(exc.value) == f"row 3: field larger than field limit ({csv.field_size_limit()})"
    assert (exc.value.row, exc.value.column) == (3, None)


workloads = load_perfbench("workloads")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 52).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 10**4)] * n), min_size=1, max_size=8)
    ),
    st.booleans(),
)
def test_plain_path_reads_benchmark_shaped_texts(rows, header):
    text = workloads.Case(tuple(rows), (), header).csv_text()
    assert _parse_and_walks(text) == (_walk(text), 0)
    assert _walk(text) == AnnualPlan(tuple(rows))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plain_path_reads_every_benchmark_plan(name):
    for case in workloads.generate(name, 1):
        assert _parse_and_walks(case.csv_text()) == (AnnualPlan(case.rows), 0)


def test_write_plan_round_trip(tmp_path: Path):
    out = tmp_path / "plan.csv"
    write_plan(GOLDEN_PLAN, out)
    assert parse_plan(out).entries == GOLDEN_PLAN.entries
    first = out.read_text().splitlines()[0]
    assert first == "month_1,month_2,month_3,month_4"


class _Month(enum.IntEnum):
    A = 3


class _Hours(int):
    def __str__(self):
        return f"{int(self)}h"


def test_write_plan_writes_integer_values_of_int_subclasses(tmp_path: Path):
    # str() of either cell is no integer ("_Month.A" on Python 3.10, "3h");
    # the writers write the value
    plan = AnnualPlan(((_Month.A, _Hours(3)), (_Hours(0), 1)))
    out = tmp_path / "plan.csv"
    write_plan(plan, out)
    assert out.read_text() == "month_1,month_2\n3,3\n0,1\n"
    assert parse_plan(out) == AnnualPlan(((3, 3), (0, 1)))
    write_shift_matrix(ShiftMatrix(((_Hours(0), _Hours(-1)), (_Hours(1), 0))), out)
    assert out.read_text() == "month_1,month_2\n0,-1\n1,0\n"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 14).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-(10**30), 10**30)] * n), min_size=0, max_size=6)
        .map(lambda rows: (n, rows))
    )
)
def test_write_matrix_matches_csv_writer(tmp_path_factory, case):
    n, rows = case
    tmp = tmp_path_factory.mktemp("matrix")
    _write_matrix(rows, n, tmp / "got.csv")
    csv_write_matrix(rows, n, tmp / "want.csv")
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def test_write_plan_deterministic_bytes(tmp_path: Path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_plan(GOLDEN_PLAN, a)
    write_plan(GOLDEN_PLAN, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_write_shift_matrix_golden(tmp_path: Path):
    out = tmp_path / "shifts.csv"
    write_shift_matrix(ShiftMatrix(((0, -1), (1, 0))), out)
    assert out.read_text() == "month_1,month_2\n0,-1\n1,0\n"


def _golden_report():
    loads = column_sums(GOLDEN_PLAN)
    result = solve_exact(loads)
    real = realize_transfers(GOLDEN_PLAN, result.transfers)
    return build_report(GOLDEN_PLAN, Objective.L1, result, real)


def test_report_structure():
    doc = _golden_report()
    assert list(doc["input"].keys()) == [
        "equipment", "months", "column_sums", "total_hours", "mean", "mean_decimal",
    ]
    assert doc["input"]["column_sums"] == [50, 40, 44, 51]
    assert doc["input"]["mean"] == "185/4"
    assert doc["input"]["mean_decimal"] == 46.25
    assert doc["method"] == "exact"
    assert doc["objective"] == "l1"
    assert doc["optimal"] is True


def test_report_keeps_planned_and_realized_apart():
    doc = _golden_report()
    # the transfer objective is exact; the realized plan pays for item
    # atomicity and must be reported at its own, larger value
    assert doc["objective_before"] == "17"
    assert doc["objective_after"] == "3/2"
    assert doc["objective_realized"] == "15/2"
    assert doc["objective_after_decimal"] == 1.5
    assert doc["objective_realized_decimal"] == 7.5


def test_report_boundary_rows():
    doc = _golden_report()
    assert doc["transfers"] == [3, -3, -5]
    assert doc["boundaries"] == [
        {"boundary": 1, "requested": 3, "achieved": 0, "residual": 3},
        {"boundary": 2, "requested": -3, "achieved": 3, "residual": 0},
        {"boundary": 3, "requested": -5, "achieved": 5, "residual": 0},
    ]


def test_report_optional_blocks_hidden_when_absent():
    doc = _golden_report()
    assert "requested_method" not in doc
    assert "oracle" not in doc


def test_render_report_is_stable_json():
    text = render_report(_golden_report())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc == _golden_report()
    assert render_report(_golden_report()) == text


def test_render_report_matches_json_dumps():
    doc = _golden_report()
    assert render_report(doc) == json_report(doc)
    doc = {
        "floats": [1.5, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan")],
        "empty": {"list": [], "dict": {}, "tuple": ()},
        "scalars": [True, False, None, 0, -(10**40), "", "caf\u00e9 \U0001f600 \x00\x1f\"\\"],
        "rows": [[1, 2], (3, 4), [True, 5]],
        "subclasses": [Objective.QUADRATIC, enum.IntEnum("Level", "LOW HIGH").HIGH],
        "keys": {
            2: 1, -7: 2, 10**30: 3, 1.5: 4, -0.0: 5, 1e300: 6, float("inf"): 7, float("-inf"): 8, float("nan"): 9,
            True: 10, False: 11, None: 12, _Month.A: 13, Objective.L1: 14,
        },
    }
    assert render_report(doc) == json_report(doc)


_json_strings = st.text() | st.text(alphabet="\x00\x1f\x7f\"\\/\u00e9\u2028\U0001f600ab%d")
# every key type json coerces: str, int, float, bool and None
_json_keys = st.one_of(_json_strings, st.integers(), st.floats(), st.booleans(), st.none())
_json_scalars = st.one_of(
    _json_strings,
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
# lists of records with the same keys in the same order and plain-int
# values, such as the report's boundaries
_int_records = st.lists(_json_keys, unique=True, max_size=4).flatmap(
    lambda keys: st.lists(
        st.lists(st.integers(), min_size=len(keys), max_size=len(keys)).map(lambda values: dict(zip(keys, values))),
        min_size=1,
        max_size=5,
    )
)
_json_values = st.recursive(
    _json_scalars | _int_records,
    lambda children: st.lists(children, max_size=6) | st.dictionaries(_json_keys, children, max_size=6),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_json_keys, _json_values, max_size=8))
def test_render_report_matches_json_dumps_on_any_document(doc):
    assert render_report(doc) == json_report(doc)


@pytest.mark.parametrize(
    "records",
    [
        [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
        [{"100%": 1, "%d": 2, "%%s": 3}, {"100%": 4, "%d": 5, "%%s": 6}],
        [{"a": 1, "b": 2}, {"a": 3, "b": True}],
        [{"a": 1, "b": 2}, {"a": 3, "b": _Month.A}],
        [{"a": 1, "b": 2}, {"a": 3, "b": 2.0}],
        [{"a": 1, "b": 2}, {"a": 3, "b": [4, 5]}],
        [{}, {"a": 1}],
        [{}, {}],
        [{"boundary": 1, "requested": -(10**40), "achieved": 0, "residual": 3}],
        [{1: 2, 2.5: 3, None: 4, True: 5, float("nan"): 6}, {1: 7, 2.5: 8, None: 9, True: 10, float("nan"): 11}],
    ],
    ids=[
        "other-key-order", "percent-keys", "bool-value", "intenum-value", "float-value", "list-value",
        "empty-first-record", "empty-records", "one-record", "coerced-keys",
    ],
)
def test_render_report_record_layout(records):
    doc = {"records": records, "tuple": tuple(records), "nested": [records, {"records": records}]}
    assert render_report(doc) == json_report(doc)


def _refusal(render, doc):
    with pytest.raises((TypeError, ValueError)) as exc:
        render(doc)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize(
    "doc",
    [
        {(1,): 2},
        {"a": {b"x": 1}},
        {"records": [{"a": 1, (1,): 2}, {"a": 3, (1,): 4}]},
        pytest.param({"records": [{"a": 1}, {"a": 10**5000}]}, marks=needs_int_digit_limit),
        pytest.param({"records": [{"a": 10**5000, (1,): 2}]}, marks=needs_int_digit_limit),
        pytest.param({"records": [{10**5000: 1}, {10**5000: 2}]}, marks=needs_int_digit_limit),
    ],
    ids=["tuple-key", "bytes-key", "tuple-key-in-records", "5000-digit-value", "value-before-bad-key", "5000-digit-key"],
)
def test_render_report_refuses_as_json_does(doc):
    # the same exception and message, whichever the document meets first
    assert _refusal(render_report, doc) == _refusal(json_report, doc)


def test_standard_form_to_dict():
    doc = standard_form_to_dict(standard_form(MonthlyLoads((10, 0))))
    assert doc["linear_coeffs"] == ["20"]
    assert doc["quadratic_coeffs"] == [["-2"]]
    assert doc["constraint_rhs"] == [10, 0]
    assert doc["variables"] == ["x1", "x1_prime", "x1_dprime"]
    assert doc["constant_offset"] == "50"
    json.dumps(doc)  # must be serializable as-is
