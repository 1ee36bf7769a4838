import enum
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repair_leveler import (
    AnnualPlan,
    MonthlyLoads,
    Objective,
    PlanParseError,
    ShiftMatrix,
    column_sums,
    parse_plan,
    realize_transfers,
    solve_exact,
    standard_form,
    write_plan,
    write_shift_matrix,
)
from repair_leveler.io import (
    _is_header,
    _parse_plain,
    _parse_rows,
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
    """The cell walk alone, on the text parse_plan reads past a byte-order mark."""
    return _parse_rows(text.removeprefix("\ufeff"))


def _outcome(parse, text: str):
    try:
        return parse(text)
    except PlanParseError as exc:
        return str(exc), exc.row, exc.column


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
    lines = []
    for _ in range(draw(st.integers(0 if departs() else 1, 6))):
        width = draw(st.integers(1, n + 2)) if ragged and draw(st.booleans()) else n
        lines.append(",".join(
            draw(st.sampled_from(ODD_CELLS)) if draw(st.floats(0, 1)) < odd else str(draw(st.integers(0, 10**6)))
            for _ in range(width)
        ))
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
    assert _parse_plain(text) is None
    assert _outcome(lambda t: parse_plan(io.StringIO(t)), text) == _outcome(_walk, text)


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
    assert _parse_plain(text) == _walk(text) == AnnualPlan(tuple(rows))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plain_path_reads_every_benchmark_plan(name):
    for case in workloads.generate(name, 1):
        assert _parse_plain(case.csv_text()) == AnnualPlan(case.rows)


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
    }
    assert render_report(doc) == json_report(doc)


_json_strings = st.text() | st.text(alphabet="\x00\x1f\x7f\"\\/\u00e9\u2028\U0001f600ab")
_json_scalars = st.one_of(
    _json_strings,
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=6) | st.dictionaries(_json_strings, children, max_size=6),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_json_strings, _json_values, max_size=8))
def test_render_report_matches_json_dumps_on_any_document(doc):
    assert render_report(doc) == json_report(doc)


def test_standard_form_to_dict():
    doc = standard_form_to_dict(standard_form(MonthlyLoads((10, 0))))
    assert doc["linear_coeffs"] == ["20"]
    assert doc["quadratic_coeffs"] == [["-2"]]
    assert doc["constraint_rhs"] == [10, 0]
    assert doc["variables"] == ["x1", "x1_prime", "x1_dprime"]
    assert doc["constant_offset"] == "50"
    json.dumps(doc)  # must be serializable as-is
