"""Plan CSV files, shift CSV files, and the JSON leveling report.

All emitted files are deterministic byte for byte: fixed header, fixed
key order, exact rationals rendered as "p/q" strings with a float
rendering alongside for convenience.
"""

from __future__ import annotations

import csv
import json
import re
from io import StringIO
from itertools import chain, islice
from pathlib import Path
from typing import IO

from .errors import PlanError, PlanParseError, _abridged
from .plan import AnnualPlan, ShiftMatrix, column_sums, mean_load
from .realization import RealizationResult
from .solvers import Objective, SolveResult, StandardFormQP, deviation

__all__ = [
    "parse_plan",
    "write_plan",
    "write_shift_matrix",
    "build_report",
    "render_report",
    "standard_form_to_dict",
]


# ASCII digits only: int() would also read "1_0" as 10 and "\u0663" as 3
_INTEGER = re.compile(r"-?[0-9]+")


# int()'s base-10 grammar for a stripped cell, with no limit on its digits:
# Unicode decimal digits, grouped by single "_", after an optional sign
_NUMBER = re.compile(r"[+-]?\d+(?:_\d+)*")


def _is_header(cells: list[str]) -> bool:
    """A header holds no stripped cell that int() reads as a number,
    whatever its length; any other first row is data, so "1,x", "+5,+6"
    or a cell too long for int() fails at its bad cell."""
    return not any(map(_NUMBER.fullmatch, cells))


def _bad_cell(row: int, column: int, what: str) -> PlanParseError:
    return PlanParseError(f"row {row}, column {column}: {what}", row=row, column=column)


def _records(text: str) -> list[list[str]]:
    """The csv reader's records of text. A reader error, such as a field
    past csv.field_size_limit() or a NUL on Python 3.10, fails at its row."""
    records: list[list[str]] = []
    try:
        records.extend(csv.reader(StringIO(text, newline="")))  # extend keeps the rows read before a bad one
    except csv.Error as exc:
        raise PlanParseError(f"row {len(records) + 1}: {exc}", row=len(records) + 1) from exc
    return records


def _parse_rows(text: str) -> AnnualPlan:
    """The plan of text's csv records. Records of ASCII digits after an
    optional header, in rows of one width of at least two, are converted
    in one step; the walk reads any other text, and names a bad cell. A
    blank first record is a header to _is_header, as the walk skips it.

    A plan's cells repeat a few small numbers, so the step checks each
    distinct cell text and reads it by int() once, then looks every cell
    up by its text. When most texts differ in a sample of at most 64
    cells, taken at one stride through the plan, the table would cost
    more than it saves, and int() reads every cell instead.
    """
    records = _records(text)
    body = records[1:] if records and _is_header([cell.strip() for cell in records[0]]) else records
    if body:
        width = len(body[0])
        sample = list(islice(chain.from_iterable(body), 0, None, width * len(body) // 64 + 1))
        texts = set(chain.from_iterable(body)) if 2 * len(set(sample)) <= len(sample) else None
        digits = "".join(map("".join, body) if texts is None else texts)
        if width > 1 and digits.isdigit() and digits.isascii() and set(map(len, body)) == {width}:
            try:
                convert = int if texts is None else dict(zip(texts, map(int, texts))).__getitem__
                return AnnualPlan._trusted(tuple(zip(*[map(convert, chain.from_iterable(body))] * width)))
            except ValueError:  # an empty cell, or one longer than int() reads
                pass
    return _walk(records)


def _walk(records: list[list[str]]) -> AnnualPlan:
    """The cell walk over the csv records: blank rows skipped, an optional
    header, one width, and each cell checked and named when bad."""
    cleaned: list[tuple[int, list[str]]] = []  # (1-based file row, cells)
    for lineno, row in enumerate(records, start=1):
        cells = [cell.strip() for cell in row]
        if any(cells):  # a row of only blank cells is a blank line, never a header
            cleaned.append((lineno, cells))
    if not cleaned:
        raise PlanParseError("plan file holds no rows")

    if _is_header(cleaned[0][1]):
        cleaned = cleaned[1:]
        if not cleaned:
            raise PlanParseError("plan file holds a header but no data rows")

    width = len(cleaned[0][1])
    entries = []
    for lineno, cells in cleaned:
        if len(cells) != width:
            raise PlanParseError(f"row {lineno} has {len(cells)} cells, expected {width}", row=lineno)
        parsed = []
        for col, cell in enumerate(cells, start=1):
            if not _INTEGER.fullmatch(cell):
                # a cell may run to csv's field limit: a long one shows its start and length
                raise _bad_cell(lineno, col, f"{_abridged(cell)} is not an integer")
            try:
                value = int(cell)
            except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
                raise _bad_cell(lineno, col, f"a {len(cell)}-character integer is too long") from exc
            if value < 0:
                raise _bad_cell(lineno, col, f"hours cannot be negative ({_abridged(value)})")
            parsed.append(value)
        entries.append(tuple(parsed))
    if width < 2:
        raise PlanParseError("plan needs at least two months")
    return AnnualPlan._trusted(tuple(entries))  # every rule of AnnualPlan is checked above


def parse_plan(source: str | Path | IO[str]) -> AnnualPlan:
    """Read an annual plan from a CSV path or text stream.

    Every text is read by the csv reader. One row per equipment item, one
    integer column per month; a cell is ASCII digits with an optional
    leading "-" (negatives are rejected as such). A row whose cells are
    all blank is skipped wherever it is, as an empty line is. A header row
    is optional: the first row is one when none of its cells is a number
    to int() at any length, so a first row such as "+5,+6" is data and
    fails at its first cell. A path is read as UTF-8; one leading
    byte-order mark is dropped from a path or a stream alike.
    Raises PlanParseError with the 1-based row/column on malformed input,
    including unreadable paths, bytes that are not UTF-8 and oversized
    cells: one with more digits than int() reads, or one past the csv
    module's field size limit, on any line ending.
    """
    if hasattr(source, "read"):
        text = _read_text(source)
    else:
        try:
            with open(source, newline="", encoding="utf-8") as fh:
                text = _read_text(fh)
        except OSError as exc:
            raise PlanParseError(f"cannot read plan file {source}: {exc.strerror}") from exc
    return _parse_rows(text)


def _read_text(fh: IO[str]) -> str:
    try:
        return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise PlanParseError(f"plan file is not UTF-8 text: {exc.reason}") from exc


def _write_matrix(rows, n: int, path: str | Path) -> None:
    """The month header and one line per row, each cell its integer value
    by %d: for plain ints the bytes csv.writer writes, and an int
    subclass, an IntEnum say, writes its number rather than its str()."""
    line = ",".join(["%d"] * n) + "\n"
    text = ",".join([f"month_{j + 1}" for j in range(n)]) + "\n" + "".join([line % row for row in rows])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def write_plan(plan: AnnualPlan, path: str | Path) -> None:
    """Write a plan as CSV with the standard month header."""
    _write_matrix(plan.entries, plan.n, path)


def write_shift_matrix(shifts: ShiftMatrix, path: str | Path) -> None:
    """Write a shift matrix (-1/0/+1 cells) as CSV with the month header."""
    _write_matrix(shifts.shifts, shifts.n, path)


def _put_number(doc: dict, key: str, value) -> None:
    """Set doc[key] to value's exact text and doc[key + "_decimal"] to its
    float. The float comes first: a value past a float's range is refused
    before str() could meet one past int()'s digit limit."""
    try:
        decimal = float(value)
    except OverflowError as exc:  # a plan whose hours run past a float's range
        raise PlanError(f"report key {key}_decimal: the value is too large for a float") from exc
    doc[key] = str(value)
    doc[f"{key}_decimal"] = decimal


def build_report(
    plan: AnnualPlan,
    objective: Objective,
    result: SolveResult,
    realization: RealizationResult,
    requested_method: str | None = None,
    oracle: dict | None = None,
) -> dict:
    """Everything the pipeline decided, as the report's JSON document.

    objective_after is the configured metric at the transfer vector the
    solver (or the caller) produced; objective_before and
    objective_realized are recomputed here from the input and the emitted
    adjusted plan, so after and realized differ exactly when realization
    left residuals. Keys are in their fixed output order.
    """
    loads = column_sums(plan)
    inputs = {"equipment": plan.k, "months": plan.n, "column_sums": list(loads.loads), "total_hours": loads.total()}
    _put_number(inputs, "mean", mean_load(loads))
    doc: dict = {"input": inputs, "method": result.method}
    if requested_method is not None:
        doc["requested_method"] = requested_method
    doc["objective"] = objective.value
    for key, value in (
        ("objective_before", deviation(loads, objective)),
        ("objective_after", result.objective_value),
        ("objective_realized", deviation(column_sums(realization.adjusted_plan), objective)),
    ):
        _put_number(doc, key, value)
    transfers = result.transfers.x
    doc["transfers"] = list(transfers)
    doc["boundaries"] = [
        {"boundary": b + 1, "requested": x, "achieved": got, "residual": left}
        for b, (x, got, left) in enumerate(zip(transfers, realization.achieved, realization.residuals))
    ]
    doc["optimal"] = result.optimal
    doc["visited_states"] = result.visited_states
    if oracle is not None:
        doc["oracle"] = oracle
    return doc


_json_str = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    """The quoted text of an object key, coerced as json.dumps coerces it:
    a float, True, False or None by its JSON text and an int by its
    number; any other type is refused with json's TypeError."""
    if isinstance(key, str):
        return _json_str(key)
    if isinstance(key, (float, bool)) or key is None:
        return _json_str(json.dumps(key))
    if isinstance(key, int):
        return _json_str(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _record_layout(records, indent: str) -> str | None:
    """A %-template that renders each of records, plain dicts, at indent,
    when they all hold the same keys in the same order and only plain
    ints. None when they do not, or when a key is refused or too long to
    render: the generic path then raises json's error where json does."""
    keys = tuple(records[0])
    if not all(map(keys.__eq__, map(tuple, records))):
        return None
    if set(map(type, chain.from_iterable(map(dict.values, records)))) != {int}:
        return None
    inner = indent + "  "
    try:
        fields = [_json_key(key).replace("%", "%%") + ": %d" for key in keys]
    except (TypeError, ValueError):
        return None
    return "{" + inner + ("," + inner).join(fields) + indent + "}"


def _render_json(value, indent: str, out) -> None:
    """Pass value's JSON text, laid out as by json.dumps(indent=2), to out
    piece by piece; indent is the newline and spaces of value's own line.

    Plain ints, the report's usual value, are rendered in place rather
    than by a call per number. A list of plain dicts with the same keys in
    the same order and only plain-int values, such as the report's
    boundary records, is rendered from one layout built for the list;
    bools, int subclasses, dict subclasses and any other list take the
    generic path.
    """
    if isinstance(value, str):
        out(_json_str(value))
    elif isinstance(value, int):
        if isinstance(value, bool):
            out("true" if value else "false")
        else:
            out(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            head = sep + (_json_str(key) if type(key) is str else _json_key(key)) + ": "  # str keys skip the call
            if type(item) is int:
                out(head + int.__repr__(item))
            else:
                out(head)
                _render_json(item, inner, out)
            sep = "," + inner
        out(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = indent + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            out("[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]")
        elif kinds == {dict} and (layout := _record_layout(value, inner)):
            out("[" + inner + ("," + inner).join([layout % tuple(record.values()) for record in value]) + indent + "]")
        else:
            sep = "[" + inner
            for item in value:
                out(sep)
                _render_json(item, inner, out)
                sep = "," + inner
            out(indent + "]")
    else:  # floats, non-finite ones too, and None
        out(json.dumps(value))


def render_report(report: dict) -> str:
    """Deterministic JSON rendering, keys in the order build_report set them.

    The text is json.dumps(report, indent=2) plus a newline, keys coerced
    and refused as json does, built here because json renders an indented
    document with its pure-Python encoder.
    """
    parts: list[str] = []
    _render_json(report, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def standard_form_to_dict(qp: StandardFormQP) -> dict:
    """Serialize a standard-form export; rationals become "p/q" strings."""
    return {
        "shifted_loads": [str(v) for v in qp.shifted_loads],
        "linear_coeffs": [str(v) for v in qp.linear_coeffs],
        "quadratic_coeffs": [[str(v) for v in row] for row in qp.quadratic_coeffs],
        "constraint_matrix": [list(row) for row in qp.constraint_matrix],
        "constraint_rhs": list(qp.constraint_rhs),
        "variables": list(qp.variables),
        "substitution": {
            "relation": "x_i = xbar_i - x0, all substituted variables non-negative",
            "variables": list(qp.substitution.variables),
            "linear": [str(v) for v in qp.substitution.linear],
            "quadratic": [[str(v) for v in row] for row in qp.substitution.quadratic],
        },
        "constant_offset": str(qp.constant_offset),
    }
