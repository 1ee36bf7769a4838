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
from pathlib import Path
from typing import IO

from .errors import PlanParseError
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


def _parse_rows(text: str) -> AnnualPlan:
    """The cell walk: the csv reader's rows, each cell checked and named
    when bad. A reader error, such as a field past csv.field_size_limit()
    or a NUL on Python 3.10, fails at its row."""
    cleaned: list[tuple[int, list[str]]] = []  # (1-based file row, cells)
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(StringIO(text, newline="")), start=1):
            cells = [cell.strip() for cell in row]
            if any(cells):  # a row of only blank cells is a blank line, never a header
                cleaned.append((lineno, cells))
    except csv.Error as exc:
        raise PlanParseError(f"row {lineno + 1}: {exc}", row=lineno + 1) from exc
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
            raise PlanParseError(
                f"row {lineno} has {len(cells)} cells, expected {width}", row=lineno
            )
        parsed = []
        for col, cell in enumerate(cells, start=1):
            if not _INTEGER.fullmatch(cell):
                # a cell may run to csv's field limit: a long one shows its start and length
                shown = repr(cell) if len(cell) <= 20 else f"{cell[:20]!r}… ({len(cell)} characters)"
                raise PlanParseError(
                    f"row {lineno}, column {col}: {shown} is not an integer",
                    row=lineno,
                    column=col,
                )
            try:
                value = int(cell)
            except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
                raise PlanParseError(
                    f"row {lineno}, column {col}: a {len(cell)}-character integer is too long",
                    row=lineno,
                    column=col,
                ) from exc
            if value < 0:
                raise PlanParseError(
                    f"row {lineno}, column {col}: hours cannot be negative ({value})",
                    row=lineno,
                    column=col,
                )
            parsed.append(value)
        entries.append(tuple(parsed))
    if width < 2:
        raise PlanParseError("plan needs at least two months")
    return AnnualPlan._trusted(tuple(entries))  # every rule of AnnualPlan is checked above


def parse_plan(source: str | Path | IO[str]) -> AnnualPlan:
    """Read an annual plan from a CSV path or text stream.

    One row per equipment item, one integer column per month; a cell is
    ASCII digits with an optional leading "-" (negatives are rejected as
    such). A row whose cells are all blank is skipped wherever it is, as
    an empty line is. A header row is optional: the first row is one when
    none of its cells is a number to int() at any length, so a first row
    such as "+5,+6" is data and fails at its first cell. A path is read as
    UTF-8; one leading byte-order mark is dropped from a path or a stream
    alike.
    Raises PlanParseError with the 1-based row/column on malformed input,
    including unreadable paths, bytes that are not UTF-8 and oversized
    cells: one with more digits than int() reads, or one past the csv
    module's field size limit.
    """
    if hasattr(source, "read"):
        text = _read_text(source)
    else:
        try:
            with open(source, newline="", encoding="utf-8") as fh:
                text = _read_text(fh)
        except OSError as exc:
            raise PlanParseError(f"cannot read plan file {source}: {exc.strerror}") from exc
    plan = _parse_plain(text)
    return plan if plan is not None else _parse_rows(text)


def _read_text(fh: IO[str]) -> str:
    try:
        return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise PlanParseError(f"plan file is not UTF-8 text: {exc.reason}") from exc


# characters the csv reader treats apart from "," and "\n" (NUL only on 3.10)
_CSV_SPECIAL = '"\r\0'


def _parse_plain(text: str) -> AnnualPlan | None:
    """The plan of a plain text in one pass, or None when the text needs
    _parse_rows' cell walk.

    A plain text is an optional header line that the csv reader splits
    at its commas alone, then lines of at least two unsigned ASCII
    integers, all as wide as the first, each ending in a newline.
    Anything else, a cell int() cannot read included, is left to the
    walk, which alone names a bad cell. The pattern admits only rows
    that AnnualPlan accepts, so the plan is built without checking its
    cells again.
    """
    head, _, body = text.partition("\n")
    cells = [cell.strip() for cell in head.split(",")]
    if (
        any(cells)
        and _is_header(cells)
        and len(head) <= csv.field_size_limit()
        and not any(c in head for c in _CSV_SPECIAL)
    ):
        head = body.partition("\n")[0]
    else:
        body = text
    n = head.count(",") + 1
    # lines of n unsigned ASCII integers, each ending in a newline
    if n < 2 or not re.fullmatch(r"(?:[0-9]+(?:,[0-9]+){%d}\n)+" % (n - 1), body):
        return None
    values = map(int, body[:-1].replace("\n", ",").split(","))
    try:
        rows = tuple(zip(*[values] * n))
    except ValueError:  # a cell longer than int() reads
        return None
    return AnnualPlan._trusted(rows)


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
    mean = mean_load(loads)
    doc: dict = {
        "input": {
            "equipment": plan.k,
            "months": plan.n,
            "column_sums": list(loads.loads),
            "total_hours": loads.total(),
            "mean": str(mean),
            "mean_decimal": float(mean),
        },
        "method": result.method,
    }
    if requested_method is not None:
        doc["requested_method"] = requested_method
    doc["objective"] = objective.value
    for key, value in (
        ("objective_before", deviation(loads, objective)),
        ("objective_after", result.objective_value),
        ("objective_realized", deviation(column_sums(realization.adjusted_plan), objective)),
    ):
        doc[key] = str(value)
        doc[f"{key}_decimal"] = float(value)
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


def _render_json(value, indent: str, out) -> None:
    """Pass value's JSON text, laid out as by json.dumps(indent=2), to out
    piece by piece; indent is the newline and spaces of value's own line.

    Plain ints, the report's usual value, are rendered in place rather
    than by a call per number.
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
            if type(item) is int:
                out(sep + _json_str(key) + ": " + int.__repr__(item))
            else:
                out(sep + _json_str(key) + ": ")
                _render_json(item, inner, out)
            sep = "," + inner
        out(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
        elif set(map(type, value)) == {int}:
            inner = indent + "  "
            out("[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]")
        else:
            inner = indent + "  "
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

    The text is json.dumps(report, indent=2) plus a newline, built here
    because json renders an indented document with its pure-Python encoder.
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
