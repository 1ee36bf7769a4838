"""Output checks for one plan run, independent of the package's own helpers.

Every check re-derives its expected value from the generated input and
the emitted files with plain integer and Fraction arithmetic, so a
change that breaks a package helper cannot also hide the breakage.
The one exception is the exact-versus-greedy bound, which by definition
compares against the package's greedy solver.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

OUTPUT_FILES = ("adjusted_plan.csv", "report.json", "shifts.csv")


def _read_matrix(path: Path) -> list[list[int]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[int(cell) for cell in line.split(",")] for line in lines[1:]]


def deviation(loads: list[int], objective: str) -> Fraction:
    mean = Fraction(sum(loads), len(loads))
    if objective == "l1":
        return sum((abs(v - mean) for v in loads), Fraction(0))
    return sum(((v - mean) ** 2 for v in loads), Fraction(0))


def check_outputs(rows, flags, out_dir: Path, greedy_value) -> tuple[list[str], dict, list[int]]:
    """Return (problems found, parsed report, adjusted month loads).

    An empty problem list means the run is correct. greedy_value(loads,
    objective) gives the package greedy solver's objective, which bounds
    exact runs.
    """
    problems: list[str] = []
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    adjusted = _read_matrix(out_dir / "adjusted_plan.csv")
    shifts = _read_matrix(out_dir / "shifts.csv")
    k, n = len(rows), len(rows[0])
    loads = [sum(col) for col in zip(*rows)]
    objective = report["objective"]

    if len(adjusted) != k or len(shifts) != k or any(len(r) != n for r in adjusted + shifts):
        return [f"output shape differs from the {k}x{n} input"], report, []

    moved = [[0] * n for _ in range(k)]
    for i in range(k):
        for j in range(n):
            s = shifts[i][j]
            if s not in (-1, 0, 1):
                problems.append(f"shift cell ({i + 1},{j + 1}) is {s}")
                continue
            if (s == -1 and j == 0) or (s == 1 and j == n - 1):
                problems.append(f"shift cell ({i + 1},{j + 1}) moves out of the year")
                continue
            if s and rows[i][j] == 0:
                problems.append(f"shift cell ({i + 1},{j + 1}) marks an empty cell")
            moved[i][j + s] += rows[i][j]
    if problems:
        return problems, report, []
    if moved != adjusted:
        problems.append("adjusted plan differs from the input with the shifts applied")
    adjusted_loads = [sum(col) for col in zip(*adjusted)]
    if sum(adjusted_loads) != sum(loads):
        problems.append("adjusted plan does not conserve total hours")

    if report["input"]["column_sums"] != loads:
        problems.append("report column sums differ from the input")
    if Fraction(report["objective_before"]) != deviation(loads, objective):
        problems.append("objective_before differs from a recomputation")
    if Fraction(report["objective_realized"]) != deviation(adjusted_loads, objective):
        problems.append("objective_realized differs from a recomputation on the adjusted plan")

    xs = report["transfers"]
    if len(xs) != n - 1:
        return problems + [f"report holds {len(xs)} transfers for {n} months"], report, adjusted_loads
    flowed = [loads[j] - (xs[j] if j < n - 1 else 0) + (xs[j - 1] if j else 0) for j in range(n)]
    if any(v < 0 for v in flowed) or any(x > loads[b] or -x > loads[b + 1] for b, x in enumerate(xs)):
        problems.append("transfer vector is infeasible")
    elif Fraction(report["objective_after"]) != deviation(flowed, objective):
        problems.append("objective_after differs from a recomputation at the reported transfers")

    for b, entry in enumerate(report["boundaries"]):
        x = xs[b]
        if entry["requested"] != x:
            problems.append(f"boundary {b + 1}: requested differs from the transfer")
        achieved, residual = entry["achieved"], entry["residual"]
        if achieved < 0 or residual < 0 or achieved + residual != abs(x):
            problems.append(f"boundary {b + 1}: achieved plus residual is not |requested|")
        # a +1 mark in month b or a -1 mark in month b+1 can only come from boundary b
        forward = sum(rows[i][b] for i in range(k) if shifts[i][b] == 1)
        backward = sum(rows[i][b + 1] for i in range(k) if shifts[i][b + 1] == -1)
        if (forward, backward) != ((achieved, 0) if x > 0 else (0, achieved)):
            problems.append(f"boundary {b + 1}: marked cells do not move the {achieved} h reported")

    supplied = [f.split("=", 1)[1] for f in flags if f.startswith("--transfers=")]
    if supplied:
        if xs != [int(v) for v in supplied[0].split(",")]:
            problems.append("shifts-only run changed the supplied transfers")
    if report["method"] == "exact":
        if not report["optimal"]:
            problems.append("exact run is not flagged optimal")
        if Fraction(report["objective_after"]) > greedy_value(loads, objective):
            problems.append("exact objective is worse than the greedy sweep")
    if "--verify" in flags and not report.get("oracle", {}).get("match"):
        problems.append("oracle check did not match")
    return problems, report, adjusted_loads
