import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_CSV = """month_1,month_2,month_3,month_4
10,20,30,40
5,8,6,6
21,11,3,2
14,1,5,3
"""


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repair_leveler", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


@pytest.fixture
def golden_csv(tmp_path: Path) -> Path:
    path = tmp_path / "plan.csv"
    path.write_text(GOLDEN_CSV)
    return path


def test_help_exits_zero():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "--output-dir" in cp.stdout


def test_exact_run(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli("--input", str(golden_csv), "--output-dir", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "plan: 4 items x 4 months, 185 hours, mean 185/4"
    assert lines[1] == "method exact, objective l1: before 17, after 3/2, realized 15/2"
    assert (out / "adjusted_plan.csv").exists()
    assert (out / "shifts.csv").exists()
    assert (out / "report.json").exists()


def test_report_contents(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    run_cli("--input", str(golden_csv), "--output-dir", str(out))
    doc = json.loads((out / "report.json").read_text())
    assert doc["objective_after"] == "3/2"
    assert doc["transfers"] == [3, -3, -5]
    assert doc["optimal"] is True
    # the emitted plan matches the report's realized state
    adjusted = (out / "adjusted_plan.csv").read_text().splitlines()
    assert adjusted[0] == "month_1,month_2,month_3,month_4"
    rows = [tuple(int(v) for v in line.split(",")) for line in adjusted[1:]]
    sums = tuple(sum(col) for col in zip(*rows))
    assert sums == (50, 43, 46, 46)


def test_outputs_byte_identical_across_runs(golden_csv: Path, tmp_path: Path):
    a, b = tmp_path / "a", tmp_path / "b"
    cp1 = run_cli("--input", str(golden_csv), "--output-dir", str(a))
    cp2 = run_cli("--input", str(golden_csv), "--output-dir", str(b))
    # the final stdout line names the output directory; the rest must match
    assert cp1.stdout.splitlines()[:-1] == cp2.stdout.splitlines()[:-1]
    for name in ("adjusted_plan.csv", "shifts.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_greedy_method(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli("--input", str(golden_csv), "--output-dir", str(out), "--method", "greedy")
    assert cp.returncode == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["method"] == "greedy"
    assert doc["transfers"] == [4, -2, -4]
    assert doc["optimal"] is False


def test_bisection_falls_back_when_length_unsupported(tmp_path: Path):
    plan = tmp_path / "plan.csv"
    plan.write_text("5,9,2\n")
    out = tmp_path / "out"
    cp = run_cli("--input", str(plan), "--output-dir", str(out), "--method", "bisection")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads((out / "report.json").read_text())
    assert doc["method"] == "exact"
    assert doc["requested_method"] == "bisection"


def test_quadratic_objective(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out), "--objective", "quadratic",
    )
    assert cp.returncode == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["objective"] == "quadratic"
    assert doc["objective_after"] == "3/4"


def test_verify_reports_match(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli("--input", str(golden_csv), "--output-dir", str(out), "--verify")
    assert cp.returncode == 0
    assert "oracle check: match" in cp.stdout
    doc = json.loads((out / "report.json").read_text())
    assert doc["oracle"]["match"] is True
    assert doc["oracle"]["transfers"] == [3, -3, -5]
    assert doc["oracle"]["gap"] == "0"


def test_verify_on_heuristic_reports_gap(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out),
        "--method", "greedy", "--verify",
    )
    assert cp.returncode == 0
    doc = json.loads((out / "report.json").read_text())
    # greedy happens to hit the optimal value here, so the gap is zero
    # even though its vector differs from the oracle's
    assert doc["oracle"]["gap"] == "0"
    assert doc["oracle"]["match"] is True


def test_shifts_only_mode(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out),
        "--shifts-only", "--transfers", "4,-2,-4",
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads((out / "report.json").read_text())
    assert doc["method"] == "supplied-transfers"
    assert doc["transfers"] == [4, -2, -4]
    assert doc["optimal"] is False
    assert doc["objective_after"] == "3/2"
    assert doc["objective_realized"] == "25/2"


def test_shifts_only_transfers_may_start_negative(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out),
        "--shifts-only", "--transfers", "-3,3,5",
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads((out / "report.json").read_text())
    assert doc["transfers"] == [-3, 3, 5]


def test_shifts_only_abbreviated_flag_may_start_negative(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out),
        "--shifts-only", "--transfer", "-3,3,5",
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads((out / "report.json").read_text())
    assert doc["transfers"] == [-3, 3, 5]


def test_transfers_accept_ascii_digits_only(golden_csv: Path, tmp_path: Path):
    # "1_0" is 10 to int(); the flag follows the plan cells' digit rule
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(tmp_path / "out"),
        "--shifts-only", "--transfers", "1_0,0,0",
    )
    assert cp.returncode == 4
    assert not (tmp_path / "out").exists()


def test_shifts_only_verify_checks_each_boundary(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out),
        "--shifts-only", "--transfers", "3,-3,-5", "--verify",
    )
    assert cp.returncode == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["oracle"]["mode"] == "subset-selection"
    assert doc["oracle"]["match"] is True


def test_shifts_only_verify_skips_cells_claimed_backward(golden_csv: Path, tmp_path: Path):
    # boundary 1 pulls month 2's 1-hour cell back; boundary 2's forward
    # pool is then 20, 8 and 11, and none of them fits under 3
    out = tmp_path / "out"
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out),
        "--shifts-only", "--transfers", "-3,3,0", "--verify",
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads((out / "report.json").read_text())
    assert [entry["best_achievable"] for entry in doc["oracle"]["boundaries"]] == [1, 0]
    assert doc["oracle"]["match"] is True


def test_months_flag_validates(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    ok = run_cli("--input", str(golden_csv), "--output-dir", str(out), "--months", "4")
    assert ok.returncode == 0
    bad = run_cli("--input", str(golden_csv), "--output-dir", str(out), "--months", "12")
    assert bad.returncode == 2
    assert "12" in bad.stderr


# int() reads "1_2", Arabic-Indic digits and "+12" as 12; no plan has 0,
# 1 or -4 months
@pytest.mark.parametrize("months", ["1_2", "\u0661\u0662", "+12", "0", "1", "-4"])
def test_months_flag_is_a_month_count(months: str, tmp_path: Path):
    plan = tmp_path / "plan.csv"
    plan.write_text(",".join(["1"] * 12) + "\n")
    out = tmp_path / "out"
    cp = run_cli("--input", str(plan), "--output-dir", str(out), "--months", months)
    assert cp.returncode == 4, cp.stderr
    assert "--months" in cp.stderr
    assert not out.exists()


def test_exit_parse_errors(tmp_path: Path):
    missing = run_cli("--input", str(tmp_path / "nope.csv"), "--output-dir", str(tmp_path / "o"))
    # Python's own "No module named ..." also exits 1, so the message
    # must be the program's, not just any failure
    assert missing.returncode == 1
    assert missing.stderr.startswith("repair-leveler: parse error")
    bad = tmp_path / "bad.csv"
    # the second file has a good row below the bad one, which must not
    # turn the bad row into a header
    for text in ("1,x\n", "1,x\n2,3\n", "+5,+6\n1,2\n"):
        bad.write_text(text)
        cp = run_cli("--input", str(bad), "--output-dir", str(tmp_path / "o"))
        assert cp.returncode == 1, text
        assert cp.stderr.startswith("repair-leveler: parse error"), text
    bad.write_bytes(b"1,2\n\xff,3\n")  # not UTF-8
    cp = run_cli("--input", str(bad), "--output-dir", str(tmp_path / "o"))
    assert cp.returncode == 1
    assert cp.stderr.startswith("repair-leveler: parse error")


@pytest.mark.parametrize(
    "cell, where",
    [("7" * 5000, "row 3, column 2"), ("x" * 200_000, "row 3")],
    ids=["too-many-digits", "past-csv-field-limit"],
)
def test_exit_parse_error_on_oversized_cell(cell: str, where: str, tmp_path: Path):
    if len(cell) == 5000 and not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        pytest.skip("this interpreter reads a 5000-digit integer")
    plan = tmp_path / "plan.csv"
    plan.write_text(f"month_1,month_2\n1,2\n3,{cell}\n")
    cp = run_cli("--input", str(plan), "--output-dir", str(tmp_path / "o"))
    assert cp.returncode == 1, cp.stderr
    # the program's one diagnostic line, no traceback, and not the value
    assert cp.stderr.startswith(f"repair-leveler: parse error: {where}")
    assert cp.stderr.count("\n") == 1
    assert len(cp.stderr) < 150
    assert not (tmp_path / "o").exists()


def test_exit_unwritable_output_dir(golden_csv: Path, tmp_path: Path):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    cp = run_cli("--input", str(golden_csv), "--output-dir", str(taken))
    assert cp.returncode == 4
    assert cp.stderr.startswith("repair-leveler: cannot write outputs:")
    assert "Traceback" not in cp.stderr


def test_exit_infeasible_transfers(golden_csv: Path, tmp_path: Path):
    out = tmp_path / "out"
    cp = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out),
        "--shifts-only", "--transfers", "99,0,0",
    )
    assert cp.returncode == 2
    short = run_cli(
        "--input", str(golden_csv), "--output-dir", str(out),
        "--shifts-only", "--transfers", "1,2",
    )
    assert short.returncode == 2


def test_exit_budget_exceeded(tmp_path: Path):
    plan = tmp_path / "wide.csv"
    plan.write_text("10,10,10,10,10,10,10\n")
    cp = run_cli(
        "--input", str(plan), "--output-dir", str(tmp_path / "o"), "--verify",
    )
    assert cp.returncode == 3


def test_exit_usage_errors(golden_csv: Path, tmp_path: Path):
    out = str(tmp_path / "out")
    cases = (
        ("--input", str(golden_csv), "--output-dir", out, "--method", "nope"),
        ("--input", str(golden_csv), "--output-dir", out, "--shifts-only"),
        ("--input", str(golden_csv), "--output-dir", out, "--transfers", "1,0,0"),
        ("--input", str(golden_csv), "--output-dir", out, "--transfers", "1,zz,0", "--shifts-only"),
        ("--input", str(golden_csv), "--output-dir", out, "--shifts-only", "--transfers=-3,3,0", "--method", "greedy"),
        ("--output-dir", out),
    )
    for args in cases:
        cp = run_cli(*args)
        assert cp.returncode == 4, args
        assert cp.stderr.count("error:") == 1, cp.stderr


def test_default_output_dir_is_cwd(golden_csv: Path, tmp_path: Path):
    cp = subprocess.run(
        [sys.executable, "-m", "repair_leveler", "--input", str(golden_csv)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "report.json").exists()


def test_report_honesty_against_emitted_files(golden_csv: Path, tmp_path: Path):
    # every objective in the report must be reproducible from the files
    # sitting next to it
    from fractions import Fraction

    from helpers import direct_deviation
    from repair_leveler import Objective, apply_shift_matrix, column_sums, parse_plan

    for objective in Objective:
        out = tmp_path / objective.value
        cp = run_cli(
            "--input", str(golden_csv), "--output-dir", str(out),
            "--objective", objective.value,
        )
        assert cp.returncode == 0
        doc = json.loads((out / "report.json").read_text())
        original = parse_plan(golden_csv)
        emitted = parse_plan(out / "adjusted_plan.csv")
        assert direct_deviation(column_sums(original), objective) == Fraction(doc["objective_before"])
        assert direct_deviation(column_sums(emitted), objective) == Fraction(doc["objective_realized"])
        # the emitted shift matrix reproduces the emitted plan
        shifts_rows = (out / "shifts.csv").read_text().splitlines()[1:]
        from repair_leveler import ShiftMatrix

        shifts = ShiftMatrix(tuple(
            tuple(int(v) for v in line.split(",")) for line in shifts_rows
        ))
        assert apply_shift_matrix(original, shifts).entries == emitted.entries


def test_run_pipeline_in_process(golden_csv: Path, tmp_path: Path, capsys):
    from repair_leveler.cli import run_pipeline

    out = tmp_path / "out"
    status = run_pipeline(["--input", str(golden_csv), "--output-dir", str(out)])
    assert status == 0
    assert (out / "report.json").exists()
    assert "after 3/2" in capsys.readouterr().out


def test_library_import_leaves_cli_unloaded():
    import repair_leveler

    src = str(Path(repair_leveler.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repair_leveler; "
        "print('repair_leveler.cli' in sys.modules)"
    )
    cp = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "False\n"


def test_cold_start_skips_heavy_stdlib_modules():
    # -S keeps site from preloading anything, so the child sees only what
    # the command line itself imports; it also drops an editable install's
    # path hook, hence the explicit src entry
    import repair_leveler

    src = str(Path(repair_leveler.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from repair_leveler.cli import build_parser; build_parser(); "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))"
    )
    cp = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\n", f"the command line's import loads {cp.stdout.strip()}"


def test_public_names_are_pinned():
    # written out in full so that adding or removing a public name shows in the diff
    import repair_leveler

    assert repair_leveler.__all__ == [
        "AnnualPlan", "MonthlyLoads", "TransferVector", "ShiftMatrix",
        "column_sums", "mean_load", "validate_transfers", "apply_transfers", "apply_shift_matrix",
        "Objective", "deviation", "SolverConfig", "SolveResult", "StandardFormQP", "ShiftedVariableForm",
        "solve_exact", "solve_bisection", "solve_greedy", "standard_form",
        "SelectionProblem", "RealizationResult", "subset_select", "realize_transfers",
        "OracleBudget", "brute_force_transfers", "brute_force_shifts", "brute_force_subset",
        "parse_plan", "write_plan", "write_shift_matrix", "build_report", "render_report", "standard_form_to_dict",
        "LevelingError", "PlanError", "BudgetExceededError", "PlanParseError",
        "__version__",
    ]
    assert all(hasattr(repair_leveler, name) for name in repair_leveler.__all__)


def test_run_pipeline_reuses_its_parser(golden_csv: Path, tmp_path: Path, capsys, monkeypatch):
    # a good call, a usage error, a good call: each behaves as a fresh
    # process does, and none builds a parser of its own
    from repair_leveler import cli

    def no_build():
        raise AssertionError("run_pipeline built a new parser")

    monkeypatch.setattr(cli, "build_parser", no_build)

    good = ["--input", str(golden_csv), "--output-dir", str(tmp_path / "out")]
    fresh_good = run_cli(*good)
    bad = ["--input", str(golden_csv), "--method", "nope"]
    fresh_bad = run_cli(*bad)
    assert fresh_bad.returncode == 4

    outputs = []
    for argv in (good, bad, good):
        try:
            status = cli.run_pipeline(argv)
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        outputs.append((status, captured.out, captured.err))
        if argv is good:
            assert (tmp_path / "out" / "report.json").exists()
    assert outputs[0] == outputs[2] == (0, fresh_good.stdout, fresh_good.stderr)
    assert outputs[1] == (4, fresh_bad.stdout, fresh_bad.stderr)
