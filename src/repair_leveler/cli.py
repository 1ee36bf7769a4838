"""Batch command line: parse a plan, level it, realize the moves, write files.

Exit codes: 0 success, 1 parse error, 2 infeasible or constraint
violation, 3 oracle budget exceeded, 4 bad flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import errors  # _abridged by the module: the benchmark's tracer wraps each function cli binds, and errors is no layer
from .errors import BudgetExceededError, LevelingError, PlanError, PlanParseError
from .io import _INTEGER, _put_number, build_report, parse_plan, render_report, write_plan, write_shift_matrix
from .oracle import brute_force_subset, brute_force_transfers
from .plan import TransferVector, apply_transfers, column_sums
from .realization import RealizationResult, SelectionProblem, realize_transfers
from .solvers import Objective, SolveResult, SolverConfig, deviation, solve_bisection, solve_exact, solve_greedy

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONSTRAINT = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means infeasible here
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _flag_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(f"a {len(text)}-character integer is too long") from None


def _transfer_list(text: str) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",")]
    # the plan cells' rule: ASCII digits with an optional leading "-"
    if not all(_INTEGER.fullmatch(part) for part in parts):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {errors._abridged(text)}")
    return tuple(map(_flag_int, parts))


def _month_count(text: str) -> int:
    value = text.strip()
    # the plan cells' rule again, and no plan has fewer than two months
    if _INTEGER.fullmatch(value) and (count := _flag_int(value)) >= 2:
        return count
    raise argparse.ArgumentTypeError(f"expected an integer of at least 2, got {errors._abridged(text)}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repair-leveler",
        description="Level an annual repair plan by moving work across month boundaries, "
        "then pick the concrete repairs that realize each move.",
    )
    parser.add_argument("--input", required=True, help="plan CSV: one row per equipment item, one integer column per month")
    parser.add_argument("--output-dir", default=".", help="where adjusted_plan.csv, shifts.csv and report.json go (default: current directory)")
    # None marks an omitted --method: --shifts-only refuses any other value, a solved run reads it as exact
    parser.add_argument("--method", choices=("exact", "bisection", "greedy"), default=None, help="transfer solver (default: exact)")
    parser.add_argument("--objective", choices=[o.value for o in Objective], default=Objective.L1.value, help="deviation metric to minimize (default: l1)")
    parser.add_argument("--months", type=_month_count, default=None, help="validate that the plan has exactly this many months")
    parser.add_argument("--verify", action="store_true", help="cross-check the result against the exhaustive reference search")
    parser.add_argument("--shifts-only", action="store_true", help="skip solving; realize the vector given via --transfers")
    parser.add_argument("--transfers", type=_transfer_list, default=None, metavar="X1,X2,...", help='precomputed transfer vector, e.g. "4,-2,-4" (requires --shifts-only)')
    return parser


def _joined_transfers(argv: list[str]) -> list[str]:
    """Glue each --transfers flag, or an abbreviation argparse accepts for
    it, to the token after it, so that a vector starting with a negative
    flow is not taken for a flag. An abbreviation that is ambiguous is
    still refused by argparse in its glued form."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        if len(token) > 2 and "--transfers".startswith(token):
            value = next(tokens, None)
            if value is not None:
                token = f"--transfers={value}"
        out.append(token)
    return out


def _solve(loads, objective: Objective, method: str) -> SolveResult:
    config = SolverConfig(objective)
    if method == "greedy":
        return solve_greedy(loads, config)
    if method == "bisection":
        return solve_bisection(loads, config)
    return solve_exact(loads, config)


def _oracle_transfer_block(loads, objective: Objective, result: SolveResult) -> dict:
    """An optimal result must equal the oracle's vector; any other must not beat it."""
    reference = brute_force_transfers(loads, objective)
    gap = result.objective_value - reference.objective_value
    # equal vectors on the same loads give equal objectives
    match = result.transfers == reference.transfers if result.optimal else gap >= 0
    block = {"mode": "transfer-search"}
    _put_number(block, "objective", reference.objective_value)
    block["transfers"] = list(reference.transfers.x)
    _put_number(block, "gap", gap)
    block["match"] = match
    return block


def _oracle_subset_block(transfers: TransferVector, realization: RealizationResult) -> dict:
    """Check each boundary's achieved hours against the exhaustive subset
    scan over the donor pool realization chose from."""
    entries = []
    for b, (x, items) in enumerate(zip(transfers.x, realization.pools)):
        if x == 0:
            continue
        reference = brute_force_subset(SelectionProblem(items, abs(x)))
        best = sum(items[c] for c in reference)
        ok = best == realization.achieved[b]
        entries.append({"boundary": b + 1, "best_achievable": best, "achieved": realization.achieved[b], "match": ok})
    return {"mode": "subset-selection", "boundaries": entries, "match": all(entry["match"] for entry in entries)}


def _run(args) -> int:
    plan = parse_plan(args.input)
    if args.months is not None and plan.n != args.months:
        raise PlanError(f"plan has {plan.n} months, --months asked for {errors._abridged(args.months)}")
    loads = column_sums(plan)
    objective = Objective(args.objective)

    requested_method = None
    if args.shifts_only:
        transfers = TransferVector(args.transfers)
        after = deviation(apply_transfers(loads, transfers), objective)
        result = SolveResult(transfers, after, "supplied-transfers", False, 0)
    else:
        method = args.method or "exact"
        result = _solve(loads, objective, method)
        if result.method != method:  # bisection answers other month counts exactly
            requested_method = method

    realization = realize_transfers(plan, result.transfers)

    oracle_block = None
    if args.verify:
        if args.shifts_only:
            oracle_block = _oracle_subset_block(result.transfers, realization)
        else:
            oracle_block = _oracle_transfer_block(loads, objective, result)

    report = build_report(plan, objective, result, realization, requested_method, oracle_block)

    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_plan(realization.adjusted_plan, out_dir / "adjusted_plan.csv")
        write_shift_matrix(realization.shift_matrix, out_dir / "shifts.csv")
        (out_dir / "report.json").write_text(render_report(report), encoding="utf-8")
    except OSError as exc:  # the --output-dir value is unusable
        print(f"repair-leveler: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print("plan: {equipment} items x {months} months, {total_hours} hours, mean {mean}".format_map(report["input"]))
    print(
        f"method {result.method}, objective {objective.value}: "
        f"before {report['objective_before']}, after {report['objective_after']}, "
        f"realized {report['objective_realized']}"
    )
    if oracle_block is not None:
        print(f"oracle check: {'match' if oracle_block['match'] else 'MISMATCH'}")
    print(f"wrote adjusted_plan.csv, shifts.csv, report.json to {out_dir}")
    return EXIT_OK


_PARSER = build_parser()  # parsing leaves it unchanged, so every call shares it


def run_pipeline(argv=None) -> int:
    """Parse flags, run the full pipeline, and return the exit status.

    Equivalent to invoking the command line; output files land in the
    requested directory and diagnostics go to stderr.
    """
    parser = _PARSER
    args = parser.parse_args(_joined_transfers(sys.argv[1:] if argv is None else list(argv)))
    if args.shifts_only and args.transfers is None:
        parser.error("--shifts-only requires --transfers")
    if args.transfers is not None and not args.shifts_only:
        parser.error("--transfers is only accepted together with --shifts-only")
    if args.method is not None and args.shifts_only:
        parser.error("--method is not accepted together with --shifts-only")
    try:
        return _run(args)
    except PlanParseError as exc:
        print(f"repair-leveler: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"repair-leveler: oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except LevelingError as exc:  # every other package error is a constraint violation
        print(f"repair-leveler: infeasible: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
