"""Leveling benchmark: drive generated plans through the CLI entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload annual-exact --seed 1 --seconds 30 --trace 0

The workload's plans are generated from the seed and written as CSV
files before any timing. Each plan then goes through
`repair_leveler.cli.run_pipeline(argv)` in this process, one call after
another (closed loop, one client, no extra threads), and every emitted
file is checked.

With `--trace 0` the run makes passes over the plans for `--seconds`
seconds and reports the end-to-end metrics. A fixed reference task that
does not use the package runs between plan calls, and each call's time
is taken relative to the reference time around it, which cancels the
host's speed drift. With `--trace 1` it makes one pass in which every
plan runs twice, traced and untraced in alternating order, and reports
the per-layer metrics; `--seconds` is not used there.

The last line of standard output is one JSON object; the lines before it
print each metric with its unit and sample count. Results and spans are
kept under `.perfbench_out/` in the repository root. See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from checks import OUTPUT_FILES, check_outputs, deviation
from tracing import LAYERS, Tracer
from workloads import REFERENCE, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2
SETUP_REPS_PER_PASS = 3
REF_LOOP = 10_000
REF_ITEMS = tuple(i * 37 % 29 + 3 for i in range(16))
REF_CAPACITY = 240
REF_CSV = "".join(f"{i},{i * 7 % 50},{i * 13 % 40},0\n" for i in range(12))
RUN_LIMIT_S = 150  # stop well inside the three-minute limit on a pathological slowdown

SETUP_CODE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repair_leveler.cli import build_parser
build_parser()
print(time.perf_counter() - t)
"""


def load_package():
    if not (SRC / "repair_leveler" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    from repair_leveler import cli, realization
    from repair_leveler.plan import MonthlyLoads
    from repair_leveler.solvers import Objective, SolverConfig, solve_greedy

    if Path(cli.__file__).resolve().parent != SRC / "repair_leveler":
        sys.exit(f"perfbench: imported {cli.__file__}, not the package under {SRC}")

    def greedy_value(loads, objective):
        config = SolverConfig(objective=Objective(objective))
        return solve_greedy(MonthlyLoads(tuple(loads)), config).objective_value

    return cli, realization, greedy_value


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a record of host speed, never used to rescale."""
    start = perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def reference_task(scratch: Path, kind: str) -> float:
    """Seconds for a fixed task that does not use the package.

    Both kinds run a pure-Python integer loop. The `compute` task adds a
    small subset DP over a dict of tuples: the two make up the solvers'
    and `subset_select`'s inner loops. The `pipeline` task adds what
    else a short pipeline call does: argument parsing, CSV and JSON, and
    writing, reading and removing small files. The host's speed drifts
    by a third over tens of seconds, so a plan call's time divided by
    the task's time around it stays steady where either alone does not.
    """
    start = perf_counter()
    if kind == "pipeline":
        _pipeline_work(scratch)
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc * 31 + i) % 1_000_003
    if kind == "compute":
        _subset_dp()
    return perf_counter() - start


def _subset_dp() -> None:
    best = {0: (0, ())}
    for i, a in enumerate(REF_ITEMS):
        for total, (count, picked) in list(best.items()):
            if total + a <= REF_CAPACITY:
                key = (count + 1, picked + (i,))
                if best.get(total + a, key) >= key:
                    best[total + a] = key


def _pipeline_work(scratch: Path) -> None:
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("--input")
    parser.add_argument("--months", type=int)
    parser.parse_args(["--input", "plan.csv", "--months", "12"])
    rows = [list(map(int, row)) for row in csv.reader(io.StringIO(REF_CSV))]
    scratch.mkdir()
    (scratch / "plan.csv").write_text(REF_CSV, encoding="utf-8")
    (scratch / "report.json").write_text(json.dumps({"rows": rows, "sums": [sum(r) for r in rows]}, indent=2))
    json.loads((scratch / "report.json").read_text(encoding="utf-8"))
    shutil.rmtree(scratch)


def setup_time() -> float:
    """Seconds a fresh interpreter takes to import the package and build the CLI parser."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def output_digest(out_dir: Path) -> tuple[bytes, int]:
    h = hashlib.sha256()
    size = 0
    for name in OUTPUT_FILES:
        data = (out_dir / name).read_bytes()
        size += len(data)
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return h.digest(), size


def share(part, whole) -> float:
    return float(part / whole) if whole else 0.0


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


class Runner:
    """Runs and checks single plans; accumulates the exact output totals."""

    def __init__(self, cli, greedy_value, cases, work: Path, started: float):
        self.cli = cli
        self.started = started
        self.greedy_value = greedy_value
        self.cases = cases
        self.out_dirs = []
        self.argvs = []
        for index, case in enumerate(cases):
            path = work / f"p{index:04d}.csv"
            path.write_text(case.csv_text(), encoding="utf-8")
            self.out_dirs.append(work / f"p{index:04d}")
            self.argvs.append(["--input", str(path), "--output-dir", str(self.out_dirs[-1]), *case.flags])
        self.digests: list[bytes | None] = [None] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.objective_before = Fraction(0)
        self.objective_realized = Fraction(0)
        self.l1_before = Fraction(0)  # plans the program solved, in hours
        self.l1_realized = Fraction(0)
        self.residual = 0
        self.requested = 0
        self.oracle_runs = 0
        self.oracle_matches = 0

    def call(self, index: int) -> float:
        """Run plan `index` once, check it, and return its wall seconds."""
        argv = self.argvs[index]
        start = perf_counter()
        try:
            status = self.cli.run_pipeline(argv)
        except SystemExit as exc:  # argparse rejects flags by exiting
            status = exc.code
        except Exception:  # keep measuring; the failure is counted and shown
            traceback.print_exc()
            status = "exception"
        elapsed = perf_counter() - start
        self.attempted += 1
        problems = self._check(index, status)
        # Every run writes fresh files. Truncating the previous run's files
        # can wait on the host's disk writeback, which made later passes
        # up to twice as slow as the first, by an amount the host decides.
        shutil.rmtree(self.out_dirs[index], ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"perfbench: plan {index} ({' '.join(argv[4:])}): {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def _check(self, index: int, status) -> list[str]:
        if status != 0:
            return [f"exit status {status}"]
        out_dir = self.out_dirs[index]
        try:
            digest, size = output_digest(out_dir)
        except OSError as exc:
            return [f"missing output: {exc}"]
        known = self.digests[index]
        if known is not None:
            # already fully checked once; later runs must emit the same bytes
            return [] if digest == known else ["outputs differ from the first run of this plan"]
        case = self.cases[index]
        try:
            problems, report, adjusted_loads = check_outputs(case.rows, case.flags, out_dir, self.greedy_value)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]
        if "oracle" in report:
            self.oracle_runs += 1
            self.oracle_matches += report["oracle"]["match"] is True
        if problems:
            return problems
        self.digests[index] = digest
        self.bytes_out += size
        self.objective_before += Fraction(report["objective_before"])
        self.objective_realized += Fraction(report["objective_realized"])
        for entry in report["boundaries"]:
            self.residual += entry["residual"]
            self.requested += abs(entry["requested"])
        if "--method" in case.flags:  # shifts-only transfers are random, not leveling
            self.l1_before += deviation(report["input"]["column_sums"], "l1")
            self.l1_realized += deviation(adjusted_loads, "l1")
        return []

    def workload_digest(self) -> str:
        if None in self.digests:
            return "incomplete"
        return hashlib.sha256(b"".join(self.digests)).hexdigest()


def untraced_run(runner: Runner, seconds: float, reference, host: dict) -> tuple[dict, dict]:
    """Make passes over the plans for `seconds`; a plan's figure is its median over the passes.

    Each call is timed on its own and divided by the mean of the
    reference task's times just before and just after it (`reference()`
    runs the task once and returns its seconds). That ratio is what the
    bounded metrics report: the host's speed moves both alike, a change
    to the program moves only the call. Returns those metrics and the
    same figures in wall seconds, which are reported as diagnostics.
    Set-up time and the calibration loop are sampled after every pass;
    `host` receives the calibration samples, each pass's seconds and the
    reference task's median per pass, as a record of host speed.
    """
    ratios: list[list[float]] = [[] for _ in runner.cases]
    walls: list[list[float]] = [[] for _ in runner.cases]
    setup: list[float] = []
    setup_time()  # unrecorded: compiles bytecode, which users pay once per install
    for _ in range(3):  # unrecorded: warms the reference task's imports and files
        reference()
    deadline = perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or perf_counter() < deadline:
        before = reference()
        refs = []
        for index in range(len(runner.cases)):
            if passes >= MIN_PASSES and perf_counter() >= deadline:
                break
            if perf_counter() - runner.started > RUN_LIMIT_S:
                runner.failed += 1
                print("perfbench: run limit reached before the minimum passes", file=sys.stderr)
                return {}, {}
            elapsed = runner.call(index)
            after = reference()
            walls[index].append(elapsed)
            ratios[index].append(elapsed / ((before + after) / 2))
            refs.append(after)
            before = after
        passes += 1
        if refs:
            host["pass_s"].append(sum(t[-1] for t in walls if len(t) == passes))
            host["reference_ms"].append(statistics.median(refs) * 1e3)
        setup.extend(setup_time() for _ in range(SETUP_REPS_PER_PASS))
        host["calibration_s"].append(calibrate())
    host["passes"] = passes
    hours = sum(case.hours for case in runner.cases)
    per_plan = sorted(statistics.median(r) for r in ratios)
    per_plan_s = sorted(statistics.median(w) for w in walls)
    samples = min(len(r) for r in ratios)
    metrics = {
        "plan_ref_p50": (statistics.median(per_plan), "ref", len(per_plan)),
        "plan_ref_p90": (nearest_rank(per_plan, 0.9), "ref", len(per_plan)),
        "hours_per_ref": (hours / sum(per_plan), "h/ref", len(per_plan) * samples),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    raw = {
        "plan_s_p50": (statistics.median(per_plan_s), "s"),
        "plan_s_p90": (nearest_rank(per_plan_s, 0.9), "s"),
        "hours_per_s": (hours / sum(per_plan_s), "h/s"),
    }
    return metrics, raw


def traced_run(runner: Runner, tracer: Tracer) -> dict:
    wall = {False: 0.0, True: 0.0}
    for index in range(len(runner.cases)):
        if perf_counter() - runner.started > RUN_LIMIT_S:
            runner.failed += 1
            print("perfbench: run limit reached before a full pass", file=sys.stderr)
            break
        # alternate which mode goes first so warm-up effects cancel
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.install(index)
            try:
                wall[traced] += runner.call(index)
            finally:
                if traced:
                    tracer.uninstall()
    names = tracer.self_times()
    layers = tracer.self_times("layer")
    counts = tracer.counts
    solver_s = sum(v for k, v in names.items() if k.startswith("solve_"))
    metrics = {f"{layer}.self_s": (layers[layer], "s") for layer in LAYERS}
    metrics.update({
        "solvers.exact_s": (names.get("solve_exact", 0.0), "s"),
        "solvers.bisection_s": (names.get("solve_bisection", 0.0), "s"),
        "solvers.greedy_s": (names.get("solve_greedy", 0.0), "s"),
        "solvers.visited_states": (counts["solvers.visited_states"], "count"),
        "solvers.ns_per_state": (share(solver_s * 1e9, counts["solvers.visited_states"]), "ns"),
        "realization.realize_self_s": (names.get("realize_transfers", 0.0), "s"),
        "realization.subset_select_s": (names.get("subset_select", 0.0), "s"),
        "realization.subset_calls": (counts["realization.subset_calls"], "count"),
        "realization.donor_items": (counts["realization.donor_items"], "count"),
        "realization.subset_cells": (counts["realization.subset_cells"], "count"),
        "realization.exact_hit_share": (share(counts["exact_hits"], counts["requests"]), "share"),
        "io.parse_s": (names.get("parse_plan", 0.0), "s"),
        "io.report_s": (names.get("build_report", 0.0) + names.get("render_report", 0.0), "s"),
        "io.write_s": (names.get("write_plan", 0.0) + names.get("write_shift_matrix", 0.0), "s"),
        "io.bytes_out": (runner.bytes_out, "bytes"),
        "plan.column_sums_s": (names.get("column_sums", 0.0), "s"),
        "oracle.transfers_s": (names.get("brute_force_transfers", 0.0), "s"),
        "oracle.subset_s": (names.get("brute_force_subset", 0.0), "s"),
        "oracle.states": (counts["oracle.states"], "count"),
        "oracle.match_share": (share(runner.oracle_matches, runner.oracle_runs), "share"),
        "trace.overhead_share": (wall[True] / wall[False] - 1, "share"),
    })
    n = len(runner.cases)
    return {name: (value, unit, n) for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = perf_counter()

    cli, realization, greedy_value = load_package()
    cases = generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    host = {"calibration_s": [calibrate()], "pass_s": [], "reference_ms": []}
    raw: dict = {}
    try:
        runner = Runner(cli, greedy_value, cases, work, started)
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            if args.trace:
                tracer = Tracer(cli, realization)
                metrics = traced_run(runner, tracer)
            else:
                reference = functools.partial(reference_task, work / "reference", REFERENCE[args.workload])
                metrics, raw = untraced_run(runner, args.seconds, reference, host)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["calibration_s"].append(calibrate())
    calibration = host["calibration_s"]

    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
        metrics["host.calib_ms"] = (statistics.median(calibration) * 1e3, "ms", len(calibration))
    else:
        n = len(cases)
        metrics.update({
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
            "achieved_share": (share(runner.requested - runner.residual, runner.requested), "share", n),
            "leveled_share": (1 - share(runner.l1_realized, runner.l1_before), "share", n),
        })

    # Reported beside the metrics, not as bounded metrics: failed_share is 0
    # on a correct run, and the other two sit close to 0 on most workloads,
    # where their seed-to-seed spread is far wider than any usable bound.
    diagnostics = {
        "failed_share": share(runner.failed, runner.attempted),
        "realized_ratio": share(runner.objective_realized, runner.objective_before),
        "residual_share": share(runner.residual, runner.requested),
    }
    digest = runner.workload_digest()
    counts = {k: metrics[k][0] for k in ("solvers.visited_states", "oracle.states", "realization.subset_calls",
                                         "realization.donor_items", "realization.subset_cells") if k in metrics}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(cases)} plans, "
          f"{runner.attempted} runs, {runner.failed} failed")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:30s} {value:>16.6g} {unit:6s} n={samples}")
    for name, value in diagnostics.items():
        print(f"  {name:30s} {value:>16.6g} share  (diagnostic)")
    for name, (value, unit) in raw.items():
        print(f"  {name:30s} {value:>16.6g} {unit:6s} (diagnostic: wall time, moves with the host's speed)")
    if host["reference_ms"]:
        print(f"  reference task: median {statistics.median(host['reference_ms']):.3f} ms per pass "
              f"over {len(host['reference_ms'])} passes")
    print(f"  host calibration loop: median {statistics.median(calibration) * 1e3:.2f} ms "
          f"over {len(calibration)} samples (reported only, never used to rescale)")
    print(f"  output digest: {digest}")
    if args.trace:
        split = tracer.self_times("layer")
        total = sum(split.values()) or 1.0
        print("  layer self-time split: " + ", ".join(f"{k} {v / total:.1%}" for k, v in split.items()))

    correct = runner.failed == 0
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "correct": correct,
        "attempted": runner.attempted, "failed": runner.failed, "digest": digest, "counts": counts,
        "host": host, "diagnostics": diagnostics,
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
    }, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
