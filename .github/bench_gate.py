"""The benchmark gate: python3 .github/bench_gate.py BASE_TREE

Runs every run below in this tree, then in BASE_TREE, a checkout of the base
commit whose run.py imports its own src/. Each result's digest and exact counts
must equal the base tree's, and perfbench/baseline.json's where that is current.
Prints one line per comparison; exits 1 when a run or a comparison fails.

A change that moves a run's output on purpose declares it in DECLARED, beside
this file: "<workload> seed <s> trace <t>" maps to the run's new
{"digest", "counts"}. An entry is active when this tree's differs from the base
tree's (a missing file holds no entries). A run with an active entry must equal
it exactly, and the base tree's result must not; any other run is held to the
base tree. An entry for a run not in RUNS fails. perfbench/ changes only with
the benchmark, whose refresh folds these entries into baseline.json.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("annual-exact", "fleet-greedy", "weekly-52", "desk-verify")
# (workload, seed, trace); desk-verify, whose counts hold oracle states, is traced at seeds 1-3
RUNS = ([(w, s, 0) for w in WORKLOADS for s in range(1, 11)] + [(w, 1, 1) for w in WORKLOADS]
        + [("desk-verify", s, 1) for s in (2, 3)])
# baseline.json's digests and solvers.visited_states of these workloads
# predate the linear chain DP; a benchmark refresh re-records them and drops this
STALE = {"annual-exact", "weekly-52", "desk-verify"}
DECLARED = Path(".github", "declared_outputs.json")


def declarations(tree) -> dict:
    """The tree's declared run outputs; none when it has no DECLARED file."""
    path = Path(tree, DECLARED)
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def checks(head, base, baseline: dict):
    """(label, this tree's value, the expected value) for every comparison."""
    declared, carried = declarations(head), declarations(base)
    for run in sorted(declared.keys() - {f"{w} seed {s} trace {t}" for w, s, t in RUNS}):
        yield f"declared {run}", "declared", "a run of the gate"
    for w, s, t in RUNS:
        run = f"{w} seed {s} trace {t}"
        paths = [Path(tree, ".perfbench_out", f"{w}-seed{s}-trace{t}.json") for tree in (head, base)]
        missing = [path for path in paths if not path.is_file()]
        yield from ((f"{run} result {path}", "missing", "present") for path in missing)
        if missing:
            continue
        got, want = (json.loads(path.read_text(encoding="utf-8")) for path in paths)
        against, move = "the base tree", declared.get(run)
        if move is not None and move != carried.get(run):
            moved = {"digest": want["digest"], "counts": want["counts"]} != move
            yield f"{run} base tree differs from its declaration", moved, True
            against, want = "its declaration", move
        yield f"{run} digest against {against}", got["digest"], want["digest"]
        for name in sorted(got["counts"].keys() | want["counts"].keys()):
            yield f"{run} {name} against {against}", got["counts"].get(name), want["counts"].get(name)
        recorded = baseline["workloads"][w][f"trace{t}"]
        if w not in STALE and str(s) in recorded["digests"]:
            yield f"{run} digest against the baseline", got["digest"], recorded["digests"][str(s)]
        counts = recorded["counts"].get(str(s), {})  # seed 1's traced counts
        for name in sorted(got["counts"].keys() | counts.keys() if counts else ()):
            if w not in STALE or name != "solvers.visited_states":
                yield f"{run} {name} against the baseline", got["counts"].get(name), counts.get(name)


def problems(head, base, baseline: dict) -> list[str]:
    """The labels of the failed comparisons."""
    return [label for label, got, want in checks(head, base, baseline) if got != want]


def main(argv: list[str]) -> int:
    head, base, failed = Path(__file__).resolve().parent.parent, Path(argv[1]), []
    for tree in head, base:
        for w, s, t in RUNS:
            args = ["--workload", w, "--seed", str(s), "--seconds", "1", "--trace", str(t)]
            if subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree).returncode:
                failed.append(f"{w} seed {s} trace {t} exited nonzero in {tree}")
    baseline = json.loads((head / "perfbench" / "baseline.json").read_text(encoding="utf-8"))
    for label, got, want in checks(head, base, baseline):
        print(f"{label}: {got}, expected {want}")
    failed += problems(head, base, baseline)
    agreed = f"all {len(RUNS)} runs agree with the base tree or their declarations"
    print("\n".join(f"FAILED: {label}" for label in failed) or agreed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
