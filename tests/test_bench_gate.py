"""The comparisons of CI's benchmark gate, .github/bench_gate.py, on
synthetic result trees: no benchmark run is started here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_gate", ROOT / ".github" / "bench_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

WORKLOADS = ("annual-exact", "fleet-greedy", "weekly-52", "desk-verify")
COUNTS = {"oracle.states": 7, "realization.subset_calls": 3, "solvers.visited_states": 11}


def _digest(w: str, s: int, t: int) -> str:
    return f"{w}-{s}-{t}"


def _write(tree: Path, w: str, s: int, t: int, digest: str, counts: dict) -> None:
    out = tree / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{w}-seed{s}-trace{t}.json").write_text(json.dumps({"digest": digest, "counts": counts}))


def _tree(tree: Path) -> Path:
    tree.mkdir()
    for w, s, t in gate.RUNS:
        _write(tree, w, s, t, _digest(w, s, t), dict(COUNTS) if t else {})
    return tree


BASELINE = {"workloads": {w: {
    "trace0": {"digests": {str(s): _digest(w, s, 0) for s in range(1, 11)}, "counts": {}},
    "trace1": {"digests": {"1": _digest(w, 1, 1)}, "counts": {"1": dict(COUNTS)}},
} for w in WORKLOADS}}


@pytest.fixture
def trees(tmp_path: Path) -> tuple[Path, Path]:
    return _tree(tmp_path / "head"), _tree(tmp_path / "base")


def test_run_list_is_pinned():
    untraced = [(w, s, 0) for w in WORKLOADS for s in range(1, 11)]
    traced = [(w, 1, 1) for w in WORKLOADS] + [("desk-verify", 2, 1), ("desk-verify", 3, 1)]
    assert gate.RUNS == untraced + traced
    assert gate.STALE == {"annual-exact", "weekly-52", "desk-verify"}


def test_equal_trees_pass(trees):
    assert gate.problems(*trees, BASELINE) == []


def test_baseline_comparisons_are_the_current_entries(trees):
    # fleet-greedy's digests, and every workload's seed-1 traced counts but
    # the stale workloads' visited_states; every run is compared with the base
    labels = [label for label, _, _ in gate.checks(*trees, BASELINE)]
    against = sorted(label.removesuffix(" against the baseline") for label in labels if label.endswith("baseline"))
    want = [f"fleet-greedy seed {s} trace 0 digest" for s in range(1, 11)] + ["fleet-greedy seed 1 trace 1 digest"]
    want += [f"{w} seed 1 trace 1 {name}" for w in WORKLOADS for name in COUNTS
             if w == "fleet-greedy" or name != "solvers.visited_states"]
    assert against == sorted(want)
    assert len([label for label in labels if label.endswith("base tree")]) == 40 + 6 * (1 + len(COUNTS))


@pytest.mark.parametrize(
    "side, run, digest, counts",
    [
        ("head", ("weekly-52", 4, 0), "changed", {}),
        ("base", ("desk-verify", 2, 1), None, {**COUNTS, "oracle.states": 8}),
        ("head", ("annual-exact", 1, 1), None, {k: v for k, v in COUNTS.items() if k != "oracle.states"}),
        ("base", ("fleet-greedy", 7, 0), None, {"oracle.states": 0}),
    ],
    ids=["digest", "count", "count-removed", "count-on-base-only"],
)
def test_a_changed_result_fails_and_names_its_run(trees, side, run, digest, counts):
    w, s, t = run
    _write(trees[side == "base"], w, s, t, digest or _digest(w, s, t), counts)
    failed = gate.problems(*trees, BASELINE)
    assert failed and all(label.startswith(f"{w} seed {s} trace {t} ") for label in failed)


def test_a_missing_base_file_fails_and_names_it(trees):
    path = trees[1] / ".perfbench_out" / "desk-verify-seed3-trace1.json"
    path.unlink()
    assert gate.problems(*trees, BASELINE) == [f"desk-verify seed 3 trace 1 result {path}"]


def test_a_wrong_fleet_greedy_baseline_digest_fails(trees):
    # weekly-52's baseline digests are stale, so only fleet-greedy's is compared
    baseline = json.loads(json.dumps(BASELINE))
    baseline["workloads"]["fleet-greedy"]["trace0"]["digests"]["9"] = "old"
    baseline["workloads"]["weekly-52"]["trace0"]["digests"]["9"] = "stale"
    assert gate.problems(*trees, baseline) == ["fleet-greedy seed 9 trace 0 digest against the baseline"]


def test_stale_visited_states_fail_against_the_base_only(trees):
    head, base = trees
    _write(head, "weekly-52", 1, 1, _digest("weekly-52", 1, 1), {**COUNTS, "solvers.visited_states": 12})
    assert gate.problems(head, base, BASELINE) == ["weekly-52 seed 1 trace 1 solvers.visited_states against the base tree"]
    _write(base, "weekly-52", 1, 1, _digest("weekly-52", 1, 1), {**COUNTS, "solvers.visited_states": 12})
    assert gate.problems(head, base, BASELINE) == []


def test_the_recorded_baseline_holds_every_entry_the_gate_reads():
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text(encoding="utf-8"))
    for w, s, t in gate.RUNS:
        recorded = baseline["workloads"][w][f"trace{t}"]
        assert w in gate.STALE or str(s) in recorded["digests"]
        assert (s == 1 and t == 1) == (str(s) in recorded["counts"])
