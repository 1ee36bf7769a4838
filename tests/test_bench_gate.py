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


def _declare(tree: Path, entries: dict) -> None:
    path = tree / gate.DECLARED
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(entries))


MOVED = ("weekly-52", 1, 1)
MOVED_KEY = "weekly-52 seed 1 trace 1"
MOVED_ENTRY = {"digest": "moved", "counts": {**COUNTS, "solvers.visited_states": 5}}


def _move(tree: Path) -> None:
    _write(tree, *MOVED, MOVED_ENTRY["digest"], MOVED_ENTRY["counts"])


def test_a_declared_move_passes(trees):
    head, base = trees
    _move(head)
    _declare(head, {MOVED_KEY: MOVED_ENTRY})
    assert gate.problems(head, base, BASELINE) == []
    labels = [label for label, _, _ in gate.checks(head, base, BASELINE) if label.startswith(MOVED_KEY)]
    assert f"{MOVED_KEY} digest against its declaration" in labels
    assert f"{MOVED_KEY} base tree differs from its declaration" in labels
    assert not any(label.endswith("against the base tree") for label in labels)


def test_an_undeclared_move_fails(trees):
    head, base = trees
    _move(head)
    _declare(head, {"annual-exact seed 2 trace 0": {"digest": "other", "counts": {}}})
    _write(head, "annual-exact", 2, 0, "other", {})
    assert gate.problems(head, base, BASELINE) == [
        f"{MOVED_KEY} digest against the base tree",
        f"{MOVED_KEY} solvers.visited_states against the base tree",
    ]


def test_a_run_that_misses_its_declaration_fails(trees):
    head, base = trees
    _write(head, *MOVED, "moved", dict(COUNTS))
    _declare(head, {MOVED_KEY: MOVED_ENTRY})
    assert gate.problems(head, base, BASELINE) == [f"{MOVED_KEY} solvers.visited_states against its declaration"]


def test_a_declaration_for_a_run_that_did_not_move_fails(trees):
    head, base = trees
    _move(head)
    _move(base)
    _declare(head, {MOVED_KEY: MOVED_ENTRY})
    assert gate.problems(head, base, BASELINE) == [f"{MOVED_KEY} base tree differs from its declaration"]


def test_an_entry_carried_from_the_base_holds_its_run_to_the_base_tree(trees):
    # the base tree's program emits the declared output; this tree must match it
    head, base = trees
    for tree in trees:
        _declare(tree, {MOVED_KEY: MOVED_ENTRY})
    assert gate.problems(head, base, BASELINE) == []
    _move(base)
    assert gate.problems(head, base, BASELINE) == [
        f"{MOVED_KEY} digest against the base tree",
        f"{MOVED_KEY} solvers.visited_states against the base tree",
    ]
    _move(head)
    assert gate.problems(head, base, BASELINE) == []


def test_an_unknown_run_key_fails(trees):
    head, base = trees
    _declare(head, {"weekly-52 seed 11 trace 0": {"digest": "x", "counts": {}}})
    assert gate.problems(head, base, BASELINE) == ["declared weekly-52 seed 11 trace 0"]
