"""What the command line emits, checked in-process through run_pipeline.

The pinned digests hold the exact bytes of adjusted_plan.csv, shifts.csv,
report.json and stdout for a fixed set of runs; a change that moves any
emitted byte fails here. The round-trip property re-reads the emitted
files and checks them against the plan they came from.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repair_leveler import (
    AnnualPlan,
    Objective,
    ShiftMatrix,
    apply_shift_matrix,
    column_sums,
    deviation,
    parse_plan,
)
from repair_leveler.cli import run_pipeline

OUTPUT_FILES = ("adjusted_plan.csv", "shifts.csv", "report.json")


def _csv(rows, header: bool = True) -> str:
    lines = [",".join(f"month_{j + 1}" for j in range(len(rows[0])))] if header else []
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _run(rows, flags, work: Path, header: bool = True) -> tuple[int, str, Path]:
    """Write the plan, run the pipeline on it; returns (status, stdout, output dir)."""
    plan = work / "plan.csv"
    plan.write_text(_csv(rows, header), encoding="utf-8")
    out = work / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = run_pipeline(["--input", str(plan), "--output-dir", str(out), *flags])
    return status, stdout.getvalue().replace(str(out), "OUT"), out


def output_digest(rows, flags, work: Path) -> str:
    """sha256 over the three output files and stdout, the output path masked."""
    status, stdout, out = _run(rows, flags, work)
    assert status == 0, stdout
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        data = (out / name).read_bytes()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    h.update(b"stdout\0" + stdout.encode())
    return h.hexdigest()


GOLDEN = ((10, 20, 30, 40), (5, 8, 6, 6), (21, 11, 3, 2), (14, 1, 5, 3))
# bisection's split flows on this one-row plan leave inflows that cannot
# pay any outflow, which the chain DP cuts from its domains
DEAD = ((8, 0, 1, 5, 0, 2, 0, 2),)
# bisection on a month count not divisible by four answers with the exact
# solve and names the requested method; month loads stay inside the oracle
# budget so --verify runs too
SHORT = ((5, 0, 2), (3, 1, 0))
SIX = ((3, 0, 5, 1, 0, 2), (4, 1, 2, 0, 0, 6))


def _lumpy_rows(seed: int, k: int, n: int, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """k x n plan: each month's lo..hi hours split at random cut points
    over a random half of the items, so cells range from one hour to
    most of the month."""
    rng = random.Random(seed)
    cols = []
    for _ in range(n):
        target = rng.randint(lo, hi)
        items = rng.sample(range(k), k // 2)
        cuts = sorted(rng.sample(range(1, target), len(items) - 1))
        col = [0] * k
        for i, a, b in zip(items, [0, *cuts], [*cuts, target]):
            col[i] = b - a
        cols.append(col)
    return tuple(zip(*cols))


# benchmark-sized plans: a fleet year at 400-1200 h a month and a
# 52-week plan at 20-55 h a week
FLEET = _lumpy_rows(1, 100, 12, 400, 1200)
WEEKLY = _lumpy_rows(2, 30, 52, 20, 55)

PINNED_RUNS = {
    **{
        f"golden-{method}-{objective}{'-verify' if verify else ''}": (
            GOLDEN,
            ("--method", method, "--objective", objective) + (("--verify",) if verify else ()),
        )
        for method in ("exact", "bisection", "greedy")
        for objective in ("l1", "quadratic")
        for verify in (False, True)
    },
    "golden-shifts-only-verify": (GOLDEN, ("--shifts-only", "--transfers", "-3,3,0", "--verify")),
    "dead-bisection-l1": (DEAD, ("--method", "bisection", "--objective", "l1")),
    "dead-bisection-quadratic": (DEAD, ("--method", "bisection", "--objective", "quadratic")),
    **{
        f"{name}-bisection-{objective}{'-verify' if verify else ''}": (
            rows,
            ("--method", "bisection", "--objective", objective) + (("--verify",) if verify else ()),
        )
        for name, rows in (("short", SHORT), ("six", SIX))
        for objective in ("l1", "quadratic")
        for verify in (False, True)
    },
    **{
        f"{name}-{method}-{objective}": (rows, ("--method", method, "--objective", objective))
        for name, rows, method in (("fleet", FLEET, "greedy"), ("weekly", WEEKLY, "exact"))
        for objective in ("l1", "quadratic")
    },
}

# recorded from the program before _chain_dp cut its dead states, the
# fleet and weekly runs before parse_plan's one-pass path and realization
# by month column; a change that moves an emitted byte re-records them and
# says why
PINNED_DIGESTS = {
    "dead-bisection-l1": "e7f7e353048c3be22f2f5c6934185cc776c5ca568f763896499fc5a0e8011c9c",
    "dead-bisection-quadratic": "2acee49ded648616bff38c78a0fde319de56b2b2b83636f2b66029ebb3d87386",
    "fleet-greedy-l1": "8026ad67293bb01b389d5acfe7f2571557667e08f15f1da35e9471fb0e030dd3",
    "fleet-greedy-quadratic": "7f5132122c3cb39558d90acb4b3c4e60d7273a959807bcae8d73497cf2abfa3e",
    "golden-bisection-l1": "271688a26010291b37999c12cba2a814c4fc324e7415ab4cd8c4364723246922",
    "golden-bisection-l1-verify": "86aa1e629b2727b8c64bba230b76b293ce51787c90087ccc96be507fea54bf28",
    "golden-bisection-quadratic": "6c4daf7562b2569e1d2cf52bac61c4bcd0ee9fb62ed6b95bffb158ef60f3ad53",
    "golden-bisection-quadratic-verify": "302191a6e2c90e538dee5d85332cffa4761d2785c443ea5b0d9f0d19d8d232eb",
    "golden-exact-l1": "3c5870e72b61407c9942a2fc04db3570db14f162278ce681c3ebbe8e874f55e7",
    "golden-exact-l1-verify": "d148359389a5a00003a2a945ee36a40d05fdbdadbd9cc13a2b4319ead7e2e14e",
    "golden-exact-quadratic": "594ae4235ea5709cd45cc324acc44f0d32aa95969b7ac623b86356e2b5770ebf",
    "golden-exact-quadratic-verify": "ed55a086ff657a4a3bca5aacccf3af5035fc27b86a7a87397b14fa8d9a8a0174",
    "golden-greedy-l1": "12375bf5bc02c6e6d30be4538383132534d8c6b54ff91b23cc3af42d02c32f0e",
    "golden-greedy-l1-verify": "c86ccd056aa888166f007223d1bfedd17acc0f594a13742903bec10d89bf388d",
    "golden-greedy-quadratic": "44c5e6993a1d54d2ede3cf2609e6d28d27fbcc2dd4053e7e3b984a13163d0c80",
    "golden-greedy-quadratic-verify": "dfc7e501128420a96b3a13626fc418f8154b321fb5631f0afad834c002c9537f",
    "golden-shifts-only-verify": "21497d7144839a37722e444b633d5b2e003f953b35878e9d4913a017d2926e7b",
    "short-bisection-l1": "45cb43a89e08d18cb92c7d2f6dd7cb7e108821804dd6453d0a2e8ac038c3e4e0",
    "short-bisection-l1-verify": "a7f05efc8a7f8723f100947798e14650925a795f01665d6e759ca467fab9ff65",
    "short-bisection-quadratic": "35fdf0fcce019ff4f4b201fed0155ab22ec505b5f43ee14a82a8b8976d215f96",
    "short-bisection-quadratic-verify": "afe74284576a3b31aff04864d88cf6699d21c1befb80521a1eb86cd1f8172cb3",
    "six-bisection-l1": "65f7519689b00f1b9a5be25a603afdff9dc8e2adcc6c6badc6a87f2c6d3a7836",
    "six-bisection-l1-verify": "d65bb1a8b7b1e7973eccd62e2fd42cbb925620e3f5dd8c44151f88185f0f0f6e",
    "six-bisection-quadratic": "23b5cb78a773b7f387efd3178737a3b8198379949c423d63887a8584e66f756c",
    "six-bisection-quadratic-verify": "59ac89c8e394d904e9c3031619761b8799576ca0784051f3b1a1f8d6549cb7b6",
    "weekly-exact-l1": "3807c6271447c1079bede30c23f3aa8afb6f6d9ec67a4f403eac5ae611f1a953",
    "weekly-exact-quadratic": "4f53863846a06bef66f6095f941c64d44680d95aa17a842852936078b14264df",
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_emitted_bytes_are_pinned(name, tmp_path: Path):
    rows, flags = PINNED_RUNS[name]
    assert output_digest(rows, flags, tmp_path) == PINNED_DIGESTS[name]


@st.composite
def round_trip_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=4))
    rows = tuple(
        tuple(draw(st.lists(st.integers(min_value=0, max_value=20), min_size=n, max_size=n))) for _ in range(k)
    )
    header = draw(st.booleans())
    objective = draw(st.sampled_from(("l1", "quadratic")))
    method = draw(st.sampled_from(("exact", "bisection", "greedy", "shifts-only")))
    if method != "shifts-only":
        return rows, header, objective, ("--method", method, "--objective", objective)
    # a feasible vector, boundary by boundary: the upper bound folds in the
    # previous flow so no month is drained below zero
    loads = column_sums(AnnualPlan(rows)).loads
    xs, prev = [], 0
    for b in range(n - 1):
        prev = draw(st.integers(min_value=-loads[b + 1], max_value=loads[b] + min(0, prev)))
        xs.append(prev)
    flags = ("--objective", objective, "--shifts-only", "--transfers", ",".join(map(str, xs)))
    return rows, header, objective, flags


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(round_trip_cases())
def test_outputs_round_trip(case):
    rows, header, objective, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        status, _, out = _run(rows, flags, Path(tmp), header)
        assert status == 0
        adjusted = parse_plan(out / "adjusted_plan.csv")
        shift_lines = (out / "shifts.csv").read_text(encoding="utf-8").splitlines()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    n = len(rows[0])
    assert shift_lines[0] == ",".join(f"month_{j + 1}" for j in range(n))
    shifts = tuple(tuple(int(v) for v in line.split(",")) for line in shift_lines[1:])
    assert len(shifts) == len(rows)

    # every shift is -1, 0 or +1, stays inside the year, marks only hours
    for plan_row, shift_row in zip(rows, shifts):
        assert len(shift_row) == n
        assert set(shift_row) <= {-1, 0, 1}
        assert shift_row[0] != -1 and shift_row[-1] != 1
        assert all(hours > 0 for hours, s in zip(plan_row, shift_row) if s)

    # the emitted plan is the input with the emitted shifts applied
    plan = AnnualPlan(rows)
    assert apply_shift_matrix(plan, ShiftMatrix(shifts)) == adjusted
    assert [sum(row) for row in adjusted.entries] == [sum(row) for row in rows]  # rows never mix

    # each boundary moves exactly its achieved hours, in the requested direction
    for b, entry in enumerate(report["boundaries"]):
        requested, achieved = entry["requested"], entry["achieved"]
        assert achieved + entry["residual"] == abs(requested)
        forward = sum(row[b] for row, s in zip(rows, shifts) if s[b] == 1)
        backward = sum(row[b + 1] for row, s in zip(rows, shifts) if s[b + 1] == -1)
        assert (forward, backward) == ((achieved, 0) if requested > 0 else (0, achieved))
    moved = [entry["achieved"] if entry["requested"] > 0 else -entry["achieved"] for entry in report["boundaries"]]
    loads = column_sums(plan).loads
    assert column_sums(adjusted).loads == tuple(
        loads[j] - (moved[j] if j < n - 1 else 0) + (moved[j - 1] if j else 0) for j in range(n)
    )

    assert Fraction(report["objective_realized"]) == deviation(column_sums(adjusted), Objective(objective))
