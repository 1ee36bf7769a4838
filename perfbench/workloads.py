"""Seeded plan generators, one per workload.

Each generator returns the workload's cases: a plan matrix plus the
flags the command line receives for it. The same (workload, seed) pair
always yields the same cases, byte for byte, so outputs can be digested
and compared across commits.

Sizes are drawn stratified (one draw inside each equal band of the
range, then shuffled): every seed covers the range evenly, so the seed
changes the plans' contents much more than the amount of work, and
timings from different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Month-load caps that keep the exhaustive transfer search inside the
# package's default oracle budget (the same table the test suite sweeps).
DESK_LOAD_CAP = {2: 60, 3: 60, 4: 30, 5: 14, 6: 8}


@dataclass(frozen=True)
class Case:
    rows: tuple[tuple[int, ...], ...]
    flags: tuple[str, ...]
    header: bool = True

    @property
    def hours(self) -> int:
        return sum(map(sum, self.rows))

    def csv_text(self) -> str:
        n = len(self.rows[0])
        lines = [",".join(f"month_{j + 1}" for j in range(n))] if self.header else []
        lines.extend(",".join(map(str, row)) for row in self.rows)
        return "\n".join(lines) + "\n"


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count integers from [lo, hi], one in each of count equal bands, shuffled."""
    values = [lo + int((hi - lo + 1) * (j + rng.random()) / count) for j in range(count)]
    rng.shuffle(values)
    return values


def _lumpy_plan(rng: random.Random, k: int, n: int, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """k x n plan whose month totals are drawn stratified from [lo, hi].

    Each month's total is split at random cut points over the items that
    have a repair that month (about half of them), so cell sizes range
    from one hour to most of the month.
    """
    cols = []
    for target in _strata(rng, n, lo, hi):
        active = sum(rng.random() < 0.5 for _ in range(k))
        active = max(1, min(active, target))
        items = rng.sample(range(k), active)
        cuts = sorted(rng.sample(range(1, target), active - 1))
        bounds = [0, *cuts, target]
        col = [0] * k
        for item, a, b in zip(items, bounds, bounds[1:]):
            col[item] = b - a
        cols.append(col)
    return tuple(tuple(col[i] for col in cols) for i in range(k))


def _feasible_transfers(rng: random.Random, loads: list[int]) -> tuple[int, ...]:
    # boundary by boundary; the upper bound folds in the previous flow so
    # no month is drained below zero, and the range always contains 0
    xs = []
    prev = 0
    for b in range(len(loads) - 1):
        x = rng.randint(-loads[b + 1], loads[b] + min(0, prev))
        xs.append(x)
        prev = x
    return tuple(xs)


def annual_exact(rng: random.Random) -> list[Case]:
    cases = []
    for i, k in enumerate(_strata(rng, 100, 20, 60)):
        rows = _lumpy_plan(rng, k, 12, 35, 125)
        objective = ("l1", "quadratic")[i % 2]
        cases.append(Case(rows, ("--method", "exact", "--objective", objective, "--months", "12")))
    return cases


def fleet_greedy(rng: random.Random) -> list[Case]:
    cases = []
    for i, k in enumerate(_strata(rng, 100, 60, 120)):
        rows = _lumpy_plan(rng, k, 12, 400, 1200)
        objective = ("l1", "quadratic")[i % 2]
        cases.append(Case(rows, ("--method", "greedy", "--objective", objective, "--months", "12")))
    return cases


def weekly_52(rng: random.Random) -> list[Case]:
    cases = []
    for i, k in enumerate(_strata(rng, 100, 20, 40)):
        rows = _lumpy_plan(rng, k, 52, 15, 55)
        method = ("exact", "bisection")[i % 2]
        objective = ("l1", "quadratic")[(i // 2) % 2]
        cases.append(Case(rows, ("--method", method, "--objective", objective, "--months", "52")))
    return cases


def desk_verify(rng: random.Random) -> list[Case]:
    cases = []
    for i in range(1000):
        # every (months, items, mode, objective) combination recurs evenly
        n = 2 + i % 5
        k = 1 + (i // 5) % 3
        cell_cap = DESK_LOAD_CAP[n] // k
        rows = tuple(tuple(rng.randint(0, cell_cap) for _ in range(n)) for _ in range(k))
        objective = ("l1", "quadratic")[(i // 4) % 2]
        if i % 4 == 3:
            loads = [sum(col) for col in zip(*rows)]
            vec = ",".join(map(str, _feasible_transfers(rng, loads)))
            # "=" keeps a leading negative flow from reading as a flag
            mode = ("--shifts-only", f"--transfers={vec}")
        else:
            mode = ("--method", ("exact", "bisection", "greedy")[i % 4])
        cases.append(Case(rows, (*mode, "--objective", objective, "--verify"), header=i % 2 == 0))
    return cases


# The reference task a workload's call times are divided by (see
# run.reference_task): pure-Python computation where calls are long
# solver or subset-DP runs, the same plus standard-library and file
# work where calls are short and spend much of their time there. Each
# kind follows the host's speed the way its workload does; the other
# kind follows it less closely.
REFERENCE = {
    "annual-exact": "compute",
    "fleet-greedy": "compute",
    "weekly-52": "compute",
    "desk-verify": "pipeline",
}

WORKLOADS = {
    "annual-exact": annual_exact,
    "fleet-greedy": fleet_greedy,
    "weekly-52": weekly_52,
    "desk-verify": desk_verify,
}


def generate(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
