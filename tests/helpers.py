"""Shared instance generators for the test suite.

Every draw goes through an explicit random.Random so each test is
reproducible from its seed alone.
"""

import csv
import importlib.util
import json
import random
import sys
from fractions import Fraction
from math import ceil, floor
from pathlib import Path

from repair_leveler import (
    AnnualPlan,
    BudgetExceededError,
    MonthlyLoads,
    Objective,
    PlanError,
    RealizationResult,
    SelectionProblem,
    ShiftMatrix,
    SolveResult,
    SolverConfig,
    TransferVector,
    apply_transfers,
    column_sums,
    deviation,
    mean_load,
    subset_select,
    validate_transfers,
)
from repair_leveler.solvers import _scaled_month_cost

# The transfer oracle enumerates every boundary flow, so random sweeps
# must shrink the load range as the month count grows.
SWEEP_LOAD_CAP = {2: 60, 3: 60, 4: 30, 5: 14, 6: 8}

GOLDEN_PLAN = AnnualPlan((
    (10, 20, 30, 40),
    (5, 8, 6, 6),
    (21, 11, 3, 2),
    (14, 1, 5, 3),
))

GOLDEN_LOADS = MonthlyLoads((50, 40, 44, 51))


def load_perfbench(stem: str):
    """A benchmark module, such as the plan generators of
    perfbench/workloads.py, loaded by path: the benchmark directory is
    not a package."""
    name = f"perfbench_{stem}"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / f"{stem}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses looks its module up while the file runs
        spec.loader.exec_module(module)
    return sys.modules[name]


def json_report(doc) -> str:
    """Reference for io.render_report: json's own indented rendering."""
    return json.dumps(doc, indent=2) + "\n"


def lifted_int_like(cell: str) -> bool:
    """Reference for io._is_header's number rule: whether int() reads the
    cell with sys.set_int_max_str_digits(0) lifting its digit limit, or
    plain int() where the interpreter has no such limit."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        int(cell)
    except ValueError:
        return False
    finally:
        set_limit(limit)
    return True


def csv_write_matrix(rows, n: int, path) -> None:
    """Reference for io._write_matrix: csv.writer's month header and rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"month_{j + 1}" for j in range(n)])
        writer.writerows(rows)


def _round_half_toward_zero(value: Fraction) -> int:
    """Nearest integer, exact .5 ties going toward zero."""
    if value >= 0:
        return ceil(value - Fraction(1, 2))
    return floor(value + Fraction(1, 2))


def fraction_solve_greedy(loads: MonthlyLoads, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Reference for solvers.solve_greedy: the same sweep, rounding the
    running load's distance to a Fraction mean with ceil and floor."""
    L = loads.loads
    n = len(L)
    m = mean_load(loads)
    xs = []
    carry = 0  # signed flow chosen at the previous boundary
    for b in range(n - 1):
        current = L[b] + carry
        step = _round_half_toward_zero(current - m)
        if step > 0:
            x = min(step, L[b], current)
        elif step < 0:
            x = -min(-step, L[b + 1])  # months to the right are still untouched
        else:
            x = 0
        xs.append(x)
        carry = x
    transfers = TransferVector(tuple(xs))
    value = deviation(apply_transfers(loads, transfers), config.objective)  # validates on the way
    return SolveResult(transfers, value, "greedy", False, n - 1)


def random_loads(rng: random.Random, n: int, max_load: int) -> MonthlyLoads:
    return MonthlyLoads(tuple(rng.randint(0, max_load) for _ in range(n)))


def random_plan(rng: random.Random, k: int, n: int, max_entry: int) -> AnnualPlan:
    rows = tuple(tuple(rng.randint(0, max_entry) for _ in range(n)) for _ in range(k))
    return AnnualPlan(rows)


def random_feasible_transfers(rng: random.Random, loads: MonthlyLoads) -> TransferVector:
    # Sample boundary by boundary.  The upper bound folds in the running
    # flow so no month is ever drained below zero; the range always
    # contains 0, so it is never empty.
    hours = loads.loads
    xs = []
    prev = 0
    for b in range(len(hours) - 1):
        lo = -hours[b + 1]
        hi = hours[b] + min(0, prev)
        x = rng.randint(lo, hi)
        xs.append(x)
        prev = x
    return TransferVector(tuple(xs))


def sweep_instances(seed: int, count: int) -> list[MonthlyLoads]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 6)
        out.append(random_loads(rng, n, SWEEP_LOAD_CAP[n]))
    return out


_PLAIN_INT = frozenset((int,))


def sequence_first_bad_int(values: tuple, lo: int | None = None, hi: int | None = None) -> int | None:
    """Reference for plan._first_bad_int: its earlier form, which settles
    a sequence of plain ints in range with whole-sequence builtins and
    walks only a sequence they refuse."""
    if not values or (
        set(map(type, values)) <= _PLAIN_INT
        and (lo is None or min(values) >= lo)
        and (hi is None or max(values) <= hi)
    ):
        return None
    for p, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool) or (lo is not None and v < lo) or (hi is not None and v > hi):
            return p
    return None


def direct_deviation(loads: MonthlyLoads, objective: Objective) -> Fraction:
    """Reference for solvers.deviation: the summed absolute or squared
    differences from the mean, written out in Fraction arithmetic."""
    mean = Fraction(loads.total(), loads.n)
    if objective is Objective.L1:
        return sum((abs(v - mean) for v in loads.loads), Fraction(0))
    return sum(((v - mean) ** 2 for v in loads.loads), Fraction(0))


def quadratic_chain_dp(L, cost, fixed=None):
    """Reference for solvers._chain_dp: the same recurrence with a full
    scan of every affordable outflow per state, O(|dom_j| * |dom_j+1|)
    per stage.

    Returns (best scaled cost, flows tuple, number of dead states).
    """
    n = len(L)
    doms = [(0, 0)]
    for b in range(n - 1):
        if fixed is not None and b in fixed:
            doms.append((fixed[b], fixed[b]))
        else:
            doms.append((-L[b + 1], L[b]))

    suffix: list[list] = [[] for _ in range(n)]
    lo, hi = doms[n - 1]
    suffix[n - 1] = [cost(L[n - 1] + x) for x in range(lo, hi + 1)]
    for j in range(n - 2, -1, -1):
        lo, hi = doms[j]
        lo1, hi1 = doms[j + 1]
        nxt = suffix[j + 1]
        vals = []
        for x in range(lo, hi + 1):
            pool = L[j] + x
            top = pool if pool < hi1 else hi1
            best = None
            for i in range(top - lo1 + 1):
                v = nxt[i]
                if v is None:
                    continue
                c = cost(pool - lo1 - i) + v
                if best is None or c < best:
                    best = c
            vals.append(best)
        suffix[j] = vals

    best_total = suffix[0][0]
    if best_total is None:
        raise PlanError("no feasible transfer vector")

    xs: list[int] = []
    target = best_total
    for j in range(1, n):
        lo, hi = doms[j]
        pool = L[j - 1] + (xs[-1] if xs else 0)
        top = pool if pool < hi else hi
        vals = suffix[j]
        for x in range(lo, top + 1):
            v = vals[x - lo]
            if v is not None and cost(pool - x) + v == target:
                xs.append(x)
                target = v
                break
        else:
            raise AssertionError("suffix table and reconstruction disagree")
    dead = sum(v is None for vals in suffix for v in vals)
    return best_total, tuple(xs), dead


def pointer_chain_dp(L, cost, fixed=None):
    """Reference for solvers._chain_dp: the same sweep calling cost on
    every state it compares, with the work counted as it goes.

    Minimize the summed per-month cost over integer boundary flows.

    The state of month j is its inflow x_{j-1}, the flow at boundary j-1,
    in [-L[j], L[j-1]]; month 0's only inflow is 0. Month j costs
    cost(L[j] + x_{j-1} - x_j), so a backward sweep of suffix minima is
    exact. The sweep records each state's smallest best outflow, and the
    flows follow those records from inflow 0: the smallest flow at every
    stage, which yields the lexicographically smallest optimal vector.
    `fixed` pins chosen boundaries (0-based) to a single value. Each stage
    first raises its inflow bound until every inflow can pay the next
    month's smallest one, so no table holds a state without an outflow;
    a bound raised past its top means no vector affords the pins.

    The sweep is linear in month hours. cost is convex (and +inf below a
    zero load), so every suffix table is convex, stage j's value
    cost(L[j] + x - y) + suffix[j+1][y] has decreasing differences in
    (x, y), and its smallest argmin y never decreases as x grows
    (Topkis). One pointer per stage therefore walks the next table once:
    for each x it resumes at the previous argmin and steps only while
    that strictly lowers the value, so it stops at the smallest argmin,
    the flow the sweep records. A stage costs O(|dom_j| + |dom_j+1|)
    evaluations instead of O(|dom_j| * |dom_j+1|). The pointer never
    passes an inflow's largest affordable outflow, because both only
    move forward and the raised bound makes the first one affordable.

    Returns (best scaled cost, flows tuple, cost evaluations in the
    backward sweep).
    """
    n = len(L)
    doms = [(0, 0)]  # inflow domain per month
    for b in range(n - 1):
        if fixed is not None and b in fixed:
            v = fixed[b]
            doms.append((v, v))
        else:
            doms.append((-L[b + 1], L[b]))

    # nxt[y - lo1] = least cost of months j+1..n-1 given inflow y into month j+1
    lo, hi = doms[n - 1]
    last = L[n - 1]
    nxt = [cost(last + x) for x in range(lo, hi + 1)]
    visited = hi - lo + 1
    # argmins[j][x - lo] = smallest best outflow of month j given inflow x
    argmins: list[list[int]] = [[] for _ in range(n - 1)]
    for j in range(n - 2, -1, -1):
        lo1, hi1 = doms[j + 1]
        month = L[j]
        # an inflow below lo1 - month leaves month j too few hours to pay lo1
        lo, hi = doms[j]
        if lo < lo1 - month:
            lo = lo1 - month
        if lo > hi:
            raise PlanError("no feasible transfer vector")  # pins that no vector affords together
        doms[j] = (lo, hi)
        vals = []
        picks = argmins[j]
        i = 0  # argmin index y - lo1; only moves forward
        for x in range(lo, hi + 1):
            pool = month + x  # hours in month j before its own outflow
            top = (pool if pool < hi1 else hi1) - lo1  # as an index; outflow past the pool goes negative
            rest = pool - lo1
            best = cost(rest - i) + nxt[i]
            visited += 1
            while i < top:
                c = cost(rest - i - 1) + nxt[i + 1]
                visited += 1
                if c >= best:
                    break
                best = c
                i += 1
            vals.append(best)
            picks.append(i + lo1)
        nxt = vals

    xs: list[int] = []
    x = 0
    for j in range(n - 1):
        x = argmins[j][x - doms[j][0]]
        xs.append(x)
    return nxt[0], tuple(xs), visited


def dict_subset_select(problem: SelectionProblem) -> tuple[int, ...]:
    """Reference for realization.subset_select: a capacity-indexed DP keyed
    by achieved sum, with a copied index tuple per reachable sum,
    O(m^2 * capacity).

    Keeping a single best (count, indices) per sum is sound: the ranking
    is preserved under any common extension, because extensions append
    strictly larger indices to equal-length prefixes.
    """
    best: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
    cap = problem.capacity
    for i, a in enumerate(problem.items):
        if a > cap:
            continue
        for s, (cnt, idx) in list(best.items()):
            s2 = s + a
            if s2 > cap:
                continue
            key = (cnt + 1, idx + (i,))
            cur = best.get(s2)
            if cur is None or key < cur:
                best[s2] = key
    return best[max(best)][1]


def table_subset_select(problem: SelectionProblem) -> tuple[int, ...]:
    """Reference for realization.subset_select: reach_subset_select's
    bitset and forward pick over a suffix table held as one Python list
    per item, O(m * min(capacity, sum)) list slots.

    rows[j][s] is the fewest items of the fitting items j.. that sum to
    exactly s, for s up to the best total; len(fit) + 1 marks an
    unreachable sum.
    """
    cap = problem.capacity
    index = [i for i, a in enumerate(problem.items) if a <= cap]
    fit = [problem.items[i] for i in index]
    limit = min(cap, sum(fit))
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for a in fit:
        reach = (reach | reach << a) & mask
    best = reach.bit_length() - 1
    row = [0] + [len(fit) + 1] * best
    rows = [row] * (len(fit) + 1)
    for j in range(len(fit) - 1, -1, -1):
        a = fit[j]
        row = rows[j] = row[:a] + [x if x <= y else y + 1 for x, y in zip(row[a:], row)]
    chosen = []
    total, count = best, row[best]
    j = 0
    while count:
        a = fit[j]
        j += 1
        if a <= total and rows[j][total - a] == count - 1:
            chosen.append(index[j - 1])
            total -= a
            count -= 1
    return tuple(chosen)


def reach_subset_select(problem: SelectionProblem) -> tuple[int, ...]:
    """Reference for realization.subset_select: the packed suffix table
    sized to the best total, which a big-int bitset of reachable sums,
    masked at min(capacity, sum of the fitting items), finds first."""
    cap = problem.capacity
    index = [i for i, a in enumerate(problem.items) if a <= cap]
    fit = [problem.items[i] for i in index]
    limit = min(cap, sum(fit))
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for a in fit:
        reach = (reach | reach << a) & mask
    best = reach.bit_length() - 1
    # Field s of rows[j], w bits wide, holds the fewest items of fit[j:]
    # summing to exactly s, for s up to best; m + 1 marks an unreachable
    # sum. Values stay below 2 ** (w - 1), so each field's top bit is a
    # guard that a field-wise subtraction never borrows past.
    m = len(fit)
    w = (m + 2).bit_length() + 1
    field = (1 << w) - 1
    size = (best + 1) * w
    full = (1 << size) - 1
    ones = full // field
    guards = ones << (w - 1)
    unreachable = (m + 1) * ones
    row = unreachable - (m + 1)  # no items: only the empty sum 0 is reachable
    rows = [row] * (m + 1)
    for j in range(m - 1, -1, -1):
        shift = fit[j] * w
        # one more item on top of every sum s - a, unreachable below a
        cand = ((row << shift) & full | unreachable >> (size - shift)) + ones
        # a guard survives where row >= cand; the field-wise minimum then
        # takes off row - cand there
        diff = (row | guards) - cand
        keep = diff & guards
        row = rows[j] = row - (diff & (keep - (keep >> (w - 1))))
    chosen = []
    total, count = best, row >> best * w
    j = 0
    while count:
        a = fit[j]
        j += 1
        if a <= total and rows[j] >> (total - a) * w & field == count - 1:
            chosen.append(index[j - 1])
            total -= a
            count -= 1
    return tuple(chosen)


def scan_realize_transfers(plan: AnnualPlan, transfers: TransferVector) -> RealizationResult:
    """Reference for realization.realize_transfers: each boundary scans
    every row of the plan and a k x n mark table for its donor pool, and
    the adjusted plan comes from cell_apply_shift_matrix."""
    loads = column_sums(plan)
    validate_transfers(loads, transfers)
    k, n = plan.k, plan.n
    marks = [[0] * n for _ in range(k)]
    achieved = []
    residuals = []
    pools = []
    for b, x in enumerate(transfers.x):
        if x == 0:
            achieved.append(0)
            residuals.append(0)
            pools.append(())
            continue
        month = b if x > 0 else b + 1
        cap = x if x > 0 else -x
        rows = [i for i in range(k) if plan.entries[i][month] > 0 and marks[i][month] == 0]
        pool = tuple(plan.entries[i][month] for i in rows)
        chosen = subset_select(SelectionProblem(pool, cap))
        mark = 1 if x > 0 else -1
        for c in chosen:
            marks[rows[c]][month] = mark
        got = sum(pool[c] for c in chosen)
        achieved.append(got)
        residuals.append(cap - got)
        pools.append(pool)
    shift = ShiftMatrix(tuple(tuple(row) for row in marks))
    return RealizationResult(
        shift_matrix=shift,
        achieved=tuple(achieved),
        residuals=tuple(residuals),
        adjusted_plan=cell_apply_shift_matrix(plan, shift),
        pools=tuple(pools),
    )


def cell_apply_shift_matrix(plan: AnnualPlan, shifts: ShiftMatrix) -> AnnualPlan:
    """Reference for plan.apply_shift_matrix: every cell of every row adds
    its hours to the month its mark points at."""
    if shifts.k != plan.k or shifts.n != plan.n:
        raise PlanError(f"shift matrix is {shifts.k}x{shifts.n}, plan is {plan.k}x{plan.n}")
    adjusted = [[0] * plan.n for _ in range(plan.k)]
    for i, (prow, srow) in enumerate(zip(plan.entries, shifts.shifts)):
        for j, (hours, s) in enumerate(zip(prow, srow)):
            if s != 0 and hours == 0:
                raise PlanError(f"cell ({i + 1},{j + 1}) is empty but marked to move")
            adjusted[i][j + s] += hours
    return AnnualPlan(tuple(tuple(row) for row in adjusted))


def pruned_brute_force_transfers(
    loads: MonthlyLoads, objective: Objective, max_states: int, max_months: int, max_month_load: int
) -> SolveResult:
    """Reference for oracle.brute_force_transfers under the given limits:
    the same search, which counts and checks the state limit one flow at
    a time and calls the cost function for every month it scores.

    Flows are scanned in ascending order and the incumbent is replaced
    only on a strict improvement, so the first optimum found is the
    lexicographically smallest. A prefix that already reaches the
    incumbent cost is discarded.
    """
    L = loads.loads
    n = len(L)
    if n > max_months:
        raise BudgetExceededError(f"transfer search accepts up to {max_months} months, got {n}")
    top_load = max(L)
    if top_load > max_month_load:
        raise BudgetExceededError(f"transfer search accepts monthly loads up to {max_month_load}, got {top_load}")
    cost, scale = _scaled_month_cost(objective, n, sum(L))
    B = n - 1
    best_cost = None
    best_x: tuple[int, ...] | None = None
    xs = [0] * B
    state = 0

    def walk(b: int, pool: int, run: int) -> None:
        # pool: hours in month b after the inflow; run: cost of months < b
        nonlocal best_cost, best_x, state
        lo = -L[b + 1]
        hi = L[b] if L[b] < pool else pool
        last = b == B - 1
        for x in range(lo, hi + 1):
            state += 1
            if state > max_states:
                raise BudgetExceededError(f"transfer search passed {max_states} states")
            c = run + cost(pool - x)
            if best_cost is not None and c >= best_cost:
                continue
            if last:
                final = c + cost(L[n - 1] + x)
                if best_cost is None or final < best_cost:
                    xs[b] = x
                    best_cost = final
                    best_x = tuple(xs)
            else:
                xs[b] = x
                walk(b + 1, L[b + 1] + x, c)

    walk(0, L[0], 0)
    assert best_x is not None and best_cost is not None
    return SolveResult(TransferVector(best_x), Fraction(best_cost, scale), "brute-force", True, state)
