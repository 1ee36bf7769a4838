"""Solvers for the boundary-transfer leveling problem.

Three routes produce an integer transfer vector: an exact chain dynamic
program over boundary flows, a half/quarter splitting heuristic, and a
single-pass greedy sweep. A fourth operation exports the quadratic
objective in standard form for external QP machinery; nothing here
solves that form.

Internally deviations are scaled by the month count (L1) or its square
(quadratic) so the search runs on plain integers; results convert back
to exact fractions at the end.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import add, mul, sub

from .errors import PlanError, _abridged
from .plan import MonthlyLoads, TransferVector, _Frozen, apply_transfers, validate_transfers

__all__ = [
    "Objective",
    "deviation",
    "SolverConfig",
    "SolveResult",
    "StandardFormQP",
    "ShiftedVariableForm",
    "solve_exact",
    "solve_bisection",
    "solve_greedy",
    "standard_form",
]


class Objective(str, enum.Enum):
    L1 = "l1"
    QUADRATIC = "quadratic"


def deviation(loads: MonthlyLoads, objective: Objective) -> Fraction:
    """The objective's deviation of a load vector from its own mean: the
    summed absolute (L1) or squared (quadratic) monthly differences.

    Transfers and shifts conserve total hours, so the mean of a leveled
    vector is the mean of the plan it came from.
    """
    costs, scale = _month_costs(objective, loads.n, loads.total(), loads.loads)
    return Fraction(sum(costs), scale)


class SolverConfig(_Frozen):
    """What the solvers minimize."""

    __slots__ = ("objective",)

    def __init__(self, objective: Objective = Objective.L1):
        if not isinstance(objective, Objective):
            raise PlanError(f"unknown objective {_abridged(objective)}")
        super().__init__(objective)


class SolveResult(_Frozen):
    """A feasible transfer vector plus the metric it achieves."""

    __slots__ = ("transfers", "objective_value", "method", "optimal", "visited_states")


# ---------------------------------------------------------------------------
# the objective's per-month cost and the chain DP over it
# ---------------------------------------------------------------------------


def _month_costs(objective: Objective, n: int, total: int, loads) -> tuple[list[int], int]:
    """The per-month cost of each load as a plain integer: the definition
    of the objective, shared by deviation, every solver and the oracles.

    The deviation of an adjusted load A' from the mean total/n equals
    (n*A' - total)/n, so |.| costs carry a factor n and squared costs a
    factor n^2. loads is a range of step 1, whose costs are built in C
    from one range of n*A' - total with step n, or any sequence of
    loads. Returns ([cost of each load], that scale factor).
    """
    if isinstance(loads, range):
        d = range(n * loads.start - total, n * loads.stop - total, n)
    else:
        d = [n * u - total for u in loads]
    if objective is Objective.L1:
        return list(map(abs, d)), n
    if objective is not Objective.QUADRATIC:
        raise PlanError(f"unknown objective {_abridged(objective)}")
    return list(map(mul, d, d)), n * n


# The most inflow states the chain DP may hold: ten times the 2.2e5 of
# a 500x12 plan at about 10k h/month. Near it, a 12x12 plan of about
# 112k h/month (2,465,170 states, each month's load split evenly over
# its 12 rows) runs through the CLI in about 0.36 s at 101 MB peak RSS
# under L1, and 0.36 s at 108 MB under quadratic (2-core VM, Python 3.11).
_MAX_CHAIN_STATES = 2_500_000


def _check_chain_states(L) -> None:
    """Refuse loads whose chain DP would pass _MAX_CHAIN_STATES inflow
    states, before any table or scan is built: 1 for month 0, then
    L[b] + L[b+1] + 1 for each boundary b."""
    states = 2 * sum(L) - L[0] - L[-1] + len(L)
    if states > _MAX_CHAIN_STATES:
        raise PlanError(f"the chain DP needs {_abridged(states)} states, past its limit of {_MAX_CHAIN_STATES}")


def _chain_dp(L, C, fixed=None):
    """Minimize the summed per-month cost over integer boundary flows.

    The state of month j is its inflow x_{j-1}, the flow at boundary j-1,
    in [-L[j], L[j-1]]; month 0's only inflow is 0. Month j costs
    cost(L[j] + x_{j-1} - x_j), so a backward sweep of suffix minima is
    exact. Every state takes its smallest best outflow, and the flows
    follow those from inflow 0: the smallest flow at every stage, which
    yields the lexicographically smallest optimal vector. `fixed` pins
    chosen boundaries (0-based) to a single value. Each stage first
    raises its inflow bound until every inflow can pay the next month's
    smallest one, so no state is without an outflow; a bound raised past
    its top means no vector affords the pins.

    C is the table of the per-month cost of every month load u from 0 up
    to at least peak, the largest L[j-1] + L[j] + L[j+1] (0 past either
    end), which no month can exceed. The cost is convex, so its
    differences dC are nondecreasing. A stage is a min-plus convolution: with
    k = L[j] + x - lo1 month j's hours above its smallest outflow lo1,
    and V the next month's suffix values over y - lo1 = i in [0, span],
    month j's value at x is the least C[k - i] + V[i] over i in
    [0, min(k, span)]. V is convex too, so this is C[0] + V[0] plus the
    k smallest of the two difference sequences together (Bussieck,
    Hassler, Woeginger & Zimmermann, Oper. Res. Lett. 1994): their
    sorted merge is the stage's own difference sequence, so
    the suffix values stay convex. list.sort merges the two runs in C,
    and being stable it puts a cost step before an equal value step,
    which takes the smallest outflow. The sweep carries only the value at
    the lowest inflow and the differences; each stage keeps its merge for
    the forward pass. Time and memory are linear in month hours.

    The smallest best outflow at k needs no scan: with theta the merge's
    k-th step, it takes every value step below theta and then as many
    equal to theta as the cost steps up to theta leave room for. The
    forward pass reads it once per boundary.

    The work count is that of a pointer sweep (tests/helpers.py's
    pointer_chain_dp), derived in closed form: by Topkis the smallest
    best outflow never decreases as x grows, so one pointer per stage
    resumes at the previous state's outflow and steps while that strictly
    lowers the value. Each state compares its first pick and one refused
    step unless its outflow is at its top min(k, span), and the pointer's
    steps add up to the last state's outflow. Each state of the last
    month counts one transition.

    Returns (best scaled cost, flows tuple, that work count).
    """
    n = len(L)
    doms = [(0, 0)]  # inflow domain per month
    for b in range(n - 1):
        if fixed is not None and b in fixed:
            v = fixed[b]
            doms.append((v, v))
        else:
            doms.append((-L[b + 1], L[b]))
    dC = list(map(sub, C[1:], C))  # nondecreasing: cost is convex

    # months j+1..n-1 cost value at inflow lo1 into month j+1, and dV[i]
    # more from inflow lo1 + i to lo1 + i + 1
    lo, hi = doms[n - 1]
    u = L[n - 1] + lo  # the last month's load at its lowest inflow
    value = C[u]
    dV = dC[u : u + hi - lo]
    visited = hi - lo + 1
    stages = [None] * (n - 1)  # per boundary: what the forward pass reads
    c0 = dC[0] if dC else 0  # the smallest cost step
    for j in range(n - 2, -1, -1):
        lo1 = doms[j + 1][0]
        month = L[j]
        # an inflow below lo1 - month leaves month j too few hours to pay lo1
        lo, hi = doms[j]
        if lo < lo1 - month:
            lo = lo1 - month
        if lo > hi:
            raise PlanError("no feasible transfer vector")  # pins that no vector affords together
        doms[j] = (lo, hi)
        kmin = month + lo - lo1
        kmax = month + hi - lo1  # <= peak, so dC[:kmax] holds kmax steps
        span = len(dV)
        merged = dC[:kmax] + dV
        merged.sort()  # two sorted runs: one stable merge, cost steps first on ties
        value += C[0] + sum(merged[:kmin])
        stages[j] = merged, dV, kmax, lo1
        # the pointer sweep's work; a state whose outflow i(k) is at its top
        # min(k, span) takes no refused step
        states = kmax - kmin + 1
        if span and kmax:
            theta = merged[kmax - 1]
            last = max(bisect_left(dV, theta), kmax - bisect_right(dC, theta, 0, kmax))  # i(kmax)
            at_top = 0
            if kmin <= span:  # i(k) = k up to the value steps below the first cost step
                a = bisect_left(dV, c0)
                if a >= kmin:
                    at_top = min(a, kmax) - kmin + 1
            if last == span < kmax:  # i(k) = span past the last value step's place in the merge
                past = span + (bisect_right(dC, dV[-1], 0, kmax) or 1)
                at_top += kmax - max(past, kmin) + 1
            visited += 2 * states + last - at_top
        else:
            visited += states  # every outflow is at its top, 0
        dV = merged[kmin:kmax]

    xs: list[int] = []
    x = 0
    for j in range(n - 1):
        merged, dV, kmax, lo1 = stages[j]
        k = L[j] + x - lo1
        if k:
            # every value step below the merge's k-th step theta, and the
            # steps equal to it that the cost steps up to theta leave over
            theta = merged[k - 1]
            x = lo1 + max(bisect_left(dV, theta), k - bisect_right(dC, theta, 0, kmax))
        else:
            x = lo1
        xs.append(x)
    return value, tuple(xs), visited


# ---------------------------------------------------------------------------
# the three methods
# ---------------------------------------------------------------------------


def solve_exact(loads: MonthlyLoads, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Globally optimal integer transfers for the configured objective.

    Covers the whole feasible box through the chain DP; among optima the
    returned vector is the lexicographically smallest. Runs in O(n*L)
    for n months of up to L hours: both per-month costs are convex, so
    each stage is one sorted merge of two difference sequences.
    visited_states is the work count of the equivalent pointer sweep,
    derived in closed form: the transitions it compares, at most three
    per inflow state. Loads that need more than _MAX_CHAIN_STATES inflow
    states raise PlanError.
    """
    _check_chain_states(loads.loads)
    return _chain_solve(loads, config.objective, "exact")


def _chain_solve(loads: MonthlyLoads, objective: Objective, method: str, fixed=None, scans: int = 0) -> SolveResult:
    """The chain DP's result for loads as a checked SolveResult, optimal
    unless boundaries are pinned; scans adds the work done to pin them."""
    L = loads.loads
    padded = (0, *L, 0)
    peak = max(map(sum, zip(padded, padded[1:], padded[2:])))
    C, scale = _month_costs(objective, len(L), sum(L), range(peak + 1))
    best, xs, visited = _chain_dp(L, C, fixed)
    transfers = TransferVector(xs)
    validate_transfers(loads, transfers)  # contract check on the way out
    return SolveResult(transfers, Fraction(best, scale), method, fixed is None, visited + scans)


def solve_greedy(loads: MonthlyLoads, config: SolverConfig = SolverConfig()) -> SolveResult:
    """One left-to-right sweep: push each month's excess forward, pull each
    deficit from the following month.

    The per-boundary quantum is the rounded distance from the running
    load to the mean (ties toward zero), clamped to the donor bound and
    to the hours actually present. Fast and always feasible, not optimal.
    """
    L = loads.loads
    n = len(L)
    total = loads.total()
    xs = []
    carry = 0  # signed flow chosen at the previous boundary
    for b in range(n - 1):
        current = L[b] + carry
        d = n * current - total
        # the distance d / n to the nearest integer, an exact half toward zero
        step = -((n - 2 * d) // (2 * n)) if d >= 0 else (2 * d + n) // (2 * n)
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


def solve_bisection(loads: MonthlyLoads, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Fix the mid-year flow, then the two quarter flows, then level each
    quarter's interior exactly with those three flows pinned.

    Each split flow is chosen by scanning its donor bounds for the value
    that best balances the two sides of the split (smallest flow on
    ties). Quarters need a month count divisible by four; any other
    count returns solve_exact's result, named "exact" and optimal. The
    state limit of solve_exact holds here too, checked before the scans.
    """
    L = loads.loads
    n = len(L)
    if n % 4 != 0:
        return solve_exact(loads, config)
    _check_chain_states(L)
    total = sum(L)
    q, mid = n // 4, n // 2

    def split(start: int, cut: int, stop: int, inflow: int, outflow: int, parts: int) -> tuple[int, int]:
        # smallest flow at boundary cut-1 that best balances months
        # start..cut-1 against cut..stop-1, each costed as one month of a
        # parts-month year; returns it with the scan size
        left = sum(L[start:cut]) + inflow
        right = sum(L[cut:stop]) - outflow
        lo, hi = -L[cut], L[cut - 1]
        # flow v leaves left - v on the left, so gives runs from v = hi down to lo
        gives, _ = _month_costs(config.objective, parts, total, range(left - hi, left - lo + 1))
        takes, _ = _month_costs(config.objective, parts, total, range(right + lo, right + hi + 1))
        totals = list(map(add, reversed(gives), takes))
        return lo + totals.index(min(totals)), len(totals)

    v_mid, scan1 = split(0, mid, n, 0, 0, 2)
    v_q1, scan2 = split(0, q, mid, 0, v_mid, 4)
    v_q3, scan3 = split(mid, 3 * q, n, v_mid, 0, 4)

    fixed = {q - 1: v_q1, mid - 1: v_mid, 3 * q - 1: v_q3}
    return _chain_solve(loads, config.objective, "bisection", fixed, scan1 + scan2 + scan3)


# ---------------------------------------------------------------------------
# standard-form export of the quadratic objective
# ---------------------------------------------------------------------------


def _quadratic_form(linear, quadratic, vec) -> Fraction:
    """linear . vec + vec^T quadratic vec, exactly."""
    z = sum((c * v for c, v in zip(linear, vec)), Fraction(0))
    for i, row in enumerate(quadratic):
        for j, d in enumerate(row):
            if d:
                z += d * vec[i] * vec[j]
    return z


class ShiftedVariableForm(_Frozen):
    """The same objective over non-negative variables via x_i = xbar_i - x0.

    `variables` names the columns (xbar_1..xbar_{n-1}, x0); linear and
    quadratic are the coefficients of z in those variables.
    """

    __slots__ = ("variables", "linear", "quadratic")


class StandardFormQP(_Frozen):
    """Slack-variable encoding of the quadratic leveling objective.

    Maximizing z(x) = linear_coeffs . x + x^T quadratic_coeffs x subject
    to the slack rows is equivalent to minimizing the quadratic deviation
    V: at every feasible x, z(x) = constant_offset - V(x) exactly. The
    slack rows encode x_i + xp_i = A_i and -x_i + xpp_i = A_{i+1} with
    all slack variables non-negative.

    shifted_loads is each month's load minus the mean, linear_coeffs are
    over x_1..x_{n-1}, quadratic_coeffs is symmetric with consecutive
    coupling, variables is constraint_matrix's column order, and
    constant_offset is the sum of squared shifted loads.
    """

    __slots__ = (
        "shifted_loads",
        "linear_coeffs",
        "quadratic_coeffs",
        "constraint_matrix",
        "constraint_rhs",
        "variables",
        "substitution",
        "constant_offset",
    )

    def objective_z(self, x) -> Fraction:
        """Evaluate z at a transfer vector (any integers or rationals)."""
        if len(x) != len(self.linear_coeffs):
            raise PlanError(f"expected {len(self.linear_coeffs)} flows, got {len(x)}")
        return _quadratic_form(self.linear_coeffs, self.quadratic_coeffs, x)

    def substituted_z(self, xbar, x0) -> Fraction:
        """Evaluate the substituted objective at (xbar_1..xbar_{n-1}, x0)."""
        sub = self.substitution
        if len(xbar) + 1 != len(sub.linear):
            raise PlanError(f"expected {len(sub.linear) - 1} shifted flows, got {len(xbar)}")
        return _quadratic_form(sub.linear, sub.quadratic, tuple(xbar) + (x0,))

    def slack_values(self, x) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The slack pair (xp, xpp) for a transfer vector; non-negative iff x is in bounds."""
        B = len(self.linear_coeffs)
        if len(x) != B:
            raise PlanError(f"expected {B} flows, got {len(x)}")
        xp = tuple(self.constraint_rhs[i] - x[i] for i in range(B))
        xpp = tuple(self.constraint_rhs[B + i] + x[i] for i in range(B))
        return xp, xpp


def standard_form(loads: MonthlyLoads) -> StandardFormQP:
    """Export max z = c.x + x^T D x with slack constraints and the
    non-negative substitution record.

    The encoding is derived directly from the quadratic deviation so the
    identity z(x) = constant_offset - V(x) holds exactly; D couples only
    consecutive flows, and the substituted form couples xbar_i with
    xbar_{i+-1} and x0 only.
    """
    L = loads.loads
    n = len(L)
    mean = Fraction(sum(L), n)
    ahat = tuple(Fraction(v) - mean for v in L)
    B = n - 1

    c = tuple(-2 * (ahat[i + 1] - ahat[i]) for i in range(B))
    D = [[Fraction(0)] * B for _ in range(B)]
    for i in range(B):
        D[i][i] = Fraction(-2)
        if i + 1 < B:
            D[i][i + 1] = Fraction(1)
            D[i + 1][i] = Fraction(1)

    width = 3 * B
    rows = []
    rhs = []
    for i in range(B):  # x_i + xp_i = A_i
        row = [0] * width
        row[i] = 1
        row[B + i] = 1
        rows.append(tuple(row))
        rhs.append(L[i])
    for i in range(B):  # -x_i + xpp_i = A_{i+1}
        row = [0] * width
        row[i] = -1
        row[2 * B + i] = 1
        rows.append(tuple(row))
        rhs.append(L[i + 1])
    variables = (
        tuple(f"x{i + 1}" for i in range(B))
        + tuple(f"x{i + 1}_prime" for i in range(B))
        + tuple(f"x{i + 1}_dprime" for i in range(B))
    )

    # substitution x_i = xbar_i - x0: expand both objective pieces in the
    # shifted variables; row_sums = D.1 drives the x0 cross terms
    row_sums = [sum(D[i], Fraction(0)) for i in range(B)]
    sub_linear = c + (-sum(c, Fraction(0)),)
    Q = [[Fraction(0)] * (B + 1) for _ in range(B + 1)]
    for i in range(B):
        for j in range(B):
            Q[i][j] = D[i][j]
        Q[i][B] = -row_sums[i]
        Q[B][i] = -row_sums[i]
    Q[B][B] = sum(row_sums, Fraction(0))
    sub_vars = tuple(f"xbar{i + 1}" for i in range(B)) + ("x0",)

    return StandardFormQP(
        shifted_loads=ahat,
        linear_coeffs=c,
        quadratic_coeffs=tuple(tuple(r) for r in D),
        constraint_matrix=tuple(rows),
        constraint_rhs=tuple(rhs),
        variables=variables,
        substitution=ShiftedVariableForm(
            variables=sub_vars,
            linear=sub_linear,
            quadratic=tuple(tuple(r) for r in Q),
        ),
        constant_offset=deviation(loads, Objective.QUADRATIC),
    )
