"""Embedded exact solver for an LP with complementarity pairs.

A two-phase primal simplex on the bounded-variable form solves the LP; a
best-first branch-and-bound on the buy/sell and charge/discharge pairs of
`MilpProblem.complementary_pairs` enforces that at most one member of each
pair is positive (de Farias, Johnson & Nemhauser, KER 16(1), 2001: no
auxiliary binaries). Where the LP can give complementarity by itself (the
pair's columns cancel in every row and their costs sum to >= 0), an
overlap closes by shifting both members down; only the other pairs branch,
by fixing one member of a violated pair to zero. Most windows of this
problem family close at the root node, whose LP is the relaxation; there
is no separate LP entry point.
`verify_solution` re-checks every row, bound and pair from the problem's
CSR arrays, independently of the tableau.

Dense tableaus are deliberate: case-study problems stay in the hundreds of
columns. The entering column is hypersparse (most pivots touch one or two
rows), so the rank-1 update rewrites only the rows with a nonzero in it;
every other row would subtract an exact zero. Bounds do not move within a
phase, so the pricing masks that depend on them are built once per phase.
Determinism is a contract: identical problems yield identical solutions,
pivot for pivot (Dantzig pricing with index tie-breaks, Bland's rule
engaged after degenerate stretches).
"""

from __future__ import annotations

import enum
import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from lecopt.model import MilpProblem

FEAS_TOL = 1e-6
DUAL_TOL = 1e-9
PIVOT_TOL = 1e-9
DEGENERATE_STREAK_FOR_BLAND = 100
REFRESH_EVERY = 128
# `_Dense` refuses a problem whose simplex tableau, m x (n + 2m) float64
# (structural, slack and at most one artificial column per row), exceeds
# this. A 24 h window needs about 0.5 MB, or 2.8 MB under optimized sharing.
MAX_TABLEAU_BYTES = 1 << 30


class SolverError(RuntimeError):
    """A solve that ended without a verified optimum: a node, time or simplex iteration limit, an unbounded ray, or a rejected solution."""


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    LIMIT_REACHED = "limit_reached"


@dataclass(frozen=True)
class MilpSolution:
    status: Status
    x: tuple[float, ...] | None
    objective: float | None
    iterations: int
    node_count: int
    gap: float | None


@dataclass(frozen=True)
class SolveConfig:
    node_limit: int | None = None
    time_limit: float | None = None


@dataclass(frozen=True)
class SolutionViolation:
    kind: str  # "row", "bound", "complementarity"
    name: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind} {self.name}: {self.message}"


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[SolutionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(str(v) for v in self.violations)


class _Dense:
    """Row-major dense image of a MilpProblem's LP, shared across B&B nodes; all but `A` are the problem's arrays."""

    def __init__(self, problem: MilpProblem):
        m, n = problem.num_rows, problem.num_cols
        size = 8 * m * (n + 2 * m)
        if size > MAX_TABLEAU_BYTES:
            raise ValueError(
                f"problem too large for the dense solver: {m} rows x {n} columns need {size:,} bytes "
                f"of tableau (limit {MAX_TABLEAU_BYTES:,}); use shorter windows"
            )
        self.m, self.n = m, n
        self.A = np.zeros((m, n))
        self.A[problem.row_of_entry(), problem.indices] = problem.data
        self.rhs, self.sense = problem.rhs, problem.sense
        self.c, self.lb, self.ub = problem.objective, problem.lb, problem.ub
        self.constant = problem.objective_constant


def _implied_pairs(dense: _Dense, pairs: np.ndarray) -> np.ndarray:
    """Mask of the pairs (a, b) whose overlap the LP can remove by itself.

    A pair is implied when its columns are exact opposites in every row,
    both lower bounds are 0 and c_a + c_b >= 0: lowering both members by
    the same amount then keeps every row and bound and never raises the
    objective (a dominated-column argument; Gamrath et al., Math. Prog.
    Comp. 7, 2015).
    """
    a, b = pairs[:, 0], pairs[:, 1]
    opposite = np.all(dense.A[:, a] == -dense.A[:, b], axis=0)
    return opposite & (dense.lb[a] == 0.0) & (dense.lb[b] == 0.0) & (dense.c[a] + dense.c[b] >= 0.0)


def _simplex(dense: _Dense, lb_n: np.ndarray, ub_n: np.ndarray) -> tuple[Status, np.ndarray | None, int]:
    """Two-phase bounded-variable primal simplex.

    Returns (status, structural solution, iteration count): OPTIMAL or
    INFEASIBLE. `lb_n`/`ub_n` are the node bounds for structural columns.
    Validation gives every column of `build`'s LP finite bounds, so an
    unbounded ray is a fault and raises SolverError.
    """
    m, n = dense.m, dense.n
    # Extended columns: structural | one slack per row | artificials appended on demand.
    # Slack s_i = rhs_i - A_i x is >= 0 for "<=", <= 0 for ">=" and 0 for "=".
    N = n + m
    lb = np.concatenate([lb_n, np.where(dense.sense == ">=", -math.inf, 0.0)])
    ub = np.concatenate([ub_n, np.where(dense.sense == "<=", math.inf, 0.0)])
    if np.any(lb > ub + 1e-12):
        return Status.INFEASIBLE, None, 0

    # Nonbasic start: every column at a finite bound. Each column has one:
    # validation bounds the structural columns, the row sense each slack.
    x = np.where(np.isfinite(lb), lb, ub)
    ub = np.maximum(ub, lb)  # guard equal-bound rounding

    A_ext = np.hstack([dense.A, np.eye(m)])
    # Each row starts on its slack where the slack's bounds allow. Elsewhere
    # the slack is clipped to its nearest bound and an artificial column,
    # signed like the remaining residual, covers the rest.
    target = x[n:] + (dense.rhs - A_ext @ x)
    clipped = np.minimum(np.maximum(target, lb[n:]), ub[n:])
    art_rows = np.flatnonzero(~((lb[n:] - 1e-12 <= target) & (target <= ub[n:] + 1e-12)))
    n_art = art_rows.size
    x[n + art_rows] = clipped[art_rows]
    resid = np.array([dense.rhs[i] - A_ext[i] @ x for i in art_rows])
    art_sign = np.where(resid >= 0, 1.0, -1.0)
    basis = n + np.arange(m)
    basis[art_rows] = N + np.arange(n_art)
    xB = clipped
    xB[art_rows] = np.abs(resid)
    if n_art:
        art_block = np.zeros((m, n_art))
        art_block[art_rows, np.arange(n_art)] = art_sign
        A_ext = np.hstack([A_ext, art_block])
        lb = np.concatenate([lb, np.zeros(n_art)])
        ub = np.concatenate([ub, np.full(n_art, math.inf)])
        x = np.concatenate([x, xB[art_rows]])
    N_tot = N + n_art

    in_basis = np.zeros(N_tot, dtype=bool)
    in_basis[basis] = True
    T = A_ext.copy()
    # The starting basis is diag(+-1): slack rows carry +1, artificial rows
    # carry their sign. Scale those rows so T = B^-1 A holds from the start.
    T[art_rows[art_sign < 0]] *= -1.0

    iterations = 0

    def run_phase(c_phase: np.ndarray, frozen: np.ndarray) -> None:
        nonlocal iterations, T, xB
        d = c_phase - c_phase[basis] @ T
        # Bounds and frozen columns hold for the whole phase. A nonbasic
        # column sits exactly on a bound, so a fixed column never prices and
        # is dropped here once.
        movable = ~frozen & ~(np.isfinite(lb) & np.isfinite(ub) & (ub - lb < 1e-12))
        degenerate_streak = 0
        since_refresh = 0
        max_iter = 20000 + 50 * N_tot
        while True:
            iterations += 1
            if iterations > max_iter:
                raise SolverError("simplex iteration limit exceeded")
            bland = degenerate_streak >= DEGENERATE_STREAK_FOR_BLAND

            # Infinite bounds never compare as "at": x stays finite.
            at_lb = np.abs(x - lb) < 1e-11
            at_ub = np.abs(x - ub) < 1e-11
            # Raise a column off its lower bound (or from in between) when d < 0,
            # lower it off its upper bound (or from in between) when d > 0.
            improving = ((d < -DUAL_TOL) & (at_lb | ~at_ub)) | ((d > DUAL_TOL) & ~at_lb)
            candidates = np.flatnonzero(improving & movable & ~in_basis)
            if candidates.size == 0:
                return
            # Bland: the lowest index; Dantzig: the largest |d|, lowest index on ties.
            j = int(candidates[0] if bland else candidates[np.argmax(np.abs(d[candidates]))])
            sign = 1.0 if d[j] < 0 else -1.0

            y = T[:, j]
            incr = -sign * y  # change of basic values per unit step
            lbB, ubB = lb[basis], ub[basis]
            limits = np.full(m, math.inf)
            dec = incr < -PIVOT_TOL
            limits[dec] = (xB[dec] - lbB[dec]) / (-incr[dec])
            inc = incr > PIVOT_TOL
            limits[inc] = (ubB[inc] - xB[inc]) / incr[inc]
            limits = np.maximum(limits, 0.0)
            own = ub[j] - lb[j] if (np.isfinite(ub[j]) and np.isfinite(lb[j])) else math.inf

            t_row = limits.min() if m else math.inf
            t_step = min(t_row, own)
            if not np.isfinite(t_step):
                raise SolverError("simplex found an unbounded ray: some column lacks a finite bound")
            degenerate_streak = degenerate_streak + 1 if t_step <= 1e-12 else 0

            if own <= t_row:
                # Bound flip: entering runs to its opposite bound, basis unchanged.
                xB += incr * own
                x[j] = ub[j] if sign > 0 else lb[j]
            else:
                t_step = t_row
                cand = np.nonzero(limits <= t_step + 1e-9)[0]
                mags = np.abs(incr[cand])
                strong = cand[mags >= mags.max() * 0.5]
                r = int(strong[np.argmin(basis[strong])]) if not bland else int(cand[np.argmin(basis[cand])])
                leave = basis[r]
                xB += incr * t_step
                entering_val = x[j] + sign * t_step
                # A row's ratio is finite only with a finite bound on the side it moves toward.
                x[leave] = lb[leave] if incr[r] < 0 else ub[leave]
                Tr = T[r] / T[r, j]
                # Rows with a zero in column j would subtract an exact zero
                # (at most turning a -0.0 into +0.0, which no pivot test reads).
                rows = np.flatnonzero(y)
                rows = rows[rows != r]
                T[rows] -= np.outer(T[rows, j], Tr)
                T[r] = Tr
                d -= d[j] * Tr
                xB[r] = entering_val
                basis[r] = j
                in_basis[leave] = False
                in_basis[j] = True
                since_refresh += 1
                if since_refresh >= REFRESH_EVERY:
                    d = c_phase - c_phase[basis] @ T
                    since_refresh = 0
            x[basis] = xB

    frozen = np.zeros(N_tot, dtype=bool)
    if n_art:
        c1 = np.zeros(N_tot)
        c1[N:] = 1.0
        run_phase(c1, frozen)
        x[basis] = xB
        if float(x[N:].sum()) > 1e-7:
            return Status.INFEASIBLE, None, iterations
        # Artificials are pinned at zero for phase 2.
        lb[N:] = 0.0
        ub[N:] = 0.0
        frozen = np.zeros(N_tot, dtype=bool)
        frozen[N:] = ~in_basis[N:]

    c2 = np.zeros(N_tot)
    c2[:n] = dense.c
    run_phase(c2, frozen)
    x[basis] = xB
    if n_art and float(np.abs(x[N:]).sum()) > 1e-7:
        return Status.INFEASIBLE, None, iterations
    sol = x[:n].copy()
    np.clip(sol, lb_n, ub_n, out=sol)
    return Status.OPTIMAL, sol, iterations


def verify_solution(problem: MilpProblem, x, feas_tol: float = FEAS_TOL) -> ViolationReport:
    """Independent re-check of every row, bound, and complementarity pair.

    A pair is violated when both of its members exceed `feas_tol`.

    Works from the problem's CSR arrays only; shares no state with the
    simplex. An empty report is required before any settlement is produced.
    """
    xs = np.asarray(x, dtype=float)
    if xs.shape != (problem.num_cols,):
        return ViolationReport(
            (SolutionViolation("bound", "solution", f"length {xs.shape} != {problem.num_cols} columns"),)
        )
    # bincount adds each row's terms in column order, as a left-to-right sum would.
    lhs = np.bincount(problem.row_of_entry(), problem.data * xs[problem.indices], minlength=problem.num_rows)
    resid = lhs - problem.rhs
    sense = problem.sense
    bad = np.where(sense == "=", np.abs(resid) > feas_tol, np.where(sense == "<=", resid > feas_tol, resid < -feas_tol))
    out = [
        SolutionViolation("row", problem.row_names[i], f"lhs {lhs[i]:.9g} {sense[i]} rhs {problem.rhs[i]:.9g} violated by {resid[i]:.3g}")
        for i in np.flatnonzero(bad).tolist()
    ]
    below = xs < problem.lb - feas_tol
    above = xs > problem.ub + feas_tol
    for j in np.flatnonzero(below | above).tolist():
        if below[j]:
            out.append(SolutionViolation("bound", problem.col_name(j), f"{xs[j]:.9g} below lower bound {problem.lb[j]:.9g}"))
        if above[j]:
            out.append(SolutionViolation("bound", problem.col_name(j), f"{xs[j]:.9g} above upper bound {problem.ub[j]:.9g}"))
    pairs = problem.complementary_pairs
    for a, b in pairs[np.all(xs[pairs] > feas_tol, axis=1)].tolist():
        out.append(SolutionViolation(
            "complementarity", f"{problem.col_name(a)}/{problem.col_name(b)}",
            f"both {xs[a]:.9g} and {xs[b]:.9g} exceed {feas_tol:g}",
        ))
    return ViolationReport(tuple(out))


def solve_milp(problem: MilpProblem, config: SolveConfig | None = None) -> MilpSolution:
    """Exact best-first branch-and-bound on the complementarity pairs.

    Every node solves the LP of `_Dense` under its bounds. A pair of
    `complementary_pairs` is violated when both members exceed 1e-9. The
    overlap of an implied pair (`_implied_pairs`, computed at the first
    overlapping node) is removed by subtracting it from both members, and
    the node objective is recomputed from the shifted point. A node without
    a violated pair left closes with that point. Otherwise the node
    branches on the pair with the largest smaller member (lowest pair index
    on ties): one child bounds the first member to 0, the next the second.
    Returns LIMIT_REACHED with the incumbent and remaining gap when node or
    time limits bite.
    """
    cfg = config or SolveConfig()
    dense = _Dense(problem)
    pairs = problem.complementary_pairs
    t_start = time.monotonic()
    total_iters = 0
    node_count = 0

    implied: np.ndarray | None = None  # built at the first overlap; root-closing windows never need it
    incumbent: np.ndarray | None = None
    incumbent_obj = math.inf

    counter = 0
    heap: list[tuple[float, int, tuple[int, ...]]] = [(-math.inf, counter, ())]
    lower_bound = math.inf  # best bound among open nodes, set after root solve
    limit_hit = False

    while heap:
        bound, _, zeroed = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent_obj - 1e-9:
            break  # best-first: every open node is at least this bound
        if (cfg.node_limit is not None and node_count >= cfg.node_limit) or (
            cfg.time_limit is not None and time.monotonic() - t_start > cfg.time_limit
        ):
            limit_hit = True
            lower_bound = min(bound, incumbent_obj) if bound > -math.inf else lower_bound
            break
        node_count += 1

        ub = dense.ub.copy()
        ub[list(zeroed)] = 0.0

        status, x, iters = _simplex(dense, dense.lb.copy(), ub)
        total_iters += iters
        if status is not Status.OPTIMAL:
            continue
        node_obj = float(dense.c @ x) + dense.constant
        if node_count == 1:
            lower_bound = node_obj
        if incumbent is not None and node_obj >= incumbent_obj - 1e-9:
            continue

        overlap = np.minimum(x[pairs[:, 0]], x[pairs[:, 1]])
        if np.any(overlap > 1e-9):
            if implied is None:
                implied = _implied_pairs(dense, pairs)
            # Shift each overlapping implied pair down by its overlap: every
            # row and bound still holds, and the objective does not rise.
            shift = np.where(implied, overlap, 0.0)
            x[pairs[:, 0]] -= shift
            x[pairs[:, 1]] -= shift
            node_obj = float(dense.c @ x) + dense.constant
            overlap = np.minimum(x[pairs[:, 0]], x[pairs[:, 1]])
        if not np.any(overlap > 1e-9):
            incumbent, incumbent_obj = x, node_obj
            continue

        for col in pairs[int(np.argmax(overlap))]:
            counter += 1
            heapq.heappush(heap, (node_obj, counter, zeroed + (int(col),)))

    if incumbent is None:
        if limit_hit:
            return MilpSolution(Status.LIMIT_REACHED, None, None, total_iters, node_count, None)
        return MilpSolution(Status.INFEASIBLE, None, None, total_iters, node_count, None)

    if limit_hit:
        open_bounds = [b for b, _, _ in heap if b > -math.inf]
        lb_all = min([lower_bound] + open_bounds) if (open_bounds or lower_bound < math.inf) else -math.inf
        gap = max(0.0, incumbent_obj - lb_all)
        return MilpSolution(Status.LIMIT_REACHED, tuple(incumbent), incumbent_obj, total_iters, node_count, gap)
    return MilpSolution(Status.OPTIMAL, tuple(incumbent), incumbent_obj, total_iters, node_count, 0.0)
