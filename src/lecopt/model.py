"""Translation of a validated community spec into a scheduling problem.

Decision variables per hour t and participant p, all continuous:

  chi_buy[t,p], chi_sell[t,p]   grid purchase / sale, kWh
  sigma_ch[t], sigma_dis[t]     battery charge / discharge, kWh
  soc[t]                        battery state of charge at the end of hour t, kWh
  alloc[t,p]                    hourly share of net generation, kWh
                                (only when the allocation itself is optimized)

Each kind is one contiguous column block, in the order listed, hour-major
and participant-minor: `VariableIndex.block(kind)` gives its column numbers
shaped (T, P) or (T,), so `x[index.block(CHI_BUY)]` is the (T, P) purchase
schedule. One problem covers one optimization window of T hours; the last
window of a horizon that is not a multiple of the window length is shorter.

The problem is an LP plus complementarity pairs: nobody buys and sells in
the same hour (buy, sell), and the battery never charges and discharges at
once (ch, dis). The solver closes a pair by a shift where the LP allows it
and branches on the rest.
`export_lp_text` writes the equivalent MILP for external solvers: one
binary per flow of a pair, a big-M cap per flow, and an exclusivity row
per pair. Each big-M is the flow's upper bound, i.e. exactly the contracted
power of the active tariff period, never a generic large number.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from lecopt.domain import CommunitySpec, validate_community

INF = math.inf


class Objective(enum.Enum):
    PRICE = "price"
    ENVIRONMENT = "environment"


class AllocationMode(enum.Enum):
    """Fixed sharing coefficients (data) vs. hourly allocation as decision variables."""

    FIXED = "fixed"
    OPTIMIZED = "optimized"


CHI_BUY = "chi_buy"
CHI_SELL = "chi_sell"
SIGMA_CH = "sigma_ch"
SIGMA_DIS = "sigma_dis"
SOC = "soc"
ALLOC = "alloc"

_PER_PARTICIPANT_KINDS = (CHI_BUY, CHI_SELL)
_BATTERY_KINDS = (SIGMA_CH, SIGMA_DIS, SOC)


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


class VariableIndex:
    """Column layout: one contiguous block per variable kind, in the order of `names`.

    Within a block columns run hour-major, participant-minor, so
    `block(kind)` is an arange shaped (T, P) for the per-participant kinds
    and (T,) for the battery kinds.
    """

    def __init__(self, horizon: int, participant_ids: Sequence[str], optimized_allocation: bool):
        self.horizon = horizon
        self.participant_ids = tuple(participant_ids)
        T, P = horizon, len(self.participant_ids)
        shapes = [(kind, (T, P)) for kind in _PER_PARTICIPANT_KINDS]
        shapes += [(kind, (T,)) for kind in _BATTERY_KINDS]
        if optimized_allocation:
            shapes.append((ALLOC, (T, P)))
        self._blocks: dict[str, tuple[int, tuple[int, ...]]] = {}
        names: list[str] = []
        pids = [_sanitize(pid) for pid in self.participant_ids]
        for kind, shape in shapes:
            self._blocks[kind] = (len(names), shape)
            if len(shape) == 2:
                names += [f"{kind}_{t}_{pid}" for t in range(T) for pid in pids]
            else:
                names += [f"{kind}_{t}" for t in range(T)]
        self.names = tuple(names)
        self.num_cols = len(names)

    def block(self, kind: str) -> np.ndarray:
        """Column numbers of `kind`, shaped (T, P) or (T,); KeyError for an absent kind."""
        start, shape = self._blocks[kind]
        return np.arange(start, start + math.prod(shape)).reshape(shape)


@dataclass(frozen=True)
class LinearRow:
    """One sparse constraint row: sum(coef * col) `sense` rhs."""

    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str  # "<=", "=", ">="
    rhs: float


@dataclass(frozen=True)
class MilpProblem:
    """Immutable sparse LP with complementarity pairs: objective, rows, bounds, pairs.

    Each pair (a, b) of `complementary_pairs` is a buy/sell or
    charge/discharge column pair of which at most one may be positive.
    The pairs are the only discrete part of the problem: it has no binary
    columns (see `export_lp_text` for the binaries an external MILP solver
    needs).
    """

    scenario_label: str
    index: VariableIndex
    objective: tuple[float, ...]
    objective_constant: float
    rows: tuple[LinearRow, ...]
    lb: tuple[float, ...]
    ub: tuple[float, ...]
    complementary_pairs: tuple[tuple[int, int], ...]
    allocation_mode: AllocationMode = AllocationMode.FIXED

    @property
    def num_cols(self) -> int:
        return self.index.num_cols

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def binaries(self) -> frozenset[int]:
        """Binary columns: none, the pairs take their place."""
        return frozenset()

    def col_name(self, j: int) -> str:
        return self.index.names[j]


class _Builder:
    def __init__(self, index: VariableIndex):
        self.index = index
        self.rows: list[LinearRow] = []
        self.lb = np.zeros(index.num_cols)
        self.ub = np.full(index.num_cols, INF)
        self.objective = np.zeros(index.num_cols)
        self.objective_constant = 0.0

    def add_row(self, name: str, coeffs: Mapping[int, float], sense: str, rhs: float) -> None:
        items = tuple(sorted((c, float(v)) for c, v in coeffs.items() if v != 0.0))
        for _, v in items:
            if not math.isfinite(v):
                raise ValueError(f"non-finite coefficient in row {name}")
        if not math.isfinite(rhs):
            raise ValueError(f"non-finite rhs in row {name}")
        self.rows.append(LinearRow(name, items, sense, float(rhs)))


def _column_pairs(*blocks: tuple[np.ndarray, np.ndarray]) -> tuple[tuple[int, int], ...]:
    """Column pairs (a, b) of equally shaped blocks, block after block in raveled order."""
    stacked = np.concatenate([np.column_stack([a.ravel(), b.ravel()]) for a, b in blocks])
    return tuple(map(tuple, stacked.tolist()))


def build(
    spec: CommunitySpec,
    objective: Objective,
    allocation: AllocationMode | None = None,
) -> MilpProblem:
    """Build the scheduling LP and its complementarity pairs for one optimization window.

    `allocation` defaults to OPTIMIZED when the sharing scheme leaves the
    hourly coefficients free, FIXED otherwise. Raises ValueError when the
    spec fails validation or when FIXED is requested without coefficients.
    """
    report = validate_community(spec)
    if not report.ok:
        raise ValueError(f"community spec invalid:\n{report}")

    if allocation is None:
        allocation = AllocationMode.OPTIMIZED if spec.sharing.optimized else AllocationMode.FIXED
    if allocation is AllocationMode.FIXED and spec.sharing.optimized:
        raise ValueError("fixed allocation requested but the sharing scheme carries no coefficients")

    T = spec.horizon_hours
    ids = spec.participant_ids()
    index = VariableIndex(T, ids, allocation is AllocationMode.OPTIMIZED)
    b = _Builder(index)

    # `export_lp_text` places the rows of its binaries by position: it needs
    # the T*P balance rows first, the T `socdyn_t` rows next, and the pairs
    # in the same (t, p) and t order.
    _declare_variables(b, spec, allocation)
    _add_energy_balance(b, spec, allocation)
    _add_battery(b, spec)
    if allocation is AllocationMode.OPTIMIZED:
        _add_sharing(b, spec)
    if spec.compensation_cap_enabled:
        _add_compensation_cap(b, spec)
    if objective is Objective.PRICE:
        _set_price_objective(b, spec)
    else:
        _set_environment_objective(b, spec)

    buy, sell, ch, dis = (index.block(k) for k in (CHI_BUY, CHI_SELL, SIGMA_CH, SIGMA_DIS))
    pairs = _column_pairs((buy, sell), (ch, dis))

    label = f"objective={objective.value} allocation={allocation.value} horizon={T}h participants={len(ids)}"
    return MilpProblem(
        scenario_label=label,
        index=index,
        objective=tuple(b.objective),
        objective_constant=b.objective_constant,
        rows=tuple(b.rows),
        lb=tuple(b.lb),
        ub=tuple(b.ub),
        complementary_pairs=pairs,
        allocation_mode=allocation,
    )


def _declare_variables(b: _Builder, spec: CommunitySpec, allocation: AllocationMode) -> None:
    index = b.index
    bess = spec.bess
    hours = range(spec.horizon_hours)
    b.ub[index.block(CHI_BUY)] = [[p.import_limit(t) for p in spec.participants] for t in hours]
    b.ub[index.block(CHI_SELL)] = [[p.export_limit(t) for p in spec.participants] for t in hours]
    b.ub[index.block(SIGMA_CH)] = bess.p_ch_max
    b.ub[index.block(SIGMA_DIS)] = bess.p_dis_max
    soc = index.block(SOC)
    b.lb[soc] = bess.soc_min
    b.ub[soc] = bess.soc_max
    if allocation is AllocationMode.OPTIMIZED:
        alloc = index.block(ALLOC)
        b.lb[alloc] = -bess.p_ch_max
        b.ub[alloc] = (spec.pv.generation.as_array() + bess.p_dis_max)[:, None]


def _add_energy_balance(b: _Builder, spec: CommunitySpec, allocation: AllocationMode) -> None:
    # Fixed mode: beta*(pv + dis - ch) + buy = load + sell, with beta and pv data.
    # Optimized mode: alloc + buy = load + sell; alloc is tied to net generation
    # by the sharing rows.
    index = b.index
    buy, sell = index.block(CHI_BUY).tolist(), index.block(CHI_SELL).tolist()
    ch, dis = index.block(SIGMA_CH).tolist(), index.block(SIGMA_DIS).tolist()
    alloc = index.block(ALLOC).tolist() if allocation is AllocationMode.OPTIMIZED else None
    for t in range(spec.horizon_hours):
        pv = spec.pv.generation.values[t]
        for k, p in enumerate(spec.participants):
            load = p.load.values[t]
            coeffs = {buy[t][k]: 1.0, sell[t][k]: -1.0}
            if allocation is AllocationMode.FIXED:
                beta = spec.sharing.coefficient(p.id, t)
                coeffs[dis[t]] = beta
                coeffs[ch[t]] = -beta
                rhs = load - beta * pv
            else:
                coeffs[alloc[t][k]] = 1.0
                rhs = load
            b.add_row(f"balance_{t}_{_sanitize(p.id)}", coeffs, "=", rhs)


def _add_battery(b: _Builder, spec: CommunitySpec) -> None:
    index = b.index
    bess = spec.bess
    T = spec.horizon_hours
    ch, dis, soc = index.block(SIGMA_CH).tolist(), index.block(SIGMA_DIS).tolist(), index.block(SOC).tolist()
    for t in range(T):
        coeffs = {soc[t]: 1.0, ch[t]: -bess.eta_ch, dis[t]: 1.0 / bess.eta_dis}
        rhs = 0.0
        if t == 0:
            rhs = bess.soc_initial
        else:
            coeffs[soc[t - 1]] = -1.0
        b.add_row(f"socdyn_{t}", coeffs, "=", rhs)
    b.add_row(f"socend", {soc[T - 1]: 1.0}, "=", bess.soc_final)


def _add_sharing(b: _Builder, spec: CommunitySpec) -> None:
    # Allocations partition the hourly net generation theta = pv + dis - ch.
    # Each share is capped by gross generation above and total charging below,
    # so net-charging hours distribute the charge as consumption.
    index = b.index
    alloc = index.block(ALLOC).tolist()
    ch, dis = index.block(SIGMA_CH).tolist(), index.block(SIGMA_DIS).tolist()
    for t in range(spec.horizon_hours):
        pv = spec.pv.generation.values[t]
        coeffs = {g: 1.0 for g in alloc[t]}
        coeffs[dis[t]] = -1.0
        coeffs[ch[t]] = 1.0
        b.add_row(f"share_{t}", coeffs, "=", pv)
        for g, p in zip(alloc[t], spec.participants):
            b.add_row(f"sharelo_{t}_{_sanitize(p.id)}", {g: 1.0, ch[t]: 1.0}, ">=", 0.0)
            b.add_row(f"sharehi_{t}_{_sanitize(p.id)}", {g: 1.0, dis[t]: -1.0}, "<=", pv)


def _add_compensation_cap(b: _Builder, spec: CommunitySpec) -> None:
    # Billing-period rule: compensated surplus value cannot exceed the value
    # of imported consumption. Off by default.
    index = b.index
    buy, sell = index.block(CHI_BUY).T.tolist(), index.block(CHI_SELL).T.tolist()
    for k, p in enumerate(spec.participants):
        coeffs: dict[int, float] = {}
        for t in range(spec.horizon_hours):
            coeffs[sell[k][t]] = p.sell_price.values[t]
            coeffs[buy[k][t]] = -p.buy_price.values[t]
        b.add_row(f"compcap_{_sanitize(p.id)}", coeffs, "<=", 0.0)


def _set_price_objective(b: _Builder, spec: CommunitySpec) -> None:
    index = b.index
    b.objective[index.block(CHI_BUY)] = np.column_stack([p.buy_price.as_array() for p in spec.participants])
    b.objective[index.block(CHI_SELL)] = -np.column_stack([p.sell_price.as_array() for p in spec.participants])
    if spec.bess.throughput_cost_per_kwh:
        b.objective[index.block(SIGMA_CH)] = spec.bess.throughput_cost_per_kwh
        b.objective[index.block(SIGMA_DIS)] = spec.bess.throughput_cost_per_kwh
    b.objective_constant = spec.horizon_hours * spec.bess.calendar_cost_per_hour


def _set_environment_objective(b: _Builder, spec: CommunitySpec) -> None:
    # Only consumed energy carries emissions: sold energy has no coefficient.
    index = b.index
    b.objective[index.block(CHI_BUY)] = spec.grid_intensity.as_array()[:, None]
    b.objective[index.block(SIGMA_DIS)] = spec.bess.emission_factor_discharge
    b.objective_constant = spec.pv.emission_factor * float(np.sum(spec.pv.generation.as_array()))


def net_generation(problem: MilpProblem, x: Sequence[float], spec: CommunitySpec) -> np.ndarray:
    """Hourly community net generation theta = pv + discharge - charge."""
    index = problem.index
    xs = np.asarray(x, dtype=float)
    return spec.pv.generation.as_array() + xs[index.block(SIGMA_DIS)] - xs[index.block(SIGMA_CH)]


def effective_coefficients(
    problem: MilpProblem, x: Sequence[float], spec: CommunitySpec, zero_tol: float = 1e-9
) -> dict[str, np.ndarray]:
    """Hourly sharing coefficients realized by a solution.

    In fixed mode these are the data, static or hourly. In optimized mode
    beta = alloc / theta where theta is nonzero; hours with theta == 0 fall
    back to the static coefficients (uniform when absent).
    """
    ids = spec.participant_ids()
    if problem.allocation_mode is AllocationMode.FIXED:
        hours = range(problem.index.horizon)
        return {pid: np.array([spec.sharing.coefficient(pid, t) for t in hours]) for pid in ids}
    theta = net_generation(problem, x, spec)
    alloc = np.asarray(x, dtype=float)[problem.index.block(ALLOC)].T.copy()  # one contiguous row per participant
    nonzero = np.abs(theta) > zero_tol
    out: dict[str, np.ndarray] = {}
    for pid, row in zip(ids, alloc):
        betas = np.full(theta.size, float(spec.sharing.static_coefficients.get(pid, 1.0 / len(ids))))
        np.divide(row, theta, out=betas, where=nonzero)
        out[pid] = betas
    return out


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _term(coef: float, name: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    mag = abs(coef)
    lead = "" if first and sign == "" else f"{sign} "
    return f"{lead}{_fmt(mag)} {name}"


def _terms(terms) -> str:
    """`(name, coef)` terms as LP text; zero coefficients are dropped, as `_Builder.add_row` drops them."""
    nonzero = [(name, coef) for name, coef in terms if coef != 0.0]
    return " ".join(_term(coef, name, k == 0) for k, (name, coef) in enumerate(nonzero))


def _row_text(name: str, terms, sense: str, rhs: float) -> str:
    return f" {name}: {_terms(terms)} {sense} {_fmt(rhs)}"


def export_lp_text(problem: MilpProblem) -> str:
    """Render the problem as a MILP in LP text format for external cross-checking.

    LP text has no complementarity constraints, so each member f of a pair
    gets a binary `delta_<f without its kind prefix>` (`delta_buy_3_B1` for
    `chi_buy_3_B1`), the cap row f - ub(f) * delta_f <= 0, and each pair the
    exclusivity row delta_a + delta_b <= 1. These rows sit right after the
    balance row of their (hour, participant), or the `socdyn_t` row of
    their hour, as `build` orders them.

    Deterministic: identical problems export byte-identical text. The
    objective constant is not representable in LP format and is recorded in
    a leading comment instead.
    """
    names, ub = problem.index.names, problem.ub
    grid_pairs = problem.index.horizon * len(problem.index.participant_ids)
    grid, battery = problem.complementary_pairs[:grid_pairs], problem.complementary_pairs[grid_pairs:]

    def delta(j: int) -> str:
        return "delta_" + names[j].split("_", 1)[1]

    def cap(j: int) -> str:
        _, short, suffix = names[j].split("_", 2)
        return _row_text(f"{short}cap_{suffix}", [(names[j], 1.0), (delta(j), -ub[j])], "<=", 0.0)

    def exclusion(prefix: str, a: int, b: int) -> str:
        return _row_text(f"{prefix}_{names[a].split('_', 2)[2]}", [(delta(a), 1.0), (delta(b), 1.0)], "<=", 1.0)

    lines = [f"\\ scenario: {problem.scenario_label}"]
    lines.append(f"\\ objective constant: {_fmt(problem.objective_constant)}")
    lines.append("Minimize")
    lines.append(" obj: " + (_terms(zip(names, problem.objective)) or "0 " + names[0]))
    lines.append("Subject To")
    rows = [_row_text(r.name, [(names[c], v) for c, v in r.coeffs], r.sense, r.rhs) for r in problem.rows]
    lines += rows[:grid_pairs]
    for a, b in grid:
        lines += [exclusion("excl", a, b), cap(a), cap(b)]
    for t, (a, b) in enumerate(battery):
        lines += [rows[grid_pairs + t], cap(a), cap(b), exclusion("battexcl", a, b)]
    lines += rows[grid_pairs + len(battery):]
    lines.append("Bounds")
    for j, name in enumerate(names):
        lo, hi = problem.lb[j], ub[j]
        if lo == hi:
            lines.append(f" {name} = {_fmt(lo)}")
        elif math.isinf(hi):
            if lo != 0.0:
                lines.append(f" {name} >= {_fmt(lo)}")
        else:
            lines.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    lines.append("Binaries")
    lines += [f" {delta(pair[m])}" for group in (grid, battery) for m in (0, 1) for pair in group]
    lines.append("End")
    return "\n".join(lines) + "\n"
