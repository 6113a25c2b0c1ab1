"""Translation of a validated community spec into a sparse MILP.

Decision variables per hour t and participant p:

  chi_buy[t,p], chi_sell[t,p]   grid purchase / sale, kWh
  delta_buy[t,p], delta_sell[t,p]  binaries forbidding simultaneous buy+sell
  sigma_ch[t], sigma_dis[t]     battery charge / discharge, kWh
  delta_ch[t], delta_dis[t]     binaries forbidding simultaneous charge+discharge
  soc[t]                        battery state of charge at the end of hour t, kWh
  alloc[t,p]                    hourly share of net generation, kWh
                                (only when the allocation itself is optimized)

Big-M constants are exactly the contracted power of the active tariff
period, never a generic large number.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from lecopt.domain import CommunitySpec, SharingMode, validate_community

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
DELTA_BUY = "delta_buy"
DELTA_SELL = "delta_sell"
SIGMA_CH = "sigma_ch"
SIGMA_DIS = "sigma_dis"
DELTA_CH = "delta_ch"
DELTA_DIS = "delta_dis"
SOC = "soc"
ALLOC = "alloc"

_PER_PARTICIPANT_KINDS = (CHI_BUY, CHI_SELL, DELTA_BUY, DELTA_SELL)
_BATTERY_KINDS = (SIGMA_CH, SIGMA_DIS, DELTA_CH, DELTA_DIS, SOC)


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


class VariableIndex:
    """Bijection between (kind, hour, participant) and dense column indices."""

    def __init__(self, horizon: int, participant_ids: Sequence[str], optimized_allocation: bool):
        self.horizon = horizon
        self.participant_ids = tuple(participant_ids)
        self.optimized_allocation = optimized_allocation
        self._index: dict[tuple[str, int, str | None], int] = {}
        names: list[str] = []
        for kind in _PER_PARTICIPANT_KINDS:
            for t in range(horizon):
                for pid in self.participant_ids:
                    self._index[(kind, t, pid)] = len(names)
                    names.append(f"{kind}_{t}_{_sanitize(pid)}")
        for kind in _BATTERY_KINDS:
            for t in range(horizon):
                self._index[(kind, t, None)] = len(names)
                names.append(f"{kind}_{t}")
        if optimized_allocation:
            for t in range(horizon):
                for pid in self.participant_ids:
                    self._index[(ALLOC, t, pid)] = len(names)
                    names.append(f"{ALLOC}_{t}_{_sanitize(pid)}")
        self.names = tuple(names)
        self.num_cols = len(names)

    def col(self, kind: str, t: int, pid: str | None = None) -> int:
        return self._index[(kind, t, pid)]

    def __iter__(self) -> Iterator[tuple[str, int, str | None]]:
        return iter(self._index)


@dataclass(frozen=True)
class LinearRow:
    """One sparse constraint row: sum(coef * col) `sense` rhs."""

    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str  # "<=", "=", ">="
    rhs: float


@dataclass(frozen=True)
class MilpProblem:
    """Immutable sparse MILP: objective, rows, bounds, binary markers.

    `complementary_pairs` and `binary_links` record which continuous
    columns must be complementary and which binary enables which flow;
    the solver branches on the pairs and reads the binaries off the links.
    """

    scenario_label: str
    index: VariableIndex
    objective: tuple[float, ...]
    objective_constant: float
    rows: tuple[LinearRow, ...]
    lb: tuple[float, ...]
    ub: tuple[float, ...]
    binaries: frozenset[int]
    complementary_pairs: tuple[tuple[int, int], ...]
    binary_links: tuple[tuple[int, int], ...]
    objective_kind: Objective = Objective.PRICE
    allocation_mode: AllocationMode = AllocationMode.FIXED

    @property
    def num_cols(self) -> int:
        return self.index.num_cols

    @property
    def num_rows(self) -> int:
        return len(self.rows)

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
        self.binaries: set[int] = set()

    def add_row(self, name: str, coeffs: Mapping[int, float], sense: str, rhs: float) -> None:
        items = tuple(sorted((c, float(v)) for c, v in coeffs.items() if v != 0.0))
        for _, v in items:
            if not math.isfinite(v):
                raise ValueError(f"non-finite coefficient in row {name}")
        if not math.isfinite(rhs):
            raise ValueError(f"non-finite rhs in row {name}")
        self.rows.append(LinearRow(name, items, sense, float(rhs)))

    def mark_binary(self, col: int) -> None:
        self.binaries.add(col)
        self.lb[col] = 0.0
        self.ub[col] = 1.0


def build(
    spec: CommunitySpec,
    objective: Objective,
    allocation: AllocationMode | None = None,
) -> MilpProblem:
    """Build the full scheduling MILP for one optimization window.

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

    _declare_variables(b, spec, allocation)
    _add_energy_balance(b, spec, allocation)
    _add_exclusivity(b, spec)
    _add_battery(b, spec)
    if allocation is AllocationMode.OPTIMIZED:
        _add_sharing(b, spec)
    if spec.compensation_cap_enabled:
        _add_compensation_cap(b, spec)
    if objective is Objective.PRICE:
        _set_price_objective(b, spec)
    else:
        _set_environment_objective(b, spec)

    pairs = [(index.col(CHI_BUY, t, pid), index.col(CHI_SELL, t, pid)) for t in range(T) for pid in ids]
    pairs += [(index.col(SIGMA_CH, t), index.col(SIGMA_DIS, t)) for t in range(T)]
    links = [(index.col(DELTA_BUY, t, pid), index.col(CHI_BUY, t, pid)) for t in range(T) for pid in ids]
    links += [(index.col(DELTA_SELL, t, pid), index.col(CHI_SELL, t, pid)) for t in range(T) for pid in ids]
    links += [(index.col(DELTA_CH, t), index.col(SIGMA_CH, t)) for t in range(T)]
    links += [(index.col(DELTA_DIS, t), index.col(SIGMA_DIS, t)) for t in range(T)]

    label = f"objective={objective.value} allocation={allocation.value} horizon={T}h participants={len(ids)}"
    return MilpProblem(
        scenario_label=label,
        index=index,
        objective=tuple(b.objective),
        objective_constant=b.objective_constant,
        rows=tuple(b.rows),
        lb=tuple(b.lb),
        ub=tuple(b.ub),
        binaries=frozenset(b.binaries),
        complementary_pairs=tuple(pairs),
        binary_links=tuple(links),
        objective_kind=objective,
        allocation_mode=allocation,
    )


def _declare_variables(b: _Builder, spec: CommunitySpec, allocation: AllocationMode) -> None:
    index = b.index
    T = spec.horizon_hours
    for t in range(T):
        for p in spec.participants:
            b.ub[index.col(CHI_BUY, t, p.id)] = p.import_limit(t)
            b.ub[index.col(CHI_SELL, t, p.id)] = p.export_limit(t)
            b.mark_binary(index.col(DELTA_BUY, t, p.id))
            b.mark_binary(index.col(DELTA_SELL, t, p.id))
        b.ub[index.col(SIGMA_CH, t)] = spec.bess.p_ch_max
        b.ub[index.col(SIGMA_DIS, t)] = spec.bess.p_dis_max
        b.mark_binary(index.col(DELTA_CH, t))
        b.mark_binary(index.col(DELTA_DIS, t))
        soc = index.col(SOC, t)
        b.lb[soc] = spec.bess.soc_min
        b.ub[soc] = spec.bess.soc_max
        if allocation is AllocationMode.OPTIMIZED:
            for p in spec.participants:
                g = index.col(ALLOC, t, p.id)
                b.lb[g] = -spec.bess.p_ch_max
                b.ub[g] = spec.pv.generation.values[t] + spec.bess.p_dis_max


def _add_energy_balance(b: _Builder, spec: CommunitySpec, allocation: AllocationMode) -> None:
    # Fixed mode: beta*(pv + dis - ch) + buy = load + sell, with beta and pv data.
    # Optimized mode: alloc + buy = load + sell; alloc is tied to net generation
    # by the sharing rows.
    index = b.index
    for t in range(spec.horizon_hours):
        pv = spec.pv.generation.values[t]
        for p in spec.participants:
            load = p.load.values[t]
            coeffs = {
                index.col(CHI_BUY, t, p.id): 1.0,
                index.col(CHI_SELL, t, p.id): -1.0,
            }
            if allocation is AllocationMode.FIXED:
                beta = spec.sharing.coefficient(p.id, t)
                coeffs[index.col(SIGMA_DIS, t)] = beta
                coeffs[index.col(SIGMA_CH, t)] = -beta
                rhs = load - beta * pv
            else:
                coeffs[index.col(ALLOC, t, p.id)] = 1.0
                rhs = load
            b.add_row(f"balance_{t}_{_sanitize(p.id)}", coeffs, "=", rhs)


def _add_exclusivity(b: _Builder, spec: CommunitySpec) -> None:
    index = b.index
    for t in range(spec.horizon_hours):
        for p in spec.participants:
            db = index.col(DELTA_BUY, t, p.id)
            ds = index.col(DELTA_SELL, t, p.id)
            b.add_row(f"excl_{t}_{_sanitize(p.id)}", {db: 1.0, ds: 1.0}, "<=", 1.0)
            b.add_row(
                f"buycap_{t}_{_sanitize(p.id)}",
                {index.col(CHI_BUY, t, p.id): 1.0, db: -p.import_limit(t)},
                "<=",
                0.0,
            )
            b.add_row(
                f"sellcap_{t}_{_sanitize(p.id)}",
                {index.col(CHI_SELL, t, p.id): 1.0, ds: -p.export_limit(t)},
                "<=",
                0.0,
            )


def _add_battery(b: _Builder, spec: CommunitySpec) -> None:
    index = b.index
    bess = spec.bess
    T = spec.horizon_hours
    for t in range(T):
        coeffs = {
            index.col(SOC, t): 1.0,
            index.col(SIGMA_CH, t): -bess.eta_ch,
            index.col(SIGMA_DIS, t): 1.0 / bess.eta_dis,
        }
        rhs = 0.0
        if t == 0:
            rhs = bess.soc_initial
        else:
            coeffs[index.col(SOC, t - 1)] = -1.0
        b.add_row(f"socdyn_{t}", coeffs, "=", rhs)
        b.add_row(
            f"chcap_{t}",
            {index.col(SIGMA_CH, t): 1.0, index.col(DELTA_CH, t): -bess.p_ch_max},
            "<=",
            0.0,
        )
        b.add_row(
            f"discap_{t}",
            {index.col(SIGMA_DIS, t): 1.0, index.col(DELTA_DIS, t): -bess.p_dis_max},
            "<=",
            0.0,
        )
        b.add_row(
            f"battexcl_{t}",
            {index.col(DELTA_CH, t): 1.0, index.col(DELTA_DIS, t): 1.0},
            "<=",
            1.0,
        )
    b.add_row(f"socend", {index.col(SOC, T - 1): 1.0}, "=", bess.soc_final)


def _add_sharing(b: _Builder, spec: CommunitySpec) -> None:
    # Allocations partition the hourly net generation theta = pv + dis - ch.
    # Each share is capped by gross generation above and total charging below,
    # so net-charging hours distribute the charge as consumption.
    index = b.index
    for t in range(spec.horizon_hours):
        pv = spec.pv.generation.values[t]
        coeffs = {index.col(ALLOC, t, p.id): 1.0 for p in spec.participants}
        coeffs[index.col(SIGMA_DIS, t)] = -1.0
        coeffs[index.col(SIGMA_CH, t)] = 1.0
        b.add_row(f"share_{t}", coeffs, "=", pv)
        for p in spec.participants:
            g = index.col(ALLOC, t, p.id)
            b.add_row(
                f"sharelo_{t}_{_sanitize(p.id)}",
                {g: 1.0, index.col(SIGMA_CH, t): 1.0},
                ">=",
                0.0,
            )
            b.add_row(
                f"sharehi_{t}_{_sanitize(p.id)}",
                {g: 1.0, index.col(SIGMA_DIS, t): -1.0},
                "<=",
                pv,
            )


def _add_compensation_cap(b: _Builder, spec: CommunitySpec) -> None:
    # Billing-period rule: compensated surplus value cannot exceed the value
    # of imported consumption. Off by default.
    index = b.index
    for p in spec.participants:
        coeffs: dict[int, float] = {}
        for t in range(spec.horizon_hours):
            coeffs[index.col(CHI_SELL, t, p.id)] = p.sell_price.values[t]
            coeffs[index.col(CHI_BUY, t, p.id)] = -p.buy_price.values[t]
        b.add_row(f"compcap_{_sanitize(p.id)}", coeffs, "<=", 0.0)


def _set_price_objective(b: _Builder, spec: CommunitySpec) -> None:
    index = b.index
    for t in range(spec.horizon_hours):
        for p in spec.participants:
            b.objective[index.col(CHI_BUY, t, p.id)] = p.buy_price.values[t]
            b.objective[index.col(CHI_SELL, t, p.id)] = -p.sell_price.values[t]
        if spec.bess.throughput_cost_per_kwh:
            b.objective[index.col(SIGMA_CH, t)] = spec.bess.throughput_cost_per_kwh
            b.objective[index.col(SIGMA_DIS, t)] = spec.bess.throughput_cost_per_kwh
    b.objective_constant = spec.horizon_hours * spec.bess.calendar_cost_per_hour


def _set_environment_objective(b: _Builder, spec: CommunitySpec) -> None:
    # Only consumed energy carries emissions: sold energy has no coefficient.
    index = b.index
    for t in range(spec.horizon_hours):
        intensity = spec.grid_intensity.values[t]
        for p in spec.participants:
            b.objective[index.col(CHI_BUY, t, p.id)] = intensity
        b.objective[index.col(SIGMA_DIS, t)] = spec.bess.emission_factor_discharge
    b.objective_constant = spec.pv.emission_factor * float(np.sum(spec.pv.generation.as_array()))


def net_generation(problem: MilpProblem, x: Sequence[float], spec: CommunitySpec) -> np.ndarray:
    """Hourly community net generation theta = pv + discharge - charge."""
    index = problem.index
    xs = np.asarray(x, dtype=float)
    pv = spec.pv.generation.as_array()
    dis = np.array([xs[index.col(SIGMA_DIS, t)] for t in range(index.horizon)])
    ch = np.array([xs[index.col(SIGMA_CH, t)] for t in range(index.horizon)])
    return pv + dis - ch


def participant_allocation(
    problem: MilpProblem, x: Sequence[float], spec: CommunitySpec
) -> dict[str, np.ndarray]:
    """Per-participant hourly net-generation allocation, kWh.

    In fixed mode this is beta * theta (a reporting identity); in optimized
    mode the allocation variables themselves.
    """
    index = problem.index
    xs = np.asarray(x, dtype=float)
    theta = net_generation(problem, x, spec)
    out: dict[str, np.ndarray] = {}
    for p in spec.participants:
        if problem.allocation_mode is AllocationMode.FIXED:
            betas = np.array([spec.sharing.coefficient(p.id, t) for t in range(index.horizon)])
            out[p.id] = betas * theta
        else:
            out[p.id] = np.array([xs[index.col(ALLOC, t, p.id)] for t in range(index.horizon)])
    return out


def effective_coefficients(
    problem: MilpProblem, x: Sequence[float], spec: CommunitySpec, zero_tol: float = 1e-9
) -> dict[str, np.ndarray]:
    """Hourly sharing coefficients realized by a solution.

    In optimized mode beta = alloc / theta where theta is nonzero; hours with
    theta == 0 fall back to the static coefficients (uniform when absent).
    """
    index = problem.index
    theta = net_generation(problem, x, spec)
    alloc = participant_allocation(problem, x, spec)
    ids = spec.participant_ids()
    fallback = {
        pid: float(spec.sharing.static_coefficients.get(pid, 1.0 / len(ids)))
        for pid in ids
    }
    out: dict[str, np.ndarray] = {}
    for pid in ids:
        betas = np.empty(index.horizon)
        for t in range(index.horizon):
            if abs(theta[t]) > zero_tol:
                betas[t] = alloc[pid][t] / theta[t]
            else:
                betas[t] = fallback[pid]
        out[pid] = betas
    return out


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _term(coef: float, name: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    mag = abs(coef)
    lead = "" if first and sign == "" else f"{sign} "
    return f"{lead}{_fmt(mag)} {name}"


def export_lp_text(problem: MilpProblem) -> str:
    """Render the problem in LP text format for external cross-checking.

    Deterministic: identical problems export byte-identical text. The
    objective constant is not representable in LP format and is recorded in
    a leading comment instead.
    """
    lines = [f"\\ scenario: {problem.scenario_label}"]
    lines.append(f"\\ objective constant: {_fmt(problem.objective_constant)}")
    lines.append("Minimize")
    terms: list[str] = []
    first = True
    for j, coef in enumerate(problem.objective):
        if coef == 0.0:
            continue
        terms.append(_term(coef, problem.col_name(j), first))
        first = False
    if not terms:
        terms = ["0 " + problem.col_name(0)]
    lines.append(" obj: " + " ".join(terms))
    lines.append("Subject To")
    for row in problem.rows:
        parts: list[str] = []
        for k, (col, coef) in enumerate(row.coeffs):
            parts.append(_term(coef, problem.col_name(col), k == 0))
        sense = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
        lines.append(f" {row.name}: " + " ".join(parts) + f" {sense} {_fmt(row.rhs)}")
    lines.append("Bounds")
    for j in range(problem.num_cols):
        if j in problem.binaries:
            continue
        lo, hi = problem.lb[j], problem.ub[j]
        name = problem.col_name(j)
        if lo == hi:
            lines.append(f" {name} = {_fmt(lo)}")
        elif math.isinf(hi):
            if lo != 0.0:
                lines.append(f" {name} >= {_fmt(lo)}")
        else:
            lines.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    if problem.binaries:
        lines.append("Binaries")
        for j in sorted(problem.binaries):
            lines.append(f" {problem.col_name(j)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
