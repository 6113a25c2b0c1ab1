"""Scenario pipeline: baseline, optimization runs, settlement, comparison.

A multi-day dataset is solved as independent windows (daily by default,
the last one shorter when the horizon is not a multiple) with the
equal-endpoint battery rule applied per window; results merge in window
order. Settlements allocate battery operating cost and shared-asset
emissions to participants with their (realized) sharing coefficients.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from lecopt.domain import CommunitySpec, slice_community, validate_community
from lecopt.model import (
    CHI_BUY,
    CHI_SELL,
    SIGMA_CH,
    SIGMA_DIS,
    SOC,
    AllocationMode,
    MilpProblem,
    Objective,
    build,
    effective_coefficients,
    net_generation,
)
from lecopt.solver import MilpSolution, SolveConfig, SolverError, Status, solve_milp, verify_solution

KG_PER_TONNE = 1000.0


class ScenarioInfeasible(RuntimeError):
    """Raised when a scenario window has no feasible schedule."""

    def __init__(self, message: str, diagnostic: str):
        super().__init__(f"{message} ({diagnostic})")
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class BaselineResult:
    """Costs (EUR) and emissions (kg CO2-eq) when every participant buys all load from the grid."""

    costs_eur: Mapping[str, float]
    emissions_kg: Mapping[str, float]

    @property
    def total_cost_eur(self) -> float:
        return float(sum(self.costs_eur.values()))

    @property
    def total_emissions_kg(self) -> float:
        return float(sum(self.emissions_kg.values()))


@dataclass(frozen=True)
class HourlyTraces:
    """Per-hour schedule traces shaped for the four-panel result plots.

    Float traces are `array('d')`: 8 bytes per hour instead of a boxed
    Python float each, since multi-day runs keep every hour of every trace.
    `timestamps` is the spec's own tuple, shared rather than copied; the
    serializers render it as ISO-8601.
    """

    timestamps: tuple[datetime, ...]
    price_buy: array
    price_sell: array
    gwp_grid: array
    soc: array
    charge: array
    discharge: array
    baseline_load: array
    lec_load: array
    pv: array
    sold: array
    net_generation: array
    buy_by_participant: Mapping[str, array]
    sell_by_participant: Mapping[str, array]


_FLOAT_TRACES = (
    "price_buy", "price_sell", "gwp_grid", "soc", "charge", "discharge",
    "baseline_load", "lec_load", "pv", "sold", "net_generation",
)


def _floats(values) -> array:
    return array("d", np.asarray(values, dtype=float).tobytes())


@dataclass(frozen=True)
class SettlementReport:
    """Per-participant settlement of one optimized scenario."""

    scenario_label: str
    objective: str
    allocation: str
    costs_eur: Mapping[str, float]
    emissions_kg: Mapping[str, float]
    objective_value: float
    node_count: int
    iterations: int
    traces: HourlyTraces

    @property
    def total_cost_eur(self) -> float:
        return float(sum(self.costs_eur.values()))

    @property
    def total_emissions_kg(self) -> float:
        return float(sum(self.emissions_kg.values()))


@dataclass(frozen=True)
class DeltaRow:
    id: str
    cost_eur: float
    baseline_cost_eur: float
    cost_delta_pct: float | None
    emissions_kg: float
    baseline_emissions_kg: float
    emissions_delta_pct: float | None


@dataclass(frozen=True)
class DeltaReport:
    scenario_label: str
    rows: tuple[DeltaRow, ...]  # participants, then the community total row "LEC"


def compute_baseline(spec: CommunitySpec) -> BaselineResult:
    """Counterfactual with no PV and no battery: all load bought from the grid."""
    report = validate_community(spec)
    if not report.ok:
        raise ValueError(f"community spec invalid:\n{report}")
    intensity = spec.grid_intensity.as_array()
    costs: dict[str, float] = {}
    emissions: dict[str, float] = {}
    for p in spec.participants:
        load = p.load.as_array()
        costs[p.id] = float(np.dot(p.buy_price.as_array(), load))
        emissions[p.id] = float(np.dot(intensity, load))
    return BaselineResult(costs, emissions)


def _diagnose_infeasible(solution: MilpSolution) -> str:
    # The root node is the LP relaxation; a search that ends there without a
    # schedule found the relaxation infeasible.
    if solution.node_count == 1:
        return "LP relaxation infeasible: balance/capacity/SOC constraints admit no schedule"
    return "LP relaxation feasible: infeasibility arises from buy-sell or charge-discharge exclusivity"


def _limit_hit(cfg: SolveConfig, solution: MilpSolution) -> str:
    """Which limit stopped the search, and what it left: the gap, or no incumbent."""
    if cfg.node_limit is not None and solution.node_count >= cfg.node_limit:
        limit = f"node limit {cfg.node_limit}"
    else:
        limit = f"time limit {cfg.time_limit:g} s"
    left = "no incumbent" if solution.x is None else f"gap {solution.gap:.6g}"
    return f"{limit} reached before proven optimality ({left})"


def _settle_window(
    spec: CommunitySpec, problem: MilpProblem, solution: MilpSolution
) -> tuple[dict[str, float], dict[str, float], HourlyTraces]:
    index = problem.index
    x = np.asarray(solution.x, dtype=float)
    bess = spec.bess

    charge = x[index.block(SIGMA_CH)]
    discharge = x[index.block(SIGMA_DIS)]
    soc = x[index.block(SOC)]
    # Transposed copies: one contiguous row per participant. A strided row
    # would change np.dot's summation order and the last bits of a cost.
    buy = x[index.block(CHI_BUY)].T.copy()
    sell = x[index.block(CHI_SELL)].T.copy()
    betas = effective_coefficients(problem, x, spec)
    theta = net_generation(problem, x, spec)
    pv = spec.pv.generation.as_array()
    intensity = spec.grid_intensity.as_array()

    # Hourly battery operating cost, split by sharing coefficient.
    battery_cost = bess.calendar_cost_per_hour + bess.throughput_cost_per_kwh * (charge + discharge)
    shared_emissions = spec.pv.emission_factor * pv + bess.emission_factor_discharge * discharge

    costs: dict[str, float] = {}
    emissions: dict[str, float] = {}
    for k, p in enumerate(spec.participants):
        beta = betas[p.id]
        costs[p.id] = float(
            np.dot(p.buy_price.as_array(), buy[k])
            - np.dot(p.sell_price.as_array(), sell[k])
            + np.dot(beta, battery_cost)
        )
        emissions[p.id] = float(np.dot(intensity, buy[k]) + np.dot(beta, shared_emissions))

    load_total = np.sum([p.load.as_array() for p in spec.participants], axis=0)
    price_buy = np.mean([p.buy_price.as_array() for p in spec.participants], axis=0)
    price_sell = np.mean([p.sell_price.as_array() for p in spec.participants], axis=0)

    traces = HourlyTraces(
        timestamps=spec.grid_intensity.timestamps,
        price_buy=_floats(price_buy),
        price_sell=_floats(price_sell),
        gwp_grid=_floats(intensity),
        soc=_floats(soc),
        charge=_floats(charge),
        discharge=_floats(discharge),
        baseline_load=_floats(load_total),
        lec_load=_floats(buy.sum(axis=0)),
        pv=_floats(pv),
        sold=_floats(sell.sum(axis=0)),
        net_generation=_floats(theta),
        buy_by_participant={p.id: _floats(row) for p, row in zip(spec.participants, buy)},
        sell_by_participant={p.id: _floats(row) for p, row in zip(spec.participants, sell)},
    )
    return costs, emissions, traces


def _merge_traces(parts: Sequence[HourlyTraces], timestamps: tuple[datetime, ...]) -> HourlyTraces:
    if len(parts) == 1:
        return parts[0]

    def cat(arrays) -> array:
        out = array("d")
        for a in arrays:
            out.extend(a)
        return out

    ids = parts[0].buy_by_participant.keys()
    return HourlyTraces(
        timestamps=timestamps,
        **{k: cat(getattr(tr, k) for tr in parts) for k in _FLOAT_TRACES},
        buy_by_participant={i: cat(tr.buy_by_participant[i] for tr in parts) for i in ids},
        sell_by_participant={i: cat(tr.sell_by_participant[i] for tr in parts) for i in ids},
    )


def run_scenario(
    spec: CommunitySpec,
    objective: Objective,
    allocation: AllocationMode | None = None,
    solve_config: SolveConfig | None = None,
    window_hours: int | None = 24,
) -> SettlementReport:
    """Build, solve, verify, and settle one scenario.

    The horizon is cut into windows of `window_hours`, the last one shorter
    when the horizon is not a multiple; each window is solved independently
    (the battery endpoint rule applies per window). `window_hours=None`
    solves the whole horizon as one window. Raises ValueError for a window
    below one hour.
    """
    if window_hours is not None and window_hours < 1:
        raise ValueError(f"window_hours must be at least 1, got {window_hours}")
    report = validate_community(spec)
    if not report.ok:
        raise ValueError(f"community spec invalid:\n{report}")
    cfg = solve_config or SolveConfig()

    T = spec.horizon_hours
    if window_hours is None or T <= window_hours:
        windows = [spec]
    else:
        windows = [slice_community(spec, s, min(window_hours, T - s)) for s in range(0, T, window_hours)]

    costs: dict[str, float] = {p: 0.0 for p in spec.participant_ids()}
    emissions: dict[str, float] = {p: 0.0 for p in spec.participant_ids()}
    trace_parts: list[HourlyTraces] = []
    objective_value = 0.0
    node_count = 0
    iterations = 0
    label = ""

    for day, window in enumerate(windows):
        problem = build(window, objective, allocation)
        label = label or problem.scenario_label
        solution = solve_milp(problem, cfg)
        if solution.status is Status.LIMIT_REACHED:
            raise SolverError(f"window {day}: {_limit_hit(cfg, solution)}")
        if solution.status is not Status.OPTIMAL:
            raise ScenarioInfeasible(f"window {day}: no feasible schedule", _diagnose_infeasible(solution))
        check = verify_solution(problem, solution.x)
        if not check.ok:
            first = check.violations[0]
            raise SolverError(
                f"window {day}: solver returned an invalid solution: {len(check.violations)} violation(s), first {first}"
            )
        w_costs, w_emissions, w_traces = _settle_window(window, problem, solution)
        for pid in costs:
            costs[pid] += w_costs[pid]
            emissions[pid] += w_emissions[pid]
        trace_parts.append(w_traces)
        objective_value += float(solution.objective)
        node_count += solution.node_count
        iterations += solution.iterations

    if len(windows) > 1:
        label = f"{label} x {len(windows)} windows"
    return SettlementReport(
        scenario_label=label,
        objective=objective.value,
        allocation=problem.allocation_mode.value,
        costs_eur=costs,
        emissions_kg=emissions,
        objective_value=objective_value,
        node_count=node_count,
        iterations=iterations,
        traces=_merge_traces(trace_parts, spec.grid_intensity.timestamps),
    )


def _delta_pct(value: float, base: float) -> float | None:
    if base == 0.0:
        return None
    return 100.0 * (value - base) / base


def compare(report: SettlementReport, baseline: BaselineResult) -> DeltaReport:
    """Signed percentage deltas per participant and for the community total.

    Percentages are always recomputed from the absolute values; a zero
    baseline yields an undefined marker (None), never infinity.
    """
    if set(report.costs_eur) != set(baseline.costs_eur):
        raise ValueError("participant sets differ between report and baseline")
    rows = [
        DeltaRow(
            id=pid,
            cost_eur=report.costs_eur[pid],
            baseline_cost_eur=baseline.costs_eur[pid],
            cost_delta_pct=_delta_pct(report.costs_eur[pid], baseline.costs_eur[pid]),
            emissions_kg=report.emissions_kg[pid],
            baseline_emissions_kg=baseline.emissions_kg[pid],
            emissions_delta_pct=_delta_pct(report.emissions_kg[pid], baseline.emissions_kg[pid]),
        )
        for pid in report.costs_eur
    ]
    rows.append(
        DeltaRow(
            id="LEC",
            cost_eur=report.total_cost_eur,
            baseline_cost_eur=baseline.total_cost_eur,
            cost_delta_pct=_delta_pct(report.total_cost_eur, baseline.total_cost_eur),
            emissions_kg=report.total_emissions_kg,
            baseline_emissions_kg=baseline.total_emissions_kg,
            emissions_delta_pct=_delta_pct(report.total_emissions_kg, baseline.total_emissions_kg),
        )
    )
    return DeltaReport(report.scenario_label, tuple(rows))


# -- serialization -------------------------------------------------------


def settlement_to_json(report: SettlementReport) -> str:
    payload = {
        "scenario_label": report.scenario_label,
        "objective": report.objective,
        "allocation": report.allocation,
        "costs_eur": dict(report.costs_eur),
        "emissions_kg": dict(report.emissions_kg),
        "objective_value": report.objective_value,
        "node_count": report.node_count,
        "iterations": report.iterations,
        "traces": {
            "timestamps": [ts.isoformat() for ts in report.traces.timestamps],
            **{k: list(getattr(report.traces, k)) for k in _FLOAT_TRACES},
            "buy_by_participant": {k: list(v) for k, v in report.traces.buy_by_participant.items()},
            "sell_by_participant": {k: list(v) for k, v in report.traces.sell_by_participant.items()},
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def settlement_from_json(text: str) -> SettlementReport:
    data = json.loads(text)
    tr = data["traces"]
    traces = HourlyTraces(
        timestamps=tuple(map(datetime.fromisoformat, tr["timestamps"])),
        **{k: _floats(tr[k]) for k in _FLOAT_TRACES},
        buy_by_participant={k: _floats(v) for k, v in tr["buy_by_participant"].items()},
        sell_by_participant={k: _floats(v) for k, v in tr["sell_by_participant"].items()},
    )
    return SettlementReport(
        scenario_label=data["scenario_label"],
        objective=data["objective"],
        allocation=data["allocation"],
        costs_eur=data["costs_eur"],
        emissions_kg=data["emissions_kg"],
        objective_value=data["objective_value"],
        node_count=data["node_count"],
        iterations=data["iterations"],
        traces=traces,
    )


def _fmt_pct(pct: float | None) -> str:
    return "n/a" if pct is None else f"{pct:+.1f}%"


def delta_report_csv(delta: DeltaReport) -> str:
    """Settlement table in the baseline-vs-optimized shape: one row per building plus the LEC total."""
    lines = ["building,cost_eur,cost_delta_pct,ghg_t,ghg_delta_pct"]
    for row in delta.rows:
        lines.append(
            f"{row.id},{row.cost_eur:.2f},{_fmt_pct(row.cost_delta_pct)},"
            f"{row.emissions_kg / KG_PER_TONNE:.2f},{_fmt_pct(row.emissions_delta_pct)}"
        )
    return "\n".join(lines) + "\n"


def baseline_csv(baseline: BaselineResult) -> str:
    lines = ["building,cost_eur,ghg_t"]
    for pid in baseline.costs_eur:
        lines.append(f"{pid},{baseline.costs_eur[pid]:.2f},{baseline.emissions_kg[pid] / KG_PER_TONNE:.2f}")
    lines.append(f"LEC,{baseline.total_cost_eur:.2f},{baseline.total_emissions_kg / KG_PER_TONNE:.2f}")
    return "\n".join(lines) + "\n"


def delta_report_table(delta: DeltaReport) -> str:
    """Human-readable table with direction arrows."""

    def arrow(pct: float | None) -> str:
        if pct is None:
            return "n/a"
        mark = "↓" if pct < 0 else ("↑" if pct > 0 else "=")
        return f"{mark} {abs(pct):.1f}%"

    lines = [f"scenario: {delta.scenario_label}"]
    lines.append(f"{'building':<10}{'cost (EUR)':>14}{'vs base':>12}{'GHG (t)':>12}{'vs base':>12}")
    for row in delta.rows:
        lines.append(
            f"{row.id:<10}{row.cost_eur:>14.2f}{arrow(row.cost_delta_pct):>12}"
            f"{row.emissions_kg / KG_PER_TONNE:>12.2f}{arrow(row.emissions_delta_pct):>12}"
        )
    return "\n".join(lines) + "\n"


TRACE_COLUMNS = (
    "ts", "price_buy", "price_sell", "gwp_grid", "soc", "charge", "discharge",
    "baseline_load", "lec_load", "pv", "sold",
)


def trace_csv(traces: HourlyTraces) -> str:
    """Per-hour trace table shaped for the four result panels."""
    lines = [",".join(TRACE_COLUMNS)]
    for i, ts in enumerate(traces.timestamps):
        vals = [
            ts.isoformat(),
            f"{traces.price_buy[i]:.6f}",
            f"{traces.price_sell[i]:.6f}",
            f"{traces.gwp_grid[i]:.6f}",
            f"{traces.soc[i]:.6f}",
            f"{traces.charge[i]:.6f}",
            f"{traces.discharge[i]:.6f}",
            f"{traces.baseline_load[i]:.6f}",
            f"{traces.lec_load[i]:.6f}",
            f"{traces.pv[i]:.6f}",
            f"{traces.sold[i]:.6f}",
        ]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
