"""Correctness check of scenario outputs against an external solver.

For each window the reference is the window's problem exported with
`export_lp_text`, parsed by the test suite's independent LP parser and
solved to a zero MIP gap by scipy's HiGHS. The engine's answer is rebuilt
from the hourly traces it reported (buy, sell, charge, discharge, SOC;
binaries and allocations follow from them) and checked against the parsed
problem alone: every row and bound must hold and the objective must match
the reference within 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

OBJ_TOL = 1e-6
FEAS_TOL = 1e-6


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


@dataclass(frozen=True)
class Reference:
    parsed: object  # lp_parser.ParsedLp
    objective: float


def reference(problem) -> Reference:
    """HiGHS optimum of one window problem, via its LP text export."""
    from lp_parser import parse_lp

    from lecopt.model import export_lp_text

    parsed = parse_lp(export_lp_text(problem))
    return Reference(parsed, solve_exact(parsed))


def solve_exact(parsed) -> float:
    """Optimal objective of a parsed LP/MILP by scipy's HiGHS with a zero MIP gap.

    `lp_parser.solve_with_scipy` keeps HiGHS's default relative gap of 1e-4,
    which can stop above the optimum by more than the 1e-6 this check
    allows (5.8e-4 on a generated day with an objective of 44.7).
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    names = parsed.variables()
    col = {name: j for j, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, coef in parsed.objective.items():
        c[col[name]] += coef
    rows, cols, vals = [], [], []
    lo = np.full(len(parsed.rows), -np.inf)
    hi = np.full(len(parsed.rows), np.inf)
    for i, (_, coeffs, sense, rhs) in enumerate(parsed.rows):
        for name, coef in coeffs.items():
            rows.append(i)
            cols.append(col[name])
            vals.append(coef)
        if sense != "<=":
            lo[i] = rhs
        if sense != ">=":
            hi[i] = rhs
    lb, ub = np.zeros(len(names)), np.full(len(names), np.inf)
    integrality = np.zeros(len(names))
    for name in parsed.binaries:
        ub[col[name]], integrality[col[name]] = 1.0, 1
    for name, v in parsed.lower.items():
        lb[col[name]] = v
    for name, v in parsed.upper.items():
        ub[col[name]] = v
    A = coo_matrix((vals, (rows, cols)), shape=(len(parsed.rows), len(names))).tocsr()
    res = milp(c, constraints=LinearConstraint(A, lo, hi), bounds=Bounds(lb, ub), integrality=integrality,
               options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the reference problem: {res.message}")
    return float(res.fun) + parsed.objective_constant


def window_values(traces, start: int, hours: int, loads: dict[str, tuple[float, ...]]) -> dict[str, float]:
    """Column values of one window, named as in the LP export, rebuilt from traces.

    `loads` maps participant id to its hourly load over the window; it
    gives the allocation columns through the balance rows when sharing is
    optimized. A binary is 1 exactly when its flow exceeds the tolerance.
    """
    on = lambda flow: 1.0 if flow > FEAS_TOL else 0.0
    values: dict[str, float] = {}
    for t in range(hours):
        h = start + t
        for pid, load in loads.items():
            key = f"{t}_{_sanitize(pid)}"
            buy = float(traces.buy_by_participant[pid][h])
            sell = float(traces.sell_by_participant[pid][h])
            values[f"chi_buy_{key}"] = buy
            values[f"chi_sell_{key}"] = sell
            values[f"delta_buy_{key}"] = on(buy)
            values[f"delta_sell_{key}"] = on(sell)
            values[f"alloc_{key}"] = load[t] + sell - buy
        charge, discharge = float(traces.charge[h]), float(traces.discharge[h])
        values[f"sigma_ch_{t}"] = charge
        values[f"sigma_dis_{t}"] = discharge
        values[f"delta_ch_{t}"] = on(charge)
        values[f"delta_dis_{t}"] = on(discharge)
        values[f"soc_{t}"] = float(traces.soc[h])
    return values


def check_window(ref: Reference, values: dict[str, float]) -> list[str]:
    """Problems found with one window's answer; empty when it is correct."""
    parsed = ref.parsed
    missing = [name for name in parsed.variables() if name not in values]
    if missing:
        return [f"no value for {len(missing)} columns, e.g. {missing[0]}"]
    errors: list[str] = []
    objective = parsed.objective_constant + sum(coef * values[name] for name, coef in parsed.objective.items())
    if not abs(objective - ref.objective) <= OBJ_TOL:
        errors.append(f"objective {objective!r} vs HiGHS {ref.objective!r}")
    for name, coeffs, sense, rhs in parsed.rows:
        lhs = sum(coef * values[col] for col, coef in coeffs.items())
        if (sense != ">=" and lhs > rhs + FEAS_TOL) or (sense != "<=" and lhs < rhs - FEAS_TOL):
            errors.append(f"row {name}: {lhs!r} {sense} {rhs!r}")
    for name, lo in parsed.lower.items():
        if values[name] < lo - FEAS_TOL:
            errors.append(f"{name} = {values[name]!r} below {lo!r}")
    for name, hi in parsed.upper.items():
        if values[name] > hi + FEAS_TOL:
            errors.append(f"{name} = {values[name]!r} above {hi!r}")
    for name in parsed.binaries:
        if not -FEAS_TOL <= values[name] <= 1.0 + FEAS_TOL:
            errors.append(f"binary {name} = {values[name]!r}")
    for name in set(parsed.variables()) - set(parsed.lower) - parsed.binaries:
        if values[name] < -FEAS_TOL:
            errors.append(f"{name} = {values[name]!r} below default bound 0")
    return errors
