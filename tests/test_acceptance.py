"""Acceptance gate: the eight primary criteria, one test each.

Each test prints a single PASS line with its measured evidence; tolerances
are pinned in the assertions, not in helper defaults.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lecopt.domain import HourlySeries, Participant, PvSpec, slice_community
from lecopt.fixtures import synthetic_community
from lecopt.gwp import EmissionFactorTable, GenerationMixHour, hourly_intensity
from lecopt.model import (
    CHI_BUY,
    CHI_SELL,
    SIGMA_CH,
    SIGMA_DIS,
    SOC,
    AllocationMode,
    Objective,
    build,
    effective_coefficients,
    export_lp_text,
)
from lecopt.scenario import (
    baseline_csv,
    compare,
    compute_baseline,
    delta_report_csv,
    run_scenario,
    settlement_from_json,
    settlement_to_json,
)
from lecopt.solver import Status, solve_milp, verify_solution

from lp_parser import parse_lp, solution_vector, solve_with_scipy
from oracle import enumerate_best, random_instance
from util import col, flat_bess, tiny_spec, with_free_allocation

GOLDEN = Path(__file__).parent / "golden"


def test_oracle_equivalence():
    """[PRIMARY] solve_milp matches the enumeration oracle on >= 200 instances."""
    t0 = time.monotonic()
    checked = 0
    for seed in range(4):
        rng = np.random.default_rng(20_000 + seed)
        for _ in range(50):
            instance = random_instance(rng)
            oracle = enumerate_best(instance)
            assert math.isfinite(oracle), instance.label
            problem = build(instance.spec, instance.objective)
            solution = solve_milp(problem)
            assert solution.status is Status.OPTIMAL, instance.label
            assert abs(solution.objective - oracle) <= 1e-6, (
                f"{instance.label}: milp {solution.objective!r} vs oracle {oracle!r}"
            )
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 200
    assert elapsed < 60.0
    print(f"[PRIMARY] oracle equivalence: PASS ({checked} instances, {elapsed:.1f} s)")


def test_feasibility_audit(community48):
    """[PRIMARY] residuals, exclusivity, SOC window/endpoints, beta sums on every solved instance."""
    audited = 0
    for objective in (Objective.PRICE, Objective.ENVIRONMENT):
        for allocation in (AllocationMode.FIXED, AllocationMode.OPTIMIZED):
            for day in range(2):
                window = slice_community(community48, day * 24, 24)
                if allocation is AllocationMode.OPTIMIZED:
                    window = with_free_allocation(window)
                problem = build(window, objective, allocation)
                solution = solve_milp(problem)
                assert solution.status is Status.OPTIMAL
                x = np.asarray(solution.x)
                index = problem.index

                # Balance residuals <= 1e-6 kWh (and all other rows/bounds).
                assert verify_solution(problem, x, feas_tol=1e-6).ok

                # Exclusivity on the flows: no hour both buys and sells, or charges and discharges.
                for a, b in ((CHI_BUY, CHI_SELL), (SIGMA_CH, SIGMA_DIS)):
                    assert np.all(np.minimum(x[index.block(a)], x[index.block(b)]) <= 1e-9)

                # SOC inside the fixture battery window, endpoints at 150 kWh.
                soc = np.array([x[col(index, SOC, t)] for t in range(24)])
                assert np.all(soc >= 31.65 - 1e-6) and np.all(soc <= 189.9 + 1e-6)
                assert abs(soc[-1] - 150.0) <= 1e-6

                # Realized sharing coefficients sum to 1 within 1e-9.
                betas = effective_coefficients(problem, x, window)
                total = sum(betas[pid] for pid in window.participant_ids())
                assert np.all(np.abs(total - 1.0) <= 1e-9)
                audited += 1
    print(f"[PRIMARY] feasibility audit: PASS ({audited} solved windows audited)")


def test_improvement_bounds(community48, baseline48):
    """[PRIMARY] optimized community never worse than the no-community baseline."""
    assert community48.bess.calendar_cost_per_hour == 0.0
    price = run_scenario(community48, Objective.PRICE)
    assert price.total_cost_eur <= baseline48.total_cost_eur + 1e-9

    clean_assets = dataclasses.replace(
        community48,
        pv=PvSpec(community48.pv.generation, emission_factor=0.0),
        bess=dataclasses.replace(community48.bess, emission_factor_discharge=0.0),
    )
    env = run_scenario(clean_assets, Objective.ENVIRONMENT)
    assert env.total_emissions_kg <= baseline48.total_emissions_kg + 1e-9

    # Equality when there is nothing to share: PV = 0, battery collapsed.
    small = tiny_spec()
    stripped = dataclasses.replace(
        small,
        pv=PvSpec(HourlySeries.from_values([0.0, 0.0])),
        bess=flat_bess(soc_min=50.0, soc_max=50.0),
    )
    base = compute_baseline(stripped)
    run = run_scenario(stripped, Objective.PRICE)
    assert run.total_cost_eur == pytest.approx(base.total_cost_eur, abs=1e-9)
    assert run.total_emissions_kg == pytest.approx(base.total_emissions_kg, abs=1e-9)
    print(
        "[PRIMARY] improvement bounds: PASS "
        f"(price {price.total_cost_eur:.2f} <= {baseline48.total_cost_eur:.2f} EUR, "
        f"environment {env.total_emissions_kg:.2f} <= {baseline48.total_emissions_kg:.2f} kg, "
        "no-asset equality exact)"
    )


def test_gwp_unit_values_and_properties():
    """[PRIMARY] pinned intensities within 1e-9 plus invariants on 1000 random mixes."""
    factors = EmissionFactorTable()
    ts = synthetic_community(1).grid_intensity.timestamps[0]

    def intensity(energy):
        return hourly_intensity(GenerationMixHour(ts, energy), factors)

    assert intensity({"wind": 321.0}) == pytest.approx(0.022, abs=1e-9)
    assert intensity({"hard_coal": 55.5}) == pytest.approx(0.855, abs=1e-9)
    assert intensity({"hard_coal": 500.0, "nuclear": 500.0}) == pytest.approx(0.437, abs=1e-9)

    rng = np.random.default_rng(42)
    sources = sorted(factors.factors)
    values = [factors.factors[s] for s in sources]
    for _ in range(1000):
        k = int(rng.integers(1, len(sources) + 1))
        chosen = rng.choice(len(sources), size=k, replace=False)
        energy = {sources[i]: float(rng.uniform(0.1, 1e4)) for i in chosen}
        base = intensity(energy)
        fs = [values[i] for i in chosen]
        assert min(fs) - 1e-12 <= base <= max(fs) + 1e-12
        scale = float(rng.uniform(1e-3, 1e3))
        scaled = intensity({s: e * scale for s, e in energy.items()})
        assert abs(scaled - base) <= 1e-9 * max(1.0, abs(base))
    print("[PRIMARY] gwp unit values: PASS (3 pinned values, 1000 random mixes)")


def test_qualitative_directionality(matrix48):
    """[PRIMARY] strict cost/emission ordering between the two objectives on the 48 h fixture."""
    price = matrix48[(Objective.PRICE, AllocationMode.FIXED)]
    env = matrix48[(Objective.ENVIRONMENT, AllocationMode.FIXED)]
    assert price.total_emissions_kg > env.total_emissions_kg  # strict
    assert env.total_cost_eur > price.total_cost_eur  # strict

    # Freeing the hourly allocation can only help each objective.
    price_free = matrix48[(Objective.PRICE, AllocationMode.OPTIMIZED)]
    env_free = matrix48[(Objective.ENVIRONMENT, AllocationMode.OPTIMIZED)]
    assert price_free.total_cost_eur <= price.total_cost_eur + 1e-9
    assert env_free.total_emissions_kg <= env.total_emissions_kg + 1e-9
    print(
        "[PRIMARY] qualitative directionality: PASS "
        f"(emissions {price.total_emissions_kg:.1f} > {env.total_emissions_kg:.1f} kg, "
        f"cost {env.total_cost_eur:.2f} > {price.total_cost_eur:.2f} EUR)"
    )


def _tiled_fixture(days: int):
    """The fixture's first day repeated `days` times as one long horizon."""
    day = synthetic_community(24)
    start = day.grid_intensity.timestamps[0]

    def tile(series: HourlySeries) -> HourlySeries:
        return HourlySeries.from_values(series.values * days, start)

    participants = tuple(
        Participant(
            id=p.id,
            load=tile(p.load),
            buy_price=tile(p.buy_price),
            sell_price=tile(p.sell_price),
            max_import=p.max_import,
            max_export=p.max_export,
        )
        for p in day.participants
    )
    return dataclasses.replace(
        day,
        participants=participants,
        pv=PvSpec(tile(day.pv.generation), day.pv.emission_factor),
        grid_intensity=tile(day.grid_intensity),
        horizon_hours=24 * days,
    )


def test_scale_and_runtime(community48):
    """[PRIMARY] one day solves in < 5 s; 300 sequential days in < 10 min."""
    window = slice_community(community48, 0, 24)
    problem = build(window, Objective.PRICE)
    assert (problem.num_rows, problem.num_cols, len(problem.complementary_pairs)) == (121, 264, 120)
    t0 = time.monotonic()
    solution = solve_milp(problem)
    one_day = time.monotonic() - t0
    assert solution.status is Status.OPTIMAL
    assert one_day < 5.0

    year = _tiled_fixture(300)
    t0 = time.monotonic()
    report = run_scenario(year, Objective.PRICE, window_hours=24)
    long_run = time.monotonic() - t0
    assert len(report.traces.timestamps) == 300 * 24
    assert long_run < 600.0
    print(f"[PRIMARY] scale/runtime: PASS (24 h in {one_day:.2f} s, 300 days in {long_run:.1f} s)")


def test_cross_validation(community48):
    """[PRIMARY] exported LP solved externally agrees within 1e-6; external solutions verify."""
    window = slice_community(community48, 0, 24)
    cases = [
        (window, Objective.PRICE, AllocationMode.FIXED),
        (window, Objective.ENVIRONMENT, AllocationMode.FIXED),
        (with_free_allocation(window), Objective.PRICE, AllocationMode.OPTIMIZED),
    ]
    rng = np.random.default_rng(99)
    for _ in range(10):
        instance = random_instance(rng)
        cases.append((instance.spec, instance.objective, AllocationMode.FIXED))

    for spec, objective, allocation in cases:
        problem = build(spec, objective, allocation)
        parsed = parse_lp(export_lp_text(problem))
        external_obj, values = solve_with_scipy(parsed)
        ours = solve_milp(problem)
        assert ours.status is Status.OPTIMAL
        assert abs(external_obj - ours.objective) <= 1e-6, problem.scenario_label
        # The export's binaries are not columns of the problem.
        x_external = solution_vector(problem, {name: values[name] for name in problem.index.names})
        assert verify_solution(problem, x_external).ok, problem.scenario_label
    print(f"[PRIMARY] cross-validation: PASS ({len(cases)} problems, external/embedded gap <= 1e-6)")


def test_report_fidelity(community48, baseline48, matrix48):
    """[PRIMARY] report row structure and golden-file byte equality."""
    report = matrix48[(Objective.PRICE, AllocationMode.FIXED)]
    delta = compare(report, baseline48)

    rows = [r.id for r in delta.rows]
    assert rows == ["B1", "B2", "B3", "B4", "LEC"]
    csv_text = delta_report_csv(delta)
    header = csv_text.splitlines()[0]
    assert header == "building,cost_eur,cost_delta_pct,ghg_t,ghg_delta_pct"
    for line in csv_text.strip().splitlines()[1:]:
        for pct in (line.split(",")[2], line.split(",")[4]):
            assert pct == "n/a" or pct[0] in "+-"

    assert baseline_csv(baseline48) == (GOLDEN / "baseline.csv").read_text(encoding="utf-8")
    assert csv_text == (GOLDEN / "settlement_price_static.csv").read_text(encoding="utf-8")

    assert settlement_from_json(settlement_to_json(report)) == report
    print("[PRIMARY] report fidelity: PASS (golden files byte-identical, JSON round-trip exact)")
