from __future__ import annotations

import dataclasses
from array import array

import numpy as np
import pytest

import lecopt.solver
from lecopt.domain import HourlySeries, PvSpec, SharingMode, SharingScheme
from lecopt.model import AllocationMode, Objective
from lecopt.scenario import (
    BaselineResult,
    ScenarioInfeasible,
    baseline_csv,
    compare,
    compute_baseline,
    delta_report_csv,
    delta_report_table,
    run_scenario,
    settlement_from_json,
    settlement_to_json,
    trace_csv,
)
from lecopt.solver import SolveConfig, SolverError

from util import flat_bess, tiny_spec, with_free_allocation


def _no_assets(spec):
    """Same community with zero PV and a collapsed battery."""
    return dataclasses.replace(
        spec,
        pv=PvSpec(HourlySeries.from_values([0.0] * spec.horizon_hours, spec.pv.generation.timestamps[0])),
        bess=flat_bess(soc_min=50.0, soc_max=50.0),
    )


class TestBaseline:
    def test_arithmetic(self):
        base = compute_baseline(tiny_spec())
        # A: 4 * 0.3 + 6 * 0.2; B: 2 * 0.3 + 2 * 0.2
        assert base.costs_eur["A"] == pytest.approx(2.4)
        assert base.costs_eur["B"] == pytest.approx(1.0)
        # A: 4 * 0.25 + 6 * 0.4; B: 2 * 0.25 + 2 * 0.4
        assert base.emissions_kg["A"] == pytest.approx(3.4)
        assert base.emissions_kg["B"] == pytest.approx(1.3)
        assert base.total_cost_eur == pytest.approx(3.4)
        assert base.total_emissions_kg == pytest.approx(4.7)

    def test_zero_load_means_zero_baseline(self):
        base = compute_baseline(tiny_spec(loads=((0.0, 0.0), (0.0, 0.0))))
        assert base.total_cost_eur == 0.0
        assert base.total_emissions_kg == 0.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            compute_baseline(tiny_spec(betas=(0.5, 0.6)))


class TestRunScenario:
    def test_costs_settle_to_price_objective(self):
        spec = tiny_spec(bess=flat_bess(calendar_cost_per_hour=0.1))
        report = run_scenario(spec, Objective.PRICE)
        assert report.total_cost_eur == pytest.approx(report.objective_value, abs=1e-9)

    def test_emissions_settle_to_environment_objective(self):
        report = run_scenario(tiny_spec(), Objective.ENVIRONMENT)
        assert report.total_emissions_kg == pytest.approx(report.objective_value, abs=1e-9)

    def test_price_run_never_worse_than_baseline(self):
        spec = tiny_spec()
        base = compute_baseline(spec)
        report = run_scenario(spec, Objective.PRICE)
        assert report.total_cost_eur <= base.total_cost_eur + 1e-9

    def test_no_assets_equals_baseline(self):
        spec = _no_assets(tiny_spec())
        base = compute_baseline(spec)
        report = run_scenario(spec, Objective.PRICE)
        for pid in spec.participant_ids():
            assert report.costs_eur[pid] == pytest.approx(base.costs_eur[pid], abs=1e-9)
            assert report.emissions_kg[pid] == pytest.approx(base.emissions_kg[pid], abs=1e-9)

    def test_optimized_allocation_never_worse(self):
        spec = tiny_spec()
        fixed = run_scenario(spec, Objective.PRICE)
        free = run_scenario(with_free_allocation(spec), Objective.PRICE, AllocationMode.OPTIMIZED)
        assert free.objective_value <= fixed.objective_value + 1e-9

    def test_bigger_battery_never_hurts(self):
        cramped = tiny_spec(bess=flat_bess(soc_min=45.0, soc_max=55.0))
        roomy = tiny_spec(bess=flat_bess(soc_min=0.0, soc_max=200.0))
        a = run_scenario(cramped, Objective.PRICE)
        b = run_scenario(roomy, Objective.PRICE)
        assert b.objective_value <= a.objective_value + 1e-9

    def test_discharge_efficiency_arithmetic(self):
        # Covering a 19 kWh load from the battery at eta_dis = 0.95 drains
        # 19 / 0.95 = 20 kWh of stored energy: SOC 150 -> 130.
        spec = tiny_spec(
            loads=((19.0,),),
            buy=(5.0,),
            sell=(0.0,),
            pv=(0.0,),
            intensity=(0.3,),
            betas=(1.0,),
            bess=flat_bess(
                p_ch_max=90.0, p_dis_max=90.0, soc_max=189.9, soc_min=31.65,
                eta_ch=0.95, eta_dis=0.95, soc_initial=150.0, soc_final=130.0,
            ),
        )
        report = run_scenario(spec, Objective.PRICE)
        assert report.traces.discharge == pytest.approx((19.0,), abs=1e-9)
        assert report.traces.soc == pytest.approx((130.0,), abs=1e-9)
        assert report.total_cost_eur == pytest.approx(0.0, abs=1e-9)

    def test_idempotent(self):
        a = run_scenario(tiny_spec(), Objective.PRICE)
        b = run_scenario(tiny_spec(), Objective.PRICE)
        assert a == b

    def test_fixture_pivot_and_node_counts(self, matrix48):
        # Determinism is pivot for pivot: a change to the pivot rules shows up here.
        counts = {key: (r.iterations, r.node_count) for key, r in matrix48.items()}
        assert counts == {
            (Objective.PRICE, AllocationMode.FIXED): (381, 2),
            (Objective.PRICE, AllocationMode.OPTIMIZED): (893, 2),
            (Objective.ENVIRONMENT, AllocationMode.FIXED): (279, 2),
            (Objective.ENVIRONMENT, AllocationMode.OPTIMIZED): (843, 2),
        }

    def test_infeasible_scenario_diagnosed(self, monkeypatch):
        # soc_final is out of reach, so the root LP fails. The diagnosis reads
        # that from the search: one simplex solve in all.
        calls = []
        real = lecopt.solver._simplex

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lecopt.solver, "_simplex", spy)
        spec = tiny_spec(bess=flat_bess(soc_final=80.0, p_ch_max=5.0))
        with pytest.raises(ScenarioInfeasible) as raised:
            run_scenario(spec, Objective.PRICE)
        assert str(raised.value) == (
            "window 0: no feasible schedule "
            "(LP relaxation infeasible: balance/capacity/SOC constraints admit no schedule)"
        )
        assert len(calls) == 1

    def test_infeasible_after_branching_diagnosed(self):
        # The sunny hour's surplus is worth more than the imports the cap
        # allows; the root LP hides that by buying and selling at once.
        spec = tiny_spec(pv=(30.0, 0.0), compensation_cap_enabled=True)
        with pytest.raises(ScenarioInfeasible) as raised:
            run_scenario(spec, Objective.PRICE)
        assert str(raised.value) == (
            "window 0: no feasible schedule "
            "(LP relaxation feasible: infeasibility arises from buy-sell or charge-discharge exclusivity)"
        )

    def test_fixed_hourly_coefficients_split_battery_cost(self):
        # Without PV or battery use theta is 0 every hour; the hourly
        # coefficients, not a fallback, still split the calendar cost.
        spec = tiny_spec(pv=(0.0, 0.0), bess=flat_bess(calendar_cost_per_hour=1.0, soc_min=50.0, soc_max=50.0))
        hourly = {"A": HourlySeries.from_values((0.9, 0.9)), "B": HourlySeries.from_values((0.1, 0.1))}
        spec = dataclasses.replace(spec, sharing=SharingScheme(SharingMode.HOURLY_VARIABLE, variable_coefficients=hourly))
        report = run_scenario(spec, Objective.PRICE)
        # Loads bought at 0.3 then 0.2 EUR/kWh, plus 2 h x 1 EUR/h split 0.9 / 0.1.
        assert report.costs_eur["A"] == pytest.approx(4 * 0.3 + 6 * 0.2 + 1.8, abs=1e-12)
        assert report.costs_eur["B"] == pytest.approx(2 * 0.3 + 2 * 0.2 + 0.2, abs=1e-12)

    def test_node_limit_is_a_solver_error_not_infeasible(self):
        with pytest.raises(SolverError) as raised:
            run_scenario(tiny_spec(), Objective.PRICE, solve_config=SolveConfig(node_limit=0))
        assert str(raised.value) == "window 0: node limit 0 reached before proven optimality (no incumbent)"

    def test_limit_with_incumbent_names_the_gap(self):
        # Selling above the buy price makes the root buy and sell at once,
        # a pair that only branching closes.
        spec = tiny_spec(loads=((0.0, 0.0),), buy=(0.1, 0.1), sell=(0.5, 0.5), pv=(0.0, 0.0), betas=(1.0,),
                         bess=flat_bess(soc_min=50.0, soc_max=50.0), allow_negative_prices=True)
        with pytest.raises(SolverError) as raised:
            run_scenario(spec, Objective.PRICE, solve_config=SolveConfig(node_limit=4))
        assert str(raised.value) == "window 0: node limit 4 reached before proven optimality (gap 40)"

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            run_scenario(tiny_spec(betas=(0.5, 0.6)), Objective.PRICE)


class TestWindows:
    def test_daily_windows_sum_to_whole(self, community48):
        split = run_scenario(community48, Objective.PRICE, window_hours=24)
        assert "x 2 windows" in split.scenario_label
        assert len(split.traces.timestamps) == 48
        from lecopt.domain import slice_community

        parts = [
            run_scenario(slice_community(community48, d * 24, 24), Objective.PRICE, window_hours=None)
            for d in range(2)
        ]
        assert split.objective_value == pytest.approx(sum(p.objective_value for p in parts), abs=1e-9)
        for pid in community48.participant_ids():
            assert split.costs_eur[pid] == pytest.approx(sum(p.costs_eur[pid] for p in parts), abs=1e-9)

    @pytest.mark.parametrize("hours", [0, -24])
    def test_window_below_one_hour_rejected(self, hours):
        with pytest.raises(ValueError, match=f"window_hours must be at least 1, got {hours}"):
            run_scenario(tiny_spec(), Objective.PRICE, window_hours=hours)

    def test_horizon_shorter_than_window_is_one_window(self):
        spec = tiny_spec()  # 2 h horizon, window 24 h
        report = run_scenario(spec, Objective.PRICE, window_hours=24)
        assert "windows" not in report.scenario_label

    def test_short_final_window(self, community48):
        from lecopt.domain import slice_community

        spec = slice_community(community48, 0, 36)
        split = run_scenario(spec, Objective.PRICE, window_hours=24)
        assert split.scenario_label.endswith("x 2 windows")
        assert len(split.traces.timestamps) == 36
        parts = [
            run_scenario(slice_community(community48, start, hours), Objective.PRICE, window_hours=None)
            for start, hours in ((0, 24), (24, 12))
        ]
        assert split.objective_value == pytest.approx(sum(p.objective_value for p in parts), abs=1e-9)
        for pid in community48.participant_ids():
            assert split.costs_eur[pid] == pytest.approx(sum(p.costs_eur[pid] for p in parts), abs=1e-9)

    def test_soc_trace_respects_window_endpoints(self, matrix48):
        report = matrix48[(Objective.PRICE, AllocationMode.FIXED)]
        soc = report.traces.soc
        assert soc[23] == pytest.approx(150.0, abs=1e-6)
        assert soc[47] == pytest.approx(150.0, abs=1e-6)


class TestCompare:
    def test_rows_and_percentages(self):
        spec = tiny_spec()
        base = compute_baseline(spec)
        report = run_scenario(spec, Objective.PRICE)
        delta = compare(report, base)
        assert [row.id for row in delta.rows] == ["A", "B", "LEC"]
        lec = delta.rows[-1]
        assert lec.cost_delta_pct == pytest.approx(
            100.0 * (report.total_cost_eur - base.total_cost_eur) / base.total_cost_eur
        )

    def test_zero_baseline_yields_none(self):
        report = run_scenario(tiny_spec(), Objective.PRICE)
        zero = BaselineResult({"A": 0.0, "B": 0.0}, {"A": 0.0, "B": 0.0})
        delta = compare(report, zero)
        assert all(row.cost_delta_pct is None for row in delta.rows if row.baseline_cost_eur == 0.0)

    def test_participant_mismatch_rejected(self):
        report = run_scenario(tiny_spec(), Objective.PRICE)
        with pytest.raises(ValueError, match="participant sets"):
            compare(report, BaselineResult({"X": 1.0}, {"X": 1.0}))


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        report = run_scenario(tiny_spec(), Objective.PRICE)
        again = settlement_from_json(settlement_to_json(report))
        assert again == report

    def test_merged_json_round_trip_keeps_float_arrays(self, matrix48):
        report = matrix48[(Objective.PRICE, AllocationMode.FIXED)]
        again = settlement_from_json(settlement_to_json(report))
        assert again == report
        for traces in (report.traces, again.traces):
            assert isinstance(traces.soc, array) and traces.soc.typecode == "d"
            assert isinstance(traces.buy_by_participant["B1"], array)

    def test_json_is_deterministic(self):
        a = settlement_to_json(run_scenario(tiny_spec(), Objective.PRICE))
        b = settlement_to_json(run_scenario(tiny_spec(), Objective.PRICE))
        assert a == b


class TestReports:
    def test_delta_csv_shape(self):
        spec = tiny_spec()
        delta = compare(run_scenario(spec, Objective.PRICE), compute_baseline(spec))
        text = delta_report_csv(delta)
        lines = text.strip().splitlines()
        assert lines[0] == "building,cost_eur,cost_delta_pct,ghg_t,ghg_delta_pct"
        assert len(lines) == 4  # A, B, LEC + header
        assert lines[-1].startswith("LEC,")
        for line in lines[1:]:
            pct = line.split(",")[2]
            assert pct == "n/a" or pct[0] in "+-"

    def test_baseline_csv_shape(self):
        text = baseline_csv(compute_baseline(tiny_spec()))
        lines = text.strip().splitlines()
        assert lines[0] == "building,cost_eur,ghg_t"
        assert lines[-1].startswith("LEC,")

    def test_table_uses_direction_arrows(self, matrix48, baseline48):
        delta = compare(matrix48[(Objective.PRICE, AllocationMode.FIXED)], baseline48)
        table = delta_report_table(delta)
        assert "↓" in table
        assert "LEC" in table

    def test_trace_csv_columns(self):
        report = run_scenario(tiny_spec(), Objective.PRICE)
        lines = trace_csv(report.traces).strip().splitlines()
        assert lines[0] == "ts,price_buy,price_sell,gwp_grid,soc,charge,discharge,baseline_load,lec_load,pv,sold"
        assert len(lines) == 1 + 2

    def test_trace_energy_balance(self, matrix48, community48):
        # Community-level balance: pv + discharge - charge + bought = served + sold.
        tr = matrix48[(Objective.PRICE, AllocationMode.FIXED)].traces
        for i in range(len(tr.timestamps)):
            lhs = tr.pv[i] + tr.discharge[i] - tr.charge[i] + tr.lec_load[i]
            rhs = tr.baseline_load[i] + tr.sold[i]
            assert lhs == pytest.approx(rhs, abs=1e-6)
