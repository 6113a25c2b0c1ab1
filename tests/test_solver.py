from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lecopt.domain import HourlySeries, slice_community
from lecopt.fixtures import synthetic_community
from lecopt.model import AllocationMode, Objective, build, export_lp_text
import lecopt.solver
from lecopt.solver import SolveConfig, SolverError, Status, _Dense, _implied_pairs, _simplex, solve_milp, verify_solution

from lp_parser import load_solution_file, parse_lp, solution_vector, solve_with_scipy
from util import col, flat_bess, tiny_spec, with_free_allocation


def dense_lp(A, rhs, senses, c, lb, ub):
    A = np.asarray(A, dtype=float)
    return SimpleNamespace(
        m=A.shape[0], n=A.shape[1], A=A, rhs=np.asarray(rhs, dtype=float),
        sense=np.asarray(senses), c=np.asarray(c, dtype=float),
        lb=np.asarray(lb, dtype=float), ub=np.asarray(ub, dtype=float), constant=0.0,
    )


def fixture_day(day: int, unit_efficiency: bool = False):
    spec = slice_community(synthetic_community(48), 24 * day, 24)
    if unit_efficiency:
        spec = dataclasses.replace(spec, bess=dataclasses.replace(spec.bess, eta_ch=1.0, eta_dis=1.0))
    return spec


def negative_noon_day(unit_efficiency: bool):
    """Fixture day 0 with buy price -0.02 and sell price -0.01 EUR/kWh at noon."""
    day = fixture_day(0, unit_efficiency)

    def at_noon(series, value):
        values = list(series.values)
        values[12] = value
        return HourlySeries(series.timestamps, tuple(values))

    participants = tuple(
        dataclasses.replace(p, buy_price=at_noon(p.buy_price, -0.02), sell_price=at_noon(p.sell_price, -0.01))
        for p in day.participants
    )
    return dataclasses.replace(day, participants=participants, allow_negative_prices=True)


def relaxation_objective(problem) -> float:
    """Optimum of the problem's LP with the complementarity pairs relaxed (the root node)."""
    d = _Dense(problem)
    status, x, _ = _simplex(d, d.lb.copy(), d.ub.copy())
    assert status is Status.OPTIMAL
    return float(d.c @ x) + d.constant


def implied_mask(problem) -> tuple[np.ndarray, np.ndarray]:
    """(buy/sell, charge/discharge) halves of the solver's implied-pair mask."""
    pairs = np.array(problem.complementary_pairs).reshape(-1, 2)
    mask = _implied_pairs(_Dense(problem), pairs)
    grid = problem.index.block("chi_buy").size
    return mask[:grid], mask[grid:]


class TestSimplex:
    def test_min_x_above_one(self):
        d = dense_lp([[1.0]], [1.0], [">="], [1.0], [0.0], [math.inf])
        status, x, _ = _simplex(d, d.lb, d.ub)
        assert status is Status.OPTIMAL
        assert x[0] == pytest.approx(1.0)

    def test_max_x_below_five(self):
        d = dense_lp([[1.0]], [5.0], ["<="], [-1.0], [0.0], [math.inf])
        status, x, _ = _simplex(d, d.lb, d.ub)
        assert status is Status.OPTIMAL
        assert x[0] == pytest.approx(5.0)

    def test_infeasible_pair(self):
        d = dense_lp([[1.0], [1.0]], [1.0, 2.0], ["<=", ">="], [1.0], [0.0], [math.inf])
        status, x, _ = _simplex(d, d.lb, d.ub)
        assert status is Status.INFEASIBLE
        assert x is None

    def test_unbounded(self):
        # Validation bounds every column of `build`'s LP, so a ray is a fault.
        d = dense_lp([[1.0]], [0.0], [">="], [-1.0], [0.0], [math.inf])
        with pytest.raises(SolverError, match="unbounded ray"):
            _simplex(d, d.lb, d.ub)

    def test_negative_equality_rhs(self):
        # Regression: equality rows with negative residual at the slack start
        # need sign-corrected artificial rows in the tableau.
        d = dense_lp([[1.0, -1.0]], [-3.0], ["="], [1.0, 1.0], [0.0, 0.0], [10.0, 10.0])
        status, x, _ = _simplex(d, d.lb, d.ub)
        assert status is Status.OPTIMAL
        assert x[0] + x[1] == pytest.approx(3.0)
        assert x[0] - x[1] == pytest.approx(-3.0)

    def test_bound_flip_optimum(self):
        d = dense_lp([[1.0, 1.0]], [1.5], ["<="], [-1.0, -1.0], [0.0, 0.0], [1.0, 1.0])
        status, x, _ = _simplex(d, d.lb, d.ub)
        assert status is Status.OPTIMAL
        assert x[0] + x[1] == pytest.approx(1.5)

    def test_two_phase_with_mixed_rows(self):
        # min 2a + 3b  s.t.  a + b = 4, a - b >= -2, a <= 3
        d = dense_lp(
            [[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]],
            [4.0, -2.0, 3.0],
            ["=", ">=", "<="],
            [2.0, 3.0],
            [0.0, 0.0],
            [math.inf, math.inf],
        )
        status, x, _ = _simplex(d, d.lb, d.ub)
        assert status is Status.OPTIMAL
        assert x == pytest.approx([3.0, 1.0])


class TestSolveLp:
    def test_matches_external_solver(self):
        from scipy.optimize import linprog

        problem = build(tiny_spec(), Objective.PRICE)
        ours = relaxation_objective(problem)

        d = _Dense(problem)
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i, sense in enumerate(d.sense):
            if sense == "<=":
                A_ub.append(d.A[i]); b_ub.append(d.rhs[i])
            elif sense == ">=":
                A_ub.append(-d.A[i]); b_ub.append(-d.rhs[i])
            else:
                A_eq.append(d.A[i]); b_eq.append(d.rhs[i])
        res = linprog(
            d.c, A_ub=np.array(A_ub).reshape(-1, d.n), b_ub=np.array(b_ub),
            A_eq=np.array(A_eq).reshape(-1, d.n), b_eq=np.array(b_eq),
            bounds=list(zip(d.lb, d.ub)), method="highs",
        )
        assert ours == pytest.approx(res.fun + d.constant, abs=1e-8)

    def test_relaxation_bounds_milp(self):
        problem = build(tiny_spec(), Objective.PRICE)
        milp = solve_milp(problem)
        assert relaxation_objective(problem) <= milp.objective + 1e-9


class TestSolveMilp:
    def test_optimal_solution_verifies(self):
        problem = build(tiny_spec(), Objective.PRICE)
        sol = solve_milp(problem)
        assert sol.status is Status.OPTIMAL
        assert sol.gap == 0.0
        assert verify_solution(problem, sol.x).ok

    def test_deterministic(self):
        a = solve_milp(build(tiny_spec(), Objective.PRICE))
        b = solve_milp(build(tiny_spec(), Objective.PRICE))
        assert a.x == b.x
        assert a.objective == b.objective
        assert (a.iterations, a.node_count) == (b.iterations, b.node_count)

    def test_infeasible_endpoint(self):
        # soc_final unreachable within one hour at p_ch_max.
        spec = tiny_spec(bess=flat_bess(soc_final=80.0, p_ch_max=5.0))
        sol = solve_milp(build(spec, Objective.PRICE))
        assert sol.status is Status.INFEASIBLE

    def test_node_limit_zero(self):
        sol = solve_milp(build(tiny_spec(), Objective.PRICE), SolveConfig(node_limit=0))
        assert sol.status is Status.LIMIT_REACHED
        assert sol.x is None

    def test_oversized_problem_refused_before_densifying(self, monkeypatch):
        # tiny_spec is 7 rows x 14 columns: 8 * 7 * (14 + 2 * 7) bytes of tableau.
        monkeypatch.setattr(lecopt.solver, "MAX_TABLEAU_BYTES", 1567)
        with pytest.raises(ValueError) as raised:
            solve_milp(build(tiny_spec(), Objective.PRICE))
        assert str(raised.value) == (
            "problem too large for the dense solver: 7 rows x 14 columns need 1,568 bytes "
            "of tableau (limit 1,567); use shorter windows"
        )
        monkeypatch.setattr(lecopt.solver, "MAX_TABLEAU_BYTES", 1568)
        assert solve_milp(build(tiny_spec(), Objective.PRICE)).status is Status.OPTIMAL

    def test_branching_closes_pseudo_arbitrage(self):
        # With sell > buy the relaxation buys and sells simultaneously;
        # branch and bound must close that to zero.
        spec = tiny_spec(
            loads=((0.0, 0.0),),
            buy=(0.1, 0.1),
            sell=(0.5, 0.5),
            pv=(0.0, 0.0),
            intensity=(0.2, 0.2),
            betas=(1.0,),
            bess=flat_bess(soc_min=50.0, soc_max=50.0),  # no storage arbitrage
            allow_negative_prices=True,
        )
        problem = build(spec, Objective.PRICE)
        sol = solve_milp(problem)
        assert sol.status is Status.OPTIMAL
        assert relaxation_objective(problem) < sol.objective - 1e-6  # relaxation really was optimistic
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.node_count > 1
        assert verify_solution(problem, sol.x).ok

    def test_environment_objective_solves(self):
        problem = build(tiny_spec(), Objective.ENVIRONMENT)
        sol = solve_milp(problem)
        assert sol.status is Status.OPTIMAL
        assert verify_solution(problem, sol.x).ok

    @pytest.mark.parametrize(
        "unit_efficiency, counts", [(False, (1584, 9)), (True, (1589, 9))], ids=["fixture-eta", "unit-eta"]
    )
    def test_negative_price_hour_matches_external_solver(self, unit_efficiency, counts):
        # Negative buy and sell prices at one hour make the relaxation buy
        # and sell at once, so branch-and-bound has to close the overlap.
        problem = build(negative_noon_day(unit_efficiency), Objective.PRICE)
        sol = solve_milp(problem, SolveConfig(time_limit=30))
        assert sol.status is Status.OPTIMAL
        assert (sol.iterations, sol.node_count) == counts  # pivots and nodes stay pinned
        assert verify_solution(problem, sol.x).ok
        external_obj, _ = solve_with_scipy(parse_lp(export_lp_text(problem)))
        assert sol.objective == pytest.approx(external_obj, abs=1e-6)

    @pytest.mark.parametrize(
        "objective, day, counts",
        [
            (Objective.PRICE, 0, (228, 1)),
            (Objective.PRICE, 1, (234, 1)),
            (Objective.ENVIRONMENT, 0, (181, 1)),
            (Objective.ENVIRONMENT, 1, (172, 1)),
        ],
        ids=["price-day0", "price-day1", "environment-day0", "environment-day1"],
    )
    def test_unit_efficiency_day_matches_external_solver(self, objective, day, counts):
        # At unit efficiency charge and discharge cancel in every row: an
        # overlap at the root closes by a shift instead of branching.
        problem = build(fixture_day(day, unit_efficiency=True), objective)
        sol = solve_milp(problem)
        assert sol.status is Status.OPTIMAL
        assert (sol.iterations, sol.node_count) == counts  # pivots and nodes stay pinned
        assert verify_solution(problem, sol.x).ok
        external_obj, _ = solve_with_scipy(parse_lp(export_lp_text(problem)))
        assert sol.objective == pytest.approx(external_obj, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_tie_specs_match_external_solver(self, data):
        # Unit efficiency, buy == sell on some hours, zero-PV hours and
        # export limits just above the surplus an idle battery leaves.
        T = data.draw(st.integers(2, 6), label="hours")
        buy, sell, pv = [], [], []
        for t in range(T):
            buy.append(data.draw(st.floats(0.05, 0.4), label=f"buy_{t}"))
            ratio = data.draw(st.sampled_from([1.0, 0.5, 0.0]), label=f"sell_over_buy_{t}")
            sell.append(buy[t] * ratio)
            pv.append(data.draw(st.sampled_from([0.0, 3.0, 12.0]), label=f"pv_{t}"))
        loads = [[data.draw(st.floats(0.0, 8.0), label=f"load_{k}_{t}") for t in range(T)] for k in range(2)]
        spec = tiny_spec(loads=loads, buy=buy, sell=sell, pv=pv, intensity=(0.3,) * T)
        participants = []
        for p, load in zip(spec.participants, loads):
            beta = spec.sharing.static_coefficients[p.id]
            surplus = max(max(beta * g - l for g, l in zip(pv, load)), 0.0)
            limit = surplus + data.draw(st.floats(0.0, 1.0), label=f"slack_{p.id}")
            participants.append(dataclasses.replace(p, max_export={1: limit}))
        spec = dataclasses.replace(spec, participants=tuple(participants))
        objective = data.draw(st.sampled_from(list(Objective)), label="objective")
        problem = build(spec, objective)
        sol = solve_milp(problem)
        assert sol.status is Status.OPTIMAL
        assert verify_solution(problem, sol.x).ok
        external_obj, _ = solve_with_scipy(parse_lp(export_lp_text(problem)))
        assert sol.objective == pytest.approx(external_obj, abs=1e-6)

    @pytest.mark.parametrize("allocation", list(AllocationMode), ids=lambda a: a.value)
    @pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
    def test_compensation_cap_matches_external_solver(self, community48, objective, allocation):
        # compcap_* spans the whole horizon: the only multi-hour row the
        # binary-free LP keeps.
        spec = dataclasses.replace(community48, compensation_cap_enabled=True)
        if allocation is AllocationMode.OPTIMIZED:
            spec = with_free_allocation(spec)
        problem = build(spec, objective, allocation)
        sol = solve_milp(problem)
        assert sol.status is Status.OPTIMAL
        assert verify_solution(problem, sol.x).ok
        external_obj, _ = solve_with_scipy(parse_lp(export_lp_text(problem)))
        assert sol.objective == pytest.approx(external_obj, abs=1e-6)

    def test_binding_compensation_cap_matches_external_solver(self):
        # Uncapped, B sells its share of the surplus while only A imports;
        # the cap limits each participant's sales to its own import value.
        spec = tiny_spec(pv=(14.0, 0.0))
        objectives = {}
        for capped in (False, True):
            problem = build(dataclasses.replace(spec, compensation_cap_enabled=capped), Objective.PRICE)
            sol = solve_milp(problem)
            assert sol.status is Status.OPTIMAL
            assert verify_solution(problem, sol.x).ok
            external_obj, _ = solve_with_scipy(parse_lp(export_lp_text(problem)))
            assert sol.objective == pytest.approx(external_obj, abs=1e-6)
            objectives[capped] = sol.objective
        assert objectives[True] > objectives[False] + 0.1

    def test_optimized_allocation_solves(self):
        problem = build(with_free_allocation(tiny_spec()), Objective.PRICE, AllocationMode.OPTIMIZED)
        sol = solve_milp(problem)
        assert sol.status is Status.OPTIMAL
        assert verify_solution(problem, sol.x).ok


class TestImpliedPairs:
    """Only pairs whose overlap a shift can remove without raising the objective count as implied."""

    def test_fixture_eta_never_shifts_the_battery(self):
        grid, battery = implied_mask(build(fixture_day(0), Objective.PRICE))
        assert grid.all()  # buy price >= sell price every fixture hour
        assert not battery.any()  # eta_ch = 0.9 breaks socdyn_t

    def test_optimized_sharing_never_shifts_the_battery(self):
        spec = with_free_allocation(fixture_day(0, unit_efficiency=True))
        grid, battery = implied_mask(build(spec, Objective.PRICE, AllocationMode.OPTIMIZED))
        assert grid.all()
        assert not battery.any()  # sharelo/sharehi hold charge and discharge apart

    def test_compensation_cap_breaks_buy_sell_unless_prices_are_equal(self):
        grid, _ = implied_mask(build(tiny_spec(compensation_cap_enabled=True), Objective.PRICE))
        assert not grid.any()
        equal = tiny_spec(sell=(0.3, 0.2), compensation_cap_enabled=True)
        grid, _ = implied_mask(build(equal, Objective.PRICE))
        assert grid.all()

    @pytest.mark.parametrize("unit_efficiency", [False, True], ids=["fixture-eta", "unit-eta"])
    def test_negative_cost_sum_never_shifts(self, unit_efficiency):
        problem = build(negative_noon_day(unit_efficiency), Objective.PRICE)
        pairs = np.array(problem.complementary_pairs)
        c = np.asarray(problem.objective)
        negative = c[pairs[:, 0]] + c[pairs[:, 1]] < 0
        grid, battery = implied_mask(problem)
        mask = np.concatenate([grid, battery])
        assert negative.sum() == len(problem.index.participant_ids)  # the noon buy/sell pairs
        assert not (mask & negative).any()
        assert mask[~negative].all() == unit_efficiency


class TestVerifySolution:
    def test_catches_row_violation(self):
        problem = build(tiny_spec(), Objective.PRICE)
        sol = solve_milp(problem)
        x = np.asarray(sol.x).copy()
        x[col(problem.index, "chi_buy", 0, "A")] += 1.0
        report = verify_solution(problem, x)
        assert not report.ok
        assert any(v.kind == "row" for v in report.violations)

    def test_catches_bound_violation(self):
        problem = build(tiny_spec(), Objective.PRICE)
        sol = solve_milp(problem)
        x = np.asarray(sol.x).copy()
        x[col(problem.index, "soc", 0)] = problem.ub[col(problem.index, "soc", 0)] + 1.0
        assert any(v.kind == "bound" for v in verify_solution(problem, x).violations)

    def test_catches_simultaneous_buy_and_sell(self):
        # Buying and selling one more kWh each keeps the balance row, so
        # only the pair itself is violated.
        problem = build(tiny_spec(), Objective.PRICE)
        x = np.asarray(solve_milp(problem).x).copy()
        x[col(problem.index, "chi_buy", 0, "A")] += 1.0
        x[col(problem.index, "chi_sell", 0, "A")] += 1.0
        assert [v.kind for v in verify_solution(problem, x).violations] == ["complementarity"]

    def test_column_violations_in_column_order(self):
        # Bounds come by column, then complementarity; the pair's columns
        # lie between the two bound columns.
        problem = build(tiny_spec(), Objective.PRICE)
        x = np.asarray(solve_milp(problem).x).copy()
        x[col(problem.index, "chi_buy", 0, "A")] = -1.0
        x[col(problem.index, "chi_buy", 1, "B")] = 2.0
        x[col(problem.index, "chi_sell", 1, "B")] = 0.5
        x[col(problem.index, "soc", 1)] = 101.0
        report = verify_solution(problem, x)
        assert [str(v) for v in report.violations if v.kind != "row"] == [
            "bound chi_buy_0_A: -1 below lower bound 0",
            "bound soc_1: 101 above upper bound 100",
            "complementarity chi_buy_1_B/chi_sell_1_B: both 2 and 0.5 exceed 1e-06",
        ]

    @pytest.mark.parametrize("allocation", list(AllocationMode), ids=lambda a: a.value)
    @pytest.mark.parametrize("day", [0, 1])
    def test_flagged_rows_match_the_parsed_export(self, day, allocation):
        # An independent evaluation of every row of the exported text (the
        # delta rows aside), by column name, flags the same rows in the same order.
        spec = dataclasses.replace(fixture_day(day), compensation_cap_enabled=True)
        problem = build(with_free_allocation(spec) if allocation is AllocationMode.OPTIMIZED else spec, Objective.PRICE)
        parsed = parse_lp(export_lp_text(problem))
        rows = [row for row in parsed.rows if not set(row[1]) & parsed.binaries]
        x_opt = np.asarray(solve_milp(problem).x)
        rng = np.random.default_rng(day)
        for k in range(16):
            x = x_opt.copy()
            cols = rng.integers(0, x.size, size=1 + k % 4)
            # Steps of 1e-9 stay feasible, steps of 1e-3 and up break a row by far more than 1e-6.
            x[cols] += rng.choice([-1.0, 1.0], cols.size) * rng.uniform(0.5, 2.0, cols.size) * 10.0 ** (k % 4 * 3 - 9)
            value = dict(zip(problem.index.names, x.tolist()))
            expected = []
            for name, coeffs, sense, rhs in rows:
                resid = sum(coef * value[column] for column, coef in coeffs.items()) - rhs
                if {"=": abs(resid), "<=": resid, ">=": -resid}[sense] > 1e-6:
                    expected.append(name)
            assert [v.name for v in verify_solution(problem, x).violations if v.kind == "row"] == expected

    def test_wrong_length_rejected(self):
        problem = build(tiny_spec(), Objective.PRICE)
        assert not verify_solution(problem, [0.0, 1.0]).ok


class TestSolutionFiles:
    def test_round_trip(self, tmp_path):
        problem = build(tiny_spec(), Objective.PRICE)
        sol = solve_milp(problem)
        path = tmp_path / "solution.sol"
        lines = [f"{problem.col_name(j)} {float(v)!r}" for j, v in enumerate(sol.x)]
        path.write_text("# external solution\n" + "\n".join(lines) + "\n", encoding="utf-8")
        values = load_solution_file(path)
        assert solution_vector(problem, values) == pytest.approx(sol.x)

    def test_unknown_name_rejected(self):
        problem = build(tiny_spec(), Objective.PRICE)
        with pytest.raises(KeyError):
            solution_vector(problem, {"nope": 1.0})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.sol"
        path.write_text("a b c\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected"):
            load_solution_file(path)
