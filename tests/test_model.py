from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from lecopt.domain import slice_community
from lecopt.fixtures import synthetic_community
from lecopt.model import (
    ALLOC,
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
    net_generation,
)
from lecopt.solver import _Dense, solve_milp, verify_solution

from lp_parser import parse_lp
from test_bench_probes import load_bench_module
from util import col, flat_bess, tiny_spec, with_free_allocation


def _row(problem, name):
    """Row `name` read from the CSR arrays: its {column: coefficient} map, sense and rhs."""
    i = problem.row_names.index(name)
    span = slice(problem.indptr[i], problem.indptr[i + 1])
    coeffs = dict(zip(problem.indices[span].tolist(), problem.data[span].tolist()))
    return SimpleNamespace(coeffs=coeffs, sense=str(problem.sense[i]), rhs=float(problem.rhs[i]))


class TestDimensions:
    @pytest.mark.parametrize("T,P", [(2, 2), (4, 1), (24, 4)])
    def test_fixed_mode_closed_forms(self, T, P):
        loads = tuple(tuple(2.0 for _ in range(T)) for _ in range(P))
        betas = tuple(1.0 / P for _ in range(P))
        spec = tiny_spec(
            loads=loads, buy=(0.3,) * T, sell=(0.1,) * T, pv=(1.0,) * T,
            intensity=(0.2,) * T, betas=betas,
        )
        problem = build(spec, Objective.PRICE, AllocationMode.FIXED)
        assert problem.num_cols == 2 * T * P + 3 * T
        assert problem.num_rows == T * P + T + 1
        assert len(problem.complementary_pairs) == T * P + T

    def test_optimized_mode_adds_allocation_block(self):
        spec = with_free_allocation(tiny_spec())
        T, P = 2, 2
        problem = build(spec, Objective.PRICE, AllocationMode.OPTIMIZED)
        assert problem.num_cols == 2 * T * P + 3 * T + T * P
        assert problem.num_rows == T * P + T + 1 + T + 2 * T * P


class TestRows:
    def test_fixed_balance_row(self):
        spec = tiny_spec()  # beta_A = 0.6, pv_0 = 5, load_A0 = 4
        problem = build(spec, Objective.PRICE)
        row = _row(problem, "balance_0_A")
        idx = problem.index
        coeffs = dict(row.coeffs)
        assert coeffs[col(idx, CHI_BUY, 0, "A")] == 1.0
        assert coeffs[col(idx, CHI_SELL, 0, "A")] == -1.0
        assert coeffs[col(idx, SIGMA_DIS, 0)] == pytest.approx(0.6)
        assert coeffs[col(idx, SIGMA_CH, 0)] == pytest.approx(-0.6)
        assert row.sense == "="
        assert row.rhs == pytest.approx(4.0 - 0.6 * 5.0)

    def test_big_m_is_contracted_power(self):
        spec = tiny_spec()
        parsed = parse_lp(export_lp_text(build(spec, Objective.PRICE)))
        rows = {name: coeffs for name, coeffs, _, _ in parsed.rows}
        assert rows["buycap_0_A"]["delta_buy_0_A"] == -100.0  # participant import limit
        assert rows["chcap_0"]["delta_ch_0"] == -spec.bess.p_ch_max

    def test_soc_dynamics_coefficients(self):
        spec = tiny_spec(bess=flat_bess(eta_ch=0.95, eta_dis=0.95))
        problem = build(spec, Objective.PRICE)
        idx = problem.index
        first = _row(problem, "socdyn_0")
        coeffs = dict(first.coeffs)
        assert coeffs[col(idx, SIGMA_CH, 0)] == pytest.approx(-0.95)
        assert coeffs[col(idx, SIGMA_DIS, 0)] == pytest.approx(1 / 0.95)
        assert first.rhs == spec.bess.soc_initial
        later = dict(_row(problem, "socdyn_1").coeffs)
        assert later[col(idx, SOC, 0)] == -1.0
        end = _row(problem, "socend")
        assert end.rhs == spec.bess.soc_final

    def test_soc_bounds(self):
        spec = tiny_spec()
        problem = build(spec, Objective.PRICE)
        j = col(problem.index, SOC, 1)
        assert problem.lb[j] == spec.bess.soc_min
        assert problem.ub[j] == spec.bess.soc_max

    def test_sharing_rows_partition_net_generation(self):
        spec = with_free_allocation(tiny_spec())
        problem = build(spec, Objective.PRICE, AllocationMode.OPTIMIZED)
        idx = problem.index
        share = _row(problem, "share_0")
        coeffs = dict(share.coeffs)
        assert coeffs[col(idx, ALLOC, 0, "A")] == 1.0
        assert coeffs[col(idx, ALLOC, 0, "B")] == 1.0
        assert coeffs[col(idx, SIGMA_DIS, 0)] == -1.0
        assert coeffs[col(idx, SIGMA_CH, 0)] == 1.0
        assert share.rhs == spec.pv.generation.values[0]

    def test_compensation_cap_row(self):
        spec = tiny_spec(compensation_cap_enabled=True)
        problem = build(spec, Objective.PRICE)
        row = _row(problem, "compcap_A")
        assert row.sense == "<="
        assert row.rhs == 0.0


def _days(spec, count):
    return [slice_community(spec, 24 * day, 24) for day in range(count)]


CSR_SPECS = {
    "tiny": tiny_spec(),
    "tiny-capped": tiny_spec(compensation_cap_enabled=True),
    **{f"fixture-day{d}": spec for d, spec in enumerate(_days(synthetic_community(48), 2))},
    **{f"generated-day{d}": spec for d, spec in enumerate(_days(load_bench_module("gen").varied_community(7, 2), 2))},
}


def _csr_problem(name, allocation):
    spec = CSR_SPECS[name]
    return build(with_free_allocation(spec) if allocation is AllocationMode.OPTIMIZED else spec, Objective.PRICE)


class TestCsrArrays:
    """Invariants of the problem's CSR form, and the dense image and export that read it."""

    @pytest.mark.parametrize("allocation", list(AllocationMode), ids=lambda a: a.value)
    @pytest.mark.parametrize("name", list(CSR_SPECS))
    def test_invariants(self, name, allocation):
        problem = _csr_problem(name, allocation)
        indptr, indices, data = problem.indptr, problem.indices, problem.data
        assert indptr[0] == 0 and indptr[-1] == len(indices) == len(data)
        assert np.all(np.diff(indptr) >= 0)
        same_row = np.diff(problem.row_of_entry()) == 0
        assert np.all(np.diff(indices)[same_row] > 0)  # columns rise strictly within a row
        assert np.all(data != 0.0) and np.all(np.isfinite(data)) and np.all(np.isfinite(problem.rhs))
        arrays = (problem.objective, problem.lb, problem.ub, indptr, indices, data, problem.sense, problem.rhs,
                  problem.complementary_pairs)
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            problem.data[0] = 1.0
        rows = problem.rows  # the view the benchmark's probe reads
        assert [row.name for row in rows] == list(problem.row_names)
        assert [len(row.coeffs) for row in rows] == np.diff(indptr).tolist()
        assert [entry for row in rows for entry in row.coeffs] == list(zip(indices.tolist(), data.tolist()))
        assert [(row.sense, row.rhs) for row in rows] == list(zip(problem.sense.tolist(), problem.rhs.tolist()))

    @pytest.mark.parametrize("allocation", list(AllocationMode), ids=lambda a: a.value)
    @pytest.mark.parametrize("name", list(CSR_SPECS))
    def test_dense_image_matches_parsed_export(self, name, allocation):
        problem = _csr_problem(name, allocation)
        parsed = parse_lp(export_lp_text(problem))
        structural = [(row, coeffs) for row, coeffs, _, _ in parsed.rows if not set(coeffs) & parsed.binaries]
        assert [row for row, _ in structural] == list(problem.row_names)
        column = {col_name: j for j, col_name in enumerate(problem.index.names)}
        expected = np.zeros((problem.num_rows, problem.num_cols))
        for i, (_, coeffs) in enumerate(structural):
            for col_name, coef in coeffs.items():
                expected[i, column[col_name]] = coef
        A = _Dense(problem).A
        assert np.array_equal(A != 0.0, expected != 0.0)
        np.testing.assert_allclose(A, expected, rtol=1e-11, atol=0.0)  # the export prints 12 significant digits


def _capped_export(spec, allocation):
    if allocation is AllocationMode.OPTIMIZED:
        spec = with_free_allocation(spec)
    problem = build(dataclasses.replace(spec, compensation_cap_enabled=True), Objective.PRICE, allocation)
    return problem, parse_lp(export_lp_text(problem))


class TestSolverProjection:
    """The export's binaries and every row on one must add nothing to the LP but its complementarity pairs."""

    @pytest.mark.parametrize("allocation", list(AllocationMode), ids=lambda a: a.value)
    def test_binary_rows_are_caps_or_exclusions(self, community48, allocation):
        problem, parsed = _capped_export(community48, allocation)
        names = problem.index.names
        ub = dict(zip(names, problem.ub))
        pairs = {frozenset((names[a], names[b])) for a, b in problem.complementary_pairs}
        flow_of: dict[str, str] = {}
        exclusions = []
        for name, coeffs, sense, rhs in parsed.rows:
            deltas = [c for c in coeffs if c in parsed.binaries]
            if not deltas:
                continue
            flows = [c for c in coeffs if c not in parsed.binaries]
            assert sense == "<=", name
            if flows:
                # flow - M * delta <= 0 with M the flow's upper bound, delta the flow's own binary.
                (flow,), (delta,) = flows, deltas
                assert coeffs == {flow: 1.0, delta: -ub[flow]} and rhs == 0.0, name
                assert delta == "delta_" + flow.split("_", 1)[1], name
                flow_of[delta] = flow
            else:
                # delta + delta <= 1 over the binaries of one complementarity pair.
                assert sorted(coeffs.values()) == [1.0, 1.0] and rhs == 1.0, name
                exclusions.append((name, deltas))
        for name, deltas in exclusions:
            assert frozenset(flow_of[d] for d in deltas) in pairs, name
        assert len(exclusions) == len(pairs)

    @pytest.mark.parametrize("allocation", list(AllocationMode), ids=lambda a: a.value)
    def test_every_binary_is_linked_to_a_flow(self, community48, allocation):
        _, parsed = _capped_export(community48, allocation)
        capped = [
            d for _, coeffs, _, _ in parsed.rows if set(coeffs) - parsed.binaries
            for d in coeffs if d in parsed.binaries
        ]
        assert sorted(capped) == sorted(parsed.binaries)  # each binary in exactly one cap


class TestObjectives:
    def test_price_objective_terms(self):
        spec = tiny_spec(bess=flat_bess(calendar_cost_per_hour=0.25))
        problem = build(spec, Objective.PRICE)
        idx = problem.index
        c = problem.objective
        assert c[col(idx, CHI_BUY, 0, "A")] == pytest.approx(0.3)
        assert c[col(idx, CHI_SELL, 1, "A")] == pytest.approx(-0.05)
        assert problem.objective_constant == pytest.approx(2 * 0.25)

    def test_environment_objective_ignores_sales(self):
        spec = tiny_spec()
        problem = build(spec, Objective.ENVIRONMENT)
        idx = problem.index
        c = problem.objective
        for t in range(2):
            for pid in ("A", "B"):
                assert c[col(idx, CHI_SELL, t, pid)] == 0.0
                assert c[col(idx, CHI_BUY, t, pid)] == pytest.approx(spec.grid_intensity.values[t])
            assert c[col(idx, SIGMA_DIS, t)] == pytest.approx(spec.bess.emission_factor_discharge)
        assert problem.objective_constant == pytest.approx(
            spec.pv.emission_factor * sum(spec.pv.generation.values)
        )

    def test_binaries_carry_no_objective_weight(self):
        parsed = parse_lp(export_lp_text(build(tiny_spec(), Objective.PRICE)))
        assert parsed.binaries and not parsed.binaries & set(parsed.objective)


class TestBuildGuards:
    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            build(tiny_spec(betas=(0.5, 0.6)), Objective.PRICE)

    def test_fixed_mode_needs_coefficients(self):
        spec = with_free_allocation(tiny_spec())
        with pytest.raises(ValueError, match="fixed allocation"):
            build(spec, Objective.PRICE, AllocationMode.FIXED)

    def test_default_allocation_follows_sharing_scheme(self):
        assert build(tiny_spec(), Objective.PRICE).allocation_mode is AllocationMode.FIXED
        assert (
            build(with_free_allocation(tiny_spec()), Objective.PRICE).allocation_mode
            is AllocationMode.OPTIMIZED
        )


class TestExport:
    def test_deterministic_bytes(self):
        a = export_lp_text(build(tiny_spec(), Objective.PRICE))
        b = export_lp_text(build(tiny_spec(), Objective.PRICE))
        assert a == b

    def test_sections_and_shape(self):
        text = export_lp_text(build(tiny_spec(), Objective.ENVIRONMENT))
        assert text.startswith("\\ scenario: objective=environment")
        assert "\\ objective constant:" in text
        for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            assert f"\n{section}\n" in text or text.rstrip().endswith(section)
        assert " balance_0_A: " in text

    def test_fixed_bound_rendered_as_equality(self):
        spec = tiny_spec(bess=flat_bess(soc_min=50.0, soc_max=50.0))
        text = export_lp_text(build(spec, Objective.PRICE))
        assert " soc_0 = 50\n" in text


class TestSolutionHelpers:
    def test_net_generation_and_allocation_identity(self):
        # Optimized mode: the allocations partition theta and the realized
        # coefficients sum to 1. Fixed mode: the coefficients are the data.
        spec = with_free_allocation(tiny_spec())
        problem = build(spec, Objective.PRICE, AllocationMode.OPTIMIZED)
        x = np.asarray(solve_milp(problem).x)
        theta = net_generation(problem, x, spec)
        np.testing.assert_allclose(x[problem.index.block(ALLOC)].sum(axis=1), theta, atol=1e-9)
        betas = effective_coefficients(problem, x, spec)
        np.testing.assert_allclose(betas["A"] + betas["B"], 1.0, atol=1e-9)

        fixed = build(tiny_spec(), Objective.PRICE)
        betas = effective_coefficients(fixed, solve_milp(fixed).x, tiny_spec())
        assert {pid: b.tolist() for pid, b in betas.items()} == {"A": [0.6, 0.6], "B": [0.4, 0.4]}

    def test_fixed_solution_is_feasible_for_pinned_optimized_model(self):
        # A fixed-coefficient schedule, re-expressed with alloc = beta * theta,
        # must satisfy the optimized-allocation model at the same objective.
        spec = tiny_spec()
        fixed = build(spec, Objective.PRICE)
        sol = solve_milp(fixed)
        assert sol.status.value == "optimal"
        free_spec = with_free_allocation(spec)
        opt = build(free_spec, Objective.PRICE, AllocationMode.OPTIMIZED)
        theta = net_generation(fixed, sol.x, spec)
        x = np.zeros(opt.num_cols)
        for kind in (CHI_BUY, CHI_SELL, SIGMA_CH, SIGMA_DIS, SOC):
            x[opt.index.block(kind)] = np.asarray(sol.x)[fixed.index.block(kind)]
        for t in range(spec.horizon_hours):
            for pid in spec.participant_ids():
                x[col(opt.index, ALLOC, t, pid)] = spec.sharing.coefficient(pid, t) * theta[t]
        assert verify_solution(opt, x).ok
        obj = float(np.dot(opt.objective, x)) + opt.objective_constant
        assert obj == pytest.approx(sol.objective, abs=1e-9)

    def test_optimized_mode_never_beats_fixed_by_loss(self):
        spec = tiny_spec()
        fixed = solve_milp(build(spec, Objective.PRICE))
        free = solve_milp(build(with_free_allocation(spec), Objective.PRICE, AllocationMode.OPTIMIZED))
        assert free.objective <= fixed.objective + 1e-9
