"""The benchmark's trace probes still fit the package.

`lecbench/run.py` traces a run by replacing attributes of `lecopt.cli`,
`lecopt.scenario` and `lecopt.model` by name, and counts a build from
`problem.rows` and `problem.binaries`. Renaming one of those breaks the
benchmark, not the package; this test catches it from the package's side.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import lecopt.cli
import lecopt.model
import lecopt.scenario
from lecopt.model import Objective, build
from lecopt.solver import solve_milp

from util import tiny_spec

LECBENCH = Path(__file__).resolve().parent.parent / "lecbench"
PROBED = (lecopt.cli, lecopt.scenario, lecopt.model)


def load_bench_module(name: str):
    """`lecbench/<name>.py` as module `lecbench_<name>`, registered in sys.modules as its dataclasses need."""
    module_name = f"lecbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, LECBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


@pytest.fixture(scope="module")
def bench():
    return load_bench_module("run"), load_bench_module("spans")


def test_probes_trace_a_run_and_restore(bench, fixture_dir, capsys):
    run, spans = bench
    before = [dict(vars(module)) for module in PROBED]
    tracer = spans.Tracer()
    run.install_probes(tracer)  # AttributeError for a probed name that is gone
    try:
        assert lecopt.cli.main(["validate", "--config", str(fixture_dir / "community.json")]) == 0
        lecopt.scenario.run_scenario(tiny_spec(), Objective.PRICE)
    finally:
        tracer.restore()
    assert [dict(vars(module)) for module in PROBED] == before
    assert capsys.readouterr().out == "ok\n"
    names = {span.name for span in tracer.spans}
    assert {"ingest.load", "domain.validate", "model.build", "solver.solve", "solver.verify"} <= names
    (build_span,) = [span for span in tracer.spans if span.name == "model.build"]
    assert build_span.counts == {"rows": 7, "cols": 14, "nnz": 24, "binaries": 0}


def test_build_and_solve_counts(bench):
    run, _ = bench
    problem = build(tiny_spec(), Objective.PRICE)
    solution = solve_milp(problem)
    assert run.build_count(problem, ()) == {"rows": 7, "cols": 14, "nnz": 24, "binaries": 0}
    assert run.solve_count(solution, (problem,)) == {
        "pivots": solution.iterations,
        "nodes": solution.node_count,
        "limit": 0,
        "update_bytes": solution.iterations * 16 * 7 * (14 + 7),
    }
