#!/usr/bin/env python3
"""lecopt benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 lecbench/run.py --workload year-varied --seed 1 --seconds 20 --trace 0

Workloads (see lecbench/README.md for why each exists):

  cli-fixture48  `lecopt optimize --objective both --sharing both` on the
                 bundled 48 h fixture, as a child process (no seed)
  year-varied    gwp -> baseline -> run_scenario(price, fixed, 24 h windows)
                 -> compare -> serialize, on seeded distinct days
  hard-ties      one run_scenario request per day on a fixed panel of
                 unit-efficiency days; the seed sets the request order

With `--trace 0` the timed section runs untraced and the result carries the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate
and the result carries the per-layer metrics. Every window's answer is
checked against scipy/HiGHS after the timed section. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it holds provenance and samples.
Spans and the full result are written under `.lecbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
GOLDEN = TESTS / "golden"
WORK = ROOT / ".lecbench"
REQUIRED = (SRC / "lecopt" / "__init__.py", TESTS / "lp_parser.py", GOLDEN / "baseline.csv", GOLDEN / "settlement_price_static.csv")

WORKLOADS = ("cli-fixture48", "year-varied", "hard-ties")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"  # at most nproc; one thread keeps the dense simplex steady on a shared 2-core box
SETUP_REPEATS = 7
YEAR_DAYS = 10  # days per year-varied pass
TIES_PANEL_SEED = 1
TIES_PANEL_DAYS = 2
TIES_TIME_LIMIT_S = 40.0  # well above the slowest panel request (15-21 s on 2 cores); 4 x 40 s fits a 180 s trace run
GOLDEN_FILES = ("baseline.csv", "settlement_price_static.csv")
CLI_SCENARIOS = (("price", "static"), ("price", "variable"), ("environment", "static"), ("environment", "variable"))
CLI_WINDOWS = 2 * len(CLI_SCENARIOS)


@dataclass
class Pass:
    """One timed pass of a workload: how it ran, its wall time and what it produced.

    `kind` is "child" (lecopt in a child process), "inproc" (untraced, in
    this process) or "traced" (in this process, with spans).
    """

    kind: str
    wall: float
    windows: int
    outputs: list  # in-process: (spec, objective, allocation, report or None, error or None); cli: (exit code, out dir)
    rss_mb: float = 0.0
    failed: int = 0
    span_range: tuple[int, int] = (0, 0)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- setup ---------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path):
    """Import lecopt and make the workload's inputs (one pass worth)."""
    import lecopt  # noqa: F401  (the import is part of set-up cost)

    import gen

    if workload == "cli-fixture48":
        from lecopt.fixtures import write_fixture_files

        return write_fixture_files(workdir / "fixture", hours=48)
    if workload == "year-varied":
        return year_inputs(seed, 1)
    return ties_inputs(seed)


def year_inputs(seed: int, index: int):
    import gen

    start = gen.START + timedelta(days=YEAR_DAYS * index)
    return gen.generate_days([seed, index], YEAR_DAYS, start=start)


def ties_inputs(seed: int):
    """The panel's one-day specs, in the order the seed gives."""
    import gen
    from lecopt.domain import slice_community

    spec = gen.varied_community(TIES_PANEL_SEED, TIES_PANEL_DAYS, unit_efficiency=True)
    days = [slice_community(spec, 24 * d, 24) for d in range(TIES_PANEL_DAYS)]
    random.Random(seed).shuffle(days)
    return days


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, one sample each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# -- workloads -----------------------------------------------------------


def call(tracer, name, fn, *args, count=None, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, count=count, **kwargs)


def serialize_count(result, args):
    return {"bytes": len(result.encode("utf-8"))}


def year_pass(raw, tracer):
    import gen
    from lecopt.gwp import EmissionFactorTable, intensity_series
    from lecopt.model import AllocationMode, Objective
    from lecopt.scenario import (
        baseline_csv, compare, compute_baseline, delta_report_csv, run_scenario, settlement_to_json, trace_csv,
    )

    intensity = call(tracer, "gwp.intensity", intensity_series, raw.mix, EmissionFactorTable())
    spec = gen.community(raw, intensity)
    baseline = call(tracer, "scenario.baseline", compute_baseline, spec)
    try:
        report = call(tracer, "scenario.run", run_scenario, spec, Objective.PRICE, AllocationMode.FIXED, window_hours=24)
    except Exception as exc:  # a failed request counts against every window it holds
        return [(spec, Objective.PRICE, AllocationMode.FIXED, None, repr(exc))]
    delta = call(tracer, "scenario.compare", compare, report, baseline)
    for fn, arg in ((baseline_csv, baseline), (settlement_to_json, report), (delta_report_csv, delta),
                    (trace_csv, report.traces)):
        call(tracer, "scenario.serialize", fn, arg, count=serialize_count)
    return [(spec, Objective.PRICE, AllocationMode.FIXED, report, None)]


def ties_pass(days, tracer):
    from lecopt.model import AllocationMode, Objective
    from lecopt.scenario import run_scenario
    from lecopt.solver import SolveConfig

    cfg = SolveConfig(time_limit=TIES_TIME_LIMIT_S)
    outputs = []
    for request, spec in enumerate(days):
        if tracer is not None:
            tracer.request = request
        try:
            report = call(tracer, "scenario.run", run_scenario, spec, Objective.PRICE, AllocationMode.FIXED,
                          solve_config=cfg, window_hours=24)
            outputs.append((spec, Objective.PRICE, AllocationMode.FIXED, report, None))
        except Exception as exc:
            outputs.append((spec, Objective.PRICE, AllocationMode.FIXED, None, repr(exc)))
    return outputs


def cli_argv(config: Path, out: Path, objective="both", sharing="both") -> list[str]:
    return ["optimize", "--config", str(config), "--objective", objective, "--sharing", sharing, "--out", str(out)]


def cli_child(argv: list[str]) -> tuple[float, float, int]:
    """Run `lecopt` in a child process; returns (wall s, peak RSS MB, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "lecopt.cli", *argv], env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_in_process(argv: list[str], tracer) -> int:
    import lecopt.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return call(tracer, "cli.main", lecopt.cli.main, argv)


# -- correctness ---------------------------------------------------------


def windows_of(spec) -> list[tuple[int, int]]:
    T = spec.horizon_hours
    if T > 24 and T % 24 == 0:
        return [(24 * d, 24) for d in range(T // 24)]
    return [(0, T)]


def check_outputs(outputs, refs: dict, errors: list[str]) -> int:
    """Check every window of every request; returns the number of failed windows."""
    import check
    from lecopt.domain import slice_community
    from lecopt.model import build

    failed = 0
    for spec, objective, allocation, report, error in outputs:
        for start, hours in windows_of(spec):
            if report is None:
                failed += 1
                errors.append(f"request raised: {error}")
                continue
            window = slice_community(spec, start, hours) if hours != spec.horizon_hours else spec
            key = (id(spec), start, objective, allocation)
            if key not in refs:
                try:
                    refs[key] = check.reference(build(window, objective, allocation))
                except RuntimeError as exc:
                    failed += 1
                    errors.append(f"window at hour {start}: no reference: {exc}")
                    continue
            loads = {p.id: p.load.values for p in window.participants}
            problems = check.check_window(refs[key], check.window_values(report.traces, start, hours, loads))
            if problems:
                failed += 1
                errors.append(f"window at hour {start} ({objective.value}/{allocation.value}): {problems[0]}")
    return failed


def cli_outputs(spec, out: Path, errors: list[str]) -> tuple[list, int]:
    """Read a CLI run's settlements back; golden mismatches fail the windows they cover."""
    from lecopt.model import AllocationMode, Objective
    from lecopt.scenario import settlement_from_json

    golden_bad = [n for n in GOLDEN_FILES if not (out / n).is_file() or (out / n).read_bytes() != (GOLDEN / n).read_bytes()]
    outputs, failed = [], 0
    for objective, sharing in CLI_SCENARIOS:
        allocation = AllocationMode.FIXED if sharing == "static" else AllocationMode.OPTIMIZED
        path = out / f"settlement_{objective}_{sharing}.json"
        report = settlement_from_json(path.read_text(encoding="utf-8")) if path.is_file() else None
        bad_golden = "baseline.csv" in golden_bad or (
            (objective, sharing) == ("price", "static") and "settlement_price_static.csv" in golden_bad
        )
        if bad_golden and report is not None:
            failed += len(windows_of(spec))
            errors.append(f"golden mismatch: {golden_bad}")
            continue
        outputs.append((spec, Objective(objective), allocation, report, None if report else f"missing {path.name}"))
    return outputs, failed


# -- metrics -------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least 10 samples beyond it, or the maximum (p100) below 20 samples."""
    n = len(values)
    if n < 20:
        return (max(values) if values else 0.0), 100
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)  # nearest rank; n - rank >= 10 samples lie beyond it
    return float(sorted(values)[rank - 1]), pct


def build_count(problem, args):
    return {
        "rows": problem.num_rows,
        "cols": problem.num_cols,
        "nnz": sum(len(r.coeffs) for r in problem.rows),
        "binaries": len(problem.binaries),
    }


def solve_count(solution, args):
    from lecopt.solver import Status

    problem = args[0]
    m, n = problem.num_rows, problem.num_cols
    return {
        "pivots": solution.iterations,
        "nodes": solution.node_count,
        "limit": int(solution.status is Status.LIMIT_REACHED),
        "update_bytes": solution.iterations * 16 * m * (n + m),
    }


def install_probes(tracer) -> None:
    """Wrap lecopt's public functions at the names their callers look up."""
    import lecopt.cli
    import lecopt.model
    import lecopt.scenario

    for attr in ("baseline_csv", "settlement_to_json", "delta_report_csv", "trace_csv", "delta_report_table"):
        tracer.patch(lecopt.cli, attr, "scenario.serialize", count=serialize_count)
    tracer.patch(lecopt.cli, "load_community", "ingest.load")
    tracer.patch(lecopt.cli, "validate_community", "domain.validate")
    tracer.patch(lecopt.cli, "compute_baseline", "scenario.baseline")
    tracer.patch(lecopt.cli, "run_scenario", "scenario.run")
    tracer.patch(lecopt.cli, "compare", "scenario.compare")
    tracer.patch(lecopt.scenario, "validate_community", "domain.validate")
    tracer.patch(lecopt.scenario, "slice_community", "domain.slice")
    tracer.patch(lecopt.scenario, "build", "model.build", count=build_count)
    tracer.patch(lecopt.scenario, "solve_milp", "solver.solve", count=solve_count)
    tracer.patch(lecopt.scenario, "verify_solution", "solver.verify")
    tracer.patch(lecopt.model, "validate_community", "domain.validate")


def layer_metrics(tracer, passes: list[Pass], untraced_walls: list[float], child_walls: list[float]) -> dict:
    """Per-layer metrics: per-pass sums (median over traced passes), per-window counts and percentiles."""
    traced = [p for p in passes if p.kind == "traced"]
    per_pass = [tracer.spans[p.span_range[0]:p.span_range[1]] for p in traced]

    def total(name, key=None):
        return median([sum(s.counts[key] if key else s.duration for s in spans if s.name == name) for spans in per_pass])

    def count(name):
        return median([sum(1 for s in spans if s.name == name) for spans in per_pass])

    builds = [s for spans in per_pass for s in spans if s.name == "model.build"]
    solves = [s for spans in per_pass for s in spans if s.name == "solver.solve"]
    runs_self = median([sum(tracer.self_time(s) for s in spans if s.name == "scenario.run") for spans in per_pass])
    solve_s, pivots = total("solver.solve"), total("solver.solve", "pivots")
    p50 = median([s.duration for s in solves])
    tail_s, tail_pct = tail([s.duration for s in solves])
    traced_wall = median([p.wall for p in traced])
    main_s = total("cli.main")
    metrics = {
        "ingest.load_s": (total("ingest.load"), "s"),
        "domain.validate_calls": (count("domain.validate"), "count"),
        "domain.validate_s": (total("domain.validate"), "s"),
        "domain.slice_s": (total("domain.slice"), "s"),
        "gwp.intensity_s": (total("gwp.intensity"), "s"),
        "model.build_s": (total("model.build"), "s"),
        "model.rows": (median([s.counts["rows"] for s in builds]), "count"),
        "model.cols": (median([s.counts["cols"] for s in builds]), "count"),
        "model.nnz": (median([s.counts["nnz"] for s in builds]), "count"),
        "model.binaries": (median([s.counts["binaries"] for s in builds]), "count"),
        "solver.solve_s": (solve_s, "s"),
        "solver.solve_p50_s": (p50, "s"),
        "solver.solve_tail_s": (tail_s, "s"),
        "solver.pivots": (pivots, "count"),
        "solver.pivots_per_s": (pivots / solve_s if solve_s else 0.0, "1/s"),
        "solver.nodes": (total("solver.solve", "nodes"), "count"),
        "solver.root_closed_frac": (sum(s.counts["nodes"] == 1 for s in solves) / len(solves) if solves else 0.0, "ratio"),
        "solver.update_bytes_computed": (total("solver.solve", "update_bytes"), "bytes"),
        "solver.verify_s": (total("solver.verify"), "s"),
        "solver.limit_hits": (total("solver.solve", "limit"), "count"),
        "scenario.run_s": (total("scenario.run"), "s"),
        "scenario.self_s": (runs_self, "s"),
        "scenario.baseline_s": (total("scenario.baseline"), "s"),
        "scenario.compare_s": (total("scenario.compare"), "s"),
        "scenario.serialize_s": (total("scenario.serialize"), "s"),
        "scenario.serialize_bytes": (total("scenario.serialize", "bytes"), "bytes"),
        "cli.main_s": (main_s, "s"),
        "cli.startup_s": (median(child_walls) - median(untraced_walls) if child_walls else 0.0, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - median(untraced_walls), "s"),
    }
    tail_label = f"p{tail_pct}" if tail_pct < 100 else "max (fewer than 20 windows)"
    notes = {"solver.solve_tail_s": f"{tail_label} of {len(solves)} window solves", "windows_traced": len(solves)}
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, notes


# -- provenance ----------------------------------------------------------


def provenance(workload: str, seed: int, size: dict) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "size": size,
        "warmup_runs_excluded": 1,
    }


# -- timed sections ------------------------------------------------------


def timed(kind: str, tracer, request: int, fn, *args):
    """Run `fn(*args, tracer)` once; a "traced" run has the probes installed. Returns (wall, result, span range)."""
    traced = kind == "traced"
    first = len(tracer.spans) if traced else 0
    if traced:
        tracer.request = request
        install_probes(tracer)
    t0 = time.perf_counter()
    try:
        result = fn(*args, tracer if traced else None)
    finally:
        wall = time.perf_counter() - t0
        if traced:
            tracer.restore()
    return wall, result, (first, len(tracer.spans)) if traced else (0, 0)


def in_process_order(traced_mode: bool, k: int) -> tuple[str, ...]:
    """Untraced only, or both, alternating which goes first from round to round."""
    if not traced_mode:
        return ("inproc",)
    return ("inproc", "traced") if k % 2 == 0 else ("traced", "inproc")


def run_cli(config: Path, seconds: float, traced_mode: bool, tracer, workdir: Path) -> list[Pass]:
    """Child runs of the full matrix; in trace mode each round adds an untraced and a traced in-process run."""
    cli_child(cli_argv(config, workdir / "warm", "price", "static"))  # warm-up, not a sample
    passes: list[Pass] = []
    t_end = time.perf_counter() + seconds
    k = 0
    while not passes or time.perf_counter() < t_end:
        out = workdir / f"out{len(passes)}"
        wall, rss, code = cli_child(cli_argv(config, out))
        passes.append(Pass("child", wall, CLI_WINDOWS, [(code, out)], rss_mb=rss))
        for kind in in_process_order(traced_mode, k) if traced_mode else ():
            out = workdir / f"out{len(passes)}"
            wall, code, span_range = timed(kind, tracer, k, cli_in_process, cli_argv(config, out))
            passes.append(Pass(kind, wall, CLI_WINDOWS, [(code, out)], span_range=span_range))
        k += 1
    return passes


def run_in_process(workload: str, seed: int, inputs, seconds: float, traced_mode: bool, tracer) -> list[Pass]:
    """Timed passes of year-varied (distinct days each pass) or hard-ties (the panel, once)."""
    import gen

    year_pass(gen.generate_days([seed, 0], 1), None)  # warm-up, not a sample
    run_pass = year_pass if workload == "year-varied" else ties_pass
    passes: list[Pass] = []
    t_end = time.perf_counter() + seconds
    k = 0
    while not passes or (workload == "year-varied" and time.perf_counter() < t_end):
        pass_inputs = inputs if k == 0 or workload != "year-varied" else year_inputs(seed, k + 1)
        for kind in in_process_order(traced_mode, k):
            wall, outputs, span_range = timed(kind, tracer, k, run_pass, pass_inputs)
            windows = sum(len(windows_of(o[0])) for o in outputs)
            passes.append(Pass(kind, wall, windows, outputs, span_range=span_range))
        k += 1
    return passes


def run(workload: str, seed: int, seconds: float, traced_mode: bool, workdir: Path) -> tuple[dict, dict]:
    import spans

    inputs = setup(workload, seed, workdir)
    setup_samples = measure_setup(workload, seed)
    tracer = spans.Tracer() if traced_mode else None
    errors: list[str] = []
    refs: dict = {}

    if workload == "cli-fixture48":
        from lecopt.ingest import load_community

        size = {"scenarios": len(CLI_SCENARIOS), "windows_per_pass": CLI_WINDOWS, "horizon_h": 48}
        passes = run_cli(inputs, seconds, traced_mode, tracer, workdir)
        rss_mb = max(p.rss_mb for p in passes)
        spec = load_community(inputs)
        for p in passes:
            (code, out), = p.outputs
            if code != 0:
                p.failed = CLI_WINDOWS
                errors.append(f"lecopt optimize exited {code}")
                continue
            outputs, p.failed = cli_outputs(spec, out, errors)
            p.failed += check_outputs(outputs, refs, errors)
        e2e_kind = "child"
    else:
        if workload == "year-varied":
            size = {"days_per_pass": YEAR_DAYS, "windows_per_pass": YEAR_DAYS, "window_h": 24}
        else:
            size = {"panel_seed": TIES_PANEL_SEED, "days_per_pass": TIES_PANEL_DAYS,
                    "windows_per_pass": TIES_PANEL_DAYS, "window_h": 24}
        passes = run_in_process(workload, seed, inputs, seconds, traced_mode, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before scipy is imported
        for p in passes:
            p.failed = check_outputs(p.outputs, refs, errors)
        e2e_kind = "inproc"

    attempted = sum(p.windows for p in passes)
    failed = sum(p.failed for p in passes)
    walls = {kind: [p.wall for p in passes if p.kind == kind] for kind in ("child", "inproc", "traced")}
    detail = {
        "provenance": provenance(workload, seed, size),
        "wall_s_samples": walls,
        "setup_s_samples": setup_samples,
        "failed_frac": failed / attempted,
        "errors": errors[:5],
    }
    if traced_mode:
        spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(spans_path)
        metrics, detail["notes"] = layer_metrics(tracer, passes, walls["inproc"], walls["child"])
        detail["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    else:
        metrics = {
            "wall_s": {"value": median(walls[e2e_kind]), "unit": "s"},
            "setup_s": {"value": median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"lecbench: not a lecopt checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE), str(TESTS)]

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            setup(args.workload, args.seed, workdir)
            print(repr(time.perf_counter() - t0))
            return 0
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps({**detail, **result}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
