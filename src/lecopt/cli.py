"""Command-line surface for the community optimizer.

Subcommands: validate, gwp, baseline, optimize, export-lp.
Exit codes: 0 success, 1 usage or validation error (or a window too large
for the dense solver), 2 solver infeasibility, 3 I/O or input-format
error, 4 internal error (a node, time or simplex iteration limit, or a
solution the verifier rejects). Only `validate` checks the community
itself; the other subcommands leave that to `compute_baseline`,
`run_scenario` and `build`, which reject an invalid spec. Every solution
is verified at the solver's fixed tolerance. Output for identical inputs
is byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from lecopt.domain import CommunitySpec, validate_community
from lecopt.gwp import EmissionFactorTable, ZeroCoveredGeneration, intensity_series
from lecopt.ingest import IngestError, RunConfig, load_community, load_factor_overrides, load_mix_csv
from lecopt.model import AllocationMode, Objective, build, export_lp_text
from lecopt.scenario import (
    ScenarioInfeasible,
    baseline_csv,
    compare,
    compute_baseline,
    delta_report_csv,
    delta_report_table,
    run_scenario,
    settlement_to_json,
    trace_csv,
)
from lecopt.solver import SolveConfig, SolverError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

_OBJECTIVES = {"price": Objective.PRICE, "environment": Objective.ENVIRONMENT}
_SHARING = {"static": AllocationMode.FIXED, "variable": AllocationMode.OPTIMIZED}


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="community config JSON")
    sub.add_argument("--vat", type=float, default=None, help="override VAT rate applied to raw buy prices")
    sub.add_argument("--factors", default=None, help="emission-factor override CSV (source,factor)")
    sub.add_argument("--kcal-per-hour", type=float, default=None, help="battery calendar cost, EUR/h")
    sub.add_argument("--kcal-per-kwh", type=float, default=None, help="battery throughput cost, EUR/kWh")
    sub.add_argument("--compensation-cap", action="store_true", default=None,
                     help="cap compensated surplus value at imported consumption value per billing period")


def _load(args) -> CommunitySpec:
    run = RunConfig(
        vat_rate=args.vat,
        factors_file=Path(args.factors) if args.factors else None,
        kcal_per_hour=args.kcal_per_hour,
        kcal_per_kwh=args.kcal_per_kwh,
        compensation_cap=args.compensation_cap,
    )
    return load_community(Path(args.config), run)


def _scenario_lists(args) -> tuple[list[str], list[str]]:
    objectives = ["price", "environment"] if args.objective == "both" else [args.objective]
    sharing = ["static", "variable"] if args.sharing == "both" else [args.sharing]
    return objectives, sharing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lecopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a community config")
    _add_run_flags(p)

    p = sub.add_parser("gwp", help="hourly grid intensity from a generation-mix CSV")
    p.add_argument("--mix", required=True, help="wide-format mix CSV (timestamp + one column per source)")
    p.add_argument("--factors", default=None, help="emission-factor override CSV")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")

    p = sub.add_parser("baseline", help="no-community baseline costs and emissions")
    _add_run_flags(p)
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("optimize", help="run the scenario matrix and settle against the baseline")
    _add_run_flags(p)
    p.add_argument("--objective", choices=["price", "environment", "both"], default="price")
    p.add_argument("--sharing", choices=["static", "variable", "both"], default="static")
    p.add_argument("--out", default=None, help="output directory for JSON/CSV reports and traces")
    p.add_argument("--window-hours", type=int, default=24, help="optimization window length")

    p = sub.add_parser("export-lp", help="write the scenario MILP in LP text format")
    _add_run_flags(p)
    p.add_argument("--objective", choices=["price", "environment"], default="price")
    p.add_argument("--sharing", choices=["static", "variable"], default="static")
    p.add_argument("--out", default=None, help="output .lp file (default: stdout)")
    return parser


def _cmd_validate(args) -> int:
    report = validate_community(_load(args))
    if report.ok:
        print("ok")
        return EXIT_OK
    print(report, file=sys.stderr)
    return EXIT_VALIDATION


def _cmd_gwp(args) -> int:
    mix = load_mix_csv(Path(args.mix))
    factors = EmissionFactorTable()
    if args.factors:
        factors = EmissionFactorTable.with_overrides(load_factor_overrides(Path(args.factors)))
    series = intensity_series(mix, factors)
    lines = ["timestamp,gwp_grid"]
    for ts, value in zip(series.timestamps, series.values):
        lines.append(f"{ts.isoformat()},{value:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_baseline(args) -> int:
    baseline = compute_baseline(_load(args))
    text = baseline_csv(baseline)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "baseline.csv").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    objectives, sharing = _scenario_lists(args)
    spec = _load(args)
    baseline = compute_baseline(spec)
    out_dir = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "baseline.csv").write_text(baseline_csv(baseline), encoding="utf-8")
    cfg = SolveConfig()
    for obj_name in objectives:
        for share_name in sharing:
            report = run_scenario(
                spec,
                _OBJECTIVES[obj_name],
                _SHARING[share_name],
                solve_config=cfg,
                window_hours=args.window_hours,
            )
            delta = compare(report, baseline)
            sys.stdout.write(delta_report_table(delta))
            if out_dir is not None:
                stem = f"{obj_name}_{share_name}"
                (out_dir / f"settlement_{stem}.json").write_text(settlement_to_json(report) + "\n", encoding="utf-8")
                (out_dir / f"settlement_{stem}.csv").write_text(delta_report_csv(delta), encoding="utf-8")
                (out_dir / f"trace_{stem}.csv").write_text(trace_csv(report.traces), encoding="utf-8")
    return EXIT_OK


def _cmd_export_lp(args) -> int:
    text = export_lp_text(build(_load(args), _OBJECTIVES[args.objective], _SHARING[args.sharing]))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "gwp": _cmd_gwp,
    "baseline": _cmd_baseline,
    "optimize": _cmd_optimize,
    "export-lp": _cmd_export_lp,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:  # --help
            raise
        return EXIT_VALIDATION  # argparse's own code, 2, means infeasible here
    try:
        return _COMMANDS[args.command](args)
    except (IngestError, ZeroCoveredGeneration, OSError) as exc:
        # Before ValueError: ZeroCoveredGeneration subclasses it.
        print(exc, file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # compute_baseline, run_scenario and build reject an invalid spec with ValueError.
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioInfeasible as exc:
        print(exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
