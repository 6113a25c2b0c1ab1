"""CSV/JSON ingestion for community runs.

All tabular inputs are CSV with an ISO-8601 timestamp column and
dot-decimal numbers; gaps, duplicates, and non-numeric or non-finite
cells are hard errors, never interpolated. The community itself is
described by one JSON config file whose relative paths resolve against its directory.

VAT is applied here: unless the config marks prices as tax-inclusive, raw
buy prices are multiplied by (1 + vat_rate) before entering the domain.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Mapping, Sequence

from lecopt.domain import (
    HOUR,
    BessSpec,
    CommunitySpec,
    HourlySeries,
    Participant,
    PvSpec,
    SharingMode,
    SharingScheme,
)
from lecopt.gwp import DEFAULT_COVERAGE_WARN_THRESHOLD, EmissionFactorTable, GenerationMixHour, intensity_series


class IngestError(Exception):
    """Base class for input-file problems."""


class MissingColumn(IngestError):
    def __init__(self, path, column: str, available: Sequence[str]):
        super().__init__(f"{path}: missing column {column!r} (available: {', '.join(available)})")


class GapInSeries(IngestError):
    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")


class NonNumericCell(IngestError):
    def __init__(self, path, row: int, column: str, cell: str):
        super().__init__(f"{path}: row {row}, column {column!r}: cell {cell!r} is not a number")


def _read_rows(path) -> tuple[list[str], list[dict[str, str]]]:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise GapInSeries(path, "file is empty")
            rows = list(reader)
    except FileNotFoundError:
        raise IngestError(f"input file does not exist: {path}") from None
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    if not rows:
        raise GapInSeries(path, "no data rows")
    return list(reader.fieldnames), rows


def _parse_timestamp(path, row_no: int, cell: str) -> datetime:
    try:
        return datetime.fromisoformat(cell.strip())
    except ValueError as exc:
        raise GapInSeries(path, f"row {row_no}: unparseable timestamp {cell!r}") from exc


def _parse_float(path, row_no: int, column: str, cell: str) -> float:
    try:
        value = float(cell.strip())
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise NonNumericCell(path, row_no, column, cell)


def _check_hourly(path, timestamps: Sequence[datetime]) -> None:
    for prev, cur in zip(timestamps, timestamps[1:]):
        if cur == prev:
            raise GapInSeries(path, f"duplicated timestamp {prev.isoformat()}")
        if cur - prev != HOUR:
            raise GapInSeries(path, f"gap or disorder after {prev.isoformat()} (next is {cur.isoformat()})")


def load_series_csv(path, column: str, timestamp_column: str = "timestamp") -> HourlySeries:
    """One numeric column of an hourly CSV as an HourlySeries."""
    header, rows = _read_rows(path)
    for needed in (timestamp_column, column):
        if needed not in header:
            raise MissingColumn(path, needed, header)
    timestamps: list[datetime] = []
    values: list[float] = []
    for row_no, row in enumerate(rows, 2):  # header is line 1
        timestamps.append(_parse_timestamp(path, row_no, row[timestamp_column]))
        values.append(_parse_float(path, row_no, column, row[column]))
    _check_hourly(path, timestamps)
    return HourlySeries(tuple(timestamps), tuple(values))


def load_mix_csv(path, timestamp_column: str = "timestamp") -> list[GenerationMixHour]:
    """Wide-format generation mix: one column per source, MWh per hour."""
    header, rows = _read_rows(path)
    if timestamp_column not in header:
        raise MissingColumn(path, timestamp_column, header)
    sources = [c for c in header if c != timestamp_column]
    if not sources:
        raise MissingColumn(path, "<any generation source>", header)
    out: list[GenerationMixHour] = []
    timestamps: list[datetime] = []
    for row_no, row in enumerate(rows, 2):
        ts = _parse_timestamp(path, row_no, row[timestamp_column])
        timestamps.append(ts)
        energy = {src: _parse_float(path, row_no, src, row[src]) for src in sources}
        out.append(GenerationMixHour(ts, energy))
    _check_hourly(path, timestamps)
    return out


def load_factor_overrides(path) -> dict[str, float]:
    """Per-source emission-factor overrides: CSV with `source,factor` columns."""
    header, rows = _read_rows(path)
    for needed in ("source", "factor"):
        if needed not in header:
            raise MissingColumn(path, needed, header)
    out: dict[str, float] = {}
    for row_no, row in enumerate(rows, 2):
        out[row["source"].strip()] = _parse_float(path, row_no, "factor", row["factor"])
    return out


@dataclass(frozen=True)
class RunConfig:
    """Command-line overrides of a community config; None keeps the config's own value."""

    vat_rate: float | None = None
    factors_file: Path | None = None
    kcal_per_hour: float | None = None
    kcal_per_kwh: float | None = None
    compensation_cap: bool | None = None


def _scale(series: HourlySeries, factor: float) -> HourlySeries:
    return HourlySeries(series.timestamps, tuple(v * factor for v in series.values))


def _series_ref(cfg: Mapping, key: str, base: Path) -> HourlySeries:
    try:
        ref = cfg[key]
        return load_series_csv(base / ref["file"], ref["column"])
    except KeyError as exc:
        raise IngestError(f"community config: missing {key}/{exc} entry") from exc


def _period_map(raw) -> Mapping[int, float]:
    if isinstance(raw, (int, float)):
        return {1: float(raw)}
    return {int(k): float(v) for k, v in raw.items()}


def load_community(
    config_path,
    run: RunConfig | None = None,
) -> CommunitySpec:
    """Assemble a CommunitySpec from a JSON config and its referenced CSVs.

    `run` supplies command-line overrides (VAT rate, emission factors,
    battery degradation cost, compensation cap).
    """
    config_path = Path(config_path)
    run = run or RunConfig()
    try:
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise IngestError(f"input file does not exist: {config_path}") from None
    except OSError as exc:
        raise IngestError(f"{config_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestError(f"{config_path}: invalid JSON: {exc}") from exc
    base = config_path.parent

    vat = run.vat_rate if run.vat_rate is not None else float(cfg.get("vat_rate", 0.0))
    tax_inclusive = bool(cfg.get("prices_are_tax_inclusive", False))
    buy_factor = 1.0 if tax_inclusive else 1.0 + vat

    participants = []
    for pc in cfg.get("participants", []):
        try:
            pid = pc["id"]
        except KeyError:
            raise IngestError("community config: participant without id") from None
        buy = _scale(_series_ref(pc, "buy_price", base), buy_factor)
        participants.append(
            Participant(
                id=pid,
                load=_series_ref(pc, "load", base),
                buy_price=buy,
                sell_price=_series_ref(pc, "sell_price", base),
                max_import=_period_map(pc.get("max_import", {})),
                max_export=_period_map(pc.get("max_export", {})),
                tariff_period_map=tuple(pc["tariff_period_map"]) if "tariff_period_map" in pc else None,
            )
        )
    if not participants:
        raise IngestError("community config: no participants")

    bc = cfg.get("bess", {})
    try:
        bess = BessSpec(
            p_ch_max=float(bc["p_ch_max"]),
            p_dis_max=float(bc["p_dis_max"]),
            soc_max=float(bc["soc_max"]),
            soc_min=float(bc["soc_min"]),
            eta_ch=float(bc["eta_ch"]),
            eta_dis=float(bc["eta_dis"]),
            soc_initial=float(bc["soc_initial"]),
            soc_final=float(bc["soc_final"]),
            calendar_cost_per_hour=(
                run.kcal_per_hour if run.kcal_per_hour is not None else float(bc.get("calendar_cost_per_hour", 0.0))
            ),
            throughput_cost_per_kwh=(
                run.kcal_per_kwh if run.kcal_per_kwh is not None else float(bc.get("throughput_cost_per_kwh", 0.0))
            ),
            emission_factor_discharge=float(bc.get("emission_factor_discharge", 0.060)),
        )
    except KeyError as exc:
        raise IngestError(f"community config: bess missing {exc}") from None

    pv_cfg = cfg.get("pv", {})
    pv = PvSpec(
        generation=_series_ref(pv_cfg, "generation", base),
        emission_factor=float(pv_cfg.get("emission_factor", PvSpec.__dataclass_fields__["emission_factor"].default)),
    )

    sh = cfg.get("sharing", {"mode": "static"})
    mode = sh.get("mode", "static")
    if mode == "static":
        sharing = SharingScheme(SharingMode.STATIC, static_coefficients=dict(sh.get("coefficients", {})))
    elif mode in ("variable", "hourly_variable"):
        files = sh.get("coefficients_files")
        variable = None
        if files:
            variable = {pid: load_series_csv(base / ref["file"], ref["column"]) for pid, ref in files.items()}
        sharing = SharingScheme(
            SharingMode.HOURLY_VARIABLE,
            static_coefficients=dict(sh.get("coefficients", {})),
            variable_coefficients=variable,
        )
    else:
        raise IngestError(f"community config: unknown sharing mode {mode!r}")

    gi = cfg.get("grid_intensity", {})
    factors = EmissionFactorTable()
    overrides: dict[str, float] = dict(cfg.get("emission_factor_overrides", {}))
    if run.factors_file is not None:
        overrides.update(load_factor_overrides(run.factors_file))
    if overrides:
        factors = EmissionFactorTable.with_overrides(overrides)
    if "mix_file" in gi:
        mix = load_mix_csv(base / gi["mix_file"])
        intensity = intensity_series(mix, factors, float(gi.get("coverage_warn_threshold", DEFAULT_COVERAGE_WARN_THRESHOLD)))
    else:
        intensity = _series_ref(cfg, "grid_intensity", base)

    cap = (
        run.compensation_cap if run.compensation_cap is not None else bool(cfg.get("compensation_cap_enabled", False))
    )
    horizon = int(cfg.get("horizon_hours", len(participants[0].load)))
    return CommunitySpec(
        participants=tuple(participants),
        bess=bess,
        pv=pv,
        sharing=sharing,
        grid_intensity=intensity,
        horizon_hours=horizon,
        vat_rate=vat,
        compensation_cap_enabled=cap,
        allow_negative_prices=bool(cfg.get("allow_negative_prices", False)),
    )
