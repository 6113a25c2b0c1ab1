"""Community data types, units, and validation.

All quantities are hourly: the time step is 1 h, so kW limits and kWh/h
energies are numerically interchangeable. Buy prices are stored
tax-inclusive; VAT is applied by the ingestion layer when raw wholesale
prices are supplied. All types are immutable after construction.
"""

from __future__ import annotations

import enum
import functools
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Mapping, Sequence

import numpy as np

# Life-cycle factor for PV generation, kg CO2-eq/kWh. Not sourced from the
# bundled factor table; a documented placeholder that users should override
# with a value appropriate to their installation.
DEFAULT_PV_EMISSION_FACTOR = 0.045

HOUR = timedelta(hours=1)


@functools.lru_cache(maxsize=32)
def _hourly_stamps(start: datetime, tzinfo, length: int) -> tuple[datetime, ...]:
    """One shared timestamp tuple per horizon, so series built on it hold no copies.

    `tzinfo` is part of the key because aware datetimes at the same instant
    compare equal across time zones.
    """
    return tuple(start + i * HOUR for i in range(length))


@dataclass(frozen=True)
class HourlySeries:
    """A timestamp-aligned hourly numeric series.

    Timestamps must be strictly increasing with exactly 1 h spacing; gaps
    are rejected at construction (no interpolation, ever). Values are
    stored as `array('d')`, 8 bytes per hour instead of a boxed Python float
    each; any other sequence of numbers is converted at construction.
    """

    timestamps: tuple[datetime, ...]
    values: array

    def __post_init__(self) -> None:
        if not (isinstance(self.values, array) and self.values.typecode == "d"):
            object.__setattr__(self, "values", array("d", self.values))
        if len(self.timestamps) != len(self.values):
            raise ValueError(
                f"timestamps ({len(self.timestamps)}) and values "
                f"({len(self.values)}) differ in length"
            )
        if not self.timestamps:
            raise ValueError("series is empty")
        for prev, cur in zip(self.timestamps, self.timestamps[1:]):
            if cur - prev != HOUR:
                raise ValueError(f"non-hourly step between {prev} and {cur}")

    @classmethod
    def from_values(cls, values: Sequence[float] | np.ndarray, start: datetime | None = None) -> HourlySeries:
        vals = array("d", np.asarray(values, dtype=float).tobytes())
        t0 = start if start is not None else datetime(2022, 3, 3)
        return cls(_hourly_stamps(t0, t0.tzinfo, len(vals)), vals)

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        """A fresh float array; writing to it leaves the series unchanged."""
        return np.frombuffer(self.values, dtype=float).copy()

    def window(self, start: int, length: int) -> HourlySeries:
        """Sub-series of `length` hours beginning at index `start`."""
        if start < 0 or start + length > len(self):
            raise IndexError(f"window [{start}, {start + length}) outside series of length {len(self)}")
        return HourlySeries(self.timestamps[start : start + length], self.values[start : start + length])

    def aligned_with(self, other: HourlySeries) -> bool:
        return self.timestamps == other.timestamps


@dataclass(frozen=True)
class Participant:
    """One consumption point of the community.

    `max_import` / `max_export` are contracted power limits in kW keyed by
    tariff period (1..6); `tariff_period_map` gives the active period per
    hour of the horizon (None means period 1 for every hour). When
    `max_export` omits a period, the import limit of that period applies.
    """

    id: str
    load: HourlySeries
    buy_price: HourlySeries
    sell_price: HourlySeries
    max_import: Mapping[int, float]
    max_export: Mapping[int, float] = field(default_factory=dict)
    tariff_period_map: tuple[int, ...] | None = None

    def period(self, t: int) -> int:
        if self.tariff_period_map is None:
            return 1
        return self.tariff_period_map[t]

    def import_limit(self, t: int) -> float:
        return float(self.max_import[self.period(t)])

    def export_limit(self, t: int) -> float:
        p = self.period(t)
        if p in self.max_export:
            return float(self.max_export[p])
        return float(self.max_import[p])


@dataclass(frozen=True)
class BessSpec:
    """Centralized Li-ion battery parameters.

    SOC dynamics: soc_t = soc_{t-1} + eta_ch * charge_t - discharge_t / eta_dis.
    `calendar_cost_per_hour` is a constant degradation cost in EUR/h;
    `throughput_cost_per_kwh` optionally prices charge+discharge energy.
    """

    p_ch_max: float
    p_dis_max: float
    soc_max: float
    soc_min: float
    eta_ch: float
    eta_dis: float
    soc_initial: float
    soc_final: float
    calendar_cost_per_hour: float = 0.0
    throughput_cost_per_kwh: float = 0.0
    emission_factor_discharge: float = 0.060


@dataclass(frozen=True)
class PvSpec:
    """Shared photovoltaic installation: hourly generation plus its life-cycle factor."""

    generation: HourlySeries
    emission_factor: float = DEFAULT_PV_EMISSION_FACTOR


class SharingMode(enum.Enum):
    STATIC = "static"
    HOURLY_VARIABLE = "hourly_variable"


@dataclass(frozen=True)
class SharingScheme:
    """How net community generation is split among participants.

    STATIC uses one coefficient per participant for all hours.
    HOURLY_VARIABLE either carries externally fixed per-hour coefficient
    series, or (when `variable_coefficients` is None) leaves the hourly
    allocation to the optimizer.
    """

    mode: SharingMode
    static_coefficients: Mapping[str, float] = field(default_factory=dict)
    variable_coefficients: Mapping[str, HourlySeries] | None = None

    @property
    def optimized(self) -> bool:
        return self.mode is SharingMode.HOURLY_VARIABLE and self.variable_coefficients is None

    def coefficient(self, participant_id: str, t: int) -> float:
        """Fixed coefficient for (participant, hour); invalid in optimized mode."""
        if self.mode is SharingMode.STATIC:
            return float(self.static_coefficients[participant_id])
        if self.variable_coefficients is None:
            raise ValueError("coefficients are decision variables in optimized mode")
        return float(self.variable_coefficients[participant_id].values[t])


@dataclass(frozen=True)
class CommunitySpec:
    """Full description of the community and its exogenous series."""

    participants: tuple[Participant, ...]
    bess: BessSpec
    pv: PvSpec
    sharing: SharingScheme
    grid_intensity: HourlySeries
    horizon_hours: int
    vat_rate: float = 0.0
    compensation_cap_enabled: bool = False
    allow_negative_prices: bool = False

    def participant_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.participants)


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


COEFFICIENT_SUM_TOL = 1e-9


def _check_series(out: list[Violation], path: str, series: HourlySeries, spec: CommunitySpec,
                  reference: HourlySeries | None, negative: str | None = None) -> None:
    """Length and alignment with the horizon, finite values, and none below 0 when `negative` names that violation."""
    if len(series) != spec.horizon_hours:
        out.append(Violation(path, f"length {len(series)} != horizon {spec.horizon_hours}"))
    elif reference is not None and not series.aligned_with(reference):
        out.append(Violation(path, "timestamps not aligned with the community horizon"))
    if not all(map(math.isfinite, series.values)):
        hour = next(t for t, v in enumerate(series.values) if not math.isfinite(v))
        out.append(Violation(path, f"non-finite value at hour {hour}"))
    if negative is not None and any(v < 0 for v in series.values):
        out.append(Violation(path, negative))


def validate_community(spec: CommunitySpec) -> ValidationReport:
    """Check every structural invariant of a community spec.

    Never raises: all problems are collected into the report. An empty
    report means the spec is accepted by every model-building operation.
    """
    out: list[Violation] = []

    if spec.horizon_hours <= 0:
        out.append(Violation("horizon_hours", f"must be positive, got {spec.horizon_hours}"))
    if not spec.participants:
        out.append(Violation("participants", "at least one participant required"))
        return ValidationReport(tuple(out))

    ids = [p.id for p in spec.participants]
    if len(set(ids)) != len(ids):
        out.append(Violation("participants", f"duplicate ids in {ids}"))

    reference = spec.participants[0].load if len(spec.participants[0].load) == spec.horizon_hours else None

    for p in spec.participants:
        base = f"participants[{p.id}]"
        _check_series(out, f"{base}.load", p.load, spec, reference, "negative load")
        _check_series(out, f"{base}.buy_price", p.buy_price, spec, reference)
        _check_series(out, f"{base}.sell_price", p.sell_price, spec, reference)
        if not spec.allow_negative_prices:
            if any(v < 0 for v in p.sell_price.values):
                out.append(Violation(f"{base}.sell_price", "negative sell price"))
            if any(b < s for b, s in zip(p.buy_price.values, p.sell_price.values)):
                out.append(Violation(f"{base}", "buy price below sell price in some hour"))
        # Contracted powers bound the flows and are the export's big-M: finite.
        for period, kw in p.max_import.items():
            if not 0 < kw < math.inf:
                out.append(Violation(f"{base}.max_import[{period}]", f"must be finite and > 0, got {kw}"))
        for period, kw in p.max_export.items():
            if not 0 <= kw < math.inf:
                out.append(Violation(f"{base}.max_export[{period}]", f"must be finite and >= 0, got {kw}"))
        if p.tariff_period_map is not None:
            if len(p.tariff_period_map) != spec.horizon_hours:
                out.append(Violation(f"{base}.tariff_period_map", f"length {len(p.tariff_period_map)} != horizon {spec.horizon_hours}"))
            else:
                missing = sorted({per for per in p.tariff_period_map if per not in p.max_import})
                if missing:
                    out.append(Violation(f"{base}.max_import", f"no limit for tariff periods {missing}"))
        elif 1 not in p.max_import:
            out.append(Violation(f"{base}.max_import", "no limit for tariff period 1"))

    b = spec.bess
    if not 0 < b.p_ch_max < math.inf:
        out.append(Violation("bess.p_ch_max", f"must be finite and > 0, got {b.p_ch_max}"))
    if not 0 < b.p_dis_max < math.inf:
        out.append(Violation("bess.p_dis_max", f"must be finite and > 0, got {b.p_dis_max}"))
    if not 0 < b.eta_ch <= 1:
        out.append(Violation("bess.eta_ch", f"must be in (0, 1], got {b.eta_ch}"))
    if not 0 < b.eta_dis <= 1:
        out.append(Violation("bess.eta_dis", f"must be in (0, 1], got {b.eta_dis}"))
    if b.soc_min > b.soc_max:
        out.append(Violation("bess", f"soc_min {b.soc_min} above soc_max {b.soc_max}"))
    if b.soc_initial > b.soc_max:
        out.append(Violation("bess.soc_initial", f"initial SOC above soc_max ({b.soc_initial} > {b.soc_max})"))
    if b.soc_initial < b.soc_min:
        out.append(Violation("bess.soc_initial", f"initial SOC below soc_min ({b.soc_initial} < {b.soc_min})"))
    if b.soc_final > b.soc_max:
        out.append(Violation("bess.soc_final", f"final SOC above soc_max ({b.soc_final} > {b.soc_max})"))
    if b.soc_final < b.soc_min:
        out.append(Violation("bess.soc_final", f"final SOC below soc_min ({b.soc_final} < {b.soc_min})"))
    # A comparison with NaN is false, so the SOC checks above let it pass:
    # each SOC level must also be finite, each cost, factor and rate finite and >= 0.
    levels = {f"bess.{name}": getattr(b, name) for name in ("soc_max", "soc_min", "soc_initial", "soc_final")}
    costs = {f"bess.{name}": getattr(b, name) for name in ("calendar_cost_per_hour", "throughput_cost_per_kwh", "emission_factor_discharge")}
    costs.update({"pv.emission_factor": spec.pv.emission_factor, "vat_rate": spec.vat_rate})
    for path, value in {**levels, **costs}.items():
        if not math.isfinite(value):
            out.append(Violation(path, f"must be finite, got {value}"))
        elif path in costs and value < 0:
            out.append(Violation(path, f"must be >= 0, got {value}"))

    _check_series(out, "pv.generation", spec.pv.generation, spec, reference, "negative generation")
    _check_series(out, "grid_intensity", spec.grid_intensity, spec, reference, "negative intensity")

    _validate_sharing(out, spec)

    return ValidationReport(tuple(out))


def _validate_sharing(out: list[Violation], spec: CommunitySpec) -> None:
    sharing = spec.sharing
    ids = spec.participant_ids()
    if sharing.mode is SharingMode.STATIC:
        missing = [i for i in ids if i not in sharing.static_coefficients]
        if missing:
            out.append(Violation("sharing.static_coefficients", f"missing coefficients for {missing}"))
            return
        coeffs = [float(sharing.static_coefficients[i]) for i in ids]
        for i, c in zip(ids, coeffs):
            if not 0.0 <= c <= 1.0:
                out.append(Violation(f"sharing.static_coefficients[{i}]", f"coefficient {c} outside [0, 1]"))
        total = sum(coeffs)
        if abs(total - 1.0) > COEFFICIENT_SUM_TOL:
            out.append(Violation("sharing.static_coefficients", f"sharing coefficients sum {total:g} != 1"))
        return

    if sharing.variable_coefficients is None:
        return  # coefficients are decision variables
    missing = [i for i in ids if i not in sharing.variable_coefficients]
    if missing:
        out.append(Violation("sharing.variable_coefficients", f"missing series for {missing}"))
        return
    reference = spec.participants[0].load
    for i in ids:
        series = sharing.variable_coefficients[i]
        _check_series(out, f"sharing.variable_coefficients[{i}]", series, spec, reference if len(reference) == spec.horizon_hours else None)
        if any(not 0.0 <= v <= 1.0 for v in series.values):
            out.append(Violation(f"sharing.variable_coefficients[{i}]", "coefficient outside [0, 1]"))
    lengths = {len(sharing.variable_coefficients[i]) for i in ids}
    if lengths == {spec.horizon_hours}:
        for t in range(spec.horizon_hours):
            total = sum(sharing.variable_coefficients[i].values[t] for i in ids)
            if abs(total - 1.0) > COEFFICIENT_SUM_TOL:
                out.append(Violation("sharing.variable_coefficients", f"hour {t}: sharing coefficients sum {total:g} != 1"))


def slice_community(spec: CommunitySpec, start: int, hours: int) -> CommunitySpec:
    """Sub-community covering `hours` hours from index `start` of the horizon.

    Used to split a multi-day dataset into independent daily problems; the
    battery endpoint rule applies to each window separately.
    """
    participants = tuple(
        Participant(
            id=p.id,
            load=p.load.window(start, hours),
            buy_price=p.buy_price.window(start, hours),
            sell_price=p.sell_price.window(start, hours),
            max_import=p.max_import,
            max_export=p.max_export,
            tariff_period_map=None if p.tariff_period_map is None else p.tariff_period_map[start : start + hours],
        )
        for p in spec.participants
    )
    sharing = spec.sharing
    if sharing.variable_coefficients is not None:
        sharing = SharingScheme(
            mode=sharing.mode,
            static_coefficients=sharing.static_coefficients,
            variable_coefficients={k: v.window(start, hours) for k, v in sharing.variable_coefficients.items()},
        )
    return CommunitySpec(
        participants=participants,
        bess=spec.bess,
        pv=PvSpec(spec.pv.generation.window(start, hours), spec.pv.emission_factor),
        sharing=sharing,
        grid_intensity=spec.grid_intensity.window(start, hours),
        horizon_hours=hours,
        vat_rate=spec.vat_rate,
        compensation_cap_enabled=spec.compensation_cap_enabled,
        allow_negative_prices=spec.allow_negative_prices,
    )
