"""Hourly grid carbon intensity from day-ahead scheduled generation.

Each hour's intensity is the generation-weighted average of per-source
life-cycle emission factors, normalized by the generation covered by the
factor table (sources without a factor are excluded from numerator and
denominator alike, never silently counted as zero-emission).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime
from typing import Mapping, Sequence

from lecopt.domain import DEFAULT_PV_EMISSION_FACTOR, HOUR, HourlySeries

logger = logging.getLogger(__name__)

# Average life-cycle factors per generation source, kg CO2-eq/kWh.
# Ranges exist in the literature; the averages below are what this engine
# uses. solar_pv is a placeholder (see DEFAULT_PV_EMISSION_FACTOR).
DEFAULT_FACTORS: Mapping[str, float] = {
    "hard_coal": 0.855,
    "lignite": 1.05,
    "natural_gas": 0.690,
    "nuclear": 0.019,
    "biomass": 0.069,
    "hydro": 0.011,
    "wind": 0.022,
    "battery": 0.060,
    "solar_pv": DEFAULT_PV_EMISSION_FACTOR,
}

# Mix feeds often report gas-burning technologies under their own names;
# mapping them onto the natural-gas factor is an assumption, not a datum.
SOURCE_ALIASES: Mapping[str, str] = {
    "hydro_power": "hydro",
    "hydropower": "hydro",
    "coal": "hard_coal",
    "combined_cycle": "natural_gas",
    "cogeneration": "natural_gas",
    "gas": "natural_gas",
    "solar": "solar_pv",
    "pv": "solar_pv",
    "photovoltaic": "solar_pv",
}

DEFAULT_COVERAGE_WARN_THRESHOLD = 0.90


class ZeroCoveredGeneration(ValueError):
    """No generation in the mix is covered by the factor table."""

    def __init__(self, timestamp: datetime | None = None):
        self.timestamp = timestamp
        suffix = f" at {timestamp}" if timestamp is not None else ""
        super().__init__(f"covered generation is zero{suffix}")


def normalize_source(name: str) -> str:
    """Canonical key for a generation source name: lowercased, trimmed, aliased."""
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    return SOURCE_ALIASES.get(key, key)


@dataclass(frozen=True)
class EmissionFactorTable:
    """Per-source average emission factors, kg CO2-eq/kWh."""

    factors: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_FACTORS))

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("factor table is empty")
        normalized = {normalize_source(k): float(v) for k, v in self.factors.items()}
        for name, factor in normalized.items():
            if factor < 0:
                raise ValueError(f"negative factor for {name}: {factor}")
        object.__setattr__(self, "factors", normalized)

    def get(self, source: str) -> float | None:
        return self.factors.get(normalize_source(source))

    @classmethod
    def with_overrides(cls, overrides: Mapping[str, float]) -> EmissionFactorTable:
        merged = dict(DEFAULT_FACTORS)
        merged.update({normalize_source(k): float(v) for k, v in overrides.items()})
        return cls(merged)


@dataclass(frozen=True)
class GenerationMixHour:
    """Scheduled generation per source for one hour, MWh."""

    timestamp: datetime
    energy: Mapping[str, float]

    def __post_init__(self) -> None:
        normalized = {normalize_source(k): float(v) for k, v in self.energy.items()}
        for name, e in normalized.items():
            if e < 0:
                raise ValueError(f"negative energy for {name} at {self.timestamp}: {e}")
        object.__setattr__(self, "energy", normalized)

    def total(self) -> float:
        return sum(self.energy.values())


def hourly_intensity(mix: GenerationMixHour, factors: EmissionFactorTable) -> float:
    """Generation-weighted average factor over sources covered by the table.

    Raises ZeroCoveredGeneration when nothing in the mix has a factor.
    """
    weighted = 0.0
    covered = 0.0
    for source, energy in mix.energy.items():
        factor = factors.factors.get(source)
        if factor is None:
            continue
        weighted += energy * factor
        covered += energy
    if covered <= 0.0:
        raise ZeroCoveredGeneration(mix.timestamp)
    return weighted / covered


def coverage_ratio(mix: GenerationMixHour, factors: EmissionFactorTable) -> float:
    """Fraction of the mix energy whose source has a known factor."""
    total = mix.total()
    if total <= 0.0:
        raise ValueError(f"total mix energy is zero at {mix.timestamp}")
    covered = sum(e for s, e in mix.energy.items() if s in factors.factors)
    return covered / total


def intensity_series(
    mix_hours: Sequence[GenerationMixHour],
    factors: EmissionFactorTable,
    coverage_warn_threshold: float = DEFAULT_COVERAGE_WARN_THRESHOLD,
) -> HourlySeries:
    """Hourly intensity over a run of mix hours.

    Timestamps must be strictly increasing and hourly. Hours whose factor
    coverage drops below the threshold are logged as warnings.
    """
    if not mix_hours:
        raise ValueError("no mix hours supplied")
    for prev, cur in zip(mix_hours, mix_hours[1:]):
        if cur.timestamp - prev.timestamp != HOUR:
            raise ValueError(f"mix timestamps not strictly hourly between {prev.timestamp} and {cur.timestamp}")
    values = []
    for mix in mix_hours:
        value = hourly_intensity(mix, factors)
        if mix.total() > 0 and coverage_ratio(mix, factors) < coverage_warn_threshold:
            logger.warning(
                "factor coverage %.1f%% below %.0f%% at %s",
                100 * coverage_ratio(mix, factors),
                100 * coverage_warn_threshold,
                mix.timestamp,
            )
        values.append(value)
    return HourlySeries(tuple(m.timestamp for m in mix_hours), tuple(values))
