"""Seeded generator of varied multi-day community inputs.

Every day differs from every other: PV follows the season and a random
cloud cover, load follows weekday/weekend office patterns with noise, and
the price curve and the generation mix (hence the grid intensity) change
from day to day. The generator is the only source of benchmark inputs for
the seeded workloads; the engine sees only the specs it returns.

The four buildings, their contracted powers and sharing coefficients, and
the battery are the bundled fixture's, so every generated day is feasible
with an idle battery and every spec passes `validate_community`.
"""

from __future__ import annotations

import dataclasses
import math
from datetime import datetime, timedelta

import numpy as np

from lecopt.domain import (
    BessSpec,
    CommunitySpec,
    HourlySeries,
    Participant,
    PvSpec,
    SharingMode,
    SharingScheme,
)
from lecopt.fixtures import CONTRACTED_POWER, LOAD_SCALE, STATIC_COEFFICIENTS, TABLE_BESS
from lecopt.gwp import EmissionFactorTable, GenerationMixHour, intensity_series

START = datetime(2022, 1, 3)  # a Monday
IDS = ("B1", "B2", "B3", "B4")
VAT = 0.21
PV_PEAK_KW = 68.0
MIX_SOURCES = ("wind", "nuclear", "natural_gas", "hydro", "hard_coal", "solar_pv")


@dataclasses.dataclass(frozen=True)
class GeneratedDays:
    """Raw hourly inputs for `days` consecutive days, one array per series."""

    start: datetime
    loads: dict[str, np.ndarray]  # kWh per building
    buy: np.ndarray  # EUR/kWh, tax-inclusive
    sell: np.ndarray  # EUR/kWh
    pv: np.ndarray  # kWh
    mix: tuple[GenerationMixHour, ...]  # MWh per source

    @property
    def hours(self) -> int:
        return len(self.pv)


def _day_profiles(rng: np.random.Generator, day_of_year: int, weekday: int):
    h = np.arange(24, dtype=float)
    season = math.cos(2.0 * math.pi * (day_of_year - 172) / 365.0)  # +1 midsummer, -1 midwinter

    # PV: day length and peak follow the season; cloud cover scales the day
    # and perturbs each hour.
    half_day = 5.0 + 2.5 * season
    sunrise, sunset = 13.0 - half_day, 13.0 + half_day
    bell = np.where((h > sunrise) & (h < sunset), np.sin(np.pi * (h - sunrise) / (sunset - sunrise)) ** 2, 0.0)
    clear = rng.uniform(0.25, 1.0)
    hourly_cloud = np.clip(clear + rng.normal(0.0, 0.12, 24), 0.05, 1.0)
    pv = PV_PEAK_KW * (0.55 + 0.45 * season) * bell * hourly_cloud

    # Load: an office-hours bump on weekdays, a flat lower profile at weekends.
    weekend = weekday >= 5
    bump = 0.0 if weekend else 0.65 * np.exp(-((h - rng.uniform(12.0, 14.0)) ** 2) / rng.uniform(14.0, 22.0))
    base = (0.25 if weekend else 0.35) + 0.08 * max(0.0, -season)  # winter heating
    load_shape = base + bump

    # Price: double peak with day-varying level, peak heights and positions.
    level = rng.uniform(0.07, 0.14)
    morning = rng.uniform(0.03, 0.11) * np.exp(-((h - rng.uniform(7.5, 9.5)) ** 2) / 8.0)
    evening = rng.uniform(0.06, 0.15) * np.exp(-((h - rng.uniform(19.0, 21.0)) ** 2) / 6.0)
    solar_dip = 0.03 * (0.5 + 0.5 * season) * bell
    raw = np.maximum(level + morning + evening - solar_dip + rng.normal(0.0, 0.004, 24), 0.02)
    sell_ratio = rng.uniform(0.35, 0.65)

    # Generation mix, MWh: wind and gas trade places day to day.
    wind = np.maximum(rng.uniform(500.0, 6000.0) + rng.normal(0.0, 300.0, 24), 0.0)
    gas = 1500.0 + rng.uniform(500.0, 2500.0) * np.exp(-((h - 14.0) ** 2) / 20.0)
    coal = np.full(24, rng.uniform(0.0, 1500.0))
    mix = {
        "wind": wind,
        "nuclear": np.full(24, 3500.0),
        "natural_gas": gas,
        "hydro": np.full(24, rng.uniform(300.0, 1500.0)),
        "hard_coal": coal,
        "solar_pv": 4000.0 * (0.55 + 0.45 * season) * bell,
    }
    return pv, load_shape, raw, sell_ratio, mix


def generate_days(seed: int | list[int], days: int, start: datetime = START) -> GeneratedDays:
    """Raw hourly series for `days` distinct days; the same seed gives the same arrays.

    `seed` is anything `numpy.random.default_rng` accepts, such as an int
    or a list of ints (a run seed plus a pass index).
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    rng = np.random.default_rng(seed)
    loads = {pid: [] for pid in IDS}
    buy, sell, pv, mix = [], [], [], []
    for d in range(days):
        date = start + timedelta(days=d)
        day_pv, shape, raw, ratio, day_mix = _day_profiles(rng, date.timetuple().tm_yday, date.weekday())
        pv.append(day_pv)
        buy.append((1.0 + VAT) * raw)
        sell.append(ratio * raw)
        for pid in IDS:
            noise = 1.0 + rng.normal(0.0, 0.05, 24)
            loads[pid].append(np.maximum(LOAD_SCALE[pid] * shape * noise, 0.0))
        for hh in range(24):
            ts = date + timedelta(hours=hh)
            mix.append(GenerationMixHour(ts, {src: float(day_mix[src][hh]) for src in MIX_SOURCES}))
    return GeneratedDays(
        start=start,
        loads={pid: np.round(np.concatenate(v), 4) for pid, v in loads.items()},
        buy=np.round(np.concatenate(buy), 6),
        sell=np.round(np.concatenate(sell), 6),
        pv=np.round(np.concatenate(pv), 4),
        mix=tuple(mix),
    )


def community(raw: GeneratedDays, intensity: HourlySeries, unit_efficiency: bool = False) -> CommunitySpec:
    """The fixture community driven by the generated series.

    `unit_efficiency` sets eta_ch = eta_dis = 1, which makes charging and
    discharging in the same hour cost-neutral: a tie the validator accepts
    and branch-and-bound has to resolve.
    """
    series = lambda values: HourlySeries.from_values(values, raw.start)
    buy, sell = series(raw.buy), series(raw.sell)
    participants = tuple(
        Participant(
            id=pid,
            load=series(raw.loads[pid]),
            buy_price=buy,
            sell_price=sell,
            max_import={1: CONTRACTED_POWER[pid]},
        )
        for pid in IDS
    )
    bess = dict(TABLE_BESS)
    if unit_efficiency:
        bess.update(eta_ch=1.0, eta_dis=1.0)
    return CommunitySpec(
        participants=participants,
        bess=BessSpec(**bess),
        pv=PvSpec(series(raw.pv)),
        sharing=SharingScheme(SharingMode.STATIC, static_coefficients=dict(STATIC_COEFFICIENTS)),
        grid_intensity=intensity,
        horizon_hours=raw.hours,
        vat_rate=VAT,
    )


def varied_community(seed: int, days: int, unit_efficiency: bool = False) -> CommunitySpec:
    """Generated community with its grid intensity computed from the generated mix."""
    raw = generate_days(seed, days)
    return community(raw, intensity_series(raw.mix, EmissionFactorTable()), unit_efficiency)
