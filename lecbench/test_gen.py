"""Tests of the seeded varied-community generator.

Run from the root of a checkout: `python3 -m pytest lecbench`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import gen  # noqa: E402
from lecopt.domain import validate_community  # noqa: E402

SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("unit_efficiency", [False, True])
def test_every_seed_validates(seed, unit_efficiency):
    spec = gen.varied_community(seed, 14, unit_efficiency=unit_efficiency)
    report = validate_community(spec)
    assert report.ok, str(report)
    assert spec.horizon_hours == 14 * 24


def test_year_long_horizon_validates():
    """PV stays non-negative and bounded across every season, unlike the tiled fixture."""
    spec = gen.varied_community(5, 365)
    assert validate_community(spec).ok
    pv = spec.pv.generation.as_array()
    assert pv.min() >= 0.0 and pv.max() <= gen.PV_PEAK_KW


def test_same_seed_same_output():
    a, b = gen.generate_days(42, 7), gen.generate_days(42, 7)
    assert np.array_equal(a.buy, b.buy) and np.array_equal(a.sell, b.sell) and np.array_equal(a.pv, b.pv)
    assert all(np.array_equal(a.loads[p], b.loads[p]) for p in gen.IDS)
    assert a.mix == b.mix
    assert gen.varied_community(42, 7) == gen.varied_community(42, 7)


def test_different_seeds_differ():
    assert not np.array_equal(gen.generate_days(1, 3).buy, gen.generate_days(2, 3).buy)


@pytest.mark.parametrize("seed", SEEDS)
def test_no_two_days_identical(seed):
    raw = gen.generate_days(seed, 30)
    days = set()
    for d in range(30):
        h = slice(24 * d, 24 * (d + 1))
        key = (raw.buy[h].tobytes(), raw.pv[h].tobytes(), raw.loads["B1"][h].tobytes(),
               tuple(tuple(sorted(m.energy.items())) for m in raw.mix[h]))
        days.add(key)
        assert len(set(key[:3])) == 3  # the series themselves differ from each other
    assert len(days) == 30
    for series in (raw.buy, raw.pv, raw.loads["B4"]):
        per_day = {series[24 * d: 24 * (d + 1)].tobytes() for d in range(30)}
        assert len(per_day) == 30


def test_unit_efficiency_only_changes_the_battery():
    plain, ties = gen.varied_community(3, 2), gen.varied_community(3, 2, unit_efficiency=True)
    assert (ties.bess.eta_ch, ties.bess.eta_dis) == (1.0, 1.0)
    assert plain.bess.eta_ch < 1.0
    assert plain.participants == ties.participants and plain.pv == ties.pv
