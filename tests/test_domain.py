from __future__ import annotations

import dataclasses
import math
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from lecopt.domain import (
    BessSpec,
    HourlySeries,
    Participant,
    SharingMode,
    SharingScheme,
    slice_community,
    validate_community,
)

from util import flat_bess, tiny_spec


T0 = datetime(2022, 3, 3)
H = timedelta(hours=1)


class TestHourlySeries:
    def test_from_values_assigns_hourly_timestamps(self):
        s = HourlySeries.from_values([1.0, 2.0, 3.0], T0)
        assert s.timestamps == (T0, T0 + H, T0 + 2 * H)
        assert len(s) == 3

    def test_from_values_shares_timestamps_per_horizon(self):
        a = HourlySeries.from_values([1.0, 2.0], T0)
        b = HourlySeries.from_values([5.0, 6.0], T0)
        assert a.timestamps is b.timestamps
        assert HourlySeries.from_values([1.0, 2.0, 3.0], T0).timestamps[:2] == a.timestamps

    def test_from_values_keeps_the_time_zone_of_the_start(self):
        utc = datetime(2022, 3, 3, 12, tzinfo=timezone.utc)
        plus_one = datetime(2022, 3, 3, 13, tzinfo=timezone(H))
        assert utc == plus_one
        a = HourlySeries.from_values([1.0], utc)
        b = HourlySeries.from_values([1.0], plus_one)
        assert a.timestamps[0].isoformat() == "2022-03-03T12:00:00+00:00"
        assert b.timestamps[0].isoformat() == "2022-03-03T13:00:00+01:00"

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="non-hourly"):
            HourlySeries((T0, T0 + 2 * H), (1.0, 2.0))

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-hourly"):
            HourlySeries((T0, T0), (1.0, 2.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            HourlySeries((T0,), (1.0, 2.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            HourlySeries((), ())

    def test_window(self):
        s = HourlySeries.from_values(range(10), T0)
        w = s.window(3, 4)
        assert tuple(w.values) == (3.0, 4.0, 5.0, 6.0)
        assert w.timestamps[0] == T0 + 3 * H

    def test_window_out_of_range(self):
        s = HourlySeries.from_values(range(5), T0)
        with pytest.raises(IndexError):
            s.window(3, 4)

    def test_aligned_with(self):
        a = HourlySeries.from_values([1, 2], T0)
        b = HourlySeries.from_values([5, 6], T0)
        c = HourlySeries.from_values([5, 6], T0 + H)
        assert a.aligned_with(b)
        assert not a.aligned_with(c)


class TestParticipant:
    def _participant(self, **kw):
        series = HourlySeries.from_values([1.0, 1.0], T0)
        defaults = dict(
            id="A", load=series, buy_price=series, sell_price=series,
            max_import={1: 10.0, 2: 20.0},
        )
        defaults.update(kw)
        return Participant(**defaults)

    def test_default_period_is_one(self):
        p = self._participant()
        assert p.period(0) == 1
        assert p.import_limit(1) == 10.0

    def test_tariff_period_map(self):
        p = self._participant(tariff_period_map=(1, 2))
        assert p.import_limit(0) == 10.0
        assert p.import_limit(1) == 20.0

    def test_export_limit_falls_back_to_import(self):
        p = self._participant(max_export={1: 4.0})
        assert p.export_limit(0) == 4.0
        q = self._participant()
        assert q.export_limit(0) == 10.0


class TestValidation:
    def test_good_spec_is_ok(self):
        report = validate_community(tiny_spec())
        assert report.ok
        assert str(report) == "ok"

    def test_coefficients_must_sum_to_one(self):
        spec = tiny_spec(betas=(0.5, 0.6))
        report = validate_community(spec)
        assert not report.ok
        assert any("sum" in v.message for v in report.violations)

    def test_coefficient_outside_unit_interval(self):
        report = validate_community(tiny_spec(betas=(1.4, -0.4)))
        assert any("outside [0, 1]" in v.message for v in report.violations)

    def test_missing_coefficient(self):
        spec = tiny_spec()
        spec = dataclasses.replace(
            spec, sharing=SharingScheme(SharingMode.STATIC, static_coefficients={"A": 1.0})
        )
        report = validate_community(spec)
        assert any("missing coefficients" in v.message for v in report.violations)

    def test_soc_initial_above_max(self):
        spec = tiny_spec(bess=flat_bess(soc_initial=120.0))
        report = validate_community(spec)
        assert any(v.path == "bess.soc_initial" for v in report.violations)

    def test_soc_final_below_min(self):
        spec = tiny_spec(bess=flat_bess(soc_final=-1.0))
        report = validate_community(spec)
        assert any(v.path == "bess.soc_final" for v in report.violations)

    def test_negative_load(self):
        report = validate_community(tiny_spec(loads=((-1.0, 2.0), (2.0, 2.0))))
        assert any("negative load" in v.message for v in report.violations)

    def test_buy_below_sell_rejected_unless_allowed(self):
        spec = tiny_spec(sell=(0.5, 0.5))
        assert any("buy price below sell" in v.message for v in validate_community(spec).violations)
        assert validate_community(dataclasses.replace(spec, allow_negative_prices=True)).ok

    def test_series_length_mismatch(self):
        spec = tiny_spec()
        bad_pv = dataclasses.replace(spec.pv, generation=HourlySeries.from_values([1.0], T0))
        report = validate_community(dataclasses.replace(spec, pv=bad_pv))
        assert any(v.path == "pv.generation" for v in report.violations)

    @pytest.mark.parametrize(
        "path, spec",
        [
            ("bess.soc_max", tiny_spec(bess=flat_bess(soc_max=math.nan))),
            ("bess.soc_initial", tiny_spec(bess=flat_bess(soc_initial=math.inf))),
            ("bess.calendar_cost_per_hour", tiny_spec(bess=flat_bess(calendar_cost_per_hour=math.nan))),
            ("bess.throughput_cost_per_kwh", tiny_spec(bess=flat_bess(throughput_cost_per_kwh=math.nan))),
            ("bess.emission_factor_discharge", tiny_spec(bess=flat_bess(emission_factor_discharge=math.inf))),
            ("pv.emission_factor", dataclasses.replace(tiny_spec(), pv=dataclasses.replace(tiny_spec().pv, emission_factor=math.nan))),
            ("vat_rate", tiny_spec(vat_rate=math.nan)),
            ("participants[A].load", tiny_spec(loads=((4.0, math.nan), (2.0, 2.0)))),
            ("participants[B].buy_price", tiny_spec(buy=(0.3, math.inf))),
            ("pv.generation", tiny_spec(pv=(math.nan, 0.0))),
            ("grid_intensity", tiny_spec(intensity=(0.25, -math.inf))),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_non_finite_value_rejected(self, path, spec):
        # A comparison with NaN is false, so only an explicit check rejects it.
        assert any(v.path == path and "finite" in v.message for v in validate_community(spec).violations)

    def test_negative_throughput_cost_rejected(self):
        report = validate_community(tiny_spec(bess=flat_bess(throughput_cost_per_kwh=-0.01)))
        assert [str(v) for v in report.violations] == ["bess.throughput_cost_per_kwh: must be >= 0, got -0.01"]

    def test_multiple_violations_collected(self):
        spec = tiny_spec(
            betas=(0.5, 0.6),
            loads=((-1.0, 2.0), (2.0, 2.0)),
            bess=flat_bess(soc_initial=120.0, eta_ch=1.5),
        )
        report = validate_community(spec)
        assert len(report.violations) >= 3

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_any_unit_split_sums_to_one(self, beta):
        report = validate_community(tiny_spec(betas=(beta, 1.0 - beta)))
        assert report.ok

    @given(st.floats(min_value=1e-6, max_value=0.5))
    def test_any_nonunit_sum_is_rejected(self, eps):
        report = validate_community(tiny_spec(betas=(0.5, 0.5 + eps)))
        assert not report.ok


class TestSharingScheme:
    def test_static_coefficient_lookup(self):
        scheme = SharingScheme(SharingMode.STATIC, static_coefficients={"A": 0.7, "B": 0.3})
        assert scheme.coefficient("A", 5) == 0.7
        assert not scheme.optimized

    def test_optimized_scheme_has_no_fixed_coefficient(self):
        scheme = SharingScheme(SharingMode.HOURLY_VARIABLE)
        assert scheme.optimized
        with pytest.raises(ValueError):
            scheme.coefficient("A", 0)

    def test_variable_series_lookup(self):
        series = {"A": HourlySeries.from_values([0.6, 0.4], T0)}
        scheme = SharingScheme(SharingMode.HOURLY_VARIABLE, variable_coefficients=series)
        assert not scheme.optimized
        assert scheme.coefficient("A", 1) == 0.4


class TestSliceCommunity:
    def test_slice_preserves_structure(self):
        spec = tiny_spec(
            loads=((4.0, 6.0, 1.0, 2.0), (2.0, 2.0, 2.0, 2.0)),
            buy=(0.3, 0.2, 0.1, 0.4),
            sell=(0.1, 0.05, 0.05, 0.1),
            pv=(5.0, 0.0, 1.0, 2.0),
            intensity=(0.25, 0.4, 0.3, 0.2),
        )
        window = slice_community(spec, 2, 2)
        assert window.horizon_hours == 2
        assert tuple(window.participants[0].load.values) == (1.0, 2.0)
        assert tuple(window.grid_intensity.values) == (0.3, 0.2)
        assert validate_community(window).ok

    def test_slice_keeps_battery_endpoints(self):
        spec = tiny_spec(
            loads=((4.0, 6.0, 1.0, 2.0), (2.0, 2.0, 2.0, 2.0)),
            buy=(0.3, 0.2, 0.1, 0.4),
            sell=(0.1, 0.05, 0.05, 0.1),
            pv=(5.0, 0.0, 1.0, 2.0),
            intensity=(0.25, 0.4, 0.3, 0.2),
        )
        window = slice_community(spec, 0, 2)
        assert window.bess == spec.bess
