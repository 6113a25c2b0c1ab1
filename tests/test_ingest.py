from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from lecopt.domain import SharingMode, validate_community
from lecopt.fixtures import CONTRACTED_POWER, FIXTURE_VAT, STATIC_COEFFICIENTS, synthetic_community
from lecopt.ingest import (
    GapInSeries,
    IngestError,
    MissingColumn,
    NonNumericCell,
    RunConfig,
    load_community,
    load_factor_overrides,
    load_mix_csv,
    load_series_csv,
)


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


GOOD_CSV = (
    "timestamp,power\n"
    "2022-03-03T00:00:00,1.5\n"
    "2022-03-03T01:00:00,2.5\n"
    "2022-03-03T02:00:00,0\n"
)


class TestLoadSeries:
    def test_happy_path(self, tmp_path):
        series = load_series_csv(write(tmp_path / "a.csv", GOOD_CSV), "power")
        assert tuple(series.values) == (1.5, 2.5, 0.0)
        assert series.timestamps[0].hour == 0

    def test_missing_column(self, tmp_path):
        with pytest.raises(MissingColumn, match="missing column 'nope'"):
            load_series_csv(write(tmp_path / "a.csv", GOOD_CSV), "nope")

    def test_gap_rejected(self, tmp_path):
        text = GOOD_CSV.replace("T02:00:00", "T03:00:00")
        with pytest.raises(GapInSeries, match="gap or disorder"):
            load_series_csv(write(tmp_path / "a.csv", text), "power")

    def test_duplicate_timestamp_rejected(self, tmp_path):
        text = GOOD_CSV.replace("T01:00:00", "T00:00:00")
        with pytest.raises(GapInSeries, match="duplicated"):
            load_series_csv(write(tmp_path / "a.csv", text), "power")

    def test_comma_decimal_rejected_not_guessed(self, tmp_path):
        text = GOOD_CSV.replace("1.5", '"1,5"')
        with pytest.raises(NonNumericCell, match="not a number"):
            load_series_csv(write(tmp_path / "a.csv", text), "power")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = write(tmp_path / "a.csv", GOOD_CSV.replace("2.5", cell))
        message = f"{path}: row 3, column 'power': cell '{cell}' is not a number"
        with pytest.raises(NonNumericCell, match=re.escape(message)):
            load_series_csv(path, "power")

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(GapInSeries):
            load_series_csv(write(tmp_path / "a.csv", "timestamp,power\n"), "power")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            load_series_csv(tmp_path / "absent.csv", "power")

    def test_bad_timestamp_rejected(self, tmp_path):
        text = GOOD_CSV.replace("2022-03-03T00:00:00", "yesterday")
        with pytest.raises(GapInSeries, match="unparseable timestamp"):
            load_series_csv(write(tmp_path / "a.csv", text), "power")


class TestLoadMix:
    def test_wide_format(self, tmp_path):
        text = (
            "timestamp,wind,natural gas\n"
            "2022-03-03T00:00:00,100,50\n"
            "2022-03-03T01:00:00,80,70\n"
        )
        hours = load_mix_csv(write(tmp_path / "mix.csv", text))
        assert len(hours) == 2
        assert hours[0].energy == {"wind": 100.0, "natural_gas": 50.0}

    def test_no_sources_rejected(self, tmp_path):
        with pytest.raises(MissingColumn):
            load_mix_csv(write(tmp_path / "mix.csv", "timestamp\n2022-03-03T00:00:00\n"))


class TestFactorOverrides:
    def test_load(self, tmp_path):
        text = "source,factor\nwind,0.03\nTidal,0.017\n"
        assert load_factor_overrides(write(tmp_path / "f.csv", text)) == {"wind": 0.03, "Tidal": 0.017}

    def test_missing_columns(self, tmp_path):
        with pytest.raises(MissingColumn):
            load_factor_overrides(write(tmp_path / "f.csv", "name,value\nwind,0.03\n"))


class TestLoadCommunity:
    def test_round_trips_the_fixture(self, fixture_dir):
        spec = load_community(fixture_dir / "community.json", None)
        assert validate_community(spec).ok
        assert spec.participant_ids() == ("B1", "B2", "B3", "B4")
        assert spec.horizon_hours == 48
        assert spec.sharing.mode is SharingMode.STATIC
        assert dict(spec.sharing.static_coefficients) == STATIC_COEFFICIENTS
        assert spec.participants[0].max_import[1] == CONTRACTED_POWER["B1"]
        reference = synthetic_community(48)
        for p, q in zip(spec.participants, reference.participants):
            assert p.load.values == q.load.values
            assert p.buy_price.values == pytest.approx(q.buy_price.values)
            assert p.sell_price.values == q.sell_price.values

    def test_vat_applied_to_buy_prices_only(self, fixture_dir):
        spec = load_community(fixture_dir / "community.json", None)
        raw = load_series_csv(fixture_dir / "prices.csv", "buy")
        sell = load_series_csv(fixture_dir / "prices.csv", "sell")
        assert spec.participants[0].buy_price.values == pytest.approx(
            tuple(v * (1 + FIXTURE_VAT) for v in raw.values)
        )
        assert spec.participants[0].sell_price.values == sell.values

    def test_vat_override(self, fixture_dir):
        run = RunConfig(vat_rate=0.0)
        spec = load_community(fixture_dir / "community.json", run)
        raw = load_series_csv(fixture_dir / "prices.csv", "buy")
        assert spec.participants[0].buy_price.values == raw.values

    def test_tax_inclusive_prices_skip_scaling(self, fixture_dir, tmp_path):
        cfg = json.loads((fixture_dir / "community.json").read_text())
        cfg["prices_are_tax_inclusive"] = True
        for pc in cfg["participants"]:
            for key in ("load", "buy_price", "sell_price"):
                pc[key]["file"] = str(fixture_dir / pc[key]["file"])
        cfg["pv"]["generation"]["file"] = str(fixture_dir / "pv.csv")
        cfg["grid_intensity"]["file"] = str(fixture_dir / "intensity.csv")
        path = write(tmp_path / "community.json", json.dumps(cfg))
        spec = load_community(path, None)
        raw = load_series_csv(fixture_dir / "prices.csv", "buy")
        assert spec.participants[0].buy_price.values == raw.values

    def test_mix_file_intensity(self, fixture_dir, tmp_path):
        cfg = json.loads((fixture_dir / "community.json").read_text())
        for pc in cfg["participants"]:
            for key in ("load", "buy_price", "sell_price"):
                pc[key]["file"] = str(fixture_dir / pc[key]["file"])
        cfg["pv"]["generation"]["file"] = str(fixture_dir / "pv.csv")
        cfg["grid_intensity"] = {"mix_file": str(fixture_dir / "mix.csv")}
        path = write(tmp_path / "community.json", json.dumps(cfg))
        spec = load_community(path, None)
        assert len(spec.grid_intensity) == 48
        assert all(v > 0 for v in spec.grid_intensity.values)

    def test_kcal_override(self, fixture_dir):
        run = RunConfig(kcal_per_hour=0.5)
        spec = load_community(fixture_dir / "community.json", run)
        assert spec.bess.calendar_cost_per_hour == 0.5

    def test_missing_participant_id(self, fixture_dir, tmp_path):
        cfg = json.loads((fixture_dir / "community.json").read_text())
        del cfg["participants"][0]["id"]
        path = write(tmp_path / "community.json", json.dumps(cfg))
        with pytest.raises(IngestError, match="without id"):
            load_community(path, None)

    def test_missing_bess_key(self, fixture_dir, tmp_path):
        cfg = json.loads((fixture_dir / "community.json").read_text())
        del cfg["bess"]["eta_ch"]
        for pc in cfg["participants"]:
            for key in ("load", "buy_price", "sell_price"):
                pc[key]["file"] = str(fixture_dir / pc[key]["file"])
        path = write(tmp_path / "community.json", json.dumps(cfg))
        with pytest.raises(IngestError, match="bess missing"):
            load_community(path, None)

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path / "community.json", "{not json")
        with pytest.raises(IngestError, match="invalid JSON"):
            load_community(path, None)

    def test_unknown_sharing_mode(self, fixture_dir, tmp_path):
        cfg = json.loads((fixture_dir / "community.json").read_text())
        for pc in cfg["participants"]:
            for key in ("load", "buy_price", "sell_price"):
                pc[key]["file"] = str(fixture_dir / pc[key]["file"])
        cfg["pv"]["generation"]["file"] = str(fixture_dir / "pv.csv")
        cfg["sharing"] = {"mode": "seance"}
        path = write(tmp_path / "community.json", json.dumps(cfg))
        with pytest.raises(IngestError, match="unknown sharing mode"):
            load_community(path, None)
