from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import lecopt.cli
import lecopt.scenario
import lecopt.solver
from lecopt.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from lecopt.fixtures import write_fixture_files
from lecopt.scenario import settlement_from_json
from lecopt.solver import SolutionViolation, SolveConfig, ViolationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "validate", "--config", str(fixture_dir / "community.json"))
        assert code == EXIT_OK
        assert out.strip() == "ok"

    def test_invalid_community(self, fixture_dir, tmp_path, capsys):
        config = write_fixture_files(tmp_path, hours=48)
        cfg = json.loads(config.read_text())
        cfg["sharing"]["coefficients"]["B1"] = 0.9  # sum now > 1
        config.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "validate", "--config", str(config))
        assert code == EXIT_VALIDATION
        assert "sum" in err

    @pytest.mark.parametrize("command", ["validate", "optimize"])
    def test_nan_price_cell_is_io_error(self, tmp_path, capsys, command):
        config = write_fixture_files(tmp_path, hours=48)
        prices = tmp_path / "prices.csv"
        lines = prices.read_text().splitlines()
        stamp, _, sell = lines[5].split(",")
        lines[5] = f"{stamp},nan,{sell}"
        prices.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (EXIT_IO, "")
        assert err == f"{prices}: row 6, column 'buy': cell 'nan' is not a number\n"

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", "--config", str(tmp_path / "absent.json"))
        assert code == EXIT_IO
        assert "does not exist" in err

    def test_missing_factors_is_io_error(self, fixture_dir, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        code, _, err = run(capsys, "validate", "--config", str(fixture_dir / "community.json"), "--factors", str(absent))
        assert code == EXIT_IO
        assert err == f"input file does not exist: {absent}\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--objective", "speed"),
            ("optimize", "--sharing", "psychic"),
            ("optimize", "--window-hours", "abc"),
            *((command, "--tolerance", "1e-6") for command in ("validate", "baseline", "optimize", "export-lp")),
        ],
        ids=" ".join,
    )
    def test_usage_error_is_validation_error(self, fixture_dir, capsys, argv):
        # argparse's own exit code, 2, would read as an infeasible schedule.
        code, out, err = run(capsys, argv[0], "--config", str(fixture_dir / "community.json"), *argv[1:])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "error: " in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["optimize", "--help"])
        assert raised.value.code == 0
        assert "--window-hours" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["baseline", "optimize", "export-lp"])
    def test_invalid_community_is_validation_error(self, tmp_path, capsys, command):
        # The spec's consumer rejects it; the CLI runs no check of its own.
        config = write_fixture_files(tmp_path, hours=48)
        cfg = json.loads(config.read_text())
        cfg["sharing"]["coefficients"]["B1"] = 0.9  # sum now > 1
        config.write_text(json.dumps(cfg))
        code, out, err = run(capsys, command, "--config", str(config))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("community spec invalid:\n")
        assert "sum" in err


class TestGwp:
    def test_stdout_csv(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "gwp", "--mix", str(fixture_dir / "mix.csv"))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "timestamp,gwp_grid"
        assert len(lines) == 49

    def test_deterministic_file_output(self, fixture_dir, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run(capsys, "gwp", "--mix", str(fixture_dir / "mix.csv"), "--out", str(out_a))[0] == EXIT_OK
        assert run(capsys, "gwp", "--mix", str(fixture_dir / "mix.csv"), "--out", str(out_b))[0] == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_factor_overrides_change_result(self, fixture_dir, tmp_path, capsys):
        factors = tmp_path / "factors.csv"
        factors.write_text("source,factor\nwind,0.5\n", encoding="utf-8")
        _, base, _ = run(capsys, "gwp", "--mix", str(fixture_dir / "mix.csv"))
        _, overridden, _ = run(capsys, "gwp", "--mix", str(fixture_dir / "mix.csv"), "--factors", str(factors))
        assert base != overridden

    def test_missing_mix_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gwp", "--mix", str(tmp_path / "absent.csv"))
        assert code == EXIT_IO

    def test_uncovered_mix_is_io_error(self, tmp_path, capsys):
        # ZeroCoveredGeneration subclasses ValueError but is an input problem, not a validation failure.
        mix = tmp_path / "mix.csv"
        mix.write_text("timestamp,unobtainium\n2022-03-03 00:00:00,10\n2022-03-03 01:00:00,12\n", encoding="utf-8")
        code, out, err = run(capsys, "gwp", "--mix", str(mix))
        assert code == EXIT_IO
        assert out == ""
        assert err == "covered generation is zero at 2022-03-03 00:00:00\n"


class TestBaseline:
    def test_stdout_table(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "baseline", "--config", str(fixture_dir / "community.json"))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "building,cost_eur,ghg_t"
        assert lines[-1].startswith("LEC,")
        assert len(lines) == 6


class TestOptimize:
    def test_full_matrix_outputs(self, fixture_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, "optimize", "--config", str(fixture_dir / "community.json"),
            "--objective", "both", "--sharing", "both", "--out", str(out_dir),
        )
        assert code == EXIT_OK
        expected = {"baseline.csv"}
        for obj in ("price", "environment"):
            for share in ("static", "variable"):
                expected |= {
                    f"settlement_{obj}_{share}.json",
                    f"settlement_{obj}_{share}.csv",
                    f"trace_{obj}_{share}.csv",
                }
        assert {p.name for p in out_dir.iterdir()} == expected
        report = settlement_from_json((out_dir / "settlement_price_static.json").read_text())
        assert report.objective == "price"
        assert set(report.costs_eur) == {"B1", "B2", "B3", "B4"}
        assert out.count("scenario:") == 4

    def test_byte_identical_reruns(self, fixture_dir, tmp_path, capsys):
        args = ("optimize", "--config", str(fixture_dir / "community.json"), "--objective", "price", "--sharing", "static")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(capsys, *args, "--out", str(a))[0] == EXIT_OK
        assert run(capsys, *args, "--out", str(b))[0] == EXIT_OK
        for name in ("baseline.csv", "settlement_price_static.json", "settlement_price_static.csv", "trace_price_static.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_infeasible_exit_code(self, tmp_path, capsys):
        config = write_fixture_files(tmp_path, hours=48)
        cfg = json.loads(config.read_text())
        cfg["bess"]["p_ch_max"] = 0.001  # soc_final unreachable after any discharge
        cfg["bess"]["soc_initial"] = 31.65
        cfg["bess"]["soc_final"] = 189.9
        config.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "optimize", "--config", str(config))
        assert code == EXIT_INFEASIBLE
        assert "no feasible schedule" in err

    def test_zero_window_is_validation_error(self, fixture_dir, capsys):
        code, _, err = run(capsys, "optimize", "--config", str(fixture_dir / "community.json"), "--window-hours", "0")
        assert code == EXIT_VALIDATION
        assert err == "window_hours must be at least 1, got 0\n"

    def test_rejected_solution_is_internal_error(self, fixture_dir, monkeypatch, capsys):
        def reject(problem, x):
            return ViolationReport((SolutionViolation("row", "balance_0_B1", "violated by 1"),))

        monkeypatch.setattr(lecopt.scenario, "verify_solution", reject)
        code, _, err = run(capsys, "optimize", "--config", str(fixture_dir / "community.json"))
        assert code == EXIT_INTERNAL
        assert EXIT_INTERNAL not in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE, EXIT_IO)
        assert err == (
            "internal error: window 0: solver returned an invalid solution: "
            "1 violation(s), first row balance_0_B1: violated by 1\n"
        )


    def test_oversized_window_is_validation_error(self, fixture_dir, monkeypatch, capsys):
        # A 24 h window needs 489,808 bytes of tableau, the 48 h window 1,947,280.
        monkeypatch.setattr(lecopt.solver, "MAX_TABLEAU_BYTES", 1_000_000)
        config = str(fixture_dir / "community.json")
        code, _, err = run(capsys, "optimize", "--config", config, "--window-hours", "48")
        assert code == EXIT_VALIDATION
        assert err == (
            "problem too large for the dense solver: 241 rows x 528 columns need 1,947,280 bytes "
            "of tableau (limit 1,000,000); use shorter windows\n"
        )
        assert run(capsys, "optimize", "--config", config)[0] == EXIT_OK

    def test_hit_limit_is_solver_error(self, fixture_dir, monkeypatch, capsys):
        monkeypatch.setattr(lecopt.cli, "SolveConfig", lambda: SolveConfig(node_limit=0))
        code, _, err = run(capsys, "optimize", "--config", str(fixture_dir / "community.json"))
        assert code == EXIT_INTERNAL
        assert err == "internal error: window 0: node limit 0 reached before proven optimality (no incumbent)\n"


class TestExportLp:
    def test_file_output(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "problem.lp"
        code, _, _ = run(
            capsys, "export-lp", "--config", str(fixture_dir / "community.json"),
            "--objective", "environment", "--out", str(out),
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("\\ scenario: objective=environment")
        assert text.rstrip().endswith("End")

    def test_stdout_matches_file(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "problem.lp"
        run(capsys, "export-lp", "--config", str(fixture_dir / "community.json"), "--out", str(out))
        code, stdout, _ = run(capsys, "export-lp", "--config", str(fixture_dir / "community.json"))
        assert code == EXIT_OK
        assert stdout == out.read_text()

    @pytest.mark.parametrize(
        "objective, sharing, digest",
        [
            ("price", "static", "99601c0f1c41ca28c541d007ef990f9790e886c4d96c28eae68e51d7234498aa"),
            ("price", "variable", "c15441d3c3bfce1b226e90465487a4ca30b486b39da91897304da0104b6cc175"),
            ("environment", "static", "79ca101f49a32e5b0bd20ed46b200d984ed50b8d84442784ee35c9af31670c2b"),
            ("environment", "variable", "5afc6f01aac24c66c0a962605f99d65b2e5ce44eba2561cbc53697c13a6d6557"),
        ],
    )
    def test_pinned_bytes(self, fixture_dir, capsys, objective, sharing, digest):
        # The export carries the delta binaries and their cap and exclusivity
        # rows; external solvers read it, so its bytes must not drift.
        code, stdout, _ = run(
            capsys, "export-lp", "--config", str(fixture_dir / "community.json"),
            "--objective", objective, "--sharing", sharing,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == digest
