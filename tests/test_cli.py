"""Command-line front end: config handling, outputs, exit codes."""

import subprocess
import sys

import pytest

from muxsps import cli
from muxsps.config import PRESETS, RunSpec, dump_config, parse_config
from muxsps.simulate import SimulationEstimate

MINIMAL = """\
[source]
kind = poissonian
mean = 0.45

[detector]
efficiency = 0.95

[strategy]
accepted = 1

[multiplexer]
kind = symmetric-spatial
units = 16
router_transmission = 0.98
"""


def run_cli(args, capsys):
    status = cli.main(args)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_config(tmp_path, text=MINIMAL):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestConfigDocument:
    def test_round_trip_identity(self):
        spec = parse_config(MINIMAL, command="evaluate", seed=3)
        again = parse_config(dump_config(spec), command="evaluate", seed=3)
        assert again == spec

    def test_presets_round_trip(self):
        for name, text in PRESETS.items():
            spec = parse_config(text, command="table")
            assert parse_config(dump_config(spec), command="table") == spec, name

    def test_unknown_key_rejected(self):
        bad = MINIMAL.replace("efficiency = 0.95", "efficiency = 0.95\ndark_rate = 1")
        with pytest.raises(ValueError, match="detector.dark_rate"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="cooling"):
            parse_config(MINIMAL + "\n[cooling]\nx = 1\n")

    def test_error_names_offending_field(self):
        bad = MINIMAL.replace("efficiency = 0.95", "efficiency = 1.7")
        with pytest.raises(ValueError, match="detector.efficiency"):
            parse_config(bad)

    def test_candidate_syntaxes(self):
        spec = parse_config(MINIMAL + "\n[optimizer]\nn_candidates = pow2:16\n")
        assert spec.n_candidates == (1, 2, 4, 8, 16)
        spec = parse_config(MINIMAL + "\n[optimizer]\nn_candidates = range:3:6\n")
        assert spec.n_candidates == (3, 4, 5, 6)
        spec = parse_config(MINIMAL + "\n[optimizer]\nn_candidates = 1,2,40\n")
        assert spec.n_candidates == (1, 2, 40)

    def test_grid_syntax_inclusive(self):
        spec = parse_config(MINIMAL + "\n[sweep]\nvd_values = 0.3:0.5:0.1\n")
        assert spec.sweep.vd_values == (0.3, 0.4, 0.5)


class TestEvaluate:
    def test_vacuum_source(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL.replace("mean = 0.45", "mean = 0.0"))
        status, out, _ = run_cli(["evaluate", "--config", path], capsys)
        assert status == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines[0] == "i,P_i"
        assert lines[1] == "0,1.0"

    def test_header_and_provenance(self, tmp_path, capsys):
        path = write_config(tmp_path)
        status, out, _ = run_cli(["evaluate", "--config", path], capsys)
        assert status == 0
        assert out.startswith("# tool: muxsps")
        assert "# config: source.kind=poissonian" in out

    def test_emitted_numbers_parse_as_floats(self, tmp_path, capsys):
        path = write_config(tmp_path)
        _, out, _ = run_cli(["evaluate", "--config", path], capsys)
        for line in out.splitlines():
            if line.startswith("#") or line.startswith("i,"):
                continue
            i_str, p_str = line.split(",")
            int(i_str)
            assert 0.0 <= float(p_str) <= 1.0


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL.replace("0.95", "nonsense"))
        status, _, err = run_cli(["evaluate", "--config", path], capsys)
        assert status == 2
        assert "detector.efficiency" in err

    def test_missing_config_is_2(self, capsys):
        status, _, err = run_cli(["evaluate"], capsys)
        assert status == 2
        assert "--config" in err or "--preset" in err

    def test_unknown_preset_is_2(self, capsys):
        status, _, err = run_cli(["evaluate", "--preset", "nope"], capsys)
        assert status == 2
        assert "nope" in err

    def test_unwritable_output_is_3(self, tmp_path, capsys):
        path = write_config(tmp_path)
        status, _, err = run_cli(
            ["evaluate", "--config", path, "--out", str(tmp_path / "missing-dir" / "x.csv")], capsys
        )
        assert status == 3
        assert "i/o error" in err

    def test_consistency_failure_is_4(self, tmp_path, capsys, monkeypatch):
        # a skewed sampler must trip the cross-check
        def skewed(cfg, samples, seed):
            return SimulationEstimate(
                counts=(samples, 0, 0, 0),
                samples=samples,
                p_hat=(1.0, 0.0, 0.0, 0.0),
                std_err=(1e-6, 1e-6, 1e-6, 1e-6),
            )

        monkeypatch.setattr(cli, "simulate", skewed)
        path = write_config(tmp_path)
        status, _, err = run_cli(["evaluate", "--config", path, "--mc-check", "1000"], capsys)
        assert status == 4
        assert "consistency" in err

    def test_mc_check_passes_honestly(self, tmp_path, capsys):
        path = write_config(tmp_path)
        status, out, _ = run_cli(
            ["evaluate", "--config", path, "--mc-check", "200000", "--seed", "5"], capsys
        )
        assert status == 0
        assert "# mc_check: samples=200000" in out


class TestDumpConfig:
    def test_prints_canonical_document(self, tmp_path, capsys):
        path = write_config(tmp_path)
        status, out, _ = run_cli(["evaluate", "--config", path, "--dump-config"], capsys)
        assert status == 0
        spec = parse_config(out, command="evaluate")
        assert spec.detector.efficiency == 0.95

    def test_preset_dump_reparses(self, capsys):
        status, out, _ = run_cli(["table", "--preset", "btm", "--dump-config"], capsys)
        assert status == 0
        spec = parse_config(out, command="table")
        assert spec.mux.kind.value == "binary-bulk-time"


class TestOptimizeCommand:
    def test_loop_latest_preset_reference_point(self, tmp_path, capsys):
        out_path = tmp_path / "opt.csv"
        status, _, _ = run_cli(
            ["optimize", "--preset", "loop-latest", "--out", str(out_path)], capsys
        )
        assert status == 0
        text = out_path.read_text()
        meta = dict(
            line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# ")
        )
        assert float(meta["p1_max"]) == pytest.approx(0.852, abs=1e-3)
        assert float(meta["lambda_opt"]) == pytest.approx(0.706, abs=1e-2)
        assert meta["n_opt"] == "40"

    def test_curve_rows_marked(self, tmp_path, capsys):
        config = MINIMAL + "\n[optimizer]\nn_candidates = 1,2,4\n"
        path = write_config(tmp_path, config)
        status, out, _ = run_cli(["optimize", "--config", path], capsys)
        assert status == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "N,"))]
        assert len(rows) == 3
        assert sum(int(row[-1]) for row in rows) == 1


class TestStrategyScanCommand:
    def test_scan_lists_all_cutoffs(self, tmp_path, capsys):
        config = MINIMAL + "\n[optimizer]\nn_candidates = 1,2,4,8\nj_max = 3\n"
        path = write_config(tmp_path, config)
        status, out, _ = run_cli(["strategy-scan", "--config", path], capsys)
        assert status == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "J,"))]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert "# j_opt: 1" in out


class TestTableCommand:
    def test_router_grid_byte_identical_reruns(self, tmp_path, capsys):
        config = MINIMAL + "\n[optimizer]\nn_candidates = 1,2,4\n\n[sweep]\nvd_values = 0.9\nvr_values = 0.9,0.95\n"
        path = write_config(tmp_path, config)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["table", "--config", path, "--out", str(first), "--workers", "1"], capsys)[0] == 0
        assert run_cli(["table", "--config", path, "--out", str(second), "--workers", "2"], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_scenario_rows(self, tmp_path, capsys):
        config = """\
[source]
kind = poissonian
mean = 0.3

[detector]
efficiency = 0.9

[strategy]
accepted = 1

[multiplexer]
kind = time-loop-latest
units = 10
generic_transmission = 0.88
cycle_transmission = 0.988

[sweep]
vd_values = 0.6,0.9
n_values = 10
strategies = threshold,spd
"""
        path = write_config(tmp_path, config)
        status, out, _ = run_cli(["table", "--config", path], capsys)
        assert status == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "V_D,"))]
        assert len(rows) == 4
        assert {row[2] for row in rows} == {"threshold", "spd"}

    def test_curve_family(self, tmp_path, capsys):
        config = MINIMAL + "\n[sweep]\nn_values = 1,2\nlambda_values = 0.2,0.4\n"
        path = write_config(tmp_path, config)
        status, out, _ = run_cli(["table", "--config", path], capsys)
        assert status == 0
        rows = [line for line in out.splitlines() if not line.startswith(("#", "N,"))]
        assert len(rows) == 4

    def test_sweepless_table_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        status, _, err = run_cli(["table", "--config", path], capsys)
        assert status == 2
        assert "sweep" in err


class TestMapCommand:
    def test_tiny_map(self, tmp_path, capsys):
        config = MINIMAL + "\n[optimizer]\nj_max = 2\n\n[sweep]\nvd_values = 0.9\nvr_values = 0.95,0.98\n"
        path = write_config(tmp_path, config)
        status, out, _ = run_cli(["map", "--config", path, "--workers", "1"], capsys)
        assert status == 0
        header = next(line for line in out.splitlines() if line.startswith("V_D,"))
        assert "delta_P" in header and "delta_m" in header and "J_opt" in header
        rows = [line for line in out.splitlines() if not line.startswith(("#", "V_D,"))]
        assert len(rows) == 2

    def test_grid_step_regrids(self, tmp_path, capsys):
        config = MINIMAL + "\n[optimizer]\nj_max = 1\n\n[sweep]\nvd_values = 0.9,0.98\nvr_values = 0.9,0.98\n"
        path = write_config(tmp_path, config)
        status, out, _ = run_cli(
            ["map", "--config", path, "--workers", "1", "--grid-step", "0.08"], capsys
        )
        assert status == 0
        rows = [line for line in out.splitlines() if not line.startswith(("#", "V_D,"))]
        assert len(rows) == 4  # 2x2 regridded axes

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_non_positive_grid_step_is_config_error(self, step, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + "\n[sweep]\nvd_values = 0.9,0.98\nvr_values = 0.9,0.98\n")
        for extra in ([], ["--dump-config"]):
            status, out, err = run_cli(["map", "--config", path, "--grid-step", step, *extra], capsys)
            assert status == 2
            assert "--grid-step" in err
            assert out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "muxsps", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "muxsps" in proc.stdout
