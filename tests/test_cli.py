"""Command-line front end: config handling, outputs, exit codes."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from muxsps import cli, engine, optimize
from muxsps.config import PRESETS, RunSpec, dump_config, parse_config
from muxsps.optimize import LAMBDA_TOL, comparison_map, optimize_units
from muxsps.simulate import SimulationEstimate
from muxsps.statistics import PairKind

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


TIME_LOOP = MINIMAL.replace("kind = symmetric-spatial", "kind = time-loop-latest").replace(
    "router_transmission", "cycle_transmission"
)
# no preset covers the time chain
TIME_CHAIN = TIME_LOOP.replace("time-loop-latest", "time-chain") + "generic_transmission = 0.9\n\n[sweep]\nn_values = 1,3\n"


def _edit(old, new):
    return MINIMAL.replace(old, new)


def _optimizer(lines):
    return MINIMAL + "\n[optimizer]\n" + lines + "\n"


def _sweep(lines):
    return MINIMAL + "\n[sweep]\n" + lines + "\n"


_ONE_OF_PAIR_KINDS = "must be one of ['poissonian', 'thermal']"
_ONE_OF_MUX_KINDS = "must be one of ['symmetric-spatial', 'time-chain', 'time-loop-latest', 'binary-bulk-time']"

# one invalid document per (key, kind of fault): command, document, full error message
INVALID_DOCUMENTS = {
    "source-kind-missing": ("evaluate", _edit("kind = poissonian\n", ""), "source.kind: missing required key"),
    "source-kind-unknown": ("evaluate", _edit("kind = poissonian", "kind = Laser"), f"source.kind: {_ONE_OF_PAIR_KINDS}, got 'laser'"),
    "mean-missing": ("evaluate", _edit("mean = 0.45\n", ""), "source.mean: missing required key"),
    "mean-text": ("evaluate", _edit("mean = 0.45", "mean = abc"), "source.mean: not a number: 'abc'"),
    "mean-percent": ("evaluate", _edit("mean = 0.45", "mean = 5%"), "source.mean: not a number: '5%'"),
    "mean-infinite": ("evaluate", _edit("mean = 0.45", "mean = inf"), "source.mean: must be finite, got 'inf'"),
    "mean-negative": ("evaluate", _edit("mean = 0.45", "mean = -1"), "source.mean: must be a finite non-negative real, got -1.0"),
    "mean-past-series-cap": (
        "evaluate", _edit("mean = 0.45", "mean = 1e6"), "source.mean: must keep its series within 4096 pairs, got 1000000.0"
    ),
    "mean-twice": (
        "evaluate",
        _edit("mean = 0.45", "mean = 0.45\nmean = 0.5"),
        "config: cannot parse document: While reading from '<string>' [line  4]: option 'mean' in section 'source' already exists",
    ),
    "efficiency-missing": ("evaluate", _edit("efficiency = 0.95\n", ""), "detector.efficiency: missing required key"),
    "efficiency-above-one": ("evaluate", _edit("efficiency = 0.95", "efficiency = 1.7"), "detector.efficiency: must be within [0, 1], got 1.7"),
    "resolution_cap-float": (
        "evaluate", _edit("efficiency = 0.95", "efficiency = 0.95\nresolution_cap = 2.5"), "detector.resolution_cap: not an integer: '2.5'"
    ),
    "resolution_cap-zero": (
        "evaluate", _edit("efficiency = 0.95", "efficiency = 0.95\nresolution_cap = 0"), "detector.resolution_cap: must be >= 1, got 0"
    ),
    "detector-unknown-key": ("evaluate", _edit("efficiency = 0.95", "efficiency = 0.95\ndark_rate = 1"), "detector.dark_rate: unknown key"),
    "accepted-missing": ("evaluate", _edit("accepted = 1\n", ""), "strategy.accepted: missing required key"),
    "accepted-text": ("evaluate", _edit("accepted = 1", "accepted = 1, X"), "strategy.accepted: not an integer: ' x'"),
    "accepted-zero": ("evaluate", _edit("accepted = 1", "accepted = 0"), "strategy.accepted: counts must all be >= 1, got [0]"),
    "accepted-empty": (
        "evaluate",
        _edit("accepted = 1", "accepted = ,"),
        "strategy.accepted: must be non-empty (use threshold() for any-click heralding)",
    ),
    "accepted-above-cap": (
        "evaluate",
        _edit("accepted = 1", "accepted = 11"),
        "strategy.accepted: set reaches 11 but the detector resolves at most 10 photons",
    ),
    "mux-kind-missing": ("evaluate", _edit("kind = symmetric-spatial\n", ""), "multiplexer.kind: missing required key"),
    "mux-kind-unknown": ("evaluate", _edit("kind = symmetric-spatial", "kind = ring"), f"multiplexer.kind: {_ONE_OF_MUX_KINDS}, got 'ring'"),
    "units-missing": ("evaluate", _edit("units = 16\n", ""), "multiplexer.units: missing required key"),
    "units-text": ("evaluate", _edit("units = 16", "units = many"), "multiplexer.units: not an integer: 'many'"),
    "units-not-pow2": (
        "evaluate", _edit("units = 16", "units = 12"), "multiplexer.units: must be a power of 2 for kind=symmetric-spatial, got 12"
    ),
    "units-zero": ("evaluate", _edit("units = 16", "units = 0"), "multiplexer.units: must be >= 1, got 0"),
    "generic-text": ("evaluate", MINIMAL + "generic_transmission = x\n", "multiplexer.generic_transmission: not a number: 'x'"),
    "generic-above-one": (
        "evaluate", MINIMAL + "generic_transmission = 1.5\n", "multiplexer.generic_transmission: must be within [0, 1], got 1.5"
    ),
    "router-missing": (
        "evaluate",
        _edit("router_transmission = 0.98\n", ""),
        "multiplexer.router_transmission: is required for kind=symmetric-spatial",
    ),
    "cycle-other-kind": (
        "evaluate", MINIMAL + "cycle_transmission = 0.9\n", "multiplexer.cycle_transmission: does not apply to kind=symmetric-spatial"
    ),
    "pbs_reflection-other-kind": (
        "evaluate", MINIMAL + "pbs_reflection = 0.9\n", "multiplexer.pbs_reflection: does not apply to kind=symmetric-spatial"
    ),
    "propagation-above-one": (
        "evaluate", MINIMAL + "propagation_transmission = 2\n", "multiplexer.propagation_transmission: must be within [0, 1], got 2.0"
    ),
    "min_cycles-other-kind": (
        "evaluate", MINIMAL + "min_cycles = 0\n", "multiplexer.min_cycles: only applies to kind=time-loop-latest"
    ),
    "min_cycles-two": ("evaluate", TIME_LOOP + "min_cycles = 2\n", "multiplexer.min_cycles: must be 0 or 1, got 2"),
    "min_cycles-text": ("evaluate", TIME_LOOP + "min_cycles = one\n", "multiplexer.min_cycles: not an integer: 'one'"),
    "tail_tol-too-large": (
        "evaluate", _optimizer("tail_tol = 1e-3"), "optimizer.tail_tol: must be in [2.2250738585072014e-308, 1e-6], got 0.001"
    ),
    # subnormal: tail_tol / units would round to 0
    "tail_tol-subnormal": (
        "evaluate", _optimizer("tail_tol = 5e-324"), "optimizer.tail_tol: must be in [2.2250738585072014e-308, 1e-6], got 5e-324"
    ),
    "tail_tol-nan": ("evaluate", _optimizer("tail_tol = nan"), "optimizer.tail_tol: must be finite, got 'nan'"),
    "i_max-zero": ("evaluate", _optimizer("i_max = 0"), "optimizer.i_max: must be >= 1, got 0"),
    "i_max-float": ("evaluate", _optimizer("i_max = 2.0"), "optimizer.i_max: not an integer: '2.0'"),
    "n_candidates-bad-range": ("evaluate", _optimizer("n_candidates = range:5"), "optimizer.n_candidates: bad range 'range:5'"),
    "n_candidates-empty-range": ("evaluate", _optimizer("n_candidates = range:5:3"), "optimizer.n_candidates: empty value list"),
    "n_candidates-empty-pow2": ("evaluate", _optimizer("n_candidates = pow2:0"), "optimizer.n_candidates: empty value list"),
    "n_candidates-empty-list": ("evaluate", _optimizer("n_candidates = ,"), "optimizer.n_candidates: empty value list"),
    "n_candidates-text": ("evaluate", _optimizer("n_candidates = 1,x"), "optimizer.n_candidates: not an integer: 'x'"),
    "n_candidates-not-pow2": (
        "optimize", _optimizer("n_candidates = 1,3"), "optimizer.n_candidates: must be a power of 2 for kind=symmetric-spatial, got 3"
    ),
    "j_max-text": ("evaluate", _optimizer("j_max = x"), "optimizer.j_max: not an integer: 'x'"),
    "j_max-above-cap": (
        "strategy-scan", _optimizer("n_candidates = 1,2\nj_max = 11"), "optimizer.j_max: must be within [1, resolution_cap=10], got 11"
    ),
    "vd_values-empty": ("evaluate", _sweep("vd_values = ,"), "sweep.vd_values: empty value list"),
    "vd_values-decreasing": ("evaluate", _sweep("vd_values = 0.9,0.8"), "sweep.vd_values: values must be strictly increasing"),
    "vd_values-reversed-range": ("evaluate", _sweep("vd_values = 0.9:0.3:0.1"), "sweep.vd_values: range end 0.3 is below its start 0.9"),
    "vd_values-zero-step": ("evaluate", _sweep("vd_values = 0.3:0.9:0"), "sweep.vd_values: step must be a finite number > 0, got 0.0"),
    "vd_values-text": ("evaluate", _sweep("vd_values = 0.3:x:0.1"), "sweep.vd_values: not a number: 'x'"),
    "vr_values-above-one": ("evaluate", _sweep("vr_values = 0.5,1.5"), "sweep.vr_values: must be within [0, 1], got 1.5"),
    "n_values-not-pow2": ("evaluate", _sweep("n_values = 3"), "sweep.n_values: must be a power of 2 for kind=symmetric-spatial, got 3"),
    "n_values-text": ("evaluate", _sweep("n_values = a"), "sweep.n_values: not an integer: 'a'"),
    "lambda_values-negative": (
        "evaluate", _sweep("lambda_values = -0.1,0.2"), "sweep.lambda_values: must be a finite non-negative real, got -0.1"
    ),
    "strategies-unknown": ("evaluate", _sweep("strategies = spd,bogus"), "sweep.strategies: unknown strategy token 'bogus'"),
    "pair_kinds-unknown": ("evaluate", _sweep("pair_kinds = thermal,laser"), f"sweep.pair_kinds: {_ONE_OF_PAIR_KINDS}, got 'laser'"),
    "unknown-section": ("evaluate", MINIMAL + "\n[cooling]\nx = 1\n", "cooling: unknown section"),
    "default-section": ("evaluate", "[DEFAULT]\nresolution_cap = 5\n\n" + MINIMAL, "DEFAULT: unknown section"),
}


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

    def test_unknown_strategy_token_rejected(self):
        with pytest.raises(ValueError, match="sweep.strategies: unknown strategy token 'bogus'"):
            parse_config(MINIMAL + "\n[sweep]\nvd_values = 0.9\nstrategies = spd,bogus\n")

    @pytest.mark.parametrize("key", ["generic_transmission", "cycle_transmission", "pbs_reflection"])
    def test_multiplexer_floats_are_range_checked(self, key):
        with pytest.raises(ValueError, match=f"multiplexer.{key}: must be within"):
            parse_config(MINIMAL + f"{key} = 1.5\n")

    @pytest.mark.parametrize("key", ["strategies", "pair_kinds"])
    def test_empty_sweep_list_rejected(self, key):
        # like every other list key: '= ,' is an error, not an unset key
        with pytest.raises(ValueError, match=f"^sweep.{key}: empty value list$"):
            parse_config(MINIMAL + f"\n[sweep]\nvd_values = 0.9\n{key} = ,\n")

    @pytest.mark.parametrize("text", [*PRESETS.values(), TIME_CHAIN], ids=[*PRESETS, "time-chain"])
    def test_dump_is_a_text_fixed_point(self, text):
        dumped = dump_config(parse_config(text, command="table"))
        assert dump_config(parse_config(dumped, command="table")) == dumped

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
        # a step that does not divide the span stops below the range end
        spec = parse_config(MINIMAL + "\n[sweep]\nvd_values = 0.1:1.0:0.35\n")
        assert spec.sweep.vd_values == (0.1, 0.45, 0.8)
        spec = parse_config(MINIMAL + "\n[sweep]\nvd_values = 0.3:1.0:0.01\nlambda_values = 0.02:2.0:0.02\n")
        assert len(spec.sweep.vd_values) == 71 and spec.sweep.vd_values[-1] == 1.0
        assert len(spec.sweep.lambda_values) == 100 and spec.sweep.lambda_values[-1] == 2.0


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

    @pytest.mark.parametrize(
        "command, text, field_path",
        [
            (["optimize"], MINIMAL + "\n[optimizer]\nn_candidates = 1,3\n", "optimizer.n_candidates"),
            (["table"], MINIMAL + "\n[sweep]\nn_values = 3\nlambda_values = 0.2\n", "sweep.n_values"),
            (["table"], MINIMAL + "\n[sweep]\nlambda_values = -0.1,0.2\n", "sweep.lambda_values"),
            (["evaluate"], MINIMAL.replace("mean = 0.45", "mean = -1"), "source.mean"),
            (["evaluate"], MINIMAL.replace("mean = 0.45", "mean = abc"), "source.mean"),
            (["evaluate", "--dump-config"], MINIMAL.replace("units = 16", "units = 12"), "multiplexer.units"),
        ],
        ids=["tree-n_candidates", "tree-n_values", "negative-lambda_values", "negative-mean", "text-mean", "tree-units"],
    )
    def test_invalid_value_names_one_field(self, command, text, field_path, tmp_path, capsys):
        path = write_config(tmp_path, text)
        status, out, err = run_cli([*command, "--config", path], capsys)
        assert status == 2
        assert out == ""
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if "config error:" in line]
        fields = re.findall(r"\b(?:source|detector|strategy|multiplexer|optimizer|sweep)\.\w+", line)
        assert fields == [field_path]

    @pytest.mark.parametrize("command, text, message", INVALID_DOCUMENTS.values(), ids=INVALID_DOCUMENTS)
    def test_invalid_document_message(self, command, text, message, tmp_path, capsys):
        status, out, err = run_cli([command, "--config", write_config(tmp_path, text)], capsys)
        assert (status, out, err) == (2, "", f"muxsps: config error: {message}\n")

    def test_j_max_checked_only_by_cutoff_scans(self, tmp_path, capsys):
        text = MINIMAL.replace("efficiency = 0.95", "efficiency = 0.95\nresolution_cap = 3")
        path = write_config(tmp_path, text + "\n[optimizer]\nn_candidates = 1,2\n")
        assert run_cli(["evaluate", "--config", path], capsys)[0] == 0
        status, _, err = run_cli(["strategy-scan", "--config", path], capsys)
        assert status == 2
        assert "optimizer.j_max" in err

    def test_unknown_preset_is_2(self, capsys):
        status, _, err = run_cli(["evaluate", "--preset", "nope"], capsys)
        assert status == 2
        assert "nope" in err

    @pytest.mark.parametrize(
        "command, flag",
        [("map", "--mc-check"), ("table", "--seed"), ("strategy-scan", "--mc-check"), ("evaluate", "--workers"),
         ("optimize", "--workers"), ("strategy-scan", "--workers")],
    )
    def test_flag_of_another_command_is_2(self, command, flag, tmp_path, capsys):
        # a flag the command would not read is rejected, not silently ignored
        path = write_config(tmp_path, MINIMAL + "\n[sweep]\nvd_values = 0.9\nvr_values = 0.9\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", path, flag, "1000000"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value, sweep",
        [("table", "--workers", "0", "grid"), ("table", "--workers", "-2", "grid"), ("map", "--workers", "0", "grid"),
         ("table", "--workers", "0", "curves"), ("table", "--workers", "-3", "curves"),
         ("evaluate", "--mc-check", "-5", "grid"), ("evaluate", "--mc-check", "0", "grid"),
         ("optimize", "--mc-check", "0", "grid")],
    )
    def test_run_flag_below_one_is_2(self, command, flag, value, sweep, tmp_path, capsys):
        # checked by the library function that reads the value: run_tasks, which every
        # table kind and the map reach (a lambda_values table as one task per N), or simulate
        sweeps = {"grid": "vd_values = 0.9\nvr_values = 0.9,0.95", "curves": "n_values = 1,2\nlambda_values = 0.2,0.4"}
        path = write_config(tmp_path, _sweep(sweeps[sweep]))
        status, out, err = run_cli([command, "--config", path, flag, value], capsys)
        assert status == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"config error: {flag}: must be >= 1, got {value}" in err

    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    def test_negative_seed_is_2(self, command, tmp_path, capsys):
        # checked by simulate, which seeds one PCG64 stream per (seed, block)
        path = write_config(tmp_path)
        status, out, err = run_cli([command, "--config", path, "--mc-check", "1000", "--seed", "-1"], capsys)
        assert status == 2
        assert out == ""
        assert "Traceback" not in err
        assert "config error: --seed: must be >= 0, got -1" in err

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

    def test_mc_check_passes_with_a_count_never_drawn(self, tmp_path, capsys):
        # P_3 is 7.3e-8, so a million pulses rarely draw a 3; its bin has no spread of its own
        text = MINIMAL.replace("0.45", "0.02").replace("0.95", "0.9").replace("16", "4").replace("0.98", "0.9")
        path = write_config(tmp_path, text)
        status, out, err = run_cli(["evaluate", "--config", path, "--mc-check", "1000000", "--seed", "1"], capsys)
        assert status == 0, err
        assert re.search(r"^# mc_check: samples=1000000 seed=1 max_sigma=\d+\.\d{3} \(i<=3\)$", out, re.M)

    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    @pytest.mark.parametrize("i_max", [1, 2])
    def test_mc_check_stops_at_i_max(self, command, i_max, tmp_path, capsys):
        # the exact distribution ends at i_max, below the counts --mc-check compares by default
        path = write_config(tmp_path, _optimizer(f"i_max = {i_max}"))
        status, out, err = run_cli([command, "--config", path, "--mc-check", "10000", "--seed", "1"], capsys)
        assert status == 0, err
        assert re.search(rf"^# mc_check: samples=10000 seed=1 max_sigma=\d+\.\d{{3}} \(i<={i_max}\)$", out, re.M)


class TestDumpConfig:
    def test_prints_canonical_document(self, tmp_path, capsys):
        path = write_config(tmp_path)
        status, out, _ = run_cli(["evaluate", "--config", path, "--dump-config"], capsys)
        assert status == 0
        spec = parse_config(out, command="evaluate")
        assert spec.cfg.detector.efficiency == 0.95

    def test_preset_dump_reparses(self, capsys):
        status, out, _ = run_cli(["table", "--preset", "btm", "--dump-config"], capsys)
        assert status == 0
        spec = parse_config(out, command="table")
        assert spec.cfg.mux.kind.value == "binary-bulk-time"


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

    def test_cutoff_ties_go_to_the_smaller_cutoff(self, tmp_path, capsys, monkeypatch):
        # exact P_1 ties: cutoffs 2 and 3 share the best value, cutoff 3 at fewer units
        p1 = np.array([[0.6, 0.6], [0.5, 0.8], [0.8, 0.1]])
        monkeypatch.setattr(optimize, "maximize_over_lambda", lambda *args: (np.arange(p1.size, dtype=float), p1.ravel()))
        path = write_config(tmp_path, MINIMAL + "\n[optimizer]\nn_candidates = 1,2\nj_max = 3\n")
        status, out, _ = run_cli(["strategy-scan", "--config", path], capsys)
        assert status == 0
        rows = [line for line in out.splitlines() if not line.startswith(("#", "J,"))]
        assert rows == ["1,1,0.0,0.6,0", "2,2,3.0,0.8,1", "3,1,4.0,0.8,0"]
        assert "# j_opt: 2\n# p1_max: 0.8\n" in out


class TestTableCommand:
    @pytest.mark.parametrize(
        "sweep",
        ["vd_values = 0.8,0.9\nvr_values = 0.9,0.95", "n_values = 1,2\nlambda_values = 0.2,0.4"],
        ids=["grid", "curves"],
    )
    def test_grid_and_curves_byte_identical_reruns(self, sweep, tmp_path, capsys):
        # at two workers the curves run their per-N tasks in the process pool; the grid is one lane search, one task
        config = MINIMAL + "\n[optimizer]\nn_candidates = 1,2,4\n\n[sweep]\n" + sweep + "\n"
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

    @pytest.mark.parametrize("preset", ["btm", "loop-latest"])
    def test_scenario_rows_equal_per_row_unit_scans(self, preset, tmp_path, capsys):
        # one lane search per (V_D, pair kind) gives each row what its own
        # search gives: a unit scan (btm), or its fixed N alone (loop-latest)
        text = re.sub(r"vd_values = .*", "vd_values = 0.6,0.95", PRESETS[preset])
        spec = parse_config(text, command="table")
        assert [token for token, _ in spec.sweep.strategies] == ["threshold", "spd"]
        status, out, _ = run_cli(["table", "--config", write_config(tmp_path, text), "--workers", "1"], capsys)
        assert status == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "V_D,"))]
        expected = [
            (vd, token, strategy, units)
            for vd in (0.6, 0.95)
            for token, strategy in spec.sweep.strategies
            for units in spec.sweep.n_values or (None,)
        ]
        assert len(rows) == len(expected)
        for row, (vd, token, strategy, units) in zip(rows, expected):
            cfg = replace(spec.cfg, detector=replace(spec.cfg.detector, efficiency=vd), strategy=strategy)
            if units is None:
                alone = optimize_units(cfg, spec.n_candidates)
            else:
                alone = optimize_units(replace(cfg, units=units), (units,))
            assert row[:3] == [repr(vd), cfg.dist.kind.value, token]
            assert int(row[3]) == alone.n_opt[0]
            assert float(row[4]) == pytest.approx(alone.p1_max[0], abs=1e-12)
            assert float(row[5]) == pytest.approx(alone.lambda_opt[0], abs=LAMBDA_TOL)

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


class TestPerUnitTransmissions:
    """The engine builds a per-unit transmission vector only for a lane whose units do not share one."""

    @pytest.fixture
    def built(self, monkeypatch):
        units, real = [], engine.unit_transmissions
        monkeypatch.setattr(engine, "unit_transmissions", lambda mux, n: units.append(n) or real(mux, n))
        return units

    def test_map_builds_none(self, built):
        comparison_map([0.9], [0.9, 0.95], workers=1)
        assert built == []

    def test_router_row_builds_none(self, built):
        spec = parse_config(PRESETS["ssm-spd"], command="table")
        cli._router_cells((spec, (0.9,), spec.sweep.vr_values))
        assert built == []

    def test_binary_delay_row_builds_its_lanes_with_more_than_one_unit(self, built):
        cli._scenario_cells((parse_config(PRESETS["btm"], command="table"), PairKind.POISSONIAN, (0.9,)))
        assert set(built) == {2**k for k in range(1, 11)}


THREE_UNITS = _optimizer("n_candidates = 1,2,4") + "\n[sweep]\nvd_values = 0.8,0.9,0.95\n"
TWO_KINDS = TIME_LOOP + "\n[sweep]\nvd_values = 0.6,0.98\nn_values = 10,20\nstrategies = threshold,spd\npair_kinds = poissonian,thermal\n"


class TestTableSearches:
    """A router-grid or scenario table is cut into lane searches under one lane budget."""

    @pytest.fixture
    def searches(self, monkeypatch):
        lanes, search = [], optimize.maximize_over_lambda

        def spy(*args):
            lanes.append(len(args[1]))
            return search(*args)

        monkeypatch.setattr(optimize, "maximize_over_lambda", spy)
        monkeypatch.setattr(cli, "maximize_over_lambda", spy)
        return lanes

    @pytest.mark.parametrize("preset", ["ssm-spd", "ssm-threshold", "btm", "loop-latest", "loop-latest-thermal"])
    def test_shipped_table_is_one_search(self, preset, searches, tmp_path, capsys):
        # one search is one task, so two workers start no pool: a search in a pool worker would not show here
        status, _, _ = run_cli(["table", "--preset", preset, "--workers", "2", "--out", str(tmp_path / "t.csv")], capsys)
        assert status == 0
        assert len(searches) == 1

    @pytest.mark.parametrize(
        "text, shipped, budget, lanes",
        [
            (THREE_UNITS + "vr_values = 0.9,0.95,0.97,0.99\n", [36], 24, [24, 12]),  # 3 x 4 cells of 3 lanes
            (THREE_UNITS + "vr_values = 0.9,0.95,0.97,0.99\n", [36], 9, [9, 3] * 3),
            (THREE_UNITS + "vr_values = 0.9,0.95,0.97,0.99\n", [36], 2, [3] * 12),
            (THREE_UNITS + "strategies = threshold,spd\n", [18], 12, [12, 6]),  # 3 V_D values of 6 lanes
            (TWO_KINDS, [8, 8], 4, [4] * 4),  # 2 V_D values of 4 lanes per pair kind, one search per kind at least
        ],
        ids=["grid-two-rows", "grid-row-pieces", "grid-cells", "scenario", "two-kinds"],
    )
    def test_table_larger_than_the_budget_is_cut_into_searches_within_it(
        self, text, shipped, budget, lanes, searches, tmp_path, capsys
    ):
        path = write_config(tmp_path, text)
        status, whole, _ = run_cli(["table", "--config", path, "--workers", "1"], capsys)
        assert status == 0 and searches == shipped
        searches.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimize, "SEARCH_LANES", budget)
            status, cut, _ = run_cli(["table", "--config", path, "--workers", "1"], capsys)
        assert status == 0
        assert searches == lanes  # whole cells (a cell at least) per search, never more lanes than the budget allows
        assert cut == whole

    def test_progress_counts_cells_not_searches(self, tmp_path, capsys):
        # 3 x 34 router-grid cells in one search, or in 34 of 3 cells: the same report, every second cell
        path = write_config(tmp_path, THREE_UNITS + "vr_values = " + ",".join(f"{0.6 + 0.01 * k:.2f}" for k in range(34)) + "\n")
        expected = [f"table: {done}/102 cells" for done in range(2, 103, 2)]
        status, _, err = run_cli(["table", "--config", path, "--workers", "1", "--out", str(tmp_path / "t.csv")], capsys)
        assert status == 0 and err.splitlines() == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimize, "SEARCH_LANES", 9)
            status, _, err = run_cli(["table", "--config", path, "--workers", "1", "--out", str(tmp_path / "t.csv")], capsys)
        assert status == 0 and err.splitlines() == expected

    def test_two_pair_kinds_go_row_by_row_in_v_d_order(self, tmp_path, capsys):
        status, out, _ = run_cli(["table", "--config", write_config(tmp_path, TWO_KINDS), "--workers", "1"], capsys)
        assert status == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "V_D,"))]
        assert [row[:4] for row in rows] == [
            [vd, kind, strategy, units]
            for vd in ("0.6", "0.98")
            for kind in ("poissonian", "thermal")
            for strategy in ("threshold", "spd")
            for units in ("10", "20")
        ]
        for kind in ("poissonian", "thermal"):  # each kind's rows are the rows of its own table
            one = TWO_KINDS.replace("pair_kinds = poissonian,thermal", f"pair_kinds = {kind}")
            status, alone, _ = run_cli(["table", "--config", write_config(tmp_path, one), "--workers", "1"], capsys)
            assert status == 0
            assert [row for row in rows if row[1] == kind] == [line.split(",") for line in alone.splitlines()[4:]]


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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("kind = poissonian", "kind = thermal", "source.kind: map supports only kind=poissonian, got thermal"),
            ("units = 16", "units = 16\ngeneric_transmission = 0.5", "multiplexer.generic_transmission: map supports only 1.0, got 0.5"),
        ],
        ids=["thermal-source", "generic-loss"],
    )
    def test_unmapped_scenario_is_config_error(self, old, new, message, tmp_path, capsys):
        # the map models a lossless Poissonian tree; another scenario must not print its numbers
        text = MINIMAL.replace(old, new) + "\n[optimizer]\nj_max = 1\n\n[sweep]\nvd_values = 0.9\nvr_values = 0.9\n"
        status, out, err = run_cli(["map", "--config", write_config(tmp_path, text), "--workers", "1"], capsys)
        assert (status, out, err) == (2, "", f"muxsps: config error: {message}\n")

    def test_grid_step_regrids(self, tmp_path, capsys):
        config = MINIMAL + "\n[optimizer]\nj_max = 1\n\n[sweep]\nvd_values = 0.9,0.98\nvr_values = 0.9,0.98\n"
        path = write_config(tmp_path, config)
        status, out, _ = run_cli(
            ["map", "--config", path, "--workers", "1", "--grid-step", "0.08"], capsys
        )
        assert status == 0
        rows = [line for line in out.splitlines() if not line.startswith(("#", "V_D,"))]
        assert len(rows) == 4  # 2x2 regridded axes

    def test_grid_step_stops_below_the_axis_end(self, capsys):
        status, out, _ = run_cli(["map", "--preset", "ssm-maps", "--grid-step", "0.08", "--dump-config"], capsys)
        assert status == 0
        spec = parse_config(out, command="map")
        expected = tuple(round(0.3 + 0.08 * k, 12) for k in range(9))
        assert spec.sweep.vd_values == spec.sweep.vr_values == expected
        assert expected[-1] == 0.94

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


def _run_python(code, *argv):
    """``python -c code argv`` in a fresh process that imports this source tree."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)


def test_table_run_leaves_numpy_ma_unimported(tmp_path):
    # a plain np.unique imports numpy.ma, 16-25 ms that every process and pool worker would pay
    code = "import sys; from muxsps.cli import main; status = main(sys.argv[1:]); print(status, 'numpy.ma' in sys.modules)"
    proc = _run_python(code, "table", "--preset", "ssm-spd", "--workers", "1", "--out", str(tmp_path / "table.csv"))
    assert proc.stdout == "0 False\n", proc.stderr


def test_shipped_scenario_table_with_two_workers_leaves_multiprocessing_unimported(tmp_path):
    # btm's table is one lane search, so one task: two workers start no process pool
    code = "import sys; from muxsps.cli import main; status = main(sys.argv[1:]); print(status, 'multiprocessing' in sys.modules)"
    proc = _run_python(code, "table", "--preset", "btm", "--workers", "2", "--out", str(tmp_path / "btm.csv"))
    assert proc.stdout == "0 False\n", proc.stderr


def test_import_and_one_worker_run_leave_multiprocessing_unimported():
    # the process pool's modules load only when run_tasks starts a pool
    code = (
        "import sys, muxsps; imported = 'multiprocessing' in sys.modules; "
        "muxsps.optimize.run_tasks(abs, [1, -2], workers=1); print(imported, 'multiprocessing' in sys.modules)"
    )
    proc = _run_python(code)
    assert proc.stdout == "False False\n", proc.stderr
