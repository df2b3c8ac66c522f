"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted by the
workload runs, and that the output checks fire on a wrong reference.
"""

import copy
import importlib
import json

import pytest

import run

run._import_library()

from tracer import Target, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MAP_REFERENCE_FIELDS, WORKLOADS, MapWorkload, SamplerWorkload, TablesWorkload, map_cell_key,
)

TINY_TABLES = ("loop-latest-thermal", "ssm-curves")


def _spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_every_metric():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _assert_emits(result, units):
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_map_tiny():
    bench = MapWorkload(0, axes=(2, 1))
    result = run.run_end_to_end(bench, seconds=0, setup_reps=1)
    _assert_emits(result, run.END_TO_END)
    assert result["correct"] and result["attempted"] == 2
    assert result["metrics"]["ok_ratio"]["value"] == 1.0

    traced = run.run_traced(bench, seconds=0)
    _assert_emits(traced, run.PER_LAYER)
    assert traced["correct"]
    layer = {name: m["value"] for name, m in traced["metrics"].items()}
    for reached in ("engine.output_distribution", "engine.p1_profile", "optimize.maximize_over_lambda",
                    "optimize.optimize_units", "optimize.comparison_map", "statistics.pmf_array",
                    "statistics.herald_weights", "statistics.truncation_length", "losses.unit_transmissions"):
        assert layer[f"{reached}.calls"] > 0, reached
    for unreached in ("simulate.simulate", "config.parse_config", "cli.main"):
        assert layer[f"{unreached}.calls"] == 0, unreached
    assert 10 < layer["optimize.engine_calls_per_lambda_opt"] < 30

    cells = [op.output for op in bench.run().ops]
    assert all(bench.check(cell) for cell in cells)
    assert not bench.check({**cells[0], "p1_spd": cells[0]["p1_spd"] + 1e-6})  # closed-form check
    wrong = {
        map_cell_key(c["vd"], c["vr"]): [2 * c[k] if k == "n_opt_spd" else c[k] for k in MAP_REFERENCE_FIELDS]
        for c in cells
    }
    for reference in (wrong, {}):  # a wrong optimum, and a cell missing from the reference
        bad = MapWorkload(0, axes=(2, 1), reference=reference)
        bad.generate()
        attempted, failed = run._checked(bad, [bad.run()])
        assert failed == attempted == 2


def test_sampler_tiny():
    bench = SamplerWorkload(0, pulses=10_000)
    result = run.run_end_to_end(bench, seconds=0, setup_reps=1)
    _assert_emits(result, run.END_TO_END)
    assert result["correct"] and result["attempted"] == 4

    traced = run.run_traced(bench, seconds=0)
    _assert_emits(traced, run.PER_LAYER)
    assert traced["metrics"]["simulate.simulate.calls"]["value"] == 4
    assert traced["metrics"]["engine.output_distribution.calls"]["value"] == 0

    bench.expected = [tuple(p + 0.05 for p in exact.probabilities) for exact in bench.expected]
    attempted, failed = run._checked(bench, [bench.run()])
    assert failed == attempted == 4


def test_tables_tiny():
    bench = TablesWorkload(0, presets=TINY_TABLES)
    result = run.run_end_to_end(bench, seconds=0, setup_reps=1)
    _assert_emits(result, run.END_TO_END)
    assert result["correct"] and result["attempted"] == 2

    traced = run.run_traced(bench, seconds=0)
    _assert_emits(traced, run.PER_LAYER)
    assert traced["correct"]
    for reached in ("cli.main", "config.parse_config", "engine.output_distribution"):
        assert traced["metrics"][f"{reached}.calls"]["value"] > 0, reached

    wrong = copy.deepcopy(bench.reference)
    for preset in TINY_TABLES:
        row = wrong[preset]["rows"][0]
        row[-1 if preset == "ssm-curves" else 4] = repr(float(row[-1 if preset == "ssm-curves" else 4]) + 1e-6)
    bad = TablesWorkload(0, presets=TINY_TABLES, reference=wrong)
    bad.generate()
    attempted, failed = run._checked(bad, [bad.run()])
    assert failed == attempted == 2


@pytest.mark.parametrize("module, attr", [("engine", "pmf_array"), ("optimize", "output_distribution")])
def test_tracer_patches_caller_namespaces_and_restores(module, attr):
    lib = importlib.import_module(f"muxsps.{module}")
    original = getattr(lib, attr)
    defining = original.__module__.split(".")[-1]
    tracer = Tracer([Target(f"{defining}.{attr}", defining, attr)], [])
    with tracer:
        assert getattr(lib, attr) is not original
    assert getattr(lib, attr) is original


@pytest.mark.parametrize("target, caches", [
    (Target("engine.renamed", "engine", "renamed"), []),
    (Target("engine.output_distribution", "engine", "output_distribution"), [("engine.cached", "engine", "output_distribution")]),
])
def test_tracer_refuses_missing_layers(target, caches):
    with pytest.raises(LookupError):
        with Tracer([target], caches):
            pass
