#!/usr/bin/env python3
"""Benchmark of the muxsps library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload map --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with no
tracing; with ``--trace 1`` it prints the per-layer metrics of a separate
traced run.  Each metric is printed by name, with its unit and sample count,
and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

``--workload`` also takes a comma list or ``all``, and ``--trace both``;
then every (workload, trace) pair runs in its own process and the results
are written, in the same form, to ``--out`` (default
``.perfbench/report.json``).

Counts (``.calls``, ``engine_calls_per_lambda_opt``, ``mean_l``,
``hit_ratio``) repeat exactly for a given seed; times do not.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread per process: the benchmark measures single-worker speed,
# and the tables pool sets its parallelism through --workers alone
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p75": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

_TIMED_LAYERS = (
    "engine.output_distribution",
    "engine.p1_profile",
    "optimize.maximize_over_lambda",
    "optimize.optimize_units",
    "optimize.comparison_map",
    "statistics.pmf_array",
    "statistics.herald_weights",
    "statistics.truncation_length",
    "losses.unit_transmissions",
    "simulate.simulate",
    "config.parse_config",
    "cli.main",
)
_CACHED = (
    ("statistics.binomial_coefficients", "statistics", "binomial_coefficients"),
    ("losses.unit_transmissions", "losses", "unit_transmissions"),
)

PER_LAYER = {}
for _layer in _TIMED_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update(
    {
        "engine.output_distribution.us_per_call": "us",
        "optimize.engine_calls_per_lambda_opt": "calls/opt",
        "statistics.truncation_length.mean_l": "pairs",
        "statistics.binomial_coefficients.hit_ratio": "ratio",
        "losses.unit_transmissions.hit_ratio": "ratio",
        "trace_overhead_ratio": "ratio",
    }
)


def _import_library():
    """Put the checkout's source tree first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "muxsps" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src / 'muxsps'}")
    sys.path.insert(0, str(src))
    import muxsps

    if src.resolve() not in Path(muxsps.__file__).resolve().parents:
        sys.exit(f"perfbench: muxsps imported from {muxsps.__file__}, not from {src}")


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def _loop(seconds: float, steps) -> list:
    """Run ``steps`` in rotation for about ``seconds``, at least once each.

    A new round starts only if a round as long as the last one still fits.
    """
    start = time.perf_counter()
    done = []
    while True:
        round_start = time.perf_counter()
        done.extend(step() for step in steps)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return done


def _measure_setup(bench, reps: int) -> list[float]:
    """Interpreter start-up and import in a fresh process, plus input generation."""
    from workloads import child_env

    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *bench.setup_argv], env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        bench.generate()
        times.append(time.perf_counter() - t0)
    return times


def _clear_caches() -> None:
    """Start every pass with the library's caches cold, as a fresh run does."""
    from tracer import lru_caches

    for _, fn in lru_caches(_CACHED):
        fn.cache_clear()


def _checked(bench, passes) -> tuple[int, int]:
    ops = [op for p in passes for op in p.ops]
    failed = sum(not bench.check(op.output) for op in ops)
    return len(ops), failed


def _peak_rss_mb(bench) -> float:
    who = resource.RUSAGE_CHILDREN if bench.memory_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def run_end_to_end(bench, seconds: float, setup_reps: int = SETUP_REPS) -> dict:
    """Untraced passes for ``seconds``; returns metrics and check counts."""
    setup = _measure_setup(bench, setup_reps)

    def one_pass():
        _clear_caches()
        return bench.run()

    passes = _loop(seconds, [one_pass])
    attempted, failed = _checked(bench, passes)
    op_times = [op.seconds for p in passes for op in p.ops]
    busy = sum(p.seconds for p in passes)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "run_s": (statistics.median(p.seconds for p in passes), len(passes)),
        "ops_per_s": (len(op_times) / busy, len(op_times)),
        "op_s_p50": (statistics.median(op_times), len(op_times)),
        "op_s_p75": (_p75(op_times), len(op_times)),
        "peak_rss_mb": (_peak_rss_mb(bench), 1),
        "ok_ratio": ((attempted - failed) / attempted, attempted),
    }
    return _result(values, END_TO_END, attempted, failed)


def run_traced(bench, seconds: float, span_path: Path | None = None) -> dict:
    """Alternate untraced and traced passes, one worker, in process.

    Per-layer figures are per traced pass, so counts do not depend on how
    many passes fit in ``seconds``.
    """
    from tracer import Target, Tracer

    bench.generate()
    targets = [
        Target(layer, layer.split(".")[0], layer.split(".")[1], keep_result=layer.endswith("truncation_length"))
        for layer in _TIMED_LAYERS
    ]
    tracer = Tracer(targets, list(_CACHED))

    def set_op(op: int) -> None:
        tracer.op = op

    def plain():
        _clear_caches()
        return "plain", bench.run(in_process=True)

    def traced():
        with tracer:
            return "traced", bench.run(in_process=True, on_op=set_op)

    runs = _loop(seconds, [plain, traced])
    plain_passes = [p for kind, p in runs if kind == "plain"]
    traced_passes = [p for kind, p in runs if kind == "traced"]
    attempted, failed = _checked(bench, plain_passes + traced_passes)

    n = len(traced_passes)
    totals = tracer.totals()
    values = {}
    for layer in _TIMED_LAYERS:
        values[f"{layer}.calls"] = (round(totals[layer].calls / n), n)
        values[f"{layer}.self_s"] = (totals[layer].self_s / n, n)
    engine = totals["engine.output_distribution"]
    lam_opts = totals["optimize.maximize_over_lambda"].calls
    truncation = totals["statistics.truncation_length"]
    values.update(
        {
            "engine.output_distribution.us_per_call": (1e6 * engine.total_s / engine.calls if engine.calls else 0.0, engine.calls),
            "optimize.engine_calls_per_lambda_opt": (engine.calls / lam_opts if lam_opts else 0.0, lam_opts),
            "statistics.truncation_length.mean_l": (
                truncation.result_sum / truncation.calls if truncation.calls else 0.0,
                truncation.calls,
            ),
            "statistics.binomial_coefficients.hit_ratio": (tracer.hit_ratio("statistics.binomial_coefficients"), n),
            "losses.unit_transmissions.hit_ratio": (tracer.hit_ratio("losses.unit_transmissions"), n),
            "trace_overhead_ratio": (
                statistics.median(p.seconds for p in traced_passes) / statistics.median(p.seconds for p in plain_passes),
                len(runs),
            ),
        }
    )
    if span_path is not None:
        tracer.write_csv(span_path)
    return _result(values, PER_LAYER, attempted, failed)


def _result(values: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]} for name, unit in units.items()},
    }


def contract_form(result: dict) -> dict:
    """The result without sample counts, as the final output line carries it."""
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()}
    return {**result, "metrics": metrics}


def print_result(workload: str, trace: int, result: dict) -> None:
    print(f"# {workload} trace={trace}: attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{name:<46} {m['value']:>16.6g} {m['unit']:<9} n={m['samples']}")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import OUT, WORKLOADS

    bench = WORKLOADS[workload](seed)
    if trace:
        OUT.mkdir(exist_ok=True)
        return run_traced(bench, seconds, span_path=OUT / f"spans-{workload}.csv")
    return run_end_to_end(bench, seconds)


def run_report(workloads: list[str], seed: int, seconds: float, traces: list[int], out: Path) -> int:
    """Each (workload, trace) pair in its own process; one JSON report."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload in workloads:
        for trace in traces:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {workload} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            report["workloads"].setdefault(workload, {})["per_layer" if trace else "end_to_end"] = result
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"# report written to {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="map, tables, sampler, a comma list, or all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out", type=Path, help="report file for several runs")
    args = parser.parse_args(argv)

    _import_library()
    from workloads import OUT, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    if len(names) > 1 or len(traces) > 1 or args.out:
        return run_report(names, args.seed, args.seconds, traces, args.out or OUT / "report.json")

    result = run_one(names[0], args.seed, args.seconds, traces[0])
    print_result(names[0], traces[0], result)
    print(json.dumps(contract_form(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
