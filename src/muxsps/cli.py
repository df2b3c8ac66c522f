"""Command-line front end.

Subcommands:

* ``evaluate``       exact output distribution of one configured scenario
* ``optimize``       best pump mean and unit count for one scenario
* ``strategy-scan``  additionally scan the accepted-count cutoff
* ``map``            heralding-mode comparison maps over a loss grid
* ``table``          optimum tables / curve families driven by [sweep]

Output is '#'-commented, comma-separated text written byte-identically for
identical runs (fixed seed, no timestamps).  Exit codes: 0 success,
2 configuration error, 3 I/O error, 4 numerical-consistency failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Iterable, Sequence

from . import __version__
from .config import PRESETS, ConfigError, RunSpec, dump_config, flatten_config, format_value, inclusive_range, parse_config, strategy_from_token
from .engine import SourceConfig, output_distribution
from .losses import MuxKind
from .optimize import comparison_map, optimize_strategy, optimize_units, run_tasks
from .simulate import simulate
from .statistics import PairDistribution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CONSISTENCY = 4

MC_SIGMA_LIMIT = 4.0
MC_CHECK_I_MAX = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxsps",
        description="Photon-number statistics and design optimization of multiplexed heralded single-photon sources.",
    )
    parser.add_argument("--version", action="version", version=f"muxsps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _DISPATCH:
        p = sub.add_parser(command)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--config", metavar="PATH", help="configuration document to run")
        group.add_argument(
            "--preset", metavar="NAME", help=f"shipped scenario, one of: {', '.join(sorted(PRESETS))}"
        )
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument("--workers", type=int, metavar="K", default=os.cpu_count(), help="parallel workers (default: all cores)")
        p.add_argument("--seed", type=int, metavar="U64", default=0, help="random seed for stochastic checks")
        p.add_argument(
            "--mc-check",
            type=int,
            metavar="SAMPLES",
            help="also sample the pipeline and report the worst deviation in standard errors",
        )
        p.add_argument("--dump-config", action="store_true", help="print the resolved configuration and exit")
        if command == "map":
            p.add_argument(
                "--grid-step",
                type=float,
                metavar="STEP",
                help="re-grid both sweep axes between their configured ends with this step (> 0)",
            )
    return parser


def _resolve_spec(args: argparse.Namespace) -> RunSpec:
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError("preset", f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}")
        text = PRESETS[args.preset]
    elif args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
    else:
        raise ConfigError("config", "one of --config or --preset is required")
    return parse_config(
        text,
        command=args.command,
        out_path=args.out,
        seed=args.seed,
        mc_samples=args.mc_check,
        workers=args.workers,
    )


def _meta(spec: RunSpec) -> list[tuple[str, str]]:
    return [
        ("tool", f"muxsps {__version__}"),
        ("command", spec.command),
        ("config", flatten_config(spec)),
    ]


def _write(spec: RunSpec, text: str) -> None:
    if spec.out_path:
        with open(spec.out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(spec: RunSpec, header: Sequence[str], rows: Iterable[Sequence], meta: Iterable[tuple[str, str]]) -> None:
    lines = [f"# {key}: {value}" for key, value in meta]
    lines.append(",".join(header))
    lines += [",".join(format_value(v) for v in row) for row in rows]
    _write(spec, "\n".join(lines) + "\n")


def _mc_check(cfg: SourceConfig, spec: RunSpec, meta: list[tuple[str, str]]) -> int:
    """Sample the pipeline and compare against the exact distribution."""
    exact = output_distribution(cfg)
    estimate = simulate(cfg, spec.mc_samples, spec.seed)
    worst = max(estimate.sigma(i, exact[i]) for i in range(MC_CHECK_I_MAX + 1))
    meta.append(("mc_check", f"samples={spec.mc_samples} seed={spec.seed} max_sigma={worst:.3f} (i<={MC_CHECK_I_MAX})"))
    if worst > MC_SIGMA_LIMIT:
        print(
            f"muxsps: consistency failure: sampled pipeline deviates {worst:.2f} standard errors "
            f"from the exact distribution (limit {MC_SIGMA_LIMIT})",
            file=sys.stderr,
        )
        return EXIT_CONSISTENCY
    return EXIT_OK


def _cmd_evaluate(spec: RunSpec) -> int:
    cfg = spec.source_config()
    out = output_distribution(cfg)
    meta = _meta(spec)
    meta.append(("truncation_deficit", repr(out.truncation_deficit)))
    status = EXIT_OK
    if spec.mc_samples:
        status = _mc_check(cfg, spec, meta)
    rows = [(i, p) for i, p in enumerate(out.probabilities)]
    _emit(spec, ["i", "P_i"], rows, meta)
    return status


def _cmd_optimize(spec: RunSpec) -> int:
    cfg = spec.source_config()
    result = optimize_units(cfg, spec.n_candidates)
    meta = _meta(spec)
    meta.append(("n_opt", str(result.n_opt)))
    meta.append(("p1_max", repr(result.p1_max)))
    meta.append(("lambda_opt", repr(result.lambda_opt)))
    meta.append(("p_i_at_optimum", " ".join(repr(p) for p in result.output_at_optimum.probabilities)))
    meta.append(("truncation_deficit", repr(result.output_at_optimum.truncation_deficit)))
    status = EXIT_OK
    if spec.mc_samples:
        best_cfg = replace(
            cfg, units=result.n_opt, dist=replace(cfg.dist, mean=result.lambda_opt)
        )
        status = _mc_check(best_cfg, spec, meta)
    rows = [
        (p.units, p.lambda_opt, p.p1, int(p.units == result.n_opt))
        for p in result.per_n_curve
    ]
    _emit(spec, ["N", "lambda_opt", "P_1_max", "is_opt"], rows, meta)
    return status


def _cmd_strategy_scan(spec: RunSpec) -> int:
    cfg = spec.source_config()
    scan = optimize_strategy(cfg, spec.j_max, spec.n_candidates)
    meta = _meta(spec)
    meta.append(("j_opt", str(scan.j_opt)))
    best = scan.best()
    meta.append(("p1_max", repr(best.p1_max)))
    rows = [
        (j, result.n_opt, result.lambda_opt, result.p1_max, int(j == scan.j_opt))
        for j, result in scan.results_by_j
    ]
    _emit(spec, ["J", "N_opt", "lambda_opt", "P_1_max", "is_opt"], rows, meta)
    return EXIT_OK


def _progress(label: str, total: int):
    """Progress reporter on stderr for runs of 100 cells or more."""
    if total < 100:
        return None

    def report(done: int, total: int) -> None:
        step = max(1, total // 50)
        if done % step == 0 or done == total:
            print(f"{label}: {done}/{total} cells", file=sys.stderr)

    return report


def _cmd_map(spec: RunSpec) -> int:
    sweep = spec.sweep
    if not sweep.vd_values or not sweep.vr_values:
        raise ConfigError("sweep.vd_values", "map needs both vd_values and vr_values")
    grid_vd, grid_vr = sweep.vd_values, sweep.vr_values
    if spec.mux.kind is not MuxKind.SYMMETRIC_SPATIAL:
        raise ConfigError("multiplexer.kind", "map sweeps router transmission; needs symmetric-spatial")
    result = comparison_map(
        grid_vd,
        grid_vr,
        j_max=spec.j_max,
        n_candidates=spec.n_candidates,
        tail_tol=spec.tail_tol,
        i_max=spec.i_max,
        resolution_cap=spec.detector.resolution_cap,
        workers=spec.workers,
        progress=_progress("map", len(grid_vd) * len(grid_vr)),
    )
    rows = []
    for iv, vd in enumerate(result.axis_vd):
        for ir, vr in enumerate(result.axis_vr):
            rows.append(
                (
                    float(vd),
                    float(vr),
                    result.p1_spd[iv, ir],
                    int(result.n_opt_spd[iv, ir]),
                    result.lambda_opt_spd[iv, ir],
                    result.p1_threshold[iv, ir],
                    int(result.n_opt_threshold[iv, ir]),
                    result.lambda_opt_threshold[iv, ir],
                    result.delta_p[iv, ir],
                    int(result.delta_m[iv, ir]),
                    int(result.j_opt[iv, ir]),
                    result.p1_jopt[iv, ir],
                    result.delta_p_jopt[iv, ir],
                )
            )
    header = [
        "V_D", "V_r",
        "P_1_max_spd", "N_opt_spd", "lambda_opt_spd",
        "P_1_max_th", "N_opt_th", "lambda_opt_th",
        "delta_P", "delta_m", "J_opt", "P_1_max_jopt", "delta_P_jopt",
    ]
    _emit(spec, header, rows, _meta(spec))
    return EXIT_OK


def _cmd_table(spec: RunSpec) -> int:
    sweep = spec.sweep
    if sweep.vr_values:
        return _table_router_grid(spec)
    if sweep.lambda_values:
        return _table_curves(spec)
    if sweep.vd_values:
        return _table_scenarios(spec)
    raise ConfigError("sweep", "table needs vd_values (+ vr_values / n_values) or lambda_values")


def _router_cell(task: tuple) -> tuple:
    spec, vd, vr = task
    cfg = replace(
        spec.source_config(),
        detector=replace(spec.detector, efficiency=vd),
        mux=replace(spec.mux, router_transmission=vr),
    )
    result = optimize_units(cfg, spec.n_candidates)
    return (vd, vr, result.n_opt, result.p1_max, result.lambda_opt)


def _table_router_grid(spec: RunSpec) -> int:
    if spec.mux.kind is not MuxKind.SYMMETRIC_SPATIAL:
        raise ConfigError("sweep.vr_values", "router-transmission sweeps need kind=symmetric-spatial")
    tasks = [(spec, vd, vr) for vd in spec.sweep.vd_values for vr in spec.sweep.vr_values]
    rows = run_tasks(_router_cell, tasks, spec.workers, _progress("table", len(tasks)))
    _emit(spec, ["V_D", "V_r", "N_opt", "P_1_max", "lambda_opt"], rows, _meta(spec))
    return EXIT_OK


def _table_curves(spec: RunSpec) -> int:
    cfg = spec.source_config()
    unit_counts = spec.sweep.n_values or (spec.units,)
    rows = []
    for units in unit_counts:
        for mean in spec.sweep.lambda_values:
            out = output_distribution(
                replace(cfg, units=units, dist=replace(cfg.dist, mean=mean))
            )
            rows.append((units, mean, out[1]))
    _emit(spec, ["N", "lambda", "P_1"], rows, _meta(spec))
    return EXIT_OK


def _scenario_cell(task: tuple) -> tuple:
    spec, vd, label, strategy, pair_kind, units = task
    cfg = replace(
        spec.source_config(),
        detector=replace(spec.detector, efficiency=vd),
        strategy=strategy,
        dist=PairDistribution(pair_kind, spec.source.mean),
    )
    if units is None:
        result = optimize_units(cfg, spec.n_candidates)
    else:
        result = optimize_units(replace(cfg, units=units), (units,))
    return (vd, pair_kind.value, label, result.n_opt, result.p1_max, result.lambda_opt)


def _table_scenarios(spec: RunSpec) -> int:
    sweep = spec.sweep
    if sweep.strategies:
        strategies = [(token, strategy_from_token(token)) for token in sweep.strategies]
    else:
        strategies = [(spec.strategy.label, spec.strategy)]
    pair_kinds = sweep.pair_kinds or (spec.source.kind,)
    unit_counts: tuple = sweep.n_values or (None,)
    tasks = [
        (spec, vd, label, strategy, pair_kind, units)
        for vd in sweep.vd_values
        for pair_kind in pair_kinds
        for label, strategy in strategies
        for units in unit_counts
    ]
    rows = run_tasks(_scenario_cell, tasks, spec.workers, _progress("table", len(tasks)))
    _emit(spec, ["V_D", "pair_kind", "strategy", "N_opt", "P_1_max", "lambda_opt"], rows, _meta(spec))
    return EXIT_OK


_DISPATCH = {
    "evaluate": _cmd_evaluate,
    "optimize": _cmd_optimize,
    "strategy-scan": _cmd_strategy_scan,
    "map": _cmd_map,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _resolve_spec(args)
        step = getattr(args, "grid_step", None)
        if step is not None and spec.sweep.vd_values and spec.sweep.vr_values:
            # re-gridded axes must also show up in the provenance comments
            sweep = spec.sweep
            spec = replace(
                spec,
                sweep=replace(
                    sweep,
                    vd_values=inclusive_range("--grid-step", sweep.vd_values[0], sweep.vd_values[-1], step),
                    vr_values=inclusive_range("--grid-step", sweep.vr_values[0], sweep.vr_values[-1], step),
                ),
            )
        if args.dump_config:
            _write(spec, dump_config(spec))
            return EXIT_OK
        return _DISPATCH[spec.command](spec)
    except ConfigError as exc:
        print(f"muxsps: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"muxsps: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
