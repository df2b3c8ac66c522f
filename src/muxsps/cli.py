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

import numpy as np

from . import __version__
from .config import PRESETS, ConfigError, RunSpec, check_sweep, config_field, dump_config, flatten_config, format_value, inclusive_range, parse_config
from .engine import OutputDistribution, SourceConfig, output_distribution
from .optimize import (
    _cutoffs, _unit_candidates, comparison_map, maximize_over_lambda, optimize_strategies, optimize_units, run_tasks, search_blocks
)
from .simulate import simulate
from .statistics import PairKind

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
        if command in ("map", "table"):
            p.add_argument(
                "--workers", type=int, metavar="K", default=os.cpu_count(), help="parallel workers (default: all cores)"
            )
        if command in ("evaluate", "optimize"):
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
        seed=getattr(args, "seed", 0),
        mc_samples=getattr(args, "mc_check", None),
        workers=getattr(args, "workers", None),
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


def _mc_check(cfg: SourceConfig, exact: OutputDistribution, spec: RunSpec, meta: list[tuple[str, str]]) -> int:
    """Sample the pipeline and compare against its exact distribution."""
    estimate = simulate(cfg, spec.mc_samples, spec.seed)
    top = min(MC_CHECK_I_MAX, cfg.i_max)  # the exact distribution ends at i_max
    worst = max(estimate.sigma(i, exact[i]) for i in range(top + 1))
    meta.append(("mc_check", f"samples={spec.mc_samples} seed={spec.seed} max_sigma={worst:.3f} (i<={top})"))
    if worst > MC_SIGMA_LIMIT:
        print(
            f"muxsps: consistency failure: sampled pipeline deviates {worst:.2f} standard errors "
            f"from the exact distribution (limit {MC_SIGMA_LIMIT})",
            file=sys.stderr,
        )
        return EXIT_CONSISTENCY
    return EXIT_OK


def _cmd_evaluate(spec: RunSpec) -> int:
    cfg = spec.cfg
    out = output_distribution(cfg)
    meta = _meta(spec)
    meta.append(("truncation_deficit", repr(out.truncation_deficit)))
    status = EXIT_OK
    if spec.mc_samples is not None:
        status = _mc_check(cfg, out, spec, meta)
    rows = [(i, p) for i, p in enumerate(out.probabilities)]
    _emit(spec, ["i", "P_i"], rows, meta)
    return status


def _cmd_optimize(spec: RunSpec) -> int:
    cfg = spec.cfg
    result = optimize_units(cfg, spec.n_candidates)
    n_opt, p1_max, lambda_opt = result.n_opt.item(), result.p1_max.item(), result.lambda_opt.item()
    meta = _meta(spec)
    meta.append(("n_opt", str(n_opt)))
    meta.append(("p1_max", repr(p1_max)))
    meta.append(("lambda_opt", repr(lambda_opt)))
    best_cfg = replace(cfg, units=n_opt, dist=replace(cfg.dist, mean=lambda_opt))
    exact = output_distribution(best_cfg)
    meta.append(("p_i_at_optimum", " ".join(repr(p) for p in exact.probabilities)))
    meta.append(("truncation_deficit", repr(exact.truncation_deficit)))
    status = EXIT_OK
    if spec.mc_samples is not None:
        status = _mc_check(best_cfg, exact, spec, meta)
    curve = zip(result.units.tolist(), result.lambdas[0].tolist(), result.p1s[0].tolist())
    rows = [(units, lam, p1, int(units == n_opt)) for units, lam, p1 in curve]
    _emit(spec, ["N", "lambda_opt", "P_1_max", "is_opt"], rows, meta)
    return status


def _cmd_strategy_scan(spec: RunSpec) -> int:
    result = optimize_strategies(spec.cfg, _cutoffs(spec.cfg, spec.j_max), spec.n_candidates)
    j_opt = int(np.argmax(result.p1_max)) + 1  # the first maximum: ties go to the smaller cutoff
    meta = [*_meta(spec), ("j_opt", str(j_opt)), ("p1_max", repr(result.p1_max[j_opt - 1].item()))]
    optima = zip(result.n_opt.tolist(), result.lambda_opt.tolist(), result.p1_max.tolist())
    rows = [(j, *optimum, int(j == j_opt)) for j, optimum in enumerate(optima, start=1)]
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
    sweep, cfg = spec.sweep, spec.cfg
    if not sweep.vd_values or not sweep.vr_values:
        raise ConfigError("sweep.vd_values", "map needs both vd_values and vr_values")
    # comparison_map models a Poissonian source on a tree without generic loss
    if cfg.dist.kind is not PairKind.POISSONIAN:
        raise ConfigError("source.kind", f"map supports only kind={PairKind.POISSONIAN.value}, got {cfg.dist.kind.value}")
    if cfg.mux.generic_transmission != 1.0:
        raise ConfigError("multiplexer.generic_transmission", f"map supports only 1.0, got {cfg.mux.generic_transmission}")
    result = comparison_map(
        sweep.vd_values,
        sweep.vr_values,
        j_max=spec.j_max,
        n_candidates=spec.n_candidates,
        tail_tol=cfg.tail_tol,
        i_max=cfg.i_max,
        resolution_cap=cfg.detector.resolution_cap,
        workers=spec.workers,
        progress=_progress("map", len(sweep.vd_values) * len(sweep.vr_values)),
    )
    vd, vr = np.meshgrid(result.axis_vd, result.axis_vr, indexing="ij")
    # delta_m: optimal router levels of threshold minus single-photon heralding
    delta_m = np.rint(np.log2(result.n_opt_threshold) - np.log2(result.n_opt_spd)).astype(int)
    columns = [
        ("V_D", vd),
        ("V_r", vr),
        ("P_1_max_spd", result.p1_spd),
        ("N_opt_spd", result.n_opt_spd),
        ("lambda_opt_spd", result.lambda_opt_spd),
        ("P_1_max_th", result.p1_threshold),
        ("N_opt_th", result.n_opt_threshold),
        ("lambda_opt_th", result.lambda_opt_threshold),
        ("delta_P", result.p1_spd - result.p1_threshold),
        ("delta_m", delta_m),
        ("J_opt", result.j_opt),
        ("P_1_max_jopt", result.p1_jopt),
        ("delta_P_jopt", result.p1_jopt - np.maximum(result.p1_spd, result.p1_threshold)),
    ]
    rows = zip(*(values.ravel() for _, values in columns))
    _emit(spec, [name for name, _ in columns], rows, _meta(spec))
    return EXIT_OK


def _router_cells(task: tuple) -> list[list[tuple]]:
    """The row of each (V_D, V_r) cell of a block of V_D and V_r values, from one lane search."""
    spec, vds, vrs = task
    detectors = [replace(spec.cfg.detector, efficiency=vd) for vd in vds]
    muxes = [replace(spec.cfg.mux, router_transmission=vr) for vr in vrs]
    result = optimize_strategies(spec.cfg, [spec.cfg.strategy], spec.n_candidates, muxes, detectors)
    optima = zip(result.n_opt.tolist(), result.p1_max.tolist(), result.lambda_opt.tolist())
    cells = [(vd, vr) for vd in vds for vr in vrs]
    return [[(*cell, *optimum)] for cell, optimum in zip(cells, optima)]


def _curve_rows(task: tuple) -> list[list[tuple]]:
    """Rows of one N, every swept lambda, as one cell."""
    spec, units = task
    cfg = replace(spec.cfg, i_max=1)  # the table reads P_1 alone
    rows = []
    for mean in spec.sweep.lambda_values:
        out = output_distribution(replace(cfg, units=units, dist=replace(cfg.dist, mean=mean)))
        rows.append((units, mean, out[1]))
    return [rows]


def _scenario_cells(task: tuple) -> list[list[tuple]]:
    """Rows of each V_D of a block, for one pair kind and every swept strategy, from one lane search."""
    spec, pair_kind, vds = task
    sweep, cfg = spec.sweep, replace(spec.cfg, dist=replace(spec.cfg.dist, kind=pair_kind))
    labels, strategies = zip(*(sweep.strategies or [(cfg.strategy.label, cfg.strategy)]))
    detectors = [replace(cfg.detector, efficiency=vd) for vd in vds]
    if sweep.n_values:  # each row is one (V_D, strategy, N) lane
        lanes = [(detector, strategy, n) for detector in detectors for strategy in strategies for n in sweep.n_values]
        detector_of, strategy_of, units = zip(*lanes)
        lam, p1 = maximize_over_lambda(cfg, units, strategy_of, None, detector_of)
        labels = [label for label in labels for _ in sweep.n_values]
        optima = zip(units, p1.tolist(), lam.tolist())
    else:
        result = optimize_strategies(cfg, strategies, spec.n_candidates, None, detectors)
        optima = zip(result.n_opt.tolist(), result.p1_max.tolist(), result.lambda_opt.tolist())
    rows = [(vd, pair_kind.value, label) for vd in vds for label in labels]
    rows = [(*row, *optimum) for row, optimum in zip(rows, optima)]
    return [rows[k : k + len(labels)] for k in range(0, len(rows), len(labels))]


def _cmd_table(spec: RunSpec) -> int:
    sweep, cfg = spec.sweep, spec.cfg
    kinds: Sequence = (None,)  # the tasks go kind by kind; the rows interleave the kinds' cells, cell by cell
    if sweep.vr_values:
        header, fn = ["V_D", "V_r", "N_opt", "P_1_max", "lambda_opt"], _router_cells
        vds, vrs, lanes = sweep.vd_values, sweep.vr_values, len(_unit_candidates(cfg, spec.n_candidates))
        tasks = [(spec, vds[rows], vrs[cols]) for rows, cols in search_blocks(len(vds), len(vrs), lanes)]
        sizes = [len(task[1]) * len(task[2]) for task in tasks]
    elif sweep.lambda_values:
        header, fn = ["N", "lambda", "P_1"], _curve_rows
        tasks = [(spec, units) for units in sweep.n_values or (cfg.units,)]
        sizes = [1] * len(tasks)
    elif sweep.vd_values:
        header, fn = ["V_D", "pair_kind", "strategy", "N_opt", "P_1_max", "lambda_opt"], _scenario_cells
        kinds, vds = sweep.pair_kinds or (cfg.dist.kind,), sweep.vd_values
        lanes = len(sweep.strategies or (None,)) * len(sweep.n_values or _unit_candidates(cfg, spec.n_candidates))
        tasks = [(spec, kind, vds[cols]) for kind in kinds for _, cols in search_blocks(1, len(vds), lanes)]
        sizes = [len(task[2]) for task in tasks]
    else:
        raise ConfigError("sweep", "table needs vd_values (+ vr_values / n_values) or lambda_values")
    cells = [cell for cells in run_tasks(fn, tasks, spec.workers, _progress("table", sum(sizes)), sizes) for cell in cells]
    per_kind = len(cells) // len(kinds)
    _emit(spec, header, [row for k in range(per_kind) for cell in cells[k::per_kind] for row in cell], _meta(spec))
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
            sweep = replace(
                sweep,
                vd_values=inclusive_range("--grid-step", sweep.vd_values[0], sweep.vd_values[-1], step),
                vr_values=inclusive_range("--grid-step", sweep.vr_values[0], sweep.vr_values[-1], step),
            )
            spec = check_sweep(replace(spec, sweep=sweep))
        if args.dump_config:
            _write(spec, dump_config(spec))
            return EXIT_OK
        with config_field():  # n_candidates and j_max are checked only by the commands that use them
            return _DISPATCH[spec.command](spec)
    except ConfigError as exc:
        print(f"muxsps: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"muxsps: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
