"""Maximization of the single-photon output probability.

For a fixed loss configuration the free design knobs are the pump strength
(mean pair number per pulse), the number of multiplexed units, and — when
the detectors resolve photon number — the accepted-count set.  The search
is exhaustive over unit counts and accepted-set sizes.  In the pump
strength, every unit count of a scan is one lane of the batched kernel
``p1_profile``: a coarse grid brackets each lane's peak and golden-section
refinement then runs in lockstep over all lanes, so no unimodality
assumption is load-bearing.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import OutputDistribution, SourceConfig, output_distribution, p1_profile
from .losses import MultiplexerModel, MuxKind
from .statistics import DetectorModel, HeraldingStrategy, PairDistribution, PairKind

LAMBDA_MIN = 1e-4
LAMBDA_MAX = 20.0
COARSE_POINTS = 200
LAMBDA_TOL = 1e-4

DEFAULT_POW2_CAP = 1024
DEFAULT_CHAIN_CAP = 128
DEFAULT_J_MAX = 6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CurvePoint:
    """Best pump strength and single-photon probability at one unit count."""

    units: int
    lambda_opt: float
    p1: float


@dataclass(frozen=True)
class OptimizationResult:
    n_opt: int
    lambda_opt: float
    p1_max: float
    strategy_used: HeraldingStrategy
    output_at_optimum: OutputDistribution
    per_n_curve: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class StrategyScanResult:
    j_opt: int
    results_by_j: tuple[tuple[int, OptimizationResult], ...]

    def best(self) -> OptimizationResult:
        return dict(self.results_by_j)[self.j_opt]


@dataclass(frozen=True, eq=False)
class ComparisonMap:
    """Cell-by-cell comparison of heralding modes over a loss-parameter grid.

    ``delta_p`` is the single-photon-probability gain of exactly-one-photon
    heralding over threshold heralding; ``delta_m`` the difference in
    optimal router levels (threshold minus single-photon); ``j_opt`` the
    best accepted-count cutoff; ``delta_p_jopt`` the gain of the optimized
    cutoff over the better of the two fixed modes.
    """

    axis_vd: np.ndarray
    axis_vr: np.ndarray
    delta_p: np.ndarray
    delta_m: np.ndarray
    delta_p_jopt: np.ndarray
    j_opt: np.ndarray
    p1_spd: np.ndarray
    p1_threshold: np.ndarray
    p1_jopt: np.ndarray
    n_opt_spd: np.ndarray
    n_opt_threshold: np.ndarray
    lambda_opt_spd: np.ndarray
    lambda_opt_threshold: np.ndarray


@cache
def _coarse_grid() -> np.ndarray:
    # hybrid grid: log spacing resolves optima near zero pump, linear
    # spacing covers the strongly pumped regime
    lo, hi, half = LAMBDA_MIN, LAMBDA_MAX, COARSE_POINTS // 2
    grid = np.unique(np.concatenate([np.geomspace(lo, hi, half), np.linspace(lo, hi, COARSE_POINTS - half)]))
    grid.setflags(write=False)
    return grid


def maximize_over_lambda(cfg_template: SourceConfig, units: Sequence[int]) -> tuple[CurvePoint, ...]:
    """Best pump mean and single-photon probability at each unit count.

    Each unit count is one lane of ``p1_profile``.  A coarse grid scan
    brackets every lane's peak, then golden-section refinement runs in
    lockstep over the lanes, each stopping once its bracket is narrower
    than ``LAMBDA_TOL``.  A lane returns its bracket midpoint, or its best
    grid point if that is higher (the bracket can be degenerate).
    """
    lanes, grid = np.asarray(units, dtype=int), _coarse_grid()
    k = np.argmax(p1_profile(cfg_template, grid, lanes), axis=1)
    lo, hi = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)]
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = p1_profile(cfg_template, np.stack([c, d], axis=1), lanes).T.copy()
    live = np.flatnonzero(hi - lo > LAMBDA_TOL)
    while live.size:
        left = fc[live] > fd[live]
        a, b = live[left], live[~left]  # lanes keeping their left / right part
        hi[a], d[a], fd[a] = d[a], c[a], fc[a]
        c[a] = hi[a] - _INV_PHI * (hi[a] - lo[a])
        lo[b], c[b], fc[b] = c[b], d[b], fd[b]
        d[b] = lo[b] + _INV_PHI * (hi[b] - lo[b])
        f = p1_profile(cfg_template, np.where(left, c[live], d[live])[:, None], lanes[live])[:, 0]
        fc[a], fd[b] = f[left], f[~left]
        live = live[hi[live] - lo[live] > LAMBDA_TOL]
    mid = 0.5 * (lo + hi)
    p1_mid, p1_grid = p1_profile(cfg_template, np.stack([mid, grid[k]], axis=1), lanes).T
    grid_wins = p1_grid > p1_mid
    lam, p1 = np.where(grid_wins, grid[k], mid), np.where(grid_wins, p1_grid, p1_mid)
    return tuple(CurvePoint(int(n), float(x), float(y)) for n, x, y in zip(lanes, lam, p1))


def default_unit_candidates(mux: MultiplexerModel, units: int) -> tuple[int, ...]:
    """Default unit-count scan per topology.

    The release-latest loop saturates with the unit count instead of
    peaking, so its unit count is treated as a fixed design input.
    """
    if mux.kind is MuxKind.TIME_LOOP_LATEST:
        return (units,)
    if mux.requires_power_of_two:
        return tuple(2**k for k in range(DEFAULT_POW2_CAP.bit_length()))
    return tuple(range(1, DEFAULT_CHAIN_CAP + 1))


def optimize_units(
    cfg_template: SourceConfig,
    n_candidates: Iterable[int] | None = None,
) -> OptimizationResult:
    """Scan unit counts, maximizing over pump strength at each one.

    Ties in the single-photon probability break toward the smaller unit
    count (less hardware).  The release-latest loop keeps its configured
    unit count whatever the candidates (see ``default_unit_candidates``).
    """
    if n_candidates is None or cfg_template.mux.kind is MuxKind.TIME_LOOP_LATEST:
        candidates: Sequence[int] = default_unit_candidates(cfg_template.mux, cfg_template.units)
    else:
        candidates = sorted(set(int(n) for n in n_candidates))
        if not candidates:
            raise ValueError("n_candidates must be non-empty")
    curve = maximize_over_lambda(cfg_template, candidates)
    best = max(curve, key=lambda point: point.p1)  # the first maximum: fewest units
    at_best = replace(
        cfg_template,
        units=best.units,
        dist=replace(cfg_template.dist, mean=best.lambda_opt),
    )
    return OptimizationResult(
        n_opt=best.units,
        lambda_opt=best.lambda_opt,
        p1_max=best.p1,
        strategy_used=cfg_template.strategy,
        output_at_optimum=output_distribution(at_best),
        per_n_curve=curve,
    )


def optimize_strategy(
    cfg_template: SourceConfig,
    j_max: int,
    n_candidates: Iterable[int] | None = None,
) -> StrategyScanResult:
    """Scan accepted-count cutoffs 1..j_max, optimizing units and pump for each.

    Ties break toward the smaller cutoff.
    """
    if not 1 <= j_max <= cfg_template.detector.resolution_cap:
        raise ValueError(
            f"j_max must be within [1, resolution_cap={cfg_template.detector.resolution_cap}], got {j_max}"
        )
    candidates = tuple(n_candidates) if n_candidates is not None else None
    results = tuple(
        (j, optimize_units(replace(cfg_template, strategy=HeraldingStrategy.up_to(j)), candidates))
        for j in range(1, j_max + 1)
    )
    best_j, _ = max(results, key=lambda item: item[1].p1_max)  # the first maximum: smallest cutoff
    return StrategyScanResult(j_opt=best_j, results_by_j=results)


def run_tasks(
    fn: Callable,
    tasks: Sequence,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list:
    """``[fn(task) for task in tasks]``, in worker processes when workers > 1.

    Results keep the task order, so they do not depend on the worker count;
    ``fn`` and the tasks must pickle.  ``progress(done, total)`` is called
    after each finished task.
    """
    results: list = []
    with ExitStack() as stack:
        outputs: Iterable = map(fn, tasks)
        if workers is not None and workers > 1 and len(tasks) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            outputs = pool.map(fn, tasks, chunksize=max(1, len(tasks) // (workers * 4)))
        for output in outputs:
            results.append(output)
            if progress is not None:
                progress(len(results), len(tasks))
    return results


def _map_cell(
    cell: tuple[float, float],
    *,
    j_max: int,
    candidates: tuple[int, ...] | None,
    tail_tol: float,
    i_max: int,
    resolution_cap: int,
    make_mux: Callable[[float], MultiplexerModel],
) -> tuple[OptimizationResult, StrategyScanResult]:
    """Threshold optimum and cutoff scan at one (V_D, V_r) cell."""
    vd, vr = cell
    template = SourceConfig(
        dist=PairDistribution(PairKind.POISSONIAN, 0.5),
        detector=DetectorModel(vd, resolution_cap),
        strategy=HeraldingStrategy.threshold(),
        mux=make_mux(vr),
        units=1,
        tail_tol=tail_tol,
        i_max=i_max,
    )
    return optimize_units(template, candidates), optimize_strategy(template, j_max, candidates)


def comparison_map(
    grid_vd: Sequence[float],
    grid_vr: Sequence[float],
    *,
    j_max: int = DEFAULT_J_MAX,
    n_candidates: Iterable[int] | None = None,
    tail_tol: float = 1e-12,
    i_max: int = 8,
    resolution_cap: int = 10,
    make_mux: Callable[[float], MultiplexerModel] | None = None,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ComparisonMap:
    """Compare heralding modes cell by cell over a loss-parameter grid.

    ``make_mux`` builds the multiplexer from the second-axis value (the
    default is a symmetric spatial tree with that router transmission; a
    custom callable must be module-level when workers > 1 so it pickles).
    Cells are independent and come back in grid order, so the map is
    identical for any worker count.
    """
    axis_vd = np.asarray(list(grid_vd), dtype=float)
    axis_vr = np.asarray(list(grid_vr), dtype=float)
    if axis_vd.size == 0 or axis_vr.size == 0:
        raise ValueError("grids must be non-empty")
    if np.any((axis_vd < 0) | (axis_vd > 1)) or np.any((axis_vr < 0) | (axis_vr > 1)):
        raise ValueError("grid values must be within [0, 1]")
    cell_fn = partial(
        _map_cell,
        j_max=j_max,
        candidates=tuple(n_candidates) if n_candidates is not None else None,
        tail_tol=tail_tol,
        i_max=i_max,
        resolution_cap=resolution_cap,
        make_mux=make_mux or MultiplexerModel.symmetric_spatial,
    )
    cells = [(float(vd), float(vr)) for vd in axis_vd for vr in axis_vr]
    results = run_tasks(cell_fn, cells, workers, progress)

    def grid(values: Iterable, dtype: type = float) -> np.ndarray:
        return np.array(list(values), dtype=dtype).reshape(axis_vd.size, axis_vr.size)

    threshold = [t for t, _ in results]
    # the scan's j=1 entry is exactly-one-photon heralding
    spd = [scan.results_by_j[0][1] for _, scan in results]
    p1_spd = grid(r.p1_max for r in spd)
    p1_threshold = grid(r.p1_max for r in threshold)
    p1_jopt = grid(scan.best().p1_max for _, scan in results)
    n_spd = grid((r.n_opt for r in spd), int)
    n_threshold = grid((r.n_opt for r in threshold), int)
    return ComparisonMap(
        axis_vd=axis_vd,
        axis_vr=axis_vr,
        delta_p=p1_spd - p1_threshold,
        delta_m=np.rint(np.log2(n_threshold) - np.log2(n_spd)).astype(int),
        delta_p_jopt=p1_jopt - np.maximum(p1_spd, p1_threshold),
        j_opt=grid((scan.j_opt for _, scan in results), int),
        p1_spd=p1_spd,
        p1_threshold=p1_threshold,
        p1_jopt=p1_jopt,
        n_opt_spd=n_spd,
        n_opt_threshold=n_threshold,
        lambda_opt_spd=grid(r.lambda_opt for r in spd),
        lambda_opt_threshold=grid(r.lambda_opt for r in threshold),
    )
