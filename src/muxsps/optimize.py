"""Maximization of the single-photon output probability.

For a fixed loss configuration the free design knobs are the pump strength
(mean pair number per pulse), the number of multiplexed units, and — when
the detectors resolve photon number — the accepted-count set.  The search
is exhaustive over unit counts and accepted-set sizes, with a coarse
grid-then-golden-section refinement in the pump strength, so no
unimodality assumption is load-bearing.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import lru_cache, partial
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


@lru_cache(maxsize=4)
def _coarse_grid(lo: float = LAMBDA_MIN, hi: float = LAMBDA_MAX, points: int = COARSE_POINTS) -> np.ndarray:
    # hybrid grid: log spacing resolves optima near zero pump, linear
    # spacing covers the strongly pumped regime
    half = points // 2
    grid = np.unique(np.concatenate([np.geomspace(lo, hi, half), np.linspace(lo, hi, points - half)]))
    grid.setflags(write=False)
    return grid


def _p1_at(cfg: SourceConfig, mean: float) -> float:
    return output_distribution(replace(cfg, dist=replace(cfg.dist, mean=mean)))[1]


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def maximize_over_lambda(cfg_template: SourceConfig, units: int) -> tuple[float, float]:
    """Best pump mean and single-photon probability at a fixed unit count.

    A vectorized coarse scan brackets the peak; golden-section refinement
    and the returned probability use the one canonical engine path.
    """
    cfg = replace(cfg_template, units=units)
    grid = _coarse_grid()
    values = p1_profile(cfg, grid)
    k = int(np.argmax(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    lam, p1 = _golden_max(lambda m: _p1_at(cfg, m), lo, hi, LAMBDA_TOL)
    coarse_lam, coarse_p1 = float(grid[k]), _p1_at(cfg, float(grid[k]))
    if coarse_p1 > p1:  # grid point can win if the bracket was degenerate
        lam, p1 = coarse_lam, coarse_p1
    return float(lam), float(p1)


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
    curve = []
    best: CurvePoint | None = None
    for units in candidates:
        lam, p1 = maximize_over_lambda(cfg_template, units)
        point = CurvePoint(units=units, lambda_opt=lam, p1=p1)
        curve.append(point)
        if best is None or point.p1 > best.p1:
            best = point
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
        per_n_curve=tuple(curve),
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
    results = []
    best_j, best_p1 = None, -1.0
    for j in range(1, j_max + 1):
        cfg = replace(cfg_template, strategy=HeraldingStrategy.up_to(j))
        result = optimize_units(cfg, candidates)
        results.append((j, result))
        if best_j is None or result.p1_max > best_p1:
            best_j, best_p1 = j, result.p1_max
    return StrategyScanResult(j_opt=best_j, results_by_j=tuple(results))


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
