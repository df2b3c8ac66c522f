"""Maximization of the single-photon output probability.

For a fixed loss configuration the free design knobs are the pump strength
(mean pair number per pulse), the number of multiplexed units, and the
heralding strategy (threshold, exactly-one-photon, or an accepted-count
cutoff).  The search is exhaustive over unit counts and strategies.  In
the pump strength, every (strategy, multiplexer, unit count) triple is one
lane of the engine's one kernel ``p1_profile``, asked for P_1 alone: a
coarse grid brackets each lane's peak and golden-section refinement then
runs in lockstep over all lanes, so no unimodality assumption is
load-bearing.  A unit scan, a cutoff scan, a chunk of comparison-map cells
sharing one detector efficiency and a row of router-grid table cells are
each one such search, an ``optimize_strategies`` call.  Results carry the
optimum, not the output distribution there; ``output_distribution`` gives
that.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import DEFAULT_I_MAX, SourceConfig, p1_profile, profile_lanes
from .losses import MultiplexerModel, MuxKind, validate_unit_count
from .statistics import (
    DEFAULT_RESOLUTION_CAP, DEFAULT_TAIL_TOL, DetectorModel, HeraldingStrategy, PairDistribution, PairKind, ParameterError
)

LAMBDA_MIN = 1e-4
LAMBDA_MAX = 20.0
COARSE_POINTS = 200
LAMBDA_TOL = 1e-4

DEFAULT_POW2_CAP = 1024
DEFAULT_CHAIN_CAP = 128
DEFAULT_J_MAX = 6
# map cells per lane search: 12 cells of 77 lanes (pow2:1024, j_max 6) keep a
# search's temporaries near 4 MB, below the map's other memory
MAP_CHUNK_CELLS = 12

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
    per_n_curve: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class StrategyScanResult:
    results_by_j: tuple[tuple[int, OptimizationResult], ...]

    @property
    def j_opt(self) -> int:
        """The best cutoff; ties break toward the smaller cutoff."""
        return max(self.results_by_j, key=lambda item: (item[1].p1_max, -item[0]))[0]

    def best(self) -> OptimizationResult:
        return dict(self.results_by_j)[self.j_opt]


@dataclass(frozen=True, eq=False)
class ComparisonMap:
    """Cell-by-cell comparison of heralding modes over a loss-parameter grid.

    Each cell holds the optimum of exactly-one-photon heralding (``spd``),
    of threshold heralding, and of the best accepted-count cutoff ``j_opt``.
    """

    axis_vd: np.ndarray
    axis_vr: np.ndarray
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
    points = np.concatenate([np.geomspace(lo, hi, half), np.linspace(lo, hi, COARSE_POINTS - half)])
    grid = np.array(sorted(set(points.tolist())))  # plain np.unique imports numpy.ma (~20 ms)
    grid.setflags(write=False)
    return grid


def maximize_over_lambda(
    cfg_template: SourceConfig,
    units: Sequence[int],
    strategies: Sequence[HeraldingStrategy] | None = None,
    muxes: Sequence[MultiplexerModel] | None = None,
) -> tuple[CurvePoint, ...]:
    """Best pump mean and single-photon probability at each lane.

    Lane i is unit count ``units[i]`` heralded with ``strategies[i]``
    behind multiplexer ``muxes[i]`` (default the template's strategy and
    multiplexer for every lane), one lane of ``p1_profile``; the herald
    weights and transmissions are computed once for the whole search.  A
    coarse grid scan, with one series length at the grid's top, brackets
    every lane's peak.  Golden-section refinement then runs in lockstep over
    the lanes, each summed over its own series, fixed at its bracket's upper
    end, and stopping once its bracket is narrower than ``LAMBDA_TOL``.  A
    lane returns its bracket midpoint, or its best grid point if that is
    higher (the bracket can be degenerate).
    """
    grid = _coarse_grid()
    lanes = profile_lanes(cfg_template, units, strategies, muxes, max_mean=float(grid[-1]))
    k = np.argmax(p1_profile(cfg_template, grid, lanes), axis=1)
    lo, hi = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)]
    lanes = lanes.with_series(cfg_template, hi)
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = p1_profile(cfg_template, np.stack([c, d], axis=1), lanes).T
    live = np.flatnonzero(hi - lo > LAMBDA_TOL)
    # the live lanes' brackets (low, high), probes (c, d) and values, dropped as lanes finish
    low, high, c, d, fc, fd = lo[live], hi[live], c[live], d[live], fc[live], fd[live]
    while live.size:
        left = fc > fd  # lanes keeping the left part of their bracket
        high, low = np.where(left, d, high), np.where(left, low, c)
        step, kept = _INV_PHI * (high - low), np.where(left, fc, fd)
        c, d = np.where(left, high - step, d), np.where(left, c, low + step)
        f = p1_profile(cfg_template, np.where(left, c, d)[:, None], lanes.take(live))[:, 0]
        fc, fd = np.where(left, f, kept), np.where(left, kept, f)
        going = high - low > LAMBDA_TOL
        if not going.all():
            lo[live[~going]], hi[live[~going]] = low[~going], high[~going]
            live, low, high, c, d, fc, fd = (x[going] for x in (live, low, high, c, d, fc, fd))
    mid = 0.5 * (lo + hi)
    p1_mid, p1_grid = p1_profile(cfg_template, np.stack([mid, grid[k]], axis=1), lanes).T
    grid_wins = p1_grid > p1_mid
    lam, p1 = np.where(grid_wins, grid[k], mid), np.where(grid_wins, p1_grid, p1_mid)
    return tuple(map(CurvePoint, lanes.units.tolist(), lam.tolist(), p1.tolist()))


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


def _unit_candidates(cfg_template: SourceConfig, n_candidates: Iterable[int] | None) -> tuple[int, ...]:
    if n_candidates is not None:
        candidates = tuple(sorted(set(int(n) for n in n_candidates)))
        if not candidates:
            raise ParameterError("n_candidates", "must be non-empty")
        for units in candidates:
            validate_unit_count(cfg_template.mux, units, "n_candidates")
        if cfg_template.mux.kind is not MuxKind.TIME_LOOP_LATEST:
            return candidates
    return default_unit_candidates(cfg_template.mux, cfg_template.units)


def optimize_strategies(
    cfg_template: SourceConfig,
    strategies: Sequence[HeraldingStrategy],
    n_candidates: Iterable[int] | None = None,
    muxes: Sequence[MultiplexerModel] | None = None,
) -> tuple[OptimizationResult, ...]:
    """Best unit count and pump strength for each multiplexer and heralding strategy.

    One lockstep pump-mean search covers every (multiplexer, strategy, unit
    count) lane; results come in (multiplexer, strategy) order.  ``muxes``
    defaults to the template's own multiplexer; the unit candidates come
    from the template, so the multiplexers should share its topology.
    Ties break toward the smaller unit count (less hardware).  The
    release-latest loop keeps its configured unit count whatever the
    candidates (see ``default_unit_candidates``).
    """
    candidates = _unit_candidates(cfg_template, n_candidates)
    muxes = (cfg_template.mux,) if muxes is None else muxes
    lanes = [(mux, strategy, n) for mux in muxes for strategy in strategies for n in candidates]
    mux_of, strategy_of, units = zip(*lanes)
    curve = maximize_over_lambda(cfg_template, units, strategy_of, mux_of)
    results = []
    for k, strategy in enumerate(list(strategies) * len(muxes)):
        per_n = curve[k * len(candidates) : (k + 1) * len(candidates)]
        best = max(per_n, key=lambda point: point.p1)  # the first maximum: fewest units
        results.append(OptimizationResult(best.units, best.lambda_opt, best.p1, strategy, per_n))
    return tuple(results)


def optimize_units(
    cfg_template: SourceConfig,
    n_candidates: Iterable[int] | None = None,
) -> OptimizationResult:
    """``optimize_strategies`` for the template's own heralding strategy."""
    (result,) = optimize_strategies(cfg_template, [cfg_template.strategy], n_candidates)
    return result


def _cutoffs(cfg_template: SourceConfig, j_max: int) -> list[HeraldingStrategy]:
    """Accepted-count cutoffs 1..j_max, once j_max is checked against the detector."""
    cap = cfg_template.detector.resolution_cap
    if not 1 <= j_max <= cap:
        raise ParameterError("j_max", f"must be within [1, resolution_cap={cap}], got {j_max}")
    return [HeraldingStrategy.up_to(j) for j in range(1, j_max + 1)]


def optimize_strategy(
    cfg_template: SourceConfig,
    j_max: int,
    n_candidates: Iterable[int] | None = None,
) -> StrategyScanResult:
    """``optimize_strategies`` over the accepted-count cutoffs 1..j_max.

    Ties break toward the smaller cutoff, then toward fewer units.
    """
    results = optimize_strategies(cfg_template, _cutoffs(cfg_template, j_max), n_candidates)
    return StrategyScanResult(tuple(enumerate(results, start=1)))


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
    if workers is not None and workers < 1:
        raise ParameterError("workers", f"must be >= 1, got {workers}")
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


def _map_chunk(task: tuple) -> list[tuple[OptimizationResult, StrategyScanResult]]:
    """Threshold optimum and cutoff scan at each (V_D, V_r) cell of a chunk of one V_D row, from one search."""
    vd, vrs, j_max, candidates, tail_tol, i_max, resolution_cap = task
    muxes = [MultiplexerModel.symmetric_spatial(vr) for vr in vrs]
    threshold = HeraldingStrategy.threshold()
    detector = DetectorModel(vd, resolution_cap)
    template = SourceConfig(PairDistribution(PairKind.POISSONIAN, 0.5), detector, threshold, muxes[0], 1, tail_tol, i_max)
    strategies = [threshold, *_cutoffs(template, j_max)]
    results = optimize_strategies(template, strategies, candidates, muxes)
    cells = [results[k : k + len(strategies)] for k in range(0, len(results), len(strategies))]
    return [(cell[0], StrategyScanResult(tuple(enumerate(cell[1:], start=1)))) for cell in cells]


def comparison_map(
    grid_vd: Sequence[float],
    grid_vr: Sequence[float],
    *,
    j_max: int = DEFAULT_J_MAX,
    n_candidates: Iterable[int] | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
    i_max: int = DEFAULT_I_MAX,
    resolution_cap: int = DEFAULT_RESOLUTION_CAP,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ComparisonMap:
    """Compare heralding modes cell by cell over a (V_D, V_r) grid.

    V_D is the detector efficiency and V_r the router transmission of a
    symmetric spatial tree.  Each task is one lane search over a chunk of up
    to ``MAP_CHUNK_CELLS`` cells of one V_D row, since cells that share a
    detector share their herald weights.  Chunks come back in grid order, so
    the map is identical for any worker count; ``progress(done, total)`` is
    called once per cell, after its chunk finishes.
    """
    axis_vd = np.asarray(list(grid_vd), dtype=float)
    axis_vr = np.asarray(list(grid_vr), dtype=float)
    if axis_vd.size == 0 or axis_vr.size == 0:
        raise ValueError("grids must be non-empty")
    settings = (j_max, None if n_candidates is None else tuple(n_candidates), tail_tol, i_max, resolution_cap)
    vrs, steps = tuple(axis_vr.tolist()), range(0, axis_vr.size, MAP_CHUNK_CELLS)
    chunks = [(vd, vrs[k : k + MAP_CHUNK_CELLS], *settings) for vd in axis_vd.tolist() for k in steps]
    ends = [0, *accumulate(len(chunk[1]) for chunk in chunks)]

    def report(done: int, _: int) -> None:  # once per cell, as its chunk finishes
        for cell in range(ends[done - 1] + 1, ends[done] + 1):
            progress(cell, ends[-1])

    chunked = run_tasks(_map_chunk, chunks, workers, None if progress is None else report)
    results = [cell for chunk in chunked for cell in chunk]

    def grid(values: Iterable, dtype: type = float) -> np.ndarray:
        return np.array(list(values), dtype=dtype).reshape(axis_vd.size, axis_vr.size)

    threshold = [t for t, _ in results]
    # the scan's j=1 entry is exactly-one-photon heralding
    spd = [scan.results_by_j[0][1] for _, scan in results]
    return ComparisonMap(
        axis_vd=axis_vd,
        axis_vr=axis_vr,
        j_opt=grid((scan.j_opt for _, scan in results), int),
        p1_spd=grid(r.p1_max for r in spd),
        p1_threshold=grid(r.p1_max for r in threshold),
        p1_jopt=grid(scan.best().p1_max for _, scan in results),
        n_opt_spd=grid((r.n_opt for r in spd), int),
        n_opt_threshold=grid((r.n_opt for r in threshold), int),
        lambda_opt_spd=grid(r.lambda_opt for r in spd),
        lambda_opt_threshold=grid(r.lambda_opt for r in threshold),
    )
