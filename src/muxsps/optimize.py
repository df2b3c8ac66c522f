"""Maximization of the single-photon output probability.

For a fixed loss configuration the free design knobs are the pump strength
(mean pair number per pulse), the number of multiplexed units, and the
heralding strategy (threshold, exactly-one-photon, or an accepted-count
cutoff).  The search is exhaustive over unit counts and strategies.  In
the pump strength, every (strategy, detector, multiplexer, unit count) is
one lane of the engine's one kernel ``p1_profile``, asked for P_1 alone: a
coarse grid brackets each lane's peak and golden-section refinement then
runs in lockstep over all lanes, so no unimodality assumption is
load-bearing.  A unit scan, a cutoff scan, a chunk of comparison-map cells
of one detector efficiency and a block of router-grid or scenario table
cells are each one such search, an ``optimize_strategies`` call.  One lane
budget, ``SEARCH_LANES``, bounds how many cells a map chunk or table block
takes (``search_blocks``).  A search's result is arrays over (detector x
multiplexer x strategy group, unit candidate), and every best unit count
or cutoff is the first maximum that ``np.argmax`` picks, so ties go to
fewer units and the smaller cutoff.  A map chunk keeps only each cell's
optima.  Results carry optima, not the output distribution there;
``output_distribution`` gives that.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, replace
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
# lanes per search of a map or table: 26 map cells of 77 lanes (pow2:1024,
# j_max 6) keep a search's temporaries near the map's other memory
SEARCH_LANES = 2048

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Optima of one lane search, as arrays; row g is (detector, multiplexer, strategy) group g.

    ``lambdas[g, k]`` and ``p1s[g, k]`` are the best pump mean and P_1 of
    unit candidate ``units[k]``; ``n_opt``, ``lambda_opt`` and ``p1_max`` are
    each group's optimum over its candidates.
    """

    units: np.ndarray
    lambdas: np.ndarray
    p1s: np.ndarray
    n_opt: np.ndarray
    lambda_opt: np.ndarray
    p1_max: np.ndarray


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
    detectors: Sequence[DetectorModel] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best pump mean and single-photon probability at each lane, as two arrays in lane order.

    Lane i is unit count ``units[i]`` heralded with ``strategies[i]`` by
    detector ``detectors[i]`` behind multiplexer ``muxes[i]`` (default the
    template's strategy, detector and multiplexer for every lane), one lane
    of ``p1_profile``; the herald weights and transmissions are computed
    once for the whole search.  A coarse grid scan, with one series length
    at the grid's top, brackets every lane's peak.  Golden-section
    refinement then runs in lockstep over the lanes, each summed over its
    own series, fixed at its bracket's upper end, and stopping once its
    bracket is narrower than ``LAMBDA_TOL``.  A lane returns its bracket
    midpoint, or its best grid point if that is higher (the bracket can be
    degenerate).
    """
    grid = _coarse_grid()
    lanes = profile_lanes(cfg_template, units, strategies, muxes, detectors, max_mean=float(grid[-1]))
    k = np.argmax(p1_profile(cfg_template, grid, lanes), axis=1)
    lo, hi = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)]
    lanes = lanes.with_series(cfg_template, hi)
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = p1_profile(cfg_template, np.stack([c, d], axis=1), lanes).T
    live = np.flatnonzero(hi - lo > LAMBDA_TOL)
    # the live lanes' brackets (low, high), probes (c, d) and values, dropped as lanes finish
    low, high, c, d, fc, fd = lo[live], hi[live], c[live], d[live], fc[live], fd[live]
    running = lanes.take(live)
    while live.size:
        left = fc > fd  # lanes keeping the left part of their bracket
        high, low = np.where(left, d, high), np.where(left, low, c)
        step, kept = _INV_PHI * (high - low), np.where(left, fc, fd)
        c, d = np.where(left, high - step, d), np.where(left, c, low + step)
        f = p1_profile(cfg_template, np.where(left, c, d)[:, None], running)[:, 0]
        fc, fd = np.where(left, f, kept), np.where(left, kept, f)
        going = high - low > LAMBDA_TOL
        if not going.all():
            lo[live[~going]], hi[live[~going]] = low[~going], high[~going]
            live, low, high, c, d, fc, fd = (x[going] for x in (live, low, high, c, d, fc, fd))
            running = lanes.take(live)
    mid = 0.5 * (lo + hi)
    p1_mid, p1_grid = p1_profile(cfg_template, np.stack([mid, grid[k]], axis=1), lanes).T
    grid_wins = p1_grid > p1_mid
    return np.where(grid_wins, grid[k], mid), np.where(grid_wins, p1_grid, p1_mid)


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
    detectors: Sequence[DetectorModel] | None = None,
) -> OptimizationResult:
    """Best unit count and pump strength for each detector, multiplexer and heralding strategy.

    One lockstep pump-mean search covers every (detector, multiplexer,
    strategy, unit count) lane; the result's groups come in (detector,
    multiplexer, strategy) order.  ``detectors`` and ``muxes`` default to the
    template's own; the unit candidates come from the template, so the
    multiplexers should share its topology.  Ties break toward the smaller
    unit count (less hardware).  The release-latest loop keeps its
    configured unit count whatever the candidates (see
    ``default_unit_candidates``).
    """
    candidates = np.array(_unit_candidates(cfg_template, n_candidates))
    muxes = (cfg_template.mux,) if muxes is None else muxes
    detectors = (cfg_template.detector,) if detectors is None else detectors
    lanes = [(d, mux, s, n) for d in detectors for mux in muxes for s in strategies for n in candidates.tolist()]
    detector_of, mux_of, strategy_of, units = zip(*lanes)
    search = maximize_over_lambda(cfg_template, units, strategy_of, mux_of, detector_of)
    lambdas, p1s = (x.reshape(-1, candidates.size) for x in search)
    best = np.argmax(p1s, axis=1)  # the first maximum: ties go to fewer units
    rows = np.arange(best.size)
    return OptimizationResult(candidates, lambdas, p1s, candidates[best], lambdas[rows, best], p1s[rows, best])


def optimize_units(
    cfg_template: SourceConfig,
    n_candidates: Iterable[int] | None = None,
) -> OptimizationResult:
    """``optimize_strategies`` for the template's own heralding strategy: a one-group result."""
    return optimize_strategies(cfg_template, [cfg_template.strategy], n_candidates)


def _cutoffs(cfg_template: SourceConfig, j_max: int) -> list[HeraldingStrategy]:
    """Accepted-count cutoffs 1..j_max, once j_max is checked against the detector."""
    cap = cfg_template.detector.resolution_cap
    if not 1 <= j_max <= cap:
        raise ParameterError("j_max", f"must be within [1, resolution_cap={cap}], got {j_max}")
    return [HeraldingStrategy.up_to(j) for j in range(1, j_max + 1)]


def run_tasks(
    fn: Callable,
    tasks: Sequence,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    cells: Sequence[int] | None = None,
) -> list:
    """``[fn(task) for task in tasks]``, in worker processes when workers > 1.

    Results keep the task order, so they do not depend on the worker count;
    ``fn`` and the tasks must pickle.  ``progress(done, total)`` counts
    cells: it is called once per cell of each finished task, task k holding
    ``cells[k]`` cells (default one).
    """
    if workers is not None and workers < 1:
        raise ParameterError("workers", f"must be >= 1, got {workers}")
    ends = list(accumulate([1] * len(tasks) if cells is None else cells, initial=0))
    results: list = []
    with ExitStack() as stack:
        outputs: Iterable = map(fn, tasks)
        if workers is not None and workers > 1 and len(tasks) > 1:
            from concurrent.futures import ProcessPoolExecutor  # here, so in-process runs never import multiprocessing

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            outputs = pool.map(fn, tasks, chunksize=max(1, len(tasks) // (workers * 4)))
        for output in outputs:
            results.append(output)
            if progress is not None:
                for done in range(ends[len(results) - 1] + 1, ends[len(results)] + 1):
                    progress(done, ends[-1])
    return results


def search_blocks(rows: int, cols: int, lanes_per_cell: int) -> list[tuple[slice, slice]]:
    """(row, column) slices of a rows x cols grid of cells, one lane search each, in row-major order.

    A block holds at most ``SEARCH_LANES // lanes_per_cell`` cells (at least
    one): as many whole rows as fit, or else a piece of one row.
    """
    cells = max(1, SEARCH_LANES // lanes_per_cell)
    if cells >= cols:
        return [(slice(r, r + cells // cols), slice(None)) for r in range(0, rows, cells // cols)]
    return [(slice(r, r + 1), slice(c, c + cells)) for r in range(rows) for c in range(0, cols, cells)]


def _map_chunk(task: tuple) -> dict[str, np.ndarray]:
    """``ComparisonMap`` fields at each (V_D, V_r) cell of a chunk of one V_D row, from one search."""
    template, vd, vrs, strategies, candidates = task
    template = replace(template, detector=replace(template.detector, efficiency=vd))
    muxes = [MultiplexerModel.symmetric_spatial(vr) for vr in vrs]
    result = optimize_strategies(template, strategies, candidates, muxes)
    # per cell, group 0 is threshold heralding and group j the cutoff j; cutoff 1 is exactly-one-photon heralding
    n, lam, p1 = (x.reshape(len(vrs), len(strategies)) for x in (result.n_opt, result.lambda_opt, result.p1_max))
    j_opt = np.argmax(p1[:, 1:], axis=1) + 1  # the first maximum: ties go to the smaller cutoff
    return dict(
        j_opt=j_opt, p1_spd=p1[:, 1], p1_threshold=p1[:, 0], p1_jopt=p1[np.arange(len(vrs)), j_opt],
        n_opt_spd=n[:, 1], n_opt_threshold=n[:, 0], lambda_opt_spd=lam[:, 1], lambda_opt_threshold=lam[:, 0],
    )


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
    symmetric spatial tree.  Each task is one lane search over a chunk of
    one V_D row, as many cells as ``search_blocks`` lets into the lane
    budget.  Chunks come back in grid order, so the map is identical for any
    worker count; ``progress(done, total)`` is called once per cell, after
    its chunk finishes.
    """
    axis_vd = np.asarray(list(grid_vd), dtype=float)
    axis_vr = np.asarray(list(grid_vr), dtype=float)
    if axis_vd.size == 0 or axis_vr.size == 0:
        raise ValueError("grids must be non-empty")
    vds, vrs = axis_vd.tolist(), tuple(axis_vr.tolist())
    threshold, tree = HeraldingStrategy.threshold(), MultiplexerModel.symmetric_spatial(vrs[0])
    detector = DetectorModel(vds[0], resolution_cap)
    template = SourceConfig(PairDistribution(PairKind.POISSONIAN, 0.5), detector, threshold, tree, 1, tail_tol, i_max)
    strategies, candidates = [threshold, *_cutoffs(template, j_max)], _unit_candidates(template, n_candidates)
    pieces = search_blocks(1, len(vrs), len(strategies) * len(candidates))
    chunks = [(template, vd, vrs[piece], strategies, candidates) for vd in vds for _, piece in pieces]
    chunked = run_tasks(_map_chunk, chunks, workers, progress, [len(chunk[2]) for chunk in chunks])
    shape = (axis_vd.size, axis_vr.size)
    fields = {name: np.concatenate([chunk[name] for chunk in chunked]).reshape(shape) for name in chunked[0]}
    return ComparisonMap(axis_vd=axis_vd, axis_vr=axis_vr, **fields)
