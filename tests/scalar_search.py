"""Scalar reference for the lane-batched pump-mean search.

One unit count at a time, every probability from ``output_distribution``:
a coarse scan over the optimizer's grid brackets the peak, then
golden-section refinement narrows the bracket to ``LAMBDA_TOL``.
``maximize_over_lambda`` must reproduce this search lane by lane.
"""

import math
from dataclasses import replace

import numpy as np

from muxsps.engine import SourceConfig, output_distribution
from muxsps.optimize import LAMBDA_TOL, _coarse_grid

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def p1_at(cfg: SourceConfig, units: int, mean: float) -> float:
    return output_distribution(replace(cfg, units=units, dist=replace(cfg.dist, mean=float(mean)), i_max=1))[1]


def golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
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


def scalar_maximize_over_lambda(cfg: SourceConfig, units: int) -> tuple[float, float]:
    """Best pump mean and single-photon probability at one unit count."""
    grid = _coarse_grid()
    k = int(np.argmax([p1_at(cfg, units, mean) for mean in grid]))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    lam, p1 = golden_max(lambda mean: p1_at(cfg, units, mean), lo, hi, LAMBDA_TOL)
    coarse_p1 = p1_at(cfg, units, grid[k])
    if coarse_p1 > p1:
        lam, p1 = float(grid[k]), coarse_p1
    return float(lam), float(p1)
