"""Stochastic oracle for the output distribution.

Samples the full per-pulse pipeline directly — pair generation, idler
detection, herald gating in priority order, binomial survival through the
heralding unit's path — without reusing any of the series machinery, so it
serves as an independent check on the exact engine.

A key physical constraint encoded here: survivors are drawn from the l
generated signal photons, not from the detected idler count; detector
efficiency acts only on the idler arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import SourceConfig
from .losses import unit_transmissions
from .statistics import PairKind, ParameterError

# fixed sampling block size: partial histograms merge associatively, so the
# result is independent of how blocks are distributed over workers
BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class SimulationEstimate:
    """Histogram estimate of the output photon-number distribution."""

    counts: tuple[int, ...]
    samples: int
    p_hat: tuple[float, ...]
    std_err: tuple[float, ...]

    def sigma(self, i: int, reference: float) -> float:
        """Deviation of the estimate at count i from a reference, in standard errors."""
        diff = abs(self.p_hat[i] - reference)
        if self.std_err[i] > 0.0:
            return diff / self.std_err[i]
        return 0.0 if diff == 0.0 else math.inf


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # counter-based generator keyed by (seed, block), so streams are
    # reproducible no matter which worker consumes which block
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block_index))))


def _draw_pairs(rng: np.random.Generator, cfg: SourceConfig, size: int) -> np.ndarray:
    mean = cfg.dist.mean
    if cfg.dist.kind is PairKind.POISSONIAN:
        return rng.poisson(mean, size=size)
    # thermal pair numbers are geometric on {0, 1, ...}
    return rng.geometric(1.0 / (1.0 + mean), size=size) - 1


def simulate(cfg: SourceConfig, samples: int, seed: int) -> SimulationEstimate:
    """Sample ``samples`` pulse periods of the configured source.

    Each sample walks the units in priority order: draw the generated pair
    number, draw the detected idler count, and on the first herald draw the
    surviving signal photons and stop.  Pulses with no herald contribute to
    the zero-photon bin.  Identical (cfg, samples, seed) always produce the
    identical histogram.
    """
    if samples < 1:
        raise ParameterError("samples", f"must be >= 1, got {samples}")
    transmissions = unit_transmissions(cfg.mux, cfg.units)
    accepted = None if cfg.strategy.is_threshold else np.array(sorted(cfg.strategy.accepted))
    efficiency = cfg.detector.efficiency

    counts = np.zeros(cfg.i_max + 1, dtype=np.int64)
    n_blocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    for block in range(n_blocks):
        block_samples = min(BLOCK_SIZE, samples - block * BLOCK_SIZE)
        rng = _block_rng(seed, block)
        emitted = np.zeros(block_samples, dtype=np.int64)
        active = np.arange(block_samples)
        for n in range(1, cfg.units + 1):
            if active.size == 0:
                break
            pairs = _draw_pairs(rng, cfg, active.size)
            detected = rng.binomial(pairs, efficiency)
            if accepted is None:
                heralded = detected >= 1
            else:
                heralded = np.isin(detected, accepted)
            if heralded.any():
                emitted[active[heralded]] = rng.binomial(pairs[heralded], transmissions[n - 1])
            active = active[~heralded]
        block_counts = np.bincount(emitted)
        if block_counts.size > counts.size:
            counts = np.concatenate([counts, np.zeros(block_counts.size - counts.size, dtype=np.int64)])
        counts[: block_counts.size] += block_counts

    p_hat = counts / samples
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / samples)
    return SimulationEstimate(
        counts=tuple(int(c) for c in counts),
        samples=samples,
        p_hat=tuple(float(p) for p in p_hat),
        std_err=tuple(float(s) for s in std_err),
    )
