"""Stochastic oracle for the output distribution.

Samples the full per-pulse pipeline directly — pair generation, idler
detection, herald gating in priority order, binomial survival through the
heralding unit's path — without reusing any of the series machinery, so it
serves as an independent check on the exact engine.

A key physical constraint encoded here: survivors are drawn from the l
generated signal photons, not from the detected idler count; detector
efficiency acts only on the idler arm.

Every unit shares the pump and detector, so each heralds with the same
probability P_h, and the first heralding unit in priority order is
geometric: one uniform per pulse finds it by inversion.  A heralded pulse
then draws its pair number l, weighted by P(l) P(herald | l), by inverse
CDF with a guide table over [0, P_h) (Chen's method), and each of its l
signal photons survives that unit's path with one uniform.  l runs until
the pair tail left out, which reads as no herald, is below 2**-60, under a
uniform's 2**-53 resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import SourceConfig
from .losses import unit_transmissions
from .statistics import HeraldingStrategy, PairDistribution, PairKind, ParameterError

# fixed sampling block size: partial histograms merge associatively, so the
# result is independent of how blocks are distributed over workers; a block
# this small keeps its per-photon arrays to a few hundred kB
BLOCK_SIZE = 1 << 14
# log of the pair tail a state table may leave out: 2**-60
_LOG_TAIL = -60.0 * math.log(2.0)


@dataclass(frozen=True)
class SimulationEstimate:
    """Histogram estimate of the output photon-number distribution."""

    counts: tuple[int, ...]
    samples: int
    p_hat: tuple[float, ...]
    std_err: tuple[float, ...]

    def sigma(self, i: int, reference: float) -> float:
        """Deviation of the estimate at count i from a reference, in standard errors.

        A bin never (or always) drawn has no spread of its own and takes the reference's, sqrt(P (1 - P) / n).
        """
        diff = abs(self.p_hat[i] - reference)
        spread = self.std_err[i] or math.sqrt(reference * (1.0 - reference) / self.samples)
        if spread > 0.0:
            return diff / spread
        return 0.0 if diff == 0.0 else math.inf


def _pair_pmf(dist: PairDistribution) -> np.ndarray:
    """P(l pairs) for l = 0..L, the first L whose tail beyond it is below 2**-60.

    t(l + 1) = t(l) q(l), with q(l) = mean / (l + 1) (Poissonian) or mean / (1 + mean)
    (thermal).  q falls with l, so once q(l) < 1 the tail beyond t(l) is at most
    t(l) q(l) / (1 - q(l)).
    """
    mean, thermal = dist.mean, dist.kind is PairKind.THERMAL
    log_term = -math.log1p(mean) if thermal else -mean
    terms = []
    while True:
        terms.append(math.exp(log_term))
        q = mean / (1.0 + mean) if thermal else mean / len(terms)
        if q == 0.0 or (q < 1.0 and log_term + math.log(q / (1.0 - q)) < _LOG_TAIL):
            return np.array(terms)
        log_term += math.log(q)


def _herald_given_pairs(strategy: HeraldingStrategy, efficiency: float, length: int) -> np.ndarray:
    """P(herald | l pairs) for l < length: the binomial detection pmf summed over the accepted counts."""
    ls = np.arange(length)
    if strategy.is_threshold:  # any click
        return 1.0 - (1.0 - efficiency) ** ls
    ls, rs = ls[:, None], np.arange(max(strategy.accepted) + 1)
    # C(l, r) = C(l, r - 1) * (l - r + 1) / r, which stays 0 once r > l
    steps = np.where(rs > 0, np.maximum(ls - rs + 1, 0) / np.maximum(rs, 1), 1.0)
    pmf = np.cumprod(steps, axis=1) * efficiency**rs * (1.0 - efficiency) ** np.maximum(ls - rs, 0)
    return pmf[:, sorted(strategy.accepted)].sum(axis=1)


def _states(cfg: SourceConfig) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(p_h, cdf, guide, pairs): one state per pair number l that heralds with nonzero probability.

    A state weighs P(l) P(herald | l), and p_h = cdf[-1] is the herald
    probability.  guide[b] is the first state whose cdf exceeds the start of
    bucket b - 1 of [0, p_h): one bucket early, as rounding may put a uniform
    in the bucket above its own.
    """
    pair_pmf = _pair_pmf(cfg.dist)
    joint = pair_pmf * _herald_given_pairs(cfg.strategy, cfg.detector.efficiency, pair_pmf.size)
    pairs = np.flatnonzero(joint)
    cdf = np.cumsum(joint[pairs])
    p_h = float(cdf[-1]) if cdf.size else 0.0
    buckets = 1 << (2 * pairs.size).bit_length()
    guide = np.searchsorted(cdf, np.maximum(np.arange(-1, buckets - 1), 0) * (p_h / buckets), side="right")
    return p_h, cdf, guide, pairs


def _draw_states(u: np.ndarray, p_h: float, cdf: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """Heralding state index of each uniform u < p_h: inverse CDF with Chen's guide table."""
    # u / p_h first: guide.size / p_h overflows for a subnormal p_h
    index = guide[np.minimum((u / p_h * guide.size).astype(np.intp), guide.size - 1)]
    index += cdf[index] <= u  # one step settles nearly every draw
    late = np.flatnonzero(cdf[index] <= u)
    index[late] = np.searchsorted(cdf, u[late], side="right")
    return index


def _state_uniforms(r: np.ndarray, p_h: float) -> np.ndarray:
    """Uniforms r on [0, 1) scaled into [0, p_h); for a subnormal p_h, (1 - 2**-53) p_h rounds up to p_h."""
    return np.minimum(r * p_h, np.nextafter(p_h, 0.0))


def _first_heralds(u: np.ndarray, p_h: float, units: int) -> np.ndarray:
    """First heralding unit, from 0, of each pulse whose uniform u heralds within ``units`` units.

    Units herald with probability p_h each, so the first is floor(log(1 - u) / log(1 - p_h)),
    below ``units`` iff log(1 - u) > units log(1 - p_h).  Only heralded pulses divide, so a tiny
    p_h cannot overflow; rounding is clipped to the last unit.
    """
    log_miss = math.log1p(-p_h) if p_h < 1.0 else -math.inf
    log_u = np.negative(u)
    np.log1p(log_u, out=log_u)
    log_u = log_u[np.flatnonzero(log_u > units * log_miss)]  # integer indices: a random boolean mask indexes slower
    log_u /= log_miss
    return np.minimum(np.floor(log_u, out=log_u), units - 1, out=log_u).astype(np.intp)


def simulate(cfg: SourceConfig, samples: int, seed: int) -> SimulationEstimate:
    """Sample ``samples`` pulse periods of the configured source.

    Each block of ``BLOCK_SIZE`` pulses finds every pulse's first heralding
    unit; pulses with no herald count as zero photons, and heralded pulses
    draw their pair number, then their survivors.  Identical (cfg, samples,
    seed) always produce the identical histogram.
    """
    if samples < 1:
        raise ParameterError("samples", f"must be >= 1, got {samples}")
    if seed < 0:
        raise ParameterError("seed", f"must be >= 0, got {seed}")
    transmissions = unit_transmissions(cfg.mux, cfg.units)
    p_h, cdf, guide, pairs = _states(cfg)

    counts = np.zeros(max(cfg.i_max, int(pairs.max(initial=0))) + 1, dtype=np.int64)
    for block in range(-(-samples // BLOCK_SIZE)):
        block_samples = min(BLOCK_SIZE, samples - block * BLOCK_SIZE)
        # one PCG64 stream per (seed, block), whichever worker consumes the block
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
        first = _first_heralds(rng.random(block_samples), p_h, cfg.units)
        counts[0] += block_samples - first.size
        l = pairs[_draw_states(_state_uniforms(rng.random(first.size), p_h), p_h, cdf, guide)]
        alive = rng.random(l.sum()) < np.repeat(transmissions[first], l)
        survivors = np.diff(np.cumsum(alive, dtype=np.int32)[np.cumsum(l) - 1], prepend=0)  # every state has l >= 1
        counts += np.bincount(survivors, minlength=counts.size)
    counts = counts[: max(cfg.i_max, np.flatnonzero(counts)[-1]) + 1]

    p_hat = counts / samples
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / samples)
    return SimulationEstimate(tuple(counts.tolist()), samples, tuple(p_hat.tolist()), tuple(std_err.tolist()))
