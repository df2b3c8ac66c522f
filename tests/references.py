"""Scalar reference functions for the photon-number statistics.

Plain one-value-at-a-time forms of the pair pmf, binomial thinning,
detection and heralding probabilities, and of the output distribution of
a whole multiplexed source built from them.  The library evaluates these
quantities only as vectorised series; the tests use these forms as
independent references.
"""

import math

import numpy as np

from muxsps.losses import unit_transmissions
from muxsps.statistics import (
    DEFAULT_TAIL_TOL,
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
    pmf_array,
    truncation_length,
)

# largest count for which binomial terms use exact integer coefficients;
# beyond it evaluation switches to log space to stay overflow-free
_EXACT_BINOMIAL_MAX = 30


def pair_pmf(dist: PairDistribution, count: int) -> float:
    """Probability that ``count`` photon pairs are generated in one pulse."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    mean = dist.mean
    if mean == 0.0:
        return 1.0 if count == 0 else 0.0
    if dist.kind is PairKind.POISSONIAN:
        return math.exp(count * math.log(mean) - mean - math.lgamma(count + 1))
    # thermal: geometric in the pair count
    return math.exp(count * math.log(mean / (1.0 + mean)) - math.log1p(mean))


def binomial_pmf(successes: int, trials: int, p: float) -> float:
    """P(exactly ``successes`` of ``trials`` independent events, each of prob p)."""
    if not (0 <= successes <= trials):
        raise ValueError(f"need 0 <= successes <= trials, got {successes} of {trials}")
    if p <= 0.0:
        return 1.0 if successes == 0 else 0.0
    if p >= 1.0:
        return 1.0 if successes == trials else 0.0
    if trials <= _EXACT_BINOMIAL_MAX:
        return math.comb(trials, successes) * p**successes * (1.0 - p) ** (trials - successes)
    log_pmf = (
        math.lgamma(trials + 1)
        - math.lgamma(successes + 1)
        - math.lgamma(trials - successes + 1)
        + successes * math.log(p)
        + (trials - successes) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def binomial_pmf_column(successes: int, trials: np.ndarray, p: float) -> np.ndarray:
    """Binomial pmf at fixed ``successes`` over an array of trial counts."""
    if p <= 0.0:
        return np.ones(trials.shape) if successes == 0 else np.zeros(trials.shape)
    if p >= 1.0:
        return (trials == successes).astype(float)
    log_factorial = np.vectorize(lambda n: math.lgamma(n + 1), otypes=[float])
    log_pmf = (
        log_factorial(trials)
        - math.lgamma(successes + 1)
        - log_factorial(trials - successes)
        + successes * math.log(p)
        + (trials - successes) * math.log1p(-p)
    )
    return np.exp(log_pmf)


def detect_conditional(j: int, l: int, det: DetectorModel) -> float:
    """Probability that the detector reports j photons out of l arriving ones."""
    if j < 0 or l < 0 or j > l:
        raise ValueError(f"need 0 <= j <= l, got j={j}, l={l}")
    return binomial_pmf(j, l, det.efficiency)


def transmit_conditional(i: int, l: int, survival: float) -> float:
    """Probability that i of l photons survive a channel of given transmission."""
    if i < 0 or l < 0 or i > l:
        raise ValueError(f"need 0 <= i <= l, got i={i}, l={l}")
    if not (0.0 <= survival <= 1.0):
        raise ValueError(f"survival must be within [0, 1], got {survival}")
    return binomial_pmf(i, l, survival)


def detect_total(
    j: int,
    dist: PairDistribution,
    det: DetectorModel,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """Total probability of detecting exactly j idler photons in one pulse.

    The sum over generated pair numbers is truncated once the remaining
    pair-distribution tail mass drops below ``tail_tol``.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    l_max = truncation_length(dist, tail_tol)
    if j > l_max:
        return 0.0
    ls = np.arange(j, l_max + 1)
    pair = pmf_array(dist.kind, dist.mean, l_max)[j:]
    cond = binomial_pmf_column(j, ls, det.efficiency)
    return float(np.dot(cond, pair))


def herald_probability(
    strategy: HeraldingStrategy,
    dist: PairDistribution,
    det: DetectorModel,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """Per-pulse probability that one unit produces a herald."""
    strategy.validate_for(det)
    if strategy.is_threshold:
        return 1.0 - detect_total(0, dist, det, tail_tol)
    return sum(detect_total(j, dist, det, tail_tol) for j in sorted(strategy.accepted))


def output_reference(cfg) -> list[float]:
    """P_0..P_{cfg.i_max} of a multiplexed source, summed term by term.

    Unit n heralds with probability p_herald after units 1..n-1 all missed,
    i.e. with priority weight miss**(n-1); the heralded unit's l pairs then
    lose their signal photons independently on the unit's path.  Units that
    share one transmission are summed once with their total priority
    weight, which keeps 1024-unit trees fast.  The pair series stops where
    the kernel's does, at a tail below ``cfg.tail_tol / cfg.units``.
    """
    l_max = truncation_length(cfg.dist, cfg.tail_tol / cfg.units)
    det, accepted = cfg.detector, cfg.strategy.accepted
    herald = []  # probability of l pairs and a herald, l = 0..l_max
    for l in range(l_max + 1):
        if accepted is None:
            fires = 1.0 - detect_conditional(0, l, det)
        else:
            fires = math.fsum(detect_conditional(j, l, det) for j in accepted if j <= l)
        herald.append(fires * pair_pmf(cfg.dist, l))
    miss = max(1.0 - math.fsum(herald), 0.0)
    priority: dict[float, float] = {}
    for n, survival in enumerate(unit_transmissions(cfg.mux, cfg.units).tolist(), start=1):
        priority[survival] = priority.get(survival, 0.0) + miss ** (n - 1)
    probs = []
    for i in range(cfg.i_max + 1):
        heralded = math.fsum(
            weight * herald[l] * transmit_conditional(i, l, survival)
            for survival, weight in priority.items()
            for l in range(i, l_max + 1)
        )
        probs.append(heralded + (miss**cfg.units if i == 0 else 0.0))
    return probs
