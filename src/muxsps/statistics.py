"""Photon-number statistics of heralded photon-pair sources.

A nonlinear source emits photon pairs whose number per pulse follows
Poissonian or thermal statistics.  The idler photon of each pair goes to a
photon-number-resolving detector of finite efficiency; the twin signal
photon is released toward the multiplexer only when the detected idler
count falls in the accepted set of the heralding strategy.

All functions here are pure and all model objects are immutable, so they
can be shared freely between concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_RESOLUTION_CAP = 10

# largest count for which binomial terms use exact integer coefficients;
# beyond it evaluation switches to log space to stay overflow-free
_EXACT_BINOMIAL_MAX = 30


class PairKind(str, Enum):
    """Number statistics of the generated photon pairs."""

    POISSONIAN = "poissonian"
    THERMAL = "thermal"


@dataclass(frozen=True)
class PairDistribution:
    """Photon-pair number distribution of one nonlinear source.

    ``mean`` is the mean number of generated pairs per pulse per unit.
    """

    kind: PairKind
    mean: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PairKind):
            object.__setattr__(self, "kind", PairKind(self.kind))
        if not (math.isfinite(self.mean) and self.mean >= 0.0):
            raise ValueError(f"mean must be a finite non-negative real, got {self.mean}")

    def pmf(self, count: int) -> float:
        return pair_pmf(self, count)


@dataclass(frozen=True)
class DetectorModel:
    """Photon-number-resolving detector with finite efficiency.

    ``resolution_cap`` is the largest photon number the detector can
    distinguish; accepted sets of a heralding strategy must stay below it.
    """

    efficiency: float
    resolution_cap: int = DEFAULT_RESOLUTION_CAP

    def __post_init__(self) -> None:
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError(f"efficiency must be within [0, 1], got {self.efficiency}")
        if self.resolution_cap < 1:
            raise ValueError(f"resolution_cap must be >= 1, got {self.resolution_cap}")


@dataclass(frozen=True)
class HeraldingStrategy:
    """Set of detected idler counts that open the multiplexer input.

    ``accepted=None`` denotes threshold heralding: any nonzero detected
    count fires, with no upper cutoff.  A finite set requires number
    resolution from the paired detector.
    """

    accepted: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if self.accepted is None:
            return
        acc = frozenset(int(j) for j in self.accepted)
        if not acc:
            raise ValueError("accepted set must be non-empty (use threshold() for any-click heralding)")
        if min(acc) < 1:
            raise ValueError(f"accepted counts must all be >= 1, got {sorted(acc)}")
        object.__setattr__(self, "accepted", acc)

    @classmethod
    def threshold(cls) -> HeraldingStrategy:
        """Any click heralds."""
        return cls(accepted=None)

    @classmethod
    def single_photon(cls) -> HeraldingStrategy:
        """Only an exactly-one-photon detection heralds."""
        return cls(accepted=frozenset({1}))

    @classmethod
    def up_to(cls, max_accepted: int) -> HeraldingStrategy:
        """Detected counts 1..max_accepted all herald."""
        if max_accepted < 1:
            raise ValueError(f"max_accepted must be >= 1, got {max_accepted}")
        return cls(accepted=frozenset(range(1, max_accepted + 1)))

    @property
    def is_threshold(self) -> bool:
        return self.accepted is None

    @property
    def label(self) -> str:
        """Stable text form: 'all' or a comma list of accepted counts."""
        if self.accepted is None:
            return "all"
        return ",".join(str(j) for j in sorted(self.accepted))

    def validate_for(self, detector: DetectorModel) -> None:
        """Raise if the accepted set exceeds the detector's resolution."""
        if self.accepted is not None and max(self.accepted) > detector.resolution_cap:
            raise ValueError(
                f"accepted set reaches {max(self.accepted)} but the detector resolves "
                f"at most {detector.resolution_cap} photons"
            )


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


def pmf_array(dist: PairDistribution, l_max: int) -> np.ndarray:
    """Pair pmf evaluated at counts 0..l_max."""
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    mean = dist.mean
    out = np.zeros(l_max + 1)
    if mean == 0.0:
        out[0] = 1.0
        return out
    ls = np.arange(l_max + 1)
    if dist.kind is PairKind.POISSONIAN:
        out = np.exp(ls * math.log(mean) - mean - gammaln(ls + 1.0))
    else:
        out = np.exp(ls * math.log(mean / (1.0 + mean)) - math.log1p(mean))
    return out


def truncation_length(dist: PairDistribution, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Pair-count cutoff L with ``pmf_array(dist, L).sum() >= 1 - tail_tol``.

    The series stops once the exact tail is below 0.99 * tail_tol: when
    the exact tail only just meets tail_tol, the rounded float sum can
    fall an ulp or so short of 1 - tail_tol.
    """
    if tail_tol <= 0.0:
        raise ValueError(f"tail_tol must be > 0, got {tail_tol}")
    mean = dist.mean
    if mean == 0.0:
        return 0
    tol = 0.99 * tail_tol
    if dist.kind is PairKind.THERMAL:
        ratio = mean / (1.0 + mean)
        length = max(0, math.ceil(math.log(tol) / math.log(ratio)) - 1)
        while ratio ** (length + 1) > tol:
            length += 1
        return length
    # Poissonian: accumulate with the stable term recurrence
    target = min(1.0 - tol, 1.0 - 1e-15)
    hard_cap = int(mean + 40.0 * math.sqrt(mean) + 64.0)
    term = math.exp(-mean)
    total = term
    length = 0
    while total < target and length < hard_cap:
        length += 1
        term *= mean / length
        total += term
        if term == 0.0:
            break
    return length


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


def _binomial_pmf_column(successes: int, trials: np.ndarray, p: float) -> np.ndarray:
    """Binomial pmf at fixed ``successes`` over an array of trial counts."""
    if p <= 0.0:
        return np.ones(trials.shape) if successes == 0 else np.zeros(trials.shape)
    if p >= 1.0:
        return (trials == successes).astype(float)
    log_pmf = (
        gammaln(trials + 1.0)
        - math.lgamma(successes + 1)
        - gammaln(trials - successes + 1.0)
        + successes * math.log(p)
        + (trials - successes) * math.log1p(-p)
    )
    return np.exp(log_pmf)


@lru_cache(maxsize=512)
def binomial_coefficients(k_max: int, n_max: int) -> np.ndarray:
    """Read-only table C[k, n] = choose(n, k) for k <= k_max, n <= n_max."""
    table = np.zeros((k_max + 1, n_max + 1))
    for k in range(k_max + 1):
        for n in range(k, n_max + 1):
            table[k, n] = math.comb(n, k)
    table.setflags(write=False)
    return table


def detect_conditional(j: int, l: int, det: DetectorModel) -> float:
    """Probability that the detector reports j photons out of l arriving ones."""
    if j < 0 or l < 0 or j > l:
        raise ValueError(f"need 0 <= j <= l, got j={j}, l={l}")
    return binomial_pmf(j, l, det.efficiency)


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
    pair = pmf_array(dist, l_max)[j:]
    cond = _binomial_pmf_column(j, ls, det.efficiency)
    return float(np.dot(cond, pair))


def herald_weights(strategy: HeraldingStrategy, det: DetectorModel, l_max: int) -> np.ndarray:
    """w[l] = probability that l arriving idler photons produce a herald.

    Threshold heralding uses the exact any-click form 1 - (1-eff)^l, so no
    accepted-count cutoff is ever introduced for it.
    """
    ls = np.arange(l_max + 1)
    eff = det.efficiency
    if strategy.is_threshold:
        return -np.expm1(ls * math.log1p(-eff)) if eff < 1.0 else (ls > 0).astype(float)
    weights = np.zeros(l_max + 1)
    comb = binomial_coefficients(max(strategy.accepted), l_max)
    for j in sorted(strategy.accepted):
        if j > l_max:
            continue
        exponents = np.clip(ls - j, 0, None)
        # comb[j, l] vanishes for l < j, masking the clipped exponents
        if eff < 1.0:
            weights += comb[j] * eff**j * (1.0 - eff) ** exponents
        else:
            weights[j] += comb[j, j]
    return weights


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
