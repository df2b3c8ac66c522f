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

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_RESOLUTION_CAP = 10
MAX_SERIES_LENGTH = 4096  # pairs; the engine's arrays grow with it


class ParameterError(ValueError):
    """An invalid model parameter, raised by the library's invariant checks.

    ``name`` and ``reason`` are kept apart, so a caller can report the
    parameter under its own name.
    """

    def __init__(self, name: str, reason: str):
        super().__init__(name, reason)  # both in args, so the error pickles
        self.name, self.reason = name, reason

    def __str__(self) -> str:
        return f"{self.name} {self.reason}"


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
            raise ParameterError("mean", f"must be a finite non-negative real, got {self.mean}")


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
            raise ParameterError("efficiency", f"must be within [0, 1], got {self.efficiency}")
        if self.resolution_cap < 1:
            raise ParameterError("resolution_cap", f"must be >= 1, got {self.resolution_cap}")


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
            raise ParameterError("accepted", "must be non-empty (use threshold() for any-click heralding)")
        if min(acc) < 1:
            raise ParameterError("accepted", f"counts must all be >= 1, got {sorted(acc)}")
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
            raise ParameterError(
                "accepted",
                f"set reaches {max(self.accepted)} but the detector resolves at most {detector.resolution_cap} photons",
            )


@lru_cache(maxsize=512)
def log_factorials(k_max: int) -> np.ndarray:
    """Read-only table of log(k!) for k = 0..k_max."""
    table = np.array([math.lgamma(k + 1) for k in range(k_max + 1)])
    table.setflags(write=False)
    return table


def pmf_array(kind: PairKind, means, l_max: int) -> np.ndarray:
    """Pair pmf at counts 0..l_max for each mean: shape ``np.shape(means) + (l_max + 1,)``.

    A mean of 0 gives the vacuum row [1, 0, ...].
    """
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    means = np.asarray(means, dtype=float)[..., None]
    ls = np.arange(l_max + 1.0)
    if not means.all():  # a stand-in mean of 1 keeps the logs finite; its rows are replaced
        vacuum = means == 0.0
        return np.where(vacuum, ls == 0, pmf_array(kind, np.where(vacuum, 1.0, means)[..., 0], l_max))
    if kind is PairKind.POISSONIAN:  # in place: no temporaries the size of the terms
        terms = ls * np.log(means)
        terms -= means
        terms -= log_factorials(l_max)
        return np.exp(terms, out=terms)
    return np.exp(ls * np.log(means / (1.0 + means))) / (1.0 + means)


def truncation_length(dist: PairDistribution, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Pair-count cutoff L whose exact pair tail beyond L is at most 0.99 * tail_tol.

    ``tail_tol`` must be > 0, as ``SourceConfig`` ensures.  L is the least
    count, found by bisection, at which a log bound of the tail meets that:
    the exact tail for thermal pairs,
    and for Poissonian pairs the first term left out over 1 - mean / (L + 2),
    which bounds the ratio of each later term to the one before.  Both fall
    as L grows, and the Poissonian bound is at most one count late.  The
    0.99 margin keeps ``pmf_array(dist.kind, dist.mean, L).sum() >= 1 -
    tail_tol`` in rounded floats for tolerances down to a few times 1e-13.  A
    mean whose cutoff would pass ``MAX_SERIES_LENGTH`` raises ``ParameterError``.
    """
    mean = dist.mean
    if mean == 0.0:
        return 0
    if dist.kind is PairKind.THERMAL:

        def log_tail(length: int) -> float:  # (mean / (1 + mean)) ** (length + 1)
            return -(length + 1) * math.log1p(1.0 / mean)

    else:

        def log_tail(length: int) -> float:  # the geometric bound holds once the term ratio is below 1
            if length + 2 <= mean:
                return math.inf
            log_term = (length + 1) * math.log(mean) - mean - math.lgamma(length + 2)
            return log_term - math.log1p(-mean / (length + 2))

    log_tol = math.log(0.99 * tail_tol)
    if log_tail(MAX_SERIES_LENGTH) > log_tol:
        raise ParameterError("mean", f"must keep its series within {MAX_SERIES_LENGTH} pairs, got {mean}")
    short, length = -1, MAX_SERIES_LENGTH  # the tail bound is met at length, not at short
    while length - short > 1:
        mid = (short + length) // 2
        short, length = (short, mid) if log_tail(mid) <= log_tol else (mid, length)
    return length


@lru_cache(maxsize=512)
def binomial_coefficients(k_max: int, n_max: int) -> np.ndarray:
    """Read-only table C[k, n] = choose(n, k) for k <= k_max, n <= n_max."""
    table = np.zeros((k_max + 1, n_max + 1))
    for k in range(k_max + 1):
        for n in range(k, n_max + 1):
            table[k, n] = math.comb(n, k)
    table.setflags(write=False)
    return table


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
        # comb[j, l] vanishes for l < j, masking the clipped exponents, and
        # its whole row vanishes for j > l_max; at eff = 1, 0.0 ** 0 == 1
        # leaves comb[j, j] alone at l = j
        weights += comb[j] * eff**j * (1.0 - eff) ** np.maximum(ls - j, 0)
    return weights

