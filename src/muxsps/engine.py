"""Exact output photon-number distribution of a multiplexed heralded source.

One pulse period works like this: every multiplexed unit generates pairs
independently, each unit's detector looks at its idler photons, and the
first unit (in priority order) whose detected count lands in the accepted
set gets its signal photons routed to the output through that unit's lossy
path.  If no unit heralds, the output is vacuum.

``output_distribution`` evaluates the resulting output photon-number
probabilities exactly, up to a controlled series truncation.  For a
Poissonian source the threshold and single-photon heralding cases also
admit closed forms, kept here as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .losses import MultiplexerModel, unit_transmissions, validate_unit_count
from .statistics import (
    DEFAULT_TAIL_TOL,
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
    binomial_coefficients,
    herald_weights,
    pmf_array,
    truncation_length,
)

DEFAULT_I_MAX = 8


@dataclass(frozen=True)
class SourceConfig:
    """Full description of one multiplexed source configuration."""

    dist: PairDistribution
    detector: DetectorModel
    strategy: HeraldingStrategy
    mux: MultiplexerModel
    units: int
    tail_tol: float = DEFAULT_TAIL_TOL
    i_max: int = DEFAULT_I_MAX

    def __post_init__(self) -> None:
        validate_unit_count(self.mux, self.units)
        if not 0.0 < self.tail_tol <= 1e-6:
            raise ValueError(f"tail_tol must be in (0, 1e-6], got {self.tail_tol}")
        if self.i_max < 1:
            raise ValueError(f"i_max must be >= 1, got {self.i_max}")
        self.strategy.validate_for(self.detector)


@dataclass(frozen=True)
class OutputDistribution:
    """Output photon-number probabilities for counts 0..i_max.

    ``truncation_deficit`` is the probability mass sitting above i_max
    (plus residual series-truncation error), so that probabilities and
    deficit always account for the full unit mass.
    """

    probabilities: tuple[float, ...]
    truncation_deficit: float

    @property
    def single_photon(self) -> float:
        return self.probabilities[1]

    def __getitem__(self, i: int) -> float:
        return self.probabilities[i]


def _no_herald_weights(miss: float, units: int) -> np.ndarray:
    """miss**(n-1) for n = 1..units, underflow-safe at large unit counts.

    Log space rather than ``miss ** arange``: numpy's power is several
    times slower than ``exp`` once its results underflow.
    """
    if miss <= 0.0:
        out = np.zeros(units)
        out[0] = 1.0
        return out
    return np.exp(np.arange(units) * math.log(miss))


def output_distribution(cfg: SourceConfig) -> OutputDistribution:
    """Exact output photon-number distribution of the configured source.

    The pair-number series is truncated once the remaining tail mass of
    the pair distribution falls below ``cfg.tail_tol``; everything else is
    evaluated in full.  Units sharing the same transmission are grouped so
    the cost scales with the number of distinct per-unit transmissions,
    not with the unit count itself.
    """
    l_max = truncation_length(cfg.dist, cfg.tail_tol)
    pair = pmf_array(cfg.dist, l_max)
    weights = herald_weights(cfg.strategy, cfg.detector, l_max)
    mass = weights * pair  # joint weight of (l pairs, herald fires)
    p_herald = float(mass.sum())
    miss = max(1.0 - p_herald, 0.0)

    transmissions = unit_transmissions(cfg.mux, cfg.units)
    priority = _no_herald_weights(miss, cfg.units)
    distinct, inverse = np.unique(transmissions, return_inverse=True)
    group_weight = np.bincount(inverse, weights=priority, minlength=distinct.size)

    i_top = cfg.i_max
    comb = binomial_coefficients(min(i_top, l_max), l_max)
    mass_comb = comb * mass  # [i, l] = choose(l, i) * mass[l]
    survive = distinct[:, None] ** np.arange(i_top + 1)[None, :]
    lost = (1.0 - distinct)[:, None] ** np.arange(l_max + 1)[None, :]

    probs = np.zeros(i_top + 1)
    for i in range(min(i_top, l_max) + 1):
        per_group = lost[:, : l_max - i + 1] @ mass_comb[i, i:]
        probs[i] = float(group_weight @ (survive[:, i] * per_group))
    probs[0] += miss**cfg.units

    deficit = 1.0 - float(probs.sum())
    return OutputDistribution(tuple(float(p) for p in probs), deficit)


def p1_profile(cfg: SourceConfig, means: np.ndarray) -> np.ndarray:
    """Single-photon output probability over a grid of pump means.

    Vectorized companion of ``output_distribution`` built from the same
    series components, sharing one truncation point (taken at the largest
    mean) across the whole grid.  Means must be positive.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim != 1 or means.size == 0 or np.any(means <= 0.0):
        raise ValueError("means must be a non-empty 1-d array of positive values")
    probe = PairDistribution(cfg.dist.kind, float(means.max()))
    l_max = max(1, truncation_length(probe, cfg.tail_tol))
    ls = np.arange(l_max + 1)

    if cfg.dist.kind is PairKind.POISSONIAN:
        pair = np.exp(ls[None, :] * np.log(means[:, None]) - means[:, None] - gammaln(ls + 1.0)[None, :])
    else:
        ratio = means / (1.0 + means)
        pair = np.exp(ls[None, :] * np.log(ratio[:, None])) / (1.0 + means[:, None])
    mass = pair * herald_weights(cfg.strategy, cfg.detector, l_max)[None, :]
    p_herald = mass.sum(axis=1)
    miss = np.clip(1.0 - p_herald, 0.0, 1.0)

    transmissions = unit_transmissions(cfg.mux, cfg.units)
    distinct, inverse = np.unique(transmissions, return_inverse=True)
    # single-survivor kernel: l * v * (1-v)^(l-1) for l = 1..l_max
    lost = (1.0 - distinct)[:, None] ** (ls[None, 1:] - 1)
    kernel = distinct[:, None] * ls[None, 1:] * lost
    per_unit = mass[:, 1:] @ kernel.T  # (means, distinct transmissions)

    log_miss = np.log(np.where(miss > 0.0, miss, 1.0))
    priority = np.exp(np.arange(cfg.units)[None, :] * log_miss[:, None])
    never = miss <= 0.0
    if never.any():
        priority[never] = 0.0
        priority[never, 0] = 1.0
    return np.einsum("kn,kn->k", priority, per_unit[:, inverse])


def _require_poissonian(cfg: SourceConfig, wanted: str) -> None:
    if cfg.dist.kind is not PairKind.POISSONIAN:
        raise ValueError(f"closed form requires a Poissonian source, got {cfg.dist.kind.value}")
    if wanted == "threshold" and not cfg.strategy.is_threshold:
        raise ValueError("closed form requires threshold heralding")
    if wanted == "single" and cfg.strategy.accepted != frozenset({1}):
        raise ValueError("closed form requires the single-photon heralding set {1}")


def p1_threshold_closed_form(cfg: SourceConfig) -> float:
    """Single-photon output probability under threshold heralding.

    Poissonian source only; independent of the series engine, for use as a
    cross-check oracle.
    """
    _require_poissonian(cfg, "threshold")
    lam = cfg.dist.mean
    eff = cfg.detector.efficiency
    vn = unit_transmissions(cfg.mux, cfg.units)
    priority = np.exp(-lam * eff * np.arange(cfg.units))
    per_unit = (
        lam
        * vn
        * math.exp(-lam)
        * (np.exp(lam * (1.0 - vn)) - (1.0 - eff) * np.exp(lam * (1.0 - vn) * (1.0 - eff)))
    )
    return float(np.dot(priority, per_unit))


def p1_spd_closed_form(cfg: SourceConfig) -> float:
    """Single-photon output probability under exactly-one-photon heralding.

    Poissonian source only; independent of the series engine, for use as a
    cross-check oracle.
    """
    _require_poissonian(cfg, "single")
    lam = cfg.dist.mean
    eff = cfg.detector.efficiency
    vn = unit_transmissions(cfg.mux, cfg.units)
    miss = 1.0 - eff * lam * math.exp(-eff * lam)
    priority = _no_herald_weights(miss, cfg.units)
    # per-pair probability that the idler evades detection and the signal
    # is then lost in the multiplexer; the bracket resums its Poisson tail
    residual = (1.0 - eff) * (1.0 - vn)
    per_unit = (1.0 + residual * lam) * lam * eff * vn * np.exp((residual - 1.0) * lam)
    return float(np.dot(priority, per_unit))
