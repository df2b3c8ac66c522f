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
from typing import Sequence

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
_TINY = np.finfo(float).tiny


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


def _no_herald_weights(miss, units: int) -> np.ndarray:
    """miss**(n-1) for n = 1..units, on a new last axis of ``miss``.

    Log space rather than ``miss ** arange``: numpy's power is several
    times slower than ``exp`` once its results underflow.  A miss of 0
    gives 1, ~1e-308, then zeros: only unit 1 can herald.
    """
    return np.exp(np.multiply.outer(np.log(np.maximum(miss, _TINY)), np.arange(units)))


def _survivor_polynomial(transmissions: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """[u, l-1] = l * v_u * (1 - v_u)**(l-1): one of l photons survives v_u."""
    v = transmissions[:, None]
    return v * ls[1:] * (1.0 - v) ** (ls[1:] - 1)


def output_distribution(cfg: SourceConfig) -> OutputDistribution:
    """Exact output photon-number distribution of the configured source.

    The pair-number series stops once the pair distribution's remaining
    tail mass is below ``cfg.tail_tol / cfg.units``, since the priority
    sum over units amplifies the truncated herald mass by up to about the
    unit count; everything else is evaluated in full.  Units sharing one
    transmission are grouped, so the cost scales with the number of
    distinct per-unit transmissions, not with the unit count itself.
    """
    l_max = truncation_length(cfg.dist, cfg.tail_tol / cfg.units)
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


def p1_profile(cfg: SourceConfig, means: np.ndarray, units: Sequence[int] | None = None) -> np.ndarray:
    """Single-photon output probability for every unit-count lane and pump mean.

    ``units`` lists the lanes (default ``cfg.units`` alone).  ``means`` is a
    1-d grid shared by every lane or a 2-d array with one row per lane; the
    result is a (lanes, means) array.  The series of ``output_distribution``
    is factored so no lanes x means x pairs array is built: the pair pmf per
    mean, the herald weights once, the single-survivor polynomial per lane,
    and the priority sum in closed geometric form for a lane whose units all
    share one transmission.  One truncation point, taken at the largest
    mean and unit count, serves the whole call.  Means must be positive.
    """
    lanes = np.asarray((cfg.units,) if units is None else units, dtype=int)
    means = np.asarray(means, dtype=float)
    per_lane = means.ndim == 2
    if means.ndim not in (1, 2) or means.size == 0 or np.any(means <= 0.0) or per_lane and len(means) != len(lanes):
        raise ValueError("means must be a non-empty 1-d array, or one row per lane, of positive values")
    flat = means.reshape(-1, 1)
    probe = PairDistribution(cfg.dist.kind, float(flat.max()))
    l_max = max(1, truncation_length(probe, cfg.tail_tol / lanes.max()))
    ls = np.arange(l_max + 1)

    if cfg.dist.kind is PairKind.POISSONIAN:
        pair = np.exp(ls * np.log(flat) - flat - gammaln(ls + 1.0))
    else:
        pair = np.exp(ls * np.log(flat / (1.0 + flat))) / (1.0 + flat)
    mass = pair * herald_weights(cfg.strategy, cfg.detector, l_max)
    mass = mass.reshape(-1, means.shape[-1], l_max + 1)  # (1 or lanes, means per lane, pairs)
    p_herald = mass.sum(axis=-1)

    transmissions = [unit_transmissions(cfg.mux, n) for n in lanes.tolist()]
    joined, starts = np.concatenate(transmissions), np.cumsum(lanes) - lanes
    uniform = np.minimum.reduceat(joined, starts) == np.maximum.reduceat(joined, starts)
    out = np.empty((lanes.size, means.shape[-1]))
    same = np.flatnonzero(uniform)
    rows = same if per_lane else [0]
    poly = _survivor_polynomial(joined[starts[same]], ls)[:, :, None]
    # closed-form priority sum of (1 - p)**(n-1) over n = 1..units; the clip
    # keeps it finite at p = 0 (limit: units) and at p = 1
    p = np.clip(p_herald[rows], _TINY, np.nextafter(1.0, 0.0))
    out[same] = (mass[rows, :, 1:] @ poly)[..., 0] * (-np.expm1(lanes[same, None] * np.log1p(-p)) / p)
    for i in np.flatnonzero(~uniform):
        row = i if per_lane else 0
        per_unit = mass[row, :, 1:] @ _survivor_polynomial(transmissions[i], ls).T  # (means, units)
        out[i] = np.einsum("kn,kn->k", _no_herald_weights(1.0 - p_herald[row], lanes[i]), per_unit)
    return out


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
    priority = np.exp(np.arange(cfg.units) * math.log(miss))
    # per-pair probability that the idler evades detection and the signal
    # is then lost in the multiplexer; the bracket resums its Poisson tail
    residual = (1.0 - eff) * (1.0 - vn)
    per_unit = (1.0 + residual * lam) * lam * eff * vn * np.exp((residual - 1.0) * lam)
    return float(np.dot(priority, per_unit))
