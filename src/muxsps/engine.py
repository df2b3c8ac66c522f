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

from .losses import MultiplexerModel, unit_transmissions, validate_unit_count
from .statistics import (
    DEFAULT_TAIL_TOL,
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
    binomial_coefficients,
    herald_weights,
    log_factorials,
    pmf_array,
    truncation_length,
)

DEFAULT_I_MAX = 8
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)


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


@dataclass(frozen=True, eq=False)
class ProfileLanes:
    """Per-search constants of ``p1_profile``: a lane is a (strategy, unit count) pair.

    ``weights`` has one herald-weight row per distinct strategy, long enough
    for every mean up to ``max_mean``, and ``row`` picks a lane's row.
    ``joined`` concatenates the unit transmissions of every distinct unit
    count, ``offsets`` holds each lane's start in it, and ``uniform`` marks
    lanes whose units all share one transmission.
    """

    units: np.ndarray
    row: np.ndarray
    offsets: np.ndarray
    uniform: np.ndarray
    weights: np.ndarray
    joined: np.ndarray
    max_mean: float

    def take(self, index: np.ndarray) -> ProfileLanes:
        """The lanes at ``index``, sharing weights and transmissions."""
        per_lane = (self.units[index], self.row[index], self.offsets[index], self.uniform[index])
        return ProfileLanes(*per_lane, self.weights, self.joined, self.max_mean)


def _series_length(cfg: SourceConfig, max_mean: float, max_units: int) -> int:
    """Pair-count cutoff of a profile: one truncation at its largest mean and unit count."""
    return max(1, truncation_length(PairDistribution(cfg.dist.kind, max_mean), cfg.tail_tol / max_units))


def profile_lanes(
    cfg: SourceConfig,
    units: Sequence[int],
    strategies: Sequence[HeraldingStrategy] | None = None,
    *,
    max_mean: float,
) -> ProfileLanes:
    """Lanes of ``p1_profile`` calls with means up to ``max_mean``, one per unit count.

    ``strategies`` gives each lane's heralding strategy (default
    ``cfg.strategy`` for every lane).  The herald weights are computed once
    here, at the truncation point of ``max_mean`` and the largest unit
    count, which bounds the tail of every smaller mean and unit count too.
    """
    units = np.asarray(units, dtype=int)
    strategies = (cfg.strategy,) * units.size if strategies is None else tuple(strategies)
    if units.ndim != 1 or units.size == 0 or len(strategies) != units.size:
        raise ValueError("need a non-empty 1-d sequence of unit counts and one strategy per lane")
    distinct = tuple(dict.fromkeys(strategies))
    for strategy in distinct:
        strategy.validate_for(cfg.detector)
    l_max = _series_length(cfg, max_mean, int(units.max()))
    counts, which = np.unique(units, return_inverse=True)
    joined = np.concatenate([unit_transmissions(cfg.mux, n) for n in counts.tolist()])
    starts = np.cumsum(counts) - counts
    uniform = np.minimum.reduceat(joined, starts) == np.maximum.reduceat(joined, starts)
    weights = np.stack([herald_weights(s, cfg.detector, l_max) for s in distinct])
    row = np.array([distinct.index(s) for s in strategies])
    return ProfileLanes(units, row, starts[which], uniform[which], weights, joined, float(max_mean))


def p1_profile(
    cfg: SourceConfig, means: np.ndarray, lanes: ProfileLanes | Sequence[int] | None = None
) -> np.ndarray:
    """Single-photon output probability for every lane and pump mean.

    A lane is a (heralding strategy, unit count) pair: ``lanes`` is a
    ``ProfileLanes`` from ``profile_lanes``, or unit counts that all use
    ``cfg.strategy`` (default ``cfg.units`` alone).  ``means`` is a 1-d grid
    shared by every lane or a 2-d array with one row per lane; the result
    is a (lanes, means) array.  The series of ``output_distribution`` is
    factored so no lanes x means x pairs array is built: the pair pmf per
    mean, one herald-weight row per strategy, the single-survivor
    polynomial per lane (per unit count for lanes with many
    transmissions), and the priority sum in closed geometric form for a
    lane whose units all share one transmission.  One truncation point,
    taken at the largest mean and unit count, serves the whole call.
    Means must be positive.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim not in (1, 2) or means.size == 0 or np.any(means <= 0.0):
        raise ValueError("means must be a non-empty 1-d array, or one row per lane, of positive values")
    if not isinstance(lanes, ProfileLanes):
        lanes = profile_lanes(cfg, (cfg.units,) if lanes is None else lanes, max_mean=float(means.max()))
    per_lane = means.ndim == 2
    if per_lane and len(means) != lanes.units.size:
        raise ValueError("a 2-d means array needs one row per lane")
    if means.max() > lanes.max_mean:
        raise ValueError(f"means reach {means.max()}, beyond the lanes' max_mean {lanes.max_mean}")
    # the lanes' own cutoff already bounds the tail, so a rounding-level
    # overshoot of the recurrence near max_mean cannot outgrow the weights
    l_max = min(_series_length(cfg, float(means.max()), int(lanes.units.max())), lanes.weights.shape[1] - 1)
    ls = np.arange(l_max + 1)

    flat = means.reshape(-1, 1)
    if cfg.dist.kind is PairKind.POISSONIAN:
        pair = np.exp(ls * np.log(flat) - flat - log_factorials(l_max))
    else:
        pair = np.exp(ls * np.log(flat / (1.0 + flat))) / (1.0 + flat)
    weights = lanes.weights[:, : l_max + 1]  # equal to weights computed at l_max
    if per_lane:  # one mass row per lane, with its own means
        mass = pair.reshape(lanes.units.size, -1, l_max + 1) * weights[lanes.row][:, None, :]
        source = np.arange(lanes.units.size)
    else:  # one mass row per strategy, over the shared means
        mass = pair[None] * weights[:, None, :]
        source = lanes.row
    p_herald = mass.sum(axis=-1)  # (mass rows, means)

    out = np.empty((lanes.units.size, means.shape[-1]))
    same = np.flatnonzero(lanes.uniform)
    poly = _survivor_polynomial(lanes.joined[lanes.offsets[same]], ls)[:, :, None]
    if per_lane:
        single = (mass[same, :, 1:] @ poly)[..., 0]
    else:
        single = np.empty((same.size, means.shape[-1]))
        for r in sorted(set(source[same].tolist())):
            pick = source[same] == r
            single[pick] = (mass[r, :, 1:] @ poly[pick])[..., 0]
    # closed-form priority sum of (1 - p)**(n-1) over n = 1..units; the clip
    # keeps it finite at p = 0 (limit: units) and at p = 1
    p = np.minimum(np.maximum(p_herald[source[same]], _TINY), _BELOW_ONE)
    out[same] = single * (-np.expm1(lanes.units[same, None] * np.log1p(-p)) / p)
    mixed = ~lanes.uniform
    for n in sorted(set(lanes.units[mixed].tolist())):
        group = np.flatnonzero(mixed & (lanes.units == n))
        start = lanes.offsets[group[0]]
        per_unit = mass[source[group], :, 1:] @ _survivor_polynomial(lanes.joined[start : start + n], ls).T
        priority = _no_herald_weights(1.0 - p_herald[source[group]], n)
        out[group] = np.einsum("gkn,gkn->gk", priority, per_unit)  # (lanes, means, units) summed over units
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
