"""Exact output photon-number distribution of a multiplexed heralded source.

One pulse period works like this: every multiplexed unit generates pairs
independently, each unit's detector looks at its idler photons, and the
first unit (in priority order) whose detected count lands in the accepted
set gets its signal photons routed to the output through that unit's lossy
path.  If no unit heralds, the output is vacuum.

One kernel, ``p1_profile``, evaluates the resulting output photon-number
probabilities exactly, up to a controlled series truncation, for a batch
of (heralding strategy, multiplexer, unit count) lanes and pump means;
``output_distribution`` is its one-lane, one-mean call.  For a Poissonian
source the threshold and single-photon heralding cases also admit closed
forms, kept here as independent cross-checks.
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
    ParameterError,
    binomial_coefficients,
    herald_weights,
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
            raise ParameterError("tail_tol", f"must be in (0, 1e-6], got {self.tail_tol}")
        if self.i_max < 1:
            raise ParameterError("i_max", f"must be >= 1, got {self.i_max}")
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


def _survivor_polynomial(transmissions: np.ndarray, i: int, counts: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """[u, l-i] = C(l, i) * v_u**i * (1 - v_u)**(l-i): i of l photons survive v_u.

    ``counts`` holds C(l, i) and ``exponents`` l - i, for l = i..l_max.
    """
    v = transmissions[:, None]
    return v**i * counts * (1.0 - v) ** exponents


def output_distribution(cfg: SourceConfig) -> OutputDistribution:
    """Exact output photon-number distribution of the configured source.

    The one-lane, one-mean call of ``p1_profile`` for photon numbers
    0..``cfg.i_max``; the deficit is the mass the returned counts miss.
    """
    probs = p1_profile(cfg, np.array([cfg.dist.mean]), photons=range(cfg.i_max + 1))[:, 0, 0]
    return OutputDistribution(tuple(probs.tolist()), 1.0 - float(probs.sum()))


@dataclass(frozen=True, eq=False)
class ProfileLanes:
    """Per-search constants of ``p1_profile``: a lane is a (strategy, multiplexer, unit count).

    ``weights`` has one herald-weight row per distinct strategy, long enough
    for every mean up to ``max_mean``, and ``row`` picks a lane's row; the
    detector is shared.  ``joined`` concatenates the unit transmissions of
    every distinct (multiplexer, unit count) pair, ``offsets`` holds each
    lane's start in it, and ``uniform`` marks lanes whose units all share
    one transmission.
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
    """Pair-count cutoff of a profile: one truncation at its largest mean and unit count.

    The tail left out is below ``cfg.tail_tol / max_units``, since the
    priority sum over units amplifies the truncated herald mass by up to
    about the unit count.
    """
    return max(1, truncation_length(PairDistribution(cfg.dist.kind, max_mean), cfg.tail_tol / max_units))


def profile_lanes(
    cfg: SourceConfig,
    units: Sequence[int],
    strategies: Sequence[HeraldingStrategy] | None = None,
    muxes: Sequence[MultiplexerModel] | None = None,
    *,
    max_mean: float,
) -> ProfileLanes:
    """Lanes of ``p1_profile`` calls with means up to ``max_mean``, one per unit count.

    ``strategies`` and ``muxes`` give each lane's heralding strategy and
    multiplexer (default ``cfg.strategy`` and ``cfg.mux`` for every lane).
    The herald weights are computed once here, at the truncation point of
    ``max_mean`` and the largest unit count, which bounds the tail of every
    smaller mean and unit count too.
    """
    units = np.asarray(units, dtype=int)
    strategies = (cfg.strategy,) * units.size if strategies is None else tuple(strategies)
    muxes = (cfg.mux,) * units.size if muxes is None else tuple(muxes)
    if units.ndim != 1 or units.size == 0 or not len(strategies) == len(muxes) == units.size:
        raise ValueError("need a non-empty 1-d sequence of unit counts and one strategy and multiplexer per lane")
    distinct = tuple(dict.fromkeys(strategies))
    for strategy in distinct:
        strategy.validate_for(cfg.detector)
    l_max = _series_length(cfg, max_mean, int(units.max()))
    keys = list(zip(muxes, units.tolist()))
    which = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    sizes = np.array([n for _, n in which])
    joined = np.concatenate([unit_transmissions(mux, n) for mux, n in which])
    starts = sizes.cumsum() - sizes
    uniform = np.minimum.reduceat(joined, starts) == np.maximum.reduceat(joined, starts)
    lane_key = np.array([which[key] for key in keys])
    weights = np.array([herald_weights(s, cfg.detector, l_max) for s in distinct])
    rows = {s: r for r, s in enumerate(distinct)}
    row = np.array([rows[s] for s in strategies])
    return ProfileLanes(units, row, starts[lane_key], uniform[lane_key], weights, joined, float(max_mean))


def p1_profile(
    cfg: SourceConfig,
    means: np.ndarray,
    lanes: ProfileLanes | Sequence[int] | None = None,
    photons: int | Sequence[int] = 1,
) -> np.ndarray:
    """Output photon-number probabilities for every lane and pump mean.

    The one evaluation kernel of the library: P_i for i = ``photons`` (the
    single-photon probability by default), and ``output_distribution`` is
    its one-lane, one-mean call.  A lane is a (heralding strategy,
    multiplexer, unit count): ``lanes`` is a ``ProfileLanes`` from
    ``profile_lanes``, or unit counts that all use ``cfg.strategy`` and
    ``cfg.mux`` (default ``cfg.units`` alone).  ``means`` is a 1-d grid
    shared by every lane or a 2-d array with one row per lane; the result is
    a (lanes, means) array for one photon number and a (photons, lanes,
    means) array for a sequence.

    The series is factored so no lanes x means x pairs array is built: the
    pair pmf per mean, one herald-weight row per strategy, the survivor
    polynomial C(l, i) v**i (1 - v)**(l - i) per distinct transmission (per
    multiplexer and unit count for lanes with many transmissions), and the
    priority sum in closed geometric form for a lane whose units all share
    one transmission.  P_0 also holds the no-herald term miss**units, and
    photon numbers beyond the series are 0.  One truncation point, taken at
    the largest mean and unit count, serves the whole call.  Means must be
    non-negative.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim not in (1, 2) or means.size == 0 or not means.min() >= 0.0:  # NaN fails too
        raise ValueError("means must be a non-empty 1-d array, or one row per lane, of non-negative values")
    top = float(means.max())
    if not isinstance(lanes, ProfileLanes):
        lanes = profile_lanes(cfg, (cfg.units,) if lanes is None else lanes, max_mean=top)
    per_lane = means.ndim == 2
    if per_lane and len(means) != lanes.units.size:
        raise ValueError("a 2-d means array needs one row per lane")
    if top > lanes.max_mean:
        raise ValueError(f"means reach {top}, beyond the lanes' max_mean {lanes.max_mean}")
    one = isinstance(photons, (int, np.integer))
    wanted = (int(photons),) if one else tuple(int(i) for i in photons)
    if min(wanted) < 0:
        raise ValueError(f"photon numbers must be >= 0, got {wanted}")
    # the lanes' own cutoff already bounds the tail, so a rounding-level
    # overshoot of the recurrence near max_mean cannot outgrow the weights
    l_max = min(_series_length(cfg, top, int(lanes.units.max())), lanes.weights.shape[1] - 1)
    comb = binomial_coefficients(max(wanted), l_max)

    pair = pmf_array(cfg.dist.kind, means, l_max)
    weights = lanes.weights[:, : l_max + 1]  # equal to weights computed at l_max
    if per_lane:  # one mass row per lane, with its own means
        mass = pair * weights[lanes.row][:, None, :]
        source = np.arange(lanes.units.size)
    else:  # one mass row per strategy, over the shared means
        mass = pair[None] * weights[:, None, :]
        source = lanes.row
    p_herald = mass.sum(axis=-1)  # (mass rows, means)

    out = np.zeros((len(wanted), lanes.units.size, means.shape[-1]))
    ls = np.arange(l_max + 1)
    in_series = [(k, i, comb[i, i:], ls[: l_max + 1 - i]) for k, i in enumerate(wanted) if i <= l_max]
    same = np.flatnonzero(lanes.uniform)
    if same.size:
        # one survivor polynomial per distinct transmission, indexed per lane
        transmissions, inverse = np.unique(lanes.joined[lanes.offsets[same]], return_inverse=True)
        polys = [(k, i, _survivor_polynomial(transmissions, i, c, e)[:, :, None]) for k, i, c, e in in_series]
        # mass rows: the lanes' own, or one herald-weight row at a time, so
        # that only ``out`` spans lanes x shared means
        if per_lane:
            groups = [(same, np.arange(same.size))]
        else:
            groups = [(r, np.flatnonzero(source[same] == r)) for r in sorted(set(source[same].tolist()))]
        for r, pick in groups:
            # closed-form priority sum of (1 - p)**(n-1) over n = 1..units; the
            # clip keeps it finite at p = 0 (limit: units) and at p = 1
            p = np.minimum(np.maximum(p_herald[r], _TINY), _BELOW_ONE)
            geometric = -np.expm1(lanes.units[same[pick], None] * np.log1p(-p)) / p
            for k, i, poly in polys:
                out[k, same[pick]] = (mass[r, :, i:] @ poly[inverse[pick]])[..., 0] * geometric
    mixed = ~lanes.uniform
    for start in sorted(set(lanes.offsets[mixed].tolist())):
        group = np.flatnonzero(mixed & (lanes.offsets == start))
        n = int(lanes.units[group[0]])
        for k, i, counts, exponents in in_series:
            poly = _survivor_polynomial(lanes.joined[start : start + n], i, counts, exponents).T
            for lane in group:  # lane by lane, so no temporary outgrows one lane's (means, units)
                priority = _no_herald_weights(1.0 - p_herald[source[lane]], n)
                out[k, lane] = np.einsum("kn,kn->k", priority, mass[source[lane], :, i:] @ poly)
    for k, i in enumerate(wanted):
        if i == 0:  # no unit heralds
            out[k] += np.maximum(1.0 - p_herald[source], 0.0) ** lanes.units[:, None]
    return out[0] if one else out


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
