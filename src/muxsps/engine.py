"""Exact output photon-number distribution of a multiplexed heralded source.

One pulse period works like this: every multiplexed unit generates pairs
independently, each unit's detector looks at its idler photons, and the
first unit (in priority order) whose detected count lands in the accepted
set gets its signal photons routed to the output through that unit's lossy
path.  If no unit heralds, the output is vacuum.

One kernel, ``p1_profile``, evaluates the resulting output photon-number
probabilities exactly, up to a controlled series truncation, for a batch
of (heralding strategy, detector, multiplexer, unit count) lanes and pump
means; ``output_distribution`` is its one-lane, one-mean call.
``closed_form`` gives the same probabilities without any series, as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .losses import MultiplexerModel, shared_transmission, unit_transmissions, validate_unit_count
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
        if not _TINY <= self.tail_tol <= 1e-6:  # a normal double, so tail_tol / units stays above 0
            raise ParameterError("tail_tol", f"must be in [{_TINY}, 1e-6], got {self.tail_tol}")
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


def _survivor_polynomial(transmissions: np.ndarray, i, counts: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """[u, l-i] = C(l, i) * v_u**i * (1 - v_u)**(l-i): i of l photons survive v_u.

    ``counts`` holds C(l, i) and ``exponents`` l - i, for l = i..l_max; an array of i broadcasts on leading axes.
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


# a uniform lane sums its series length plus one terms rounded up to a
# multiple of this, so a call has a few widths, each set by its lanes' own
# lengths; 66 terms serve a mean of 20 at 1024 units
_WIDTH = 33
# BLAS sums the rows of a partial tile of a matrix product with other
# kernels, and picks kernels by the product's size, which round
# differently; several lane rows go in blocks of this many (a multiple of
# common row tile heights), repeating rows to fill the last, so every product
# of a width has one shape and a lane's values do not depend on how many
# lanes share its width.  Small enough that a block stays below OpenBLAS's
# threading threshold: threaded blocks in two worker processes swamp two cores
_TILE = 16
# lane rows (whole blocks) that a block product or the priority factor
# takes at a time: a call's temporaries stay small next to its result, so
# the allocator reuses their memory instead of returning it and faulting it
# back in each call
_PIECE = 256


@dataclass(frozen=True, eq=False)
class ProfileLanes:
    """Per-search constants of ``p1_profile``: a lane is a (strategy, detector, multiplexer, unit count).

    ``weights`` has one herald-weight row per distinct (strategy, detector)
    pair, as long as the lanes' first series rounded up to whole widths, and
    ``row`` picks a lane's row.  ``uniform`` marks lanes whose
    multiplexer gives all units one transmission, ``transmissions[tx]``;
    another lane's per-unit transmissions are ``vectors[tx]`` (None if uniform).
    Each lane carries its own series: its means stay within ``bound`` and
    it sums ``width`` terms, never more than the herald weights hold.
    ``tables`` caches, per tuple of photon numbers, each herald-weight row
    times the survivor polynomial of each transmission, and, per (vector
    index, photon numbers), the survivor polynomials of a vector's units;
    every lane set made from these lanes shares it.
    """

    units: np.ndarray
    row: np.ndarray
    uniform: np.ndarray
    tx: np.ndarray
    bound: np.ndarray
    width: np.ndarray
    weights: np.ndarray
    transmissions: np.ndarray
    vectors: tuple[np.ndarray | None, ...]
    tables: dict = field(default_factory=dict)

    def take(self, index: np.ndarray) -> ProfileLanes:
        """The lanes at ``index``, sharing every per-search table."""
        per_lane = ("units", "row", "uniform", "tx", "bound", "width")
        return replace(self, **{name: getattr(self, name)[index] for name in per_lane})

    def with_series(self, cfg: SourceConfig, bound: np.ndarray) -> ProfileLanes:
        """These lanes, each with its series cut for means up to its ``bound``.

        A lane's series only gets shorter: each new bound is clipped to the
        lane's present bound, and each new width to its present width.  A
        lane sums one term more than ``_series_length`` at its bound and the
        lanes' largest unit count, rounded up to whole widths if its units
        share one transmission and exact if it has many.
        """
        bound, kind, units = np.minimum(bound, self.bound), cfg.dist.kind, int(self.units.max())
        means, at = np.unique(bound, return_inverse=True)
        terms = np.array([_series_length(kind, cfg.tail_tol, mean, units) + 1 for mean in means.tolist()])[at]
        width = np.minimum(np.where(self.uniform, -(-terms // _WIDTH) * _WIDTH, terms), self.width)
        return replace(self, bound=bound, width=width)

    def survivors(self, photons: tuple[int, ...]) -> np.ndarray:
        """Each herald-weight row times each transmission's survivor polynomial, as [k, row, tx, l - i] for i = ``photons[k]``."""
        if photons not in self.tables:
            size, i = self.weights.shape[-1], np.array(photons)[:, None, None]
            l = np.minimum(i + np.arange(size), size - 1)  # pair counts; a sum reads only l < size, the rest are clipped
            counts = binomial_coefficients(int(i.max()), size - 1)[i, l]
            poly = _survivor_polynomial(self.transmissions, i, counts, np.arange(size))
            self.tables[photons] = self.weights[:, l].transpose(1, 0, 2, 3) * poly[:, None]
        return self.tables[photons]


@lru_cache(maxsize=1024)
def _series_length(kind: PairKind, tail_tol: float, max_mean: float, max_units: int) -> int:
    """Pair-count cutoff of a series: one truncation at its largest mean and unit count.

    The exact pair tail left out is below ``tail_tol / max_units`` (about
    1e-15 at 1,024 units), since the priority sum over units amplifies the
    truncated herald mass by up to about the unit count.  Memoized by value:
    successive searches bound their lanes at the same coarse-grid means.
    """
    return max(1, truncation_length(PairDistribution(kind, max_mean), tail_tol / max_units))


def _distinct(items: Sequence) -> tuple[list, np.ndarray]:
    """The distinct items in first-seen order and each item's index among them, hashing each object once."""
    ids = list(map(id, items))
    index: dict = {}
    at = {key: index.setdefault(item, len(index)) for key, item in dict(zip(ids, items)).items()}
    return list(index), np.array(list(map(at.__getitem__, ids)))


def profile_lanes(
    cfg: SourceConfig,
    units: Sequence[int],
    strategies: Sequence[HeraldingStrategy] | None = None,
    muxes: Sequence[MultiplexerModel] | None = None,
    detectors: Sequence[DetectorModel] | None = None,
    *,
    max_mean: float,
) -> ProfileLanes:
    """Lanes of ``p1_profile`` calls with means up to ``max_mean``, one per unit count.

    ``strategies``, ``muxes`` and ``detectors`` give each lane's heralding
    strategy, multiplexer and detector (default ``cfg.strategy``,
    ``cfg.mux`` and ``cfg.detector`` for every lane).  The herald weights
    are computed once here, one row per distinct (strategy, detector) pair,
    to the truncation point of ``max_mean`` and the largest unit count
    (which bounds the tail of every smaller mean and unit count too) rounded
    up to whole widths.  Every lane gets that series: bounded by
    ``max_mean``, and summing its length plus one terms, rounded up to whole
    widths if its units share one transmission.
    ``ProfileLanes.with_series`` can only shorten it.
    """
    units = np.asarray(units, dtype=int)
    strategies = (cfg.strategy,) * units.size if strategies is None else tuple(strategies)
    muxes = (cfg.mux,) * units.size if muxes is None else tuple(muxes)
    detectors = (cfg.detector,) * units.size if detectors is None else tuple(detectors)
    if units.ndim != 1 or units.size == 0 or {len(strategies), len(muxes), len(detectors)} != {units.size}:
        raise ValueError("need a non-empty 1-d sequence of unit counts and one strategy, multiplexer and detector per lane")
    # a herald-weight row per (detector, strategy) index pair that some lane uses
    (distinct, strategy_at), (found, detector_at) = _distinct(strategies), _distinct(detectors)
    keys, row = np.unique(detector_at * len(distinct) + strategy_at, return_inverse=True)
    pairs = [(distinct[k % len(distinct)], found[k // len(distinct)]) for k in keys.tolist()]
    for strategy, detector in pairs:
        strategy.validate_for(detector)
    length = _series_length(cfg.dist.kind, cfg.tail_tol, float(max_mean), int(units.max()))
    models, model = _distinct(muxes)
    keys = list(zip(model.tolist(), units.tolist()))
    which = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    values = [shared_transmission(models[m], n) for m, n in which]
    uniform = np.array([v is not None for v in values])
    at = {v: k for k, v in enumerate(sorted(set(values) - {None}))}  # plain np.unique imports numpy.ma (~20 ms)
    tx = np.array([k if v is None else at[v] for k, v in enumerate(values)])
    vectors = tuple(unit_transmissions(models[m], n) if v is None else None for (m, n), v in zip(which, values))
    lane_key = np.array(list(map(which.__getitem__, keys)))
    size = -(-(length + 1) // _WIDTH) * _WIDTH  # the rounded width of a uniform lane
    weights = np.array([herald_weights(strategy, detector, size - 1) for strategy, detector in pairs])
    width = np.where(uniform[lane_key], size, length + 1)
    per_lane = (units, row, uniform[lane_key], tx[lane_key], np.full(units.size, float(max_mean)), width)
    return ProfileLanes(*per_lane, weights, np.array(list(at), dtype=float), vectors)


def _priority_sum(wanted: tuple[int, ...], units: np.ndarray, p: np.ndarray, at: np.ndarray, sums: np.ndarray) -> None:
    """P_i of lanes whose units share one transmission, in place of ``sums``; ``p[at]`` is a unit's herald probability.

    The priority factor (1 - (1 - p)**units) / p of lanes that share herald
    rows (a shared means grid) is computed once per distinct (``at``, units).
    """
    # closed-form priority sum of (1 - p)**(n-1) over n = 1..units; the clip
    # keeps it finite at p = 0 (limit: units) and at p = 1
    q = np.minimum(np.maximum(p, _TINY), _BELOW_ONE)
    row, n, lane = at, units, None
    if len(q) < len(at):  # with return_inverse, np.unique does not import numpy.ma
        key, lane = np.unique(units * len(q) + at, return_inverse=True)
        n, row = np.divmod(key, len(q))
    geometric = np.log1p(-q)[row]
    geometric *= n[:, None]
    np.negative(np.expm1(geometric, out=geometric), out=geometric)
    geometric /= q[row]
    for start in range(0, len(at), _PIECE):
        piece = slice(start, start + _PIECE)
        sums[:, piece] *= geometric[piece if lane is None else lane[piece]]
    for k, i in enumerate(wanted):
        if i == 0:  # no unit heralds
            sums[k] += np.maximum(1.0 - p, 0.0)[at] ** units[:, None]


def p1_profile(
    cfg: SourceConfig,
    means: np.ndarray,
    lanes: ProfileLanes | Sequence[int] | None = None,
    photons: int | Sequence[int] = 1,
) -> np.ndarray:
    """Output photon-number probabilities for every lane and pump mean.

    The one evaluation kernel of the library: P_i for i = ``photons`` (the
    single-photon probability by default), and ``output_distribution`` is
    its one-lane, one-mean call.  A lane is a (heralding strategy, detector,
    multiplexer, unit count): ``lanes`` is a ``ProfileLanes`` from
    ``profile_lanes``, or unit counts that all use ``cfg.strategy``,
    ``cfg.detector`` and ``cfg.mux`` (default ``cfg.units`` alone).
    ``means`` is a 1-d grid shared by every lane or a 2-d array with one row
    per lane; the result is a (lanes, means) array for one photon number and
    a (photons, lanes, means) array for a sequence.

    The series is factored so no lanes x means x pairs array is built: the
    pair pmf per mean, one herald-weight row per (strategy, detector), the
    survivor polynomial C(l, i) v**i (1 - v)**(l - i) per distinct
    transmission (per unit of the lane's per-unit vector if its units do not
    share one), and the priority sum in closed geometric form for a lane
    whose units all share one transmission.  With means shared by every
    lane, such lanes of one width multiply their survivor rows against the
    pair pmf in blocks of ``_TILE`` rows, one product shape per width, and
    the priority factor is computed once per (herald-weight row, unit
    count).  P_0 also holds the no-herald term miss**units, and photon
    numbers beyond the series are 0.  Each lane sums its own series,
    ``width`` terms for means up to its ``bound`` (see
    ``ProfileLanes.with_series``), so its values do not depend on the other
    lanes of the call, given BLAS kernels whose row tile divides ``_TILE``
    and whose dot products do not depend on alignment; only a width's one
    lane on a shared grid is a matrix-vector product, which can round
    differently.  Means must be non-negative.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim not in (1, 2) or means.size == 0 or not means.min() >= 0.0:  # NaN fails too
        raise ValueError("means must be a non-empty 1-d array, or one row per lane, of non-negative values")
    if not isinstance(lanes, ProfileLanes):
        lanes = profile_lanes(cfg, (cfg.units,) if lanes is None else lanes, max_mean=float(means.max()))
    shared = means.ndim == 1
    if not shared and len(means) != lanes.units.size:
        raise ValueError("a 2-d means array needs one row per lane")
    if (means.max(axis=-1) > lanes.bound).any():
        raise ValueError("means reach beyond the series bound of their lanes")
    one = isinstance(photons, (int, np.integer))
    wanted = (int(photons),) if one else tuple(int(i) for i in photons)
    if min(wanted) < 0:
        raise ValueError(f"photon numbers must be >= 0, got {wanted}")

    out = np.zeros((len(wanted), lanes.units.size, means.shape[-1]))
    same, many = np.flatnonzero(lanes.uniform), np.flatnonzero(~lanes.uniform)
    if same.size:
        table, widths = lanes.survivors(wanted), lanes.width[same]
        herald, at = [], np.empty(same.size, dtype=int)
        sums = np.empty((len(wanted), same.size, means.shape[-1])) if many.size else out  # else P_i come out in place
        for w in set(widths.tolist()):  # one pmf per width
            sel = np.flatnonzero(widths == w)
            pick, row, start = same[sel], lanes.row[same[sel]], sum(map(len, herald))
            pair = pmf_array(cfg.dist.kind, means if shared else means[pick], w - 1)
            if shared:  # herald probabilities per herald-weight row, and block products of the lanes' survivor rows
                herald.append((pair @ lanes.weights[:, :w, None])[..., 0])
                at[sel] = start + row
                blocks = (-(-sel.size // _TILE), _TILE) if sel.size > 1 else (1, 1)
                tiles = np.resize(np.arange(sel.size), blocks)
                for k, i in enumerate(wanted):
                    for first in range(0, sel.size, _PIECE):
                        part = tiles[first // _TILE : (first + _PIECE) // _TILE]
                        product = table[k, row[part], lanes.tx[pick[part]], : max(w - i, 0)] @ pair[:, i:].T
                        sums[k, sel[first : first + _PIECE]] = product.reshape(-1, means.size)[: sel.size - first]
            else:  # two row dots per lane
                herald.append(np.vecdot(pair, lanes.weights[row, None, :w]))
                at[sel] = start + np.arange(sel.size)
                for k, i in enumerate(wanted):
                    sums[k, sel] = np.vecdot(pair[..., i:], table[k, row, lanes.tx[pick], None, : max(w - i, 0)])
        _priority_sum(wanted, lanes.units[same], np.concatenate(herald), at, sums)
        if many.size:
            out[:, same] = sums
    if many.size:  # one pmf; each lane reads its own terms, and a running sum stops its herald probability there
        pairs = pmf_array(cfg.dist.kind, means if shared else means[many], lanes.width[many].max() - 1)
    for j, lane in enumerate(many.tolist()):  # lane by lane, so no temporary outgrows one lane's (means, units)
        n, w, vector, size = int(lanes.units[lane]), lanes.width[lane], int(lanes.tx[lane]), lanes.weights.shape[-1]
        if (vector, wanted) not in lanes.tables:  # [l - i, unit] for l below the weights' width; each lane slices its own
            comb, v = binomial_coefficients(max(wanted), size - 1), lanes.vectors[vector]
            lanes.tables[vector, wanted] = [_survivor_polynomial(v, i, comb[i, i:], np.arange(size - i)).T for i in wanted]
        mass = (pairs if shared else pairs[j])[:, :w] * lanes.weights[lanes.row[lane], :w]
        p = np.cumsum(mass, axis=-1)[:, -1]
        priority = _no_herald_weights(1.0 - p, n)
        for k, (i, poly) in enumerate(zip(wanted, lanes.tables[vector, wanted])):
            if i < w:
                out[k, lane] = np.einsum("kn,kn->k", priority, mass[:, i:] @ poly[: w - i])
            if i == 0:  # no unit heralds
                out[k, lane] += np.maximum(1.0 - p, 0.0) ** n
    return out[0] if one else out


def closed_form(cfg: SourceConfig) -> tuple[float, ...]:
    """P_0..P_{cfg.i_max} for any pair kind, heralding strategy and multiplexer, in closed form.

    Each pair's idler is detected with probability V_D and its signal
    survives unit n with probability v_n, independently, so one unit's
    P(D = j detected, S = i surviving) is a finite sum over the a <= min(i, j)
    pairs that do both.  No series and no truncation: independent of the
    series engine, for use as a cross-check oracle.
    """
    lam, eff, thermal = cfg.dist.mean, cfg.detector.efficiency, cfg.dist.kind is PairKind.THERMAL
    q = lam / (1.0 + lam)

    def joint(j: int, i: int, d: float, v: float) -> float:  # P(D = j, S = i) at detection d, transmission v
        # pairs neither detected nor surviving sum out, as a negative-binomial series if thermal
        lost = (1.0 - d) * (1.0 - v)
        scale = q / (1.0 - q * lost) if thermal else lam
        rates = (scale * d * v, scale * d * (1.0 - v), scale * (1.0 - d) * v)
        total = 0.0
        for a in range(min(i, j) + 1):  # detected and surviving, detected only, surviving only
            term = math.prod(r**k / math.factorial(k) for r, k in zip(rates, (a, j - a, i - a)))
            total += term * (math.factorial(i + j - a) if thermal else 1)
        return total * ((1.0 - q) / (1.0 - q * lost) if thermal else math.exp(-lam * (1.0 - lost)))

    # P(D = j) is joint(j, 0) at v = 0, and P(S = i) is joint(0, i) at V_D = 0
    threshold, accepted = cfg.strategy.is_threshold, sorted(cfg.strategy.accepted or ())
    miss = joint(0, 0, eff, 0.0) if threshold else 1.0 - math.fsum(joint(j, 0, eff, 0.0) for j in accepted)

    def herald(i: int, v: float) -> float:  # P(unit heralds, S = i)
        if threshold:
            return joint(0, i, 0.0, v) - joint(0, i, eff, v)
        return math.fsum(joint(j, i, eff, v) for j in accepted)

    weights: dict[float, float] = {}  # the priority weight miss**(n-1), summed per distinct transmission
    for n, v in enumerate(unit_transmissions(cfg.mux, cfg.units).tolist()):
        weights[v] = weights.get(v, 0.0) + miss**n
    probs = [math.fsum(w * herald(i, v) for v, w in weights.items()) for i in range(cfg.i_max + 1)]
    probs[0] += miss**cfg.units  # no unit heralds
    return tuple(probs)


def p1_threshold_closed_form(cfg: SourceConfig) -> float:
    """P_1 of ``closed_form``, for any strategy; ``p1_spd_closed_form`` is the same function."""
    return closed_form(replace(cfg, i_max=1))[1]


p1_spd_closed_form = p1_threshold_closed_form
