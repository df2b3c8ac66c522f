"""Exact output photon-number distribution of a multiplexed heralded source.

One pulse period works like this: every multiplexed unit generates pairs
independently, each unit's detector looks at its idler photons, and the
first unit (in priority order) whose detected count lands in the accepted
set gets its signal photons routed to the output through that unit's lossy
path.  If no unit heralds, the output is vacuum.

One kernel, ``p1_profile``, evaluates the resulting output photon-number
probabilities exactly, up to a controlled series truncation, for a batch
of (heralding strategy, multiplexer, unit count) lanes and pump means;
``output_distribution`` is its one-lane, one-mean call.  ``closed_form``
gives the same probabilities without any series, as an independent
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

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


# with one row of means per lane, a lane sums its series length plus one
# terms rounded up to a multiple of this, so a call has a few widths, each set
# by its lanes' own lengths; 66 terms serve a mean of 20 at 1024 units
_WIDTH = 33


@dataclass(frozen=True, eq=False)
class ProfileLanes:
    """Per-search constants of ``p1_profile``: a lane is a (strategy, multiplexer, unit count).

    ``weights`` has one herald-weight row per distinct strategy, as long as
    the series ``length`` of means up to ``max_mean`` rounded up to whole
    widths, and ``row`` picks a lane's row; the detector is shared.
    ``joined`` concatenates the unit transmissions of every distinct
    (multiplexer, unit count) pair, ``offsets`` holds each lane's start in
    it, and ``uniform`` marks lanes whose units all share one transmission,
    ``transmissions[tx]``.  ``with_series`` fixes each lane's own series for
    calls with one row of means per lane: its means stay within ``bound``, it
    sums ``width`` terms, and ``survive`` holds each herald-weight row times
    the survivor polynomial of each transmission, for each of ``photons``.
    """

    units: np.ndarray
    row: np.ndarray
    offsets: np.ndarray
    uniform: np.ndarray
    tx: np.ndarray
    weights: np.ndarray
    joined: np.ndarray
    transmissions: np.ndarray
    max_mean: float
    length: int
    photons: tuple[int, ...] = ()
    bound: np.ndarray | None = None
    width: np.ndarray | None = None
    survive: np.ndarray | None = None

    def take(self, index: np.ndarray) -> ProfileLanes:
        """The lanes at ``index``, sharing every per-search table."""
        per_lane = ("units", "row", "offsets", "uniform", "tx", "bound", "width")
        return replace(self, **{name: getattr(self, name)[index] for name in per_lane if getattr(self, name) is not None})

    def with_series(self, cfg: SourceConfig, bound: np.ndarray, photons: tuple[int, ...]) -> ProfileLanes:
        """These lanes, each with its own series for means up to its ``bound``.

        A lane's series length is ``_series_length`` at its bound and the
        lanes' largest unit count, at most ``length``.  Lengths grow with the
        mean, so a few searches find where the rounded widths step.  A lane
        with many transmissions is summed alone, over its exact length.
        """
        bound, units = np.array(bound, dtype=float), int(self.units.max())

        def terms(mean: float) -> int:
            return min(_series_length(cfg, mean, units), self.length) + 1

        means, at = np.unique(bound, return_inverse=True)
        width = np.array(_stepwise(lambda mean: -(-terms(mean) // _WIDTH) * _WIDTH, means.tolist()))[at]
        many = np.flatnonzero(~self.uniform)
        width[many] = [terms(mean) for mean in bound[many].tolist()]
        ls = np.arange(width.max())
        comb, weights = binomial_coefficients(max(photons), ls.size - 1), self.weights[:, None, : ls.size]
        survive = np.zeros((len(photons), len(weights), self.transmissions.size, ls.size))
        for k, i in enumerate(photons):
            poly = _survivor_polynomial(self.transmissions, i, comb[i, i:], ls[: max(ls.size - i, 0)])
            survive[k, ..., : max(ls.size - i, 0)] = weights[..., i:] * poly
        return replace(self, photons=photons, bound=bound, width=width, survive=survive)


def _stepwise(f: Callable, xs: list) -> list:
    """``[f(x) for x in xs]`` for sorted ``xs`` and a nondecreasing ``f`` of few steps, by bisection."""
    first, last = f(xs[0]), f(xs[-1])
    if first == last or len(xs) < 3:
        return [first] * (len(xs) - 1) + [last]
    half = len(xs) // 2
    return _stepwise(f, xs[: half + 1])[:-1] + _stepwise(f, xs[half:])


def _series_length(cfg: SourceConfig, max_mean: float, max_units: int) -> int:
    """Pair-count cutoff of a series: one truncation at its largest mean and unit count.

    The tail left out is below ``cfg.tail_tol / max_units``, since the
    priority sum over units amplifies the truncated herald mass by up to
    about the unit count.
    """
    return max(1, truncation_length(PairDistribution(cfg.dist.kind, max_mean), cfg.tail_tol / max_units))


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
    *,
    max_mean: float,
) -> ProfileLanes:
    """Lanes of ``p1_profile`` calls with means up to ``max_mean``, one per unit count.

    ``strategies`` and ``muxes`` give each lane's heralding strategy and
    multiplexer (default ``cfg.strategy`` and ``cfg.mux`` for every lane).
    The herald weights are computed once here, to the truncation point of
    ``max_mean`` and the largest unit count (which bounds the tail of every
    smaller mean and unit count too) rounded up to whole widths.
    """
    units = np.asarray(units, dtype=int)
    strategies = (cfg.strategy,) * units.size if strategies is None else tuple(strategies)
    muxes = (cfg.mux,) * units.size if muxes is None else tuple(muxes)
    if units.ndim != 1 or units.size == 0 or not len(strategies) == len(muxes) == units.size:
        raise ValueError("need a non-empty 1-d sequence of unit counts and one strategy and multiplexer per lane")
    distinct, row = _distinct(strategies)
    for strategy in distinct:
        strategy.validate_for(cfg.detector)
    length = _series_length(cfg, max_mean, int(units.max()))
    models, model = _distinct(muxes)
    keys = list(zip(model.tolist(), units.tolist()))
    which = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    sizes = np.array([n for _, n in which])
    joined = np.concatenate([unit_transmissions(models[m], n) for m, n in which])
    starts = sizes.cumsum() - sizes
    uniform = np.minimum.reduceat(joined, starts) == np.maximum.reduceat(joined, starts)
    transmissions = np.array(sorted(set(joined[starts[uniform]].tolist())))  # plain np.unique imports numpy.ma (~20 ms)
    tx = np.searchsorted(transmissions, joined[starts])  # read for uniform lanes only
    lane_key = np.array(list(map(which.__getitem__, keys)))
    # as long as any lane's rounded width
    weights = np.array([herald_weights(s, cfg.detector, -(-(length + 1) // _WIDTH) * _WIDTH - 1) for s in distinct])
    per_lane = (units, row, starts[lane_key], uniform[lane_key], tx[lane_key])
    return ProfileLanes(*per_lane, weights, joined, transmissions, float(max_mean), length)


def _priority_sum(out: np.ndarray, wanted: tuple[int, ...], pick: np.ndarray, units: np.ndarray, p: np.ndarray, sums) -> None:
    """``out[:, pick]`` of lanes whose units share one transmission, from a unit's herald probability and sums."""
    # closed-form priority sum of (1 - p)**(n-1) over n = 1..units; the clip
    # keeps it finite at p = 0 (limit: units) and at p = 1
    q = np.minimum(np.maximum(p, _TINY), _BELOW_ONE)
    geometric = -np.expm1(units[:, None] * np.log1p(-q)) / q
    for k, i in enumerate(wanted):
        values = sums[k] * geometric
        if i == 0:  # no unit heralds
            values += np.maximum(1.0 - p, 0.0) ** units[:, None]
        out[k, pick] = values


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
    photon numbers beyond the series are 0.  Shared means take one
    truncation point, at the largest mean and unit count.  With one row of
    means per lane, each lane is summed over its own series
    (``ProfileLanes.with_series``, at each row's largest mean unless the
    lanes carry their series), so its values do not depend on the other
    lanes of the call.  Means must be non-negative.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim not in (1, 2) or means.size == 0 or not means.min() >= 0.0:  # NaN fails too
        raise ValueError("means must be a non-empty 1-d array, or one row per lane, of non-negative values")
    top = float(means.max())
    built = not isinstance(lanes, ProfileLanes)
    if built:
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

    out = np.zeros((len(wanted), lanes.units.size, means.shape[-1]))
    same, many = np.flatnonzero(lanes.uniform), np.flatnonzero(~lanes.uniform)
    if per_lane:
        if lanes.photons != wanted:
            lanes = lanes.with_series(cfg, means.max(axis=1) if lanes.bound is None else lanes.bound, wanted)
        if (means.max(axis=1) > lanes.bound).any():
            raise ValueError("means reach beyond the series bound of their lanes")
        if same.size:
            herald, sums, widths = np.empty(out.shape[1:]), np.empty(out.shape), lanes.width[same]
            for w in set(widths.tolist()):  # one pmf and two row dots per width
                pick = same[widths == w]
                pair, row = pmf_array(cfg.dist.kind, means[pick], w - 1), lanes.row[pick]
                herald[pick] = np.vecdot(pair, lanes.weights[row, None, :w])
                for k, i in enumerate(wanted):
                    sums[k, pick] = np.vecdot(pair[..., i:], lanes.survive[k, row, lanes.tx[pick], None, : max(w - i, 0)])
            _priority_sum(out, wanted, same, lanes.units[same], herald[same], sums[:, same])
        if many.size:  # one pmf; each lane reads its own terms, and running sums stop its herald probability there
            terms, at = lanes.width[many], dict(zip(many.tolist(), range(many.size)))
            masses = pmf_array(cfg.dist.kind, means[many], terms.max() - 1)
            masses *= lanes.weights[lanes.row[many], None, : masses.shape[-1]]
            totals = np.cumsum(masses, axis=-1)[np.arange(many.size), :, terms - 1]

        def mass_of(lane: int) -> tuple[np.ndarray, np.ndarray]:
            return masses[at[lane], :, : lanes.width[lane]], totals[at[lane]]

    else:
        # a series of lanes built here is already cut at ``top``; otherwise the
        # lanes' own cutoff bounds the tail, so a rounding-level overshoot of
        # the recurrence near max_mean cannot outgrow the weights
        l_max = lanes.length
        if not built:
            l_max = min(_series_length(cfg, top, int(lanes.units.max())), l_max)
        comb = binomial_coefficients(max(wanted), l_max)
        ls = np.arange(l_max + 1)
        pair = pmf_array(cfg.dist.kind, means, l_max)
        mass = pair * lanes.weights[:, None, : l_max + 1]  # one mass row per strategy
        rows = mass.sum(axis=-1)
        # one survivor polynomial per distinct transmission, indexed per lane
        polys = [_survivor_polynomial(lanes.transmissions, i, comb[i, i:], ls[: max(l_max + 1 - i, 0)]) for i in wanted]
        for r in range(len(rows)):  # a herald-weight row at a time, so only ``out`` spans lanes x means
            pick = same[lanes.row[same] == r]
            if pick.size:  # one matrix-vector product per transmission, read per lane
                sums = [(mass[r, :, i:] @ poly[:, :, None])[lanes.tx[pick], :, 0] for i, poly in zip(wanted, polys)]
                _priority_sum(out, wanted, pick, lanes.units[pick], rows[r], sums)

        def mass_of(lane: int) -> tuple[np.ndarray, np.ndarray]:
            return mass[lanes.row[lane]], rows[lanes.row[lane]]

    for start in sorted(set(lanes.offsets[many].tolist())):
        group = many[lanes.offsets[many] == start]
        n = int(lanes.units[group[0]])
        group_masses = [mass_of(lane) for lane in group]
        size = max(lane_mass.shape[-1] for lane_mass, _ in group_masses)
        comb, ls = binomial_coefficients(max(wanted), size - 1), np.arange(size)
        polys = [_survivor_polynomial(lanes.joined[start : start + n], i, comb[i, i:], ls[: max(size - i, 0)]).T for i in wanted]
        for lane, (lane_mass, p) in zip(group, group_masses):  # lane by lane, so no temporary outgrows one lane's (means, units)
            priority = _no_herald_weights(1.0 - p, n)
            for k, (i, poly) in enumerate(zip(wanted, polys)):
                if i < lane_mass.shape[-1]:
                    out[k, lane] = np.einsum("kn,kn->k", priority, lane_mass[:, i:] @ poly[: lane_mass.shape[-1] - i])
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
