"""Run configuration documents for the command-line front end.

A run is described by an INI-style text with sections [source],
[detector], [strategy], [multiplexer], [optimizer] and [sweep].  Unknown
sections or keys are rejected.  ``dump_config`` writes the canonical form,
which re-parses to an identical spec.
"""

from __future__ import annotations

import math
from configparser import ConfigParser
from dataclasses import dataclass, field

from .engine import DEFAULT_I_MAX, SourceConfig
from .losses import MultiplexerModel, MuxKind
from .optimize import DEFAULT_J_MAX
from .statistics import (
    DEFAULT_RESOLUTION_CAP,
    DEFAULT_TAIL_TOL,
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
)

STRATEGY_TOKENS = ("spd", "threshold")

_SECTION_KEYS = {
    "source": ("kind", "mean"),
    "detector": ("efficiency", "resolution_cap"),
    "strategy": ("accepted",),
    "multiplexer": (
        "kind",
        "units",
        "generic_transmission",
        "router_transmission",
        "cycle_transmission",
        "pbs_transmission",
        "pbs_reflection",
        "propagation_transmission",
        "min_cycles",
    ),
    "optimizer": ("tail_tol", "i_max", "n_candidates", "j_max"),
    "sweep": ("vd_values", "vr_values", "n_values", "lambda_values", "strategies", "pair_kinds"),
}


class ConfigError(ValueError):
    """Invalid run configuration; names the offending field."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass(frozen=True)
class SweepSpec:
    """Axes for the table and map commands."""

    vd_values: tuple[float, ...] = ()
    vr_values: tuple[float, ...] = ()
    n_values: tuple[int, ...] = ()
    lambda_values: tuple[float, ...] = ()
    strategies: tuple[str, ...] = ()
    pair_kinds: tuple[PairKind, ...] = ()


@dataclass(frozen=True)
class RunSpec:
    """One resolved CLI run: scenario, optimizer settings, sweep, run context."""

    source: PairDistribution
    detector: DetectorModel
    strategy: HeraldingStrategy
    mux: MultiplexerModel
    units: int
    tail_tol: float = DEFAULT_TAIL_TOL
    i_max: int = DEFAULT_I_MAX
    n_candidates: tuple[int, ...] | None = None
    j_max: int = DEFAULT_J_MAX
    sweep: SweepSpec = field(default_factory=SweepSpec)
    # run context comes from flags, not from the document
    command: str = ""
    out_path: str | None = None
    seed: int = 0
    mc_samples: int | None = None
    workers: int | None = None

    def source_config(self) -> SourceConfig:
        try:
            return SourceConfig(
                dist=self.source,
                detector=self.detector,
                strategy=self.strategy,
                mux=self.mux,
                units=self.units,
                tail_tol=self.tail_tol,
                i_max=self.i_max,
            )
        except ValueError as exc:
            raise ConfigError("multiplexer.units", str(exc)) from exc


def _parse_float(section: str, key: str, raw: str, lo: float | None = None, hi: float | None = None) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}", f"must be finite, got {raw!r}")
    if lo is not None and value < lo or hi is not None and value > hi:
        raise ConfigError(f"{section}.{key}", f"must be within [{lo}, {hi}], got {value}")
    return value


def _parse_int(section: str, key: str, raw: str, lo: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"not an integer: {raw!r}") from exc
    if lo is not None and value < lo:
        raise ConfigError(f"{section}.{key}", f"must be >= {lo}, got {value}")
    return value


def inclusive_range(field_path: str, start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ..., stop, rounded to 12 decimals."""
    if not 0.0 < step < math.inf:
        raise ConfigError(field_path, f"step must be a finite number > 0, got {step}")
    if stop < start:
        raise ConfigError(field_path, f"range end {stop} is below its start {start}")
    count = int(round((stop - start) / step)) + 1
    return tuple(round(start + k * step, 12) for k in range(count))


def _parse_float_values(section: str, key: str, raw: str) -> tuple[float, ...]:
    """Comma list of numbers, or an inclusive range start:stop:step."""
    raw = raw.strip()
    if raw.count(":") == 2:
        start, stop, step = (_parse_float(section, key, part) for part in raw.split(":"))
        return inclusive_range(f"{section}.{key}", start, stop, step)
    values = tuple(_parse_float(section, key, part) for part in raw.split(",") if part.strip())
    if not values:
        raise ConfigError(f"{section}.{key}", "empty value list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{section}.{key}", "values must be strictly increasing")
    return values


def _parse_int_values(section: str, key: str, raw: str) -> tuple[int, ...]:
    values = tuple(_parse_int(section, key, part, lo=1) for part in raw.split(",") if part.strip())
    if not values:
        raise ConfigError(f"{section}.{key}", "empty value list")
    return values


def _parse_candidates(section: str, key: str, raw: str) -> tuple[int, ...]:
    """Unit-count candidates: 'pow2:CAP', 'range:LO:HI', or a comma list."""
    raw = raw.strip()
    if raw.startswith("pow2:"):
        cap = _parse_int(section, key, raw[5:], lo=1)
        return tuple(2**k for k in range(cap.bit_length()) if 2**k <= cap)
    if raw.startswith("range:"):
        parts = raw[6:].split(":")
        if len(parts) != 2:
            raise ConfigError(f"{section}.{key}", f"bad range {raw!r}")
        lo = _parse_int(section, key, parts[0], lo=1)
        hi = _parse_int(section, key, parts[1], lo=lo)
        return tuple(range(lo, hi + 1))
    return _parse_int_values(section, key, raw)


def _parse_strategy(section: str, key: str, raw: str) -> HeraldingStrategy:
    raw = raw.strip().lower()
    if raw == "all":
        return HeraldingStrategy.threshold()
    try:
        counts = frozenset(int(part) for part in raw.split(",") if part.strip())
        return HeraldingStrategy(accepted=counts)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", str(exc)) from exc


def strategy_from_token(token: str) -> HeraldingStrategy:
    if token == "spd":
        return HeraldingStrategy.single_photon()
    if token == "threshold":
        return HeraldingStrategy.threshold()
    raise ConfigError("sweep.strategies", f"unknown strategy token {token!r}")


def parse_config(text: str, **run_context) -> RunSpec:
    """Parse a configuration document into a RunSpec.

    ``run_context`` passes through the flag-supplied fields (command,
    out_path, seed, mc_samples, workers).
    """
    parser = ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except Exception as exc:
        raise ConfigError("config", f"cannot parse document: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")

    def get(section: str, key: str, default: str | None = None) -> str | None:
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    def require(section: str, key: str) -> str:
        value = get(section, key)
        if value is None:
            raise ConfigError(f"{section}.{key}", "missing required key")
        return value

    kind_raw = require("source", "kind").strip().lower()
    try:
        pair_kind = PairKind(kind_raw)
    except ValueError as exc:
        raise ConfigError("source.kind", f"must be one of {[k.value for k in PairKind]}, got {kind_raw!r}") from exc
    try:
        source = PairDistribution(pair_kind, _parse_float("source", "mean", require("source", "mean"), lo=0.0))
    except ValueError as exc:
        raise ConfigError("source.mean", str(exc)) from exc

    try:
        detector = DetectorModel(
            efficiency=_parse_float("detector", "efficiency", require("detector", "efficiency"), 0.0, 1.0),
            resolution_cap=_parse_int("detector", "resolution_cap", get("detector", "resolution_cap", str(DEFAULT_RESOLUTION_CAP)), lo=1),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("detector", str(exc)) from exc

    strategy = _parse_strategy("strategy", "accepted", require("strategy", "accepted"))

    mux_kind_raw = require("multiplexer", "kind").strip().lower()
    try:
        mux_kind = MuxKind(mux_kind_raw)
    except ValueError as exc:
        raise ConfigError(
            "multiplexer.kind", f"must be one of {[k.value for k in MuxKind]}, got {mux_kind_raw!r}"
        ) from exc
    mux_kwargs: dict[str, float | int] = {}
    for key in (
        "generic_transmission",
        "router_transmission",
        "cycle_transmission",
        "pbs_transmission",
        "pbs_reflection",
        "propagation_transmission",
    ):
        raw = get("multiplexer", key)
        if raw is not None:
            mux_kwargs[key] = _parse_float("multiplexer", key, raw, 0.0, 1.0)
    raw = get("multiplexer", "min_cycles")
    if raw is not None:
        mux_kwargs["min_cycles"] = _parse_int("multiplexer", "min_cycles", raw, lo=0)
    try:
        mux = MultiplexerModel(kind=mux_kind, **mux_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("multiplexer", str(exc)) from exc
    units = _parse_int("multiplexer", "units", require("multiplexer", "units"), lo=1)

    tail_tol = _parse_float("optimizer", "tail_tol", get("optimizer", "tail_tol", repr(DEFAULT_TAIL_TOL)))
    if not 0.0 < tail_tol <= 1e-6:
        raise ConfigError("optimizer.tail_tol", f"must be in (0, 1e-6], got {tail_tol}")
    i_max = _parse_int("optimizer", "i_max", get("optimizer", "i_max", str(DEFAULT_I_MAX)), lo=1)
    raw = get("optimizer", "n_candidates")
    n_candidates = _parse_candidates("optimizer", "n_candidates", raw) if raw is not None else None
    j_max = _parse_int("optimizer", "j_max", get("optimizer", "j_max", str(DEFAULT_J_MAX)), lo=1)
    if j_max > detector.resolution_cap:
        raise ConfigError("optimizer.j_max", f"exceeds detector.resolution_cap={detector.resolution_cap}")

    sweep_kwargs: dict = {}
    for key, parse in (
        ("vd_values", _parse_float_values),
        ("vr_values", _parse_float_values),
        ("n_values", _parse_int_values),
        ("lambda_values", _parse_float_values),
    ):
        raw = get("sweep", key)
        if raw is not None:
            sweep_kwargs[key] = parse("sweep", key, raw)
    raw = get("sweep", "strategies")
    if raw is not None:
        tokens = tuple(part.strip().lower() for part in raw.split(",") if part.strip())
        for token in tokens:
            if token not in STRATEGY_TOKENS:
                raise ConfigError("sweep.strategies", f"unknown strategy token {token!r}")
        sweep_kwargs["strategies"] = tokens
    raw = get("sweep", "pair_kinds")
    if raw is not None:
        try:
            sweep_kwargs["pair_kinds"] = tuple(
                PairKind(part.strip().lower()) for part in raw.split(",") if part.strip()
            )
        except ValueError as exc:
            raise ConfigError("sweep.pair_kinds", str(exc)) from exc

    for axis in ("vd_values", "vr_values"):
        for value in sweep_kwargs.get(axis, ()):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"sweep.{axis}", f"values must be within [0, 1], got {value}")

    spec = RunSpec(
        source=source,
        detector=detector,
        strategy=strategy,
        mux=mux,
        units=units,
        tail_tol=tail_tol,
        i_max=i_max,
        n_candidates=n_candidates,
        j_max=j_max,
        sweep=SweepSpec(**sweep_kwargs),
        **run_context,
    )
    try:
        strategy.validate_for(detector)
    except ValueError as exc:
        raise ConfigError("strategy.accepted", str(exc)) from exc
    return spec


def format_value(value) -> str:
    """Text form of an emitted number: plain-float repr, also for numpy scalars."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def dump_config(spec: RunSpec) -> str:
    """Canonical document form of a RunSpec; re-parses to an identical spec."""
    lines: list[str] = []
    lines += ["[source]", f"kind = {spec.source.kind.value}", f"mean = {format_value(spec.source.mean)}", ""]
    lines += [
        "[detector]",
        f"efficiency = {format_value(spec.detector.efficiency)}",
        f"resolution_cap = {spec.detector.resolution_cap}",
        "",
    ]
    lines += ["[strategy]", f"accepted = {spec.strategy.label}", ""]
    lines.append("[multiplexer]")
    lines.append(f"kind = {spec.mux.kind.value}")
    lines.append(f"units = {spec.units}")
    for name, value in spec.mux.param_items():
        lines.append(f"{name} = {format_value(value)}")
    lines.append("")
    lines.append("[optimizer]")
    lines.append(f"tail_tol = {format_value(spec.tail_tol)}")
    lines.append(f"i_max = {spec.i_max}")
    if spec.n_candidates is not None:
        lines.append("n_candidates = " + ",".join(str(n) for n in spec.n_candidates))
    lines.append(f"j_max = {spec.j_max}")
    sweep_lines = []
    sweep = spec.sweep
    for key in ("vd_values", "vr_values", "n_values", "lambda_values"):
        if getattr(sweep, key):
            sweep_lines.append(f"{key} = " + ",".join(format_value(v) for v in getattr(sweep, key)))
    if sweep.strategies:
        sweep_lines.append("strategies = " + ",".join(sweep.strategies))
    if sweep.pair_kinds:
        sweep_lines.append("pair_kinds = " + ",".join(k.value for k in sweep.pair_kinds))
    if sweep_lines:
        lines += ["", "[sweep]"] + sweep_lines
    return "\n".join(lines).rstrip() + "\n"


def flatten_config(spec: RunSpec) -> str:
    """Single-line form of the resolved document, for provenance comments."""
    flat = []
    section = ""
    for line in dump_config(spec).splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
            continue
        key, _, value = line.partition(" = ")
        flat.append(f"{section}.{key}={value}")
    return " ".join(flat)


# Shipped scenario presets: name -> document text.
PRESETS: dict[str, str] = {
    # symmetric spatial tree, exactly-one-photon heralding, no generic loss
    "ssm-spd": """\
[source]
kind = poissonian
mean = 0.534

[detector]
efficiency = 0.98
resolution_cap = 10

[strategy]
accepted = 1

[multiplexer]
kind = symmetric-spatial
units = 16
generic_transmission = 1.0
router_transmission = 0.98

[optimizer]
n_candidates = pow2:1024

[sweep]
vd_values = 0.3,0.6,0.8,0.9,0.98
vr_values = 0.3,0.4,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.88,0.9,0.92,0.94,0.95,0.96,0.97,0.98,0.99
""",
    # the same tree operated with threshold heralding
    "ssm-threshold": """\
[source]
kind = poissonian
mean = 0.246

[detector]
efficiency = 0.98
resolution_cap = 10

[strategy]
accepted = all

[multiplexer]
kind = symmetric-spatial
units = 16
generic_transmission = 1.0
router_transmission = 0.95

[optimizer]
n_candidates = pow2:1024

[sweep]
vd_values = 0.3,0.6,0.8,0.9,0.98
vr_values = 0.3,0.4,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.88,0.9,0.92,0.94,0.95,0.96,0.97,0.98,0.99
""",
    # storage loop releasing the latest heralded slot; reference optima for
    # this scenario assume the period-end slot leaves without a loop pass
    "loop-latest": """\
[source]
kind = poissonian
mean = 0.706

[detector]
efficiency = 0.98
resolution_cap = 10

[strategy]
accepted = 1

[multiplexer]
kind = time-loop-latest
units = 40
generic_transmission = 0.88
cycle_transmission = 0.988
min_cycles = 0

[sweep]
vd_values = 0.6,0.8,0.85,0.9,0.95,0.96,0.97,0.98
n_values = 40,100
strategies = threshold,spd
""",
    # the same loop with a thermal pair source and one loop pass for the
    # period-end slot
    "loop-latest-thermal": """\
[source]
kind = thermal
mean = 0.237

[detector]
efficiency = 0.6
resolution_cap = 10

[strategy]
accepted = 1

[multiplexer]
kind = time-loop-latest
units = 40
generic_transmission = 0.88
cycle_transmission = 0.988
min_cycles = 1

[sweep]
vd_values = 0.6,0.98
n_values = 40,100
strategies = spd
pair_kinds = thermal
""",
    # binary bulk time multiplexer with switched power-of-two delay lines
    "btm": """\
[source]
kind = poissonian
mean = 0.6

[detector]
efficiency = 0.98
resolution_cap = 10

[strategy]
accepted = 1

[multiplexer]
kind = binary-bulk-time
units = 16
generic_transmission = 0.996
pbs_transmission = 0.97
pbs_reflection = 0.996
propagation_transmission = 0.95

[optimizer]
n_candidates = pow2:1024

[sweep]
vd_values = 0.6,0.8,0.85,0.9,0.95,0.96,0.97,0.98
strategies = threshold,spd
""",
    # single-photon probability versus pump mean, one curve per unit count
    "ssm-curves": """\
[source]
kind = poissonian
mean = 0.45

[detector]
efficiency = 0.95
resolution_cap = 10

[strategy]
accepted = 1

[multiplexer]
kind = symmetric-spatial
units = 16
generic_transmission = 1.0
router_transmission = 0.98

[sweep]
n_values = 1,2,4,8,16,32
lambda_values = 0.02:2.0:0.02
""",
    # heralding-mode comparison maps over the detector/router loss plane
    "ssm-maps": """\
[source]
kind = poissonian
mean = 0.5

[detector]
efficiency = 0.95
resolution_cap = 10

[strategy]
accepted = 1

[multiplexer]
kind = symmetric-spatial
units = 16
generic_transmission = 1.0
router_transmission = 0.98

[optimizer]
n_candidates = pow2:1024
j_max = 6

[sweep]
vd_values = 0.3:1.0:0.01
vr_values = 0.3:1.0:0.01
""",
}
