"""Run configuration documents for the command-line front end.

A run is described by an INI-style text with sections [source],
[detector], [strategy], [multiplexer], [optimizer] and [sweep].  This
module only parses: it turns text into typed values and rejects bad
syntax and unknown sections or keys.  The library types and validators
check every value, sweep values included; ``config_field`` turns their
error into a ``ConfigError`` that names the document key.
``dump_config`` writes the canonical form, which re-parses to an
identical spec.
"""

from __future__ import annotations

import math
from configparser import ConfigParser
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator

from .engine import DEFAULT_I_MAX, SourceConfig
from .losses import KIND_PARAMS, MultiplexerModel, MuxKind, validate_unit_count
from .optimize import DEFAULT_J_MAX
from .statistics import (
    DEFAULT_RESOLUTION_CAP,
    DEFAULT_TAIL_TOL,
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
    ParameterError,
)

_SECTION_KEYS = {
    "source": ("kind", "mean"),
    "detector": ("efficiency", "resolution_cap"),
    "strategy": ("accepted",),
    "multiplexer": ("kind", "units", "generic_transmission", *KIND_PARAMS, "min_cycles"),
    "optimizer": ("tail_tol", "i_max", "n_candidates", "j_max"),
    "sweep": ("vd_values", "vr_values", "n_values", "lambda_values", "strategies", "pair_kinds"),
}
_FLAG_PARAMS = {"workers": "--workers", "samples": "--mc-check", "seed": "--seed"}


class ConfigError(ValueError):
    """Invalid run configuration; names the offending field."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@contextmanager
def config_field(field_path: str | None = None) -> Iterator[None]:
    """Raise a library ``ParameterError`` from the block as a ``ConfigError``.

    The error names ``field_path``; by default, the document key or flag
    that the library parameter is read from.
    """
    try:
        yield
    except ParameterError as exc:
        if field_path is None:
            keys = (f"{section}.{exc.name}" for section, names in _SECTION_KEYS.items() if exc.name in names)
            field_path = next(keys, _FLAG_PARAMS.get(exc.name, exc.name))
        raise ConfigError(field_path, exc.reason) from exc


@dataclass(frozen=True)
class SweepSpec:
    """Axes for the table and map commands."""

    vd_values: tuple[float, ...] = ()
    vr_values: tuple[float, ...] = ()
    n_values: tuple[int, ...] = ()
    lambda_values: tuple[float, ...] = ()
    strategies: tuple[tuple[str, HeraldingStrategy], ...] = ()  # (token, strategy) pairs
    pair_kinds: tuple[PairKind, ...] = ()


@dataclass(frozen=True)
class RunSpec:
    """One resolved CLI run: scenario, optimizer settings, sweep, run context."""

    cfg: SourceConfig
    n_candidates: tuple[int, ...] | None = None
    j_max: int = DEFAULT_J_MAX
    sweep: SweepSpec = field(default_factory=SweepSpec)
    # run context comes from flags, not from the document
    command: str = ""
    out_path: str | None = None
    seed: int = 0
    mc_samples: int | None = None
    workers: int | None = None


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}", f"must be finite, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"not an integer: {raw!r}") from exc


def _parse_enum(section: str, key: str, raw: str, kind: type[Enum]) -> Enum:
    raw = raw.strip().lower()
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"must be one of {[k.value for k in kind]}, got {raw!r}") from exc


def _non_empty(section: str, key: str, values: tuple) -> tuple:
    if not values:
        raise ConfigError(f"{section}.{key}", "empty value list")
    return values


def inclusive_range(field_path: str, start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ... up to stop (a rounding short of it counts), rounded to 12 decimals."""
    if not 0.0 < step < math.inf:
        raise ConfigError(field_path, f"step must be a finite number > 0, got {step}")
    if stop < start:
        raise ConfigError(field_path, f"range end {stop} is below its start {start}")
    count = math.floor((stop - start) / step + 1e-9) + 1
    return tuple(round(start + k * step, 12) for k in range(count))


def _parse_float_values(section: str, key: str, raw: str) -> tuple[float, ...]:
    """Comma list of numbers, or an inclusive range start:stop:step."""
    raw = raw.strip()
    if raw.count(":") == 2:
        start, stop, step = (_parse_float(section, key, part) for part in raw.split(":"))
        return inclusive_range(f"{section}.{key}", start, stop, step)
    values = _non_empty(section, key, tuple(_parse_float(section, key, part) for part in raw.split(",") if part.strip()))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{section}.{key}", "values must be strictly increasing")
    return values


def _parse_int_values(section: str, key: str, raw: str) -> tuple[int, ...]:
    return _non_empty(section, key, tuple(_parse_int(section, key, part) for part in raw.split(",") if part.strip()))


def _parse_candidates(section: str, key: str, raw: str) -> tuple[int, ...]:
    """Unit-count candidates: 'pow2:CAP', 'range:LO:HI', or a comma list."""
    raw = raw.strip()
    if raw.startswith("pow2:"):
        cap = _parse_int(section, key, raw[5:])
        return _non_empty(section, key, tuple(2**k for k in range(cap.bit_length()) if 2**k <= cap))
    if raw.startswith("range:"):
        parts = raw[6:].split(":")
        if len(parts) != 2:
            raise ConfigError(f"{section}.{key}", f"bad range {raw!r}")
        lo, hi = (_parse_int(section, key, part) for part in parts)
        return _non_empty(section, key, tuple(range(lo, hi + 1)))
    return _parse_int_values(section, key, raw)


def _parse_strategy(raw: str) -> HeraldingStrategy:
    raw = raw.strip().lower()
    if raw == "all":
        return HeraldingStrategy.threshold()
    counts = frozenset(_parse_int("strategy", "accepted", part) for part in raw.split(",") if part.strip())
    return HeraldingStrategy(accepted=counts)


def _strategy_from_token(token: str) -> HeraldingStrategy:
    if token == "spd":
        return HeraldingStrategy.single_photon()
    if token == "threshold":
        return HeraldingStrategy.threshold()
    raise ConfigError("sweep.strategies", f"unknown strategy token {token!r}")


def check_sweep(spec: RunSpec) -> RunSpec:
    """The spec, once the library has checked its sweep values."""
    cfg, sweep = spec.cfg, spec.sweep
    checks = (
        ("sweep.n_values", sweep.n_values, lambda n: validate_unit_count(cfg.mux, n)),
        ("sweep.vd_values", sweep.vd_values, lambda v: replace(cfg.detector, efficiency=v)),
        ("sweep.vr_values", sweep.vr_values, lambda v: replace(cfg.mux, router_transmission=v)),
        ("sweep.lambda_values", sweep.lambda_values, lambda v: replace(cfg.dist, mean=v)),
    )
    for field_path, values, check in checks:
        with config_field(field_path):
            for value in values:
                check(value)
    return spec


def parse_config(text: str, **run_context) -> RunSpec:
    """Parse a configuration document into a RunSpec.

    ``run_context`` passes through the flag-supplied fields (command,
    out_path, seed, mc_samples, workers).  The optimizer's ``n_candidates``
    and ``j_max`` are checked by the commands that use them.
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

    with config_field():
        source = PairDistribution(
            _parse_enum("source", "kind", require("source", "kind"), PairKind),
            _parse_float("source", "mean", require("source", "mean")),
        )
        detector = DetectorModel(
            _parse_float("detector", "efficiency", require("detector", "efficiency")),
            _parse_int("detector", "resolution_cap", get("detector", "resolution_cap", str(DEFAULT_RESOLUTION_CAP))),
        )
        strategy = _parse_strategy(require("strategy", "accepted"))
        mux_kind = _parse_enum("multiplexer", "kind", require("multiplexer", "kind"), MuxKind)
        mux_kwargs: dict[str, float | int] = {
            key: _parse_float("multiplexer", key, raw)
            for key in ("generic_transmission", *KIND_PARAMS)
            if (raw := get("multiplexer", key)) is not None
        }
        raw = get("multiplexer", "min_cycles")
        if raw is not None:
            mux_kwargs["min_cycles"] = _parse_int("multiplexer", "min_cycles", raw)
        cfg = SourceConfig(
            dist=source,
            detector=detector,
            strategy=strategy,
            mux=MultiplexerModel(kind=mux_kind, **mux_kwargs),
            units=_parse_int("multiplexer", "units", require("multiplexer", "units")),
            tail_tol=_parse_float("optimizer", "tail_tol", get("optimizer", "tail_tol", repr(DEFAULT_TAIL_TOL))),
            i_max=_parse_int("optimizer", "i_max", get("optimizer", "i_max", str(DEFAULT_I_MAX))),
        )
    raw = get("optimizer", "n_candidates")
    n_candidates = _parse_candidates("optimizer", "n_candidates", raw) if raw is not None else None
    j_max = _parse_int("optimizer", "j_max", get("optimizer", "j_max", str(DEFAULT_J_MAX)))

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
        tokens = (part.strip().lower() for part in raw.split(",") if part.strip())
        sweep_kwargs["strategies"] = tuple((token, _strategy_from_token(token)) for token in tokens)
    raw = get("sweep", "pair_kinds")
    if raw is not None:
        sweep_kwargs["pair_kinds"] = tuple(
            _parse_enum("sweep", "pair_kinds", part, PairKind) for part in raw.split(",") if part.strip()
        )

    spec = RunSpec(cfg=cfg, n_candidates=n_candidates, j_max=j_max, sweep=SweepSpec(**sweep_kwargs), **run_context)
    return check_sweep(spec)


def format_value(value) -> str:
    """Text form of an emitted number: plain-float repr, also for numpy scalars."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def dump_config(spec: RunSpec) -> str:
    """Canonical document form of a RunSpec; re-parses to an identical spec."""
    cfg = spec.cfg
    lines: list[str] = []
    lines += ["[source]", f"kind = {cfg.dist.kind.value}", f"mean = {format_value(cfg.dist.mean)}", ""]
    lines += [
        "[detector]",
        f"efficiency = {format_value(cfg.detector.efficiency)}",
        f"resolution_cap = {cfg.detector.resolution_cap}",
        "",
    ]
    lines += ["[strategy]", f"accepted = {cfg.strategy.label}", ""]
    lines.append("[multiplexer]")
    lines.append(f"kind = {cfg.mux.kind.value}")
    lines.append(f"units = {cfg.units}")
    for name, value in cfg.mux.param_items():
        lines.append(f"{name} = {format_value(value)}")
    lines.append("")
    lines.append("[optimizer]")
    lines.append(f"tail_tol = {format_value(cfg.tail_tol)}")
    lines.append(f"i_max = {cfg.i_max}")
    if spec.n_candidates is not None:
        lines.append("n_candidates = " + ",".join(str(n) for n in spec.n_candidates))
    lines.append(f"j_max = {spec.j_max}")
    sweep_lines = []
    sweep = spec.sweep
    for key in ("vd_values", "vr_values", "n_values", "lambda_values"):
        if getattr(sweep, key):
            sweep_lines.append(f"{key} = " + ",".join(format_value(v) for v in getattr(sweep, key)))
    if sweep.strategies:
        sweep_lines.append("strategies = " + ",".join(token for token, _ in sweep.strategies))
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
