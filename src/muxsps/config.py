"""Run configuration documents for the command-line front end.

A run is described by an INI-style text with sections [source],
[detector], [strategy], [multiplexer], [optimizer] and [sweep].  Each
document key is declared once, in ``_KEYS``, with its parser and the
value a resolved spec writes back; parsing, unknown-key rejection,
``config_field``'s key naming, ``dump_config`` (the canonical form, which
re-parses to an identical spec) and ``flatten_config`` all walk it.  This
module only parses: a key left out takes its library type's default, and
the library types and validators check every value, sweep values
included; ``config_field`` turns their error into a ``ConfigError`` that
names the document key.
"""

from __future__ import annotations

import math
from configparser import ConfigParser
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Iterator, NamedTuple

from .engine import SourceConfig
from .losses import KIND_PARAMS, MultiplexerModel, MuxKind, validate_unit_count
from .optimize import DEFAULT_J_MAX
from .statistics import DetectorModel, HeraldingStrategy, PairDistribution, PairKind, ParameterError

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
            paths = (key.path for key in _KEYS if key.name == exc.name)
            field_path = next(paths, _FLAG_PARAMS.get(exc.name, exc.name))
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


def _parse_float(field_path: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(field_path, f"not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(field_path, f"must be finite, got {raw!r}")
    return value


def _parse_int(field_path: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(field_path, f"not an integer: {raw!r}") from exc


def _enum(kind: type[Enum]) -> Callable[[str, str], Enum]:
    """Parser of one member of ``kind``, named by its value in any letter case."""

    def parse(field_path: str, raw: str) -> Enum:
        raw = raw.strip().lower()
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(field_path, f"must be one of {[k.value for k in kind]}, got {raw!r}") from exc

    return parse


def _listed(parse_one: Callable[[str, str], Any]) -> Callable[[str, str], tuple]:
    """Parser of a non-empty comma list whose entries ``parse_one`` reads."""

    def parse(field_path: str, raw: str) -> tuple:
        values = tuple(parse_one(field_path, part) for part in raw.split(",") if part.strip())
        if not values:
            raise ConfigError(field_path, "empty value list")
        return values

    return parse


def inclusive_range(field_path: str, start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ... up to stop (a rounding short of it counts), rounded to 12 decimals."""
    if not 0.0 < step < math.inf:
        raise ConfigError(field_path, f"step must be a finite number > 0, got {step}")
    if stop < start:
        raise ConfigError(field_path, f"range end {stop} is below its start {start}")
    count = math.floor((stop - start) / step + 1e-9) + 1
    return tuple(round(start + k * step, 12) for k in range(count))


def _parse_float_values(field_path: str, raw: str) -> tuple[float, ...]:
    """Comma list of numbers, or an inclusive range start:stop:step."""
    raw = raw.strip()
    if raw.count(":") == 2:
        start, stop, step = (_parse_float(field_path, part) for part in raw.split(":"))
        return inclusive_range(field_path, start, stop, step)
    values = _listed(_parse_float)(field_path, raw)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(field_path, "values must be strictly increasing")
    return values


def _parse_candidates(field_path: str, raw: str) -> tuple[int, ...]:
    """Unit-count candidates: 'pow2:CAP', 'range:LO:HI', or a comma list."""
    raw = raw.strip()
    if raw.startswith("pow2:"):
        cap = _parse_int(field_path, raw[5:])
        candidates = tuple(2**k for k in range(cap.bit_length()) if 2**k <= cap)
    elif raw.startswith("range:"):
        parts = raw[6:].split(":")
        if len(parts) != 2:
            raise ConfigError(field_path, f"bad range {raw!r}")
        lo, hi = (_parse_int(field_path, part) for part in parts)
        candidates = tuple(range(lo, hi + 1))
    else:
        return _listed(_parse_int)(field_path, raw)
    if not candidates:
        raise ConfigError(field_path, "empty value list")
    return candidates


def _parse_strategy(field_path: str, raw: str) -> HeraldingStrategy:
    raw = raw.strip().lower()
    if raw == "all":
        return HeraldingStrategy.threshold()
    return HeraldingStrategy(accepted=frozenset(_parse_int(field_path, part) for part in raw.split(",") if part.strip()))


def _strategy_token(field_path: str, raw: str) -> tuple[str, HeraldingStrategy]:
    token = raw.strip().lower()
    if token == "spd":
        return token, HeraldingStrategy.single_photon()
    if token == "threshold":
        return token, HeraldingStrategy.threshold()
    raise ConfigError(field_path, f"unknown strategy token {token!r}")


class _Key(NamedTuple):
    """One document key: ``parse(path, text)`` reads it, ``write(spec)`` is
    the value a resolved spec writes back (None or () writes nothing)."""

    section: str
    name: str
    parse: Callable[[str, str], Any]
    write: Callable[[RunSpec], Any]
    required: bool = False

    @property
    def path(self) -> str:
        return f"{self.section}.{self.name}"


# Every document key, in the canonical order of dump_config.
_KEYS = (
    _Key("source", "kind", _enum(PairKind), lambda spec: spec.cfg.dist.kind, required=True),
    _Key("source", "mean", _parse_float, lambda spec: spec.cfg.dist.mean, required=True),
    _Key("detector", "efficiency", _parse_float, lambda spec: spec.cfg.detector.efficiency, required=True),
    _Key("detector", "resolution_cap", _parse_int, lambda spec: spec.cfg.detector.resolution_cap),
    _Key("strategy", "accepted", _parse_strategy, lambda spec: spec.cfg.strategy.label, required=True),
    _Key("multiplexer", "kind", _enum(MuxKind), lambda spec: spec.cfg.mux.kind, required=True),
    _Key("multiplexer", "units", _parse_int, lambda spec: spec.cfg.units, required=True),
    # a loss parameter of another multiplexer kind is None, so it is not written
    *(
        _Key("multiplexer", name, _parse_float, lambda spec, name=name: getattr(spec.cfg.mux, name))
        for name in ("generic_transmission", *KIND_PARAMS)
    ),
    _Key(
        "multiplexer", "min_cycles", _parse_int,
        lambda spec: spec.cfg.mux.min_cycles if spec.cfg.mux.kind is MuxKind.TIME_LOOP_LATEST else None,
    ),
    _Key("optimizer", "tail_tol", _parse_float, lambda spec: spec.cfg.tail_tol),
    _Key("optimizer", "i_max", _parse_int, lambda spec: spec.cfg.i_max),
    _Key("optimizer", "n_candidates", _parse_candidates, lambda spec: spec.n_candidates),
    _Key("optimizer", "j_max", _parse_int, lambda spec: spec.j_max),
    _Key("sweep", "vd_values", _parse_float_values, lambda spec: spec.sweep.vd_values),
    _Key("sweep", "vr_values", _parse_float_values, lambda spec: spec.sweep.vr_values),
    _Key("sweep", "n_values", _listed(_parse_int), lambda spec: spec.sweep.n_values),
    _Key("sweep", "lambda_values", _parse_float_values, lambda spec: spec.sweep.lambda_values),
    _Key("sweep", "strategies", _listed(_strategy_token), lambda spec: tuple(token for token, _ in spec.sweep.strategies)),
    _Key("sweep", "pair_kinds", _listed(_enum(PairKind)), lambda spec: spec.sweep.pair_kinds),
)


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
    parser = ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except Exception as exc:
        raise ConfigError("config", f"cannot parse document: {exc}") from exc

    values: dict[str, dict[str, Any]] = {key.section: {} for key in _KEYS}
    if parser.defaults():  # ConfigParser would copy these keys into every section
        raise ConfigError(parser.default_section, "unknown section")
    for section in parser.sections():
        if section not in values:
            raise ConfigError(section, "unknown section")
        for name in parser[section]:
            if not any(key.path == f"{section}.{name}" for key in _KEYS):
                raise ConfigError(f"{section}.{name}", "unknown key")

    with config_field():
        for key in _KEYS:
            if parser.has_option(key.section, key.name):
                values[key.section][key.name] = key.parse(key.path, parser.get(key.section, key.name))
            elif key.required:
                raise ConfigError(key.path, "missing required key")
        mux, optimizer = values["multiplexer"], values["optimizer"]
        units = mux.pop("units")
        series = {name: optimizer.pop(name) for name in ("tail_tol", "i_max") if name in optimizer}
        cfg = SourceConfig(
            PairDistribution(**values["source"]),
            DetectorModel(**values["detector"]),
            values["strategy"]["accepted"],
            MultiplexerModel(**mux),
            units,
            **series,
        )
    return check_sweep(RunSpec(cfg, sweep=SweepSpec(**values["sweep"]), **optimizer, **run_context))


def format_value(value) -> str:
    """Text form of an emitted value: plain-float repr (also of numpy scalars), enum value, or comma list."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def _written(spec: RunSpec) -> Iterator[tuple[_Key, str]]:
    """Each key the spec writes back, with its text, in canonical order."""
    for key in _KEYS:
        value = key.write(spec)
        if value is not None and value != ():
            yield key, format_value(value)


def dump_config(spec: RunSpec) -> str:
    """Canonical document form of a RunSpec; re-parses to an identical spec."""
    sections: dict[str, list[str]] = {}
    for key, text in _written(spec):
        sections.setdefault(key.section, [f"[{key.section}]"]).append(f"{key.name} = {text}")
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


def flatten_config(spec: RunSpec) -> str:
    """Single-line form of the resolved document, for provenance comments."""
    return " ".join(f"{key.path}={text}" for key, text in _written(spec))


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
