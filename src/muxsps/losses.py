"""Transmission models of the multiplexing network.

Each multiplexed unit n (1-based; n=1 has the highest heralding priority)
forwards its signal photons to the common output with a total transmission
that depends on the network topology:

* symmetric spatial: a log-tree of 2-to-1 routers, identical for every unit;
* time chain: a storage loop (or asymmetric router chain) where unit n waits
  out the remaining slots of the period;
* time loop, release-latest: the same storage loop operated so that the slot
  closest to the period end has priority and waits the fewest cycles;
* binary bulk time: switched delay lines of power-of-two lengths, entered
  according to the binary digits of the required delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .statistics import ParameterError


class MuxKind(str, Enum):
    SYMMETRIC_SPATIAL = "symmetric-spatial"
    TIME_CHAIN = "time-chain"
    TIME_LOOP_LATEST = "time-loop-latest"
    BINARY_BULK_TIME = "binary-bulk-time"


_REQUIRED = {
    MuxKind.SYMMETRIC_SPATIAL: ("router_transmission",),
    MuxKind.TIME_CHAIN: ("cycle_transmission",),
    MuxKind.TIME_LOOP_LATEST: ("cycle_transmission",),
    MuxKind.BINARY_BULK_TIME: ("pbs_transmission", "pbs_reflection", "propagation_transmission"),
}
# every kind's loss parameters, each once, in the order above
KIND_PARAMS = tuple(dict.fromkeys(name for names in _REQUIRED.values() for name in names))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


@dataclass(frozen=True)
class MultiplexerModel:
    """One multiplexing topology with its loss parameters.

    ``generic_transmission`` collects unit-independent losses (collection,
    switch-in, pre-delay).  ``min_cycles`` applies only to the
    release-latest loop: it is the number of loop passes incurred by the
    highest-priority slot (1 by default; 0 models a loop that releases the
    final slot without a pass).
    """

    kind: MuxKind
    generic_transmission: float = 1.0
    router_transmission: float | None = None
    cycle_transmission: float | None = None
    pbs_transmission: float | None = None
    pbs_reflection: float | None = None
    propagation_transmission: float | None = None
    min_cycles: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MuxKind):
            object.__setattr__(self, "kind", MuxKind(self.kind))
        required = _REQUIRED[self.kind]
        for name in ("generic_transmission", *KIND_PARAMS):
            value = getattr(self, name)
            if value is None:
                if name in required:
                    raise ParameterError(name, f"is required for kind={self.kind.value}")
            elif not 0.0 <= value <= 1.0:
                raise ParameterError(name, f"must be within [0, 1], got {value}")
            elif name not in ("generic_transmission", *required):
                raise ParameterError(name, f"does not apply to kind={self.kind.value}")
        if self.kind is MuxKind.TIME_LOOP_LATEST:
            if self.min_cycles not in (0, 1):
                raise ParameterError("min_cycles", f"must be 0 or 1, got {self.min_cycles}")
        elif self.min_cycles != 1:
            raise ParameterError("min_cycles", f"only applies to kind={MuxKind.TIME_LOOP_LATEST.value}")

    @classmethod
    def symmetric_spatial(
        cls, router_transmission: float, generic_transmission: float = 1.0
    ) -> MultiplexerModel:
        return cls(
            MuxKind.SYMMETRIC_SPATIAL,
            generic_transmission=generic_transmission,
            router_transmission=router_transmission,
        )

    @classmethod
    def time_chain(
        cls, cycle_transmission: float, generic_transmission: float = 1.0
    ) -> MultiplexerModel:
        return cls(
            MuxKind.TIME_CHAIN,
            generic_transmission=generic_transmission,
            cycle_transmission=cycle_transmission,
        )

    @classmethod
    def time_loop_latest(
        cls,
        cycle_transmission: float,
        generic_transmission: float = 1.0,
        min_cycles: int = 1,
    ) -> MultiplexerModel:
        return cls(
            MuxKind.TIME_LOOP_LATEST,
            generic_transmission=generic_transmission,
            cycle_transmission=cycle_transmission,
            min_cycles=min_cycles,
        )

    @classmethod
    def binary_bulk_time(
        cls,
        pbs_transmission: float,
        pbs_reflection: float,
        propagation_transmission: float,
        generic_transmission: float = 1.0,
    ) -> MultiplexerModel:
        return cls(
            MuxKind.BINARY_BULK_TIME,
            generic_transmission=generic_transmission,
            pbs_transmission=pbs_transmission,
            pbs_reflection=pbs_reflection,
            propagation_transmission=propagation_transmission,
        )

    @property
    def requires_power_of_two(self) -> bool:
        return self.kind in (MuxKind.SYMMETRIC_SPATIAL, MuxKind.BINARY_BULK_TIME)


def validate_unit_count(model: MultiplexerModel, units: int, name: str = "units") -> None:
    """Raise ParameterError, naming ``name``, unless ``units`` is a valid unit count for ``model``."""
    if units < 1:
        raise ParameterError(name, f"must be >= 1, got {units}")
    if model.requires_power_of_two and not is_power_of_two(units):
        raise ParameterError(name, f"must be a power of 2 for kind={model.kind.value}, got {units}")


def shared_transmission(model: MultiplexerModel, units: int) -> float | None:
    """The one transmission all ``units`` units of ``model`` share, or None if they may differ.

    Exact: where it returns v, every entry of ``unit_transmissions(model,
    units)`` is v.  Binary delays with equal PBS transmission and
    reflection get None, as r**a * r**b can round off r**(a + b).
    """
    validate_unit_count(model, units)
    if model.kind is MuxKind.SYMMETRIC_SPATIAL:
        return model.generic_transmission * model.router_transmission ** (units.bit_length() - 1)
    if units == 1 or model.generic_transmission == 0.0 or model.cycle_transmission == 1.0:
        return next(_time_transmissions(model, units))
    return None


def _time_transmissions(model: MultiplexerModel, units: int):
    """The transmissions of a time multiplexer's units n = 1..units, one at a time."""
    base, cycle, levels = model.generic_transmission, model.cycle_transmission, units.bit_length() - 1
    if model.kind is MuxKind.TIME_CHAIN:
        return (base * cycle ** (units - n) for n in range(1, units + 1))
    if model.kind is MuxKind.TIME_LOOP_LATEST:
        return (base * cycle ** (n - 1 + model.min_cycles) for n in range(1, units + 1))
    # binary bulk time: one delay line per set bit of the delay units - n, propagation loss by delay fraction
    r, t, prop = model.pbs_reflection, model.pbs_transmission, model.propagation_transmission
    bits = ((delay, delay.bit_count()) for delay in range(units - 1, -1, -1))
    return (base * r**bit * t ** (levels - bit) * prop ** (delay / units) for delay, bit in bits)


@lru_cache(maxsize=256)
def unit_transmissions(model: MultiplexerModel, units: int) -> np.ndarray:
    """Read-only vector of the total transmissions from unit n = 1..units to the output.

    Python float powers, not numpy's vector power, which can differ in the last bit.
    """
    shared = shared_transmission(model, units)  # validates the unit count
    tree = model.kind is MuxKind.SYMMETRIC_SPATIAL
    array = np.array([shared] * units if tree else list(_time_transmissions(model, units)))
    array.setflags(write=False)
    return array
