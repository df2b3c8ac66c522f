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

from .statistics import binomial_pmf


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
_KIND_PARAMS = (
    "router_transmission",
    "cycle_transmission",
    "pbs_transmission",
    "pbs_reflection",
    "propagation_transmission",
)


def hamming_weight(x: int) -> int:
    """Number of ones in the binary representation of a non-negative integer."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return int(x).bit_count()


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
        for name in required:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{name} is required for kind={self.kind.value}")
        for name in _KIND_PARAMS:
            value = getattr(self, name)
            if value is None:
                continue
            if name not in required:
                raise ValueError(f"{name} does not apply to kind={self.kind.value}")
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if not (0.0 <= self.generic_transmission <= 1.0):
            raise ValueError(
                f"generic_transmission must be within [0, 1], got {self.generic_transmission}"
            )
        if self.kind is MuxKind.TIME_LOOP_LATEST:
            if self.min_cycles not in (0, 1):
                raise ValueError(f"min_cycles must be 0 or 1, got {self.min_cycles}")
        elif self.min_cycles != 1:
            raise ValueError(f"min_cycles only applies to kind={MuxKind.TIME_LOOP_LATEST.value}")

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

    def param_items(self) -> list[tuple[str, float | int]]:
        """Kind-relevant parameters as (name, value) pairs, for reporting."""
        items: list[tuple[str, float | int]] = [("generic_transmission", self.generic_transmission)]
        items += [(name, getattr(self, name)) for name in _REQUIRED[self.kind]]
        if self.kind is MuxKind.TIME_LOOP_LATEST:
            items.append(("min_cycles", self.min_cycles))
        return items


def validate_unit_count(model: MultiplexerModel, units: int) -> None:
    """Raise ValueError unless ``units`` is a valid unit count for ``model``."""
    if units < 1:
        raise ValueError(f"unit count must be >= 1, got {units}")
    if model.requires_power_of_two and not is_power_of_two(units):
        raise ValueError(f"kind={model.kind.value} needs a power-of-2 unit count, got {units}")


def unit_transmission(model: MultiplexerModel, n: int, units: int) -> float:
    """Total transmission from unit n to the output of an ``units``-unit network."""
    validate_unit_count(model, units)
    if not 1 <= n <= units:
        raise ValueError(f"need 1 <= n <= units, got n={n}, units={units}")
    base = model.generic_transmission
    if model.kind is MuxKind.SYMMETRIC_SPATIAL:
        levels = units.bit_length() - 1
        return base * model.router_transmission**levels
    if model.kind is MuxKind.TIME_CHAIN:
        return base * model.cycle_transmission ** (units - n)
    if model.kind is MuxKind.TIME_LOOP_LATEST:
        return base * model.cycle_transmission ** (n - 1 + model.min_cycles)
    # binary bulk time: reflected into one delay line per set bit of the
    # delay, transmitted through the remaining stages, plus propagation
    # loss proportional to the delay fraction
    delay = units - n
    levels = units.bit_length() - 1
    reflections = hamming_weight(delay)
    return (
        base
        * model.pbs_reflection**reflections
        * model.pbs_transmission ** (levels - reflections)
        * model.propagation_transmission ** (delay / units)
    )


@lru_cache(maxsize=256)
def unit_transmissions(model: MultiplexerModel, units: int) -> np.ndarray:
    """Read-only vector of unit transmissions for n = 1..units."""
    values = np.array([unit_transmission(model, n, units) for n in range(1, units + 1)])
    values.setflags(write=False)
    return values


def transmit_conditional(i: int, l: int, survival: float) -> float:
    """Probability that i of l photons survive a channel of given transmission."""
    if i < 0 or l < 0 or i > l:
        raise ValueError(f"need 0 <= i <= l, got i={i}, l={l}")
    if not (0.0 <= survival <= 1.0):
        raise ValueError(f"survival must be within [0, 1], got {survival}")
    return binomial_pmf(i, l, survival)
