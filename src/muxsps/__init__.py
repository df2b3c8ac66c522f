"""Photon-number statistics and design optimization of multiplexed heralded single-photon sources."""

__version__ = "0.1.0"

from .engine import (
    DEFAULT_I_MAX,
    OutputDistribution,
    SourceConfig,
    closed_form,
    output_distribution,
)
from .losses import MultiplexerModel, MuxKind, unit_transmissions
from .optimize import (
    ComparisonMap,
    OptimizationResult,
    comparison_map,
    maximize_over_lambda,
    optimize_strategies,
    optimize_units,
)
from .simulate import SimulationEstimate, simulate
from .statistics import (
    DEFAULT_RESOLUTION_CAP,
    DEFAULT_TAIL_TOL,
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
    ParameterError,
)

__all__ = [
    "ComparisonMap",
    "DEFAULT_I_MAX",
    "DEFAULT_RESOLUTION_CAP",
    "DEFAULT_TAIL_TOL",
    "DetectorModel",
    "HeraldingStrategy",
    "MultiplexerModel",
    "MuxKind",
    "OptimizationResult",
    "OutputDistribution",
    "PairDistribution",
    "PairKind",
    "ParameterError",
    "SimulationEstimate",
    "SourceConfig",
    "closed_form",
    "comparison_map",
    "maximize_over_lambda",
    "optimize_strategies",
    "optimize_units",
    "output_distribution",
    "simulate",
    "unit_transmissions",
]
