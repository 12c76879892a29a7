"""Numerical toolkit for multi-parameter estimation on networks of quantum
sensors: Fisher-information matrices and Cramer-Rao bounds, probe-state
constructions (separable surrogates, local purifications, GHZ-like states,
optimal allocations), closed-form variance bounds for linear functionals,
and seeded randomized audits of the underlying matrix inequalities.

The package API is declared here once: every export of ``bounds``,
``fisher``, ``scenarios`` and ``states`` (their own ``__all__``), and the
subsets named below from ``hilbert``, ``network`` and ``exceptions``. The
dense full-space helpers (``embed_local``, ``global_generators``) stay in
their modules. The imports keep their order: import order moves peak RSS.
"""

__version__ = "0.1.0"

from .bounds import *
from .exceptions import DimensionLimitError, FormatError, LayoutError, NoncommutingGeneratorsError
from .fisher import *
from .hilbert import DensityOperator, PureState, partial_trace, sensor_marginal
from .network import (
    SensorNetwork,
    SensorSpec,
    doubled,
    encode,
    network_from_json,
    network_to_json,
    resource_count,
    with_collective_ancilla,
)
from .scenarios import *
from .states import *

__all__ = [
    "__version__",
    # hilbert
    "PureState",
    "DensityOperator",
    "partial_trace",
    "sensor_marginal",
    # network
    "SensorSpec",
    "SensorNetwork",
    "encode",
    "resource_count",
    "doubled",
    "with_collective_ancilla",
    "network_to_json",
    "network_from_json",
    *states.__all__,
    *fisher.__all__,
    *bounds.__all__,
    *scenarios.__all__,
    # exceptions
    "DimensionLimitError",
    "LayoutError",
    "NoncommutingGeneratorsError",
    "FormatError",
]
