"""Numerical toolkit for multi-parameter estimation on networks of quantum
sensors: Fisher-information matrices and Cramer-Rao bounds, probe-state
constructions (separable surrogates, local purifications, GHZ-like states,
optimal allocations), closed-form variance bounds for linear functionals,
and seeded randomized audits of the underlying matrix inequalities."""

__version__ = "0.1.0"

from .bounds import (
    BoundComparison,
    LinearFunctional,
    compare,
    enhancement_ratio,
    ghz_bound,
    pnorm,
    separable_bound,
)
from .exceptions import (
    DimensionLimitError,
    FormatError,
    LayoutError,
    NoncommutingGeneratorsError,
)
from .fisher import (
    QFIM,
    BoundReport,
    block_inverse_residuals,
    cfim,
    qcrb,
    qfim_mixed,
    qfim_pure,
    sld_operators,
)
from .hilbert import (
    DensityOperator,
    PureState,
    expm_i,
    partial_trace,
    sensor_marginal,
)
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
from .scenarios import (
    AuditResult,
    GradientReport,
    OpticalReport,
    ScenarioConfig,
    audit_block_inverse,
    audit_local_purification,
    audit_separable_surrogate,
    gradient_scenario,
    optical_phase_scenario,
    qubit_ensemble_family,
    scenario_config_from_json,
    truncated_mode_family,
)
from .states import (
    SensorFamily,
    extremal_product,
    ghz_probe,
    joint_eigenbasis,
    local_purification_probe,
    optimal_separable_probe,
    product_defect,
    purify,
    separable_surrogate,
)

__all__ = [
    "__version__",
    # hilbert
    "PureState",
    "DensityOperator",
    "partial_trace",
    "sensor_marginal",
    "expm_i",
    # network
    "SensorSpec",
    "SensorNetwork",
    "encode",
    "resource_count",
    "doubled",
    "with_collective_ancilla",
    "network_to_json",
    "network_from_json",
    # states
    "SensorFamily",
    "joint_eigenbasis",
    "separable_surrogate",
    "purify",
    "local_purification_probe",
    "extremal_product",
    "ghz_probe",
    "optimal_separable_probe",
    "product_defect",
    # fisher
    "QFIM",
    "BoundReport",
    "qfim_pure",
    "qfim_mixed",
    "sld_operators",
    "qcrb",
    "block_inverse_residuals",
    "cfim",
    # bounds
    "LinearFunctional",
    "BoundComparison",
    "pnorm",
    "separable_bound",
    "ghz_bound",
    "enhancement_ratio",
    "compare",
    # scenarios
    "ScenarioConfig",
    "AuditResult",
    "GradientReport",
    "OpticalReport",
    "scenario_config_from_json",
    "qubit_ensemble_family",
    "truncated_mode_family",
    "audit_separable_surrogate",
    "audit_local_purification",
    "audit_block_inverse",
    "gradient_scenario",
    "optical_phase_scenario",
    # exceptions
    "DimensionLimitError",
    "LayoutError",
    "NoncommutingGeneratorsError",
    "FormatError",
]
