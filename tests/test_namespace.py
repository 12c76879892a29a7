"""Package namespace: every exported name resolves, once, and the package
API is pinned, so a removed wrapper or a dense helper cannot come back into
it unnoticed."""

import importlib
import pkgutil

import pytest

import qsnet

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(qsnet.__path__))

# The package API, by defining module. The dense full-space helpers
# (``embed_local``, ``global_generators``) stay in ``qsnet.hilbert`` and
# ``qsnet.network`` for the benchmark sweep and are not part of it. The dense
# SLD operators are built only by the oracles in ``tests/conftest.py``.
PACKAGE_API = """
    __version__
    PureState DensityOperator partial_trace sensor_marginal
    SensorSpec SensorNetwork encode resource_count doubled with_collective_ancilla
    network_to_json network_from_json
    SensorFamily joint_eigenbasis separable_surrogate purify local_purification_probe
    extremal_product ghz_probe optimal_separable_probe product_defect
    QFIM BoundReport qfim_pure qfim_mixed qcrb
    block_inverse_residuals cfim
    LinearFunctional BoundComparison pnorm separable_bound ghz_bound enhancement_ratio compare
    ScenarioConfig AuditResult GradientReport OpticalReport
    qubit_ensemble_family truncated_mode_family audit_separable_surrogate
    audit_local_purification audit_block_inverse gradient_scenario optical_phase_scenario
    DimensionLimitError LayoutError NoncommutingGeneratorsError FormatError
""".split()


@pytest.mark.parametrize("name", ["qsnet", *(f"qsnet.{m}" for m in SUBMODULES)])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_unique():
    assert len(qsnet.__all__) == len(set(qsnet.__all__))


def test_package_api_is_pinned():
    assert sorted(qsnet.__all__) == sorted(PACKAGE_API)
    for name in ("eigh", "embed_local", "expm_i", "global_generators", "sld_operators"):
        assert not hasattr(qsnet, name)
