"""Acceptance suite.

Each test exercises one shipping criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them) before
asserting. Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from conftest import density, oracle_qfim_pure, random_hermitian, random_povm, sigma_y_effects
from qsnet import (
    QFIM,
    LinearFunctional,
    ScenarioConfig,
    SensorNetwork,
    SensorSpec,
    audit_block_inverse,
    audit_local_purification,
    audit_separable_surrogate,
    cfim,
    enhancement_ratio,
    ghz_probe,
    gradient_scenario,
    pnorm,
    qfim_mixed,
    qfim_pure,
    qubit_ensemble_family,
)
from qsnet.hilbert import SIGMA_Z, PureState
from qsnet.reporting import dumps
from qsnet.sampling import haar_state, trial_rng


def _check(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


# Network shapes for the oracle-equivalence sweep: 2-3 sensors, total
# dimension capped at 64.
_EQUIVALENCE_LAYOUTS = [
    (2, 2),
    (2, 3),
    (4, 4),
    (2, 2, 2),
    (3, 3, 3),
    (8, 8),
    (4, 16),
    (2, 4, 8),
]


def _random_network_for_layout(dims, rng) -> SensorNetwork:
    sensors = []
    for dim in dims:
        n_gens = 1 if dim == 2 else int(rng.integers(1, 3))
        gens = tuple(random_hermitian(dim, rng) for _ in range(n_gens))
        res = np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex)
        sensors.append(SensorSpec(dim, gens, res))
    return SensorNetwork(tuple(sensors))


def test_criterion_1_qfim_oracle_equivalence():
    """Pure-state covariance formula and SLD route against the dense
    textbook oracle over 500 Haar probes."""
    start = time.time()
    worst = 0.0
    for t in range(500):
        rng = trial_rng(1001, t)
        dims = _EQUIVALENCE_LAYOUTS[t % len(_EQUIVALENCE_LAYOUTS)]
        net = _random_network_for_layout(dims, rng)
        psi = haar_state(net.total_dim, net.dims, rng)
        oracle = oracle_qfim_pure(psi, net)
        fim_pure = qfim_pure(psi, net)
        fim_sld = qfim_mixed(density(psi), net)
        for fim in (fim_pure, fim_sld):
            worst = max(worst, float(np.max(np.abs(fim.matrix - oracle))))
    elapsed = time.time() - start
    _check(
        1,
        "qfim oracle equivalence",
        worst <= 1e-9 and elapsed < 60.0,
        f"500 probes, max dev {worst:.2e} (tol 1e-9), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_block_inverse_audit():
    """1000 random positive-definite matrices with random partitions."""
    result = audit_block_inverse(ScenarioConfig(seed=3, trials=1000))
    general = [r["min_residual"] for r in result.records if r["kind"] == "general"]
    equality = [r["abs_residual"] for r in result.records if r["kind"] == "block_diagonal"]
    ok = len(general) == 1000 and min(general) >= -1e-9 and max(equality) <= 1e-10
    _check(
        2,
        "block-inverse inequality",
        ok,
        f"min residual {min(general):.2e} (tol -1e-9), equality max {max(equality):.2e} (tol 1e-10)",
    )


def test_criterion_3_separable_surrogate_audit():
    """200 commuting-generator trials within the stated tolerances."""
    start = time.time()
    result = audit_separable_surrogate(ScenarioConfig(seed=42, trials=200, tol=1e-9))
    elapsed = time.time() - start
    ok = (
        result.passed
        and result.max_structure_defect <= 1e-10
        and result.max_violation <= 1e-9
        and elapsed < 300.0
    )
    _check(
        3,
        "separable surrogate audit",
        ok,
        f"200 trials, regenerated {result.regenerated}, viol {result.max_violation:.2e} "
        f"(tol 1e-9), product {result.max_structure_defect:.2e} (tol 1e-10), {elapsed:.1f}s",
    )


def test_criterion_4_local_purification_audit():
    """200 trials with a non-commuting-generator sensor."""
    result = audit_local_purification(ScenarioConfig(seed=7, trials=200, tol=1e-9))
    _check(
        4,
        "local purification audit",
        result.passed and result.max_violation <= 1e-9,
        f"200 trials, regenerated {result.regenerated}, viol {result.max_violation:.2e} (tol 1e-9)",
    )


def test_criterion_5_ghz_closed_forms():
    """State-level GHZ information matches the closed forms for d = 2, 3, 4."""
    fam = qubit_ensemble_family()
    worst_mat = worst_fun = worst_ratio = 0.0
    for d in (2, 3, 4):
        v = np.ones(d) / np.sqrt(d)
        state, net = ghz_probe(v, d, fam)
        fim = QFIM(oracle_qfim_pure(state, net), net.partition)
        expected = d**2 * np.outer(v, v) / pnorm(v, 1.0) ** 2
        worst_mat = max(worst_mat, float(np.max(np.abs(fim.matrix - expected))))
        worst_fun = max(worst_fun, abs(v @ fim.matrix @ v - d**2 / pnorm(v, 1.0) ** 2))
        ratio = enhancement_ratio(LinearFunctional(v, 1.0, d, 1))
        worst_ratio = max(worst_ratio, abs(ratio - d))
    ok = worst_mat <= 1e-9 and worst_fun <= 1e-9 and worst_ratio <= 1e-9
    _check(
        5,
        "ghz closed forms",
        ok,
        f"matrix dev {worst_mat:.2e}, v^T F v dev {worst_fun:.2e}, ratio dev {worst_ratio:.2e} (tol 1e-9)",
    )


def test_criterion_6_gradient_scenario():
    """Two-site difference estimation with four qubits."""
    report = gradient_scenario(ScenarioConfig(n_particles=4, mu=1, tol=1e-9))
    ok = report.passed and abs(report.ratio - 2.0) <= 1e-9 and report.sum_sensitivity <= 1e-10
    _check(
        6,
        "gradient scenario",
        ok,
        f"ratio 2 within {abs(report.ratio - 2.0):.2e} (tol 1e-9), "
        f"sum sensitivity {report.sum_sensitivity:.2e} (tol 1e-10)",
    )


def test_criterion_7_norm_chain():
    """Quasi-norm chain over 1000 random nonnegative unit vectors."""
    rng = np.random.default_rng(2024)
    count = 0
    worst = np.inf
    while count < 1000:
        d = int(rng.integers(1, 9))
        raw = rng.uniform(0.0, 1.0, d)
        if not np.any(raw > 1e-12):
            continue
        v = raw / np.linalg.norm(raw)
        two_thirds_sq = pnorm(v, 2.0 / 3.0) ** 2
        one_cubed = pnorm(v, 1.0) ** 3
        one_sq = pnorm(v, 1.0) ** 2
        worst = min(
            worst,
            two_thirds_sq - one_cubed * (1.0 - 1e-12),
            one_cubed - one_sq * (1.0 - 1e-12),
        )
        count += 1
    _check(
        7,
        "norm chain",
        worst >= 0.0,
        f"1000 vectors, worst chain margin {worst:.2e} (relative slack 1e-12)",
    )


def test_criterion_8_cfim_witnesses():
    """Classical information witnesses on qubit networks."""
    qubit = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
    net1 = SensorNetwork((qubit,))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2), (2,))

    transverse = cfim(sigma_y_effects(), net1, plus)
    aligned = cfim(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)], net1, plus
    )

    net2 = SensorNetwork((qubit, qubit))
    worst_gap = 0.0
    for t in range(100):
        rng = trial_rng(8008, t)
        if t % 2 == 0:
            net, dim = net1, 2
        else:
            net, dim = net2, 4
        psi = haar_state(dim, net.dims, rng)
        effects = random_povm(dim, int(rng.integers(2, 6)), rng)
        classical = cfim(effects, net, psi)
        quantum = oracle_qfim_pure(psi, net)
        gap = float(np.linalg.eigvalsh(quantum - classical)[0])
        worst_gap = min(worst_gap, gap)

    ok = (
        abs(transverse[0, 0] - 1.0) <= 1e-5
        and abs(aligned[0, 0]) <= 1e-10
        and worst_gap >= -1e-6
    )
    _check(
        8,
        "cfim witnesses",
        ok,
        f"transverse dev {abs(transverse[0, 0] - 1):.2e} (tol 1e-5), aligned {abs(aligned[0, 0]):.2e}, "
        f"100 POVMs, worst PSD gap {worst_gap:.2e} (tol -1e-6)",
    )


def test_criterion_9_deterministic_reports():
    """Same seed, byte-identical serialized audit reports."""
    cfg_a = ScenarioConfig(seed=5, trials=100)
    bytes_a1 = dumps(audit_block_inverse(cfg_a).to_jsonable()).encode()
    bytes_a2 = dumps(audit_block_inverse(cfg_a).to_jsonable()).encode()
    cfg_b = ScenarioConfig(seed=9, trials=20)
    bytes_b1 = dumps(audit_separable_surrogate(cfg_b).to_jsonable()).encode()
    bytes_b2 = dumps(audit_separable_surrogate(cfg_b).to_jsonable()).encode()
    ok = bytes_a1 == bytes_a2 and bytes_b1 == bytes_b2
    _check(
        9,
        "deterministic reports",
        ok,
        f"block-inverse {len(bytes_a1)} bytes, surrogate {len(bytes_b1)} bytes, identical",
    )
