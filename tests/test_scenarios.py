"""Randomized audits and canned scenarios: correctness, determinism,
regeneration semantics, sensor families."""

import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import NOT_FINITE_POSITIVE, dense_generators, oracle_qfim_pure
from qsnet import (
    QFIM,
    ScenarioConfig,
    SensorNetwork,
    SensorSpec,
    audit_block_inverse,
    audit_local_purification,
    audit_separable_surrogate,
    gradient_scenario,
    local_purification_probe,
    optical_phase_scenario,
    purify,
    qcrb,
    qfim_mixed,
    qubit_ensemble_family,
    truncated_mode_family,
    with_collective_ancilla,
)
from qsnet.exceptions import DimensionLimitError, FormatError
from qsnet.hilbert import SIGMA_X, SIGMA_Z, DensityOperator, PureState, identity
from qsnet.reporting import dumps, sha256_of_arrays
from qsnet.sampling import haar_state, haar_unitary, random_density, random_spd, trial_rng
from qsnet.scenarios import _random_partition, _run_trials, _zero_off_blocks


def _dicke_isometry(n: int) -> np.ndarray:
    """``2**n x (n+1)`` matrix whose column ``m`` is the normalized Dicke
    state with ``m`` qubits flipped (bit 1, the ``-1`` eigenvector of
    ``sigma_z``)."""
    flipped = np.array([bin(i).count("1") for i in range(2**n)])
    s = (flipped[:, None] == np.arange(n + 1)).astype(float)
    return s / np.sqrt(s.sum(axis=0))


def _full_qubit_sensor(n: int) -> SensorSpec:
    """``n`` qubits on the full ``2**n`` space: ``(1/2) sum_j sigma_z_j``
    summed from ``np.kron`` embeddings, resource ``n`` times the identity."""
    qubit = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
    jz = sum(dense_generators(SensorNetwork((qubit,) * n)))
    return SensorSpec(2**n, (jz,), float(n) * np.eye(2**n))


class TestSensorFamilies:
    def test_qubit_ensemble_shapes(self):
        fam = qubit_ensemble_family()
        s2 = fam.sensor_for(2)
        assert s2.dim == 3
        assert_allclose(np.sort(np.linalg.eigvalsh(np.asarray(s2.generators[0]))), [-1, 0, 1], atol=1e-12)
        assert_allclose(s2.resource_op, 2.0 * identity(3), atol=0)

    def test_mode_family_shapes(self):
        fam = truncated_mode_family()
        s3 = fam.sensor_for(3)
        assert s3.dim == 4
        assert_allclose(s3.generators[0], np.diag([0.0, 1.0, 2.0, 3.0]), atol=0)

    def test_representation_equivalence_at_four_qubits(self):
        # The symmetric sector must agree with the full 2^n product space on
        # everything the toolkit extracts from extremal probes; the sector
        # probe is carried into the full space by the Dicke isometry.
        from qsnet import extremal_superposition, resource_count

        n = 4
        fam = qubit_ensemble_family()
        sector_state = extremal_superposition(fam, n)
        sector_net = SensorNetwork((fam.sensor_for(n),))
        full_net = SensorNetwork((_full_qubit_sensor(n),))
        full_state = PureState(_dicke_isometry(n) @ sector_state.amplitudes, full_net.dims)
        values = []
        for state, net in ((full_state, full_net), (sector_state, sector_net)):
            fim = oracle_qfim_pure(state, net)
            values.append((fim[0, 0], resource_count(net, state)))
        assert values[0][0] == pytest.approx(values[1][0], abs=1e-9)   # QFI n^2
        assert values[0][1] == pytest.approx(values[1][1], abs=1e-9)   # n atoms
        assert values[0][0] == pytest.approx(16.0, abs=1e-9)

    def test_symmetric_sector_used_above_threshold(self):
        fam = qubit_ensemble_family()
        assert fam.sensor_for(9).dim == 10

    def test_cap_checked_before_building(self, monkeypatch):
        monkeypatch.setenv("QSN_MAX_DIM", "8")
        with pytest.raises(DimensionLimitError):
            truncated_mode_family().sensor_for(8)
        with pytest.raises(DimensionLimitError):
            qubit_ensemble_family().sensor_for(9)


class TestQubitEnsembleGenerator:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_embedded_sum(self, n):
        # Dicke-isometry oracle: S^dag (sum_j sigma_z_j / 2) S is the sector
        # J_z, and S^dag (n I) S = n I.
        sensor = qubit_ensemble_family().sensor_for(n)
        full = _full_qubit_sensor(n)
        s = _dicke_isometry(n)
        assert_allclose(s.T @ full.generators[0] @ s, sensor.generators[0], atol=1e-12)
        assert_allclose(s.T @ full.resource_op @ s, sensor.resource_op, atol=1e-12)
        assert_allclose(sensor.resource_op, n * identity(n + 1), atol=0)

    def test_builds_without_embedding(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("embed_local called")

        for name, module in list(sys.modules.items()):
            if name.startswith("qsnet") and hasattr(module, "embed_local"):
                monkeypatch.setattr(module, "embed_local", forbidden)
        assert qubit_ensemble_family().sensor_for(8).dim == 9


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(trials=0)
        with pytest.raises(ValueError):
            ScenarioConfig(tol=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(mu=0)

    @pytest.mark.parametrize(
        "field", ["seed", "trials", "n_particles", "n_modes", "mode_cutoff", "mu", "max_matrix_dim"]
    )
    @pytest.mark.parametrize("bad", [2.5, 3.0, True])
    def test_non_integer_field_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: bad})

    def test_numpy_integers_accepted(self):
        cfg = ScenarioConfig(seed=np.int64(4), trials=np.int32(3))
        assert (cfg.seed, cfg.trials) == (4, 3)
        assert type(cfg.seed) is int and type(cfg.trials) is int

    @pytest.mark.parametrize("tol", NOT_FINITE_POSITIVE)
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ScenarioConfig(tol=tol)

    @pytest.mark.parametrize("tol", [np.float64(1e-8), 1])
    def test_real_tol_stored_as_float(self, tol):
        assert type(ScenarioConfig(tol=tol).tol) is float

    def test_json_tol_too_large_for_float(self):
        from qsnet import scenario_config_from_json

        with pytest.raises(FormatError):
            scenario_config_from_json({"tol": 10**400})

    def test_structure_tol_derived(self):
        assert ScenarioConfig(tol=1e-9).structure_tol == pytest.approx(1e-10)

    def test_json_round_trip(self):
        from qsnet import scenario_config_from_json

        name, cfg = scenario_config_from_json(
            {"scenario": "t1", "seed": 5, "trials": 17, "tol": 1e-8}
        )
        assert name == "t1"
        assert (cfg.seed, cfg.trials, cfg.tol) == (5, 17, 1e-8)

    def test_json_unknown_field_rejected(self):
        from qsnet import scenario_config_from_json
        from qsnet.exceptions import FormatError

        with pytest.raises(FormatError, match="unknown fields"):
            scenario_config_from_json({"seed": 1, "bogus": 2})

    def test_json_type_checked(self):
        from qsnet import scenario_config_from_json
        from qsnet.exceptions import FormatError

        with pytest.raises(FormatError):
            scenario_config_from_json({"trials": "many"})
        with pytest.raises(FormatError):
            scenario_config_from_json({"trials": True})


class TestSurrogateAudit:
    def test_small_run_passes(self):
        result = audit_separable_surrogate(ScenarioConfig(seed=42, trials=25))
        assert result.passed
        assert result.trials == 25
        assert result.max_violation <= result.tol
        assert result.max_structure_defect <= result.structure_tol
        assert all("inputs_sha256" in rec for rec in result.records)

    def test_deterministic_bytes(self):
        cfg = ScenarioConfig(seed=9, trials=10)
        a = dumps(audit_separable_surrogate(cfg).to_jsonable())
        b = dumps(audit_separable_surrogate(cfg).to_jsonable())
        assert a == b

    def test_different_seeds_differ(self):
        a = audit_separable_surrogate(ScenarioConfig(seed=1, trials=5))
        b = audit_separable_surrogate(ScenarioConfig(seed=2, trials=5))
        assert dumps(a.to_jsonable()) != dumps(b.to_jsonable())


def _noncommuting_network() -> SensorNetwork:
    nc = SensorSpec(2, (SIGMA_X / 2, SIGMA_Z / 2), np.diag([0.0, 1.0]))
    z = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
    return SensorNetwork((nc, z))


class TestLocalPurificationAudit:
    def test_small_run_passes(self):
        result = audit_local_purification(ScenarioConfig(seed=7, trials=10))
        assert result.passed
        assert result.trials == 10

    def test_product_mixed_input_gives_equality(self):
        # A product probe decorrelates the sensors, so the global and local
        # purification routes give the same weighted bound.
        net = _noncommuting_network()
        rng = np.random.default_rng(71)
        rho_a = random_density(2, (2,), rng)
        rho_b = random_density(2, (2,), rng)
        rho = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix), (2, 2))
        anet = with_collective_ancilla(net)
        fim_global = QFIM(oracle_qfim_pure(purify(rho), anet), anet.partition)
        from qsnet import doubled

        dnet = doubled(net)
        probe = local_purification_probe(rho, net)
        fim_local = QFIM(oracle_qfim_pure(probe, dnet), dnet.partition)
        weights = np.array([0.7, 0.2, 1.3])
        bound_global = qcrb(fim_global, weights, 1).bound
        bound_local = qcrb(fim_local, weights, 1).bound
        assert bound_local == pytest.approx(bound_global, abs=1e-9)

    def test_maximally_mixed_probe_is_blind_and_would_regenerate(self):
        net = _noncommuting_network()
        rho = DensityOperator(identity(4) / 4, (2, 2))
        fim = qfim_mixed(rho, net)
        assert np.max(np.abs(fim.matrix)) <= 1e-12
        report = qcrb(fim, np.ones(3), 1)
        assert report.singular and report.support_dim == 0 and report.bound == np.inf

    def test_determinism(self):
        cfg = ScenarioConfig(seed=4, trials=5)
        a = dumps(audit_local_purification(cfg).to_jsonable())
        b = dumps(audit_local_purification(cfg).to_jsonable())
        assert a == b


def _draw_counting_trial(first_draw: int, accept):
    """Trial for :func:`_run_trials` that records each stream's first
    uniform under the draw index it expects, and accepts draw ``t`` iff
    ``accept(t)``."""
    seen = {}

    def trial(rng):
        draw = first_draw + len(seen)
        seen[draw] = float(rng.random())
        return ({"x": seen[draw]}, (seen[draw],), 0.0) if accept(draw) else None

    return trial, seen


class TestTrialLoop:
    def test_first_draw_offsets_streams_and_draw_tags(self):
        trial, seen = _draw_counting_trial(17, lambda draw: draw % 2 == 0)
        _, _, regenerated, records = _run_trials(ScenarioConfig(seed=5, trials=3), trial, first_draw=17)
        assert seen == {t: float(trial_rng(5, t).random()) for t in range(17, 23)}
        assert [(r["trial"], r["draw"], r["x"]) for r in records] == [(i, t, seen[t]) for i, t in enumerate((18, 20, 22))]
        assert regenerated == 3

    @pytest.mark.parametrize("first_draw", [0, 30])
    def test_regeneration_cap_counts_from_first_draw(self, first_draw):
        cfg = ScenarioConfig(seed=2, trials=4)
        trial, seen = _draw_counting_trial(first_draw, lambda draw: False)
        with pytest.raises(RuntimeError, match="regeneration cap exceeded"):
            _run_trials(cfg, trial, first_draw=first_draw)
        assert list(seen) == list(range(first_draw, first_draw + 40))
        # The last draws under the cap are still taken.
        trial, _ = _draw_counting_trial(first_draw, lambda draw: draw >= first_draw + 36)
        _, _, regenerated, records = _run_trials(cfg, trial, first_draw=first_draw)
        assert regenerated == 36 and [r["draw"] for r in records] == list(range(first_draw + 36, first_draw + 40))

    def test_trial_without_tol_checks(self):
        def trial(rng):
            return {}, (), 0.25

        violation, structure, _, records = _run_trials(ScenarioConfig(trials=2), trial)
        assert violation == -np.inf and structure == 0.25 and len(records) == 2


class TestBlockInverseAudit:
    def test_run_passes_with_equality_cases(self):
        result = audit_block_inverse(ScenarioConfig(seed=3, trials=100))
        assert result.passed
        kinds = {rec["kind"] for rec in result.records}
        assert kinds == {"general", "block_diagonal"}
        assert result.trials == 100 + 20

    def test_records_number_trials_on_and_draw_past_ten_times_trials(self):
        result = audit_block_inverse(ScenarioConfig(seed=3, trials=20))
        assert [r["trial"] for r in result.records] == list(range(24))
        assert [r["draw"] for r in result.records] == [*range(20), *range(200, 204)]
        assert [r["kind"] for r in result.records] == ["general"] * 20 + ["block_diagonal"] * 4

    def test_block_diagonal_inputs_rebuild_from_their_draw(self):
        cfg = ScenarioConfig(seed=3, trials=20)
        record = audit_block_inverse(cfg).records[-1]
        assert record["kind"] == "block_diagonal" and record["draw"] == 203
        rng = trial_rng(cfg.seed, record["draw"])
        d = int(rng.integers(2, cfg.max_matrix_dim + 1))
        partition = _random_partition(d, rng)
        mat = _zero_off_blocks(random_spd(d, rng), partition)
        assert (record["d"], record["n_blocks"]) == (d, len(partition))
        assert record["inputs_sha256"] == sha256_of_arrays(mat)

    def test_determinism(self):
        cfg = ScenarioConfig(seed=12, trials=40)
        assert dumps(audit_block_inverse(cfg).to_jsonable()) == dumps(
            audit_block_inverse(cfg).to_jsonable()
        )


class TestGradientScenario:
    def test_frozen_values(self):
        report = gradient_scenario(ScenarioConfig(n_particles=4))
        assert report.var_entangled == pytest.approx(0.125, abs=1e-9)
        assert report.var_separable == pytest.approx(0.25, abs=1e-9)
        assert report.ratio == pytest.approx(2.0, abs=1e-9)
        assert report.sum_sensitivity <= 1e-10
        assert report.allocation == (2, 2)
        assert report.entangled_singular_for_both_params
        assert report.separable_bound_both_params == pytest.approx(0.5, abs=1e-9)
        assert report.passed

    def test_state_and_closed_form_agree(self):
        report = gradient_scenario(ScenarioConfig(n_particles=6))
        assert report.var_entangled == pytest.approx(report.closed_form_entangled, abs=1e-9)
        assert report.var_separable == pytest.approx(report.closed_form_separable, abs=1e-9)
        assert report.ratio == pytest.approx(report.closed_form_ratio, abs=1e-9)

    def test_odd_particle_count_rejected(self):
        with pytest.raises(ValueError):
            gradient_scenario(ScenarioConfig(n_particles=3))

    def test_repeats_scale_bounds(self):
        one = gradient_scenario(ScenarioConfig(n_particles=4, mu=1))
        ten = gradient_scenario(ScenarioConfig(n_particles=4, mu=10))
        assert ten.var_entangled == pytest.approx(one.var_entangled / 10.0, rel=1e-12)
        assert ten.ratio == pytest.approx(one.ratio, rel=1e-12)


class TestOpticalScenario:
    def test_designed_probe_and_vacuum(self):
        report = optical_phase_scenario(ScenarioConfig(seed=11, trials=8))
        assert_allclose(report.per_mode_qfi, (9.0, 9.0), atol=1e-9)
        assert report.vacuum_flagged
        assert report.allocation == (2, 2)
        assert report.allocation_bound == pytest.approx(report.analytic_bound, abs=1e-9)
        # The designed probe deliberately occupies the cutoff level.
        assert report.truncation_weights == pytest.approx((0.5, 0.5), abs=1e-12)
        assert all(report.truncation_flagged)
        assert report.passed

    def test_surrogate_trials_record_truncation(self):
        report = optical_phase_scenario(ScenarioConfig(seed=11, trials=5))
        assert all("truncation_weight" in rec for rec in report.records)
        assert report.surrogate_max_violation <= 1e-9

    def test_determinism(self):
        cfg = ScenarioConfig(seed=2, trials=4)
        assert dumps(optical_phase_scenario(cfg).to_jsonable()) == dumps(
            optical_phase_scenario(cfg).to_jsonable()
        )


class TestSampling:
    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(73)
        u = haar_unitary(6, rng)
        assert np.max(np.abs(u.conj().T @ u - identity(6))) <= 1e-12

    def test_haar_state_normalized(self):
        rng = np.random.default_rng(75)
        psi = haar_state(8, (2, 4), rng)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_random_density_full_rank(self):
        rng = np.random.default_rng(77)
        rho = random_density(4, (2, 2), rng)
        assert np.linalg.eigvalsh(rho.matrix)[0] > 1e-4

    def test_trial_streams_reproducible(self):
        a = trial_rng(5, 3).standard_normal(4)
        b = trial_rng(5, 3).standard_normal(4)
        c = trial_rng(5, 4).standard_normal(4)
        assert_allclose(a, b, atol=0)
        assert not np.allclose(a, c)
