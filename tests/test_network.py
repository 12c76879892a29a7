"""Network model: partition bookkeeping, generators, encoding, resources,
doubling, strict JSON ingestion."""

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from conftest import identity, layouts, random_hermitian, random_network, seeds, two_qubit_z_network
from qsnet import (
    SensorNetwork,
    SensorSpec,
    doubled,
    encode,
    hilbert,
    network_from_json,
    network_to_json,
    qfim_pure,
    resource_count,
    with_collective_ancilla,
)
from qsnet.exceptions import DimensionLimitError, FormatError, LayoutError
from qsnet.hilbert import (
    SIGMA_X,
    SIGMA_Z,
    PureState,
    commutator,
    embed_local,
)
from qsnet.network import global_generators
from qsnet.sampling import haar_state, random_density


def _number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


class TestStructure:
    def test_partition(self):
        rng = np.random.default_rng(0)
        s1 = SensorSpec(3, (random_hermitian(3, rng), random_hermitian(3, rng)), identity(3))
        s2 = SensorSpec(2, (SIGMA_Z / 2,), identity(2))
        net = SensorNetwork((s1, s2))
        assert net.partition == ((0, 1), (2,))
        assert net.n_params == 3
        assert net.dims == (3, 2)

    def test_generator_size_enforced(self):
        with pytest.raises(LayoutError):
            SensorSpec(3, (SIGMA_Z,), identity(3))

    def test_generator_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            SensorSpec(2, (np.array([[0.0, 1.0], [0.0, 0.0]]),), identity(2))

    def test_parameterless_network_rejected(self):
        ancilla = SensorSpec(2, (), identity(2))
        with pytest.raises(ValueError):
            SensorNetwork((ancilla,))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((1, 2), "sensor 0 must be a SensorSpec, got int"),
            (("qubit",), "sensor 0 must be a SensorSpec, got str"),
            ((SensorSpec(2, (SIGMA_Z / 2,), identity(2)), SIGMA_Z), "sensor 1 must be a SensorSpec, got ndarray"),
        ],
        ids=["int", "str", "matrix"],
    )
    def test_non_sensor_entry_rejected(self, entries, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            SensorNetwork(entries)


class TestGlobalGenerators:
    def test_embeddings(self):
        g0, g1 = global_generators(two_qubit_z_network())
        assert_allclose(g0, np.kron(SIGMA_Z / 2, identity(2)), atol=0)
        assert_allclose(g1, np.kron(identity(2), SIGMA_Z / 2), atol=0)

    def test_cross_sensor_generators_commute(self):
        rng = np.random.default_rng(21)
        s1 = SensorSpec(2, (random_hermitian(2, rng), random_hermitian(2, rng)), identity(2))
        s2 = SensorSpec(3, (random_hermitian(3, rng),), identity(3))
        net = SensorNetwork((s1, s2))
        gens = global_generators(net)
        # Same-sensor generators need not commute; cross-sensor ones must.
        assert np.max(np.abs(commutator(gens[0], gens[2]))) <= 1e-12
        assert np.max(np.abs(commutator(gens[1], gens[2]))) <= 1e-12

    def test_number_operators_commute(self):
        # d truncated modes with number operators: explicit commutators.
        mode = SensorSpec(4, (_number_op(4),), _number_op(4))
        gens = global_generators(SensorNetwork((mode,) * 3))
        for a in gens:
            for b in gens:
                assert np.max(np.abs(commutator(a, b))) <= 1e-12


class TestEncode:
    def test_zero_leaves_state_unchanged(self):
        net = two_qubit_z_network()
        rng = np.random.default_rng(2)
        psi = haar_state(4, (2, 2), rng)
        out = encode(net, psi, [0.0, 0.0])
        assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_single_qubit_phases(self):
        sensor = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
        net = SensorNetwork((sensor,))
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2), (2,))
        phi = 0.37
        out = encode(net, plus, [phi])
        expected = np.array([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)]) / np.sqrt(2)
        assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_density_stays_valid(self):
        net = two_qubit_z_network()
        rng = np.random.default_rng(4)
        rho = random_density(4, (2, 2), rng)
        out = encode(net, rho, [0.3, -1.2])
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-10
        purity_out = np.trace(out.matrix @ out.matrix).real
        assert abs(purity_out - np.trace(rho.matrix @ rho.matrix).real) <= 1e-10

    def test_layout_mismatch(self):
        net = two_qubit_z_network()
        with pytest.raises(LayoutError):
            encode(net, PureState(np.array([1.0, 0.0]), (2,)), [0.1, 0.2])

    @pytest.mark.parametrize(
        "layout, message",
        [
            ((1,) * 62 + (2, 2), "length 64 (dim 4) does not match network layout of length 2 (dim 4); they first differ at position 0"),
            ((2, 1, 2), "length 3 (dim 4) does not match network layout of length 2 (dim 4); they first differ at position 1"),
            ((2, 2, 1), "length 3 (dim 4) does not match network layout of length 2 (dim 4); they first differ at position 2"),
        ],
        ids=["long", "inner", "suffix"],
    )
    def test_layout_mismatch_names_lengths_not_entries(self, layout, message):
        with pytest.raises(LayoutError) as info:
            qfim_pure(PureState([1, 0, 0, 0], layout), two_qubit_z_network())
        assert str(info.value) == f"state layout of {message}"

    def test_parameter_count_mismatch(self):
        net = two_qubit_z_network()
        rng = np.random.default_rng(6)
        with pytest.raises(LayoutError):
            encode(net, haar_state(4, (2, 2), rng), [0.1])

    @settings(max_examples=50, deadline=None)
    @given(layouts, seeds)
    def test_matches_dense_product_unitary(self, dims, seed):
        rng = np.random.default_rng(seed)
        net = random_network(dims, rng)
        phi = rng.uniform(-2.0, 2.0, net.n_params)
        unitary = np.eye(1)
        offset = 0
        for s in net.sensors:
            exponent = sum((phi[offset + j] * g for j, g in enumerate(s.generators)), np.zeros((s.dim, s.dim)))
            offset += s.n_params
            w, v = np.linalg.eigh(exponent)
            unitary = np.kron(unitary, (v * np.exp(-1j * w)) @ v.conj().T)
        psi = haar_state(net.total_dim, net.dims, rng)
        rho = random_density(net.total_dim, net.dims, rng)
        got_pure = encode(net, psi, phi).amplitudes
        got_mixed = encode(net, rho, phi).matrix
        assert np.max(np.abs(got_pure - unitary @ psi.amplitudes)) <= 1e-12
        assert np.max(np.abs(got_mixed - unitary @ rho.matrix @ unitary.conj().T)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_phi_rejected(self, bad):
        net = two_qubit_z_network()
        psi = PureState(np.eye(4)[0], (2, 2))
        with pytest.raises(ValueError, match="parameter point contains non-finite entries"):
            encode(net, psi, [0.0, bad])

    @pytest.mark.parametrize("phi", [[[0.1], [0.2]], [[0.1, 0.2]], 0.1])
    def test_phi_must_be_one_dimensional(self, phi):
        net = two_qubit_z_network()
        psi = PureState(np.eye(4)[0], (2, 2))
        with pytest.raises(LayoutError, match=r"expected 2 parameters, got shape \("):
            encode(net, psi, phi)


class TestResources:
    def test_excitation_count_frozen_values(self):
        net = two_qubit_z_network()
        up_up = PureState(np.array([0.0, 0.0, 0.0, 1.0]), (2, 2))
        vacuum = PureState(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assert resource_count(net, up_up) == pytest.approx(2.0, abs=1e-12)
        assert resource_count(net, vacuum) == pytest.approx(0.0, abs=1e-12)

    def test_conserved_under_encode(self):
        # Resource operators commute with the generators here, so the count
        # is invariant under any encoding.
        net = two_qubit_z_network()
        rng = np.random.default_rng(8)
        psi = haar_state(4, (2, 2), rng)
        before = resource_count(net, psi)
        after = resource_count(net, encode(net, psi, [0.9, -2.3]))
        assert after == pytest.approx(before, abs=1e-12)

    def test_not_conserved_when_noncommuting(self):
        sensor = SensorSpec(2, (SIGMA_Z / 2,), SIGMA_X)
        net = SensorNetwork((sensor,))
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2), (2,))
        before = resource_count(net, plus)
        after = resource_count(net, encode(net, plus, [np.pi / 2]))
        assert abs(after - before) > 0.1

    @settings(max_examples=50, deadline=None)
    @given(layouts, seeds)
    def test_matches_dense_resource_sum(self, dims, seed):
        rng = np.random.default_rng(seed)
        sensors = []
        for k, d in enumerate(dims):
            gens = (random_hermitian(d, rng),) if k == 0 or rng.random() < 0.5 else ()
            sensors.append(SensorSpec(d, gens, random_hermitian(d, rng)))
        net = SensorNetwork(tuple(sensors))
        dense = sum(embed_local(s.resource_op, k, net.dims) for k, s in enumerate(net.sensors))
        psi = haar_state(net.total_dim, net.dims, rng)
        rho = random_density(net.total_dim, net.dims, rng)
        want_pure = float(np.real(np.vdot(psi.amplitudes, dense @ psi.amplitudes)))
        want_mixed = float(np.real(np.trace(dense @ rho.matrix)))
        assert abs(resource_count(net, psi) - want_pure) <= 1e-12
        assert abs(resource_count(net, rho) - want_mixed) <= 1e-12


    def test_contracts_without_tracing_marginals(self, monkeypatch):
        # Resources are read off the state by contracting each R_k on its own
        # axis: no marginal is traced out, so nothing is decomposed.
        rng = np.random.default_rng(12)
        net = random_network((2, 3, 2), rng)
        psi = haar_state(net.total_dim, net.dims, rng)
        rho = random_density(net.total_dim, net.dims, rng)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigendecomposition in resource_count")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(hilbert, "_zheevd", forbidden)
        for state in (psi, rho):
            assert np.isfinite(resource_count(net, state))


class TestDoubling:
    def test_doubled_structure(self):
        net = two_qubit_z_network()
        dnet = doubled(net)
        assert dnet.dims == (2, 2, 2, 2)
        assert dnet.partition == net.partition
        assert dnet.n_params == net.n_params
        assert not dnet.sensors[1].generators and not dnet.sensors[3].generators
        assert_allclose(dnet.sensors[1].resource_op, net.sensors[0].resource_op, atol=0)

    def test_collective_ancilla_structure(self):
        net = two_qubit_z_network()
        anet = with_collective_ancilla(net)
        assert anet.dims == (2, 2, 4)
        assert anet.partition == net.partition
        assert not anet.sensors[-1].generators


class TestJsonIngestion:
    def test_round_trip(self):
        net = two_qubit_z_network()
        rebuilt = network_from_json(network_to_json(net))
        assert rebuilt.dims == net.dims
        assert_allclose(rebuilt.sensors[0].generators[0], net.sensors[0].generators[0], atol=0)

    def test_unknown_field_rejected(self):
        doc = network_to_json(two_qubit_z_network())
        doc["sensors"][0]["comment"] = "nope"
        with pytest.raises(FormatError, match="unknown fields"):
            network_from_json(doc)

    def test_missing_field_rejected(self):
        doc = network_to_json(two_qubit_z_network())
        del doc["sensors"][0]["resource"]
        with pytest.raises(FormatError, match="missing fields"):
            network_from_json(doc)

    def test_wrong_generator_size_rejected(self):
        doc = network_to_json(two_qubit_z_network())
        doc["sensors"][0]["generators"][0] = [[[1.0, 0.0]]]
        with pytest.raises(LayoutError):
            network_from_json(doc)

    def test_non_hermitian_generator_rejected(self):
        doc = network_to_json(two_qubit_z_network())
        doc["sensors"][0]["generators"][0] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(FormatError):
            network_from_json(doc)

    @pytest.mark.parametrize("dim", [0, True, 2.0, "2"], ids=["zero", "bool", "float", "str"])
    def test_bad_dim_rejected(self, dim):
        doc = network_to_json(two_qubit_z_network())
        doc["sensors"][0]["dim"] = dim
        with pytest.raises(FormatError, match=r"sensors\[0\]: sensor dimension"):
            network_from_json(doc)

    def test_empty_sensor_list_rejected(self):
        with pytest.raises(FormatError, match="at least one sensor"):
            network_from_json({"sensors": []})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "network document must be a JSON object"),
            ({"sensors": {}}, "network.sensors must be a list"),
            ({"sensors": [3]}, r"sensors\[0\]: expected an object"),
            (
                {"sensors": [{"dim": 1, "generators": {}, "resource": [[[0.0, 0.0]]]}]},
                r"sensors\[0\]\.generators: expected a list of matrices",
            ),
        ],
        ids=["document", "sensors", "sensor", "generators"],
    )
    def test_structural_refusals(self, doc, message):
        with pytest.raises(FormatError, match=message):
            network_from_json(doc)


class TestDimensionCap:
    def test_oversized_network_raises_dimension_limit(self, monkeypatch):
        monkeypatch.setenv("QSN_MAX_DIM", "8")
        sensor = SensorSpec(3, (_number_op(3),), _number_op(3))
        with pytest.raises(DimensionLimitError):
            SensorNetwork((sensor, sensor))

    def test_oversized_network_file_raises_dimension_limit(self, monkeypatch):
        sensor = SensorSpec(3, (_number_op(3),), _number_op(3))
        doc = network_to_json(SensorNetwork((sensor, sensor)))
        monkeypatch.setenv("QSN_MAX_DIM", "8")
        with pytest.raises(DimensionLimitError) as info:
            network_from_json(doc)
        assert not isinstance(info.value, FormatError)


class TestSensorDimension:
    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_non_integer_rejected(self, bad):
        with pytest.raises(ValueError, match="integer"):
            SensorSpec(bad, (), np.zeros((2, 2)))

    def test_numpy_integer_accepted(self):
        spec = SensorSpec(np.int64(2), (), np.zeros((2, 2)))
        assert spec.dim == 2 and type(spec.dim) is int
