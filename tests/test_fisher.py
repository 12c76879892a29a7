"""Fisher-information machinery: pure and SLD-based matrices, weighted
bounds, block inequality, classical information of measurements."""

import tracemalloc
import warnings
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    commuting_network,
    density,
    full_square_sld_qfim,
    identity,
    layouts,
    oracle_cfim,
    oracle_qfim_mixed,
    oracle_qfim_pure,
    oracle_slds,
    random_hermitian,
    random_network,
    random_povm,
    seeds,
    sigma_y_effects,
    two_qubit_z_network,
)
from qsnet import (
    QFIM,
    SensorNetwork,
    SensorSpec,
    block_inverse_residuals,
    cfim,
    doubled,
    encode,
    qcrb,
    qfim_mixed,
    qfim_pure,
    with_collective_ancilla,
)
from qsnet import fisher
from qsnet.exceptions import LayoutError, NoncommutingGeneratorsError
from qsnet.hilbert import SIGMA_X, SIGMA_Z, DensityOperator, PureState
from qsnet.network import global_generators
from qsnet.sampling import haar_state, random_density, random_spd, trial_rng


def _plus_state() -> PureState:
    return PureState(np.array([1.0, 1.0]) / np.sqrt(2), (2,))


def _single_qubit_net() -> SensorNetwork:
    return SensorNetwork((SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0])),))


def _sqrtm_psd(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _root_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    # Eigenvalues of sqrt(rho) sigma sqrt(rho) that are exact zeros come out
    # as +-1e-16 noise; sqrt would amplify that to ~1e-8 and swamp the
    # finite-difference signal, so floor them first. A unitary family
    # preserves rank, making the floored values exact zeros analytically.
    root = _sqrtm_psd(rho)
    w = np.linalg.eigvalsh(root @ sigma @ root)
    w[w < 1e-12 * max(1.0, float(w[-1]))] = 0.0
    return float(np.sum(np.sqrt(w)))


class TestQfimPure:
    def test_plus_state_unit_information(self):
        net = _single_qubit_net()
        fim = qfim_pure(_plus_state(), net)
        assert fim.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_sld_route_both_regimes(self):
        # Oracle equivalence: covariance formula vs SLD solve, on commuting
        # and non-commuting generator sets.
        rng = np.random.default_rng(51)
        z_net = two_qubit_z_network()
        nc = SensorSpec(2, (SIGMA_X / 2, SIGMA_Z / 2), identity(2))
        nc_net = SensorNetwork((nc, SensorSpec(2, (SIGMA_Z / 2,), identity(2))))
        for net in (z_net, nc_net):
            for _ in range(5):
                psi = haar_state(net.total_dim, net.dims, rng)
                fim_p = qfim_pure(psi, net)
                fim_m = qfim_mixed(density(psi), net)
                assert np.max(np.abs(fim_p.matrix - fim_m.matrix)) <= 1e-9

    def test_generator_shape_checked(self):
        net = _single_qubit_net()
        with pytest.raises(Exception):
            qfim_pure(_plus_state(), [identity(3)], net.partition)

    def test_matches_encoded_overlap_oracle(self):
        # Independent oracle through the encoding itself: for a direction u,
        # u^T F u = 8 (1 - |<psi_0 | psi_{delta u}>|) / delta^2 + O(delta^2).
        rng = np.random.default_rng(52)
        z_net = two_qubit_z_network()
        nc = SensorSpec(3, (random_hermitian(3, rng), random_hermitian(3, rng)), identity(3))
        nc_net = SensorNetwork((nc, SensorSpec(2, (SIGMA_Z / 2,), identity(2))))
        delta = 1e-4
        for net in (z_net, nc_net):
            psi = haar_state(net.total_dim, net.dims, rng)
            fim = qfim_pure(psi, net)
            for _ in range(3):
                direction = rng.standard_normal(net.n_params)
                direction /= np.linalg.norm(direction)
                shifted = encode(net, psi, delta * direction)
                overlap = abs(np.vdot(psi.amplitudes, shifted.amplitudes))
                oracle = 8.0 * (1.0 - overlap) / delta**2
                quadratic = float(direction @ fim.matrix @ direction)
                assert quadratic == pytest.approx(oracle, abs=1e-5)


class TestQfimMixed:
    def test_maximally_mixed_is_blind(self):
        net = _single_qubit_net()
        rho = DensityOperator(identity(2) / 2, (2,))
        fim = qfim_mixed(rho, net)
        assert_allclose(fim.matrix, [[0.0]], atol=1e-12)

    def test_depolarized_plus_against_fidelity_oracle(self):
        # Independent oracle: finite differences of the Bures root-fidelity,
        # QFI ~ 8 (1 - sqrt F(rho_phi, rho_phi+delta)) / delta^2.
        net = _single_qubit_net()
        delta = 1e-4
        for p in (0.25, 0.6, 0.9):
            mixed = p * np.outer([1, 1], [1, 1]) / 2 + (1 - p) * identity(2) / 2
            rho = DensityOperator(mixed, (2,))
            fim = qfim_mixed(rho, net)
            shifted = encode(net, rho, [delta])
            oracle = 8.0 * (1.0 - _root_fidelity(rho.matrix, shifted.matrix)) / delta**2
            assert fim.matrix[0, 0] == pytest.approx(oracle, abs=1e-5)
            # Analytic value for this family: the transverse Bloch length
            # squared.
            assert fim.matrix[0, 0] == pytest.approx(p * p, abs=1e-10)

    def test_rank_deficient_probe_against_fidelity_oracle(self):
        # Rank-2 probe on two qubits: the support-restricted SLD sum must
        # agree with the Bures finite-difference oracle along a direction.
        net = two_qubit_z_network()
        bell_a = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        bell_b = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        mixed = 0.7 * np.outer(bell_a, bell_a) + 0.3 * np.outer(bell_b, bell_b)
        rho = DensityOperator(mixed, (2, 2))
        fim = qfim_mixed(rho, net)
        direction = np.array([1.0, -0.5])
        direction /= np.linalg.norm(direction)
        delta = 1e-4
        forward = encode(net, rho, delta * direction)
        oracle = 8.0 * (1.0 - _root_fidelity(rho.matrix, forward.matrix)) / delta**2
        quadratic = float(direction @ fim.matrix @ direction)
        assert quadratic == pytest.approx(oracle, abs=1e-5)

    def test_near_cutoff_eigenvalues_are_reported(self):
        # Denominators just above the rank cutoff are flagged, not silently
        # inverted.
        net = SensorNetwork((SensorSpec(2, (SIGMA_X / 2,), np.diag([0.0, 1.0])),))
        eps = 2e-9
        rho = DensityOperator(np.diag([1.0 - eps, eps]), (2,))
        with pytest.warns(RuntimeWarning, match="SLD denominators within 100x of the rank cutoff") as caught:
            qfim_mixed(rho, net)
        assert [w.filename for w in caught] == [__file__]


def _max_rel_dev(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


class TestLocalGenerators:
    """A network's generators are contracted on their own sensor's axis; the
    dense textbook formulas of ``conftest`` are the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        layouts.filter(lambda dims: prod(dims) <= 16),
        st.sampled_from(["plain", "doubled", "collective"]),
        st.booleans(),
        seeds,
    )
    def test_network_matches_dense_generators(self, dims, shape, full_rank, seed):
        rng = np.random.default_rng(seed)
        net = random_network(dims, rng)
        if shape == "doubled":
            net = doubled(net)
        elif shape == "collective":
            net = with_collective_ancilla(net)
        dim = net.total_dim
        psi = haar_state(dim, net.dims, rng)
        fim = qfim_pure(psi, net)
        assert fim.partition == net.partition
        assert _max_rel_dev(fim.matrix, oracle_qfim_pure(psi, net)) <= 1e-12
        rank = dim if full_rank else int(rng.integers(1, dim)) if dim > 1 else 1
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = DensityOperator(g @ g.conj().T / np.sum(np.abs(g) ** 2), net.dims)
        fim = qfim_mixed(rho, net)
        assert fim.partition == net.partition
        assert _max_rel_dev(fim.matrix, oracle_qfim_mixed(rho, net)) <= 1e-12

    def test_mixed_matches_sld_trace_form(self):
        # F_kl = Re Tr[rho L_k L_l] over the least-squares SLDs, which share
        # no code with qfim_mixed.
        rng = np.random.default_rng(54)
        net = random_network((2, 3), rng)
        rho = random_density(net.total_dim, net.dims, rng)
        slds = oracle_slds(rho, net)
        want = np.array([[np.real(np.trace(rho.matrix @ a @ b)) for b in slds] for a in slds])
        assert _max_rel_dev(qfim_mixed(rho, net).matrix, want) <= 1e-12

    def test_sequence_form_matches_network(self):
        # Dense full-space generators with the network's partition, the
        # form the benchmark sweep times, give the network's matrix.
        rng = np.random.default_rng(57)
        qubit = SensorSpec(2, (SIGMA_Z / 2, SIGMA_X / 2), np.diag([0.0, 1.0]))
        net = SensorNetwork((qubit, SensorSpec(3, (random_hermitian(3, rng),), identity(3))))
        psi = haar_state(6, net.dims, rng)
        rho = random_density(6, net.dims, rng)
        for fim, want in [
            (qfim_pure(psi, global_generators(net), net.partition), qfim_pure(psi, net)),
            (qfim_mixed(rho, global_generators(net), net.partition), qfim_mixed(rho, net)),
        ]:
            assert fim.partition == net.partition == ((0, 1), (2,))
            assert _max_rel_dev(fim.matrix, want.matrix) <= 1e-12

    def test_state_layout_must_match_network(self):
        net = two_qubit_z_network()
        psi = haar_state(4, (4,), np.random.default_rng(55))
        with pytest.raises(LayoutError):
            qfim_pure(psi, net)
        with pytest.raises(LayoutError):
            qfim_mixed(density(psi), net)

    def test_partition_with_network_rejected(self):
        net = two_qubit_z_network()
        psi = haar_state(4, net.dims, np.random.default_rng(56))
        with pytest.raises(ValueError, match="partition"):
            qfim_pure(psi, net, net.partition)
        with pytest.raises(ValueError, match="partition"):
            qfim_mixed(density(psi), net, ((0,), (1,)))

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            qfim_pure(_plus_state(), [])
        with pytest.raises(ValueError):
            qfim_mixed(density(_plus_state()), [])


    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qfim_mixed(density(_plus_state()), [np.array([[0.0, 1.0], [0.0, 0.0]])])


class TestMixedColumnBlocks:
    """``qfim_mixed`` sums the strict upper triangle in blocks of eigenbasis
    columns; a block width that does not divide D runs several blocks and a
    ragged last one."""

    @pytest.mark.parametrize("full_rank", [True, False])
    @pytest.mark.parametrize("shape", ["plain", "doubled", "collective"])
    def test_matches_dense_full_square(self, monkeypatch, shape, full_rank):
        monkeypatch.setattr(fisher, "_BLOCK_COLUMNS", 3)
        rng = np.random.default_rng(71)
        net = random_network((2, 5), rng)
        if shape == "doubled":
            net = doubled(net)
        elif shape == "collective":
            net = with_collective_ancilla(net)
        dim = net.total_dim
        assert dim % 3 and dim > 2 * 3
        rank = dim if full_rank else dim // 3
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = DensityOperator(g @ g.conj().T / np.sum(np.abs(g) ** 2), net.dims)
        fim = qfim_mixed(rho, net)
        assert _max_rel_dev(fim.matrix, full_square_sld_qfim(rho, net)) <= 1e-12

    def test_scratch_stays_below_bound(self):
        # 8 qubits with sigma_z/2 and sigma_x/2 each: D = 256, 16 parameters.
        # The streamed sum peaks near 9.4 D^2 entries: 8 D^2 of blocks, one
        # factor of at most D^2 / 2 and its conjugated columns. Holding all
        # 16 factors (8 D^2) on top would read about 17 D^2, and every
        # rotated generator 16 D^2 and more.
        sensor = SensorSpec(2, (SIGMA_Z / 2, SIGMA_X / 2), np.diag([0.0, 1.0]))
        net = SensorNetwork((sensor,) * 8)
        dim = net.total_dim
        rho = random_density(dim, net.dims, np.random.default_rng(72))
        tracemalloc.start()
        try:
            qfim_mixed(rho, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * dim * dim * np.dtype(complex).itemsize


def _edge_network(case: str, rng) -> SensorNetwork:
    """Networks whose generators stress the eigen-row factor of ``qfim_mixed``."""
    qubit_z = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
    qubit_x = SensorSpec(2, (SIGMA_X / 2,), np.diag([0.0, 1.0]))
    if case == "scalar":
        # Parameters 1 and 3 are c * I: no information, and no NaN.
        pair = SensorSpec(2, (SIGMA_Z / 2, 0.7 * identity(2)), np.diag([0.0, 1.0]))
        return SensorNetwork((pair, qubit_x, SensorSpec(2, (-1.3 * identity(2),), np.diag([0.0, 1.0]))))
    if case == "degenerate_lowest":
        return SensorNetwork((SensorSpec(3, (np.diag([-1.0, -1.0, 2.0]),), identity(3)), qubit_x))
    if case == "negative_definite":
        g = random_hermitian(3, rng)
        g -= (np.linalg.eigvalsh(g)[-1] + 0.5) * identity(3)
        return SensorNetwork((SensorSpec(3, (g,), identity(3)), qubit_z))
    if case == "one_dimensional":
        point = SensorSpec(1, (np.array([[0.8]]),), np.zeros((1, 1)))
        return SensorNetwork((point, qubit_x, SensorSpec(3, (random_hermitian(3, rng),), identity(3))))
    # A qutrit with two non-commuting generators, next to a qubit.
    qutrit = SensorSpec(3, (random_hermitian(3, rng), random_hermitian(3, rng)), identity(3))
    return SensorNetwork((qutrit, qubit_z))


class TestFactorEdgeCases:
    """``qfim_mixed`` factors each generator as ``w_0 I + B^dag B`` from its
    local ``eigh``; the least-squares SLDs of ``conftest`` share no code with
    that factor."""

    @pytest.mark.parametrize("columns", [fisher._BLOCK_COLUMNS, 3])
    @pytest.mark.parametrize("full_rank", [True, False])
    @pytest.mark.parametrize(
        "case", ["scalar", "degenerate_lowest", "negative_definite", "one_dimensional", "noncommuting_qutrit"]
    )
    def test_matches_sld_oracle(self, monkeypatch, case, full_rank, columns):
        monkeypatch.setattr(fisher, "_BLOCK_COLUMNS", columns)
        rng = np.random.default_rng(81)
        net = _edge_network(case, rng)
        dim = net.total_dim
        rank = dim if full_rank else 2
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = DensityOperator(g @ g.conj().T / np.sum(np.abs(g) ** 2), net.dims)
        fim = qfim_mixed(rho, net)
        assert _max_rel_dev(fim.matrix, oracle_qfim_mixed(rho, net)) <= 1e-12
        if case == "scalar":
            assert not np.any(fim.matrix[[1, 3]]) and not np.any(fim.matrix[:, [1, 3]])
            assert np.any(fim.matrix[0])


class TestQcrb:
    def test_identity_frozen(self):
        rep = qcrb(QFIM(np.eye(3)), np.ones(3), 1)
        assert rep.bound == pytest.approx(3.0, abs=1e-12)
        assert not rep.singular

    def test_weighted_frozen(self):
        rep = qcrb(QFIM(np.diag([4.0, 1.0]), ((0,), (1,))), [1.0, 0.0], 10)
        assert rep.bound == pytest.approx(0.025, abs=1e-15)

    def test_singular_support_restriction(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        fim = QFIM(3.0 * np.outer(v, v))
        rep = qcrb(fim, [1.0, 1.0], 1)
        assert rep.singular
        assert rep.support_dim == 1
        # Neither bare parameter lies inside the rank-one support.
        assert rep.undetermined == (0, 1)
        assert rep.bound == np.inf

    @pytest.mark.parametrize("weights, bound", [([0.0, 1.0], np.inf), ([1.0, 1.0], np.inf), ([1.0, 0.0], 0.5)])
    def test_weight_outside_support_makes_bound_infinite(self, weights, bound):
        rep = qcrb(QFIM(np.diag([2.0, 0.0])), weights, 1)
        assert rep.singular and rep.undetermined == (1,)
        assert rep.bound == bound

    def test_zero_matrix_fully_undetermined(self):
        rep = qcrb(QFIM(np.zeros((2, 2))), [1.0, 1.0], 1)
        assert rep.singular and rep.support_dim == 0
        assert rep.bound == np.inf

    def test_weight_validation(self):
        fim = QFIM(np.eye(2))
        with pytest.raises(ValueError):
            qcrb(fim, [0.0, 0.0], 1)
        with pytest.raises(ValueError):
            qcrb(fim, np.array([[1.0, 0.2], [0.0, 1.0]]), 1)
        # Diagonal and non-diagonal PSD matrices are accepted: Tr[W F^-1].
        assert qcrb(fim, np.diag([1.0, 1.0]), 1).bound == pytest.approx(2.0)
        assert qcrb(fim, np.array([[1.0, 0.2], [0.2, 1.0]]), 1).bound == pytest.approx(2.0)

    def test_monotone_under_psd_perturbation(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            base = random_spd(4, rng)
            bump = random_spd(4, rng, shift=0.0)
            w = rng.uniform(0.0, 1.0, 4)
            w[0] += 0.1
            before = qcrb(QFIM(base), w, 1).bound
            after = qcrb(QFIM(base + bump), w, 1).bound
            assert after <= before + 1e-12


def _psd_on(basis: np.ndarray, rng) -> np.ndarray:
    """A PSD matrix whose support is the span of the columns of ``basis``,
    with eigenvectors turned inside that span and eigenvalues in [0.5, 2]."""
    q = np.linalg.qr(basis)[0]
    turn = np.linalg.qr(rng.standard_normal((q.shape[1], q.shape[1])))[0]
    q = q @ turn
    return (q * rng.uniform(0.5, 2.0, q.shape[1])) @ q.T


def _pinv(mat: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(mat, 1e-10, hermitian=True)


class TestWeightMatrix:
    def test_support_axes_match_pinv_oracle(self):
        # The support holds the axes in `kept` exactly, through eigenvectors
        # that mix them with each other and with other directions.
        rng = np.random.default_rng(61)
        for _ in range(300):
            d = int(rng.integers(3, 7))
            kept = np.sort(rng.choice(d, int(rng.integers(1, d)), replace=False))
            rest = np.setdiff1d(np.arange(d), kept)
            extra = np.zeros((d, int(rng.integers(0, rest.size))))
            extra[rest] = rng.standard_normal((rest.size, extra.shape[1]))
            mat = _psd_on(np.hstack([np.eye(d)[:, kept], extra]), rng)
            rep = qcrb(QFIM(mat), np.where(np.isin(np.arange(d), kept), rng.uniform(0.1, 1.0, d), 0.0))
            oracle = np.diag(_pinv(mat))
            assert rep.undetermined == tuple(int(k) for k in rest)
            assert_allclose(np.array(rep.diag_inverse)[kept], oracle[kept], rtol=1e-9)
            assert np.all(np.isinf(np.array(rep.diag_inverse)[rest]))
            assert np.isfinite(rep.bound)

    def test_functional_equals_rotated_route(self):
        # The variance of v . phi, against M F M^T weighed by e_0 for an
        # orthogonal M whose first row is v.
        rng = np.random.default_rng(62)
        for d in (2, 3, 5):
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            m = np.linalg.qr(np.column_stack([v, rng.standard_normal((d, d - 1))]))[0].T
            m[0] = v
            for mat in (random_spd(d, rng), _psd_on(np.column_stack([v, rng.standard_normal(d)]), rng)):
                rotated = qcrb(QFIM(m @ mat @ m.T), np.eye(d)[0], 3).bound
                bound = qcrb(QFIM(mat), np.outer(v, v), 3).bound
                assert bound == pytest.approx(rotated, rel=1e-9)
                assert bound == pytest.approx(v @ _pinv(mat) @ v / 3, rel=1e-9)

    def test_functional_outside_support_is_infinite(self):
        rng = np.random.default_rng(63)
        q = rng.standard_normal(3)
        v = np.array([1.0, 0.0, 0.0])
        rep = qcrb(QFIM(np.outer(q, q)), np.outer(v, v))
        assert rep.bound == np.inf
        # Weight only inside the support keeps it finite.
        u = q / np.linalg.norm(q)
        assert qcrb(QFIM(np.outer(q, q)), np.outer(u, u)).bound == pytest.approx(1.0 / (q @ q))

    def test_orthonormal_rows_sum_their_variances(self):
        # Tr[V F^-1 V^T] for V with orthonormal rows is W = V^T V.
        rng = np.random.default_rng(64)
        for d, r in ((3, 2), (5, 3), (6, 6)):
            mat = random_spd(d, rng)
            rows = np.linalg.qr(rng.standard_normal((d, r)))[0].T
            per_row = sum(qcrb(QFIM(mat), np.outer(row, row)).bound for row in rows)
            bound = qcrb(QFIM(mat), rows.T @ rows).bound
            assert bound == pytest.approx(per_row, rel=1e-9)
            assert bound == pytest.approx(np.trace(rows @ np.linalg.inv(mat) @ rows.T), rel=1e-9)

    def test_diagonal_matrix_equals_weight_vector(self):
        rng = np.random.default_rng(65)
        for mat in (random_spd(4, rng), np.diag([2.0, 0.0, 1.0, 0.0]), _psd_on(rng.standard_normal((4, 2)), rng)):
            for w in (rng.uniform(0.0, 1.0, 4), np.array([1.0, 0.0, 0.5, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])):
                vector = qcrb(QFIM(mat), w, 2)
                matrix = qcrb(QFIM(mat), np.diag(w), 2)
                assert matrix.bound == pytest.approx(vector.bound, rel=1e-12, abs=0.0)
                assert matrix.diag_inverse == vector.diag_inverse

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([[1.0, 0.5], [0.0, 1.0]], "weight matrix is not symmetric"),
            ([[1.0, 0.0], [0.0, -1.0]], r"weight matrix has eigenvalue -1.000e\+00 < 0"),
            (np.zeros((2, 2)), "weights must not all be zero"),
        ],
        ids=["non-symmetric", "negative", "zero"],
    )
    def test_invalid_matrix_refused(self, weights, message):
        with pytest.raises(ValueError, match=message):
            qcrb(QFIM(np.eye(2)), weights)


class TestBlockInverse:
    def test_hand_case(self):
        fim = QFIM(np.array([[2.0, 1.0], [1.0, 2.0]]), ((0,), (1,)))
        residuals = block_inverse_residuals(fim)
        assert_allclose(residuals, [1.0 / 6.0, 1.0 / 6.0], atol=1e-12)

    def test_block_diagonal_equality(self):
        mat = np.zeros((4, 4))
        mat[:2, :2] = [[2.0, 0.5], [0.5, 1.0]]
        mat[2:, 2:] = [[3.0, 0.0], [0.0, 0.7]]
        fim = QFIM(mat, ((0, 1), (2, 3)))
        residuals = block_inverse_residuals(fim)
        assert np.max(np.abs(residuals)) <= 1e-12

    def test_random_spd_nonnegative(self):
        for t in range(50):
            rng = trial_rng(61, t)
            d = int(rng.integers(2, 9))
            cut = int(rng.integers(1, d))
            fim = QFIM(random_spd(d, rng), (tuple(range(cut)), tuple(range(cut, d))))
            assert block_inverse_residuals(fim).min() >= -1e-9

    def test_singular_rejected(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(np.linalg.LinAlgError):
            block_inverse_residuals(QFIM(np.outer(v, v), ((0,), (1,))))

    def test_builds_no_information_matrix(self, monkeypatch):
        # Each block's support inverse comes from its own eigh; wrapping a
        # block as a QFIM would re-run every carrier check per block.
        fim = QFIM(random_spd(6, trial_rng(62, 0)), ((0, 1), (2,), (3, 4, 5)))
        real = QFIM.__post_init__
        built = []

        def counted(self):
            built.append(self.d)
            real(self)

        monkeypatch.setattr(QFIM, "__post_init__", counted)
        assert block_inverse_residuals(fim).min() >= -1e-9
        assert built == []


class TestQfimType:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            QFIM(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QFIM(np.diag([1.0, -0.5]))

    def test_partition_must_tile(self):
        with pytest.raises(ValueError):
            QFIM(np.eye(3), ((0, 1),))

    @pytest.mark.parametrize("bad", [0.0, 0.5, True])
    def test_partition_indices_are_integers(self, bad):
        # A float is rejected, never truncated; numpy integers are accepted.
        with pytest.raises(ValueError, match="integer"):
            QFIM(np.eye(2), ((bad,), (1,)))
        assert QFIM(np.eye(2), ((np.int64(0),), (1,))).partition == ((0,), (1,))

    def test_empty_rejected_by_name(self):
        with pytest.raises(ValueError, match="information matrix is empty"):
            QFIM(np.zeros((0, 0)))

    def test_empty_partition_block_rejected(self):
        with pytest.raises(ValueError, match=r"partition \(\(\), \(0, 1\)\) does not tile 0..1 in non-empty blocks"):
            QFIM(np.eye(2), ((), (0, 1)))


class TestCfim:
    def test_pure_probe_builds_no_density_operator(self, monkeypatch):
        # A pure probe's rho is the outer product of its amplitudes; wrapping
        # it as a DensityOperator would validate it with a D x D eigh.
        rng = np.random.default_rng(63)
        net = two_qubit_z_network()
        probe = haar_state(4, (2, 2), rng)
        effects = random_povm(4, 3, rng)
        want = cfim(effects, net, density(probe))
        real = DensityOperator.__post_init__
        built = []

        def counted(self):
            built.append(self.layout)
            real(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counted)
        got = cfim(effects, net, probe)
        assert built == []
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phi0", [None, [0.0, 0.0, 0.0]], ids=["default", "zeros"])
    def test_fiducial_density_probe_makes_no_eigh(self, monkeypatch, phi0):
        # Effects are checked from their eigenvalues alone, and the fiducial
        # point encodes nothing: no per-sensor unitary, no re-validated probe.
        rng = np.random.default_rng(64)
        sensor = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
        net = SensorNetwork((sensor,) * 3)
        probe = random_density(8, net.dims, rng)
        effects = random_povm(8, 8, rng)
        want = oracle_cfim(effects, net, probe, np.zeros(3))
        calls = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        got = cfim(effects, net, probe, phi0)
        assert calls == []
        assert_allclose(got, want, rtol=1e-6, atol=1e-6 * float(np.max(np.abs(want))))

    def test_transverse_measurement_saturates(self):
        # Analytic outcome law: p(+/-|phi) = (1 +/- sin phi)/2, whose
        # classical information is 1 at every phase.
        net = _single_qubit_net()
        effects = sigma_y_effects()
        phi = 0.3
        evolved = encode(net, _plus_state(), [phi])
        probs = sorted(
            float(np.real(np.vdot(evolved.amplitudes, e @ evolved.amplitudes))) for e in effects
        )
        analytic = sorted([(1 - np.sin(phi)) / 2, (1 + np.sin(phi)) / 2])
        assert_allclose(probs, analytic, atol=1e-12)
        out = cfim(effects, net, _plus_state())
        assert out[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_generator_eigenbasis_measurement_is_blind(self):
        net = _single_qubit_net()
        effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        out = cfim(effects, net, _plus_state())
        assert abs(out[0, 0]) <= 1e-10

    def test_transverse_measurement_saturates_at_any_phase(self):
        # p(+/-|phi) = (1 +/- sin phi)/2 gives unit information everywhere,
        # so the base point must not matter for this measurement.
        net = _single_qubit_net()
        effects = sigma_y_effects()
        for phi0 in (-0.9, 0.4, 1.2):
            out = cfim(effects, net, _plus_state(), phi0=[phi0])
            assert out[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_local_measurements_on_product_probe_match_quantum_diagonal(self):
        net = two_qubit_z_network()
        plus2 = PureState(np.ones(4) / 2.0, (2, 2))
        local = sigma_y_effects()
        effects = [np.kron(a, b) for a in local for b in local]
        out = cfim(effects, net, plus2)
        fim = oracle_qfim_pure(plus2, net)
        assert_allclose(np.diag(out), np.diag(fim), atol=1e-5)

    def test_never_exceeds_quantum_information(self):
        rng = np.random.default_rng(63)
        net = two_qubit_z_network()
        for _ in range(10):
            psi = haar_state(4, (2, 2), rng)
            effects = random_povm(4, 5, rng)
            classical = cfim(effects, net, psi)
            quantum = oracle_qfim_pure(psi, net)
            gap = np.linalg.eigvalsh(quantum - classical)[0]
            assert gap >= -1e-6

    def test_skipped_outcomes_are_reported(self):
        # |+> measured in the x basis at phi = 0: the "-" outcome has
        # probability 0, and with one parameter it counts by its limit along
        # phi -> 0, so the information reads 1.
        net = _single_qubit_net()
        w, v = np.linalg.eigh(np.asarray(SIGMA_X))
        effects = [np.outer(v[:, i], v[:, i].conj()) for i in range(2)]
        with pytest.warns(RuntimeWarning, match="1 outcome"):
            out = cfim(effects, net, _plus_state())
        assert_allclose(out, [[1.0]], atol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cfim(effects, net, _plus_state(), phi0=[1e-3])
        assert out[0, 0] == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("idle", [0, 40, 63])
    def test_long_pure_layout(self, idle):
        # Idle one-dimensional sensors in front of the qubit lengthen the
        # layout to 64 entries, the most a PureState takes, and change
        # nothing else.
        idle_sensor = SensorSpec(1, (), np.zeros((1, 1)))
        net = SensorNetwork((idle_sensor,) * idle + _single_qubit_net().sensors)
        w, v = np.linalg.eigh(np.asarray(SIGMA_X))
        effects = [np.outer(v[:, i], v[:, i].conj()) for i in range(2)]
        probe = PureState(_plus_state().amplitudes, net.dims)
        with pytest.warns(RuntimeWarning, match="1 outcome.*counted by their limit"):
            out = cfim(effects, net, probe)
        assert_allclose(out, [[1.0]], atol=1e-12)

    def test_zero_probability_outcome_of_mixed_probe_counts_by_its_limit(self):
        # One parameter on a qutrit next to a parameter-free qubit. The probe
        # has no weight on the qutrit's level 2, so the effect on that level
        # has probability 0 at phi = 0; H moves weight there at order phi^2.
        rng = np.random.default_rng(5)
        net = SensorNetwork(
            (SensorSpec(3, (random_hermitian(3, rng),), identity(3)), SensorSpec(2, (), identity(2)))
        )
        level2 = np.kron(np.diag([0.0, 0.0, 1.0]), identity(2))
        rest = np.eye(6) - level2
        effects = [rest @ e @ rest for e in random_povm(6, 3, rng)] + [level2]
        support = np.kron(np.eye(3)[:, :2], identity(2))
        rho = DensityOperator(support @ random_density(4, (4,), rng).matrix @ support.T, (3, 2))
        with pytest.warns(RuntimeWarning, match="1 outcome"):
            out = cfim(effects, net, rho)
        # Skipping the outcome would read 0.041 here against 0.174.
        assert_allclose(out, oracle_cfim(effects, net, rho, [1e-4]), rtol=1e-3)

    def test_zero_probability_outcomes_skipped_with_several_parameters(self):
        # With two parameters the limit of (dp)^2 / p depends on the
        # direction of approach, so the outcomes are skipped, as the oracle
        # skips them.
        net = two_qubit_z_network()
        w, v = np.linalg.eigh(np.asarray(SIGMA_X))
        local = [np.outer(v[:, i], v[:, i].conj()) for i in range(2)]
        effects = [np.kron(a, b) for a in local for b in local]
        plus2 = PureState(np.ones(4) / 2.0, (2, 2))
        with pytest.warns(RuntimeWarning, match="3 outcome.*skipped: with 2 parameters"):
            out = cfim(effects, net, plus2)
        assert_allclose(out, oracle_cfim(effects, net, plus2, [0.0, 0.0]), atol=1e-12)
        assert_allclose(out, np.zeros((2, 2)), atol=1e-12)

    def test_invalid_povm_rejected(self):
        net = _single_qubit_net()
        with pytest.raises(ValueError):
            cfim([np.diag([1.0, 0.0])], net, _plus_state())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).filter(
            lambda dims: prod(dims) <= 16
        ),
        st.booleans(),
        st.sampled_from(["fiducial", "commuting", "random"]),
        seeds,
    )
    def test_matches_central_difference_oracle(self, dims, mixed, regime, seed):
        # "fiducial": random (generally non-commuting) generators at phi0 = 0;
        # "commuting": each sensor's generators share an eigenbasis, phi0 away
        # from 0; "random": random generators away from 0, which must raise
        # unless every sensor's generators happen to commute.
        rng = np.random.default_rng(seed)
        net = commuting_network(dims, rng) if regime == "commuting" else random_network(dims, rng)
        dim = net.total_dim
        probe = random_density(dim, net.dims, rng) if mixed else haar_state(dim, net.dims, rng)
        effects = random_povm(dim, int(rng.integers(2, 6)), rng)
        phi0 = np.zeros(net.n_params) if regime == "fiducial" else rng.uniform(-1.0, 1.0, net.n_params)
        commuting = all(
            np.max(np.abs(a @ b - b @ a)) <= 1e-9
            for s in net.sensors
            for i, a in enumerate(s.generators)
            for b in s.generators[i + 1 :]
        )
        if regime == "random" and not commuting:
            with pytest.raises(NoncommutingGeneratorsError):
                cfim(effects, net, probe, phi0=phi0)
            return
        got = cfim(effects, net, probe, phi0=None if regime == "fiducial" else phi0)
        want = oracle_cfim(effects, net, probe, phi0)
        assert_allclose(got, want, rtol=1e-6, atol=1e-6 * max(1.0, float(np.max(np.abs(want)))))

    def test_off_fiducial_point_needs_commuting_generators(self):
        sensor = SensorSpec(2, (SIGMA_Z / 2, SIGMA_X / 2), np.diag([0.0, 1.0]))
        net = SensorNetwork((sensor,))
        with pytest.raises(NoncommutingGeneratorsError):
            cfim(sigma_y_effects(), net, _plus_state(), phi0=[0.3, 0.0])
        at_zero = cfim(sigma_y_effects(), net, _plus_state(), phi0=[0.0, 0.0])
        want = oracle_cfim(sigma_y_effects(), net, _plus_state(), [0.0, 0.0])
        assert_allclose(at_zero, want, atol=1e-6)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            QFIM(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("mu", [1.5, True])
    def test_non_integer_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu"):
            qcrb(QFIM(np.eye(2)), [1.0, 1.0], mu)

    def test_numpy_integer_mu_accepted(self):
        assert qcrb(QFIM(np.eye(2)), [1.0, 1.0], np.int64(2)).bound == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            qcrb(QFIM(np.eye(2)), [bad, 1.0])

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"information matrix must be a square matrix, got shape \(2, 3\)"):
            QFIM(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0, 1.0, 1.0], r"expected 2 weights, got shape \(3,\)"),
            (np.eye(3), r"weight matrix has shape \(3, 3\), expected \(2, 2\)"),
        ],
        ids=["vector", "matrix"],
    )
    def test_wrong_weight_shape_rejected(self, weights, message):
        with pytest.raises(LayoutError, match=message):
            qcrb(QFIM(np.eye(2)), weights)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            qcrb(QFIM(np.eye(2)), [1.0, -1.0])

    def test_wrong_effect_shape_rejected(self):
        with pytest.raises(LayoutError, match=r"effect 0 has shape \(4, 4\), expected \(2, 2\)"):
            cfim([np.eye(4)], _single_qubit_net(), _plus_state())

    def test_negative_effect_rejected(self):
        effects = [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]
        with pytest.raises(ValueError, match="effect 1 has eigenvalue -5.000e-01 < 0"):
            cfim(effects, _single_qubit_net(), _plus_state())


class TestMatrixKindRules:
    """Every one-sensor operator and weight matrix has one size rule, and
    every state, information matrix, weight matrix and effect one positivity
    rule, each with its own floor."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SensorSpec(2, (np.eye(3),), np.zeros((2, 2))), "generator 0 has shape (3, 3), expected (2, 2)"),
            (lambda: SensorSpec(2, (SIGMA_Z,), np.zeros((3, 3))), "resource operator has shape (3, 3), expected (2, 2)"),
            (lambda: qfim_pure(_plus_state(), [np.eye(3)]), "generator 0 has shape (3, 3), expected (2, 2)"),
            (lambda: cfim([np.eye(3)], _single_qubit_net(), _plus_state()), "effect 0 has shape (3, 3), expected (2, 2)"),
            (lambda: qcrb(QFIM(np.eye(2)), np.eye(3)), "weight matrix has shape (3, 3), expected (2, 2)"),
        ],
        ids=["sensor-generator", "sensor-resource", "sequence-generator", "effect", "weight-matrix"],
    )
    def test_size_rule(self, build, message):
        with pytest.raises(LayoutError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, floor, message",
        [
            (lambda e: DensityOperator(np.diag([1.0 + e, -e]), (2,)), 1e-10, "density operator has eigenvalue -2.000e-10 < 0"),
            # 1e-9 of the largest entry, 4.
            (lambda e: QFIM(np.diag([4.0, -e])), 4e-9, "information matrix has eigenvalue -8.000e-09 < 0"),
            (lambda e: qcrb(QFIM(np.eye(2)), np.diag([4.0, -e])), 4e-9, "weight matrix has eigenvalue -8.000e-09 < 0"),
            (
                lambda e: cfim([np.diag([1.0 + e, 0.0]), np.diag([-e, 1.0])], _single_qubit_net(), _plus_state()),
                1e-9,
                "effect 1 has eigenvalue -2.000e-09 < 0",
            ),
        ],
        ids=["density", "information-matrix", "weight-matrix", "effect"],
    )
    def test_positivity_rule(self, build, floor, message):
        build(floor / 2)
        with pytest.raises(ValueError) as info:
            build(2 * floor)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: qfim_pure(density(_plus_state()), _single_qubit_net()), "qfim_pure needs a PureState, got DensityOperator"),
            (lambda: qfim_mixed(_plus_state(), _single_qubit_net()), "qfim_mixed needs a DensityOperator, got PureState"),
            (lambda: qcrb(np.eye(2), [1.0, 1.0]), "qcrb needs a QFIM, got ndarray"),
        ],
        ids=["qfim_pure", "qfim_mixed", "qcrb"],
    )
    def test_swapped_carrier_rejected(self, call, message):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message

    def test_phi0_must_be_one_dimensional(self):
        with pytest.raises(LayoutError, match=r"expected 1 parameters, got shape \(1, 1\)"):
            cfim([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], _single_qubit_net(), _plus_state(), [[0.1]])


class TestSpectrum:
    def test_kept_read_only_and_consistent(self):
        fim = QFIM(random_spd(5, np.random.default_rng(6)), ((0, 1), (2, 3, 4)))
        w, v = fim.spectrum
        for part in (w, v):
            with pytest.raises(ValueError):
                part[0] = 0.0
        with pytest.raises(AttributeError):
            fim.spectrum = (w, v)
        assert_allclose((v * w) @ v.T, fim.matrix, atol=1e-12)
        assert_allclose(w, np.linalg.eigvalsh(fim.matrix), atol=1e-12)
