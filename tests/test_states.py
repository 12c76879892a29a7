"""Probe constructors: joint eigenbases, separable surrogates,
purifications, extremal superpositions, GHZ-like probes, allocations."""

from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    bell_state,
    commuting_network,
    layouts,
    oracle_qfim_pure,
    seeds,
    sign_patterns,
    two_qubit_z_network,
)
from qsnet import (
    QFIM,
    LinearFunctional,
    SensorNetwork,
    SensorSpec,
    doubled,
    extremal_superposition,
    ghz_bound,
    ghz_probe,
    joint_eigenbasis,
    local_purification_probe,
    optimal_separable_probe,
    orthogonal_completion,
    pnorm,
    product_defect,
    purify,
    qcrb,
    qfim_pure,
    resource_count,
    rotate_qfim,
    sensor_marginal,
    separable_bound,
    separable_surrogate,
)
from qsnet.exceptions import LayoutError, NoncommutingGeneratorsError
from qsnet.hilbert import SIGMA_X, SIGMA_Z, DensityOperator, PureState, identity, partial_trace
from qsnet.sampling import haar_state, haar_unitary, random_density
from qsnet.scenarios import qubit_ensemble_family, truncated_mode_family
from qsnet.states import SensorFamily


class TestJointEigenbasis:
    def test_single_sigma_z(self):
        labels, vectors = joint_eigenbasis(SensorSpec(2, (SIGMA_Z,), identity(2)))
        assert_allclose(labels[:, 0], [-1.0, 1.0], atol=1e-12)
        rebuilt = (vectors * labels[:, 0]) @ vectors.conj().T
        assert_allclose(rebuilt, SIGMA_Z, atol=1e-12)

    def test_identity_extends_labels(self):
        labels, _ = joint_eigenbasis(SensorSpec(2, (SIGMA_Z, identity(2)), identity(2)))
        assert labels.shape == (2, 2)
        assert_allclose(labels[:, 1], [1.0, 1.0], atol=1e-12)

    def test_construct_then_recover(self):
        # Oracle: build commuting generators from a known shared basis, then
        # require the recovered joint basis to reproduce both.
        rng = np.random.default_rng(31)
        shared = haar_unitary(6, rng)
        spectra = [rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)]
        gens = tuple((shared * s) @ shared.conj().T for s in spectra)
        gens = tuple((g + g.conj().T) / 2 for g in gens)
        labels, vectors = joint_eigenbasis(SensorSpec(6, gens, identity(6)))
        for j, g in enumerate(gens):
            rebuilt = (vectors * labels[:, j]) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - g)) <= 1e-9

    def test_degenerate_block_refined(self):
        g1 = np.diag([1.0, 1.0, -1.0]).astype(complex)
        g2 = np.diag([2.0, -1.0, 0.0]).astype(complex)
        labels, vectors = joint_eigenbasis(SensorSpec(3, (g1, g2), identity(3)))
        for j, g in enumerate((g1, g2)):
            rebuilt = (vectors * labels[:, j]) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - g)) <= 1e-9

    def test_non_commuting_rejected(self):
        sensor = SensorSpec(2, (SIGMA_X / 2, SIGMA_Z / 2), identity(2))
        with pytest.raises(NoncommutingGeneratorsError):
            joint_eigenbasis(sensor)

    @pytest.mark.parametrize("mu", [(0.2, 0.7, -0.3), (0.2, 0.2, -0.3)], ids=["split", "scalar"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["lam_first", "mu_first"])
    def test_near_degenerate_first_generator_split_by_second(self, mu, reverse):
        # Two eigenvalues of ``lam`` 5e-8 apart (inside the 1e-6 cluster
        # tolerance) leave their eigenvectors mixed at roundoff over the gap.
        # ``mu`` either separates the pair or is scalar on it; in neither
        # case, and in neither generator order, may it scramble the pair.
        # Seed 81 is one where refining by each later generator in turn
        # raises with the scalar ``mu`` second.
        rng = np.random.default_rng(81)
        shared = haar_unitary(3, rng)
        lam = np.array([1.0, 1.0 + 5e-8, -1.0])
        spectra = (lam, np.array(mu))
        gens = []
        for spectrum in spectra[::-1] if reverse else spectra:
            g = (shared * spectrum) @ shared.conj().T
            gens.append((g + g.conj().T) / 2)
        labels, vectors = joint_eigenbasis(SensorSpec(3, tuple(gens), identity(3)))
        for j, g in enumerate(gens):
            rebuilt = (vectors * labels[:, j]) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - g)) <= 1e-9
        # Either order yields the joint spectrum, up to a row permutation;
        # ``lam``'s entries are distinct, so they fix the row order.
        pairs = labels[:, ::-1] if reverse else labels
        expected = np.column_stack(spectra)
        assert_allclose(pairs[np.argsort(pairs[:, 0])], expected[np.argsort(lam)], atol=1e-9)

    def test_ancilla_gets_trivial_basis(self):
        labels, vectors = joint_eigenbasis(SensorSpec(3, (), identity(3)))
        assert labels.shape == (3, 0)
        assert_allclose(vectors, identity(3), atol=0)


class TestSeparableSurrogate:
    def test_bell_state_surrogate(self):
        # Marginals of the Bell state are I/2, so the surrogate is the
        # uniform-superposition product with all amplitudes 1/2.
        net = two_qubit_z_network()
        psi = PureState(bell_state(), (2, 2))
        surrogate = separable_surrogate(psi, net)
        assert_allclose(surrogate.amplitudes, np.full(4, 0.5), atol=1e-12)
        fim = oracle_qfim_pure(psi, net)
        fim_s = oracle_qfim_pure(surrogate, net)
        assert_allclose(fim, np.ones((2, 2)), atol=1e-12)
        assert_allclose(fim_s, identity(2).real, atol=1e-12)

    def test_eigenbasis_diagonal_product_fixed_point(self):
        net = two_qubit_z_network()
        factor_a = np.array([np.sqrt(0.3), np.sqrt(0.7)])
        factor_b = np.array([np.sqrt(0.4), np.sqrt(0.6)])
        psi = PureState(np.kron(factor_a, factor_b), (2, 2))
        surrogate = separable_surrogate(psi, net)
        assert_allclose(surrogate.amplitudes, psi.amplitudes, atol=1e-12)

    def test_product_structure(self):
        net = two_qubit_z_network()
        rng = np.random.default_rng(33)
        surrogate = separable_surrogate(haar_state(4, (2, 2), rng), net)
        assert product_defect(surrogate) <= 1e-10

    def test_resource_equality_for_diagonal_resource_ops(self):
        net = two_qubit_z_network()
        rng = np.random.default_rng(35)
        psi = haar_state(4, (2, 2), rng)
        surrogate = separable_surrogate(psi, net)
        assert resource_count(net, surrogate) <= resource_count(net, psi) + 1e-12
        assert resource_count(net, surrogate) == pytest.approx(
            resource_count(net, psi), abs=1e-12
        )

    def test_degenerate_eigenspace_blocks_still_match(self):
        # A degenerate generator leaves the joint basis non-unique; the
        # surrogate's diagonal information blocks must not depend on the
        # arbitrary choice.
        rng = np.random.default_rng(37)
        g = np.diag([1.0, 1.0, -1.0]).astype(complex)
        s1 = SensorSpec(3, (g,), identity(3))
        s2 = SensorSpec(2, (SIGMA_Z / 2,), identity(2))
        net = SensorNetwork((s1, s2))
        psi = haar_state(6, (3, 2), rng)
        surrogate = separable_surrogate(psi, net)
        fim = QFIM(oracle_qfim_pure(psi, net), net.partition)
        fim_s = QFIM(oracle_qfim_pure(surrogate, net), net.partition)
        for k in range(fim.n_blocks):
            assert np.max(np.abs(fim.block(k) - fim_s.block(k))) <= 1e-9

    def test_non_commuting_network_rejected(self):
        sensor = SensorSpec(2, (SIGMA_X / 2, SIGMA_Z / 2), identity(2))
        net = SensorNetwork((sensor, sensor))
        rng = np.random.default_rng(39)
        with pytest.raises(NoncommutingGeneratorsError):
            separable_surrogate(haar_state(4, (2, 2), rng), net)

    @settings(max_examples=60, deadline=None)
    @given(layouts.filter(lambda dims: prod(dims) <= 64), seeds)
    def test_populations_match_marginal_oracle(self, dims, seed):
        # Oracle: the diagonal of the probe's reduced state on each sensor
        # in that sensor's joint eigenbasis, through sensor_marginal.
        rng = np.random.default_rng(seed)
        net = commuting_network(dims, rng)
        psi = haar_state(net.total_dim, net.dims, rng)
        surrogate = separable_surrogate(psi, net)
        for site, sensor in enumerate(net.sensors):
            _, vectors = joint_eigenbasis(sensor)
            want = np.diag(vectors.conj().T @ sensor_marginal(psi, site).matrix @ vectors)
            got = np.diag(vectors.conj().T @ sensor_marginal(surrogate, site).matrix @ vectors)
            assert_allclose(got, want.real, rtol=0, atol=1e-12)

    def test_builds_no_density_operator(self, monkeypatch):
        # The populations come from the probe's amplitudes; a reduced
        # DensityOperator per sensor would run its validating eigh unread.
        rng = np.random.default_rng(41)
        net = commuting_network((3, 2, 4), rng)
        psi = haar_state(net.total_dim, net.dims, rng)
        real = DensityOperator.__post_init__
        built = []

        def counted(self):
            built.append(self.layout)
            real(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counted)
        separable_surrogate(psi, net)
        assert built == []

    def test_weighted_bound_never_worse(self):
        # Three sensors, one carrying two commuting generators: the
        # surrogate's weighted scalar bound must not exceed the probe's for
        # any nonnegative diagonal weighting.
        from qsnet import qcrb

        rng = np.random.default_rng(40)
        basis = haar_unitary(3, rng)
        g1 = (basis * rng.uniform(-1, 1, 3)) @ basis.conj().T
        g2 = (basis * rng.uniform(-1, 1, 3)) @ basis.conj().T
        s3 = SensorSpec(3, ((g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2), identity(3))
        qubit = SensorSpec(2, (SIGMA_Z / 2,), identity(2))
        net = SensorNetwork((s3, qubit, qubit))
        for _ in range(5):
            psi = haar_state(net.total_dim, net.dims, rng)
            fim = QFIM(oracle_qfim_pure(psi, net), net.partition)
            if np.linalg.eigvalsh(fim.matrix)[0] < 1e-2:
                continue
            surrogate = separable_surrogate(psi, net)
            fim_s = QFIM(oracle_qfim_pure(surrogate, net), net.partition)
            for _ in range(3):
                weights = rng.uniform(0.0, 1.0, net.n_params)
                bound = qcrb(fim, weights, 1).bound
                bound_s = qcrb(fim_s, weights, 1).bound
                assert bound_s <= bound + 1e-9


class TestPurify:
    def test_pure_input(self):
        rho = DensityOperator(np.diag([1.0, 0.0]), (2,))
        out = purify(rho)
        assert out.layout == (2, 2)
        assert_allclose(out.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_maximally_mixed_gives_maximally_entangled(self):
        rho = DensityOperator(identity(2) / 2, (2,))
        out = purify(rho)
        marginal = sensor_marginal(out, 0)
        assert_allclose(marginal.matrix, identity(2) / 2, atol=1e-12)
        assert np.trace(marginal.matrix @ marginal.matrix).real == pytest.approx(0.5, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        rho = random_density(6, (6,), rng)
        out = purify(rho)
        back = sensor_marginal(out, 0)
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-9

    # The purification lives on D * D levels, so D stays within the default cap.
    @settings(max_examples=50, deadline=None)
    @given(layouts.filter(lambda dims: prod(dims) <= 64), st.booleans(), seeds)
    def test_matches_kron_loop(self, dims, rank_one, seed):
        rng = np.random.default_rng(seed)
        dim = prod(dims)
        if rank_one:
            rho = haar_state(dim, dims, rng).density()
        else:
            rho = random_density(dim, dims, rng)
        p, v = np.linalg.eigh(rho.matrix)
        want = sum(np.sqrt(max(p[i], 0.0)) * np.kron(v[:, i], v[:, i]) for i in range(dim))
        want = want / np.linalg.norm(want)
        out = purify(rho)
        assert out.layout == tuple(dims) + (dim,)
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-12
        back = partial_trace(out, [len(dims)])
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-12


class TestLocalPurificationProbe:
    def test_product_input_gives_pair_products(self):
        rng = np.random.default_rng(43)
        rho_a = random_density(2, (2,), rng)
        rho_b = random_density(3, (3,), rng)
        joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix), (2, 3))
        s1 = SensorSpec(2, (SIGMA_Z / 2,), identity(2))
        s2 = SensorSpec(3, (np.diag([0.0, 1.0, 2.0]).astype(complex),), identity(3))
        net = SensorNetwork((s1, s2))
        probe = local_purification_probe(joint, net)
        assert probe.layout == (2, 2, 3, 3)
        assert product_defect(probe, groups=[(0, 1), (2, 3)]) <= 1e-10

    def test_bell_input_marginals_and_blocks(self):
        net = two_qubit_z_network()
        rho = PureState(bell_state(), (2, 2)).density()
        probe = local_purification_probe(rho, net)
        # Each sensor marginal is I/2, purified pairwise.
        for site in (0, 2):
            assert_allclose(sensor_marginal(probe, site).matrix, identity(2) / 2, atol=1e-12)
        dnet = doubled(net)
        anc = purify(rho)
        from qsnet import with_collective_ancilla

        anet = with_collective_ancilla(net)
        fim_global = QFIM(oracle_qfim_pure(anc, anet), anet.partition)
        fim_local = QFIM(oracle_qfim_pure(probe, dnet), dnet.partition)
        for k in range(fim_global.n_blocks):
            assert np.max(np.abs(fim_global.block(k) - fim_local.block(k))) <= 1e-9

    def test_resource_doubling_is_equality_for_canonical_purifications(self):
        net = two_qubit_z_network()
        rng = np.random.default_rng(45)
        rho = random_density(4, (2, 2), rng)
        probe = local_purification_probe(rho, net)
        assert resource_count(doubled(net), probe) == pytest.approx(
            2.0 * resource_count(net, rho), abs=1e-9
        )


class TestExtremalSuperposition:
    def test_single_qubit(self):
        fam = qubit_ensemble_family()
        state = extremal_superposition(fam, 1)
        assert_allclose(np.abs(state.amplitudes), np.full(2, 1 / np.sqrt(2)), atol=1e-12)
        net = SensorNetwork((fam.sensor_for(1),))
        fim = oracle_qfim_pure(state, net)
        assert fim[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_collective_spin_ghz_information(self):
        fam = qubit_ensemble_family()
        for n in (2, 3):
            state = extremal_superposition(fam, n)
            net = SensorNetwork((fam.sensor_for(n),))
            fim = oracle_qfim_pure(state, net)
            assert fim[0, 0] == pytest.approx(float(n * n), abs=1e-10)

    def test_kappa_recovery(self):
        for fam in (qubit_ensemble_family(), truncated_mode_family()):
            for n in range(1, 6):
                gen = fam.sensor_for(n).generators[0]
                w = np.linalg.eigvalsh(np.asarray(gen))
                assert (w[-1] - w[0]) / n == pytest.approx(fam.kappa, abs=1e-12)

    def test_zero_particles_trivial(self):
        fam = truncated_mode_family()
        state = extremal_superposition(fam, 0)
        assert state.layout == (1,)
        assert_allclose(np.abs(state.amplitudes), [1.0], atol=1e-12)

    def test_degenerate_extreme_tie_break_deterministic(self):
        def build(n):
            gen = np.diag([0.0, float(n), float(n)]).astype(complex)
            return SensorSpec(3, (gen,), identity(3))

        fam = SensorFamily(kappa=1.0, sensor_for=build)
        a = extremal_superposition(fam, 2)
        b = extremal_superposition(fam, 2)
        assert_allclose(a.amplitudes, b.amplitudes, atol=0)
        # Lowest eigh index inside the maximal eigenspace wins the tie.
        assert_allclose(np.abs(a.amplitudes), [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-12)


class TestGhzProbe:
    def test_two_qubit_frozen_amplitudes(self):
        fam = qubit_ensemble_family()
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        state, net = ghz_probe(v, 2, fam)
        assert net.dims == (2, 2)
        assert_allclose(state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)

    def test_two_qubit_gradient_swaps_the_negative_sensor(self):
        fam = qubit_ensemble_family()
        v = np.array([-1.0, 1.0]) / np.sqrt(2)
        state, net = ghz_probe(v, 2, fam)
        assert net.dims == (2, 2)
        assert_allclose(state.amplitudes, np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_signed_v_reaches_ghz_bound_along_v(self, d):
        # Magnitudes (1, 2, 1, 2, 1) put that many qubits on each sensor at
        # N = their sum; the variance of v . phi is read off the support of
        # the rank-one matrix, and the dense oracle checks the rank.
        fam = qubit_ensemble_family()
        counts = np.array([1.0, 2.0, 1.0, 2.0, 1.0][:d])
        n = int(counts.sum())
        selector = np.eye(d)[0]
        for signs in sign_patterns(d):
            v = signs * counts / np.linalg.norm(counts)
            state, net = ghz_probe(v, n, fam)
            assert net.dims == tuple(int(c) + 1 for c in counts)
            rotated = rotate_qfim(qfim_pure(state, net), orthogonal_completion(v))
            variance = qcrb(rotated, selector, 3).bound
            assert variance == pytest.approx(pnorm(v, 1.0) ** 2 / (3 * fam.kappa**2 * n**2), abs=1e-9)
            w, vecs = np.linalg.eigh(oracle_qfim_pure(state, net))
            assert w[-2] <= 1e-9
            assert abs(abs(np.dot(vecs[:, -1], v)) - 1.0) <= 1e-9

    def test_information_matrix_matches_closed_form(self):
        fam = qubit_ensemble_family()
        for d in (2, 3):
            v = np.ones(d) / np.sqrt(d)
            state, net = ghz_probe(v, d, fam)
            fim = oracle_qfim_pure(state, net)
            expected = fam.kappa**2 * d**2 * np.outer(v, v) / pnorm(v, 1.0) ** 2
            assert np.max(np.abs(fim - expected)) <= 1e-9

    def test_rank_one_with_direction_v(self):
        fam = qubit_ensemble_family()
        v = np.array([3.0, 4.0]) / 5.0
        state, net = ghz_probe(v, 7, fam)  # tilde v = 7 * (3, 4) / 7 = (3, 4)
        fim = oracle_qfim_pure(state, net)
        w, vecs = np.linalg.eigh(fim)
        assert w[-2] <= 1e-9
        top = vecs[:, -1]
        assert abs(abs(np.dot(top, v)) - 1.0) <= 1e-9

    def test_single_sensor_limit(self):
        fam = qubit_ensemble_family()
        v = np.array([1.0, 0.0])
        state, net = ghz_probe(v, 3, fam)
        assert net.dims == (4, 1)
        fim = oracle_qfim_pure(state, net)
        assert_allclose(fim, np.diag([9.0, 0.0]), atol=1e-10)

    def test_non_integral_allocation_rejected(self):
        fam = qubit_ensemble_family()
        v = np.array([2.0, 1.0]) / np.sqrt(5)
        with pytest.raises(ValueError, match="sensor 0"):
            ghz_probe(v, 2, fam)

    def test_atom_count_resource_equals_budget(self):
        fam = qubit_ensemble_family()
        v = np.ones(2) / np.sqrt(2)
        state, net = ghz_probe(v, 4, fam)
        assert resource_count(net, state) == pytest.approx(4.0, abs=1e-12)


def _variance_cost(v, w) -> float:
    return sum((vk / wk) ** 2 if wk else np.inf for vk, wk in zip(v, w) if vk > 0.0)


def _splits(total: int, parts: int):
    """All ``parts``-tuples of nonnegative integers summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _splits(total - first, parts - 1):
            yield (first, *rest)


def _first_minimizer(v, total: int) -> np.ndarray:
    """Lexicographically first allocation minimizing ``sum v_k^2 / w_k^2``,
    by enumeration; costs within 1e-12 relative count as tied."""
    candidates = list(_splits(total, len(v)))
    costs = np.array([_variance_cost(v, w) for w in candidates])
    first = int(np.nonzero(costs <= costs.min() * (1.0 + 1e-12))[0][0])
    return np.array(candidates[first])


class TestOptimalSeparableProbe:
    def test_uniform_two_sensor_split(self):
        # Oracle: exhaustive enumeration of all compositions of 4 into 2.
        fam = qubit_ensemble_family()
        v = np.ones(2) / np.sqrt(2)
        best = None
        for w0 in range(5):
            w = np.array([w0, 4 - w0])
            cost = sum((vk / wk) ** 2 if wk else np.inf for vk, wk in zip(v, w))
            if best is None or cost < best[1]:
                best = (w, cost)
        assert_allclose(best[0], [2, 2])
        _, _, allocation = optimal_separable_probe(v, 4, fam)
        assert_allclose(allocation, [2, 2])

    def test_single_direction_takes_everything(self):
        fam = qubit_ensemble_family()
        _, net, allocation = optimal_separable_probe(np.array([1.0, 0.0]), 5, fam)
        assert_allclose(allocation, [5, 0])
        assert net.dims == (6, 1)

    def test_achieved_bound_matches_analytic_at_integral_optimum(self):
        from qsnet import LinearFunctional, orthogonal_completion, qcrb, rotate_qfim, separable_bound

        fam = qubit_ensemble_family()
        v = np.ones(2) / np.sqrt(2)
        state, net, _ = optimal_separable_probe(v, 4, fam)
        fim = QFIM(oracle_qfim_pure(state, net), net.partition)
        rotated = rotate_qfim(fim, orthogonal_completion(v))
        achieved = qcrb(rotated, [1.0, 0.0], 1).bound
        analytic = separable_bound(LinearFunctional(v, fam.kappa, 4, 1))
        assert achieved == pytest.approx(analytic, abs=1e-9)
        assert achieved >= analytic - 1e-9

    def test_greedy_matches_exhaustive_cost(self):
        fam = truncated_mode_family()
        rng = np.random.default_rng(47)
        for _ in range(5):
            raw = rng.uniform(0.1, 1.0, 3)
            v = raw / np.linalg.norm(raw)
            _, _, w = optimal_separable_probe(v, 6, fam)
            w_ex = _first_minimizer(v, 6)
            assert _variance_cost(v, w) == pytest.approx(_variance_cost(v, w_ex), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        entries=st.lists(
            st.one_of(st.integers(0, 3).map(float), st.floats(0.05, 1.0)), min_size=1, max_size=6
        ),
        extra=st.integers(0, 12),
    )
    @example(entries=[1.0, 0.9999999999999999], extra=1)  # a tie up to one ulp
    def test_matches_lexicographically_first_minimizer(self, entries, extra):
        # Zeros and ties are frequent among the integer entries; the tie rule
        # must pick the same allocation as the brute-force enumeration.
        raw = np.array(entries)
        assume(np.any(raw > 0.0))
        v = raw / np.linalg.norm(raw)
        n = min(12, int(np.count_nonzero(v > 0.0)) + extra)
        _, net, w = optimal_separable_probe(v, n, qubit_ensemble_family())
        assert np.array_equal(w, _first_minimizer(v, n))
        assert net.dims == tuple(int(c) + 1 for c in w)

    def test_twelve_weighted_sensors_each_get_one(self):
        # Twelve particles over twelve weighted sensors leave no choice.
        rng = np.random.default_rng(3)
        v = rng.uniform(0.2, 1.0, 12)
        v /= np.linalg.norm(v)
        state, net, w = optimal_separable_probe(v, 12, qubit_ensemble_family())
        assert_allclose(w, np.ones(12))
        variance = qcrb(rotate_qfim(qfim_pure(state, net), orthogonal_completion(v)), np.eye(12)[0]).bound
        assert variance == pytest.approx(np.sum(v**2 / w**2), rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_signed_v_allocates_on_magnitudes(self, d):
        fam = qubit_ensemble_family()
        raw = np.array([0.3, 1.0, 0.6, 0.8][:d])
        magnitudes = raw / np.linalg.norm(raw)
        state, net, w = optimal_separable_probe(magnitudes, 7, fam)
        for signs in sign_patterns(d):
            signed_state, signed_net, signed_w = optimal_separable_probe(signs * magnitudes, 7, fam)
            assert np.array_equal(signed_w, w)
            assert signed_net.dims == net.dims
            assert np.array_equal(signed_state.amplitudes, state.amplitudes)

    def test_budget_smaller_than_support_rejected(self):
        fam = qubit_ensemble_family()
        with pytest.raises(ValueError):
            optimal_separable_probe(np.ones(3) / np.sqrt(3), 2, fam)

    @pytest.mark.parametrize("n", [1, 4])
    def test_weight_at_pnorm_cut_gets_no_particle(self, n):
        # pnorm and the GHZ allocation drop |v_k| <= 1e-300; so must the greedy.
        fam = qubit_ensemble_family()
        tiny = np.array([1e-301, 1.0])
        tiny_state, tiny_net, tiny_w = optimal_separable_probe(tiny, n, fam)
        state, net, w = optimal_separable_probe(np.array([0.0, 1.0]), n, fam)
        assert np.array_equal(tiny_w, [0, n]) and np.array_equal(w, [0, n])
        assert np.array_equal(tiny_w, LinearFunctional(tiny, fam.kappa, n).ghz_allocation())
        assert tiny_net.dims == net.dims
        assert np.array_equal(tiny_state.amplitudes, state.amplitudes)

    def test_small_real_weight_keeps_its_particle(self):
        # A weight above the cut with no particle would have infinite variance.
        fam = qubit_ensemble_family()
        _, _, w = optimal_separable_probe(np.array([1e-13, 1.0]), 4, fam)
        assert np.array_equal(w, [1, 3])
        with pytest.raises(ValueError, match="budget too small"):
            optimal_separable_probe(np.array([1e-13, 1.0]), 1, fam)


class TestIntegerCounts:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: qubit_ensemble_family().sensor_for(2.5),
            lambda: truncated_mode_family().sensor_for(2.0),
            lambda: extremal_superposition(qubit_ensemble_family(), 2.5),
            lambda: ghz_probe(np.ones(2) / np.sqrt(2), 2.0, qubit_ensemble_family()),
            lambda: optimal_separable_probe(np.ones(2) / np.sqrt(2), 2.5, qubit_ensemble_family()),
        ],
    )
    def test_non_integer_count_rejected(self, build):
        with pytest.raises(ValueError, match="integer"):
            build()


class TestProductDefectGroups:
    def test_empty_group_rejected(self):
        psi = PureState(bell_state(), (2, 2))
        with pytest.raises(LayoutError, match="empty group"):
            product_defect(psi, groups=[(), (0, 1)])

    @pytest.mark.parametrize("bad", [0.9, 0.0, False])
    def test_float_index_rejected_not_truncated(self, bad):
        psi = PureState(bell_state(), (2, 2))
        with pytest.raises(LayoutError, match="integer"):
            product_defect(psi, groups=[(bad,), (1,)])
        assert product_defect(psi, groups=[(np.int64(0),), (1,)]) > 0.5


class TestPaperComparison:
    # Ids name d alone where N = 2d.
    @pytest.mark.parametrize("d, n", [(2, 4), (3, 6), (4, 8), (5, 20)], ids=["2", "3", "4", "5-20"])
    def test_separable_and_ghz_probes_reach_their_bounds(self, d, n):
        # Separable probes reach ||v||_{2/3}^2 / N^2 and the GHZ-like probe
        # ||v||_1^2 / N^2, read off the probes' own Fisher information.
        fam = qubit_ensemble_family()
        v = np.ones(d) / np.sqrt(d)
        selector = np.zeros(d)
        selector[0] = 1.0
        functional = LinearFunctional(v, fam.kappa, n, 1)
        sep_state, sep_net, _ = optimal_separable_probe(v, n, fam)
        sep = qcrb(rotate_qfim(qfim_pure(sep_state, sep_net), orthogonal_completion(v)), selector, 1)
        assert sep.bound == pytest.approx(separable_bound(functional), abs=1e-9)
        ghz_state, ghz_net = ghz_probe(v, n, fam)
        ghz = qcrb(rotate_qfim(qfim_pure(ghz_state, ghz_net), orthogonal_completion(v)), selector, 1)
        assert ghz.bound == pytest.approx(ghz_bound(functional), abs=1e-9)
        assert sep.bound / ghz.bound == pytest.approx(d, rel=1e-9)
        # Uniform v: N/d particles per sensor, d^2/N^2 and d/N^2 (0.0625 and
        # 0.0125 at d = 5, N = 20).
        assert sep_net.dims == ghz_net.dims == (n // d + 1,) * d
        assert sep.bound == pytest.approx(d**2 / n**2, rel=1e-9)
        assert ghz.bound == pytest.approx(d / n**2, rel=1e-9)
