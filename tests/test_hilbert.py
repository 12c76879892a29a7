"""Linear-algebra substrate: tensor products, embeddings, partial traces,
state carriers, JSON wire format."""

from functools import reduce
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import identity, layouts, random_hermitian, seeds
from qsnet import config, hilbert
from qsnet.exceptions import DimensionLimitError, FormatError, LayoutError
from qsnet.fisher import qfim_mixed
from qsnet.hilbert import (
    check_dim,
    kron_all,
    SIGMA_X,
    SIGMA_Z,
    DensityOperator,
    PureState,
    apply_local,
    commutator,
    embed_local,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    require_hermitian,
    sensor_marginal,
    vector_from_json,
    vector_to_json,
)
from qsnet.network import SensorNetwork, SensorSpec
from qsnet.sampling import haar_state, random_density


class TestEmbedLocal:
    def test_site_zero(self):
        assert_allclose(embed_local(SIGMA_Z, 0, (2, 2)), np.kron(SIGMA_Z, identity(2)), atol=0)

    def test_site_one(self):
        assert_allclose(embed_local(SIGMA_Z, 1, (2, 2)), np.kron(identity(2), SIGMA_Z), atol=0)

    def test_distinct_sites_commute(self):
        rng = np.random.default_rng(11)
        a = embed_local(random_hermitian(3, rng), 0, (3, 4))
        b = embed_local(random_hermitian(4, rng), 1, (3, 4))
        assert np.max(np.abs(commutator(a, b))) <= 1e-12

    def test_site_out_of_range(self):
        with pytest.raises(LayoutError):
            embed_local(SIGMA_Z, 2, (2, 2))

    def test_dim_mismatch(self):
        with pytest.raises(LayoutError):
            embed_local(SIGMA_Z, 0, (3, 2))

    @pytest.mark.parametrize(
        "site, layout, message",
        [
            (0, (2.7, 2.2), "layout entry must be an integer >= 1, got 2.7"),
            (1.0, (2, 2), "site must be an integer >= 0, got 1.0"),
            (True, (2, 2), "site must be an integer >= 0, got True"),
            (-1, (2, 2), "site must be an integer >= 0, got -1"),
            (2, (2, 2), "site 2 outside layout of length 2"),
        ],
        ids=["float-layout", "float-site", "bool-site", "negative", "past-end"],
    )
    def test_bad_index_names_it(self, site, layout, message):
        with pytest.raises(LayoutError, match=message):
            embed_local(SIGMA_X, site, layout)

    @settings(max_examples=60, deadline=None)
    @given(layouts, st.data(), seeds)
    def test_matches_kron_chain(self, dims, data, seed):
        site = data.draw(st.integers(min_value=0, max_value=len(dims) - 1))
        rng = np.random.default_rng(seed)
        d = dims[site]
        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        factors = [identity(q) for q in dims]
        factors[site] = op
        assert np.array_equal(embed_local(op, site, dims), reduce(np.kron, factors))

    def test_cap_checked_on_total_dim(self, monkeypatch):
        monkeypatch.setenv("QSN_MAX_DIM", "8")
        with pytest.raises(DimensionLimitError):
            embed_local(SIGMA_Z, 0, (2, 3, 2))


@st.composite
def _layout_and_discard(draw):
    """A layout of 2 to 4 subsystems and a non-empty proper subset of them."""
    dims = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4))
    discard = draw(st.sets(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims) - 1))
    return dims, sorted(discard)


def _kron_partial_trace(rho: np.ndarray, dims, discard) -> np.ndarray:
    """``sum_j K_j rho K_j^dag`` over the basis states ``j`` of the discarded
    subsystems, with ``K_j`` the ``np.kron`` of identities on the kept
    subsystems and the rows ``<j_s|`` on the discarded ones."""
    out = 0.0
    for j in product(*(range(dims[s]) for s in discard)):
        pick = dict(zip(discard, j))
        factors = [np.eye(d)[[pick[s]]] if s in pick else np.eye(d) for s, d in enumerate(dims)]
        k = reduce(np.kron, factors)
        out = out + k @ rho @ k.conj().T
    return out


class TestPartialTrace:
    @settings(max_examples=80, deadline=None)
    @given(_layout_and_discard(), st.booleans(), seeds)
    @example(([2, 3, 2, 2], [0, 2]), True, 1)
    @example(([3, 2, 2, 3], [1, 3]), False, 2)
    def test_matches_kron_basis_oracle(self, case, mixed, seed):
        dims, discard = case
        rng = np.random.default_rng(seed)
        dim = int(np.prod(dims))
        if mixed:
            state = random_density(dim, dims, rng)
            rho = state.matrix
        else:
            state = haar_state(dim, dims, rng)
            rho = np.outer(state.amplitudes, state.amplitudes.conj())
        reduced = partial_trace(state, discard)
        assert reduced.layout == tuple(d for s, d in enumerate(dims) if s not in discard)
        assert_allclose(reduced.matrix, _kron_partial_trace(rho, dims, discard), atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        assert_allclose(partial_trace(bell, {1}).matrix, identity(2) / 2, atol=1e-12)

    def test_product_marginal(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(3, (3,), rng)
        rho_b = random_density(2, (2,), rng)
        joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix), (3, 2))
        assert_allclose(partial_trace(joint, {1}).matrix, rho_a.matrix, atol=1e-12)
        assert_allclose(partial_trace(joint, {0}).matrix, rho_b.matrix, atol=1e-12)

    def test_schmidt_spectra_agree(self):
        # Oracle: both marginals of a bipartite pure state share eigenvalues.
        rng = np.random.default_rng(5)
        psi = haar_state(4, (2, 2), rng)
        w_a = np.sort(sensor_marginal(psi, 0).spectrum[0])
        w_b = np.sort(sensor_marginal(psi, 1).spectrum[0])
        assert_allclose(w_a, w_b, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        rho = random_density(12, (3, 2, 2), rng)
        reduced = partial_trace(rho, {0, 2})
        assert reduced.layout == (2,)
        assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-12

    def test_empty_keep_set_rejected(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        with pytest.raises(LayoutError):
            partial_trace(bell, {0, 1})

    def test_index_past_layout_rejected(self):
        psi = PureState(np.eye(4)[0], (2, 2))
        with pytest.raises(LayoutError, match="subsystem index 2 outside layout of length 2"):
            partial_trace(psi, [2])

    @pytest.mark.parametrize(
        "site, message",
        [
            (True, "site must be an integer >= 0, got True"),
            (1.0, "site must be an integer >= 0, got 1.0"),
            (-1, "site must be an integer >= 0, got -1"),
            (5, "site 5 outside layout of length 2"),
        ],
        ids=["bool", "float", "negative", "past-end"],
    )
    def test_marginal_site_checked(self, site, message):
        psi = PureState(np.eye(4)[1], (2, 2))
        with pytest.raises(LayoutError, match=message):
            sensor_marginal(psi, site)
        assert_allclose(sensor_marginal(psi, np.int64(1)).matrix, np.diag([0.0, 1.0]), atol=0)


class TestStateCarriers:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), (2,))

    def test_pure_state_layout_enforced(self):
        with pytest.raises(LayoutError):
            PureState(np.array([1.0, 0.0, 0.0]), (2, 2))

    def test_layout_message_names_length_not_entries(self):
        # The size check comes first: it names the length of a layout of
        # any length.
        with pytest.raises(LayoutError) as info:
            PureState([1, 0, 0, 0], (1,) * 100000)
        assert str(info.value) == "layout of length 100000 implies dim 1, the state has dim 4"

    def test_density_psd_enforced(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]), (2,))

    def test_density_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.7, 0.7]), (2,))

    def test_density_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.1], [0.3, 0.5]]), (2,))

    def test_arrays_frozen(self):
        psi = PureState(np.array([1.0, 0.0]), (2,))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestIntegerIndices:
    """Layout entries and subsystem indices are integers: a float is
    rejected, never truncated, and numpy integers are accepted."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda layout: PureState(np.ones(4) / 2, layout),
            lambda layout: DensityOperator(np.eye(4) / 4, layout),
        ],
        ids=["pure", "density"],
    )
    @pytest.mark.parametrize("bad", [2.7, 2.0, True])
    def test_layout_entries(self, build, bad):
        with pytest.raises(LayoutError, match="integer"):
            build((bad, 2))
        layout = build((np.int64(2), np.int32(2))).layout
        assert layout == (2, 2) and all(type(d) is int for d in layout)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True])
    def test_partial_trace_discard_indices(self, bad):
        psi = PureState(np.ones(4) / 2, (2, 2))
        with pytest.raises(LayoutError, match="integer"):
            partial_trace(psi, [bad])
        assert partial_trace(psi, [np.int64(1)]).layout == (2,)


def _object_array_decode(items, ndim, where):
    """Reference decoder: the nested input read through one object array."""
    try:
        pairs = np.array(items, dtype=object)
    except ValueError as exc:
        raise FormatError(f"{where}: ragged nesting") from exc
    if pairs.ndim != ndim + 1 or pairs.shape[-1] != 2 or pairs.size == 0:
        kind = "vector" if ndim == 1 else "matrix"
        raise FormatError(f"{where}: expected a non-empty, non-ragged {kind} of [re, im] pairs")
    for t in set(map(type, pairs.flat)):
        if t is bool or not issubclass(t, (int, float)):
            raise FormatError(f"{where}: expected numbers in [re, im] pairs, got {t.__name__}")
    try:
        values = pairs.astype(float)
    except OverflowError as exc:
        raise FormatError(f"{where}: number too large for a float") from exc
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{where}: non-finite entry")
    return values.view(complex)[..., 0]


def _decode_outcome(decode, *args):
    try:
        out = decode(*args)
    except FormatError as exc:
        return str(exc)
    return out.shape, out.tobytes()


_wire_leaves = st.one_of(
    st.floats(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.none(),
    st.just("1"),
)
_wire_nests = st.recursive(_wire_leaves, lambda kids: st.lists(kids, max_size=3), max_leaves=16)


@st.composite
def _near_grids(draw):
    """A grid of pairs (1 to 3 axes) of lists, one node of which may be
    replaced."""
    shape = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)) + [2]
    numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)
    size = int(np.prod(shape))
    doc = np.array(draw(st.lists(numbers, min_size=size, max_size=size)), dtype=object).reshape(shape).tolist()
    if draw(st.booleans()):
        node = doc
        for _ in range(draw(st.integers(0, len(shape) - 1))):
            node = node[draw(st.integers(0, len(node) - 1))]
        node[draw(st.integers(0, len(node) - 1))] = draw(_wire_leaves | _wire_nests)
    return doc


class TestJsonWireFormat:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_near_grids(), _wire_nests), st.sampled_from([1, 2]))
    def test_decodes_like_object_array(self, doc, ndim):
        decode = vector_from_json if ndim == 1 else matrix_from_json
        expected = _decode_outcome(_object_array_decode, doc, ndim, "probe")
        assert _decode_outcome(decode, doc, "probe") == expected

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_allclose(matrix_from_json(matrix_to_json(a)), a, atol=0)

    def test_vector_round_trip(self):
        v = np.array([1.0, -2.5j, 0.25 + 0.5j])
        assert_allclose(vector_from_json(vector_to_json(v)), v, atol=0)

    def test_bad_pair_rejected(self):
        with pytest.raises(FormatError):
            vector_from_json([[1.0, 0.0], [1.0]])

    def test_bool_entries_rejected(self):
        with pytest.raises(FormatError):
            vector_from_json([[True, 0.0]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(FormatError):
            matrix_from_json([[[1, 0], [0, 0]], [[0, 0]]])

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            vector_from_json([[np.inf, 0.0]])

    def test_bool_inside_numeric_matrix_rejected(self):
        # np.array would read this as floats; a JSON boolean is not a number.
        with pytest.raises(FormatError):
            matrix_from_json([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, True]]])

    def test_non_numbers_rejected(self):
        for bad in ([["1", 0.0]], [[None, 0.0]], [[[1.0, 0.0], 0.0]], [], "pairs"):
            with pytest.raises(FormatError):
                vector_from_json(bad)

    def test_integer_too_large_for_float_rejected(self):
        with pytest.raises(FormatError):
            matrix_from_json([[[10**400, 0]]])
        with pytest.raises(FormatError):
            vector_from_json([[0, -(10**400)]])

    @pytest.mark.parametrize(
        "decode, doc, expected",
        [
            (vector_from_json, [], "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, [[]], "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, [[1.0, 0.0], [1.0]], "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, [[1.0, 0.0, 2.0]], "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, [[[1.0, 0.0]]], "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, "pairs", "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, [1.0, 0.0], "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, {"a": 1}, "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, [[[1, 0], [0, 0]]], "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, [[[1, 0], [0]]], "expected numbers in [re, im] pairs, got list"),
            (vector_from_json, [[1, [2]], [3, 4]], "expected numbers in [re, im] pairs, got list"),
            (vector_from_json, ((1.0, 0.0), (0.0, -2.5)), "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (vector_from_json, np.array([[1.0, 0.0]]), "expected a non-empty, non-ragged vector of [re, im] pairs"),
            (matrix_from_json, [], "expected a non-empty, non-ragged matrix of [re, im] pairs"),
            (matrix_from_json, [[]], "expected a non-empty, non-ragged matrix of [re, im] pairs"),
            (matrix_from_json, [[1.0, 0.0]], "expected a non-empty, non-ragged matrix of [re, im] pairs"),
            (matrix_from_json, [[[1.0, 0.0]], [1.0, 0.0]], "expected a non-empty, non-ragged matrix of [re, im] pairs"),
            (matrix_from_json, [[[1.0, 0.0]], []], "expected a non-empty, non-ragged matrix of [re, im] pairs"),
            (matrix_from_json, [[[1, 0], [0, 0]], [[0, 0]]], "expected a non-empty, non-ragged matrix of [re, im] pairs"),
            (matrix_from_json, [[[1.0, 0.0, 0.0]]], "expected a non-empty, non-ragged matrix of [re, im] pairs"),
        ],
    )
    def test_decoder_edge_cases(self, decode, doc, expected):
        # Each case pins the exact outcome: the decoded entries, or the
        # message with its location prefix.
        if isinstance(expected, str):
            with pytest.raises(FormatError) as info:
                decode(doc, where="probe")
            assert str(info.value) == f"probe: {expected}"
        else:
            decoded = decode(doc, where="probe")
            assert decoded.dtype == np.complex128
            assert decoded.shape == expected.shape
            assert decoded.tobytes() == expected.tobytes()

    def test_decoding_is_bit_exact(self):
        a = np.array([[-0.0 + 0.0j, 1e-310 - 0.0j], [0.1 + 3.0j, -(2.0**-1074) + 1e300j]])
        for decoded in (matrix_from_json(matrix_to_json(a)), vector_from_json(vector_to_json(a))):
            assert decoded.dtype == np.complex128
            assert decoded.reshape(-1).tobytes() == a.reshape(-1).tobytes()


class TestKronAll:
    def test_vectors(self):
        a = np.array([1.0, 2.0])
        b = np.array([0.0, 1.0j, 3.0])
        assert_allclose(kron_all([a, b, a]), np.kron(np.kron(a, b), a), atol=0)

    def test_vector_cap(self, monkeypatch):
        monkeypatch.setenv("QSN_MAX_DIM", "8")
        with pytest.raises(DimensionLimitError):
            kron_all([np.ones(3), np.ones(3)])

    def test_mixed_ranks_rejected(self):
        with pytest.raises(ValueError, match=r"^factor 0 must be a vector, got shape \(2, 2\)$"):
            kron_all([identity(2), np.ones(2)])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty vector list"):
            kron_all([])

    def test_require_hermitian_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"operator must be a square matrix, got shape \(2, 3\)"):
            require_hermitian(np.ones((2, 3)))


class TestDimensionCapSetting:
    @pytest.mark.parametrize("value", ["abc", "-5", "0"])
    def test_bad_setting_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("QSN_MAX_DIM", value)
        with pytest.raises(ValueError, match="QSN_MAX_DIM must be a positive integer"):
            config.max_dim()


class TestDimensionPastPrinting:
    """A dimension with more digits than Python converts to a string is
    refused at the cap, by a message that stays short."""

    def test_huge_factor_names_the_cap(self):
        with pytest.raises(DimensionLimitError, match=r"^dimension at least 2\*\*63 exceeds the cap 4096 \(QSN_MAX_DIM\)$"):
            check_dim([10**5000])

    def test_product_stops_at_the_cap(self):
        with pytest.raises(DimensionLimitError, match=r"^dimension at least 8192 exceeds the cap 4096 "):
            check_dim([2] * 20000)
        with pytest.raises(DimensionLimitError, match=r"^dimension 8192 exceeds the cap 4096 "):
            check_dim([2] * 13)
        assert check_dim([2] * 12) == 4096
        assert check_dim([]) == 1

    def test_long_layout_is_refused_at_the_cap(self):
        with pytest.raises(DimensionLimitError, match="exceeds the cap 4096"):
            PureState([1, 0], (2,) * 20000)

    @pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["positive", "negative"])
    def test_huge_int_is_named_by_its_size(self, value):
        with pytest.raises(ValueError, match=r"^n must be .*, got (an|a negative) integer of 16610 bits$"):
            config.check_int(value, "n")


class TestLayoutLength:
    """Entries of dimension 1 take no array axis, so a layout may be longer
    than the 64 axes a numpy array has. Each reduced state equals, bit for
    bit, the one from the same state with its 1-entries dropped."""

    @staticmethod
    def _check_marginals(state, short):
        # Three entries above 1 among the 1-entries: (2, 3, 2) in order.
        big = [i for i, d in enumerate(state.layout) if d > 1]
        # Some 1-entries are discarded and some kept beside the entry left.
        ones = [i for i in range(0, len(state.layout), 3) if state.layout[i] == 1]
        for r in range(len(big)):
            got = partial_trace(state, big[:r] + big[r + 1 :] + ones)
            want = partial_trace(short, [k for k in range(len(big)) if k != r])
            assert tuple(d for d in got.layout if d > 1) == want.layout
            np.testing.assert_array_equal(got.matrix, want.matrix)
            np.testing.assert_array_equal(sensor_marginal(state, big[r]).matrix, want.matrix)
        for kept in ([0, 2], [1, 2]):
            got = partial_trace(state, [big[k] for k in range(len(big)) if k not in kept])
            want = partial_trace(short, [k for k in range(len(big)) if k not in kept])
            assert tuple(d for d in got.layout if d > 1) == want.layout
            np.testing.assert_array_equal(got.matrix, want.matrix)
        one = sensor_marginal(state, big[0] + 1)
        assert one.layout == (1,)
        assert_allclose(one.matrix, [[1.0]], atol=1e-12)

    @staticmethod
    def _layout(length: int) -> tuple[int, ...]:
        dims = [1] * length
        dims[1], dims[length // 2], dims[-1] = 2, 3, 2
        return tuple(dims)

    def test_pure_state_limit(self):
        amps = haar_state(12, (2, 3, 2), np.random.default_rng(3)).amplitudes
        psi = PureState(amps, self._layout(65))
        self._check_marginals(psi, PureState(amps, (2, 3, 2)))

    def test_density_operator_limit(self):
        mat = random_density(12, (2, 3, 2), np.random.default_rng(4)).matrix
        rho = DensityOperator(mat, self._layout(33))
        self._check_marginals(rho, DensityOperator(mat, (2, 3, 2)))


class TestSpectrum:
    def test_kept_read_only_and_consistent(self):
        rho = random_density(6, (2, 3), np.random.default_rng(5))
        p, v = rho.spectrum
        for part in (p, v):
            with pytest.raises(ValueError):
                part[0] = 0.0
        with pytest.raises(AttributeError):
            rho.spectrum = (p, v)
        assert_allclose((v * p) @ v.conj().T, rho.matrix, atol=1e-12)
        assert_allclose(p, np.linalg.eigvalsh(rho.matrix), atol=1e-12)


def _ginibre_density(dim: int, rng) -> np.ndarray:
    """``G G^dag / tr`` from a square complex Ginibre ``G``, full rank, as
    the bench's ``qfim_mixed_mid`` draws its probes."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / rho.trace().real


@pytest.fixture
def zheevd_sizes(monkeypatch):
    """The order of each call of the bound ``zheevd``, in call order."""
    if hilbert._zheevd is None:
        pytest.skip("numpy's LAPACK does not export scipy_LAPACKE_zheevd_work64_")
    sizes = []
    bound = hilbert._zheevd

    def counted(*args):
        sizes.append(args[3])
        return bound(*args)

    monkeypatch.setattr(hilbert, "_zheevd", counted)
    return sizes


class TestZheevd:
    """The density spectrum from the bound ``zheevd`` with blocked workspace."""

    def test_bit_identical_to_numpy_up_to_64(self, zheevd_sizes):
        # Every density a default audit draws is at most 27 x 27, and the
        # golden qfim probe mixed.json is 8 x 8.
        rng = np.random.default_rng(40)
        for n in range(1, 65):
            rho = DensityOperator(_ginibre_density(n, rng), (n,))
            p, v = rho.spectrum
            want_p, want_v = np.linalg.eigh(rho.matrix)
            assert p.tobytes() == want_p.tobytes() and v.tobytes() == want_v.tobytes(), n
            assert v.flags.c_contiguous and not v.flags.writeable and not p.flags.writeable
        assert zheevd_sizes == list(range(1, 65))

    def test_nine_qubits_agree_with_numpy(self, zheevd_sizes, monkeypatch):
        # D = 512, where the blocked back-transformation runs: the
        # eigenvalues match numpy's, the eigenvectors to roundoff.
        layout = (2,) * 9
        rho = DensityOperator(_ginibre_density(512, np.random.default_rng(512)), layout)
        assert zheevd_sizes == [512]
        p, v = rho.spectrum
        assert p.tobytes() == np.linalg.eigh(rho.matrix)[0].tobytes()
        assert v.flags.c_contiguous
        eps = np.finfo(float).eps
        assert np.abs(rho.matrix @ v - v * p).max() <= 16 * eps * p[-1]
        assert np.abs(v.conj().T @ v - np.eye(512)).max() <= 64 * eps
        net = SensorNetwork((SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0])),) * 9)
        fast = qfim_mixed(rho, net).matrix
        monkeypatch.setattr(hilbert, "_zheevd", None)
        slow = qfim_mixed(DensityOperator(rho.matrix, layout), net).matrix
        assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()

    def test_unbound_runs_numpy(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_zheevd", None)
        rho = DensityOperator(_ginibre_density(512, np.random.default_rng(512)), (2,) * 9)
        p, v = rho.spectrum
        want_p, want_v = np.linalg.eigh(rho.matrix)
        assert p.tobytes() == want_p.tobytes() and v.tobytes() == want_v.tobytes()

    def test_real_input_runs_numpy(self, zheevd_sizes):
        mat = np.diag([2.0, 1.0, 3.0])
        p, v = hilbert.psd_spectrum(mat, "matrix", 0.0)
        assert zheevd_sizes == []
        assert p.tolist() == [1.0, 2.0, 3.0] and not v.flags.writeable

    def test_non_square_refused_before_lapack(self, zheevd_sizes):
        with pytest.raises(ValueError, match=r"matrix must be a square matrix, got shape \(2, 3\)"):
            hilbert.psd_spectrum(np.zeros((2, 3), dtype=complex), "matrix", 0.0)
        assert zheevd_sizes == []

    def test_nonzero_info_raises(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_zheevd", lambda *args: 1)
        with pytest.raises(np.linalg.LinAlgError, match=r"did not converge \(zheevd info 1\)"):
            DensityOperator(np.diag([0.5, 0.5]), (2,))


class TestNonFiniteEntries:
    @pytest.mark.parametrize(
        "bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf)]
    )
    def test_real_and_imaginary_parts_rejected_alike(self, bad):
        mat = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="operator contains non-finite entries"):
            require_hermitian(mat)
        with pytest.raises(ValueError, match="amplitudes contains non-finite entries"):
            PureState(np.array([bad, 1.0]), (2,))


class TestApplyLocal:
    @settings(max_examples=60, deadline=None)
    @given(layouts, st.data(), seeds)
    def test_bit_identical_to_tensordot(self, dims, data, seed):
        # Reference: the tensordot form it replaced, one dot on the same
        # transposed copy, so the arithmetic is unchanged.
        site = data.draw(st.integers(min_value=0, max_value=len(dims) - 1))
        rng = np.random.default_rng(seed)
        tensor = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        op = rng.standard_normal((dims[site],) * 2) + 1j * rng.standard_normal((dims[site],) * 2)
        want = np.moveaxis(np.tensordot(op, tensor, (1, site)), 0, site)
        got = apply_local(op, site, tensor.reshape(-1), dims)
        assert got.shape == (prod(dims[:site]), dims[site], prod(dims[site + 1 :]))
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(layouts, st.data(), seeds)
    def test_density_columns_trail(self, dims, data, seed):
        # A density's columns are the trailing entries: the operator acts on
        # its rows, as the dense embedding multiplies from the left.
        site = data.draw(st.integers(min_value=0, max_value=len(dims) - 1))
        rng = np.random.default_rng(seed)
        rho = random_density(prod(dims), dims, rng).matrix
        op = rng.standard_normal((dims[site],) * 2) + 1j * rng.standard_normal((dims[site],) * 2)
        got = apply_local(op, site, rho, dims)
        assert got.shape == (prod(dims[:site]), dims[site], prod(dims[site + 1 :]) * len(rho))
        assert_allclose(got.reshape(rho.shape), embed_local(op, site, dims) @ rho, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("site", [0, 35, 70])
    def test_layout_past_numpy_axes(self, site):
        # 70 one-dimensional sensors and a qubit: 71 entries, more than the
        # 64 axes a numpy array has, read through one three-axis view.
        dims = (1,) * 70 + (2,)
        op = SIGMA_X if site == 70 else np.array([[2.0 - 1.0j]])
        x = np.array([0.6, 0.8j])
        got = apply_local(op, site, x, dims)
        assert got.shape == (1, dims[site], 2 // dims[site])
        assert_allclose(got.reshape(-1), embed_local(op, site, dims) @ x, rtol=0, atol=0)
