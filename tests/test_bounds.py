"""Closed-form variance bounds and the norm machinery behind them."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import NOT_FINITE_POSITIVE, oracle_qfim_pure, sign_patterns
from qsnet import (
    QFIM,
    LinearFunctional,
    compare,
    enhancement_ratio,
    ghz_bound,
    ghz_probe,
    optimal_separable_probe,
    pnorm,
    qcrb,
    separable_bound,
)
from qsnet.bounds import unit_vector
from qsnet.scenarios import qubit_ensemble_family


def _uniform(d: int) -> np.ndarray:
    return np.ones(d) / np.sqrt(d)


class TestPnorm:
    def test_single_direction(self):
        for p in (0.5, 2.0 / 3.0, 1.0, 2.0):
            assert pnorm([1.0, 0.0], p) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_one_norm(self):
        assert pnorm(_uniform(4), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_ratio_is_one_over_d(self):
        for d in (2, 3, 4, 7):
            v = _uniform(d)
            ratio = pnorm(v, 1.0) ** 2 / pnorm(v, 2.0 / 3.0) ** 2
            assert ratio == pytest.approx(1.0 / d, rel=1e-12)

    def test_tiny_entries_dropped(self):
        assert pnorm([1.0, 1e-310], 2.0 / 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_all_entries_below_cut_give_zero(self):
        assert pnorm([1e-301, 0.0, -1e-310], 2.0 / 3.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pnorm([], 1.0)
        with pytest.raises(ValueError):
            pnorm([1.0], 0.0)

    @pytest.mark.parametrize("p", NOT_FINITE_POSITIVE)
    def test_exponent_is_a_finite_positive_number(self, p):
        with pytest.raises(ValueError, match="p must be a finite positive number"):
            pnorm([3.0, 4.0], p)


class TestClosedFormBounds:
    def test_single_sensor_heisenberg(self):
        f = LinearFunctional(np.array([1.0, 0.0]), 1.0, 4, 1)
        assert separable_bound(f) == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert ghz_bound(f) == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert enhancement_ratio(f) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_two_sensor_frozen(self):
        f = LinearFunctional(_uniform(2), 1.0, 2, 1)
        # ||v||_{2/3}^2 = (2 (1/sqrt 2)^{2/3})^3 = 4, over (kappa N)^2 = 4.
        assert separable_bound(f) == pytest.approx(1.0, rel=1e-12)
        assert pnorm(f.v, 2.0 / 3.0) ** 2 >= pnorm(f.v, 1.0) ** 3

    def test_uniform_four_sensor_ghz_frozen(self):
        f = LinearFunctional(_uniform(4), 1.0, 4, 1)
        assert ghz_bound(f) == pytest.approx(0.25, rel=1e-12)

    def test_enhancement_ratios_frozen(self):
        assert enhancement_ratio(LinearFunctional(_uniform(3), 1.0, 3, 1)) == pytest.approx(
            3.0, rel=1e-12
        )
        assert enhancement_ratio(LinearFunctional(_uniform(2), 1.0, 2, 1)) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_repeats_scale_out(self):
        f1 = LinearFunctional(_uniform(3), 2.0, 6, 1)
        f10 = LinearFunctional(_uniform(3), 2.0, 6, 10)
        assert separable_bound(f10) == pytest.approx(separable_bound(f1) / 10.0, rel=1e-12)
        assert ghz_bound(f10) == pytest.approx(ghz_bound(f1) / 10.0, rel=1e-12)

    def test_state_level_cross_validation(self):
        # The closed form must agree with the constructed-probe route:
        # weigh the GHZ information matrix by v v^T, inverted on its support.
        fam = qubit_ensemble_family()
        for d in (2, 3):
            v = _uniform(d)
            f = LinearFunctional(v, fam.kappa, d, 1)
            state, net = ghz_probe(v, d, fam)
            fim = QFIM(oracle_qfim_pure(state, net), net.partition)
            state_level = qcrb(fim, np.outer(v, v), 1).bound
            assert state_level == pytest.approx(ghz_bound(f), abs=1e-9)

    def test_ghz_allocation_flags(self):
        integral = LinearFunctional(_uniform(2), 1.0, 2, 1)
        assert list(integral.ghz_allocation()) == [1, 1]
        assert compare(integral).ghz_constructible
        lopsided = LinearFunctional(np.array([2.0, 1.0]) / np.sqrt(5.0), 1.0, 2, 1)
        with pytest.raises(ValueError, match="sensor 0"):
            lopsided.ghz_allocation()
        assert not compare(lopsided).ghz_constructible
        # The analytic value is still reported.
        assert ghz_bound(lopsided) > 0.0

    @pytest.mark.parametrize(
        "v, n, constructible",
        [
            ([0.44721359576828607, 0.8944271908657518], 6, False),
            ([0.29814239716597474, 0.5962847939675532, 0.7453559924594415], 11, True),
        ],
    )
    def test_ghz_probe_builds_exactly_when_constructible(self, v, n, constructible):
        # Allocations within rounding of the 1e-9 integrality edge: the
        # comparison flag and the probe constructor follow one rule.
        fam = qubit_ensemble_family()
        assert compare(LinearFunctional(v, fam.kappa, n)).ghz_constructible is constructible
        if constructible:
            _, net = ghz_probe(v, n, fam)
            assert sum(d - 1 for d in net.dims) == n
        else:
            with pytest.raises(ValueError, match="not integral"):
                ghz_probe(v, n, fam)


class TestSeparableAllocation:
    def test_probe_allocates_by_the_functional(self):
        fam = qubit_ensemble_family()
        v = np.array([0.3, 1.0, 0.6])
        v /= np.linalg.norm(v)
        w = LinearFunctional(-v, fam.kappa, 7).separable_allocation()
        assert np.array_equal(w, [2, 3, 2])
        _, net, probe_w = optimal_separable_probe(v, 7, fam)
        assert np.array_equal(probe_w, w)
        assert net.dims == (3, 4, 3)

    def test_budget_below_weighted_sensors_rejected(self):
        f = LinearFunctional(np.ones(3) / np.sqrt(3), 1.0, 2)
        with pytest.raises(ValueError, match="budget too small: some weighted sensor would get no particles"):
            f.separable_allocation()


def _per_particle_greedy(v: np.ndarray, n: int) -> np.ndarray:
    """The allocation oracle: one particle per weighted sensor, then each
    further particle, one at a time, to the sensor whose cost drops most
    (drops within 1e-12 relative of the largest tie; ties go to the highest
    index)."""
    w = (np.abs(v) > 1e-300).astype(int)
    sq = v**2
    for _ in range(n - int(w.sum())):
        drop = np.where(w > 0, sq * (2.0 * w + 1.0) / np.maximum(w * (w + 1.0), 1.0) ** 2, -np.inf)
        w[np.nonzero(drop >= drop.max() * (1.0 - 1e-12))[0][-1]] += 1
    return w


# Coefficients spanning many decades, exact repeats, signs, zeros and
# entries below the 1e-300 cut.
_coefficients = st.one_of(
    st.floats(-1.0, 1.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-14, 0)),
    st.sampled_from([0.0, 1e-301, 1e-13, -0.5, 0.5, 1.0]),
)


class TestAllocationStart:
    """The greedy starts near the continuous optimum, not at one particle
    per sensor, and still returns the per-particle greedy's allocation."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_coefficients, min_size=1, max_size=8), st.integers(1, 5000))
    # A dominant sensor among small ones: its optimal count lies two below
    # floor(N a_k / sum(a)), so a start one below that would overshoot.
    @example([-2.32617752e-03, -9.97629629e-01, 5.12820963e-03, 2.25263353e-03,
              -8.86307939e-04, 3.18099564e-03, -6.84647674e-02, -1.04029210e-04], 3133)
    # Small sensors that each need their one particle: a start from the
    # unconstrained optimum overshoots the dominant sensor.
    @example([9.45576738e-06, -1.16159226e-01, 9.93230603e-01, 2.93091534e-08, 5.70885576e-05], 19)
    def test_matches_per_particle_greedy(self, entries, n):
        v = np.array(entries, dtype=float)
        assume(np.any(v != 0.0))
        v /= np.abs(v).max()
        v /= np.linalg.norm(v)
        assume(n >= int(np.sum(np.abs(v) > 1e-300)))
        f = LinearFunctional(v, 1.0, n)
        assert np.array_equal(f.separable_allocation(), _per_particle_greedy(f.v, n))

    def test_large_budget_allocates_at_once(self):
        # N = 1e9 is out of the per-particle loop's reach, so the result is
        # certified instead: moving any one particle between weighted
        # sensors does not lower the cost sum v_k^2 / w_k^2.
        v = np.array([1.0, 2.0, 3.0, 1e-13])
        v /= np.linalg.norm(v)
        w = LinearFunctional(v, 1.0, 10**9).separable_allocation().astype(float)
        assert w.sum() == 10**9 and w[3] == 1
        gained = v**2 * (2 * w + 1) / (w * (w + 1)) ** 2
        big = w > 1
        lost = v[big] ** 2 * (2 * w[big] - 1) / (w[big] * (w[big] - 1)) ** 2
        assert gained.max() <= lost.min() * (1 + 1e-9)


class TestFunctionalValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            LinearFunctional(np.array([1.0, 1.0]), 1.0, 2, 1)

    def test_signed_entries_accepted(self):
        f = LinearFunctional(np.array([-0.6, 0.8]), 1.0, 2, 1)
        assert f.v.tolist() == [-0.6, 0.8]

    def test_positive_kappa_and_counts(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            LinearFunctional(v, 0.0, 2, 1)
        with pytest.raises(ValueError):
            LinearFunctional(v, 1.0, 0, 1)
        with pytest.raises(ValueError):
            LinearFunctional(v, 1.0, 2, 0)

    @pytest.mark.parametrize("kappa", NOT_FINITE_POSITIVE)
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            LinearFunctional(np.array([1.0, 0.0]), kappa, 2, 1)

    @pytest.mark.parametrize("kappa", [np.float64(1e-8), 1])
    def test_real_kappa_stored_as_float(self, kappa):
        assert type(LinearFunctional(np.array([1.0, 0.0]), kappa, 2, 1).kappa) is float

    @pytest.mark.parametrize(
        "kappa, n, mu",
        [(1e-200, 2, 1), (1e200, 2, 1), (1e-160, 2, 1), (1e150, 2**62, 1)],
        ids=["denominator-underflows", "denominator-overflows", "bound-overflows", "huge-budget"],
    )
    def test_bounds_past_the_float_range_rejected(self, kappa, n, mu):
        with pytest.raises(ValueError, match=r"^kappa = .* puts a bound past the float range$"):
            LinearFunctional(np.array([0.6, 0.8]), kappa, n, mu)

    def test_bounds_near_the_float_range_kept(self):
        # mu N^2 kappa^2 = 1e-300 and 1e300 (kappa alone squares past the range
        # in the first): both bounds stay finite and positive.
        for kappa, n in ((1e-160, 10**10), (1e140, 10**10)):
            f = LinearFunctional(np.array([0.6, 0.8]), kappa, n, 1)
            assert 0.0 < ghz_bound(f) <= separable_bound(f) < np.inf

    @pytest.mark.parametrize("field", ["n_particles", "repeats"])
    def test_counts_past_int64_rejected(self, field):
        counts = {"n_particles": 2, "repeats": 1}
        LinearFunctional(np.array([0.6, 0.8]), 1e-9, **{**counts, field: 2**63 - 1})
        with pytest.raises(ValueError, match=r"must be at most 2\*\*63 - 1, got 9223372036854775808$"):
            LinearFunctional(np.array([0.6, 0.8]), 1.0, **{**counts, field: 2**63})

    def test_separable_allocation_refuses_inexact_budget(self):
        # One budget rule for both allocations. At 2**53 + 1 the float GHZ
        # counts of two equal weights read integral and summed to N - 1.
        for allocation in ("separable_allocation", "ghz_allocation"):
            for n in (2**53 + 1, 2**63 - 1):
                with pytest.raises(ValueError, match=r"past 2\*\*53"):
                    getattr(LinearFunctional(np.ones(2) / np.sqrt(2), 1.0, n), allocation)()
            assert getattr(LinearFunctional(np.ones(2) / np.sqrt(2), 1.0, 2**53), allocation)().sum() == 2**53


class TestSignedFunctional:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bounds_and_allocation_depend_on_magnitudes(self, d):
        # Integer magnitudes (1, 2, 3, 1, 2) keep the GHZ allocation integral
        # at N = their sum; mu = 3 and kappa = 0.5 exercise the denominator.
        counts = np.array([1.0, 2.0, 3.0, 1.0, 2.0][:d])
        magnitudes = counts / np.linalg.norm(counts)
        n = int(counts.sum())
        unsigned = LinearFunctional(magnitudes, 0.5, n, 3)
        for signs in sign_patterns(d):
            signed = LinearFunctional(signs * magnitudes, 0.5, n, 3)
            assert separable_bound(signed) == separable_bound(unsigned)
            assert ghz_bound(signed) == ghz_bound(unsigned)
            assert enhancement_ratio(signed) == enhancement_ratio(unsigned)
            assert np.array_equal(signed.ghz_allocation(), counts.astype(int))
            assert compare(signed) == compare(unsigned)


class TestNormChain:
    def test_seeded_sweep(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            raw = rng.uniform(0.0, 1.0, d)
            if not np.any(raw > 0):
                continue
            v = raw / np.linalg.norm(raw)
            two_thirds_sq = pnorm(v, 2.0 / 3.0) ** 2
            one_cubed = pnorm(v, 1.0) ** 3
            one_sq = pnorm(v, 1.0) ** 2
            assert two_thirds_sq >= one_cubed * (1.0 - 1e-12)
            assert one_cubed >= one_sq * (1.0 - 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8).filter(
            lambda xs: sum(xs) > 1e-6
        )
    )
    def test_chain_property(self, raw):
        v = np.asarray(raw) / np.linalg.norm(raw)
        two_thirds_sq = pnorm(v, 2.0 / 3.0) ** 2
        one_cubed = pnorm(v, 1.0) ** 3
        one_sq = pnorm(v, 1.0) ** 2
        assert two_thirds_sq >= one_cubed * (1.0 - 1e-12)
        assert one_cubed >= one_sq * (1.0 - 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8)
    )
    def test_ratio_range_property(self, raw):
        v = np.asarray(raw) / np.linalg.norm(raw)
        f = LinearFunctional(v, 1.0, max(1, len(raw)), 1)
        ratio = enhancement_ratio(f)
        assert 1.0 - 1e-12 <= ratio <= len(raw) + 1e-9
        assert ghz_bound(f) <= separable_bound(f) + 1e-12


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_unit_vector_rejects(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            unit_vector([bad, 1.0], "coefficient vector")
        with pytest.raises(ValueError, match="non-finite"):
            separable_bound(LinearFunctional([bad, 1.0], 1.0, 2))

    def test_coefficients_must_be_one_dimensional(self):
        # A (2, 2) array is not read as the 4-vector of its entries.
        with pytest.raises(ValueError, match=r"coefficient vector must be a 1-D vector, got shape \(2, 2\)"):
            LinearFunctional(np.eye(2) / np.sqrt(2), 1.0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pnorm_rejects(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            pnorm([bad, 1.0], 1.0)
        with pytest.raises(ValueError):
            pnorm([1.0], np.nan)


class TestIntegerCounts:
    @pytest.mark.parametrize("field", ["n_particles", "repeats"])
    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2"])
    def test_non_integer_rejected(self, field, bad):
        counts = {"n_particles": 2, "repeats": 1, field: bad}
        with pytest.raises(ValueError, match="integer"):
            LinearFunctional(np.array([1.0, 0.0]), 1.0, **counts)

    def test_numpy_integers_accepted(self):
        f = LinearFunctional(np.array([1.0, 0.0]), 1.0, np.int64(3), np.int32(2))
        assert (f.n_particles, f.repeats) == (3, 2)
        assert type(f.n_particles) is int and type(f.repeats) is int
