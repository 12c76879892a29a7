"""Seeded ensembles: distributions built without oversized intermediates."""

import numpy as np

from qsnet.hilbert import partial_trace
from qsnet.sampling import haar_state, random_density


def test_random_density_is_partial_trace_of_haar_state():
    rho = random_density(5, (5,), np.random.default_rng(3))
    joint = haar_state(25, (5, 5), np.random.default_rng(3))
    assert np.array_equal(rho.matrix, partial_trace(joint, {1}).matrix)


def test_random_density_beyond_square_root_of_cap():
    # The joint state would have 128 * 128 > 4096 levels; only rho counts.
    rho = random_density(128, (128,), np.random.default_rng(0))
    assert rho.spectrum[0][0] > 0.0
    assert np.linalg.matrix_rank(rho.matrix, hermitian=True) == 128
