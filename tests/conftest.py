"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import strategies as st

from qsnet import SensorNetwork, SensorSpec
from qsnet.hilbert import SIGMA_Z, kron_all

# Random sensor layouts for the dense oracle tests: 1 to 4 sensors, each of
# dimension 1 to 4.
layouts = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two matrices or two vectors: the two-factor
    case of ``kron_all``, which checks the dimension cap and finiteness."""
    return kron_all([a, b])


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / (2.0 * np.sqrt(dim))


def random_network(dims, rng: np.random.Generator) -> SensorNetwork:
    """Sensors of the given dimensions with zero to two random (generally
    non-commuting) generators each, the first sensor carrying at least one,
    and random Hermitian resource operators."""
    sensors = []
    for k, d in enumerate(dims):
        n_gens = int(rng.integers(1 if k == 0 else 0, 3))
        gens = tuple(random_hermitian(d, rng) for _ in range(n_gens))
        sensors.append(SensorSpec(d, gens, random_hermitian(d, rng)))
    return SensorNetwork(tuple(sensors))


def two_qubit_z_network() -> SensorNetwork:
    """Two single-qubit sensors, generator sigma_z/2, excitation counting."""
    sensor = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
    return SensorNetwork((sensor, sensor))


def bell_state() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
