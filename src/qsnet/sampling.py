"""Seeded random ensembles used by the audits.

Haar-measure unitaries come from the phase-fixed QR decomposition of a
complex Ginibre matrix. Haar pure states are normalized complex Gaussian
vectors (the first column of such a unitary has exactly this
distribution). Random mixed states are partial traces of larger Haar pure
states, computed from the reshaped vector without building the larger
state, and random positive-definite matrices are shifted Wishart draws.
"""

from __future__ import annotations

import numpy as np

from .hilbert import DensityOperator, PureState

__all__ = [
    "trial_rng",
    "haar_unitary",
    "haar_state",
    "random_density",
    "random_spd",
]


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial of a seeded audit."""
    return np.random.default_rng([seed, index])


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(dim, rng))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _unit_gaussian(size: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return vec / np.linalg.norm(vec)


def haar_state(dim: int, layout, rng: np.random.Generator) -> PureState:
    return PureState(_unit_gaussian(dim, rng), layout)


def random_density(dim: int, layout, rng: np.random.Generator) -> DensityOperator:
    """Mixed state from tracing a ``dim``-level ancilla out of a Haar pure
    state on ``dim * dim`` levels; full rank almost surely.

    The pure state reshaped to ``dim x dim`` is a matrix ``M`` with
    ``rho = M M^dag``, so only ``rho`` itself counts against the cap.
    """
    mat = _unit_gaussian(dim * dim, rng).reshape(dim, dim)
    return DensityOperator(mat @ mat.conj().T, tuple(layout))


def random_spd(d: int, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned symmetric positive-definite matrix (Wishart plus
    ``0.1`` times the identity)."""
    g = rng.standard_normal((d, d))
    mat = g.T @ g / d + 0.1 * np.eye(d)
    return (mat + mat.T) / 2
