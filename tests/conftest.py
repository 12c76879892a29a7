"""Shared helpers for the test suite, and the dense textbook oracle for the
Fisher-information code.

The oracle builds every generator on the full network space with
``np.kron`` and evaluates the textbook formulas on those matrices. It reads
only the rank-cutoff constants and the classical probability floor from
``qsnet.config`` and shares no code with ``qsnet.fisher``.
"""

import itertools
import os
import subprocess
import sys
from collections import Counter
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from qsnet import DensityOperator, SensorNetwork, SensorSpec, config
from qsnet.hilbert import SIGMA_Y, SIGMA_Z
from qsnet.sampling import haar_unitary

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh process that imports qsnet from this
    checkout's sources, with stdout and stderr piped and read as text."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def profiled_calls(run):
    """``run()`` under ``sys.setprofile``: its result and a ``Counter`` of the
    code object of every Python function call it made (each generator resume
    counts as a call)."""
    codes = []
    add = codes.append

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, Counter(codes)


# Random sensor layouts for the dense oracle tests: 1 to 4 sensors, each of
# dimension 1 to 4.
layouts = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

# Inputs that a finite-positive-number field (``config.check_positive``)
# refuses, covering non-finite, ill-typed, oversized and non-positive values.
NOT_FINITE_POSITIVE = [
    pytest.param(value, id=name)
    for name, value in [
        ("inf", np.inf),
        ("nan", np.nan),
        ("bool", True),
        ("str", "1e-9"),
        ("huge_int", 10**400),
        ("None", None),
        ("zero", 0.0),
        ("negative", -1.0),
    ]
]


def _with_first_entry(value):
    def spoil(a):
        out = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
        out.flat[0] = value
        return out

    return spoil


# Turn a valid array input into one that ``config.check_array`` refuses:
# ill-typed entries or a non-finite one. Each maps the valid array to the bad one.
NOT_NUMERIC_ARRAY = [
    pytest.param(spoil, id=name)
    for name, spoil in [
        ("bool", lambda a: np.ones(np.shape(a), dtype=bool)),
        ("str", lambda a: np.asarray(a).astype(str)),
        ("None", lambda a: None),
        ("object", lambda a: np.asarray(a).astype(object)),
        ("complex", lambda a: np.asarray(a) * (1.0 + 1.0j)),
        ("nan", _with_first_entry(np.nan)),
        ("inf", _with_first_entry(np.inf)),
    ]
]
# The same, for an input that is complex: there a complex array is valid.
NOT_NUMERIC_COMPLEX_ARRAY = [p for p in NOT_NUMERIC_ARRAY if p.id != "complex"]


def identity(dim: int) -> np.ndarray:
    """The complex ``dim`` x ``dim`` identity matrix."""
    return np.eye(dim, dtype=complex)


def sign_patterns(d: int) -> list[np.ndarray]:
    """Every sign vector of length ``d`` with at least one negative entry."""
    return [np.array(s) for s in itertools.product((1.0, -1.0), repeat=d) if min(s) < 0.0]


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


def commuting_network(dims, rng: np.random.Generator) -> SensorNetwork:
    """Sensors whose zero to two generators share one Haar-random
    eigenbasis, the first sensor carrying at least one."""
    sensors = []
    for k, d in enumerate(dims):
        basis = haar_unitary(d, rng)
        n_gens = int(rng.integers(1 if k == 0 else 0, 3))
        raw = [(basis * rng.uniform(-1.0, 1.0, d)) @ basis.conj().T for _ in range(n_gens)]
        gens = tuple((g + g.conj().T) / 2 for g in raw)
        sensors.append(SensorSpec(d, gens, random_hermitian(d, rng)))
    return SensorNetwork(tuple(sensors))


def two_qubit_z_network() -> SensorNetwork:
    """Two single-qubit sensors, generator sigma_z/2, excitation counting."""
    sensor = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
    return SensorNetwork((sensor, sensor))


def bell_state() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def density(psi) -> DensityOperator:
    """The pure state ``psi`` as the density operator ``|psi><psi|``."""
    return DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.layout)


# --- dense textbook oracle -----------------------------------------------------


def dense_generators(net: SensorNetwork) -> list[np.ndarray]:
    """Each parameter's generator on the full space, ``I (x) H (x) I``, in
    global parameter order."""
    gens = []
    for site, sensor in enumerate(net.sensors):
        before = np.eye(prod(net.dims[:site]))
        after = np.eye(prod(net.dims[site + 1 :]))
        gens.extend(np.kron(np.kron(before, g), after) for g in sensor.generators)
    return gens


def oracle_qfim_pure(psi, net: SensorNetwork) -> np.ndarray:
    """``F_mn = 4 Re(<H_m H_n> - <H_m><H_n>)`` for the pure probe ``psi``.

    ``<H_m H_n>`` is taken as the overlap of ``H_m psi`` with ``H_n psi``,
    which equals it for Hermitian ``H_m``."""
    amps = psi.amplitudes
    applied = [g @ amps for g in dense_generators(net)]
    means = [np.vdot(amps, a) for a in applied]
    return np.array(
        [
            [4.0 * np.real(np.vdot(a, b) - means[m] * means[n]) for n, b in enumerate(applied)]
            for m, a in enumerate(applied)
        ]
    )


# Largest probe dimension for the least-squares SLDs: their linear system
# has D^2 x D^2 entries.
LSTSQ_MAX_DIM = 16


def oracle_slds(rho, net: SensorNetwork) -> list[np.ndarray]:
    """Symmetric logarithmic derivatives of the mixed probe ``rho``.

    Each ``L_k`` is the minimum-norm least-squares solution of
    ``(rho (x) I + I (x) rho^T) vec L = 2 vec(-i [H_k, rho])`` (row-major
    ``vec``), which is ``rho L + L rho = 2 d rho``. The operator's singular
    values are the sums ``p_i + p_j`` of the probe's eigenvalues; ``rcond``
    drops those at or below the library's rank cutoff.
    """
    mat = rho.matrix
    dim = mat.shape[0]
    assert dim <= LSTSQ_MAX_DIM, f"least-squares SLDs at D = {dim}"
    eye = np.eye(dim)
    top = float(np.linalg.norm(mat, 2))
    cutoff = max(config.RANK_TOL_FACTOR * top, config.RANK_TOL_FLOOR)
    rhs = np.stack([-2j * (g @ mat - mat @ g).reshape(-1) for g in dense_generators(net)], axis=1)
    system = np.kron(mat, eye) + np.kron(eye, mat.T)
    vecs = np.linalg.lstsq(system, rhs, rcond=cutoff / (2.0 * top))[0]
    return [vecs[:, k].reshape(dim, dim) for k in range(vecs.shape[1])]


def oracle_qfim_mixed(rho, net: SensorNetwork) -> np.ndarray:
    """``F_kl = Re Tr[rho L_k L_l]`` over the :func:`oracle_slds`, or the
    :func:`full_square_sld_qfim` above ``LSTSQ_MAX_DIM``."""
    if rho.matrix.shape[0] > LSTSQ_MAX_DIM:
        return full_square_sld_qfim(rho, net)
    slds = oracle_slds(rho, net)
    return np.array([[np.real(np.trace(rho.matrix @ a @ b)) for b in slds] for a in slds])


def full_square_sld_qfim(rho, net: SensorNetwork) -> np.ndarray:
    """``sum_ij 2 (p_i - p_j)^2 / (p_i + p_j) Re(h_k,ij conj h_l,ij)`` over
    every eigenvalue pair clearing the rank cutoff, with the dense
    generators rotated into the probe's eigenbasis. The oracle for
    dimensions too large for :func:`oracle_slds`."""
    p, v = np.linalg.eigh(rho.matrix)
    cutoff = max(config.RANK_TOL_FACTOR * p[-1], config.RANK_TOL_FLOOR)
    denom = p[:, None] + p[None, :]
    live = denom > cutoff
    weight = np.where(live, 2.0 * (p[:, None] - p[None, :]) ** 2 / np.where(live, denom, 1.0), 0.0)
    h = [v.conj().T @ g @ v for g in dense_generators(net)]
    return np.array([[np.sum(weight * np.real(a * b.conj())) for b in h] for a in h])


# Central-difference step of the classical-information oracle.
CFIM_ORACLE_STEP = 1e-5


def oracle_cfim(effects, net: SensorNetwork, probe, phi0) -> np.ndarray:
    """Classical Fisher information of the POVM ``effects`` on ``probe``
    encoded at ``phi0``: central differences of
    ``p_m(phi) = Tr[E_m U rho U^dag]``, with ``U = exp(-i sum_j phi_j H_j)``
    over the dense generators, built by its own ``eigh``. Outcomes below
    ``config.CFIM_PROB_FLOOR`` at ``phi0`` are skipped."""
    gens = dense_generators(net)
    if hasattr(probe, "matrix"):
        rho = probe.matrix
    else:
        rho = np.outer(probe.amplitudes, probe.amplitudes.conj())

    def probabilities(phi):
        w, v = np.linalg.eigh(sum(x * g for x, g in zip(phi, gens)))
        u = (v * np.exp(-1j * w)) @ v.conj().T
        evolved = u @ rho @ u.conj().T
        return np.array([np.real(np.trace(e @ evolved)) for e in effects])

    phi0 = np.asarray(phi0, dtype=float)
    h = CFIM_ORACLE_STEP
    p0 = probabilities(phi0)
    dp = np.array(
        [(probabilities(phi0 + h * e) - probabilities(phi0 - h * e)) / (2 * h) for e in np.eye(len(gens))]
    )
    kept = p0 >= config.CFIM_PROB_FLOOR
    return (dp[:, kept] / p0[kept]) @ dp[:, kept].T


def sigma_y_effects() -> list[np.ndarray]:
    """Projective measurement onto the sigma_y eigenbasis of one qubit."""
    w, v = np.linalg.eigh(np.asarray(SIGMA_Y))
    return [np.outer(v[:, i], v[:, i].conj()) for i in range(2)]


def random_povm(dim: int, n_effects: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random full-rank POVM: Ginibre positives normalized by the inverse
    square root of their sum."""
    raw = []
    for _ in range(n_effects):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return [inv_root @ a @ inv_root for a in raw]
