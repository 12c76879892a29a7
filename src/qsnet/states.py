"""Probe-state constructors.

Covers the states the toolkit reasons about: per-sensor joint eigenbases of
commuting generators, separable surrogates that reproduce a probe's
diagonal Fisher blocks, canonical purifications and sensor-local
purification probes on the doubled space, and the extremal probes for one
linear functional: products of extremal superpositions (the optimal
separable probe among them) and sensor-entangled GHZ-like probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable

import numpy as np

from . import config
from .bounds import LinearFunctional
from .exceptions import LayoutError, NoncommutingGeneratorsError
from .hilbert import (
    DensityOperator,
    PureState,
    _regroup,
    apply_local,
    kron_all,
    layout_ints,
    sensor_marginal,
)
from .network import SensorNetwork, SensorSpec

__all__ = [
    "SensorFamily",
    "joint_eigenbasis",
    "separable_surrogate",
    "purify",
    "local_purification_probe",
    "extremal_product",
    "ghz_probe",
    "optimal_separable_probe",
    "product_defect",
]


def _cluster(values: np.ndarray) -> list[np.ndarray]:
    """Group indices of ascending ``values`` whose gaps stay within 1e-6 * max(1, |values|)."""
    tol = 1e-6 * max(1.0, float(np.max(np.abs(values))))
    breaks = np.nonzero(np.diff(values) > tol)[0]
    return [np.asarray(g) for g in np.split(np.arange(values.size), breaks + 1)]


def _simultaneous_eigenbasis(mats: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    w, vectors = np.linalg.eigh(mats[0])
    # Clustering must be generous: eigenvectors attached to eigenvalues a
    # gap g apart mix by ~eps/g, so splitting anything closer than 1e-6
    # would freeze vectors too dirty for the 1e-9 residual contract.
    # Each cluster is a union of joint eigenspaces, invariant under every
    # generator. It is turned by the eigh of the generator farthest from
    # scalar on it (squared Frobenius norm of the traceless part), so a
    # generator scalar there cannot scramble a pair another one holds.
    work = [idx for idx in _cluster(w) if idx.size > 1]
    while work:
        idx = work.pop()
        sub = vectors[:, idx]
        blocks = [sub.conj().T @ mat @ sub for mat in mats]
        spread = [np.vdot(c, c).real - abs(np.trace(c)) ** 2 / idx.size for c in blocks]
        c = blocks[int(np.argmax(spread))]
        mu, u = np.linalg.eigh((c + c.conj().T) / 2)
        vectors[:, idx] = sub @ u
        # A cluster that does not split is final.
        work.extend(idx[g] for g in _cluster(mu) if 1 < g.size < idx.size)
    labels = np.empty((w.size, len(mats)))
    for j, mat in enumerate(mats):
        transformed = vectors.conj().T @ mat @ vectors
        labels[:, j] = np.real(np.diag(transformed))
        off = transformed - np.diag(np.diag(transformed))
        defect = float(np.max(np.abs(off)))
        gen_scale = max(1.0, float(np.max(np.abs(mat))))
        if defect > config.COMMUTE_TOL * gen_scale:
            raise NoncommutingGeneratorsError(
                f"generator {j} is not diagonal in the joint basis (defect {defect:.3e})"
            )
    return labels, vectors


def joint_eigenbasis(sensor: SensorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Joint eigenbasis ``(labels, vectors)`` of all of a sensor's generators.

    ``vectors`` holds orthonormal columns; ``labels[i, j]`` is the eigenvalue
    of generator ``j`` on column ``i``. It is the first generator's ``eigh``;
    each cluster of eigenvalues within 1e-6 relative is turned by the
    ``eigh`` of the generator farthest from scalar on it and split where
    that generator's eigenvalues split, until no cluster splits. So a
    generator that is scalar on a cluster cannot scramble a pair another
    generator holds, whatever the generator order; the basis is
    deterministic without a seed.

    This is the toolkit's one commutation rule: the generators commute when
    each one is diagonal in the returned basis, its largest off-diagonal
    entry there at most ``config.COMMUTE_TOL * max(1, max|G|)``. Otherwise
    :class:`NoncommutingGeneratorsError` is raised, which signals the caller
    to switch to the local-ancilla purification route.
    """
    mats = list(sensor.generators)
    if not mats:
        return np.empty((sensor.dim, 0)), np.eye(sensor.dim, dtype=complex)
    return _simultaneous_eigenbasis(mats)


def separable_surrogate(psi: PureState, net: SensorNetwork) -> PureState:
    """Product state matching the probe's per-sensor eigenbasis statistics.

    Sensor ``k`` of the output carries amplitude ``sqrt(p_i)`` on joint
    eigenvector ``i``, where ``p_i`` is that eigenvector's probability in the
    probe's reduced state on sensor ``k``: the squared norm of row ``i`` of
    ``(V_k^dagger x I) psi`` with sensor ``k``'s axis first, so no reduced
    state is formed. Amplitudes are real nonnegative; for commuting
    generators the relative phases cannot affect the Fisher matrix.
    """
    net.require_layout(psi)
    factors = []
    for site, sensor in enumerate(net.sensors):
        _, vectors = joint_eigenbasis(sensor)
        rows = apply_local(vectors.conj().T, site, psi.amplitudes, net.dims)
        factors.append(vectors @ np.linalg.norm(rows, axis=(0, 2)))
    return PureState(kron_all(factors), net.dims)


def purify(rho: DensityOperator) -> PureState:
    """Canonical purification ``sum_i sqrt(p_i) |v_i> x |v_i>``.

    The ancilla copy is appended as one extra subsystem of the full input
    dimension; tracing it out returns the input.
    """
    p, v = rho.spectrum
    p = np.clip(p, 0.0, None)
    vec = ((v * np.sqrt(p)) @ v.T).reshape(-1)
    vec /= np.linalg.norm(vec)
    return PureState(vec, rho.layout + (rho.dim,))


def local_purification_probe(rho: DensityOperator, net: SensorNetwork) -> PureState:
    """Product of per-sensor purifications on the doubled network layout.

    Sensor ``k``'s factor purifies the probe's reduced state on that sensor
    into a same-dimension local ancilla, so the output lives on the
    interleaved layout ``(q_1, q_1, q_2, q_2, ...)`` produced by
    :func:`qsnet.network.doubled`. Its Fisher matrix is block-diagonal with
    the same diagonal blocks as any global purification of the probe.
    """
    net.require_layout(rho)
    factors = []
    layout = []
    for site, sensor in enumerate(net.sensors):
        local = sensor_marginal(rho, site)
        factors.append(purify(local).amplitudes)
        layout.extend([sensor.dim, sensor.dim])
    return PureState(kron_all(factors), tuple(layout))


@dataclass(frozen=True)
class SensorFamily:
    """Particle-count-indexed sensor constructor with linear spectral width.

    ``sensor_for(n)`` returns the sensor housing ``n`` particles; its single
    generator must have spectral width ``kappa * n``, which the extremal
    probes check. ``sensor_for(0)`` is the trivial one-dimensional sensor.
    """

    kappa: float
    sensor_for: Callable[[int], SensorSpec]


def _extremal_sensors(family: SensorFamily, counts) -> tuple[SensorNetwork, list[tuple[np.ndarray, np.ndarray]]]:
    """Network of ``family`` sensors holding ``counts`` particles and each
    sensor's (lowest, highest) generator eigenvector pair. Equal counts share
    one sensor, built and decomposed once; the network is checked against the
    dimension cap before any sensor is decomposed. A generator whose spectral
    width is not ``kappa * n`` raises ``ValueError``."""
    ns = [config.check_int(c, "particle count", 0) for c in counts]
    built = {}
    for n in dict.fromkeys(ns):
        built[n] = family.sensor_for(n)
        if len(built[n].generators) != 1:
            raise ValueError("extremal construction needs a single-generator sensor")
    net = SensorNetwork(tuple(built[n] for n in ns))
    pairs = {}
    for n, sensor in built.items():
        w, v = np.linalg.eigh(np.asarray(sensor.generators[0]))
        if abs(w[-1] - w[0] - family.kappa * n) > 1e-9 * max(1.0, family.kappa * n):
            raise ValueError(f"sensor_for({n}) has generator width {float(w[-1] - w[0])!r}, not kappa * n = {family.kappa * n!r}")
        # Ties inside an extremal eigenspace break to the lowest eigh index.
        tie = 1e-9 * max(1.0, float(np.max(np.abs(w))))
        pairs[n] = v[:, 0], v[:, int(np.nonzero(w >= w[-1] - tie)[0][0])]
    return net, [pairs[n] for n in ns]


def extremal_product(family: SensorFamily, counts) -> tuple[PureState, SensorNetwork]:
    """Product of extremal superpositions, sensor ``k`` holding ``counts[k]``
    particles in the optimal single-sensor probe at that count (the equal
    superposition of its extremal generator eigenvectors). Returns the probe
    and its network; ``extremal_product(family, [n])`` is one sensor."""
    net, pairs = _extremal_sensors(family, counts)
    factors = [(lo + hi) / np.linalg.norm(lo + hi) for lo, hi in pairs]
    return PureState(kron_all(factors), net.dims), net


def ghz_probe(v, n_particles: int, family: SensorFamily) -> tuple[PureState, SensorNetwork]:
    """Sensor-entangled GHZ-like probe for the linear functional ``v . phi``.

    ``v`` may be signed. Distributes ``tilde_v_k = N |v_k| / ||v||_1``
    particles to sensor ``k`` (every ``tilde_v_k`` must be an integer) and
    superposes two branches: every sensor at its maximal extremal
    eigenvector, and every sensor at its minimal one. A sensor with
    ``v_k < 0`` swaps the two, so the branches' phase difference follows
    ``v . phi``. Returns the probe together with the network it lives on,
    since sensor dimensions depend on the allocation.
    """
    f = LinearFunctional(v, family.kappa, n_particles)
    net, pairs = _extremal_sensors(family, f.ghz_allocation())
    pairs = [(hi, lo) if vk < 0.0 else (lo, hi) for (lo, hi), vk in zip(pairs, f.v)]
    branch = kron_all([hi for _, hi in pairs]) + kron_all([lo for lo, _ in pairs])
    branch = branch / np.linalg.norm(branch)
    return PureState(branch, net.dims), net


def optimal_separable_probe(v, n_particles: int, family: SensorFamily) -> tuple[PureState, SensorNetwork, np.ndarray]:
    """Best product of extremal superpositions for estimating ``v . phi``.

    Allocates by :meth:`LinearFunctional.separable_allocation`; returns the
    probe, its network and the allocation.
    """
    w = LinearFunctional(v, family.kappa, n_particles).separable_allocation()
    return (*extremal_product(family, w), w)


def product_defect(psi: PureState, groups=None) -> float:
    """Largest second Schmidt coefficient over all (group | rest) splits.

    ``groups`` lists the subsystem indices forming each separability unit;
    by default every subsystem is its own unit. Zero (within roundoff)
    exactly when the state is a product across every group boundary.
    """
    dims = psi.layout
    n = len(dims)
    if groups is None:
        groups = [(i,) for i in range(n)]
    groups = [layout_ints(g, "subsystem index") for g in groups]
    if any(not g for g in groups):
        raise LayoutError(f"groups {groups} contain an empty group")
    if sorted(i for g in groups for i in g) != list(range(n)):
        raise LayoutError(f"groups {groups} do not partition {n} subsystems")
    worst = 0.0
    for group in groups:
        # A group of dimension 1, or of the whole layout, has no second Schmidt coefficient.
        if prod(dims[i] for i in group) > 1:
            sv = np.linalg.svd(_regroup(psi.amplitudes, dims, group), compute_uv=False)
            worst = max(worst, float(sv[1]) if sv.size > 1 else 0.0)
    return worst
