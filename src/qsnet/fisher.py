"""Quantum and classical Fisher-information machinery.

Quantum Fisher information matrices (QFIM) for pure probes come from the
covariance form ``F_mn = 2<{H_m, H_n}> - 4<H_m><H_n>`` evaluated at the
fiducial parameter point; mixed probes use the symmetric logarithmic
derivative (SLD) form in the probe's eigenbasis. There each generator is
its eigen-row factor ``H = w_0 I + B^dag B`` from one ``eigh`` on its own
sensor: ``B`` has ``n - 1`` rows on an ``n``-level sensor, so the products
that rotate it into the eigenbasis have inner dimension ``(n-1)/n * D``.
The sum runs over the strict upper triangle of eigenvalue pairs, in blocks
of eigenbasis columns, so its scratch stays at one factor of at most
``(n-1)/n * D * D`` plus ``d * D * _BLOCK_COLUMNS`` complex entries for
``d`` parameters. A network's generators act on their own sensor's axis of
the probe, never as full-space matrices; a sequence of full-space
generators pays a ``D x D`` ``eigh`` each for its factor. The scalar
Cramer-Rao bound for any positive-semidefinite weighting ``W`` is
``Tr[W F^+] / mu``; a linear functional ``v . phi`` is ``W = v v^T``.
Singular matrices are never silently pseudo-inverted: the report flags
them, restricts to the support, and the bound is ``inf`` when ``W``
weighs a direction outside it.
Each carrier holds its ``spectrum``: the probe's eigenbasis and the
information matrix's eigenpairs are computed once, when the carrier is
validated, and every bound, inverse and mixed-state sum reads them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from . import config
from .exceptions import LayoutError
from .hilbert import DensityOperator, PureState, State, apply_local, check_floor, psd_spectrum, require_hermitian
from .network import SensorNetwork, _check_phi, encode
from .reporting import Report

__all__ = [
    "QFIM",
    "BoundReport",
    "qfim_pure",
    "qfim_mixed",
    "qcrb",
    "block_inverse_residuals",
    "cfim",
]


@dataclass(frozen=True)
class QFIM:
    """Real symmetric PSD information matrix with a parameter partition.

    The partition records which parameters live on which sensor; it drives
    the block accessors. A matrix without block structure carries the single
    full block. ``spectrum`` keeps the ascending eigenvalues and eigenvector
    columns of the one ``eigh`` that checks positivity.
    """

    matrix: np.ndarray
    partition: tuple[tuple[int, ...], ...] = ()
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat, spectrum = _symmetric_psd(self.matrix, "information matrix")
        partition = tuple(
            tuple(config.check_int(i, "partition index", 0) for i in blk) for blk in self.partition
        )
        partition = partition or (tuple(range(mat.shape[0])),)
        flat = [i for blk in partition for i in blk]
        if flat != list(range(mat.shape[0])) or not all(partition):
            raise ValueError(f"partition {partition} does not tile 0..{mat.shape[0] - 1} in non-empty blocks")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.partition)

    def block(self, k: int) -> np.ndarray:
        idx = np.asarray(self.partition[k])
        return self.matrix[np.ix_(idx, idx)]


def _symmetric_psd(mat, name: str, dim: int | None = None) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """A real non-empty matrix, symmetric within 1e-10 and with eigenvalues
    above -1e-9, both relative to its largest entry (at least 1): symmetrized,
    read-only, with its :func:`~qsnet.hilbert.psd_spectrum`."""
    mat = require_hermitian(mat, 1e-10, name, float, dim)
    if mat.size == 0:
        raise ValueError(f"{name} is empty: no parameters")
    floor = 1e-9 * max(1.0, float(np.max(np.abs(mat))))
    mat = (mat + mat.T) / 2
    mat.setflags(write=False)
    return mat, psd_spectrum(mat, name, floor)


def _rank_cutoff(eigenvalues: np.ndarray) -> float:
    top = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    return max(config.RANK_TOL_FACTOR * top, config.RANK_TOL_FLOOR)


def _support_inverse(spectrum: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse of a symmetric matrix restricted to its support.

    Takes the matrix's ascending ``(eigenvalues, eigenvectors)`` and returns
    the eigenvectors whose eigenvalues clear the rank cutoff, as columns
    ``V``, and ``V diag(1/w) V^T`` over those eigenvalues ``w``.
    """
    eigvals, eigvecs = spectrum
    support = eigvals > _rank_cutoff(eigvals)
    vs = eigvecs[:, support]
    return vs, (vs / eigvals[support]) @ vs.T


def _off_support(vs: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Which unit columns ``u`` of ``directions`` leave the span of the
    orthonormal columns ``V``: the residual ``u - V V^T u`` has norm above
    1e-9. Roundoff in ``V`` moves that norm by about 1e-16."""
    return np.linalg.norm(directions - vs @ (vs.T @ directions), axis=0) > 1e-9


def _local_generators(source, state: State, partition=()):
    """Generators of ``source`` as one-site operators on a layout of ``state``.

    Returns the layout, one ``(site, h)`` pair per parameter and the
    partition. A :class:`SensorNetwork` supplies its own sensor generators,
    layout and partition; a sequence of full-space generators becomes
    one-site operators on the layout ``(D,)``, with ``partition`` as given;
    they must be Hermitian, as both information formulas assume.
    """
    if isinstance(source, SensorNetwork):
        if partition:
            raise ValueError("the partition of a network's parameters comes from the network")
        source.require_layout(state)
        gens = [(site, g) for site, s in enumerate(source.sensors) for g in s.generators]
        return source.dims, gens, source.partition
    gens = [(0, require_hermitian(g, name=f"generator {k}", dim=state.dim)) for k, g in enumerate(source)]
    if not gens:
        raise ValueError("need at least one generator")
    return (state.dim,), gens, partition


def qfim_pure(psi: PureState, source: SensorNetwork | Sequence[np.ndarray], partition=()) -> QFIM:
    """QFIM of a pure probe, ``4 Re(<H_m H_n> - <H_m><H_n>)``.

    ``source`` is a :class:`SensorNetwork`, whose sensor-local generators
    are contracted on their own axis of the probe and whose partition is
    used, or a sequence of generators on the probe's full space. Valid for
    arbitrary (also mutually non-commuting) generators.
    """
    if not isinstance(psi, PureState):
        raise TypeError(f"qfim_pure needs a PureState, got {type(psi).__name__}")
    layout, gens, partition = _local_generators(source, psi, partition)
    amps = psi.amplitudes
    tensor = amps.reshape(layout)
    applied = np.stack([apply_local(h, site, tensor).reshape(-1) for site, h in gens])
    means = np.real(applied @ amps.conj())
    gram = applied.conj() @ applied.T
    mat = 4.0 * (np.real(gram) - np.outer(means, means))
    return QFIM(mat, partition)


# Columns of the probe's eigenbasis handled per step of the mixed-state sum:
# its blocks hold len(generators) * D * _BLOCK_COLUMNS complex entries.
_BLOCK_COLUMNS = 128


def qfim_mixed(
    rho: DensityOperator, source: SensorNetwork | Sequence[np.ndarray], partition=()
) -> QFIM:
    """QFIM of a mixed probe from its eigenbasis.

    ``source`` is a network or a sequence of Hermitian full-space
    generators, as for :func:`qfim_pure`. With the probe's eigenvalues
    ``p`` and the generators ``h_k`` in its eigenbasis,
    ``F_kl = sum_ij 2 (p_i - p_j)^2 / (p_i + p_j) Re(h_k,ij conj h_l,ij)``
    over the pairs whose ``p_i + p_j`` clears the rank cutoff. This is
    ``Re Tr[rho L_k L_l]`` for the symmetric logarithmic derivatives ``L_k``,
    never formed here. A ``RuntimeWarning`` flags a kept ``p_i + p_j``
    within 100x of the cutoff.

    The summand is symmetric in ``(i, j)`` and zero on the diagonal, so only
    the strict upper triangle ``i < j`` is summed, twice. Off the diagonal
    ``h_k = C_k^dag C_k``: the local ``eigh`` of ``H_k`` gives
    ``H_k = w_0 I + B_k^dag B_k`` with ``B_k = sqrt(w - w_0) u^dag`` over
    its eigenpairs above the lowest, and ``C_k`` is ``B_k`` contracted on
    its sensor's axis of the eigenbasis ``V``, with ``(n-1)/n * D`` rows on
    an ``n``-level sensor (none on a one-dimensional one, and zeros for a
    scalar ``H_k``). The sum is streamed over blocks of ``_BLOCK_COLUMNS``
    eigenbasis columns, each building one ``C_k`` at a time for the columns
    it needs: beyond the probe, the scratch is one factor of at most
    ``(n-1)/n * D * D`` plus ``d * D * _BLOCK_COLUMNS`` complex entries
    for ``d`` parameters, never ``d`` full ``D x D`` generators or
    factors. A full-space generator is one ``D``-level sensor: its factor
    costs a ``D x D`` ``eigh``.
    """
    if not isinstance(rho, DensityOperator):
        raise TypeError(f"qfim_mixed needs a DensityOperator, got {type(rho).__name__}")
    layout, gens, partition = _local_generators(source, rho, partition)
    p, v = rho.spectrum
    cutoff = _rank_cutoff(p)
    dim, d = rho.dim, len(gens)
    width = min(_BLOCK_COLUMNS, dim)
    # Each B_k with a (before, n, after, D) view of V, H_k's site second.
    factors = []
    for site, g in gens:
        w, u = np.linalg.eigh(g)
        b = np.sqrt(w[1:] - w[0])[:, None] * u[:, 1:].conj().T
        factors.append((b, v.reshape(prod(layout[:site]), layout[site], -1, dim)))
    scratch = np.empty(d * dim * width, dtype=complex)
    mat = np.zeros((d, d))
    near = False
    for start in range(0, dim, width):
        stop = min(start + width, dim)
        cols = slice(start, stop)
        block = scratch[: d * stop * (stop - start)].reshape(d, stop, -1)
        # Rows :stop and columns cols of conj(h_k) = C_k^T conj(C_k): only the
        # narrow columns are conjugated, and conjugating every h_k leaves
        # Re(h_k conj h_l) as it is. The rows of C_k come out in (before,
        # after, n - 1) order, which C_k^T C_k does not see.
        for k, (b, view) in enumerate(factors):
            c = np.matmul(b, view[..., :stop].transpose(0, 2, 1, 3)).reshape(-1, stop)
            np.matmul(c.T, c[:, cols].conj(), out=block[k])
        denom = p[:stop, None] + p[None, cols]
        live = denom > cutoff
        near |= bool(np.any(live & (denom < 100.0 * cutoff)))
        live &= np.arange(stop)[:, None] < np.arange(start, stop)[None, :]
        # Twice the weight of the full sum, under a square root: X X^T then
        # holds both triangles.
        weight = np.zeros_like(denom)
        np.divide(4.0 * (p[:stop, None] - p[None, cols]) ** 2, denom, out=weight, where=live)
        block *= np.sqrt(weight)
        x = block.view(float).reshape(d, -1)
        mat += x @ x.T
    if near:
        warnings.warn(
            "SLD denominators within 100x of the rank cutoff; the information matrix may be ill-determined",
            RuntimeWarning,
            stacklevel=2,
        )
    return QFIM(mat, partition)


def _weighted_directions(weights, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, U)`` with ``W = U diag(lam) U^T`` for the weighting ``W``.

    A weight vector ``w`` is ``diag(w)`` on the parameter axes. A ``(d, d)``
    matrix must be symmetric and positive semidefinite; its eigenvectors
    whose eigenvalues clear the rank cutoff are kept.
    """
    w = config.check_array(weights, "weights")
    if w.ndim == 2:
        lam, vecs = _symmetric_psd(w, "weight matrix", d)[1]
        keep = lam > _rank_cutoff(lam)
        lam, directions = lam[keep], vecs[:, keep]
    else:
        if w.shape != (d,):
            raise LayoutError(f"expected {d} weights, got shape {w.shape}")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        lam, directions = w, np.eye(d)
    if not np.any(lam > 0.0):
        raise ValueError("weights must not all be zero")
    return lam, directions


@dataclass(frozen=True)
class BoundReport(Report):
    """Scalar Cramer-Rao bound for one (information matrix, weights, mu).

    For a singular matrix ``undetermined`` lists the parameter indices
    outside the support, whose ``diag_inverse`` entries are ``inf``. The
    bound is ``inf`` if the weighting gives weight to a direction outside
    the support; otherwise it is ``Tr[W F^+] / mu`` over the support.
    """

    bound: float
    diag_inverse: tuple[float, ...]
    singular: bool
    support_dim: int
    undetermined: tuple[int, ...]


def qcrb(fim: QFIM, weights, mu: int = 1) -> BoundReport:
    """Weighted scalar Cramer-Rao bound ``Tr[W F^+] / mu``.

    ``weights`` is a vector ``w``, for ``W = diag(w)``, or any symmetric
    positive-semidefinite ``(d, d)`` matrix ``W``; the variance of a linear
    functional ``v . phi`` is ``W = v v^T``. Eigenvalues of a matrix ``W``
    below the rank cutoff (1e-10 of its largest) count as zero. A parameter
    axis, or a weighted eigenvector of ``W``, lies in the support when its
    residual off the support has norm at most 1e-9.
    """
    if not isinstance(fim, QFIM):
        raise TypeError(f"qcrb needs a QFIM, got {type(fim).__name__}")
    mu = config.check_int(mu, "mu")
    lam, directions = _weighted_directions(weights, fim.d)
    vs, inv_supp = _support_inverse(fim.spectrum)
    support_dim = vs.shape[1]
    inside = ~_off_support(vs, np.eye(fim.d))
    diag = np.where(inside, np.diag(inv_supp), np.inf)
    weighed = ~_off_support(vs, directions)
    if np.any(lam[~weighed] > 0.0):
        bound = np.inf
    else:
        quad = np.sum(directions * (inv_supp @ directions), axis=0)
        bound = float(np.sum(lam[weighed] * quad[weighed]) / mu)
    undetermined = tuple(int(k) for k in np.nonzero(~inside)[0])
    return BoundReport(bound, tuple(float(x) for x in diag), support_dim < fim.d, support_dim, undetermined)


def block_inverse_residuals(fim: QFIM) -> np.ndarray:
    """Per-block smallest eigenvalue of ``[F^-1]_[kk] - [F_[kk]]^-1``.

    Nonnegative (up to roundoff) for every positive-definite matrix, with
    zero exactly when block ``k`` decouples from the rest (its off-diagonal
    blocks vanish). Raises on singular input.
    """
    support, full_inv = _support_inverse(fim.spectrum)
    if support.shape[1] < fim.d:
        raise np.linalg.LinAlgError("information matrix is singular")
    # A block's eigenvalues clear the full matrix's cutoff: its support inverse is exact.
    residuals = np.empty(fim.n_blocks)
    for k in range(fim.n_blocks):
        idx = np.asarray(fim.partition[k])
        outer = full_inv[np.ix_(idx, idx)]
        inner = _support_inverse(np.linalg.eigh(fim.block(k)))[1]
        diff = outer - inner
        residuals[k] = float(np.linalg.eigvalsh((diff + diff.T) / 2)[0])
    return residuals


def cfim(
    effects: Sequence[np.ndarray],
    net: SensorNetwork,
    probe: State,
    phi0=None,
) -> np.ndarray:
    """Classical Fisher information matrix of a POVM's outcome statistics.

    Outcome probabilities are ``p_m = Tr[E_m rho]`` for the probe encoded at
    ``phi0`` (by default, or at all zeros, the probe as given). Their
    derivatives are analytic, ``d_k p_m = Tr[E_m (-i)[H_k, rho]]``, with each
    generator contracted on its own sensor's axis. Away from the fiducial
    point this holds only if each sensor's generators commute: each is
    diagonal in the sensor's :func:`~qsnet.states.joint_eigenbasis` within
    ``config.COMMUTE_TOL * max(1, max|G|)``, the one commutation rule;
    otherwise :class:`~qsnet.exceptions.NoncommutingGeneratorsError` is
    raised.

    An outcome with probability below ``config.CFIM_PROB_FLOOR`` is taken to
    have ``E_m rho = 0``. With one parameter it counts by its limit
    ``4 Re Tr[E_m H rho H]``, since ``p_m ~ phi^2 Tr[E_m H rho H]`` near the
    point. With several parameters that limit depends on the direction of
    approach (Safranek, PRA 95, 052320 (2017)), and the outcome is skipped.
    Either way a ``RuntimeWarning`` gives the number of such outcomes.
    """
    dim = net.total_dim
    ops = np.array([require_hermitian(e, tol=1e-9, name=f"effect {m}", dim=dim) for m, e in enumerate(effects)])
    ops = ops.reshape(-1, dim, dim)
    for m, w in enumerate(np.linalg.eigvalsh((ops + ops.conj().swapaxes(1, 2)) / 2)):
        check_floor(w, f"effect {m}", 1e-9)
    if float(np.max(np.abs(ops.sum(axis=0) - np.eye(dim)))) > 1e-9:
        raise ValueError("POVM effects do not sum to the identity")
    state = probe
    if phi0 is not None and np.any(_check_phi(net, phi0) != 0.0):
        state = encode(net, probe, phi0)
        # Imported here: a module-level fisher -> states import moves audit t2's peak RSS.
        from .states import joint_eigenbasis

        for sensor in net.sensors:
            joint_eigenbasis(sensor)
    layout, gens, _ = _local_generators(net, state)
    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    # Each generator acts on its sensor's row axis of a three-axis view, so
    # no reshape grows with the layout length.
    views = [(h, (prod(layout[:site]), layout[site], -1)) for site, h in gens]
    applied = np.stack([apply_local(h, 1, rho.reshape(shape)).reshape(-1) for h, shape in views])
    # Tr[E_m X] = <E_m, X> for Hermitian E_m, so p_m = Re <E_m, rho> and
    # d_k p_m = -i Tr[E_m [H_k, rho]] = 2 Im Tr[E_m H_k rho].
    effects_conj = ops.reshape(len(ops), -1).conj()
    p0 = np.real(effects_conj @ rho.reshape(-1))
    dp = 2.0 * np.imag(applied @ effects_conj.T)
    kept = p0 >= config.CFIM_PROB_FLOOR
    mat = (dp[:, kept] / p0[kept]) @ dp[:, kept].T
    low = len(ops) - int(np.count_nonzero(kept))
    outcomes = f"{low} outcome(s) with probability below {config.CFIM_PROB_FLOOR:g}"
    if low and len(gens) == 1:
        # H rho H = H (H rho)^dagger, as H and rho are Hermitian.
        ((h, shape),) = views
        sandwich = apply_local(h, 1, applied[0].reshape(dim, dim).conj().T.reshape(shape))
        mat += 4.0 * float(np.sum(np.real(effects_conj[~kept] @ sandwich.reshape(-1))))
        warnings.warn(f"{outcomes} counted by their limit 4 Re Tr[E_m H rho H]", RuntimeWarning, stacklevel=2)
    elif low:
        warnings.warn(
            f"{outcomes} skipped: with {len(gens)} parameters their limit depends on the "
            "direction of approach; the classical information may be underestimated",
            RuntimeWarning,
            stacklevel=2,
        )
    return (mat + mat.T) / 2
