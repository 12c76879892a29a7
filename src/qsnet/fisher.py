"""Quantum and classical Fisher-information machinery.

Quantum Fisher information matrices (QFIM) for pure probes come from the
covariance form ``F_mn = 2<{H_m, H_n}> - 4<H_m><H_n>`` evaluated at the
fiducial parameter point; mixed probes use the symmetric logarithmic
derivative (SLD) form in the probe's eigenbasis. That sum runs over the
strict upper triangle of eigenvalue pairs, in blocks of eigenbasis columns,
so its scratch stays at one ``D x D`` matrix plus ``d * D * _BLOCK_COLUMNS``
complex entries for ``d`` parameters. A network's generators act on their
own sensor's axis of the probe, never as full-space matrices. The scalar
Cramer-Rao bound for a diagonal weighting is
``sum_k W_kk [F^-1]_kk / mu``; singular matrices are never silently
pseudo-inverted, the report flags them and restricts to the support.
Each carrier holds its ``spectrum``: the probe's eigenbasis and the
information matrix's eigenpairs are computed once, when the carrier is
validated, and every bound, inverse and SLD reads them.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import config
from .bounds import unit_vector
from .exceptions import LayoutError
from .hilbert import DensityOperator, PureState, State, apply_local, require_hermitian
from .network import SensorNetwork, encode

__all__ = [
    "QFIM",
    "BoundReport",
    "qfim_pure",
    "qfim_mixed",
    "sld_operators",
    "qcrb",
    "rotate_qfim",
    "orthogonal_completion",
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
        mat = config.check_array(self.matrix, "information matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"information matrix must be square, got {mat.shape}")
        if mat.size == 0:
            raise ValueError("information matrix is empty: no parameters")
        scale = max(1.0, float(np.max(np.abs(mat))))
        if float(np.max(np.abs(mat - mat.T))) > 1e-10 * scale:
            raise ValueError("information matrix is not symmetric")
        mat = (mat + mat.T) / 2
        spectrum = np.linalg.eigh(mat)
        lo = float(spectrum[0][0])
        if lo < -1e-9 * scale:
            raise ValueError(f"information matrix has eigenvalue {lo:.3e} < 0")
        partition = tuple(
            tuple(config.check_int(i, "partition index", 0) for i in blk) for blk in self.partition
        )
        partition = partition or (tuple(range(mat.shape[0])),)
        flat = [i for blk in partition for i in blk]
        if flat != list(range(mat.shape[0])):
            raise ValueError(f"partition {partition} does not tile 0..{mat.shape[0] - 1}")
        for part in (mat, *spectrum):
            part.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "spectrum", tuple(spectrum))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.partition)

    def block(self, k: int) -> np.ndarray:
        idx = np.asarray(self.partition[k])
        return self.matrix[np.ix_(idx, idx)]


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
    gens = []
    for k, g in enumerate(source):
        gen = np.asarray(g, dtype=complex)
        if gen.shape != (state.dim, state.dim):
            raise LayoutError(f"generator {k} has shape {gen.shape}, state dim {state.dim}")
        gens.append((0, require_hermitian(gen, name=f"generator {k}")))
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
    layout, gens, partition = _local_generators(source, psi, partition)
    amps = psi.amplitudes
    tensor = amps.reshape(layout)
    applied = np.stack([apply_local(h, site, tensor).reshape(-1) for site, h in gens])
    means = np.real(applied @ amps.conj())
    gram = applied.conj() @ applied.T
    mat = 4.0 * (np.real(gram) - np.outer(means, means))
    return QFIM(mat, partition)


# Columns of the probe's eigenbasis handled per step of the mixed-state sum:
# its scratch holds len(generators) * D * _BLOCK_COLUMNS complex entries.
_BLOCK_COLUMNS = 128


def _rotate(rows: np.ndarray, basis: np.ndarray, gens, cols: slice, out: np.ndarray) -> None:
    """Fill ``out[k]`` with the first ``out.shape[1]`` rows and the columns
    ``cols`` of ``h_k = V^dag H_k V``, the generators in the probe's
    eigenbasis.

    ``rows`` is ``V^dag`` and ``basis`` is ``V`` with its row axis split
    into the layout, so each ``H_k`` is contracted on its own site.
    """
    dim = rows.shape[0]
    for k, (site, g) in enumerate(gens):
        applied = apply_local(g, site, basis[..., cols]).reshape(dim, -1)
        np.matmul(rows[: out.shape[1]], applied, out=out[k])


def _denominators(p: np.ndarray, cutoff: float, stop: int, cols: slice):
    """SLD denominators ``p_i + p_j`` for the rows ``:stop`` and the columns
    ``cols``, the mask of those that clear the rank cutoff, and whether a
    cleared one lies within 100x of it."""
    denom = p[:stop, None] + p[None, cols]
    live = denom > cutoff
    return denom, live, bool(np.any(live & (denom < 100.0 * cutoff)))


def _warn_near_cutoff() -> None:
    warnings.warn(
        "SLD denominators within 100x of the rank cutoff; "
        "the information matrix may be ill-determined",
        RuntimeWarning,
        stacklevel=3,
    )


def qfim_mixed(
    rho: DensityOperator, source: SensorNetwork | Sequence[np.ndarray], partition=()
) -> QFIM:
    """QFIM of a mixed probe from its eigenbasis.

    ``source`` is a network or a sequence of Hermitian full-space
    generators, as for :func:`qfim_pure`. With the probe's eigenvalues
    ``p`` and the generators ``h_k`` in its eigenbasis,
    ``F_kl = sum_ij 2 (p_i - p_j)^2 / (p_i + p_j) Re(h_k,ij conj h_l,ij)``
    over the pairs whose ``p_i + p_j`` clears the rank cutoff. This is
    ``Re Tr[rho L_k L_l]`` for the symmetric logarithmic derivatives of
    :func:`sld_operators`, which are never formed here.

    The summand is symmetric in ``(i, j)`` and zero on the diagonal, so only
    the strict upper triangle ``i < j`` is summed, twice. It is streamed
    over blocks of ``_BLOCK_COLUMNS`` eigenbasis columns: beyond the probe,
    the scratch is one ``D x D`` matrix plus ``d * D * _BLOCK_COLUMNS``
    complex entries for ``d`` parameters, never ``d`` full ``D x D``
    generators.
    """
    layout, gens, partition = _local_generators(source, rho, partition)
    p, v = rho.spectrum
    cutoff = _rank_cutoff(p)
    dim, d = rho.dim, len(gens)
    width = min(_BLOCK_COLUMNS, dim)
    rows, basis = v.conj().T, v.reshape(layout + (dim,))
    scratch = np.empty(d * dim * width, dtype=complex)
    mat = np.zeros((d, d))
    near = False
    for start in range(0, dim, width):
        stop = min(start + width, dim)
        cols = slice(start, stop)
        block = scratch[: d * stop * (stop - start)].reshape(d, stop, -1)
        _rotate(rows, basis, gens, cols, block)
        denom, live, close = _denominators(p, cutoff, stop, cols)
        near |= close
        live &= np.arange(stop)[:, None] < np.arange(start, stop)[None, :]
        # Twice the weight of the full sum, under a square root: X X^T then
        # holds both triangles.
        weight = np.zeros_like(denom)
        np.divide(4.0 * (p[:stop, None] - p[None, cols]) ** 2, denom, out=weight, where=live)
        block *= np.sqrt(weight)
        x = block.view(float).reshape(d, -1)
        mat += x @ x.T
    if near:
        _warn_near_cutoff()
    return QFIM(mat, partition)


def sld_operators(
    rho: DensityOperator, source: SensorNetwork | Sequence[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Symmetric logarithmic derivatives of a mixed probe, one per parameter.

    The parameter derivative at the fiducial point is the analytic
    commutator ``d rho / d phi_k = -i [H_k, rho]``. The SLDs solve
    ``d rho = (rho L + L rho) / 2`` in the probe's eigenbasis:
    ``L_ij = 2 (d rho)_ij / (p_i + p_j)`` wherever ``p_i + p_j`` clears the
    rank cutoff, zero elsewhere. ``source`` is as for :func:`qfim_mixed`.
    """
    layout, gens, _ = _local_generators(source, rho)
    p, v = rho.spectrum
    dim = rho.dim
    everything = slice(0, dim)
    h = np.empty((len(gens), dim, dim), dtype=complex)
    _rotate(v.conj().T, v.reshape(layout + (dim,)), gens, everything, h)
    denom, live, near = _denominators(p, _rank_cutoff(p), dim, everything)
    if near:
        _warn_near_cutoff()
    slds = []
    for h_eig in h:
        l_eig = np.zeros_like(h_eig)
        np.divide(-2j * h_eig * (p[None, :] - p[:, None]), denom, out=l_eig, where=live)
        slds.append(v @ l_eig @ v.conj().T)
    return tuple(slds)


def _check_weights(weights, d: int) -> np.ndarray:
    w = config.check_array(weights, "weights")
    if w.ndim == 2:
        if w.shape != (d, d):
            raise LayoutError(f"weight matrix shape {w.shape}, expected ({d}, {d})")
        off = w - np.diag(np.diag(w))
        if float(np.max(np.abs(off))) > 0.0:
            raise ValueError("only diagonal weighting matrices are supported")
        w = np.diag(w)
    if w.shape != (d,):
        raise LayoutError(f"expected {d} weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise ValueError("weights must not all be zero")
    return w


@dataclass(frozen=True)
class BoundReport:
    """Scalar Cramer-Rao bound for one (information matrix, weights, mu).

    For a singular matrix ``undetermined`` lists the parameter indices
    outside the support, whose ``diag_inverse`` entries are ``inf``. The
    bound is ``inf`` if any of them carries a positive weight; otherwise it
    sums the determined parameters.
    """

    bound: float
    diag_inverse: tuple[float, ...]
    singular: bool
    support_dim: int
    undetermined: tuple[int, ...]

    def to_jsonable(self) -> dict:
        return asdict(self)


def qcrb(fim: QFIM, weights, mu: int = 1) -> BoundReport:
    """Weighted scalar Cramer-Rao bound ``sum_k W_kk [F^-1]_kk / mu``."""
    mu = config.check_int(mu, "mu")
    w_diag = _check_weights(weights, fim.d)
    vs, inv_supp = _support_inverse(fim.spectrum)
    support_dim = vs.shape[1]
    singular = support_dim < fim.d
    # A parameter direction is determined only if e_k lies in the support.
    proj_defect = np.sqrt(np.clip(1.0 - np.sum(np.abs(vs) ** 2, axis=1), 0.0, None))
    inside = proj_defect <= 1e-9 if singular else np.ones(fim.d, dtype=bool)
    diag = np.where(inside, np.real(np.diag(inv_supp)), np.inf)
    if np.any(w_diag[~inside] > 0.0):
        bound = np.inf
    else:
        bound = float(np.sum(w_diag[inside] * diag[inside]) / mu)
    undetermined = tuple(int(k) for k in np.nonzero(~inside)[0])
    return BoundReport(bound, tuple(float(x) for x in diag), singular, support_dim, undetermined)


def rotate_qfim(fim: QFIM, m) -> QFIM:
    """Congruence transform ``M F M^T`` onto derived parameters.

    ``M`` must be orthogonal; the partition is dropped because derived
    parameters are global.
    """
    mat = config.check_array(m, "rotation m")
    if mat.shape != (fim.d, fim.d):
        raise LayoutError(f"rotation shape {mat.shape}, expected ({fim.d}, {fim.d})")
    defect = float(np.max(np.abs(mat @ mat.T - np.eye(fim.d))))
    if defect > config.UNITARITY_TOL:
        raise ValueError(f"rotation is not orthogonal (defect {defect:.3e})")
    return QFIM(mat @ fim.matrix @ mat.T, ())


def orthogonal_completion(v) -> np.ndarray:
    """Orthogonal matrix whose first row is ``v / |v|``.

    It is the Householder reflection that takes ``e_0`` to ``v``, signed so
    that row 0 is ``v``: ``-s (I - u u^T / (1 + |v_0|))`` with
    ``u = v + s e_0`` and ``s = sign(v_0)`` (``+1`` at 0), so that
    ``u_0 = v_0 + s`` never cancels. ``v`` is normalized first, so a norm off by roundoff still
    gives a rotation that :func:`rotate_qfim` accepts.
    """
    vec = unit_vector(v, "vector v")
    vec = vec / np.linalg.norm(vec)
    s = 1.0 if vec[0] >= 0.0 else -1.0
    u = vec.copy()
    u[0] += s
    return s * (np.outer(u, u) / (1.0 + abs(vec[0])) - np.eye(vec.size))


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
    ``phi0`` (default: the fiducial point). Their derivatives are analytic,
    ``d_k p_m = Tr[E_m (-i)[H_k, rho]]``, with each generator contracted on
    its own sensor's axis. Away from the fiducial point this holds only if
    each sensor's generators commute; otherwise
    :class:`~qsnet.exceptions.NoncommutingGeneratorsError` is raised.
    Outcomes with probability below the configured floor are skipped, with
    a ``RuntimeWarning`` giving their number.
    """
    dim = net.total_dim
    ops = []
    total = np.zeros((dim, dim), dtype=complex)
    for m, e in enumerate(effects):
        eff = require_hermitian(e, tol=1e-9, name=f"effect {m}")
        if eff.shape != (dim, dim):
            raise LayoutError(f"effect {m} has shape {eff.shape}, network dim {dim}")
        lo = float(np.linalg.eigvalsh((eff + eff.conj().T) / 2)[0])
        if lo < -1e-9:
            raise ValueError(f"effect {m} has eigenvalue {lo:.3e} < 0")
        ops.append(eff)
        total += eff
    if float(np.max(np.abs(total - np.eye(dim)))) > 1e-9:
        raise ValueError("POVM effects do not sum to the identity")
    phi = np.zeros(net.n_params) if phi0 is None else phi0
    state = encode(net, probe, phi)
    if np.any(np.asarray(phi, dtype=float) != 0.0):
        for sensor in net.sensors:
            sensor.require_commuting()
    layout, gens, _ = _local_generators(net, state)
    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    rows = rho.reshape(layout + (dim,))
    applied = np.stack([apply_local(h, site, rows).reshape(-1) for site, h in gens])
    # Tr[E_m X] = <E_m, X> for Hermitian E_m, so p_m = Re <E_m, rho> and
    # d_k p_m = -i Tr[E_m [H_k, rho]] = 2 Im Tr[E_m H_k rho].
    effects_conj = np.stack(ops).reshape(len(ops), -1).conj()
    p0 = np.real(effects_conj @ rho.reshape(-1))
    dp = 2.0 * np.imag(applied @ effects_conj.T)
    kept = p0 >= config.CFIM_PROB_FLOOR
    skipped = len(ops) - int(np.count_nonzero(kept))
    if skipped:
        warnings.warn(
            f"{skipped} outcome(s) with probability below {config.CFIM_PROB_FLOOR:g} "
            "skipped; the classical information may be underestimated",
            RuntimeWarning,
            stacklevel=2,
        )
    mat = (dp[:, kept] / p0[kept]) @ dp[:, kept].T
    return (mat + mat.T) / 2
