"""Dense complex linear algebra on small tensor-product Hilbert spaces.

Plain complex ndarrays carry every operator. :class:`PureState` and
:class:`DensityOperator` add subsystem-layout bookkeeping and invariant
checks on top; both freeze their arrays, so instances are safe to share.
A density operator holds its ``spectrum`` from the one eigendecomposition
that validates it; purification and the mixed-state Fisher information
read it rather than factoring the matrix again. That eigendecomposition is
LAPACK's ``zheevd`` from numpy's own LAPACK, called with the workspace its
blocked back-transformation needs (see :func:`psd_spectrum`), or
``np.linalg.eigh`` where numpy's LAPACK does not export that routine under
its one bound name. One-site operators act
through :func:`apply_local` on a flat array read as its layout's subsystems;
every split into some subsystems and the rest goes through ``_regroup``, the
one rule that gives entries of dimension 1 no axis (so any layout length fits).

Matrices exchanged with the outside world use a JSON encoding where every
entry is a ``[re, im]`` pair: a vector is a list of pairs, a matrix a list
of rows of pairs. Decoding reads lists only: it checks and flattens one
nesting level at a time and converts the flat numbers in one call, so a
D x D density never passes through an object array.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from math import prod
from typing import Iterable, Sequence

import numpy as np

from . import config
from .exceptions import DimensionLimitError, FormatError, LayoutError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PureState",
    "DensityOperator",
    "require_hermitian",
    "commutator",
    "kron_all",
    "embed_local",
    "partial_trace",
    "sensor_marginal",
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def check_dim(factors: Iterable[int]) -> int:
    """The product of the subsystem dimensions ``factors``, within the cap.

    The product is formed factor by factor and stops at the first factor
    that takes it past the cap, so no larger number is built or printed.
    The :class:`DimensionLimitError` names the cap, and the dimension if
    every factor was taken, or else the part of it formed so far.
    """
    cap = config.max_dim()
    dim = 1
    rest = iter(factors)
    for f in rest:
        dim *= f
        if dim > cap:
            if dim >= 2**63:
                size = "at least 2**63"
            else:
                size = f"{dim}" if next(rest, None) is None else f"at least {dim}"
            raise DimensionLimitError(f"dimension {size} exceeds the cap {cap} (QSN_MAX_DIM)")
    return dim


def layout_ints(values, name: str, minimum: int = 0) -> tuple[int, ...]:
    """Subsystem dimensions or indices as ``int``s through
    :func:`config.check_int`; anything else raises :class:`LayoutError`."""
    try:
        return tuple([config.check_int(v, name, minimum) for v in values])
    except ValueError as exc:
        raise LayoutError(str(exc)) from None


def _index(value, n: int, name: str) -> int:
    """``value`` as an index into a layout of length ``n``, through
    :func:`layout_ints`; one out of range raises :class:`LayoutError`."""
    (k,) = layout_ints((value,), name)
    if k >= n:
        raise LayoutError(f"{name} {k} outside layout of length {n}")
    return k


def _check_layout(layout, dim: int) -> tuple[int, ...]:
    """A state's ``layout`` as ``int``s whose product is ``dim``, within the cap."""
    dims = layout_ints(layout, "layout entry", 1)
    implied = check_dim(dims)
    if implied != dim:
        raise LayoutError(f"layout of length {len(dims)} implies dim {implied}, the state has dim {dim}")
    return dims


SIGMA_X = _frozen([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = _frozen([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = _frozen([[1.0, 0.0], [0.0, -1.0]])


def require_hermitian(
    op, tol: float | None = None, name: str = "operator", dtype=complex, dim: int | None = None
) -> np.ndarray:
    """``op`` as a square array of ``dtype``, Hermitian (symmetric for
    ``float``) within ``tol`` relative to its largest entry (at least 1).
    With ``dim``, a square matrix of another size raises :class:`LayoutError`."""
    a = config.check_array(op, name, dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise LayoutError(f"{name} has shape {a.shape}, expected ({dim}, {dim})")
    tol = config.HERMITICITY_TOL if tol is None else tol
    scale = float(abs(a).max()) if a.size else 0.0
    defect = float(abs(a - a.conj().T).max()) if a.size else 0.0
    if defect > tol * max(scale, 1.0):
        kind = "Hermitian" if dtype is complex else "symmetric"
        raise ValueError(f"{name} is not {kind} (defect {defect:.3e})")
    return a


def check_floor(eigenvalues: np.ndarray, name: str, floor: float) -> None:
    """Raise ``ValueError`` naming ``name`` if the first of the ascending
    ``eigenvalues`` is below ``-floor``."""
    lo = float(eigenvalues[0])
    if lo < -floor:
        raise ValueError(f"{name} has eigenvalue {lo:.3e} < 0")


# LAPACK's zheevd through its LAPACKE wrapper, and the BLAS configuration,
# core and thread count that run manifests record, from the library that
# np.linalg.eigh itself calls. Only these ILP64 names are bound (numpy's
# bundled scipy-openblas64 exports them): a guessed name of another integer
# width would corrupt memory. A missing name binds None; np.linalg.eigh then
# runs in zheevd's place.
try:
    _lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
except (OSError, AttributeError):
    _lapack = None
_zheevd, _blas_config, _blas_core, _blas_threads = (
    getattr(_lapack, name, None)
    for name in (
        "scipy_LAPACKE_zheevd_work64_",
        "scipy_openblas_get_config64_",
        "scipy_openblas_get_corename64_",
        "scipy_openblas_get_num_threads64_",
    )
)
for _getter, _restype in ((_blas_config, ctypes.c_char_p), (_blas_core, ctypes.c_char_p), (_blas_threads, ctypes.c_int)):
    if _getter is not None:
        _getter.argtypes, _getter.restype = (), _restype
if _zheevd is not None:
    _zheevd.restype = ctypes.c_int64
    _zheevd.argtypes = (
        (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)
        + (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64) + (ctypes.c_void_p, ctypes.c_int64) * 2
    )


def psd_spectrum(a: np.ndarray, name: str, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ascending eigenvalues and C-contiguous eigenvector columns
    of the Hermitian ``a`` from one eigendecomposition, checked by
    :func:`check_floor`.

    Complex input goes to the bound LAPACK ``zheevd`` (lower triangle, as
    ``np.linalg.eigh`` reads it) with ``64 N`` more workspace than the
    ``N^2 + 2 N`` that ``np.linalg.eigh`` gives it, so its back-transformation
    runs blocked: about half the time at ``N = 512``. Small input is not
    blocked either way, and the result is ``np.linalg.eigh``'s bit for bit
    (pinned for every ``N`` up to 64; a default audit's densities are at most
    27 x 27). Real input, and complex input where numpy's LAPACK does not
    export the symbol, go to ``np.linalg.eigh``; ``dsyevd`` blocks at its
    minimum workspace.
    """
    if _zheevd is None or a.dtype != complex:
        spectrum = np.linalg.eigh(a)
    else:
        n = len(a)
        if a.shape != (n, n):
            raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
        # The transpose's C-order copy is a's Fortran-order copy; zheevd
        # overwrites it with the eigenvector columns. One buffer of 8-byte
        # words holds the eigenvalues, then the complex, real and int64 work.
        vectors = a.T.copy()
        lwork, lrwork, liwork = n * n + 2 * n + 64 * n, 1 + 5 * n + 2 * n * n, 3 + 5 * n
        words = np.empty(n + 2 * lwork + lrwork + liwork)
        w = words.ctypes.data
        work, rwork, iwork = w + 8 * n, w + 8 * (n + 2 * lwork), w + 8 * (n + 2 * lwork + lrwork)
        # 102: column-major; "V": eigenvectors too; "L": the lower triangle.
        info = _zheevd(102, b"V", b"L", n, vectors.ctypes.data, max(1, n), w, work, lwork, rwork, lrwork, iwork, liwork)
        if info:
            raise np.linalg.LinAlgError(f"Eigenvalues did not converge (zheevd info {info})")
        eigenvalues = words[:n].copy()
        del words  # the workspace goes before the eigenvectors are copied
        spectrum = eigenvalues, vectors.T.copy()
    check_floor(spectrum[0], name, floor)
    for part in spectrum:
        part.setflags(write=False)
    return tuple(spectrum)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def kron_all(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a list of vectors, checked against the
    configured dimension cap before it is allocated."""
    if not vectors:
        raise ValueError("empty vector list")
    factors = [config.check_array(v, f"factor {i}", complex) for i, v in enumerate(vectors)]
    for i, f in enumerate(factors):
        if f.ndim != 1:
            raise ValueError(f"factor {i} must be a vector, got shape {f.shape}")
    check_dim(f.size for f in factors)
    return reduce(np.kron, factors)


def embed_local(op, site: int, layout: Sequence[int]) -> np.ndarray:
    """Extend a local operator to ``I x ... x op x ... x I`` in layout order."""
    dims = layout_ints(layout, "layout entry", 1)
    site = _index(site, len(dims), "site")
    a = config.check_array(op, "local operator", complex)
    if a.shape != (dims[site], dims[site]):
        raise LayoutError(
            f"operator of shape {a.shape} does not fit site {site} with dim {dims[site]}"
        )
    check_dim(dims)
    left = np.eye(prod(dims[:site]), dtype=complex)
    return np.kron(np.kron(left, a), np.eye(prod(dims[site + 1 :]), dtype=complex))


def apply_local(op: np.ndarray, site: int, array: np.ndarray, layout: Sequence[int]) -> np.ndarray:
    """Contract a one-site operator with subsystem ``site`` of a flat array.

    ``array`` is read in C order as the subsystems of ``layout``, then any
    trailing entries such as a density's columns; the caller checks shapes.
    Returns the ``(before, n, rest)`` view of ``embed_local(op, site, layout)
    @ array`` without that operator: the one ``dot`` on the site axis moved
    first of ``np.tensordot(op, tensor, (1, site))``, without its overhead.
    """
    before = prod(layout[:site])
    moved = array.reshape(before, layout[site], -1).transpose(1, 0, 2)
    out = np.dot(op, moved.reshape(layout[site], -1))
    return out.reshape(len(op), before, -1).transpose(1, 0, 2)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector together with its subsystem layout."""

    amplitudes: np.ndarray
    layout: tuple[int, ...]

    def __post_init__(self):
        amps = config.check_array(self.amplitudes, "amplitudes", complex).reshape(-1)
        layout = _check_layout(self.layout, amps.size)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > config.NORM_TOL:
            raise ValueError(f"state vector norm {norm!r} is not 1")
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "layout", layout)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one positive-semidefinite operator with a subsystem layout.

    ``spectrum`` keeps the ascending eigenvalues and eigenvector columns of
    the one ``eigh`` that checks positivity, for every later consumer.
    """

    matrix: np.ndarray
    layout: tuple[int, ...]
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = require_hermitian(self.matrix, name="density operator")
        layout = _check_layout(self.layout, mat.shape[0])
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > config.TRACE_TOL:
            raise ValueError(f"density operator trace {tr!r} is not 1")
        mat = _frozen(mat)
        object.__setattr__(self, "spectrum", psd_spectrum(mat, "density operator", config.PSD_SLACK))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "layout", layout)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


State = PureState | DensityOperator


def _regroup(array: np.ndarray, layout: Sequence[int], first: Sequence[int], copies: int = 1) -> np.ndarray:
    """``array`` read in C order as ``copies`` copies of ``layout`` (a density's
    rows, then its columns), each with the entries ``first`` in front in the
    order given and the others after them in ascending order: a ``(a, D // a)
    * copies`` array, ``a`` the product of the ``first`` dimensions. Entries of
    dimension 1 take no axis, so a copy takes at most ``log2(D)``."""
    big = [i for i, d in enumerate(layout) if d > 1]
    axis = dict(zip(big, range(len(big))))
    head = [axis[i] for i in first if i in axis]
    order = head + sorted(set(range(len(big))).difference(head))
    shape = [layout[i] for i in big]
    a = prod(shape[k] for k in head)
    tensor = array.reshape(shape * copies).transpose([c * len(big) + k for c in range(copies) for k in order])
    return tensor.reshape((a, prod(shape) // a) * copies)


def partial_trace(state: State, discard: Iterable[int]) -> DensityOperator:
    """Reduced density operator after discarding the listed subsystems."""
    dims = state.layout
    n = len(dims)
    gone = {_index(i, n, "subsystem index") for i in discard}
    kept = [i for i in range(n) if i not in gone]
    if not kept:
        raise LayoutError("tracing out every subsystem leaves a scalar, not a state")
    if isinstance(state, PureState):
        mat = _regroup(state.amplitudes, dims, kept)
        reduced = mat @ mat.conj().T
    else:
        reduced = np.einsum("ijkj->ik", _regroup(state.matrix, dims, kept, copies=2))
    return DensityOperator(reduced, tuple(dims[i] for i in kept))


def sensor_marginal(state: State, site: int) -> DensityOperator:
    """Reduced state of a single subsystem."""
    site = _index(site, len(state.layout), "site")
    others = [i for i in range(len(state.layout)) if i != site]
    return partial_trace(state, others)


# --- JSON wire format -------------------------------------------------------


def _entry_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _entries_from_json(items, ndim: int, where: str) -> np.ndarray:
    """Decode ``ndim`` nested axes of ``[re, im]`` pairs into complex entries.

    The nesting levels are checked and flattened one at a time, so no object
    array is built. Shapes follow numpy's rules: a level is an axis only if
    every item on it is a list and all have one length.
    """
    kind = "vector" if ndim == 1 else "matrix"
    bad_shape = f"{where}: expected a non-empty, non-ragged {kind} of [re, im] pairs"
    flat = [items]
    shape = []
    for _ in range(ndim + 1):
        if set(map(type, flat)) != {list}:
            raise FormatError(bad_shape)
        lengths = set(map(len, flat))
        if len(lengths) != 1:
            raise FormatError(bad_shape)
        shape.append(lengths.pop())
        flat = list(chain.from_iterable(flat))
    # Pairs of equal-length lists would be one axis too many.
    if shape[-1] != 2 or (all(isinstance(x, list) for x in flat) and len(set(map(len, flat))) == 1):
        raise FormatError(bad_shape)
    # float() would read a JSON boolean as 1.0 or 0.0; it is not a number.
    for t in set(map(type, flat)):
        if t is bool or not issubclass(t, (int, float)):
            raise FormatError(f"{where}: expected numbers in [re, im] pairs, got {t.__name__}")
    try:
        values = np.array(flat, dtype=float)
    except OverflowError as exc:
        raise FormatError(f"{where}: number too large for a float") from exc
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{where}: non-finite entry")
    return values.view(complex).reshape(shape[:-1])


def vector_to_json(v: np.ndarray) -> list:
    return [_entry_to_pair(complex(z)) for z in np.asarray(v, dtype=complex).reshape(-1)]


def vector_from_json(items, where: str = "vector") -> np.ndarray:
    return _entries_from_json(items, 1, where)


def matrix_to_json(a: np.ndarray) -> list:
    mat = np.asarray(a, dtype=complex)
    return [[_entry_to_pair(complex(z)) for z in row] for row in mat]


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    return _entries_from_json(rows, 2, where)
