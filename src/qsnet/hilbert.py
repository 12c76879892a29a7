"""Dense complex linear algebra on small tensor-product Hilbert spaces.

Plain complex ndarrays carry every operator. :class:`PureState` and
:class:`DensityOperator` add subsystem-layout bookkeeping and invariant
checks on top; both freeze their arrays, so instances are safe to share.
A density operator holds its ``spectrum`` from the one eigendecomposition
that validates it; purification and the mixed-state Fisher information
read it rather than factoring the matrix again.

Matrices exchanged with the outside world use a JSON encoding where every
entry is a ``[re, im]`` pair: a vector is a list of pairs, a matrix a list
of rows of pairs. Decoding checks and flattens one nesting level at a time
(tuples and ndarrays are read like lists) and converts the flat numbers in
one call, so a D x D density never passes through an object array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "identity",
    "require_hermitian",
    "commutator",
    "kron_all",
    "embed_local",
    "expm_i",
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


def check_dim(dim: int) -> None:
    """Raise :class:`DimensionLimitError` if ``dim`` exceeds the cap."""
    cap = config.max_dim()
    if dim > cap:
        raise DimensionLimitError(f"dimension {dim} exceeds the cap {cap} (QSN_MAX_DIM)")


def layout_ints(values, name: str, minimum: int = 0) -> tuple[int, ...]:
    """Subsystem dimensions or indices as ``int``s through
    :func:`config.check_int`; anything else raises :class:`LayoutError`."""
    try:
        return tuple([config.check_int(v, name, minimum) for v in values])
    except ValueError as exc:
        raise LayoutError(str(exc)) from None


def _check_layout(layout, dim: int) -> tuple[int, ...]:
    """A state's ``layout`` as ``int``s whose product is ``dim``, within the cap."""
    dims = layout_ints(layout, "layout entry", 1)
    if prod(dims) != dim:
        raise LayoutError(f"layout {dims} implies dim {prod(dims)}, the state has dim {dim}")
    check_dim(dim)
    return dims


SIGMA_X = _frozen([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = _frozen([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = _frozen([[1.0, 0.0], [0.0, -1.0]])


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def require_hermitian(op, tol: float | None = None, name: str = "operator") -> np.ndarray:
    """Validate hermiticity (relative to the largest entry) and return the array."""
    a = config.check_array(op, name, complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    tol = config.HERMITICITY_TOL if tol is None else tol
    scale = float(abs(a).max()) if a.size else 0.0
    defect = float(abs(a - a.conj().T).max()) if a.size else 0.0
    if defect > tol * max(scale, 1.0):
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return a


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def kron_all(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a list of matrices, or of a list of vectors.

    The configured dimension cap is checked on every axis of the running
    product before it is allocated.
    """
    if not ops:
        raise ValueError("empty operator list")
    factors = [config.check_array(op, f"factor {i}", complex) for i, op in enumerate(ops)]
    if factors[0].ndim not in (1, 2) or any(f.ndim != factors[0].ndim for f in factors):
        raise ValueError("kron_all expects matrices only or vectors only")
    out = factors[0]
    for f in factors[1:]:
        for m, n in zip(out.shape, f.shape):
            check_dim(m * n)
        out = np.kron(out, f)
    return out


def embed_local(op, site: int, layout: Sequence[int]) -> np.ndarray:
    """Extend a local operator to ``I x ... x op x ... x I`` in layout order."""
    dims = tuple(int(d) for d in layout)
    if not 0 <= site < len(dims):
        raise LayoutError(f"site {site} outside layout of length {len(dims)}")
    a = config.check_array(op, "local operator", complex)
    if a.shape != (dims[site], dims[site]):
        raise LayoutError(
            f"operator of shape {a.shape} does not fit site {site} with dim {dims[site]}"
        )
    check_dim(prod(dims))
    left = identity(prod(dims[:site]))
    return np.kron(np.kron(left, a), identity(prod(dims[site + 1 :])))


def apply_local(op: np.ndarray, site: int, tensor: np.ndarray) -> np.ndarray:
    """Contract a one-site operator with axis ``site`` of a state tensor.

    Equals ``embed_local(op, site, layout) @ state`` on the flattened axes
    of the layout, without building the full-space operator; the caller
    checks the shapes. It is ``np.tensordot(op, tensor, (1, site))`` with
    the axis moved back, the same single ``dot``, without its overhead.
    """
    rest = [*range(site), *range(site + 1, tensor.ndim)]
    moved = tensor.transpose([site, *rest])
    out = np.dot(op, moved.reshape(op.shape[1], -1)).reshape(moved.shape)
    return out.transpose([*range(1, site + 1), 0, *range(site + 1, tensor.ndim)])


def expm_i(op, angle: float = 1.0) -> np.ndarray:
    """Unitary ``exp(-i * angle * op)`` for Hermitian ``op``, via eigh."""
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    w, v = np.linalg.eigh(require_hermitian(op))
    phases = np.exp(-1j * angle * w)
    return (v * phases) @ v.conj().T


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

    def density(self) -> "DensityOperator":
        outer = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(outer, self.layout)


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
        spectrum = np.linalg.eigh(mat)
        lo = float(spectrum[0][0])
        if lo < -config.PSD_SLACK:
            raise ValueError(f"density operator has eigenvalue {lo:.3e} < -{config.PSD_SLACK}")
        for part in spectrum:
            part.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "spectrum", tuple(spectrum))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


State = PureState | DensityOperator


def partial_trace(state: State, discard: Iterable[int]) -> DensityOperator:
    """Reduced density operator after discarding the listed subsystems."""
    dims = state.layout
    n = len(dims)
    dropped = sorted(set(layout_ints(discard, "subsystem index")))
    for i in dropped:
        if i >= n:
            raise LayoutError(f"subsystem index {i} outside layout of length {n}")
    kept = [i for i in range(n) if i not in dropped]
    if not kept:
        raise LayoutError("tracing out every subsystem leaves a scalar, not a state")
    keep_dim = prod(dims[i] for i in kept)
    drop_dim = prod(dims[i] for i in dropped)
    if isinstance(state, PureState):
        tensor = state.amplitudes.reshape(dims)
        mat = tensor.transpose(kept + dropped).reshape(keep_dim, drop_dim)
        reduced = mat @ mat.conj().T
    else:
        perm = kept + dropped
        tensor = state.matrix.reshape(dims + dims)
        tensor = tensor.transpose(perm + [n + p for p in perm])
        tensor = tensor.reshape(keep_dim, drop_dim, keep_dim, drop_dim)
        reduced = np.einsum("ijkj->ik", tensor)
    return DensityOperator(reduced, tuple(dims[i] for i in kept))


def sensor_marginal(state: State, site: int) -> DensityOperator:
    """Reduced state of a single subsystem."""
    others = [i for i in range(len(state.layout)) if i != site]
    return partial_trace(state, others)


# --- JSON wire format -------------------------------------------------------


def _entry_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _is_sequence(x) -> bool:
    """Whether numpy's nesting rules would descend into ``x``."""
    return isinstance(x, (list, tuple)) or (isinstance(x, np.ndarray) and x.ndim > 0)


def _entries_from_json(items, ndim: int, where: str) -> np.ndarray:
    """Decode ``ndim`` nested axes of ``[re, im]`` pairs into complex entries.

    The nesting levels are checked and flattened one at a time, so no object
    array is built. Shapes follow numpy's rules: a level is an axis only if
    every item on it is a sequence and all have one length.
    """
    kind = "vector" if ndim == 1 else "matrix"
    bad_shape = f"{where}: expected a non-empty, non-ragged {kind} of [re, im] pairs"
    flat = [items]
    shape = []
    for _ in range(ndim + 1):
        if not set(map(type, flat)) <= {list, tuple}:
            if not all(map(_is_sequence, flat)):
                raise FormatError(bad_shape)
            flat = [x.tolist() if isinstance(x, np.ndarray) else x for x in flat]
        lengths = set(map(len, flat))
        if len(lengths) != 1:
            raise FormatError(bad_shape)
        shape.append(lengths.pop())
        flat = list(chain.from_iterable(flat))
    # Pairs of equal-length sequences would be one axis too many.
    if shape[-1] != 2 or (all(map(_is_sequence, flat)) and len(set(map(len, flat))) == 1):
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
