"""Numerical tolerances, size limits and the integer, positive-number and
array checks shared across the package."""

import math
import os
from numbers import Integral, Real

import numpy as np

from .exceptions import FormatError

# Invariant tolerances for the core carriers.
HERMITICITY_TOL = 1e-12   # relative to the largest entry magnitude
NORM_TOL = 1e-12          # pure-state normalization slack
TRACE_TOL = 1e-12         # density-operator trace slack
PSD_SLACK = 1e-10         # admissible negative eigenvalue from roundoff

# Operation preconditions.
COMMUTE_TOL = 1e-9        # times max(1, max|G|): off-diagonal room of each generator in the joint eigenbasis

# Fisher-information support handling.
RANK_TOL_FACTOR = 1e-10   # times the largest eigenvalue: support cutoff
RANK_TOL_FLOOR = 1e-14    # absolute floor so all-roundoff matrices read as rank 0

# Classical Fisher information from outcome probabilities.
CFIM_PROB_FLOOR = 1e-12   # outcomes below this probability are skipped

DEFAULT_MAX_DIM = 4096


def check_int(value, name: str, minimum: int = 1) -> int:
    """``value`` as an ``int``; anything but an integer (numpy integers included, booleans
    not) from ``minimum`` to ``2**63 - 1``, numpy's int64 limit, raises ``ValueError``."""
    # An exact int skips the Integral check, an ABC lookup that dominates hot callers.
    plain = type(value) is int
    if not plain and (isinstance(value, bool) or not isinstance(value, Integral)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    if value > 2**63 - 1:
        raise ValueError(f"{name} must be at most 2**63 - 1, got {_shown(value)}")
    return int(value)


def _shown(value) -> str:
    """``repr(value)``, but only the sign and size of an int past 2**64, which
    can have more digits than Python converts to a string."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


def check_positive(value, name: str) -> float:
    """``value`` as a ``float``; anything but a finite positive real number
    (numpy scalars included, booleans not) raises ``ValueError``."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range, such as 10**400
            number = math.inf
        if 0.0 < number < math.inf:
            return number
    raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def check_array(value, name: str, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``; anything but integer or real
    entries (complex too when ``dtype`` is ``complex``; booleans, strings and
    objects never), or a non-finite entry, raises ``ValueError``."""
    arr = np.asarray(value)
    if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        numbers = "integer, real or complex" if dtype is complex else "integer or real"
        raise ValueError(f"{name} must hold {numbers} numbers, got dtype {arr.dtype}")
    arr = arr.astype(dtype, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def max_dim() -> int:
    """Hard cap on any Hilbert-space dimension built by this package.

    The environment variable ``QSN_MAX_DIM`` overrides the default; it
    must hold a positive integer.
    """
    value = os.environ.get("QSN_MAX_DIM")
    if value is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise FormatError(f"QSN_MAX_DIM must be a positive integer, got {value!r}")
    return cap
