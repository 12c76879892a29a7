"""Closed-form variance bounds for estimating one linear functional.

For a unit-norm signed coefficient vector ``v``, generators of equal
per-particle spectral width ``kappa``, a budget of ``N`` particles and
``mu`` repeats (bounds and particle allocations depend on ``|v|`` only):

* best sensor-separable probes, allocated by ``separable_allocation``, obey
  ``Var >= ||v||_{2/3}^2 / (mu kappa^2 N^2)``, which itself dominates the
  weaker ``||v||_1^3 / (mu kappa^2 N^2)`` form;
* the GHZ-like sensor-entangled probe, allocated by ``ghz_allocation``, reaches
  ``Var >= ||v||_1^2 / (mu kappa^2 N^2)``.

The ratio of the two is the entanglement advantage; it peaks at ``d`` for
the uniform functional over ``d`` sensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_array, check_int, check_positive
from .reporting import Report

__all__ = [
    "LinearFunctional",
    "BoundComparison",
    "pnorm",
    "separable_bound",
    "ghz_bound",
    "enhancement_ratio",
    "compare",
]

# Magnitudes below this underflow fractional powers; they cannot move any
# bound and are dropped.
_TINY = 1e-300


def pnorm(v, p: float) -> float:
    """``(sum_k |v_k|^p)^(1/p)`` for ``p > 0`` (quasi-norm below 1 allowed)."""
    vec = np.abs(check_array(v, "vector").reshape(-1))
    if vec.size == 0:
        raise ValueError("empty vector")
    p = check_positive(p, "p")
    keep = vec[vec > _TINY]
    if keep.size == 0:
        return 0.0
    top = float(keep.max())
    return top * float(np.sum((keep / top) ** p)) ** (1.0 / p)


def unit_vector(v, name: str) -> np.ndarray:
    """``v`` as a 1-D float array; raises unless it is finite with unit
    2-norm (within 1e-9)."""
    vec = check_array(v, name)
    if vec.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{name} must have unit 2-norm, got {norm!r}")
    return vec


@dataclass(frozen=True)
class LinearFunctional:
    """Estimation target ``theta = v . phi`` with its resource accounting.

    ``v`` is signed with unit 2-norm; the bounds and both particle
    allocations depend on ``|v|`` only. ``kappa`` is the per-particle
    spectral width of the (identical) sensor generators; ``n_particles`` is
    the particle budget and ``repeats`` the number of experiment repeats.
    """

    v: np.ndarray
    kappa: float
    n_particles: int
    repeats: int = 1

    def __post_init__(self):
        vec = unit_vector(self.v, "coefficient vector")
        vec.setflags(write=False)
        object.__setattr__(self, "v", vec)
        object.__setattr__(self, "kappa", check_positive(self.kappa, "kappa"))
        object.__setattr__(self, "n_particles", check_int(self.n_particles, "particle budget"))
        object.__setattr__(self, "repeats", check_int(self.repeats, "mu"))
        if not (self._denominator() > 0.0 and all(0.0 < b(self) < np.inf for b in (separable_bound, ghz_bound))):
            raise ValueError(f"kappa = {self.kappa!r} with N = {self.n_particles}, mu = {self.repeats} puts a bound past the float range")

    @property
    def d(self) -> int:
        return self.v.size

    def ghz_allocation(self) -> np.ndarray:
        """Integer per-sensor particle counts ``N |v| / ||v||_1``.

        Raises ``ValueError`` naming the first sensor whose count is more
        than 1e-9 from an integer: no GHZ probe of this toolkit then
        certifies the closed-form bound. A budget past ``2**53`` raises too,
        as for :meth:`separable_allocation`.
        """
        self._require_exact_budget()
        tilde = self.n_particles * np.abs(self.v) / pnorm(self.v, 1.0)
        counts = np.rint(tilde)
        off = np.flatnonzero(np.abs(tilde - counts) > 1e-9)
        if off.size:
            k = int(off[0])
            raise ValueError(f"allocation N*|v|/||v||_1 is not integral at sensor {k}: {float(tilde[k])!r}")
        return counts.astype(int)

    def separable_allocation(self) -> np.ndarray:
        """Integer per-sensor particle counts of the best separable probe.

        Minimizes ``sum_k v_k^2 / w_k^2`` over integer allocations with
        ``sum w_k = N``. Every sensor with ``|v_k|`` above ``pnorm``'s
        1e-300 cut gets at least one particle (a budget too small for that,
        or past ``2**53``, where float counts are inexact, raises
        ``ValueError``). Sensor ``k`` starts at
        ``max(1, floor((N - d) a_k / sum(a)) - 1)``, ``a = |v|^(2/3)`` over the
        ``d`` weighted sensors, one below a lower bound on its optimal count,
        so at most ``3 d`` particles are left; each goes to the sensor whose
        cost drops most, ``v_k^2 / w_k^2 - v_k^2 / (w_k + 1)^2``. The cost is
        separable and convex in each ``w_k``, so this marginal greedy
        allocation is exact (Fox 1966; Ibaraki & Katoh, Resource Allocation
        Problems, 1988). Drops within 1e-12 relative of the largest count as
        tied, and ties go to the highest index, which returns the
        lexicographically first minimizer.
        """
        self._require_exact_budget()
        weighted = np.abs(self.v) > _TINY
        if self.n_particles < int(weighted.sum()):
            raise ValueError("budget too small: some weighted sensor would get no particles")
        a = np.where(weighted, np.abs(self.v), 0.0) ** (2.0 / 3.0)
        start = np.floor((self.n_particles - int(weighted.sum())) * a / a.sum()) - 1.0
        w = np.where(weighted, np.maximum(1.0, start), 0.0).astype(int)
        sq = self.v**2
        for _ in range(self.n_particles - int(w.sum())):
            # v^2 (2w + 1) / (w (w + 1))^2: the drop without cancellation at large w.
            drop = np.where(w > 0, sq * (2.0 * w + 1.0) / np.maximum(w * (w + 1.0), 1.0) ** 2, -np.inf)
            w[np.nonzero(drop >= drop.max() * (1.0 - 1e-12))[0][-1]] += 1
        return w

    def _require_exact_budget(self) -> None:
        # Both allocations count particles in floats, exact only up to 2**53.
        if self.n_particles > 2**53:
            raise ValueError(f"particle budget {self.n_particles} is past 2**53, where float counts are inexact")

    def _denominator(self) -> float:
        # Without float **, which raises on overflow; the exact integer part first.
        return self.repeats * self.n_particles * self.n_particles * self.kappa * self.kappa


def separable_bound(f: LinearFunctional) -> float:
    """``||v||_{2/3}^2 / (mu kappa^2 N^2)``, the separable-probe floor."""
    return pnorm(f.v, 2.0 / 3.0) ** 2 / f._denominator()


def ghz_bound(f: LinearFunctional) -> float:
    """``||v||_1^2 / (mu kappa^2 N^2)``, reached by the GHZ-like probe."""
    return pnorm(f.v, 1.0) ** 2 / f._denominator()


def enhancement_ratio(f: LinearFunctional) -> float:
    """Separable-over-entangled variance ratio ``(||v||_{2/3} / ||v||_1)^2``.

    Lies in ``[1, d]``; equals 1 only for single-sensor functionals and
    peaks at ``d`` for the uniform one.
    """
    return separable_bound(f) / ghz_bound(f)


@dataclass(frozen=True)
class BoundComparison(Report):
    """Closed-form bound pair for one functional, ready for report rows."""

    d: int
    n_particles: int
    kappa: float
    repeats: int
    separable: float
    ghz: float
    ratio: float
    ghz_constructible: bool

    KEYS = {"n_particles": "N", "repeats": "mu", "separable": "sep_bound", "ghz": "ghz_bound"}
    CSV_HEADER = ("d", "N", "kappa", "mu", "sep_bound", "ghz_bound", "ratio")


def compare(f: LinearFunctional) -> BoundComparison:
    try:
        f.ghz_allocation()
        constructible = True
    except ValueError:
        constructible = False
    return BoundComparison(
        d=f.d,
        n_particles=f.n_particles,
        kappa=f.kappa,
        repeats=f.repeats,
        separable=separable_bound(f),
        ghz=ghz_bound(f),
        ratio=enhancement_ratio(f),
        ghz_constructible=constructible,
    )
