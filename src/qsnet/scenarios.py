"""Seeded randomized audits and canned desk-scale experiments.

Every audit is deterministic given its configuration: trial ``t`` draws
from an independent generator stream derived from ``(seed, draw index)``,
and results serialize to byte-identical JSON through
:mod:`qsnet.reporting`. Draws whose information matrices are too close to
singular for the absolute tolerances to mean anything are regenerated and
counted, never silently dropped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .bounds import LinearFunctional, compare, separable_bound
from .config import check_int, check_positive
from .exceptions import FormatError
from .fisher import (
    QFIM,
    block_inverse_residuals,
    orthogonal_completion,
    qcrb,
    qfim_mixed,
    qfim_pure,
    rotate_qfim,
)
from .hilbert import PureState, check_dim, commutator, identity, kron_all
from .network import (
    SensorNetwork,
    SensorSpec,
    doubled,
    resource_count,
    with_collective_ancilla,
)
from .reporting import sha256_of_arrays
from .sampling import _ginibre, haar_state, haar_unitary, random_density, random_spd, trial_rng
from .states import (
    SensorFamily,
    extremal_superposition,
    ghz_probe,
    local_purification_probe,
    optimal_separable_probe,
    product_defect,
    purify,
    separable_surrogate,
)

__all__ = [
    "ScenarioConfig",
    "AuditResult",
    "GradientReport",
    "OpticalReport",
    "scenario_config_from_json",
    "qubit_ensemble_family",
    "truncated_mode_family",
    "audit_separable_surrogate",
    "audit_local_purification",
    "audit_block_inverse",
    "gradient_scenario",
    "optical_phase_scenario",
]

# Trials whose original information matrix has min eigenvalue below this
# fraction of max(1, largest eigenvalue) are regenerated: the absolute
# bound tolerances lose meaning once the inverse blows up.
_COND_GUARD = 1e-2

# Smallest admissible value of each integer field of ScenarioConfig.
_INT_MINIMUM = dict(seed=0, trials=1, n_particles=1, n_modes=1, mode_cutoff=1, mu=1, max_matrix_dim=2)


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one audit or canned experiment."""

    seed: int = 0
    trials: int = 200
    tol: float = 1e-9
    n_particles: int = 4
    n_modes: int = 2
    mode_cutoff: int = 3
    mu: int = 1
    max_matrix_dim: int = 12

    def __post_init__(self):
        for name, minimum in _INT_MINIMUM.items():
            object.__setattr__(self, name, check_int(getattr(self, name), name, minimum))
        object.__setattr__(self, "tol", check_positive(self.tol, "tol"))

    @property
    def structure_tol(self) -> float:
        """Tighter tolerance for exact structural checks (product form,
        forced equality cases)."""
        return self.tol / 10.0


def scenario_config_from_json(
    obj, base: ScenarioConfig = ScenarioConfig()
) -> tuple[str | None, ScenarioConfig]:
    """Override the fields of ``base`` that a JSON document sets; fields the
    document omits keep their ``base`` values.

    Only what JSON adds is checked here: the document must be an object,
    its optional ``"scenario"`` entry a string, and every other key a
    :class:`ScenarioConfig` field. The values are checked by
    :class:`ScenarioConfig` itself; a value it refuses raises
    :class:`FormatError` with the same message as in the Python API.

    The ``"scenario"`` entry names the audit or experiment the config is
    meant for; it is returned alongside the config so callers can
    cross-check it against what they are about to run.
    """
    if not isinstance(obj, dict):
        raise FormatError("scenario config must be a JSON object")
    settings = dict(obj)
    name = settings.pop("scenario", None)
    unknown = sorted(set(settings) - {f.name for f in fields(ScenarioConfig)})
    if unknown:
        raise FormatError(f"scenario config: unknown fields {unknown}")
    if name is not None and not isinstance(name, str):
        raise FormatError("scenario config: 'scenario' must be a string")
    try:
        return name, replace(base, **settings)
    except ValueError as exc:
        raise FormatError(f"scenario config: {exc}") from exc


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one randomized audit.

    ``max_violation`` is the worst signed violation over all inequality and
    equality checks run at ``tol``; ``max_structure_defect`` collects the
    structural checks held to ``structure_tol``. The audit passes iff both
    stay within their tolerances.
    """

    name: str
    seed: int
    trials: int
    tol: float
    structure_tol: float
    max_violation: float
    max_structure_defect: float
    regenerated: int
    passed: bool
    records: tuple[dict, ...]

    CSV_HEADER = ("name", "seed", "trials", "tol", "max_violation", "max_structure_defect", "regenerated", "passed")

    def to_jsonable(self) -> dict:
        return asdict(self)

    def csv_row(self) -> list:
        return [getattr(self, h) for h in self.CSV_HEADER]

    def summary(self) -> str:
        counts = f"{self.name}: trials={self.trials} regenerated={self.regenerated}"
        return f"{counts} max_violation={self.max_violation:.3e} max_structure_defect={self.max_structure_defect:.3e}"


def _finish(name, cfg, violation, structure, regenerated, records) -> AuditResult:
    return AuditResult(
        name=name,
        seed=cfg.seed,
        trials=len(records),
        tol=cfg.tol,
        structure_tol=cfg.structure_tol,
        max_violation=violation,
        max_structure_defect=structure,
        regenerated=regenerated,
        passed=bool(violation <= cfg.tol and structure <= cfg.structure_tol),
        records=tuple(records),
    )


# --- sensor families ---------------------------------------------------------


def qubit_ensemble_family() -> SensorFamily:
    """Collective-spin sensors of ``n`` qubits in their symmetric sector.

    ``sensor_for(n)`` is the ``(n+1)``-dimensional span of the Dicke
    states, basis state ``m`` holding ``m`` flipped qubits. The generator
    ``J_z = (1/2) sum_j sigma_z_j`` restricted there is ``diag(n/2 - m)``
    (spectral width ``n``, so ``kappa = 1``); the resource operator counts
    atoms, ``n`` times the identity. The sector is invariant under ``J_z``
    and holds both of its extremal eigenvectors, so every probe built here
    has the same Fisher information as in the full ``2**n`` space.
    """

    def build(n: int) -> SensorSpec:
        n = check_int(n, "particle count", 0)
        check_dim(n + 1)
        jz = np.diag(n / 2.0 - np.arange(n + 1)).astype(complex)
        return SensorSpec(n + 1, (jz,), float(n) * identity(n + 1))

    return SensorFamily(kappa=1.0, sensor_for=build)


def truncated_mode_family() -> SensorFamily:
    """Optical modes truncated at the allocated photon number.

    ``sensor_for(n)`` is an ``(n+1)``-level space whose generator and
    resource operator are both the number operator ``diag(0..n)``
    (``kappa = 1``).
    """

    def build(n: int) -> SensorSpec:
        n = check_int(n, "particle count", 0)
        check_dim(n + 1)
        num = np.diag(np.arange(n + 1, dtype=float)).astype(complex)
        return SensorSpec(n + 1, (num,), num)

    return SensorFamily(kappa=1.0, sensor_for=build)


# --- random network ensembles ------------------------------------------------


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = _ginibre(dim, rng)
    return (g + g.conj().T) / (2.0 * np.sqrt(dim))


def _with_spectrum(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian operator with eigenvector columns ``basis`` and eigenvalues
    ``values``, symmetrized against roundoff."""
    op = (basis * values) @ basis.conj().T
    return (op + op.conj().T) / 2


def _shared_basis_sensor(dim: int, n_gens: int, rng: np.random.Generator) -> SensorSpec:
    """Sensor whose generators and resource operator share one random
    eigenbasis, so the generators commute exactly and resources are
    conserved and eigenbasis-diagonal."""
    basis = haar_unitary(dim, rng)
    gens = tuple(_with_spectrum(basis, rng.uniform(-1.0, 1.0, dim)) for _ in range(n_gens))
    return SensorSpec(dim, gens, _with_spectrum(basis, rng.uniform(0.0, 2.0, dim)))


def _random_commuting_network(rng: np.random.Generator) -> SensorNetwork:
    n_sensors = int(rng.integers(2, 5))
    sensors = []
    for _ in range(n_sensors):
        dim = int(rng.integers(2, 5))
        # A dim-level sensor supports at most dim - 1 independent commuting
        # parameters (centered spectra span dim - 1 directions).
        n_gens = int(rng.integers(1, min(3, dim)))
        sensors.append(_shared_basis_sensor(dim, n_gens, rng))
    return SensorNetwork(tuple(sensors))


def _random_mixed_regime_network(rng: np.random.Generator) -> SensorNetwork:
    """2-3 sensors, exactly one of which carries two non-commuting
    generators."""
    n_sensors = int(rng.integers(2, 4))
    nc_site = int(rng.integers(0, n_sensors))
    sensors = []
    for site in range(n_sensors):
        dim = int(rng.integers(2, 4))
        if site == nc_site:
            while True:
                a = _random_hermitian(dim, rng)
                b = _random_hermitian(dim, rng)
                if float(np.max(np.abs(commutator(a, b)))) > 1e-3:
                    break
            gens: tuple = (a, b)
        else:
            gens = (_random_hermitian(dim, rng),)
        basis = haar_unitary(dim, rng)
        sensors.append(SensorSpec(dim, gens, _with_spectrum(basis, rng.uniform(0.0, 2.0, dim))))
    return SensorNetwork(tuple(sensors))


def _network_hash(net: SensorNetwork, *extra) -> str:
    arrays = []
    for s in net.sensors:
        arrays.extend(s.generators)
        arrays.append(s.resource_op)
    arrays.extend(extra)
    return sha256_of_arrays(*arrays)


def _block_defect(reference: QFIM, fim: QFIM) -> float:
    """Largest deviation of ``fim`` from the diagonal blocks of ``reference``
    (and from zero outside them)."""
    target = _zero_off_blocks(reference.matrix, reference.partition)
    return float(np.max(np.abs(fim.matrix - target)))


def _too_singular(fim: QFIM) -> bool:
    w = fim.spectrum[0]
    return bool(w[0] < _COND_GUARD * max(1.0, float(w[-1])))


# --- audits -------------------------------------------------------------------


def _run_trials(cfg: ScenarioConfig, trial, first_draw: int = 0) -> tuple[float, float, int, list[dict]]:
    """Draw until ``cfg.trials`` trials are accepted, at most ``10 * trials``
    draws counted from ``first_draw``.

    Draw ``t`` hands ``trial_rng(cfg.seed, t)`` to ``trial``, which returns
    ``None`` to ask for a regeneration, otherwise its record, the values
    checked against ``tol`` (possibly none) and its structure defect.
    Returns the worst violation, the worst structure defect, the
    regenerated count and the records. Every audit draws here, so every
    audit record carries its ``trial`` and ``draw`` index.
    """
    records: list[dict] = []
    violation = -np.inf
    structure = -np.inf
    regenerated = 0
    draw = first_draw
    while len(records) < cfg.trials:
        if draw >= first_draw + 10 * cfg.trials:
            raise RuntimeError("regeneration cap exceeded; loosen the conditioning guard")
        out = trial(trial_rng(cfg.seed, draw))
        draw += 1
        if out is None:
            regenerated += 1
            continue
        record, checks, defect = out
        violation = max((violation, *checks))
        structure = max(structure, defect)
        records.append({"trial": len(records), "draw": draw - 1, **record})
    return violation, structure, regenerated, records


def _surrogate_trial(net: SensorNetwork, psi: PureState, weights: np.ndarray, **extra):
    """One commuting-regime comparison of a probe against its separable
    surrogate, as a :func:`_run_trials` outcome whose record also carries
    ``extra``; ``None`` asks for a regeneration."""
    fim = qfim_pure(psi, net)
    if _too_singular(fim):
        return None
    surrogate = separable_surrogate(psi, net)
    fim_s = qfim_pure(surrogate, net)
    block_defect = _block_defect(fim, fim_s)
    bound_orig = qcrb(fim, weights, 1).bound
    bound_surr = qcrb(fim_s, weights, 1).bound
    res_orig = resource_count(net, psi)
    res_surr = resource_count(net, surrogate)
    record = {
        "inputs_sha256": _network_hash(net, psi.amplitudes, weights),
        **extra,
        "product_defect": product_defect(surrogate),
        "block_defect": block_defect,
        "bound_original": bound_orig,
        "bound_surrogate": bound_surr,
        "bound_violation": bound_surr - bound_orig,
        "resources_original": res_orig,
        "resources_surrogate": res_surr,
        "resource_violation": res_surr - res_orig,
    }
    checks = (block_defect, record["bound_violation"], record["resource_violation"])
    return record, checks, record["product_defect"]


def audit_separable_surrogate(cfg: ScenarioConfig) -> AuditResult:
    """Randomized audit of the commuting-generator separable surrogate.

    Per trial, on a random commuting network with a Haar-random pure probe
    and random diagonal weights: the surrogate must (a) be a product across
    sensors, (b) reproduce the diagonal information blocks, (c) not worsen
    the weighted scalar bound, (d) not increase the resource count (the
    resource operators are diagonal in the generator eigenbasis by
    construction).
    """

    def trial(rng):
        net = _random_commuting_network(rng)
        psi = haar_state(net.total_dim, net.dims, rng)
        weights = rng.uniform(0.0, 1.0, net.n_params)
        return _surrogate_trial(net, psi, weights, dims=list(net.dims), n_params=net.n_params)

    return _finish("separable_surrogate", cfg, *_run_trials(cfg, trial))


def audit_local_purification(cfg: ScenarioConfig) -> AuditResult:
    """Randomized audit of the sensor-local purification construction.

    Per trial, on a network with one non-commuting-generator sensor and a
    random mixed probe: the product of per-sensor purifications on the
    doubled space must reproduce the diagonal information blocks of a
    global purification, its weighted scalar bound must not exceed the
    global purification's, and it must consume at most twice the probe's
    resources (ancilla resources counted like sensor resources).
    """

    def trial(rng):
        net = _random_mixed_regime_network(rng)
        rho = random_density(net.total_dim, net.dims, rng)
        anc_net = with_collective_ancilla(net)
        psi_global = purify(rho)
        fim_global = qfim_pure(psi_global, anc_net)
        fim_rho = qfim_mixed(rho, net)
        if _too_singular(fim_global) or _too_singular(fim_rho):
            return None
        dnet = doubled(net)
        probe = local_purification_probe(rho, net)
        fim_local = qfim_pure(probe, dnet)
        block_defect = _block_defect(fim_global, fim_local)
        weights = rng.uniform(0.0, 1.0, net.n_params)
        bound_global = qcrb(fim_global, weights, 1).bound
        bound_local = qcrb(fim_local, weights, 1).bound
        res_orig = resource_count(net, rho)
        res_local = resource_count(dnet, probe)
        pairs = [(2 * k, 2 * k + 1) for k in range(len(net.sensors))]
        defect = product_defect(probe, groups=pairs)
        record = {
            "inputs_sha256": _network_hash(net, rho.matrix, weights),
            "dims": list(net.dims),
            "n_params": net.n_params,
            "block_defect": block_defect,
            "pair_product_defect": defect,
            "bound_global_purification": bound_global,
            "bound_local_purification": bound_local,
            "bound_violation": bound_local - bound_global,
            "resources_original": res_orig,
            "resources_doubled": res_local,
            "resource_violation": res_local - 2.0 * res_orig,
        }
        return record, (block_defect, record["bound_violation"], record["resource_violation"]), defect

    return _finish("local_purification", cfg, *_run_trials(cfg, trial))


def _random_partition(d: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    n_blocks = int(rng.integers(1, d + 1))
    cuts = np.sort(rng.choice(np.arange(1, d), size=n_blocks - 1, replace=False)) if n_blocks > 1 else np.array([], dtype=int)
    edges = [0, *cuts.tolist(), d]
    return tuple(tuple(range(a, b)) for a, b in zip(edges[:-1], edges[1:]))


def _zero_off_blocks(mat: np.ndarray, partition) -> np.ndarray:
    out = np.zeros_like(mat)
    for blk in partition:
        idx = np.asarray(blk)
        out[np.ix_(idx, idx)] = mat[np.ix_(idx, idx)]
    return out


def audit_block_inverse(cfg: ScenarioConfig) -> AuditResult:
    """Randomized audit of the block-inverse inequality.

    For random positive-definite matrices and random contiguous partitions,
    every block of the inverse must dominate the inverse of the block,
    ``[F^-1]_[kk] >= [F_[kk]]^-1``. On top of ``cfg.trials`` general draws,
    one fifth as many forced block-diagonal trials check the equality case
    at the tighter structural tolerance; their draws start at
    ``10 * trials``, past any draw the general pass can reach. The result's
    ``trials`` field counts both kinds, numbered on from the general ones
    (records carry a ``kind`` tag as well as ``trial`` and ``draw``).
    """

    def trial(rng, kind):
        d = int(rng.integers(2, cfg.max_matrix_dim + 1))
        partition = _random_partition(d, rng)
        mat = random_spd(d, rng)
        if kind == "block_diagonal":
            mat = _zero_off_blocks(mat, partition)
        residuals = block_inverse_residuals(QFIM(mat, partition))
        record = {"kind": kind, "inputs_sha256": sha256_of_arrays(mat), "d": d, "n_blocks": len(partition)}
        if kind == "general":
            record["min_residual"] = float(residuals.min())
            return record, (-record["min_residual"],), -np.inf
        record["abs_residual"] = float(np.max(np.abs(residuals)))
        return record, (), record["abs_residual"]

    violation, _, regen_general, general = _run_trials(cfg, lambda rng: trial(rng, "general"))
    diagonal_cfg = replace(cfg, trials=max(1, cfg.trials // 5))
    _, structure, regen_diagonal, diagonal = _run_trials(
        diagonal_cfg, lambda rng: trial(rng, "block_diagonal"), first_draw=10 * cfg.trials
    )
    records = [{**r, "trial": i} for i, r in enumerate(general + diagonal)]
    return _finish("block_inverse", cfg, violation, structure, regen_general + regen_diagonal, records)


# --- canned scenarios ---------------------------------------------------------


@dataclass(frozen=True)
class GradientReport:
    """Two-site field-difference estimation with ``N`` qubits."""

    n_particles: int
    mu: int
    var_entangled: float
    var_separable: float
    ratio: float
    closed_form_entangled: float
    closed_form_separable: float
    closed_form_ratio: float
    sum_sensitivity: float
    allocation: tuple[int, ...]
    entangled_singular_for_both_params: bool
    separable_bound_both_params: float
    defects: dict
    passed: bool

    CSV_HEADER = ("scenario", "N", "mu", "var_entangled", "var_separable", "ratio", "passed")

    def to_jsonable(self) -> dict:
        doc = asdict(self)
        doc["N"] = doc.pop("n_particles")
        return {"scenario": "gradient", **doc}

    def csv_row(self) -> list:
        return ["gradient", self.n_particles, self.mu, self.var_entangled, self.var_separable, self.ratio, self.passed]

    def summary(self) -> str:
        return f"gradient: N={self.n_particles} ratio={self.ratio:.12g}"


def gradient_scenario(cfg: ScenarioConfig) -> GradientReport:
    """Estimate the difference of two site fields with ``N`` qubits.

    The sensor-entangled probe is :func:`qsnet.states.ghz_probe` for the
    signed functional ``v = (-1, 1)/sqrt(2)``: it superposes the two
    anti-aligned collective extremes and halves the variance of the best
    separable strategy (one local GHZ-like state per site). Its rotated
    information matrix is insensitive to the sum parameter, so for the
    both-parameters task the separable probe wins instead.
    """
    n = cfg.n_particles
    if n < 2 or n % 2:
        raise FormatError("gradient scenario needs an even particle count >= 2")
    family = qubit_ensemble_family()
    functional = LinearFunctional(np.array([-1.0, 1.0]) / np.sqrt(2.0), family.kappa, n, cfg.mu)
    psi, net = ghz_probe(functional.v, n, family)
    fim = qfim_pure(psi, net)

    rotation = orthogonal_completion(functional.v)
    fim_rotated = rotate_qfim(fim, rotation)
    report_ent = qcrb(fim_rotated, [1.0, 0.0], cfg.mu)
    sum_sensitivity = abs(float(fim_rotated.matrix[1, 1]))

    sep_state, sep_net, allocation = optimal_separable_probe(functional.v, n, family)
    fim_sep = qfim_pure(sep_state, sep_net)
    report_sep = qcrb(rotate_qfim(fim_sep, rotation), [1.0, 0.0], cfg.mu)

    closed = compare(functional)
    ratio = report_sep.bound / report_ent.bound

    both_ent = qcrb(fim, [1.0, 1.0], cfg.mu)
    both_sep = qcrb(fim_sep, [1.0, 1.0], cfg.mu)

    defects = {
        "ratio": abs(ratio - 2.0),
        "state_vs_closed_entangled": abs(report_ent.bound - closed.ghz),
        "state_vs_closed_separable": abs(report_sep.bound - closed.separable),
        "ratio_vs_enhancement": abs(ratio - closed.ratio),
    }
    passed = (
        max(defects.values()) <= cfg.tol
        and sum_sensitivity <= cfg.structure_tol
        and both_ent.singular
        and not both_sep.singular
    )
    return GradientReport(
        n_particles=n,
        mu=cfg.mu,
        var_entangled=report_ent.bound,
        var_separable=report_sep.bound,
        ratio=ratio,
        closed_form_entangled=closed.ghz,
        closed_form_separable=closed.separable,
        closed_form_ratio=closed.ratio,
        sum_sensitivity=sum_sensitivity,
        allocation=tuple(int(w) for w in allocation),
        entangled_singular_for_both_params=both_ent.singular,
        separable_bound_both_params=both_sep.bound,
        defects=defects,
        passed=bool(passed),
    )


@dataclass(frozen=True)
class OpticalReport:
    """Multi-mode phase estimation on truncated oscillators."""

    n_modes: int
    cutoff: int
    per_mode_qfi: tuple[float, ...]
    vacuum_flagged: bool
    surrogate_trials: int
    surrogate_max_violation: float
    surrogate_max_product_defect: float
    regenerated: int
    truncation_weights: tuple[float, ...]
    truncation_flagged: tuple[bool, ...]
    allocation: tuple[int, ...]
    allocation_bound: float
    analytic_bound: float
    passed: bool
    records: tuple[dict, ...]

    CSV_HEADER = ("scenario", "modes", "cutoff", "trials", "max_violation", "vacuum_flagged", "passed")

    def to_jsonable(self) -> dict:
        doc = asdict(self)
        doc["modes"] = doc.pop("n_modes")
        return {"scenario": "optical_phases", **doc}

    def csv_row(self) -> list:
        return ["optical", self.n_modes, self.cutoff, self.surrogate_trials, self.surrogate_max_violation, self.vacuum_flagged, self.passed]

    def summary(self) -> str:
        return f"optical: modes={self.n_modes} cutoff={self.cutoff} max_violation={self.surrogate_max_violation:.3e}"


def _top_level_weights(psi: PureState) -> np.ndarray:
    """Per-mode probability of sitting at the truncation level."""
    dims = psi.layout
    tensor = np.abs(psi.amplitudes.reshape(dims)) ** 2
    weights = []
    for m, dim in enumerate(dims):
        sl = [slice(None)] * len(dims)
        sl[m] = dim - 1
        weights.append(float(np.sum(tensor[tuple(sl)])))
    return np.array(weights)


def optical_phase_scenario(cfg: ScenarioConfig) -> OpticalReport:
    """Phase estimation across ``n_modes`` truncated modes.

    Reports the information of the designed extremal product probe, flags
    the vacuum probe as fully undetermined, runs surrogate comparisons on
    Haar-random (generally mode-entangled) probes, and demonstrates the
    photon-allocation search. Probes putting more than ``1e-12`` weight on
    the truncation level are flagged: results remain exact for the
    truncated model, but stop representing an untruncated mode.
    """
    family = truncated_mode_family()
    net = SensorNetwork((family.sensor_for(cfg.mode_cutoff),) * cfg.n_modes)
    if cfg.n_particles < cfg.n_modes:
        raise FormatError("budget too small: some weighted sensor would get no particles")

    factor = extremal_superposition(family, cfg.mode_cutoff).amplitudes
    designed_probe = PureState(kron_all([factor] * cfg.n_modes), net.dims)
    fim_designed = qfim_pure(designed_probe, net)
    per_mode_qfi = tuple(float(x) for x in np.diag(fim_designed.matrix))

    vacuum = np.zeros(net.total_dim, dtype=complex)
    vacuum[0] = 1.0
    fim_vacuum = qfim_pure(PureState(vacuum, net.dims), net)
    vacuum_report = qcrb(fim_vacuum, np.ones(net.n_params), cfg.mu)
    vacuum_flagged = vacuum_report.singular and vacuum_report.support_dim == 0

    def trial(rng):
        psi = haar_state(net.total_dim, net.dims, rng)
        weights = rng.uniform(0.0, 1.0, net.n_params)
        top = float(_top_level_weights(psi).max())
        return _surrogate_trial(net, psi, weights, truncation_weight=top)

    violation, structure, regenerated, records = _run_trials(cfg, trial)

    uniform = np.ones(cfg.n_modes) / np.sqrt(cfg.n_modes)
    alloc_state, alloc_net, allocation = optimal_separable_probe(uniform, cfg.n_particles, family)
    fim_alloc = qfim_pure(alloc_state, alloc_net)
    alloc_bound = qcrb(rotate_qfim(fim_alloc, orthogonal_completion(uniform)), np.eye(cfg.n_modes)[0], cfg.mu).bound
    analytic = separable_bound(LinearFunctional(uniform, family.kappa, cfg.n_particles, cfg.mu))

    designed_top = _top_level_weights(designed_probe)
    passed = (
        violation <= cfg.tol
        and structure <= cfg.structure_tol
        and vacuum_flagged
        and max(abs(q - cfg.mode_cutoff**2) for q in per_mode_qfi) <= cfg.tol
        and alloc_bound >= analytic - cfg.tol
    )
    return OpticalReport(
        n_modes=cfg.n_modes,
        cutoff=cfg.mode_cutoff,
        per_mode_qfi=per_mode_qfi,
        vacuum_flagged=vacuum_flagged,
        surrogate_trials=len(records),
        surrogate_max_violation=violation,
        surrogate_max_product_defect=structure,
        regenerated=regenerated,
        truncation_weights=tuple(float(x) for x in designed_top),
        truncation_flagged=tuple(bool(x > 1e-12) for x in designed_top),
        allocation=tuple(int(w) for w in allocation),
        allocation_bound=alloc_bound,
        analytic_bound=analytic,
        passed=bool(passed),
        records=tuple(records),
    )
