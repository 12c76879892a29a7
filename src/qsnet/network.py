"""Sensor-network model: local generators, parameter partition, resources.

A network is an ordered list of sensors. Sensor ``k`` carries the Hermitian
generators of the parameters written into it and one Hermitian resource
operator. Parameters are numbered globally in sensor order, which induces
the partition used everywhere for block-structured Fisher analysis.

The parameter encoding is the product unitary
``U(phi) = prod_k exp(-i * sum_{j in P_k} phi_j H_j)`` acting on the full
space; Fisher-information quantities are evaluated at the fiducial point
``phi = 0``, where the exponent coefficients coincide with the generators
even when a sensor's generators do not commute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import config
from .exceptions import FormatError, LayoutError, located
from .hilbert import (
    DensityOperator,
    PureState,
    State,
    _frozen,
    apply_local,
    check_dim,
    embed_local,
    matrix_from_json,
    matrix_to_json,
    require_hermitian,
)

__all__ = [
    "SensorSpec",
    "SensorNetwork",
    "global_generators",
    "encode",
    "resource_count",
    "doubled",
    "with_collective_ancilla",
    "network_to_json",
    "network_from_json",
]


@dataclass(frozen=True)
class SensorSpec:
    """One sensor: local dimension, parameter generators, resource operator.

    An empty generator tuple marks a pure ancilla; it contributes no
    parameters but still takes part in resource counting.
    """

    dim: int
    generators: tuple[np.ndarray, ...]
    resource_op: np.ndarray

    def __post_init__(self):
        dim = config.check_int(self.dim, "sensor dimension")
        gens = tuple(_frozen(require_hermitian(g, name=f"generator {i}", dim=dim)) for i, g in enumerate(self.generators))
        res = _frozen(require_hermitian(self.resource_op, name="resource operator", dim=dim))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "resource_op", res)

    @property
    def n_params(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class SensorNetwork:
    """Ordered sensors. The validator computes their layout once and keeps
    it: ``dims``, ``total_dim`` (within the cap) and ``partition``, the
    global parameter indices of each sensor, ancilla sensors skipped."""

    sensors: tuple[SensorSpec, ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)
    partition: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sensors = tuple(self.sensors)
        if not sensors:
            raise ValueError("a network needs at least one sensor")
        partition, start = [], 0
        for i, s in enumerate(sensors):
            if not isinstance(s, SensorSpec):
                raise TypeError(f"sensor {i} must be a SensorSpec, got {type(s).__name__}")
            if s.n_params:
                partition.append(tuple(range(start, start + s.n_params)))
                start += s.n_params
        if not partition:
            raise ValueError("a network needs at least one parameter")
        dims = tuple(s.dim for s in sensors)
        object.__setattr__(self, "total_dim", check_dim(dims))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "partition", tuple(partition))

    @property
    def n_params(self) -> int:
        return self.partition[-1][-1] + 1

    def require_layout(self, state: State) -> None:
        """Raise :class:`LayoutError` unless ``state`` lives on this
        network's sensor dimensions, naming the layouts' lengths, not their
        entries: a layout can be of any length."""
        ours, theirs = self.dims, state.layout
        if theirs != ours:
            first = next((i for i, (a, b) in enumerate(zip(theirs, ours)) if a != b), min(len(theirs), len(ours)))
            raise LayoutError(
                f"state layout of length {len(theirs)} (dim {state.dim}) does not match network layout "
                f"of length {len(ours)} (dim {self.total_dim}); they first differ at position {first}"
            )


def global_generators(net: SensorNetwork) -> list[np.ndarray]:
    """Every parameter's generator embedded into the full network space,
    in global parameter order."""
    return [embed_local(g, site, net.dims) for site, s in enumerate(net.sensors) for g in s.generators]


def _check_phi(net: SensorNetwork, phi) -> np.ndarray:
    values = config.check_array(phi, "parameter point")
    if values.shape != (net.n_params,):
        raise LayoutError(f"expected {net.n_params} parameters, got shape {values.shape}")
    return values


def encode(net: SensorNetwork, state: State, phi) -> State:
    """Apply the product encoding unitary for the parameter point ``phi``.

    Each sensor's unitary acts on its own axis of the state tensor: on the
    row axis as ``U`` and on the column axis as ``conj(U)`` for a density
    operator. Parameter-free sensors are left untouched.
    """
    values = _check_phi(net, phi)
    net.require_layout(state)
    unitaries = []
    blocks = iter(net.partition)
    for site, s in enumerate(net.sensors):
        if s.n_params == 0:
            continue
        exponent = np.zeros((s.dim, s.dim), dtype=complex)
        for j, g in zip(next(blocks), s.generators):
            exponent += values[j] * g
        w, v = np.linalg.eigh(exponent)
        unitaries.append((site, (v * np.exp(-1j * w)) @ v.conj().T))
    if isinstance(state, PureState):
        amps = state.amplitudes
        for site, u in unitaries:
            amps = apply_local(u, site, amps, net.dims)
        return PureState(amps.reshape(-1), state.layout)
    # A density's columns follow its rows as a second copy of the layout.
    both, mat = net.dims + net.dims, state.matrix
    for site, u in unitaries:
        mat = apply_local(u.conj(), len(net.dims) + site, apply_local(u, site, mat, both), both)
    return DensityOperator(mat.reshape(state.dim, -1), state.layout)


def resource_count(net: SensorNetwork, state: State) -> float:
    """Total resources ``sum_k Re Tr[R_k rho_k]`` over the sensor marginals.

    Each ``R_k`` is contracted on its own axis of the state, which is
    ``Tr[(R_k x I) rho]``; no marginal is traced out or decomposed.
    """
    net.require_layout(state)
    if isinstance(state, PureState):
        amps = state.amplitudes
        terms = (np.vdot(amps, apply_local(s.resource_op, k, amps, net.dims)) for k, s in enumerate(net.sensors))
    else:
        rows = (apply_local(s.resource_op, k, state.matrix, net.dims) for k, s in enumerate(net.sensors))
        terms = (np.trace(r.reshape(net.total_dim, -1)) for r in rows)
    return float(sum(np.real(t) for t in terms))


def doubled(net: SensorNetwork) -> SensorNetwork:
    """Sensor-plus-local-ancilla network.

    Every sensor is followed by an ancilla of the same dimension carrying no
    parameters and a mirrored resource operator, so ancilla resources count
    on an equal footing with sensor resources.
    """
    out = []
    for s in net.sensors:
        out.append(s)
        out.append(SensorSpec(s.dim, (), s.resource_op))
    return SensorNetwork(tuple(out))


def with_collective_ancilla(net: SensorNetwork) -> SensorNetwork:
    """Original sensors plus a single parameter-free ancilla of the full
    network dimension (the target space for one global purification).
    Ancilla resources are not counted here (zero resource operator)."""
    ancilla = SensorSpec(net.total_dim, (), np.zeros((net.total_dim, net.total_dim)))
    return SensorNetwork(net.sensors + (ancilla,))


# --- strict JSON ingestion ---------------------------------------------------


def network_to_json(net: SensorNetwork) -> dict:
    return {
        "sensors": [
            {
                "dim": s.dim,
                "generators": [matrix_to_json(g) for g in s.generators],
                "resource": matrix_to_json(s.resource_op),
            }
            for s in net.sensors
        ]
    }


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    got = set(obj)
    if got != keys:
        unknown = sorted(got - keys)
        missing = sorted(keys - got)
        parts = []
        if unknown:
            parts.append(f"unknown fields {unknown}")
        if missing:
            parts.append(f"missing fields {missing}")
        raise FormatError(f"{where}: " + "; ".join(parts))


def network_from_json(obj) -> SensorNetwork:
    """Build a network from the wire format, rejecting unknown fields."""
    if not isinstance(obj, dict):
        raise FormatError("network document must be a JSON object")
    _require_keys(obj, {"sensors"}, "network")
    raw_sensors = obj["sensors"]
    if not isinstance(raw_sensors, list):
        raise FormatError("network.sensors must be a list")
    sensors = []
    for i, raw in enumerate(raw_sensors):
        where = f"sensors[{i}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where}: expected an object")
        _require_keys(raw, {"dim", "generators", "resource"}, where)
        raw_gens = raw["generators"]
        if not isinstance(raw_gens, list):
            raise FormatError(f"{where}.generators: expected a list of matrices")
        gens = [
            matrix_from_json(g, where=f"{where}.generators[{j}]")
            for j, g in enumerate(raw_gens)
        ]
        resource = matrix_from_json(raw["resource"], where=f"{where}.resource")
        sensors.append(located(where, SensorSpec, raw["dim"], tuple(gens), resource))
    return located("network", SensorNetwork, tuple(sensors))
