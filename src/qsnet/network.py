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

from dataclasses import dataclass
from itertools import combinations
from math import prod
import numpy as np

from . import config
from .exceptions import FormatError, LayoutError, NoncommutingGeneratorsError, located
from .hilbert import (
    DensityOperator,
    PureState,
    State,
    _frozen,
    apply_local,
    check_dim,
    commutator,
    embed_local,
    expm_i,
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


def _local_operator(op, dim: int, name: str) -> np.ndarray:
    """A read-only copy of the Hermitian ``dim x dim`` operator ``op``."""
    mat = require_hermitian(op, name=name)
    if mat.shape != (dim, dim):
        raise LayoutError(f"{name} has shape {mat.shape}, sensor dim {dim}")
    return _frozen(mat)


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
        gens = tuple(_local_operator(g, dim, f"generator {i}") for i, g in enumerate(self.generators))
        res = _local_operator(self.resource_op, dim, "resource operator")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "resource_op", res)

    @property
    def n_params(self) -> int:
        return len(self.generators)

    def require_commuting(self) -> None:
        """Raise :class:`NoncommutingGeneratorsError` unless the generators
        commute mutually within ``config.COMMUTE_TOL``."""
        for (i, a), (j, b) in combinations(enumerate(self.generators), 2):
            defect = float(np.max(np.abs(commutator(a, b))))
            if defect > config.COMMUTE_TOL:
                raise NoncommutingGeneratorsError(
                    f"generators {i} and {j} do not commute (defect {defect:.3e})"
                )


@dataclass(frozen=True)
class SensorNetwork:
    sensors: tuple[SensorSpec, ...]

    def __post_init__(self):
        sensors = tuple(self.sensors)
        if not sensors:
            raise ValueError("a network needs at least one sensor")
        if sum(s.n_params for s in sensors) < 1:
            raise ValueError("a network needs at least one parameter")
        check_dim(prod(s.dim for s in sensors))
        object.__setattr__(self, "sensors", sensors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.sensors)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def n_params(self) -> int:
        return sum(s.n_params for s in self.sensors)

    @property
    def partition(self) -> tuple[tuple[int, ...], ...]:
        """Global parameter indices per sensor, ancilla sensors skipped."""
        blocks = []
        start = 0
        for s in self.sensors:
            if s.n_params:
                blocks.append(tuple(range(start, start + s.n_params)))
                start += s.n_params
        return tuple(blocks)

    def require_layout(self, state: State) -> None:
        """Raise :class:`LayoutError` unless ``state`` lives on this
        network's sensor dimensions."""
        if state.layout != self.dims:
            raise LayoutError(f"state layout {state.layout} does not match network {self.dims}")


def global_generators(net: SensorNetwork) -> list[np.ndarray]:
    """Every parameter's generator embedded into the full network space,
    in global parameter order."""
    return [embed_local(g, site, net.dims) for site, s in enumerate(net.sensors) for g in s.generators]


def _check_phi(net: SensorNetwork, phi) -> np.ndarray:
    values = config.check_array(phi, "parameter point").reshape(-1)
    if values.size != net.n_params:
        raise LayoutError(f"expected {net.n_params} parameters, got {values.size}")
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
    offset = 0
    for site, s in enumerate(net.sensors):
        if s.n_params == 0:
            continue
        exponent = np.zeros((s.dim, s.dim), dtype=complex)
        for j, g in enumerate(s.generators):
            exponent += values[offset + j] * g
        offset += s.n_params
        unitaries.append((site, expm_i(exponent)))
    if isinstance(state, PureState):
        tensor = state.amplitudes.reshape(net.dims)
        for site, u in unitaries:
            tensor = apply_local(u, site, tensor)
        return PureState(tensor.reshape(-1), state.layout)
    n = len(net.dims)
    tensor = state.matrix.reshape(net.dims + net.dims)
    for site, u in unitaries:
        tensor = apply_local(u.conj(), n + site, apply_local(u, site, tensor))
    return DensityOperator(tensor.reshape(state.dim, state.dim), state.layout)


def resource_count(net: SensorNetwork, state: State) -> float:
    """Total resources ``sum_k Re Tr[R_k rho_k]`` over the sensor marginals.

    Each ``R_k`` is contracted on its own axis of the state, which is
    ``Tr[(R_k x I) rho]``; no marginal is traced out or decomposed.
    """
    net.require_layout(state)
    if isinstance(state, PureState):
        tensor = state.amplitudes.reshape(net.dims)
        terms = (np.vdot(tensor, apply_local(s.resource_op, k, tensor)) for k, s in enumerate(net.sensors))
    else:
        rows = state.matrix.reshape(net.dims + (state.dim,))
        terms = (
            np.trace(apply_local(s.resource_op, k, rows).reshape(state.dim, state.dim))
            for k, s in enumerate(net.sensors)
        )
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
