"""The benchmark's workloads: CLI arguments, seeded inputs, output checks.

Every workload draws its inputs from a small pool of variants whose
reference outputs were recorded with ``record_refs.py`` (see NOTES.md).
A run's ``--seed`` picks the variant for the ``qfim`` workloads and the
order in which an audit run walks its pool.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

# Variants with a recorded reference per workload.
POOL = 8
# Relative agreement required of a qfim report with its reference.
QFIM_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    audit: str | None = None  # audit kind for `qsnet audit`, None for `qsnet qfim`
    trials: int = 0
    sensors: int = 0  # qfim: qubit sensors in the generated network
    mixed: bool = False  # qfim: full-rank density probe instead of a pure one

    @property
    def report_name(self) -> str:
        return f"audit_{self.audit}.json" if self.audit else "qfim.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit_t1", audit="t1", trials=100),
        Workload("audit_t2", audit="t2", trials=50),
        Workload("qfim_pure_large", sensors=11),
        Workload("qfim_mixed_mid", sensors=9, mixed=True),
    )
}


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation of a workload, with the reference it must match."""

    variant: int
    argv: tuple[str, ...]
    report: Path


def plan(workload: Workload, seed: int, work: Path) -> list[Invocation]:
    """Invocations one run cycles through; the first is the traced one.

    Audit runs walk the whole pool in a seed-shuffled order, so every run
    times the same inputs and only the order and the traced variant change.
    A ``qfim`` run repeats one seed-chosen variant, whose cost does not
    depend on the drawn values.
    """
    out = work / "out"
    report = out / workload.report_name
    if workload.audit:
        order = list(range(POOL))
        random.Random(seed).shuffle(order)
        return [
            Invocation(v, ("audit", workload.audit, "--seed", str(v), "--trials", str(workload.trials), "--out", str(out)), report)
            for v in order
        ]
    variant = seed % POOL
    net_path, state_path = write_qfim_inputs(workload, variant, work / "inputs")
    return [Invocation(variant, ("qfim", str(net_path), str(state_path), "--out", str(out)), report)]


def qubit_network(n_sensors: int, generators):
    """``n_sensors`` identical qubit sensors with resource ``|1><1|``."""
    from qsnet.network import SensorNetwork, SensorSpec

    sensor = SensorSpec(2, tuple(generators), np.diag([0.0, 1.0]))
    return SensorNetwork((sensor,) * n_sensors)


def haar_vector(dim: int, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def ginibre_density(dim: int, rng):
    """Full-rank density ``G G^dag / tr`` from a square complex Ginibre ``G``.

    ``qsnet.sampling.random_density`` would draw a ``dim * dim`` joint
    state, which exceeds the default dimension cap above ``dim = 64``.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / rho.trace().real


def write_qfim_inputs(workload: Workload, variant: int, directory: Path) -> tuple[Path, Path]:
    """Write the network and state files of one ``qfim`` variant with
    qsnet's own wire-format writers."""
    from qsnet.hilbert import SIGMA_X, SIGMA_Z, matrix_to_json, vector_to_json
    from qsnet.network import network_to_json

    rng = np.random.default_rng([variant, workload.sensors, int(workload.mixed)])
    if workload.mixed:
        net = qubit_network(workload.sensors, (SIGMA_Z / 2,))
        state = matrix_to_json(ginibre_density(net.total_dim, rng))
    else:
        net = qubit_network(workload.sensors, (SIGMA_Z / 2, SIGMA_X / 2))
        state = vector_to_json(haar_vector(net.total_dim, rng))
    directory.mkdir(parents=True, exist_ok=True)
    net_path = directory / f"{workload.name}_{variant}_network.json"
    state_path = directory / f"{workload.name}_{variant}_state.json"
    net_path.write_text(json.dumps(network_to_json(net)), encoding="utf-8")
    state_path.write_text(json.dumps(state), encoding="utf-8")
    return net_path, state_path


# --- references and output checks -------------------------------------------


def _record_columns(records: list[dict]) -> dict[str, list]:
    """Per-record bounds and violations, one column per field."""
    keys = [k for k in records[0] if "bound" in k or "violation" in k] if records else []
    return {k: [r[k] for r in records] for k in keys}


def reference_from_report(workload: Workload, data: bytes) -> dict:
    """The reference entry a report is checked against later."""
    doc = json.loads(data)
    ref = {"report_sha256": hashlib.sha256(data).hexdigest()}
    if workload.audit:
        ref.update(trials=doc["trials"], regenerated=doc["regenerated"], records=_record_columns(doc["records"]))
    else:
        ref.update(qfim=doc["qfim"], bound=doc["bound"])
    return ref


def load_refs(workload: Workload) -> dict[int, dict]:
    path = REFS_DIR / f"{workload.name}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {int(k): v for k, v in doc["entries"].items()}


def _close(a, b, atol: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= atol
    return a == b  # reports spell non-finite floats as "inf" or "nan"


def check_report(workload: Workload, data: bytes, ref: dict) -> list[str]:
    """Problems with one report against its reference; empty when it passes.

    Byte identity is not required here: reordered float arithmetic may
    drift within the audit's ``tol`` or the qfim relative tolerance.
    """
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if workload.audit:
        if doc.get("passed") is not True:
            problems.append("audit did not pass")
        for key in ("trials", "regenerated"):
            if doc.get(key) != ref[key]:
                problems.append(f"{key} = {doc.get(key)!r}, reference {ref[key]!r}")
        tol = doc.get("tol", 0.0)
        got = _record_columns(doc.get("records", []))
        for key, want in ref["records"].items():
            have = got.get(key, [])
            if len(have) != len(want) or not all(_close(a, b, tol) for a, b in zip(have, want)):
                problems.append(f"records.{key} differ from the reference by more than tol={tol}")
    else:
        want = ref["qfim"]
        have = doc.get("qfim", [])
        scale = max(abs(x) for row in want for x in row)
        shape_ok = len(have) == len(want) and all(len(a) == len(b) for a, b in zip(have, want))
        if not shape_ok or any(
            not _close(a, b, QFIM_RTOL * scale) for ra, rb in zip(have, want) for a, b in zip(ra, rb)
        ):
            problems.append(f"qfim differs from the reference by more than {QFIM_RTOL} relative")
        bound, want_bound = doc.get("bound"), ref["bound"]
        if not _close(bound, want_bound, QFIM_RTOL * abs(want_bound) if isinstance(want_bound, float) else 0.0):
            problems.append(f"bound = {bound!r}, reference {want_bound!r}")
    return problems
