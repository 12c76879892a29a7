"""What the audits and scenarios catch: each seeded fault below, put into
one attribute of ``qsnet.scenarios``, makes a default-seed run exit 1 (at
``--trials 20`` where the run takes trials).

These faults still pass the runs named, so those runs cannot see them yet:

- ``qfim_pure`` returning ``2F``: ``audit t1`` and ``audit t2``, where both
  sides of each comparison double together;
- ``qfim_pure`` with its off-sensor blocks zeroed: every run but
  ``scenario gradient``;
- ``resource_count`` times 1.01: every run;
- ``qcrb`` ignoring its weights: every run but ``scenario gradient``.
"""

import numpy as np
import pytest

from qsnet import QFIM, PureState, scenarios
from qsnet.cli import main


_SURROGATE = scenarios.separable_surrogate
_QFIM_PURE = scenarios.qfim_pure
_RESIDUALS = scenarios.block_inverse_residuals
_QCRB = scenarios.qcrb


def _surrogate_with(spoil):
    """``separable_surrogate`` with ``spoil`` applied to its largest
    amplitude, then renormalised."""

    def spoiled(psi, net):
        out = _SURROGATE(psi, net)
        amps = np.array(out.amplitudes)
        top = np.argmax(np.abs(amps))
        amps[top] = spoil(amps[top])
        return PureState(amps / np.linalg.norm(amps), out.layout)

    return spoiled


def _doubled_qfim(psi, net):
    fim = _QFIM_PURE(psi, net)
    return QFIM(2.0 * fim.matrix, fim.partition)


def _sensor_blocks_only(psi, net):
    fim = _QFIM_PURE(psi, net)
    mat = np.zeros_like(fim.matrix)
    for blk in fim.partition:
        idx = np.ix_(blk, blk)
        mat[idx] = fim.matrix[idx]
    return QFIM(mat, fim.partition)


def _unweighted_qcrb(fim, weights, mu=1):
    return _QCRB(fim, np.ones(fim.d), mu)


# (fault id, attribute of qsnet.scenarios, replacement, runs it fails)
FAULTS = [
    ("sign_flip", "separable_surrogate", _surrogate_with(lambda z: -z), ["audit t1", "scenario optical"]),
    ("scaled", "separable_surrogate", _surrogate_with(lambda z: z * (1 + 1e-6)), ["audit t1", "scenario optical"]),
    ("residuals_minus_1e-8", "block_inverse_residuals", lambda fim: _RESIDUALS(fim) - 1e-8, ["audit prop1"]),
    ("qfim_times_2", "qfim_pure", _doubled_qfim, ["scenario optical", "scenario gradient"]),
    ("sensor_blocks_only", "qfim_pure", _sensor_blocks_only, ["scenario gradient"]),
    ("unweighted_qcrb", "qcrb", _unweighted_qcrb, ["scenario gradient"]),
]


@pytest.mark.parametrize(
    "attribute, replacement, run",
    [
        pytest.param(attribute, replacement, run, id=f"{fault}-{run.replace(' ', '_')}")
        for fault, attribute, replacement, runs in FAULTS
        for run in runs
    ],
)
def test_fault_fails_the_run(tmp_path, monkeypatch, attribute, replacement, run):
    trials = [] if run == "scenario gradient" else ["--trials", "20"]
    argv = [*run.split(), *trials, "--out", str(tmp_path)]
    assert main(argv) == 0
    monkeypatch.setattr(scenarios, attribute, replacement)
    assert main(argv) == 1
