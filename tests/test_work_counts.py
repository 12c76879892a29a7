"""Deterministic work counts of the default CLI runs.

Wall time on a shared host drifts by tens of percent; how many
eigendecompositions a run makes and how many carriers it validates does
not. Each run below goes once through ``cli.main`` at its default
settings, with ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` counted and
each carrier's ``__post_init__`` (one per construction) counted. A change
that moves a count on purpose updates the number here and says why.
"""

import numpy as np
import pytest

from qsnet import QFIM, SensorNetwork, SensorSpec
from qsnet.cli import main
from qsnet.hilbert import DensityOperator, PureState

CARRIERS = (QFIM, PureState, DensityOperator, SensorSpec, SensorNetwork)

# run: (eigh, eigvalsh, QFIM, PureState, DensityOperator, SensorSpec, SensorNetwork)
COUNTS = {
    "audit t1": (1083, 0, 483, 483, 0, 871, 283),
    "audit t2": (1317, 0, 614, 903, 703, 1218, 614),
    "audit prop1": (5878, 4678, 1200, 0, 0, 0, 0),
    "scenario optical": (207, 0, 104, 106, 0, 6, 2),
    "scenario gradient": (8, 0, 4, 4, 0, 6, 2),
}


def _counted(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("run", list(COUNTS))
def test_default_run_work_counts(run, monkeypatch, tmp_path, capsys):
    counts = dict.fromkeys(("eigh", "eigvalsh", *(c.__name__ for c in CARRIERS)), 0)
    for name in ("eigh", "eigvalsh"):
        _counted(monkeypatch, np.linalg, name, counts, name)
    for carrier in CARRIERS:
        _counted(monkeypatch, carrier, "__post_init__", counts, carrier.__name__)
    assert main([*run.split(), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert tuple(counts.values()) == COUNTS[run], dict(counts)
