"""Deterministic work counts of the default CLI runs.

Wall time on a shared host drifts by tens of percent; how many
eigendecompositions a run makes and how many carriers it validates does
not. Each run below goes once through ``cli.main`` at its default
settings (``qsnet qfim`` on the golden network ``bellnet.json`` with each
golden probe under ``tests/golden/qfim_inputs/``), with
``np.linalg.eigh`` and ``np.linalg.eigvalsh`` counted and each carrier's
``__post_init__`` (one per construction) counted. The first column counts
the interpreter's work: the calls of named functions defined in
``src/qsnet`` (methods included), from ``sys.setprofile``. Frames named
``<...>`` (comprehensions, generator expressions, lambdas) are left out,
so Python 3.12's inlined comprehensions do not move it. A change that
moves a count on purpose updates the number here and says why. For
example, ``qfim_mixed`` factors each generator from one ``eigh`` on its
own sensor and calls no ``apply_local``: each call makes one ``eigh`` more
and one named call fewer per parameter (722 of each in ``audit t2``, 4 in
``qfim mixed.json``).
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import profiled_calls

import qsnet
from qsnet import QFIM, SensorNetwork, SensorSpec
from qsnet.cli import main
from qsnet.hilbert import DensityOperator, PureState

QFIM_INPUTS = Path(__file__).resolve().parent / "golden" / "qfim_inputs"
SRC = Path(qsnet.__file__).resolve().parent
CARRIERS = (QFIM, PureState, DensityOperator, SensorSpec, SensorNetwork)

# run: (calls, eigh, eigvalsh, QFIM, PureState, DensityOperator, SensorSpec, SensorNetwork)
COUNTS = {
    "audit t1": (56796, 1083, 0, 483, 483, 0, 871, 283),
    "audit t2": (77876, 2039, 0, 614, 903, 703, 1218, 614),
    "audit prop1": (54845, 5878, 4678, 1200, 0, 0, 0, 0),
    "scenario optical": (7956, 206, 0, 103, 103, 0, 2, 2),
    "scenario gradient": (341, 6, 0, 2, 2, 0, 2, 2),
    "qfim mixed.json": (209, 9, 3, 1, 0, 1, 3, 1),
    "qfim haar.json": (208, 4, 3, 1, 1, 0, 3, 1),
    "qfim bellpure.json": (191, 1, 0, 1, 1, 0, 3, 1),
}


def _argv(run: str) -> list[str]:
    command, arg = run.split()
    if command == "qfim":
        return [command, str(QFIM_INPUTS / "bellnet.json"), str(QFIM_INPUTS / arg)]
    return [command, arg]


def _counted(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _named_src_calls(calls) -> int:
    return sum(
        n
        for code, n in calls.items()
        if not code.co_name.startswith("<") and Path(code.co_filename).resolve().parent == SRC
    )


@pytest.mark.parametrize("run", list(COUNTS))
def test_default_run_work_counts(run, monkeypatch, tmp_path, capsys):
    counts = dict.fromkeys(("calls", "eigh", "eigvalsh", *(c.__name__ for c in CARRIERS)), 0)
    for name in ("eigh", "eigvalsh"):
        _counted(monkeypatch, np.linalg, name, counts, name)
    for carrier in CARRIERS:
        _counted(monkeypatch, carrier, "__post_init__", counts, carrier.__name__)
    code, calls = profiled_calls(lambda: main([*_argv(run), "--out", str(tmp_path)]))
    assert code == 0
    capsys.readouterr()
    counts["calls"] = _named_src_calls(calls)
    assert tuple(counts.values()) == COUNTS[run], dict(counts)
