"""Golden reports: small CLI runs compared against committed reports.

The files under ``tests/golden/`` were written by the CLI before the
refactors that followed them. Integers, booleans and strings
(``inputs_sha256`` included) must match exactly; floats may drift by
``rel_tol=1e-9`` or by the report's ``tol`` (default ``1e-9``), so a
change that reorders float arithmetic on purpose is checked against the
same files. CSV reports are compared cell by cell under the same rule.
The first stdout line of each audit and scenario run, its summary, is
pinned as exact text. ``qsnet qfim`` reports are pinned for the probes
under ``tests/golden/qfim_inputs/`` on one network: a qubit sensor with
two non-commuting generators next to two single-generator qubits (D = 8).
"""

import json
import math
from pathlib import Path

import pytest

from conftest import run_python
from qsnet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (["audit", "t1", "--trials", "5"], "audit_t1.json"),
    (["audit", "t2", "--trials", "5"], "audit_t2.json"),
    (["audit", "prop1", "--trials", "20"], "audit_prop1.json"),
    (["scenario", "gradient"], "scenario_gradient.json"),
    (["scenario", "optical", "--trials", "5"], "scenario_optical.json"),
    (["bounds", "sweep"], "bounds_sweep.json"),
]

CSV_CASES = [
    (["audit", "t1", "--trials", "5"], "audit_t1.csv"),
    (["audit", "t2", "--trials", "5"], "audit_t2.csv"),
    (["audit", "prop1", "--trials", "20"], "audit_prop1.csv"),
    (["scenario", "gradient"], "scenario_gradient.csv"),
    (["scenario", "optical", "--trials", "5"], "scenario_optical.csv"),
    (["bounds", "sweep"], "bounds_sweep.csv"),
]

# (state file under qfim_inputs/, golden report); the network is bellnet.json.
QFIM_CASES = [
    ("haar.json", "qfim_haar.json"),  # Haar-random pure probe
    ("mixed.json", "qfim_mixed.json"),  # full-rank mixed probe
    ("bellpure.json", "qfim_bell.json"),  # Bell pair on the two last sensors: singular, undetermined [2, 3]
]

SUMMARIES = [
    (
        ["audit", "t1", "--trials", "5"],
        "separable_surrogate: trials=5 regenerated=3 max_violation=4.774e-15 max_structure_defect=3.246e-16 PASS",
    ),
    (
        ["audit", "t2", "--trials", "5"],
        "local_purification: trials=5 regenerated=0 max_violation=7.105e-15 max_structure_defect=2.939e-16 PASS",
    ),
    (
        ["audit", "prop1", "--trials", "20"],
        "block_inverse: trials=24 regenerated=0 max_violation=3.634e-14 max_structure_defect=0.000e+00 PASS",
    ),
    (["scenario", "gradient"], "gradient: N=4 ratio=2 PASS"),
    (["scenario", "optical", "--trials", "5"], "optical: modes=2 cutoff=3 max_violation=5.329e-15 PASS"),
]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _mismatches(got, want, tol: float, where: str = "$") -> list[str]:
    # Reports print an integral float like an int, so a float on either
    # side makes the pair a float comparison.
    if _is_number(got) and _is_number(want) and float in (type(got), type(want)):
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=tol):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], tol, f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want)) for m in _mismatches(a, b, tol, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("argv,report", CASES, ids=[name for _, name in CASES])
def test_report_matches_golden(tmp_path, argv, report):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / report).read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / report).read_text(encoding="utf-8"))
    assert _mismatches(got, want, want.get("tol", 1e-9)) == []


@pytest.mark.parametrize("state,report", QFIM_CASES, ids=[name for _, name in QFIM_CASES])
def test_qfim_report_matches_golden(tmp_path, state, report):
    inputs = GOLDEN / "qfim_inputs"
    assert main(["qfim", str(inputs / "bellnet.json"), str(inputs / state), "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "qfim.json").read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / report).read_text(encoding="utf-8"))
    assert _mismatches(got, want, 1e-9) == []


def _csv_cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_csv(path: Path) -> list[list]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[_csv_cell(cell) for cell in line.split(",")] for line in lines]


@pytest.mark.parametrize("argv,report", CSV_CASES, ids=[name for _, name in CSV_CASES])
def test_csv_report_matches_golden(tmp_path, argv, report):
    assert main(argv + ["--format", "csv", "--out", str(tmp_path)]) == 0
    got = _read_csv(tmp_path / report)
    want = _read_csv(GOLDEN / report)
    header = want[0]
    tol = want[1][header.index("tol")] if "tol" in header else 1e-9
    assert _mismatches(got, want, tol) == []


@pytest.mark.parametrize("argv,line", SUMMARIES, ids=[argv[1] for argv, _ in SUMMARIES])
def test_summary_line_matches_golden(tmp_path, capsys, argv, line):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line


def test_piped_console_run_writes_everything_at_exit(tmp_path):
    # Importing qsnet.cli freezes the heap; a process that exits with it
    # frozen still flushes its piped stdout and writes its report.
    argv = ["audit", "t2", "--trials", "5"]
    run = run_python("-m", "qsnet.cli", *argv, "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    summary = dict((tuple(a), line) for a, line in SUMMARIES)[tuple(argv)]
    assert run.stdout == f"{summary}\nreport: {tmp_path / 'audit_t2.json'}\n"
    got = json.loads((tmp_path / "audit_t2.json").read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / "audit_t2.json").read_text(encoding="utf-8"))
    assert _mismatches(got, want, want.get("tol", 1e-9)) == []


def test_comparison_catches_drift():
    want = {"bound": 1.0, "sha": "ab", "n": 3, "ok": True}
    assert _mismatches(dict(want, bound=1.0 + 1e-12), want, 1e-9) == []
    assert _mismatches(dict(want, bound=1.1), want, 1e-9)
    assert _mismatches(dict(want, sha="ac"), want, 1e-9)
    assert _mismatches(dict(want, n=4), want, 1e-9)
    assert _mismatches(dict(want, ok=1), want, 1e-9)
    assert _mismatches({"ratio": 2.0000000000000004}, {"ratio": 2}, 1e-9) == []


def test_csv_cells_are_typed():
    assert [_csv_cell(x) for x in ["3", "1.5e-09", "true", "optical"]] == [3, 1.5e-09, "true", "optical"]
    assert _mismatches([[_csv_cell("2.0000000000000004")]], [[_csv_cell("2")]], 1e-9) == []
    assert _mismatches([[_csv_cell("false")]], [[_csv_cell("true")]], 1e-9)
