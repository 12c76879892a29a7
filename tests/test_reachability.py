"""Code that no command reaches is pinned.

The default commands run in process under ``sys.setprofile``, which records
every Python function entered. The function definitions in ``src/qsnet``
(methods and nested functions included) that none of them enters must be
exactly the pinned list below. So a new function that only tests call fails
this test, and so does a pinned one that a command starts to reach.
"""

import ast
import os
from pathlib import Path

from conftest import profiled_calls

import qsnet
from qsnet.cli import main

SRC = Path(qsnet.__file__).resolve().parent
QFIM_INPUTS = Path(__file__).parent / "golden" / "qfim_inputs"

COMMANDS = [
    ["audit", "t1", "--trials", "5"],
    ["audit", "t2", "--trials", "5"],
    ["audit", "prop1", "--trials", "5"],
    ["scenario", "optical", "--trials", "5"],
    ["scenario", "gradient"],
    ["bounds", "sweep"],
    ["bounds", "sweep", "--format", "csv"],
    *(
        ["qfim", str(QFIM_INPUTS / "bellnet.json"), str(QFIM_INPUTS / state)]
        for state in ("haar.json", "mixed.json", "bellpure.json")
    ),
]

# Definitions none of the commands enters, as ``module.name``:
# - ``_entry_to_pair`` is reached by complex JSON entries and
#   ``config._shown`` by integers too large to print;
# - ``cfim``, ``encode`` and ``_check_phi`` are paper-facing code that no
#   command calls yet;
# - ``embed_local`` and ``global_generators`` build dense full-space
#   generators for tests and the benchmark sweep;
# - the ``*_to_json`` writers write inputs for tests and the benchmark.
UNREACHED = sorted(
    """
    config._shown
    fisher.cfim
    hilbert.embed_local hilbert._entry_to_pair
    hilbert.vector_to_json hilbert.matrix_to_json
    network.global_generators network._check_phi network.encode network.network_to_json
    """.split()
)


def _definitions() -> dict[tuple[str, int], str]:
    """Every function definition in ``src/qsnet``, keyed by its file and
    first line (its first decorator's, as in ``co_firstlineno``), named by
    its module and enclosing classes and functions."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(str(path), first)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return found


def test_unreached_definitions_are_pinned(tmp_path):
    codes, calls = profiled_calls(
        lambda: [main([*argv, "--out", str(tmp_path / str(k))]) for k, argv in enumerate(COMMANDS)]
    )
    assert codes == [0] * len(COMMANDS)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in calls}
    unreached = sorted(name for key, name in _definitions().items() if key not in reached)
    assert unreached == UNREACHED
