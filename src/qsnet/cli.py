"""Command-line interface.

Subcommands::

    qsnet audit t1|t2|prop1        randomized audits (surrogate optimality,
                                   local-purification optimality, block-inverse
                                   inequality)
    qsnet scenario gradient|optical  canned experiments
    qsnet bounds sweep             closed-form bound tables
    qsnet qfim NETWORK STATE       information matrix and bound for a probe

Every subcommand takes ``--out DIR``; all but ``qfim`` (always JSON) take
``--format json|csv``. Flags follow the kind: each ``audit`` and
``scenario`` kind takes exactly the run settings it reads, after the kind,
each defaulting to the kind's own value, and its ``--help`` lists them;
any other flag is refused. The manifest echoes exactly those settings.

Exit codes: 0 on pass, 1 on an audit or scenario violation, 2 on rejected
input (bad flags, malformed JSON, mismatched dimensions, the dimension cap),
3 on an internal fault (any other exception, a plain ``ValueError``
included; its traceback goes to stderr).
Result files are byte-identical across runs with the same seed; the run
manifest (written alongside) carries the timestamps.

Importing this module freezes the interpreter's heap (``gc.freeze``): the
objects numpy and qsnet create at import move to the permanent generation,
so no collection during a run traverses them and interpreter exit does not
tear them down, which saves a ``qsnet`` process about 17 ms. ``import
qsnet`` alone freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import sys
import traceback
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, config, hilbert
from .exceptions import DimensionLimitError, FormatError, LayoutError, located
from .bounds import BoundComparison, LinearFunctional, compare
from .fisher import block_inverse_residuals, qcrb, qfim_mixed, qfim_pure
from .hilbert import DensityOperator, PureState, matrix_from_json, vector_from_json
from .network import network_from_json
from .reporting import read_json, write_csv, write_json
from .scenarios import (
    ScenarioConfig,
    audit_block_inverse,
    audit_local_purification,
    audit_separable_surrogate,
    gradient_scenario,
    optical_phase_scenario,
)

# At import, not in main(): in-process callers run main
# many times, and each freeze would make their pending cyclic garbage permanent.
gc.freeze()

# Run-setting flags by group: (flag, ScenarioConfig field, type, help).
_FLAGS = {
    "seeded": (("--seed", "seed", int, "random seed"), ("--trials", "trials", int, "accepted trials")),
    "tol": (("--tol", "tol", float, "violation tolerance"),),
    "budget": (("--N", "n_particles", int, "particle budget"), ("--mu", "mu", int, "experiment repeats")),
    "modes": (("--modes", "n_modes", int, "mode count"), ("--cutoff", "mode_cutoff", int, "photon cutoff per mode")),
}

# (runner, help, groups of settings read, defaults that differ from
# ScenarioConfig's) per kind; build_parser gives each kind its own flags.
_AUDITS = {
    "t1": (audit_separable_surrogate, "separable-surrogate optimality", ("seeded", "tol"), {"seed": 42, "trials": 200}),
    "t2": (audit_local_purification, "local-purification optimality", ("seeded", "tol"), {"seed": 7, "trials": 200}),
    "prop1": (audit_block_inverse, "block-inverse inequality", ("seeded", "tol"), {"seed": 3, "trials": 1000}),
}
_SCENARIOS = {
    "gradient": (gradient_scenario, "two-site field difference", ("tol", "budget"), {}),
    "optical": (optical_phase_scenario, "truncated-mode phases", ("seeded", "tol", "budget", "modes"), {"seed": 11, "trials": 50}),
}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(args, name: str, config: dict, started: str, doc, header=(), rows=()) -> None:
    """Write ``doc`` as JSON, or ``header`` and ``rows`` as CSV, then the
    run manifest echoing ``config`` and the runtime that computed it."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        path = write_json(out / f"{name}.json", doc)
    else:
        path = write_csv(out / f"{name}.csv", header, rows)
    blas_config, blas_core, blas_threads = hilbert._blas_config, hilbert._blas_core, hilbert._blas_threads
    manifest = {
        "tool": "qsnet",
        "version": __version__,
        "run": name,
        "config": config,
        "seed": config.get("seed"),
        "started": started,
        "finished": _now(),
        "outputs": [str(path)],
        # A name that numpy's BLAS does not export reads null.
        "runtime": {
            "numpy": np.__version__,
            "blas_config": None if blas_config is None else blas_config().decode(),
            "blas_core": None if blas_core is None else blas_core().decode(),
            "blas_threads": None if blas_threads is None else blas_threads(),
            "zheevd_bound": hilbert._zheevd is not None,
            "heap_frozen": gc.get_freeze_count(),
        },
    }
    write_json(out / f"{name}_manifest.json", manifest)
    print(f"report: {path}")


def _run(args) -> int:
    settings = {f.name: getattr(args, f.name) for f in fields(ScenarioConfig) if hasattr(args, f.name)}
    cfg = located(None, ScenarioConfig, **settings)
    started = _now()
    result = args.runner(cfg)
    print(f"{result.summary()} {'PASS' if result.passed else 'FAIL'}")
    _emit(args, f"{args.command}_{args.kind}", settings, started, result.to_jsonable(), result.CSV_HEADER, [result.csv_row()])
    return 0 if result.passed else 1


def _run_bounds(args) -> int:
    started = _now()
    cap = config.max_dim()
    for d in args.d:
        located(None, config.check_int, d, "--d")
        # Refused before np.ones(d) is built: a huge --d is rejected input,
        # not numpy's allocation failure.
        if d > cap:
            raise FormatError(f"--d: {d} sensors exceed the cap {cap} (QSN_MAX_DIM)")
    for n in args.N or ():
        located(None, config.check_int, n, "--N")
    if args.N is None:
        budgets = list(args.d)
    elif len(args.N) == 1:
        budgets = [args.N[0]] * len(args.d)
    elif len(args.N) == len(args.d):
        budgets = list(args.N)
    else:
        raise FormatError("--N must be a single value or match --d in length")
    comparisons = [
        compare(located(None, LinearFunctional, located("--d", np.ones, d) / np.sqrt(d), args.kappa, n, args.mu))
        for d, n in zip(args.d, budgets)
    ]
    for c in comparisons:
        print(f"d={c.d} N={c.n_particles}: sep={c.separable:.6g} ghz={c.ghz:.6g} ratio={c.ratio:.6g}")
    _emit(
        args,
        "bounds_sweep",
        {"d": list(args.d), "N": budgets, "kappa": args.kappa, "mu": args.mu},
        started,
        {"rows": [c.to_jsonable() for c in comparisons]},
        BoundComparison.CSV_HEADER,
        [c.csv_row() for c in comparisons],
    )
    return 0


def _state_entries(doc) -> np.ndarray:
    if not isinstance(doc, list) or not doc:
        raise FormatError("expected a vector or matrix of [re, im] pairs")
    first = doc[0]
    if isinstance(first, list) and first and isinstance(first[0], list):
        return matrix_from_json(doc, where="state")
    return vector_from_json(doc, where="state")


def _load_state(path: str, layout: tuple[int, ...]) -> PureState | DensityOperator:
    # The parsed document (Python lists, about 2.6 times the file size; the
    # parse itself peaks near 6 times it) is released when _state_entries
    # returns, before the state validates. It holds no cycles, yet its
    # 262k lists at D = 512 set off hundreds of collections, three of them
    # full passes (about 0.1 s): the collector stays paused from the parse
    # until the document is freed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        entries = located(path, _state_entries, read_json(path))
    finally:
        if enabled:
            gc.enable()
    return located(path, DensityOperator if entries.ndim == 2 else PureState, entries, layout)


def _run_qfim(args) -> int:
    started = _now()
    located(None, config.check_int, args.mu, "mu")
    net = located(args.network, network_from_json, read_json(args.network))
    state = _load_state(args.state, net.dims)
    if isinstance(state, PureState):
        fim = qfim_pure(state, net)
    else:
        fim = qfim_mixed(state, net)
    report = qcrb(fim, np.ones(net.n_params), args.mu)
    doc = {
        "qfim": fim.matrix,
        "partition": fim.partition,
        "mu": args.mu,
        "residuals": None if report.singular else block_inverse_residuals(fim),
        **report.to_jsonable(),
    }
    kind = "singular" if report.singular else "invertible"
    print(f"qfim: d={fim.d} {kind} bound={report.bound:.12g}")
    _emit(args, "qfim", {"network": args.network, "state": args.state, "mu": args.mu}, started, doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsnet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qsnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory (default: current)")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--format", choices=["json", "csv"], default="json")

    for command, kinds, text in (("audit", _AUDITS, "run a randomized audit"), ("scenario", _SCENARIOS, "run a canned experiment")):
        usage = f"%(prog)s [-h] {{{','.join(kinds)}}} ... (flags follow the kind)"
        runs = sub.add_parser(command, usage=usage, help=text)
        kind_parsers = runs.add_subparsers(dest="kind", required=True, prog=runs.prog)
        for kind, (runner, kind_help, groups, defaults) in kinds.items():
            # Fresh flags per kind: set_defaults on flags shared through
            # parents= would change the default of every kind.
            kind_parser = kind_parsers.add_parser(kind, parents=[table], help=kind_help)
            for flag, name, type_, help_ in (f for group in groups for f in _FLAGS[group]):
                default = defaults.get(name, getattr(ScenarioConfig, name))
                kind_parser.add_argument(flag, dest=name, type=type_, default=default, help=f"{help_} (default %(default)s)")
            kind_parser.set_defaults(handler=_run, runner=runner)

    bounds = sub.add_parser("bounds", parents=[table], help="closed-form bound tables")
    bounds.add_argument("action", choices=["sweep"])
    bounds.add_argument("--d", type=int, nargs="+", default=[2, 3, 4], help="sensor counts")
    bounds.add_argument("--N", type=int, nargs="+", default=None, help="particle budgets (default: N = d)")
    bounds.add_argument("--kappa", type=float, default=1.0)
    bounds.add_argument("--mu", type=int, default=1)
    bounds.set_defaults(handler=_run_bounds)

    qfim = sub.add_parser("qfim", parents=[out], help="information matrix of a probe on a network")
    qfim.add_argument("network", help="network JSON file")
    qfim.add_argument("state", help="state JSON file (vector or density matrix)")
    qfim.add_argument("--mu", type=int, default=1)
    qfim.set_defaults(handler=_run_qfim, format="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (FormatError, LayoutError, DimensionLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
