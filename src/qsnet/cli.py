"""Command-line interface.

Subcommands::

    qsnet audit t1|t2|prop1        randomized audits (surrogate optimality,
                                   local-purification optimality, block-inverse
                                   inequality)
    qsnet scenario gradient|optical  canned experiments
    qsnet bounds sweep             closed-form bound tables
    qsnet qfim NETWORK STATE       information matrix and bound for a probe

Exit codes: 0 on pass, 1 on an audit or scenario violation, 2 on a
configuration error (bad flags, malformed JSON, mismatched dimensions), 3 on
an internal fault (any other exception; its traceback goes to stderr).
Result files are byte-identical across runs with the same seed; the run
manifest (written alongside) carries the timestamps.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import FormatError
from .bounds import LinearFunctional, compare
from .fisher import block_inverse_residuals, qcrb, qfim_mixed, qfim_pure
from .hilbert import DensityOperator, PureState, matrix_from_json, vector_from_json
from .network import global_generators, load_network
from .reporting import read_json, write_csv, write_json
from .scenarios import (
    ScenarioConfig,
    audit_block_inverse,
    audit_local_purification,
    audit_separable_surrogate,
    gradient_scenario,
    load_scenario_config,
    optical_phase_scenario,
)

_AUDITS = {
    "t1": (audit_separable_surrogate, 42, 200),
    "t2": (audit_local_purification, 7, 200),
    "prop1": (audit_block_inverse, 3, 1000),
}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(out_dir: Path, name: str, args_echo: dict, seed, started: str, outputs: list[str]) -> None:
    manifest = {
        "tool": "qsnet",
        "version": __version__,
        "run": name,
        "config": args_echo,
        "seed": seed,
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }
    write_json(out_dir / f"{name}_manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _file_config(args, expected: str) -> ScenarioConfig | None:
    """Load ``--config`` if given, checking any declared scenario name."""
    if not getattr(args, "config", None):
        return None
    name, cfg = load_scenario_config(args.config)
    if name is not None and name != expected:
        raise FormatError(f"{args.config}: config is for '{name}', not '{expected}'")
    return cfg


def _resolve(flag_value, file_cfg: ScenarioConfig | None, attr: str, fallback):
    if flag_value is not None:
        return flag_value
    if file_cfg is not None:
        return getattr(file_cfg, attr)
    return fallback


def _run_audit(args) -> int:
    runner, default_seed, default_trials = _AUDITS[args.kind]
    file_cfg = _file_config(args, args.kind)
    seed = _resolve(args.seed, file_cfg, "seed", default_seed)
    trials = _resolve(args.trials, file_cfg, "trials", default_trials)
    tol = _resolve(args.tol, file_cfg, "tol", 1e-9)
    cfg = ScenarioConfig(seed=seed, trials=trials, tol=tol)
    started = _now()
    result = runner(cfg)
    out_dir = _out_dir(args)
    name = f"audit_{args.kind}"
    if args.format == "json":
        path = write_json(out_dir / f"{name}.json", result.to_jsonable())
    else:
        header = ["name", "seed", "trials", "tol", "max_violation", "max_structure_defect", "regenerated", "passed"]
        row = [result.name, result.seed, result.trials, result.tol, result.max_violation, result.max_structure_defect, result.regenerated, result.passed]
        path = write_csv(out_dir / f"{name}.csv", header, [row])
    _write_manifest(out_dir, name, {"trials": trials, "tol": tol, "format": args.format}, seed, started, [str(path)])
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{result.name}: trials={result.trials} regenerated={result.regenerated} "
        f"max_violation={result.max_violation:.3e} max_structure_defect={result.max_structure_defect:.3e} {status}"
    )
    print(f"report: {path}")
    return 0 if result.passed else 1


def _run_scenario(args) -> int:
    started = _now()
    out_dir = _out_dir(args)
    file_cfg = _file_config(args, args.kind)
    tol = _resolve(args.tol, file_cfg, "tol", 1e-9)
    n_particles = _resolve(args.n_particles, file_cfg, "n_particles", 4)
    mu = _resolve(args.mu, file_cfg, "mu", 1)
    if args.kind == "gradient":
        cfg = ScenarioConfig(seed=0, trials=1, tol=tol, n_particles=n_particles, mu=mu)
        report = gradient_scenario(cfg)
        name = "scenario_gradient"
        header = ["scenario", "N", "mu", "var_entangled", "var_separable", "ratio", "passed"]
        row = ["gradient", report.n_particles, report.mu, report.var_entangled, report.var_separable, report.ratio, report.passed]
        seed = 0
        echo = {"N": n_particles, "mu": mu, "tol": tol}
        summary = f"gradient: N={report.n_particles} ratio={report.ratio:.12g} " + ("PASS" if report.passed else "FAIL")
    else:
        seed = _resolve(args.seed, file_cfg, "seed", 11)
        trials = _resolve(args.trials, file_cfg, "trials", 50)
        modes = _resolve(args.modes, file_cfg, "n_modes", 2)
        cutoff = _resolve(args.cutoff, file_cfg, "mode_cutoff", 3)
        cfg = ScenarioConfig(
            seed=seed,
            trials=trials,
            tol=tol,
            n_particles=n_particles,
            n_modes=modes,
            mode_cutoff=cutoff,
            mu=mu,
        )
        report = optical_phase_scenario(cfg)
        name = "scenario_optical"
        header = ["scenario", "modes", "cutoff", "trials", "max_violation", "vacuum_flagged", "passed"]
        row = ["optical", report.n_modes, report.cutoff, report.surrogate_trials, report.surrogate_max_violation, report.vacuum_flagged, report.passed]
        echo = {"modes": modes, "cutoff": cutoff, "N": n_particles, "trials": trials, "tol": tol, "mu": mu}
        summary = (
            f"optical: modes={report.n_modes} cutoff={report.cutoff} "
            f"max_violation={report.surrogate_max_violation:.3e} " + ("PASS" if report.passed else "FAIL")
        )
    if args.format == "json":
        path = write_json(out_dir / f"{name}.json", report.to_jsonable())
    else:
        path = write_csv(out_dir / f"{name}.csv", header, [row])
    _write_manifest(out_dir, name, echo, seed, started, [str(path)])
    print(summary)
    print(f"report: {path}")
    return 0 if report.passed else 1


def _run_bounds(args) -> int:
    started = _now()
    out_dir = _out_dir(args)
    if args.N is None:
        budgets = list(args.d)
    elif len(args.N) == 1:
        budgets = [args.N[0]] * len(args.d)
    elif len(args.N) == len(args.d):
        budgets = list(args.N)
    else:
        raise FormatError("--N must be a single value or match --d in length")
    rows = []
    jsonable = []
    for d, n in zip(args.d, budgets):
        uniform = np.ones(d) / np.sqrt(d)
        comparison = compare(LinearFunctional(uniform, args.kappa, n, args.mu))
        rows.append(comparison.csv_row())
        jsonable.append(comparison.to_jsonable())
    name = "bounds_sweep"
    if args.format == "json":
        path = write_json(out_dir / f"{name}.json", {"rows": jsonable})
    else:
        path = write_csv(out_dir / f"{name}.csv", ["d", "N", "kappa", "mu", "sep_bound", "ghz_bound", "ratio"], rows)
    _write_manifest(out_dir, name, {"d": list(args.d), "N": budgets, "kappa": args.kappa, "mu": args.mu}, None, started, [str(path)])
    for (d, n), comparison in zip(zip(args.d, budgets), jsonable):
        print(
            f"d={d} N={n}: sep={comparison['sep_bound']:.6g} ghz={comparison['ghz_bound']:.6g} "
            f"ratio={comparison['ratio']:.6g}"
        )
    print(f"report: {path}")
    return 0


def _load_state(path: str, layout: tuple[int, ...]) -> PureState | DensityOperator:
    doc = read_json(path)
    if not isinstance(doc, list) or not doc:
        raise FormatError(f"{path}: expected a vector or matrix of [re, im] pairs")
    first = doc[0]
    if isinstance(first, list) and first and isinstance(first[0], list):
        mat = matrix_from_json(doc, where="state")
        return DensityOperator(mat, layout)
    vec = vector_from_json(doc, where="state")
    return PureState(vec, layout)


def _run_qfim(args) -> int:
    started = _now()
    net = load_network(args.network)
    state = _load_state(args.state, net.dims)
    gens = global_generators(net)
    if isinstance(state, PureState):
        fim = qfim_pure(state, gens, net.partition)
    else:
        fim, _ = qfim_mixed(state, gens, net.partition)
    report = qcrb(fim, np.ones(net.n_params), args.mu)
    if report.singular:
        residuals = None
    else:
        residuals = [float(r) for r in block_inverse_residuals(fim)]
    out_dir = _out_dir(args)
    doc = {
        "qfim": fim.matrix.tolist(),
        "partition": [list(b) for b in fim.partition],
        "mu": args.mu,
        "residuals": residuals,
        **report.to_jsonable(),
    }
    path = write_json(out_dir / "qfim.json", doc)
    _write_manifest(out_dir, "qfim", {"network": args.network, "state": args.state, "mu": args.mu}, None, started, [str(path)])
    kind = "singular" if report.singular else "invertible"
    print(f"qfim: d={fim.d} {kind} bound={report.bound:.12g}")
    print(f"report: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsnet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qsnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory (default: current)")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--tol", type=float, default=None, help="violation tolerance (default 1e-9)")

    audit = sub.add_parser("audit", parents=[common], help="run a randomized audit")
    audit.add_argument("kind", choices=sorted(_AUDITS))
    audit.add_argument("--seed", type=int, default=None)
    audit.add_argument("--trials", type=int, default=None)
    audit.add_argument("--config", default=None, help="JSON config file; flags override")
    audit.set_defaults(handler=_run_audit)

    scenario = sub.add_parser("scenario", parents=[common], help="run a canned experiment")
    scenario.add_argument("kind", choices=["gradient", "optical"])
    scenario.add_argument("--N", dest="n_particles", type=int, default=None, help="particle budget (default 4)")
    scenario.add_argument("--mu", type=int, default=None, help="experiment repeats (default 1)")
    scenario.add_argument("--modes", type=int, default=None, help="optical: mode count (default 2)")
    scenario.add_argument("--cutoff", type=int, default=None, help="optical: photon cutoff per mode (default 3)")
    scenario.add_argument("--seed", type=int, default=None)
    scenario.add_argument("--trials", type=int, default=None)
    scenario.add_argument("--config", default=None, help="JSON config file; flags override")
    scenario.set_defaults(handler=_run_scenario)

    bounds = sub.add_parser("bounds", parents=[common], help="closed-form bound tables")
    bounds.add_argument("action", choices=["sweep"])
    bounds.add_argument("--d", type=int, nargs="+", default=[2, 3, 4], help="sensor counts")
    bounds.add_argument("--N", type=int, nargs="+", default=None, help="particle budgets (default: N = d)")
    bounds.add_argument("--kappa", type=float, default=1.0)
    bounds.add_argument("--mu", type=int, default=1)
    bounds.set_defaults(handler=_run_bounds)

    qfim = sub.add_parser("qfim", parents=[common], help="information matrix of a probe on a network")
    qfim.add_argument("network", help="network JSON file")
    qfim.add_argument("state", help="state JSON file (vector or density matrix)")
    qfim.add_argument("--mu", type=int, default=1)
    qfim.set_defaults(handler=_run_qfim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
