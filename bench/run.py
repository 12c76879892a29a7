"""Outside-in benchmark of the ``qsnet`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, both modes

Each invocation of the CLI is a fresh process started by this single
parent process, one at a time (a closed loop with one client: qsnet is a batch
tool). BLAS and OpenMP threads are pinned to 1. ``--trace 0`` prints the
end-to-end metrics (averages over the run's invocations). ``--trace 1``
runs one extra traced invocation and prints per-layer metrics, import
times and the dimension sweep. Every report is checked against the
references in ``refs/``; the last line of output is a JSON summary.
Exit codes: 0 when every check passed, 1 when one failed, 2 when the
sources to benchmark are missing.
"""

import os

# Pin the thread pools before numpy is imported here or in any child.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from spans import layer_metrics
from workloads import WORKLOADS, Workload, check_report, load_refs, plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A traced run's sweep needs this much free memory for D=4096 generators.
SWEEP_LARGE_NEEDS_MB = 4500
CHILD_TIMEOUT_S = 60
SWEEP_TIMEOUT_S = 40
# A timed loop stops after this long even inside a pool cycle.
RUN_LIMIT_S = 110
MIN_REPEATS = 3

QSNET_MODULES = (
    "qsnet", "qsnet.config", "qsnet.exceptions", "qsnet.bounds", "qsnet.hilbert", "qsnet.network",
    "qsnet.fisher", "qsnet.sampling", "qsnet.reporting", "qsnet.states", "qsnet.scenarios", "qsnet.cli",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "trials_per_s": "1/s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name in ("scenarios.accept_ratio", "trace.overhead_frac"):
        return "ratio"
    if name == "reporting.identical":
        return "flag"
    if name == "hilbert.max_dim":
        return "dim"
    return "count"


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QSN_MAX_DIM")}
    env.update(THREAD_PINS, PYTHONPATH=str(SRC), **extra)
    return env


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    cpu_s: float  # the child's user + system CPU time
    trials: int
    report: bytes


@dataclass
class Runner:
    """Spawns invocations of one workload and checks every report."""

    workload: Workload
    refs: dict
    work: Path
    attempted: int = 0
    samples: list = field(default_factory=list)  # the timed loop's samples
    failures: list = field(default_factory=list)

    def invoke(self, inv, spans: Path | None = None, python_flags=()) -> Sample | None:
        """One timed invocation; None (and a recorded failure) if it failed."""
        self.attempted += 1
        meta, log = self.work / "meta.json", self.work / "child.log"
        for stale in (meta, inv.report):
            stale.unlink(missing_ok=True)
        argv = [sys.executable, *python_flags, str(BENCH / "child.py"), str(meta)]
        argv += [str(spans)] if spans else []
        argv += ["--", *inv.argv]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
        code = os.waitstatus_to_exitcode(status)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if not inv.report.is_file():
            problems.append("report missing")
        else:
            data = inv.report.read_bytes()
            problems += check_report(self.workload, data, self.refs[inv.variant])
        if problems:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            self.failures.append(f"{' '.join(inv.argv)}: {'; '.join(problems)}\n{tail}")
            return None
        t_imported = json.loads(meta.read_text(encoding="utf-8"))["t_imported"]
        trials = json.loads(data)["trials"] if self.workload.audit else 1
        cpu_s = usage.ru_utime + usage.ru_stime
        return Sample(end - start, t_imported - start, usage.ru_maxrss / 1024, cpu_s, trials, data)


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """The run's end-to-end metrics.

    The timings are taken over the whole run (mean wall and set-up time,
    total trials over total busy time), not as medians: the shared host
    switches between fast and slow phases lasting tens of seconds, and a
    median over one run flips between the two phases while a whole-run
    figure moves with the share of each (see NOTES.md).
    """
    busy_s = sum(s.wall_s - s.setup_s for s in samples)
    return {
        "wall_s": statistics.fmean(s.wall_s for s in samples),
        "setup_s": statistics.fmean(s.setup_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        # Every workload reports every end-to-end metric; a qfim
        # invocation evaluates one probe, so it counts as one trial.
        "trials_per_s": sum(s.trials for s in samples) / busy_s,
    }


def import_times(log_text: str) -> dict[str, float]:
    """Self time of each qsnet module and numpy's cumulative time, from
    ``python -X importtime`` output."""
    self_us, cum_us = {}, {}
    for line in log_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        head, cum, name = line.split("|")
        name = name.strip()
        if head.split(":")[1].strip().isdigit():
            self_us[name] = int(head.split(":")[1])
            cum_us[name] = int(cum)
    out = {"import.numpy_s": cum_us.get("numpy", 0) / 1e6}
    out["import.total_s"] = (cum_us.get("qsnet", 0) + cum_us.get("qsnet.cli", 0)) / 1e6
    for mod in QSNET_MODULES:
        out[f"import.{mod}_s"] = self_us.get(mod, 0) / 1e6
    return out


def mem_available_mb() -> float:
    with open("/proc/meminfo", encoding="ascii") as fh:
        return next(int(l.split()[1]) for l in fh if l.startswith("MemAvailable:")) / 1024


def sweep() -> dict[str, float]:
    """The per-layer dimension sweep, each part in a child process.

    The sweep is not gated: a part that fails or cannot start is reported
    on standard error and its metrics are left out, while the traced
    workload keeps its own metrics and its pass/fail result.
    """
    out = {}
    for part, extra in (("small", {"QSN_MAX_DIM": str(512 * 512)}), ("large", {})):
        if part == "large" and mem_available_mb() < SWEEP_LARGE_NEEDS_MB:
            print(f"sweep {part}: not run, it needs {SWEEP_LARGE_NEEDS_MB} MB available, "
                  f"have {mem_available_mb():.0f}", file=sys.stderr)
            continue
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "sweep.py"), part],
                env=child_env(**extra), capture_output=True, text=True, timeout=SWEEP_TIMEOUT_S, check=True,
            )
            out.update(json.loads(proc.stdout.splitlines()[-1]))
        except (subprocess.SubprocessError, ValueError) as exc:
            detail = getattr(exc, "stderr", None) or ""
            print(f"sweep {part}: failed, metrics left out: {exc}\n{detail[-2000:]}", file=sys.stderr)
    return out


def timed_loop(runner: Runner, invocations: list, seconds: float) -> list[Sample]:
    """Cycle through ``invocations`` for about ``seconds``.

    Only whole cycles are timed, so every audit variant weighs the same;
    the loop stops at the cycle boundary nearest the deadline, after at
    least one cycle and MIN_REPEATS invocations.
    """
    samples: list[Sample] = []
    started = time.monotonic()
    while True:
        sample = runner.invoke(invocations[len(samples) % len(invocations)])
        if sample is None:
            return samples
        samples.append(sample)
        elapsed = time.monotonic() - started
        if elapsed >= RUN_LIMIT_S:
            return samples
        if len(samples) % len(invocations) or len(samples) < MIN_REPEATS:
            continue
        per_cycle = elapsed * len(invocations) / len(samples)
        if elapsed + per_cycle / 2 >= seconds:
            return samples


def traced_metrics(workload, trace_doc: dict, traced: Sample, untraced: list[Sample], log_text: str, reference_sha: str):
    """Per-layer metrics of one traced invocation, and any problems found."""
    problems = []
    if traced.report != untraced[0].report:
        problems.append("the traced report differs from the untraced report of the same invocation")
    out = layer_metrics(trace_doc, traced.wall_s)
    out["trace.wall_s"] = traced.wall_s
    out["trace.overhead_frac"] = traced.wall_s / statistics.median(s.wall_s for s in untraced) - 1.0
    out.update(import_times(log_text))
    report = json.loads(traced.report)
    accepted = report["trials"] if workload.audit else 0
    draws = out["scenarios.draws"]
    if workload.audit and draws != accepted + report["regenerated"]:
        problems.append(f"traced draws {draws} != trials + regenerated in the report")
    out["scenarios.accepted"] = accepted
    out["scenarios.accept_ratio"] = accepted / draws if draws else 0.0
    out["reporting.identical"] = int(hashlib.sha256(traced.report).hexdigest() == reference_sha)
    return out, problems


def measure(workload, seed: int, seconds: float, trace: bool, with_sweep: bool = True):
    """One benchmark run; returns (metrics, runner).

    Untraced, the run cycles through the workload's plan for ``seconds``.
    Traced, it times MIN_REPEATS untraced invocations of the plan's first
    entry as the base of the tracing overhead, then traces that entry once.
    """
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        runner = Runner(workload, load_refs(workload), work)
        invocations = plan(workload, seed, work)
        # Warm-up: one untimed import of the CLI fills __pycache__ and the
        # page cache.
        subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(work / "meta.json"), "--", "--version"],
            env=child_env(), stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True,
        )
        if trace:
            invocations = invocations[:1]
            seconds = 0.0
        samples = timed_loop(runner, invocations, seconds)
        runner.samples = samples
        if runner.failures:
            return {}, runner
        if not trace:
            return end_to_end(samples), runner
        spans_path = work / "spans.json"
        traced = runner.invoke(invocations[0], spans=spans_path, python_flags=("-X", "importtime"))
        if traced is None:
            return {}, runner
        metrics, problems = traced_metrics(
            workload,
            json.loads(spans_path.read_text(encoding="utf-8")),
            traced,
            samples,
            (work / "child.log").read_text(encoding="utf-8", errors="replace"),
            runner.refs[invocations[0].variant]["report_sha256"],
        )
        runner.failures += problems
        if with_sweep:
            metrics.update(sweep())
        return metrics, runner
    finally:
        shutil.rmtree(work, ignore_errors=True)


def environment() -> dict:
    env = {
        "thread_pins": THREAD_PINS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            env["cpu"] = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "unknown")
        with open("/proc/meminfo", encoding="ascii") as fh:
            env["mem_total_mb"] = int(fh.readline().split()[1]) // 1024
    except OSError:
        env["cpu"] = "unknown"
    return env


def print_metrics(title: str, metrics: dict, runner=None) -> None:
    """Human-readable metrics: medians with their sample count, and layer
    self times as a share of the traced wall time. An untraced run also
    shows the children's CPU time: wall time that grows alone means the
    child was kept waiting, CPU time that grows with it means the child
    ran slower on the CPU."""
    print(title)
    wall = metrics.get("trace.wall_s")
    for name, value in metrics.items():
        extra = ""
        if name in END_TO_END_UNITS and runner is not None:
            how = "median of" if name == "peak_rss_mb" else "over"
            extra = f"  ({how} {len(runner.samples)} invocations)"
        elif wall and name.endswith("self_s"):
            extra = f"  ({100 * value / wall:.1f}% of traced wall)"
        print(f"  {name:45s} {value:14.6g} {unit_of(name)}{extra}")
    if runner is not None and "wall_s" in metrics:
        cpu = statistics.fmean(s.cpu_s for s in runner.samples)
        share = statistics.median(s.cpu_s / s.wall_s for s in runner.samples)
        print(f"  {'cpu_s (not gated)':45s} {cpu:14.6g} s  (mean; median cpu_s / wall_s {share:.3f})")
    if runner is not None:
        print(f"  {'error_rate':45s} {len(runner.failures)}/{runner.attempted} invocations failed")
        for failure in runner.failures:
            print("FAILED:", failure, file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qsnet" / "cli.py").is_file():
        print(f"error: no qsnet sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("environment:", json.dumps(environment()))

    if args.workload != "all":
        workload = WORKLOADS[args.workload]
        metrics, runner = measure(workload, args.seed, args.seconds, bool(args.trace))
        print_metrics(f"{workload.name} ({'traced' if args.trace else 'untraced'}):", metrics, runner)
        failed = len(runner.failures)
        result = {
            "correct": not failed and bool(metrics),
            "attempted": runner.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    failed = 0
    for trace in (False, True):
        for workload in WORKLOADS.values():
            metrics, runner = measure(workload, args.seed, args.seconds, trace, with_sweep=False)
            failed += len(runner.failures) + (not metrics)
            print_metrics(f"{workload.name} ({'traced' if trace else 'untraced'}):", metrics, runner)
    print_metrics("dimension sweep:", sweep())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
