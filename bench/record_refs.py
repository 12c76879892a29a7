"""Record the reference outputs the benchmark checks every report against.

    python3 bench/record_refs.py

Runs each pool variant of every workload once through the CLI and writes
``refs/<workload>.json``. Record only at a commit whose outputs are
trusted: later commits are held to these references.
"""

import json
import shutil
import subprocess
import sys

from run import BENCH, SRC, WORK, child_env

sys.path.insert(0, str(SRC))

from workloads import POOL, REFS_DIR, WORKLOADS, plan, reference_from_report  # noqa: E402


def record(workload) -> dict:
    work = WORK / f"record-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    entries = {}
    try:
        for seed in range(POOL):
            for inv in plan(workload, seed, work):
                if inv.variant in entries:
                    continue
                cmd = [sys.executable, str(BENCH / "child.py"), str(work / "meta.json"), "--", *inv.argv]
                subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.DEVNULL)
                entries[inv.variant] = reference_from_report(workload, inv.report.read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload.name, "entries": {str(k): entries[k] for k in sorted(entries)}}


def main() -> None:
    REFS_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        doc = record(WORKLOADS[name])
        (REFS_DIR / f"{name}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
        print(f"{name}: {len(doc['entries'])} references")


if __name__ == "__main__":
    main()
