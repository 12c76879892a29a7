"""Child wrapper: one ``qsnet`` CLI invocation in a fresh process.

    python3 bench/child.py META [SPANS] -- ARGV...

Imports ``qsnet.cli``, takes a monotonic timestamp (the end of set-up),
then calls ``qsnet.cli.main(ARGV)``. The timestamp and the exit code go to
the JSON file META. With SPANS, every cross-layer call is traced around
the same ``main`` call and the spans are written to SPANS after it returns.
The process exits with ``main``'s exit code.
"""

import json
import signal
import sys
import time
from pathlib import Path

# The default SIGALRM action ends a hung invocation even inside native code.
TIMEOUT_S = 60


def main() -> int:
    signal.alarm(TIMEOUT_S)
    split = sys.argv.index("--")
    paths, argv = sys.argv[1:split], sys.argv[split + 1 :]
    import qsnet.cli

    t_imported = time.monotonic()
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(qsnet.__file__).resolve().parent.parent != src:
        print(f"error: imported qsnet from {qsnet.__file__}, not from {src}", file=sys.stderr)
        return 3
    if len(paths) == 2:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            code = tracer.call("cli.main", qsnet.cli.main, argv)
        finally:
            tracer.restore()
        tracer.dump(paths[1])
    else:
        code = qsnet.cli.main(argv)
    Path(paths[0]).write_text(json.dumps({"t_imported": t_imported, "code": code}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
