"""Child-process entry point for units that run in a process of their own.

Usage (always started by the benchmark, never by hand)::

    python3 perfbench/launch.py cli   REPORT TRACE -- <repro arguments>
    python3 perfbench/launch.py serve REPORT TRACE -- <repro serve arguments>
    python3 perfbench/launch.py setup REPORT WORKLOAD SEED

``PERFBENCH_SPAWN`` carries the parent's ``time.monotonic()`` taken just
before the spawn (the clock is system-wide), so the child can report its
set-up time from process start: interpreter start, ``import repro`` and,
for ``cli``, loading the application; for ``setup``, one untimed warm-up
unit of the named workload.  With ``TRACE`` = 1 the wrappers of
:mod:`tracer` are installed before the program runs and the child's sums
and spans are written to ``REPORT`` when it ends.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _since_spawn() -> float:
    return time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def main(argv) -> int:
    mode, report = argv[0], argv[1]
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    if mode == "setup":
        import workloads

        workloads.warmup(argv[2], int(argv[3]))
        _write(report, {"setup_s": _since_spawn(), "import_s": import_s})
        return 0
    trace = argv[2] == "1"
    args = argv[argv.index("--") + 1 :]
    if trace:
        import tracer

        tracer.install()
        tracer.TRACER.add("import_s", import_s)
        tracer.TRACER.add("processes")
    if mode == "cli":
        from repro.apps import registry

        registry()[args[1]]()
    setup_s = _since_spawn()
    code = repro.cli.main(args)
    sys.stdout.flush()
    extra = {"setup_s": setup_s, "import_s": import_s, "exit_code": code}
    if trace:
        tracer.dump(report, extra=extra)
    else:
        _write(report, extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
