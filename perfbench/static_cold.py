"""static-cold: ``repro analyze --no-persist --json``, one fresh process per unit.

This is what a CLI user pays: interpreter start, imports, empty memo
tables and the whole static core (plan, SDG, tiers, prover, BMC).  The
explorer, engine and service stay idle.  Units run one at a time, with
the CLI's default BMC seed; the workload seed rotates their order (see
NOTES.md for why the BMC seed is not taken from it).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import oracles
from common import BENCH_DIR, out_dir, program_env

#: (application, extra analyze flags); CLI defaults are budget 3000 and
#: the ANSI ladder.  tpcc runs at budget 24: see NOTES.md (known defect).
UNITS = (
    ("banking", ()),
    ("customers", ()),
    ("employees", ()),
    ("orders", ()),
    ("tpcc", ("--budget", "24", "--ladder", "extended", "--snapshot")),
)


#: A child still running after this long is killed (and fails its check).
CHILD_TIMEOUT_S = 120.0


def run_child(argv, report, trace: bool, label: str) -> dict:
    """Run one launcher child; returns its timings, RSS, stdout and report."""
    stderr_path = report.with_suffix(".stderr")
    command = [sys.executable, str(BENCH_DIR / "launch.py"), "cli", str(report),
               "1" if trace else "0", "--", *argv]
    spawn = time.monotonic()
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=stderr,
            env=program_env(PERFBENCH_SPAWN=repr(spawn)),
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    wall = time.monotonic() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(report) as handle:
            child = json.load(handle)
    except (OSError, ValueError):
        child = {}
    return {
        "label": label,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "stdout": stdout,
        "report": child,
    }


def check(app: str, result: dict) -> str | None:
    """None when the child's level table is the known answer, else why not."""
    if result["exit_code"] != 0:
        return f"{app}: exit code {result['exit_code']}"
    try:
        levels = json.loads(result["stdout"])["levels"]
    except (ValueError, KeyError, TypeError):
        return f"{app}: no level table in the output"
    if levels != oracles.LEVEL_TABLES[app]:
        return f"{app}: levels {levels} != {oracles.LEVEL_TABLES[app]}"
    return None


def order(seed: int) -> list:
    shift = seed % len(UNITS)
    return list(UNITS[shift:] + UNITS[:shift])


def run_pass(seed: int, seconds: float, trace: bool, sink, index: int) -> None:
    directory = out_dir("static-cold")
    for app, flags in order(seed):
        argv = ["analyze", app, *flags, "--no-persist", "--json"]
        result = run_child(argv, directory / f"{app}-{index}.json", trace, app)
        problem = check(app, result)
        sink.unit(result["wall_s"], problem, app)
        sink.setup.append(result["report"].get("setup_s", 0.0))
        sink.rss_mb = max(sink.rss_mb, result["rss_mb"])
        if trace:
            sink.child(result["report"])
            sink.covered_unit(result["report"].get("covered_s", 0.0), result["wall_s"])
