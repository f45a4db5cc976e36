"""Known-defect check: concurrent jobs in one cold process disagree with run_job.

Usage, from the root of a checkout::

    python3 perfbench/concurrency_check.py [--trials 3]

Each trial starts a fresh process that runs two ``analyze banking`` jobs
(different BMC seeds, private verdict caches) on two threads at once, and
a second fresh process that runs the same two jobs one after the other.
The payloads must be byte-identical; at the commit that added this
benchmark they are not (one obligation flips from ``proved`` to
``bounded-exhaustive`` and the failure count drops), so the service's
default two-thread job pool can serve a payload that differs from the
batch CLI's.  Exit code 1 while the defect shows, 0 once it is gone.
This is why service-mix runs its server with one job worker (NOTES.md).
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from common import SetupError, program_env, require_program

CHILD = """
import json, sys, threading
from repro.core.cache import VerdictCache
from repro.pipeline.jobs import JobSpec, run_job

seeds = (1000, 2000)
out = {}

def job(seed):
    spec = JobSpec(kind="analyze", app="banking", seed=seed)
    payload = run_job(spec, cache=VerdictCache(), no_persist=True).payload
    out[seed] = json.dumps(payload, sort_keys=True)

if sys.argv[1] == "threads":
    threads = [threading.Thread(target=job, args=(s,)) for s in seeds]
    [t.start() for t in threads]
    [t.join() for t in threads]
else:
    [job(s) for s in seeds]
print(json.dumps([out[s] for s in seeds]))
"""


def payloads(mode: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, mode], capture_output=True, text=True,
        env=program_env(), timeout=170, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=3)
    args = parser.parse_args()
    try:
        require_program()
    except SetupError as exc:
        print(f"concurrency_check: {exc}", file=sys.stderr)
        return 2
    expected = payloads("serial")
    differing = sum(payloads("threads") != expected for _ in range(args.trials))
    print(f"concurrent payloads differing from serial: {differing}/{args.trials} trials")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
