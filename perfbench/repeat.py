"""Exact-repeat test for the per-layer counts of the traced run.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py [--seed 1] [--seconds 20] [WORKLOAD ...]

Runs each workload's traced run twice, once under ``PYTHONHASHSEED=11``
and once under ``PYTHONHASHSEED=12`` (children inherit it), and compares
every count in ``tracer.REPEATABLE_COUNTS``.  A count that depends on
set or dict iteration order shows up as a difference instead of hiding
behind one fixed hash seed.  Prints one row per count; a count that does
not repeat is printed with both values and its spread, and makes the exit
code 1.  service-mix is left out by default: its batching counts depend
on request timing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, SetupError, program_env, require_program
from tracer import REPEATABLE_COUNTS

HASH_SEEDS = ("11", "12")
DEFAULT = ("static-cold", "explore-probes", "fuzz-corpus")


def traced(workload: str, seed: int, seconds: float, hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "1"],
        capture_output=True, text=True, timeout=400,
        env=program_env(PYTHONHASHSEED=hash_seed),
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run under hash seed {hash_seed} failed")
    return {key: metric["value"] for key, metric in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(DEFAULT))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    try:
        require_program()
    except SetupError as exc:
        print(f"repeat: {exc}", file=sys.stderr)
        return 2
    differing = 0
    for workload in args.workloads:
        first, second = (traced(workload, args.seed, args.seconds, h) for h in HASH_SEEDS)
        for key in REPEATABLE_COUNTS:
            a, b = first[key], second[key]
            if a == b:
                print(f"{workload:15s} {key:28s} {a:12g}  repeats")
            else:
                differing += 1
                spread = abs(a - b) / max(abs(a), abs(b))
                print(f"{workload:15s} {key:28s} {a:12g} vs {b:g}"
                      f"  DIFFERS (spread {spread:.3%})")
    print(f"{differing} counts differ between PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
