"""Shared helpers: checkout paths, statistics, the host-noise probe.

The benchmark runs from the root of a checkout and builds nothing: the
program under test is the package in ``<root>/src``.  Every file the
benchmark writes goes under ``<root>/.perfbench`` (ignored by git).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Size of the host-noise probe loop (about 0.1 s on a 2-core x86-64 host).
NOISE_LOOP = 1_000_000


class SetupError(Exception):
    """The checkout does not hold the program the benchmark measures."""


def program_env(**extra) -> dict:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")) if p
    )
    env.update(extra)
    return env


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to measure: {SRC / 'repro'} is missing")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def out_dir(*parts: str) -> pathlib.Path:
    path = OUT.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, pct: int) -> float:
    """``pct``-th percentile by ``statistics.quantiles`` (inclusive method)."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def noise_probe() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never used to rescale."""
    started = time.perf_counter()
    total = 0
    for i in range(NOISE_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def topology() -> dict:
    """``benchmarks._report.topology()`` of the checkout, when it has one."""
    try:
        from benchmarks._report import topology as report_topology
    except ImportError:
        return {"cpu_count": os.cpu_count() or 1}
    return report_topology()


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class Sink:
    """What one run measured: units, checks, set-up samples, trace sums."""

    def __init__(self) -> None:
        self.latencies: list = []  # seconds per completed unit
        self.labels: list = []  # what each completed unit was
        self.attempted = 0  # units plus whole-run checks
        self.failures: list = []  # why each failed check failed
        self.setup: list = []  # set-up samples, seconds
        self.rss_mb = 0.0
        self.work_s = 0.0  # wall time of the measured (fixed) work
        self.raws: list = []  # tracer sums of child processes
        self.events: list = []  # Chrome trace events of child processes
        self.uncovered: list = []  # per-unit share of wall time no span covers
        self.layer: dict = {}  # per-layer metrics measured by the workload
        self.notes: dict = {}

    def check(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(why)

    def unit(self, seconds: float, problem: str | None, label: str = "") -> None:
        """One completed unit; ``problem`` says why its answer is wrong, if it is."""
        self.latencies.append(seconds)
        self.labels.append(label)
        self.check(problem is None, problem or "")

    def note(self, key: str, value) -> None:
        self.notes[key] = value

    def covered_unit(self, covered_s: float, wall_s: float) -> None:
        self.uncovered.append(max(0.0, 1.0 - covered_s / wall_s) if wall_s else 0.0)

    def child(self, report: dict) -> None:
        """Merge a traced child's sums and spans."""
        self.raws.append(report.get("raw", {}))
        self.events.extend(report.get("events", []))

    @property
    def failed(self) -> int:
        return len(self.failures)
