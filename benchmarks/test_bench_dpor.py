"""E16 — source-set DPOR vs the unpruned DFS on the exhaustive explorer.

Two measurements:

* **withdraw-race-3** — the three-instance lost-update workload at each
  interesting level, explored by the optimal explorer and by the unpruned
  DFS under ``DFS_BUDGET`` runs.  Where the DFS finishes, both must reach
  exactly the same final states and the run ratio is reported; where it
  does not, the row records the truncation.
* **tpcc district-mix** — two NewOrders and a Payment on one district,
  both modes given the same run budget: optimal finishes the exhaustive
  certification, the DFS truncates.

Emits ``BENCH_dpor.json`` (with the commit it was measured at) for CI
trend tracking.
"""

import subprocess
import time

import pytest

from benchmarks._report import RESULTS_DIR, emit, emit_json
from repro.core.report import format_table
from repro.pipeline.scenarios import scenarios_for
from repro.sched.explore import explore

LEVELS = ("READ COMMITTED", "REPEATABLE READ", "SNAPSHOT")

#: run budget of the unpruned DFS on withdraw-race-3 (optimal runs unbounded)
DFS_BUDGET = 20_000

#: run budget under which optimal must finish district-mix and the DFS must not
MIX_BUDGET = 1000


def commit() -> str:
    """The commit the numbers were measured at (``-dirty`` for a work tree)."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=RESULTS_DIR.parent, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def timed_explore(scenario, level, **kwargs):
    """``(result, wall seconds, final states)`` of one exploration.

    A final state is the canonical database plus each instance's outcome,
    collected from the schedules as they stream.
    """
    levels = {spec.txn_type.name: level for spec in scenario.specs({})}
    finals = set()

    def collect(schedule):
        finals.add((
            schedule.final.canonical(),
            tuple(sorted((o.name, o.status) for o in schedule.outcomes)),
        ))

    start = time.perf_counter()
    result = explore(
        scenario.initial(), scenario.specs(levels), retry=True, on_schedule=collect, **kwargs
    )
    return result, time.perf_counter() - start, finals


@pytest.fixture(scope="module")
def races():
    scenario = next(s for s in scenarios_for("banking") if s.name == "withdraw-race-3")
    return {
        level: {
            "dfs": timed_explore(scenario, level, max_schedules=DFS_BUDGET, pruning=False),
            "optimal": timed_explore(scenario, level),
        }
        for level in LEVELS
    }


def test_bench_race_reversal_reduction(races):
    """Optimal explores fewer runs than the DFS without losing a state."""
    rows = []
    for level in LEVELS:
        dfs, dfs_wall, dfs_finals = races[level]["dfs"]
        optimal, opt_wall, optimal_finals = races[level]["optimal"]
        assert not optimal.truncated
        if dfs.truncated:
            ratio = f">{DFS_BUDGET / optimal.runs:.0f}x"
            dfs_runs = f">{DFS_BUDGET}"
        else:
            assert optimal_finals == dfs_finals
            assert optimal.runs < dfs.runs
            ratio = f"{dfs.runs / optimal.runs:.1f}x"
            dfs_runs = dfs.runs
        rows.append(
            (level, dfs_runs, optimal.runs, ratio, optimal.races, optimal.reversals,
             f"{dfs_wall * 1000:.0f}/{opt_wall * 1000:.0f}")
        )
    emit(
        "E16-race-reversal (withdraw-race-3)",
        format_table(
            ("level", "dfs runs", "optimal runs", "ratio", "races",
             "reversals", "wall ms d/o"),
            rows,
        ),
    )


@pytest.fixture(scope="module")
def mix():
    scenario = next(s for s in scenarios_for("tpcc-lite") if s.name == "district-mix")
    return {
        "dfs": timed_explore(
            scenario, "SERIALIZABLE", max_schedules=MIX_BUDGET, pruning=False
        ),
        "optimal": timed_explore(scenario, "SERIALIZABLE", max_schedules=MIX_BUDGET),
    }


def test_bench_tpcc_exhaustive_certification(mix):
    """Under one budget, optimal finishes the tpcc mix; the DFS cannot."""
    dfs = mix["dfs"][0]
    optimal = mix["optimal"][0]
    assert optimal.truncated is False, "optimal must certify district-mix exhaustively"
    assert dfs.truncated is True, "the budget must genuinely separate the modes"
    assert optimal.runs < MIX_BUDGET <= dfs.runs


def _measured(result, wall) -> dict:
    return {**result.to_dict(), "wall_ms": round(wall * 1000, 1)}


def test_bench_dpor_report(races, mix):
    """Emit BENCH_dpor.json: per-level reduction and the tpcc separation."""
    race_payload = {}
    for level in LEVELS:
        dfs, dfs_wall, _ = races[level]["dfs"]
        optimal, opt_wall, _ = races[level]["optimal"]
        race_payload[level] = {
            "dfs": _measured(dfs, dfs_wall),
            "optimal": _measured(optimal, opt_wall),
            "ratio": None if dfs.truncated else round(dfs.runs / optimal.runs, 2),
        }
    emit_json(
        "BENCH_dpor",
        {
            "commit": commit(),
            "config": {
                "scenario": "withdraw-race-3",
                "levels": list(LEVELS),
                "dfs_budget": DFS_BUDGET,
                "mix_budget": MIX_BUDGET,
            },
            "withdraw_race_3": race_payload,
            "tpcc_district_mix": {
                "level": "SERIALIZABLE",
                "dfs": _measured(*mix["dfs"][:2]),
                "optimal": _measured(*mix["optimal"][:2]),
            },
        },
    )
