"""E12 — what DPOR pruning buys the exhaustive explorer.

Two workloads, each explored with and without pruning:

* **incrementer pair** — two conflicting read-modify-write transactions at
  READ COMMITTED: small enough that the unpruned DFS terminates, so the
  run counts are directly comparable and outcome coverage can be checked
  exactly.
* **banking withdraw-race** — the certification pipeline's Fig. 1 scenario
  at READ COMMITTED.  Both sides terminate here (a schedule cap guards the
  unpruned one anyway); the pruned side visits measurably fewer schedules
  and still finds every lost-update violation.

Emits ``BENCH_explore.json`` for CI trend tracking.
"""

import time

import pytest

from benchmarks._report import emit, emit_json
from repro.core.program import Read, TransactionType, Write
from repro.core.report import format_table
from repro.core.state import DbState
from repro.core.terms import Item, Local
from repro.pipeline.scenarios import banking_scenarios
from repro.sched.explore import explore
from repro.sched.semantic import check_semantic_correctness
from repro.sched.simulator import InstanceSpec

UNPRUNED_CAP = 400  # bounds the capped unpruned banking exploration


def incrementer_specs():
    txn = TransactionType(
        name="Inc",
        body=(Read(Local("v"), Item("x")), Write(Item("x"), Local("v") + 1)),
    )
    return DbState(items={"x": 0}), [
        InstanceSpec(txn, {}, "READ COMMITTED", "A"),
        InstanceSpec(txn, {}, "READ COMMITTED", "B"),
    ]


def timed_explore(initial, specs, on_schedule=None, **kwargs):
    """``(result, wall seconds, final states)``, the states collected as they stream."""
    finals = set()

    def collect(schedule):
        finals.add(final_state(schedule))
        if on_schedule is not None:
            on_schedule(schedule)

    start = time.perf_counter()
    result = explore(initial, specs, on_schedule=collect, **kwargs)
    return result, time.perf_counter() - start, finals


@pytest.fixture(scope="module")
def runs():
    out = {}
    initial, specs = incrementer_specs()
    out["inc_full"] = timed_explore(initial.copy(), specs, pruning=False)
    out["inc_pruned"] = timed_explore(initial.copy(), specs, pruning=True)

    scenario = next(s for s in banking_scenarios() if s.name == "withdraw-race")
    levels = {name: "READ COMMITTED" for name in scenario.focus}
    out["bank_capped"] = timed_explore(
        scenario.initial(),
        scenario.specs(levels),
        pruning=False,
        max_schedules=UNPRUNED_CAP,
    )
    violations = []

    def check(schedule):
        report = check_semantic_correctness(schedule, scenario.invariant, scenario.cumulative)
        if not report.correct:
            violations.append(report.summary())

    out["bank_pruned"] = timed_explore(
        scenario.initial(), scenario.specs(levels), on_schedule=check
    )
    out["bank_violations"] = len(violations)
    return out


def final_state(schedule):
    items = tuple(sorted(schedule.final.items.items()))
    arrays = tuple(
        (array, tuple((i, tuple(sorted(row.items()))) for i, row in sorted(rows.items())))
        for array, rows in sorted(schedule.final.arrays.items())
    )
    committed = tuple(sorted(o.name for o in schedule.committed))
    return items, arrays, committed


def test_bench_explore_pruning(runs):
    """Pruning shrinks the DFS without losing any reachable outcome."""
    inc_full, full_wall, inc_full_finals = runs["inc_full"]
    inc_pruned, pruned_wall, inc_pruned_finals = runs["inc_pruned"]
    assert inc_pruned.runs < inc_full.runs
    assert inc_pruned_finals == inc_full_finals

    bank_capped, capped_wall, bank_capped_finals = runs["bank_capped"]
    bank_pruned, bank_wall, bank_pruned_finals = runs["bank_pruned"]
    assert not bank_pruned.truncated
    assert bank_pruned.runs < bank_capped.runs
    assert bank_pruned_finals == bank_capped_finals
    # the smaller tree still surfaces the RC lost update
    assert runs["bank_violations"] > 0

    rows = [
        ("incrementers / full DFS", inc_full.runs, inc_full.schedules,
         inc_full.pruned_sleep, f"{full_wall * 1000:.0f}"),
        ("incrementers / pruned", inc_pruned.runs, inc_pruned.schedules,
         inc_pruned.pruned_sleep, f"{pruned_wall * 1000:.0f}"),
        (f"withdraw-race / capped@{UNPRUNED_CAP}", bank_capped.runs, bank_capped.schedules,
         bank_capped.pruned_sleep, f"{capped_wall * 1000:.0f}"),
        ("withdraw-race / pruned", bank_pruned.runs, bank_pruned.schedules,
         bank_pruned.pruned_sleep, f"{bank_wall * 1000:.0f}"),
    ]
    emit(
        "E12-exploration-pruning",
        format_table(
            ("configuration", "runs", "schedules", "pruned sleep", "wall ms"), rows
        ),
    )
    emit_json(
        "BENCH_explore",
        {
            "config": {
                "levels": "READ COMMITTED",
                "unpruned_cap": UNPRUNED_CAP,
            },
            "incrementers": {
                "full": inc_full.to_dict(),
                "pruned": inc_pruned.to_dict(),
                "reduction": round(1 - inc_pruned.runs / inc_full.runs, 3),
            },
            "withdraw_race": {
                "capped_unpruned": bank_capped.to_dict(),
                "pruned": bank_pruned.to_dict(),
                "violations_found": runs["bank_violations"],
            },
            "wall_ms": {
                "incrementers_full": round(full_wall * 1000, 1),
                "incrementers_pruned": round(pruned_wall * 1000, 1),
                "withdraw_race_capped": round(capped_wall * 1000, 1),
                "withdraw_race_pruned": round(bank_wall * 1000, 1),
            },
        },
    )
