"""Pinned probe outputs and the witness replay behind ``invalidations``.

``data/probe_golden.json`` holds ``run_probe(...).to_dict()`` for cheap
(scenario, level) cells, plus long-reader at READ COMMITTED FCW, whose
witnesses restart after an abort.  It was recorded when every explored
schedule ran under an assertion monitor; probes settle each schedule as
it completes and replay only the witnesses with the monitor, so these
cells pin that both ways agree, witness by witness.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ScheduleError
from repro.pipeline import RunContext, run_probe, scenarios_for
from repro.sched.explore import Explorer
from repro.sched.monitor import AssertionMonitor
from repro.sched.semantic import check_semantic_correctness

GOLDEN = json.loads((Path(__file__).parent / "data" / "probe_golden.json").read_text())


def scenario_named(app: str, name: str):
    return next(s for s in scenarios_for(app) if s.name == name)


def test_golden_covers_nonzero_invalidations():
    counts = [w["invalidations"] for cell in GOLDEN for w in cell["probe"]["witnesses"]]
    assert len(GOLDEN) >= 6
    assert any(counts) and 0 in counts


@pytest.mark.parametrize(
    "cell", GOLDEN, ids=[f"{c['scenario']}@{c['level']}" for c in GOLDEN]
)
def test_probe_matches_golden(cell):
    scenario = scenario_named(cell["app"], cell["scenario"])
    levels = {name: cell["level"] for name in scenario.focus}
    probe = run_probe(scenario, levels, RunContext(no_persist=True))
    assert json.loads(json.dumps(probe.to_dict())) == cell["probe"]


def _first_violation(app: str, name: str, level: str):
    scenario = scenario_named(app, name)
    schedules = []
    explorer = Explorer(
        scenario.initial(), scenario.specs({n: level for n in scenario.focus}),
        on_schedule=schedules.append,
    )
    explorer.run()
    for schedule in schedules:
        if not check_semantic_correctness(schedule, scenario.invariant).correct:
            return explorer, schedule
    raise AssertionError("no violating schedule")


def test_witness_replay_of_diverging_script_raises():
    explorer, schedule = _first_violation("banking", "withdraw-race", "READ COMMITTED")
    # one more decision for an instance that has already committed: the
    # replay skips it, so the realised script is not the recorded one
    longer = dataclasses.replace(schedule, script=schedule.script + [schedule.script[-1]])
    with pytest.raises(ScheduleError, match="diverged"):
        explorer.replay(longer, [AssertionMonitor()])


def test_witness_replay_of_diverging_history_raises():
    explorer, schedule = _first_violation("banking", "withdraw-race", "READ COMMITTED")
    truncated = dataclasses.replace(schedule, history=schedule.history[:-1])
    with pytest.raises(ScheduleError, match="diverged"):
        explorer.replay(truncated, [])
