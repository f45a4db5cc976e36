"""explore-probes: ``certify.run_probe`` on every registered scenario at six levels.

One process runs all 66 (scenario, level) cells one at a time, with every
focus type of the scenario at that level and the default 500-run bound.
The explorer, engine, anomaly monitor and semantic check do the work; the
static core is idle.  Exhaustive exploration takes no seed; the cells run
in registration order.
"""

from __future__ import annotations

import time

import oracles

APPS = ("banking", "tpcc-lite", "mvcc-stress")


def cells() -> list:
    from repro.pipeline.scenarios import scenarios_for

    return [
        (app, scenario, level)
        for app in APPS
        for scenario in scenarios_for(app)
        for level in oracles.LEVELS
    ]


def probe(cell, context):
    from repro.pipeline.certify import run_probe

    _app, scenario, level = cell
    return run_probe(scenario, {name: level for name in scenario.focus}, context)


def context(seed: int):
    from repro.pipeline.context import RunContext

    return RunContext(seed=seed, no_persist=True)


def warmup(seed: int) -> None:
    """One untimed unit: the first cell."""
    probe(cells()[0], context(seed))


def check(cell, result) -> str | None:
    app, scenario, level = cell
    expected = oracles.expects_violations(app, scenario.name, level)
    if (result.violations > 0) != expected:
        return (
            f"{scenario.name} at {level}: {result.violations} violations,"
            f" E7 expects {'some' if expected else 'none'}"
        )
    return None


def run_pass(seed: int, seconds: float, trace: bool, sink, index: int) -> None:
    import tracer

    ctx = context(seed)
    for number, cell in enumerate(cells()):
        unit_id = index * 1000 + number
        tracer.TRACER.trace_id = unit_id
        started = time.perf_counter()
        result = probe(cell, ctx)
        wall = time.perf_counter() - started
        sink.unit(wall, check(cell, result), f"{cell[1].name}@{cell[2]}")
        if trace:
            sink.covered_unit(tracer.TRACER.covered[unit_id], wall)
