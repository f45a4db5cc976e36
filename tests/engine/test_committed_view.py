"""The engine's committed view: materialised once per commit, never stale.

``Engine.committed_state()`` hands out one engine-owned, read-only
``DbState`` per committed-view change.  These tests pin both halves of
that contract: the view always equals a fresh materialisation of the
store, and the object is reused exactly while nothing was committed.
"""

import pytest

from repro.core.state import DbState
from repro.engine.manager import Engine
from repro.pipeline.scenarios import scenarios_for
from repro.sched.explore import explore
from repro.sched.simulator import Simulator


def make_engine() -> Engine:
    return Engine(
        DbState(
            items={"x": 5},
            arrays={"acct": {0: {"bal": 10}}},
            tables={"T": [{"k": 1}]},
        )
    )


class TestReuse:
    def test_same_object_until_a_commit(self):
        engine = make_engine()
        view = engine.committed_state()
        reader = engine.begin("READ COMMITTED")
        engine.read_item(reader, "x")
        assert engine.committed_state() is view
        writer = engine.begin("READ UNCOMMITTED")
        engine.write_item(writer, "x", 50)  # dirty write
        engine.insert(writer, "T", {"k": 2})
        assert engine.committed_state() is view
        engine.abort(writer)
        assert engine.committed_state() is view
        engine.run_vacuum()
        assert engine.committed_state() is view
        engine.commit(reader)  # a read-only commit still starts a new view
        after_reader = engine.committed_state()
        assert after_reader is not view
        assert after_reader == view
        writer = engine.begin("SNAPSHOT")
        engine.write_item(writer, "x", 7)
        engine.commit(writer)
        latest = engine.committed_state()
        assert latest is not after_reader
        assert latest.items["x"] == 7
        assert view.items["x"] == 5  # an earlier view is left as it was

    def test_insert_into_a_new_table_refreshes_the_view(self):
        engine = make_engine()
        before = engine.committed_state()
        txn = engine.begin("READ COMMITTED")
        engine.insert(txn, "NEW", {"k": 1})
        # the committed view lists every table the store knows, empty or not
        assert engine.committed_state() == engine.store.public_state(committed_only=True)
        assert engine.committed_state() is not before
        engine.abort(txn)
        assert engine.committed_state() == engine.store.public_state(committed_only=True)


def _scenario(app: str, name: str):
    return next(s for s in scenarios_for(app) if s.name == name)


@pytest.mark.parametrize(
    "app,name,level",
    [
        ("banking", "withdraw-race", "READ COMMITTED"),
        ("banking", "withdraw-race-3", "REPEATABLE READ"),  # deadlock aborts
        ("banking", "write-skew", "SNAPSHOT"),
        ("tpcc-lite", "new-order-race", "READ UNCOMMITTED"),
        ("tpcc-lite", "delivery-vs-new-order", "SERIALIZABLE"),
        ("tpcc-lite", "district-mix", "READ UNCOMMITTED"),
    ],
)
def test_explored_runs_keep_the_view_fresh(monkeypatch, app, name, level):
    """After every step of every explored run the cached view equals a
    fresh materialisation, and committed outcomes never share one."""
    steps = [0]
    original = Simulator._step

    def checked_step(self, rt):
        original(self, rt)
        steps[0] += 1
        engine = self.engine
        assert engine.committed_state() == engine.store.public_state(committed_only=True)

    monkeypatch.setattr(Simulator, "_step", checked_step)
    scenario = _scenario(app, name)
    levels = {spec.txn_type.name: level for spec in scenario.specs({})}
    schedules = [0]

    def on_schedule(result):
        schedules[0] += 1
        views = [o.committed_state for o in result.committed]
        assert len({id(view) for view in views}) == len(views)
        if views:
            assert result.final is views[-1]  # nothing committed after the last

    result = explore(
        scenario.initial(), scenario.specs(levels), max_schedules=60, on_schedule=on_schedule
    )
    assert result.runs > 1 and schedules[0] > 1 and steps[0] > 10
