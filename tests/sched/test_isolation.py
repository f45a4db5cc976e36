"""The client-centric isolation axioms: unit cases, non-vacuity, separation.

The axioms are only an oracle if they can fail.  Three kinds of check
show that they do:

* hand-built and DSL-replayed histories that break each commit test;
* deliberately broken visibility rules, patched into the engine by
  fixtures, whose explored histories the axioms must reject;
* **separation**: the explorer finds a history READ COMMITTED admits and
  SNAPSHOT forbids (``withdraw-race``'s lost update) and one SNAPSHOT
  admits and SERIALIZABLE forbids (``write-skew``).  Each witness is
  rendered in the history DSL and replayed on the engine: at the
  admitting level every step runs, at the forbidding level the engine
  refuses it.
"""

import pytest

from repro.core.state import DbState
from repro.engine import transaction
from repro.engine.manager import HistoryOp
from repro.engine.storage import MvccStore
from repro.engine.transaction import (
    READ_COMMITTED,
    READ_UNCOMMITTED,
    REPEATABLE_READ,
    SERIALIZABLE,
    SNAPSHOT,
    Txn,
)
from repro.pipeline.scenarios import scenarios_for
from repro.sched.explore import explore
from repro.sched.histories import history_string, replay
from repro.sched.isolation import isolation_violations, schedule_violations


def scenario(app, name):
    return next(s for s in scenarios_for(app) if s.name == name)


def explored(app, name, level, pruning=True):
    """Every schedule the explorer completes, all instances at ``level``."""
    scen = scenario(app, name)
    levels = {spec.txn_type.name: level for spec in scen.specs({})}
    schedules = []
    result = explore(
        scen.initial(), scen.specs(levels), retry=True, pruning=pruning,
        on_schedule=schedules.append,
    )
    assert not result.truncated
    return schedules


def ops(*rows):
    """Synthetic history: ``(txn, kind, key, info)`` rows, ticks in order."""
    return [
        HistoryOp(tick, txn, kind, key, info=info or {})
        for tick, (txn, kind, key, info) in enumerate(rows, start=1)
    ]


X = ("item", "x")


class TestCommitTests:
    def test_lost_update_fails_ser_but_passes_rc(self):
        result = replay("r1[x] r2[x] w1[x=1] c1 w2[x=2] c2", {}, default_level=READ_COMMITTED)
        assert result.executed_fully
        history, initial = result.engine.history, DbState(items={"x": 0})
        assert isolation_violations(initial, history, READ_COMMITTED) == []
        (violation,) = isolation_violations(initial, history, SERIALIZABLE)
        assert "x=0" in violation and "x=1" in violation

    def test_read_of_never_committed_value_fails_rc(self):
        # a dirty read of a write that is rolled back (READ UNCOMMITTED)
        result = replay("w1[x=1] r2[x] a1 c2", {}, default_level=READ_UNCOMMITTED)
        assert result.executed_fully
        initial = DbState(items={"x": 0})
        assert isolation_violations(initial, result.engine.history, READ_UNCOMMITTED) == []
        (violation,) = isolation_violations(initial, result.engine.history, READ_COMMITTED)
        assert "no earlier state" in violation

    def test_concurrent_writers_fail_si_no_conf(self):
        history = ops(
            (1, "begin", None, None),
            (2, "begin", None, None),
            (1, "r", X, {"value": 0}),
            (2, "r", X, {"value": 0}),
            (1, "w", X, {"value": 1}),
            (2, "w", X, {"value": 2}),
            (1, "commit", None, None),
            (2, "commit", None, None),
        )
        (violation,) = isolation_violations(DbState(items={"x": 0}), history, SNAPSHOT)
        assert violation.startswith("SNAPSHOT: txn 2")

    def test_snapshot_may_predate_the_begin(self):
        # txn 2 begins after txn 1's commit yet reads the initial state:
        # an earlier snapshot is allowed when nothing conflicts with it
        history = ops(
            (1, "begin", None, None),
            (1, "w", X, {"value": 1}),
            (1, "commit", None, None),
            (2, "begin", None, None),
            (2, "r", X, {"value": 0}),
            (2, "w", ("item", "y"), {"value": 5}),
            (2, "commit", None, None),
        )
        initial = DbState(items={"x": 0, "y": 0})
        assert isolation_violations(initial, history, SNAPSHOT) == []
        assert isolation_violations(initial, history, SERIALIZABLE) != []

    def test_own_write_must_be_read_back(self):
        history = ops(
            (1, "begin", None, None),
            (1, "w", ("record", "acct", 0), {"attr": "bal", "value": 7}),
            (1, "r", ("record", "acct", 0), {"attrs": ("bal",), "values": {"bal": 3}}),
            (1, "commit", None, None),
        )
        initial = DbState(arrays={"acct": {0: {"bal": 3}}})
        (violation,) = isolation_violations(initial, history, READ_COMMITTED)
        assert "acct[0].bal=3 after writing 7" in violation

    def test_mixed_levels_are_out_of_scope(self):
        scen = scenario("banking", "write-skew")
        names = [spec.txn_type.name for spec in scen.specs({})]
        levels = dict(zip(names, (SNAPSHOT, SERIALIZABLE)))
        schedules = []
        explore(scen.initial(), scen.specs(levels), on_schedule=schedules.append)
        with pytest.raises(ValueError, match="mixed-level"):
            schedule_violations(schedules[0])


# -- broken visibility rules -------------------------------------------------


@pytest.fixture
def snapshot_reads_latest(monkeypatch):
    """SNAPSHOT reads return the latest committed value, not the begin snapshot."""
    monkeypatch.setattr(
        MvccStore, "_resolve_snapshot", lambda self, chain, snap: self._resolve_committed(chain)
    )


@pytest.fixture
def read_committed_reads_dirty(monkeypatch):
    """READ COMMITTED reads take no lock, so they see uncommitted writes."""
    locking = Txn.read_lock_duration.fget
    monkeypatch.setattr(
        Txn,
        "read_lock_duration",
        property(lambda txn: None if txn.level == READ_COMMITTED else locking(txn)),
    )


@pytest.fixture
def serializable_short_read_locks(monkeypatch):
    """SERIALIZABLE releases its read locks after each read."""
    monkeypatch.setattr(transaction, "_LONG_READ_LOCK", {REPEATABLE_READ})


BROKEN = [
    ("snapshot_reads_latest", "write-skew", SNAPSHOT),
    ("read_committed_reads_dirty", "write-skew", READ_COMMITTED),
    ("serializable_short_read_locks", "withdraw-race", SERIALIZABLE),
]


@pytest.mark.parametrize("fixture,name,level", BROKEN, ids=[row[0] for row in BROKEN])
def test_broken_visibility_is_caught(request, fixture, name, level):
    """The explorer runs unpruned here: DPOR's race model assumes the
    level's visibility rule, so it would not reach the interleavings a
    broken rule exposes."""
    assert not any(
        schedule_violations(s) for s in explored("banking", name, level, pruning=False)
    )
    request.getfixturevalue(fixture)
    caught = [
        s for s in explored("banking", name, level, pruning=False) if schedule_violations(s)
    ]
    assert caught, f"{fixture}: the {level} axiom admitted every history"


# -- separation ------------------------------------------------------------------

SEPARATIONS = [
    ("withdraw-race", READ_COMMITTED, SNAPSHOT),
    ("write-skew", SNAPSHOT, SERIALIZABLE),
]


def separating(name, weak, strong):
    """Explored ``weak`` histories that pass ``weak``'s axiom and fail ``strong``'s."""
    return [
        schedule
        for schedule in explored("banking", name, weak)
        if not isolation_violations(schedule.initial, schedule.history, weak)
        and isolation_violations(schedule.initial, schedule.history, strong)
    ]


@pytest.mark.parametrize("name,weak,strong", SEPARATIONS)
def test_the_explorer_separates_the_levels(name, weak, strong):
    assert separating(name, weak, strong)


@pytest.mark.parametrize("name,weak,strong", SEPARATIONS)
def test_separation_witnesses_replay_on_the_engine(name, weak, strong):
    """Each witness replays in full at ``weak``; ``strong`` refuses it.

    The DSL begins a transaction at its first token, while the explorer
    begins it at its first scheduled step (which may have blocked).  A
    witness whose DSL line no longer separates the levels once its begins
    move is not a witness of the line, so it is skipped; at least one must
    remain.
    """
    checked = 0
    for schedule in separating(name, weak, strong):
        line = history_string(schedule.history)
        admitted = replay(line, {}, initial=schedule.initial, default_level=weak)
        assert admitted.executed_fully, (line, admitted.steps)
        assert history_string(admitted.engine.history) == line
        assert admitted.final.same_as(schedule.final)
        replayed = admitted.engine.history
        assert isolation_violations(schedule.initial, replayed, weak) == []
        if not isolation_violations(schedule.initial, replayed, strong):
            continue
        refused = replay(line, {}, initial=schedule.initial, default_level=strong)
        assert refused.blocked_steps or refused.aborted_steps, (line, strong)
        checked += 1
    assert checked
