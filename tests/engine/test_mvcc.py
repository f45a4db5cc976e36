"""Engine-level MVCC edge cases: abort recovery, rid lifecycle, vacuum.

These exercise the manager/storage seam that the unit tests
(:mod:`tests.engine.test_storage`) and the lockstep differential harness
(:mod:`tests.engine.test_differential`) cannot see in isolation: a
snapshot commit that is refused mid-flight, deleted-row identity across
abort, and the interaction of the vacuum horizon with long-running
readers.
"""

import pytest

from repro.core.state import DbState
from repro.engine.locks import WouldBlock
from repro.engine.manager import Engine
from repro.errors import FirstCommitterWinsAbort


def make_engine(**kwargs) -> Engine:
    return Engine(
        DbState(
            items={"x": 5},
            arrays={"acct": {0: {"bal": 10}}},
            tables={"T": [{"k": 1}, {"k": 2}, {"k": 3}]},
        ),
        **kwargs,
    )


class TestAbortAfterRefusedCommit:
    """A snapshot commit refused mid-flight must leave no trace."""

    def test_blocked_si_commit_then_abort_leaves_state_intact(self):
        engine = make_engine()
        locker = engine.begin("READ COMMITTED")
        engine.write_item(locker, "x", 50)  # long X lock on x

        si = engine.begin("SNAPSHOT")
        engine.write_item(si, "x", 99)  # buffered, no lock
        with pytest.raises(WouldBlock):
            engine.commit(si)
        # the refused commit must not have stamped anything: the dirty
        # view shows only the locker's pending write, never the 99
        assert engine.store.read_item("x") == 50
        assert engine.committed_state().items["x"] == 5
        engine.abort(si)
        assert engine.committed_state().items["x"] == 5
        # the blocker is unaffected and commits its own write
        engine.commit(locker)
        assert engine.committed_state().items["x"] == 50

    def test_fcw_abort_mid_commit_discards_whole_overlay(self):
        engine = make_engine()
        loser = engine.begin("SNAPSHOT")
        engine.write_item(loser, "x", 99)
        engine.write_field(loser, "acct", 0, "bal", 999)
        engine.insert(loser, "T", {"k": 42})

        winner = engine.begin("SNAPSHOT")
        engine.write_item(winner, "x", 7)
        engine.commit(winner)

        with pytest.raises(FirstCommitterWinsAbort):
            engine.commit(loser)
        state = engine.committed_state()
        assert state.items["x"] == 7  # winner's value
        assert state.arrays["acct"][0]["bal"] == 10  # loser's field write gone
        assert len(state.tables["T"]) == 3  # loser's insert gone
        # no half-committed versions left behind for a fresh reader
        probe = engine.begin("SNAPSHOT")
        assert engine.read_item(probe, "x") == 7
        engine.commit(probe)


class TestDeleteThenAbortRidLifecycle:
    def test_aborted_delete_restores_same_rid_at_end(self):
        engine = make_engine()
        txn = engine.begin("REPEATABLE READ")
        before = {row["k"]: rid for rid, row in engine.store.dirty_rows("T")}
        engine.delete(txn, "T", lambda row: row["k"] == 1)
        engine.abort(txn)
        after = [(rid, row["k"]) for rid, row in engine.store.dirty_rows("T")]
        # same rid, but re-appended at the end of the live order (the
        # contract the engine parity golden pins)
        assert after == [(before[2], 2), (before[3], 3), (before[1], 1)]

    def test_aborted_delete_does_not_free_the_rid(self):
        engine = make_engine()
        txn = engine.begin("REPEATABLE READ")
        engine.delete(txn, "T", lambda row: True)
        engine.abort(txn)
        fresh = engine.begin("REPEATABLE READ")
        engine.insert(fresh, "T", {"k": 9})
        engine.commit(fresh)
        rids = [rid for rid, _row in engine.store.dirty_rows("T")]
        assert len(rids) == len(set(rids)) == 4  # no rid was recycled

    def test_committed_delete_then_insert_gets_fresh_rid(self):
        engine = make_engine()
        txn = engine.begin("REPEATABLE READ")
        engine.delete(txn, "T", lambda row: row["k"] == 2)
        engine.commit(txn)
        txn = engine.begin("REPEATABLE READ")
        engine.insert(txn, "T", {"k": 2})
        engine.commit(txn)
        rids = [rid for rid, _row in engine.store.dirty_rows("T")]
        assert len(rids) == len(set(rids)) == 3


class TestVacuum:
    def _churn(self, engine, rounds):
        for value in range(rounds):
            writer = engine.begin("READ COMMITTED")
            engine.write_item(writer, "x", value)
            engine.commit(writer)

    def test_long_reader_pins_its_version_until_exit(self):
        engine = make_engine(vacuum="auto")
        reader = engine.begin("SNAPSHOT")
        assert engine.read_item(reader, "x") == 5
        self._churn(engine, 5)
        # the reader's version survives every auto-vacuum pass...
        assert engine.read_item(reader, "x") == 5
        pinned = engine.store.version_count()
        # the reader's own commit advances the horizon and its trailing
        # auto-vacuum pass reclaims the versions the snapshot was pinning
        engine.commit(reader)
        assert engine.store.version_count() < pinned
        assert engine.run_vacuum() == 0  # nothing left to reclaim

    def test_vacuum_off_accumulates_then_manual_pass_reclaims(self):
        engine = make_engine(vacuum="off")
        baseline = engine.store.version_count()
        self._churn(engine, 6)
        bloated = engine.store.version_count()
        assert bloated >= baseline + 6  # every superseded version retained
        reclaimed = engine.run_vacuum()
        assert reclaimed >= 5
        assert engine.store.version_count() <= bloated - reclaimed

    def test_interval_mode_vacuums_every_n_commits(self):
        engine = make_engine(vacuum=3)
        self._churn(engine, 2)
        accumulated = engine.store.version_count()
        self._churn(engine, 1)  # third commit triggers the pass
        assert engine.store.version_count() < accumulated

    def test_vacuum_mode_never_changes_verdict_relevant_state(self):
        finals = set()
        for mode in ("auto", "off", 2):
            engine = make_engine(vacuum=mode)
            reader = engine.begin("SNAPSHOT")
            engine.read_item(reader, "x")
            self._churn(engine, 4)
            assert engine.read_item(reader, "x") == 5
            engine.commit(reader)
            finals.add(
                (
                    engine.committed_state().canonical(),
                    tuple((op.kind, op.key, op.version) for op in engine.history),
                )
            )
        assert len(finals) == 1
