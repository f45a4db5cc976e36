"""Unit tests for the MVCC store."""

import pytest

from repro.core.state import DbState
from repro.engine.storage import (
    RID,
    BOOTSTRAP_XID,
    MvccStore,
    Snapshot,
    VersionedStore,
    strip_rid,
)
from repro.errors import EvaluationError


def _initial() -> DbState:
    return DbState(
        items={"x": 1},
        arrays={"a": {0: {"v": 10}}},
        tables={"T": [{"k": 1}, {"k": 2}]},
    )


@pytest.fixture
def store():
    return MvccStore.from_state(_initial())


class TestInitialisation:
    def test_alias_is_mvcc(self):
        assert VersionedStore is MvccStore

    def test_rows_receive_rids(self, store):
        rids = [rid for rid, _image in store.dirty_rows("T")]
        assert len(rids) == len(set(rids)) == 2

    def test_committed_mirrors_current(self, store):
        assert store.committed.same_as(store.current)

    def test_strip_rid(self):
        assert strip_rid({"k": 1, RID: 9}) == {"k": 1}

    def test_bootstrap_versions(self, store):
        assert store.items["x"].versions[0].xmin == BOOTSTRAP_XID


class TestVersionCounters:
    def test_initial_versions_are_zero(self, store):
        assert store.version_of(("item", "x")) == 0

    def test_bump(self, store):
        store.bump_version(("item", "x"))
        assert store.version_of(("item", "x")) == 1


class TestVisibility:
    def test_pending_write_invisible_to_committed_view(self, store):
        store.clog.begin(5)
        store.stamp_item(5, "x", 9)
        assert store.read_item("x") == 9  # dirty view
        assert store.materialize().items["x"] == 1

    def test_commit_publishes(self, store):
        store.clog.begin(5)
        store.stamp_item(5, "x", 9)
        store.commit_txn(5, [("item", "x")], {("item", "x"): 1})
        assert store.materialize().items["x"] == 9
        assert store.version_of(("item", "x")) == 1

    def test_snapshot_does_not_see_later_commit(self, store):
        store.clog.begin(5)
        snap = store.take_snapshot(5)
        store.clog.begin(6)
        store.stamp_item(6, "x", 9)
        store.commit_txn(6, [("item", "x")], {})
        assert store.read_item("x", snap=snap) == 1
        assert store.read_item("x") == 9

    def test_snapshot_does_not_see_inflight(self, store):
        store.clog.begin(5)
        store.stamp_item(5, "x", 9)
        store.clog.begin(6)
        snap = store.take_snapshot(6)
        store.commit_txn(5, [("item", "x")], {})
        # xid 5 was in flight when the snapshot was captured
        assert store.read_item("x", snap=snap) == 1

    def test_unknown_item_message(self, store):
        with pytest.raises(EvaluationError, match="unknown database item 'nope'"):
            store.read_item("nope")

    def test_unknown_field_message(self, store):
        with pytest.raises(EvaluationError, match=r"unknown array element a\[0\].w"):
            store.read_field("a", 0, "w")

    def test_snapshot_row_deleted_later_still_visible(self, store):
        rid = next(iter(store.tables["T"]))
        store.clog.begin(5)
        snap = store.take_snapshot(5)
        store.clog.begin(6)
        store.stamp_delete(6, "T", rid)
        store.commit_txn(6, [("del", "T", rid)], {})
        assert rid in dict(store.snapshot_rows("T", snap))
        assert rid not in dict(store.committed_rows("T"))


class TestAbortUnstamping:
    def test_abort_item_drops_pending_version(self, store):
        store.clog.begin(5)
        store.stamp_item(5, "x", 9)
        store.abort_txn(5, [("item", "x")])
        assert store.read_item("x") == 1
        assert len(store.items["x"].versions) == 1

    def test_abort_insert_removes_chain(self, store):
        store.clog.begin(5)
        rid = store.new_rid()
        store.stamp_insert(5, "T", rid, {"k": 3})
        store.abort_txn(5, [("ins", "T", rid)])
        assert rid not in store.tables["T"]
        assert rid not in dict(store.dirty_rows("T"))

    def test_abort_delete_unstamps_xmax(self, store):
        rid = next(iter(store.tables["T"]))
        store.clog.begin(5)
        store.stamp_delete(5, "T", rid)
        assert rid not in dict(store.dirty_rows("T"))
        store.abort_txn(5, [("del", "T", rid)])
        assert rid in dict(store.dirty_rows("T"))
        assert store.tables["T"][rid].newest().xmax is None

    def test_abort_restores_row_at_end_of_live_order(self, store):
        first = next(iter(store.tables["T"]))
        store.clog.begin(5)
        store.stamp_delete(5, "T", first)
        store.abort_txn(5, [("del", "T", first)])
        assert [rid for rid, _ in store.dirty_rows("T")][-1] == first


class TestFirstCommitterWins:
    def test_changed_since(self, store):
        store.clog.begin(5)
        snap = store.take_snapshot(5)
        assert not store.changed_since(("item", "x"), snap)
        store.clog.begin(6)
        store.stamp_item(6, "x", 9)
        store.commit_txn(6, [("item", "x")], {})
        assert store.changed_since(("item", "x"), snap)

    def test_commit_stamp_survives_vacuum(self, store):
        store.clog.begin(5)
        snap = store.take_snapshot(5)
        store.clog.begin(6)
        store.stamp_item(6, "x", 9)
        store.commit_txn(6, [("item", "x")], {})
        store.vacuum([])  # no live snapshots: history is trimmed
        assert len(store.items["x"].versions) == 1
        assert store.changed_since(("item", "x"), snap)


class TestVacuum:
    def test_reclaims_dead_versions(self, store):
        for xid in (5, 6, 7):
            store.clog.begin(xid)
            store.stamp_item(xid, "x", xid)
            store.commit_txn(xid, [("item", "x")], {})
        assert len(store.items["x"].versions) == 4
        reclaimed = store.vacuum([])
        assert reclaimed == 3
        assert len(store.items["x"].versions) == 1
        assert store.read_item("x") == 7

    def test_live_snapshot_pins_history(self, store):
        store.clog.begin(5)
        snap = store.take_snapshot(5)
        store.clog.begin(6)
        store.stamp_item(6, "x", 9)
        store.commit_txn(6, [("item", "x")], {})
        store.vacuum([snap])
        assert store.read_item("x", snap=snap) == 1
        # after the reader exits, a later pass reclaims even without new writes
        store.vacuum([])
        assert len(store.items["x"].versions) == 1

    def test_deleted_row_chain_dropped(self, store):
        rid = next(iter(store.tables["T"]))
        store.clog.begin(5)
        store.stamp_delete(5, "T", rid)
        store.commit_txn(5, [("del", "T", rid)], {})
        store.vacuum([])
        assert rid not in store.tables["T"]

    def test_pending_versions_never_reclaimed(self, store):
        store.clog.begin(5)
        store.stamp_item(5, "x", 9)
        store.vacuum([])
        assert store.read_item("x") == 9

    def test_version_count(self, store):
        assert store.version_count() == 4  # 1 item + 1 record + 2 rows
        store.clog.begin(5)
        store.stamp_item(5, "x", 9)
        assert store.version_count() == 5


class TestSnapshotCapture:
    def test_capture_is_a_tiny_tuple(self, store):
        store.clog.begin(5)
        snap = store.take_snapshot(5)
        assert isinstance(snap, Snapshot)
        assert snap.xmax == 5 and snap.xip == frozenset()

    def test_capture_records_stats(self, store):
        before = store.stats.snapshot_captures
        store.clog.begin(5)
        store.take_snapshot(5)
        assert store.stats.snapshot_captures == before + 1


class TestMaterialisedViews:
    def test_public_state_strips_rids(self, store):
        public = store.public_state()
        for row in public.rows("T"):
            assert RID not in row

    def test_public_state_committed_vs_live(self, store):
        store.clog.begin(5)
        store.stamp_item(5, "x", 7)  # uncommitted
        assert store.public_state(committed_only=True).read_item("x") == 1
        assert store.public_state(committed_only=False).read_item("x") == 7
