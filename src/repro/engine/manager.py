"""The engine: per-isolation-level operation semantics.

Implements the locking/multiversion recipes of [2] that the paper's
theorems assume:

===================  =========================  ==========================
level                reads                      writes
===================  =========================  ==========================
READ UNCOMMITTED     no locks (sees dirty data) long X locks, pending
                                                version stamps
READ COMMITTED       short S locks              long X locks, pending
                                                version stamps
READ COMMITTED FCW   short S locks + commit-    long X locks + first-
                     stamp recording            committer-wins validation
REPEATABLE READ      long S locks               long X locks, pending
                                                version stamps
SERIALIZABLE         long S locks + long        long X locks + phantom
                     predicate read locks       checks against predicates
SNAPSHOT             O(1) begin snapshot +      buffered in an overlay,
                     private write overlay,     stamped at commit after
                     never waits                first-committer-wins
                                                validation
===================  =========================  ==========================

Storage is the MVCC store of :mod:`repro.engine.storage`: every write
appends (or folds into) a *pending version* stamped with the writer's
xid, commit marks the xid committed in the transaction log, and abort
unstamps — drops pending versions and clears delete ``xmax`` marks — with
no undo closures.  A SNAPSHOT begin captures an O(1)
:class:`repro.engine.storage.Snapshot` instead of deep-copying state.

Reads at READ COMMITTED and above never observe uncommitted row images:
when a row is X-locked by another transaction, the *committed* version is
used to evaluate predicates, and a matching row blocks the reader (the
short/long S lock cannot be granted) — exactly the behaviour of the [2]
lock protocols.

All operations are non-blocking in the thread sense: they either complete
or raise :class:`repro.engine.locks.WouldBlock`; the scheduler owns retry
and deadlock policy.  Every operation appends to ``history`` for the
isolation and anomaly analyses in :mod:`repro.sched`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.core.state import DbState
from repro.engine.locks import EXCLUSIVE, LONG, LockManager, SHARED, SHORT, WouldBlock
from repro.engine.storage import RID, MvccStore, strip_rid
from repro.engine.transaction import (
    ABORTED,
    ALL_LEVELS,
    COMMITTED,
    Txn,
    WriteOverlay,
)
from repro.errors import EngineError, FirstCommitterWinsAbort, TransactionAborted


@dataclass
class HistoryOp:
    """One recorded operation, for offline schedule analysis."""

    tick: int
    txn_id: int
    kind: str  # r | w | ins | del | upd | begin | commit | abort
    key: tuple | None = None
    version: int | None = None
    dirty_from: int | None = None
    info: dict = field(default_factory=dict)


class Engine:
    """A cooperative, deterministic multi-level transactional engine."""

    def __init__(
        self,
        initial: DbState,
        phantom_protection: bool = True,
        vacuum: str | int = "auto",
    ) -> None:
        self.store = MvccStore.from_state(initial)
        self.locks = LockManager()
        self.txns: dict = {}
        self.history: list = []
        self._next_id = 1
        self.tick = 0
        #: ablation switch (DESIGN.md §6.3): with predicate locking off,
        #: INSERTs are never blocked by other transactions' predicates —
        #: phantoms leak into SERIALIZABLE readers and into UPDATE/DELETE
        #: predicates, breaking e.g. New_Order even at READ COMMITTED
        self.phantom_protection = phantom_protection
        #: version GC policy: "auto" vacuums after every commit, "off"
        #: never (versions accumulate), an int N vacuums every N commits.
        #: All modes are deterministic in the schedule, and vacuum only
        #: reclaims versions no reader can resolve, so verdicts are
        #: identical across modes (the CI vacuum-correctness smoke).
        self.vacuum_mode = vacuum
        self._commits_since_vacuum = 0
        #: the committed view and the store epoch it was materialised at
        self._committed_view: DbState | None = None
        self._committed_view_epoch = -1

    # -- lifecycle -----------------------------------------------------------
    def begin(self, level: str) -> Txn:
        if level not in ALL_LEVELS:
            raise EngineError(f"unknown isolation level {level!r}")
        txn = Txn(txn_id=self._next_id, level=level, begin_tick=self.tick)
        self._next_id += 1
        self.store.clog.begin(txn.txn_id)
        if txn.uses_snapshot:
            txn.snapshot = self.store.take_snapshot(txn.txn_id)
            txn.overlay = WriteOverlay()
        self.txns[txn.txn_id] = txn
        self._record(txn, "begin")
        return txn

    def commit(self, txn: Txn) -> None:
        self._require_active(txn)
        if txn.uses_snapshot:
            self._commit_snapshot(txn)
        else:
            self.store.commit_txn(txn.txn_id, txn.stamped, txn.bump_counts)
        self.locks.release_all(txn.txn_id)
        txn.status = COMMITTED
        txn.commit_tick = self.tick
        self._record(txn, "commit", info=self._txn_footprint(txn))
        self._auto_vacuum()

    def abort(self, txn: Txn, reason: str = "explicit") -> None:
        if txn.status in (COMMITTED, ABORTED):
            return
        if txn.uses_snapshot:
            # buffered writes never reached the store: drop the overlay
            self.store.clog.abort(txn.txn_id)
        else:
            self.store.abort_txn(txn.txn_id, txn.stamped)
        self.locks.release_all(txn.txn_id)
        txn.status = ABORTED
        txn.abort_reason = reason
        info = self._txn_footprint(txn)
        info["reason"] = reason
        self._record(txn, "abort", info=info)

    def _commit_snapshot(self, txn: Txn) -> None:
        snap = txn.snapshot
        for key in sorted(txn.write_set):
            if self.store.changed_since(key, snap):
                self.abort(txn, reason=f"first-committer-wins on {key}")
                raise FirstCommitterWinsAbort(txn.txn_id, str(key))
            holders = self.locks.holders(key)
            others = {t for t, mode in holders.items() if t != txn.txn_id and mode == EXCLUSIVE}
            if others:
                raise WouldBlock(others, key=key, mode=EXCLUSIVE)
        # validation passed: stamp the buffered writes as this xid's
        # versions, then mark the xid committed in one step
        overlay = txn.overlay
        xid = txn.txn_id
        stamped: list = []
        for name, value in overlay.items.items():
            self.store.stamp_item(xid, name, value)
            stamped.append(("item", name))
        for (array, index), attrs in overlay.records.items():
            self.store.stamp_record(xid, array, index, attrs)
            stamped.append(("record", array, index))
        for table, changed in overlay.updated.items():
            deleted = overlay.deleted.get(table, set())
            for rid, delta in changed.items():
                if rid in deleted:
                    continue  # the delete stamp below supersedes it
                self.store.stamp_update(xid, table, rid, delta)
                stamped.append(("upd", table, rid))
        for table, rids in overlay.deleted.items():
            for rid in rids:
                self.store.stamp_delete(xid, table, rid)
                stamped.append(("del", table, rid))
        for table, rows in overlay.inserted.items():
            for rid, image in rows.items():
                self.store.stamp_insert(xid, table, rid, image)
                stamped.append(("ins", table, rid))
        self.store.commit_txn(xid, stamped, overlay.bumps)

    def _auto_vacuum(self) -> None:
        mode = self.vacuum_mode
        if mode == "off":
            return
        self._commits_since_vacuum += 1
        interval = 1 if mode == "auto" else int(mode)
        if self._commits_since_vacuum >= interval:
            self._commits_since_vacuum = 0
            self.run_vacuum()

    def run_vacuum(self) -> int:
        """One vacuum pass over recently touched chains; returns reclaimed."""
        live = [
            t.snapshot
            for t in self.txns.values()
            if t.is_active and t.snapshot is not None
        ]
        return self.store.vacuum(live)

    # -- conventional reads ----------------------------------------------------
    def read_item(self, txn: Txn, name: str):
        self._require_active(txn)
        if txn.uses_snapshot:
            if name in txn.overlay.items:
                value = txn.overlay.items[name]
            else:
                value = self.store.read_item(name, snap=txn.snapshot)
            self._record(txn, "r", ("item", name), info={"value": value})
            return value
        key = ("item", name)
        self._read_lock(txn, key)
        value = self.store.read_item(name)
        txn.read_versions.setdefault(key, self.store.commit_stamp(key))
        self._record(
            txn, "r", key, dirty_from=self._dirty_writer(txn, key), info={"value": value}
        )
        return value

    def read_field(self, txn: Txn, array: str, index: int, attr):
        self._require_active(txn)
        if txn.uses_snapshot:
            value = self._snapshot_field(txn, array, index, attr)
            self._record(txn, "r", ("record", array, index), info={"attr": attr, "value": value})
            return value
        key = ("record", array, index)
        self._read_lock(txn, key)
        value = self.store.read_field(array, index, attr)
        txn.read_versions.setdefault(key, self.store.commit_stamp(key))
        self._record(
            txn,
            "r",
            key,
            dirty_from=self._dirty_writer(txn, key),
            info={"attr": attr, "value": value},
        )
        return value

    def read_record(self, txn: Txn, array: str, index: int, attrs: Iterable[str]) -> dict:
        """Atomically read several attributes of one record (one lock)."""
        self._require_active(txn)
        if txn.uses_snapshot:
            values = {
                attr: self._snapshot_field(txn, array, index, attr) for attr in attrs
            }
            self._record(
                txn, "r", ("record", array, index), info={"attrs": tuple(attrs), "values": dict(values)}
            )
            return values
        key = ("record", array, index)
        self._read_lock(txn, key)
        values = {attr: self.store.read_field(array, index, attr) for attr in attrs}
        txn.read_versions.setdefault(key, self.store.commit_stamp(key))
        self._record(
            txn,
            "r",
            key,
            dirty_from=self._dirty_writer(txn, key),
            info={"attrs": tuple(attrs), "values": dict(values)},
        )
        return values

    def _snapshot_field(self, txn: Txn, array: str, index: int, attr):
        """Overlay-then-snapshot resolution of one record attribute."""
        buffered = txn.overlay.records.get((array, index))
        if buffered is not None and attr in buffered:
            return buffered[attr]
        return self.store.read_field(array, index, attr, snap=txn.snapshot)

    # -- conventional writes -----------------------------------------------------
    def write_item(self, txn: Txn, name: str, value) -> None:
        self._require_active(txn)
        key = ("item", name)
        if txn.uses_snapshot:
            txn.overlay.items[name] = value
            txn.write_set.add(key)
            txn.overlay.bump(key)
            self._record(txn, "w", key, info={"value": value})
            return
        self.locks.acquire(txn.txn_id, key, EXCLUSIVE, LONG)
        txn.long_locks.add(key)
        self._validate_fcw(txn, key)
        self.store.stamp_item(txn.txn_id, name, value)
        txn.stamped.append(("item", name))
        txn.bump(key)
        txn.write_set.add(key)
        self._record(txn, "w", key, info={"value": value})

    def write_field(self, txn: Txn, array: str, index: int, attr, value) -> None:
        self._require_active(txn)
        key = ("record", array, index)
        if txn.uses_snapshot:
            txn.overlay.records.setdefault((array, index), {})[attr] = value
            txn.write_set.add(key)
            txn.overlay.bump(key)
            self._record(txn, "w", key, info={"attr": attr, "value": value})
            return
        self.locks.acquire(txn.txn_id, key, EXCLUSIVE, LONG)
        txn.long_locks.add(key)
        self._validate_fcw(txn, key)
        self.store.stamp_field(txn.txn_id, array, index, attr, value)
        txn.stamped.append(("record", array, index))
        txn.bump(key)
        txn.write_set.add(key)
        self._record(txn, "w", key, info={"attr": attr, "value": value})

    # -- relational operations ------------------------------------------------
    def select(self, txn: Txn, table: str, predicate: Callable[[dict], bool]) -> list:
        """Rows (without rids) satisfying the predicate, per-level semantics."""
        self._require_active(txn)
        if txn.uses_snapshot:
            rows = [
                image
                for _rid, image in self._snapshot_view(txn, table)
                if predicate(image)
            ]
            self._record(txn, "r", ("table", table))
            return rows
        if txn.level == "READ UNCOMMITTED":
            rows = []
            for _rid, image in self.store.dirty_rows(table):
                candidate = dict(image)
                if predicate(candidate):
                    rows.append(candidate)
            self._record(txn, "r", ("table", table))
            return rows
        matching = self._visible_matching(txn, table, predicate)
        duration = LONG if txn.read_lock_duration == "long" else SHORT
        acquired: list = []
        try:
            for rid, _image in matching:
                key = ("row", table, rid)
                self.locks.acquire(txn.txn_id, key, SHARED, duration)
                acquired.append(key)
                if duration == LONG:
                    txn.long_locks.add(key)
                txn.read_versions.setdefault(key, self.store.commit_stamp(key))
        except WouldBlock:
            # drop the partial short locks so a retried select starts clean
            for key in acquired:
                if key not in txn.long_locks:
                    self.locks.release(txn.txn_id, key)
            raise
        if txn.takes_predicate_read_locks and self.phantom_protection:
            self.locks.acquire_predicate(txn.txn_id, table, predicate, SHARED, LONG)
        if duration == SHORT:
            for key in acquired:
                if key not in txn.long_locks:
                    self.locks.release(txn.txn_id, key)
        self._record(txn, "r", ("table", table), info={"rids": [rid for rid, _ in matching]})
        return [dict(image) for _rid, image in matching]

    def insert(self, txn: Txn, table: str, row: Mapping) -> None:
        self._require_active(txn)
        image = dict(row)
        if txn.uses_snapshot:
            rid = self.store.new_rid()
            key = ("row", table, rid)
            txn.overlay.inserted.setdefault(table, {})[rid] = dict(image)
            txn.write_set.add(key)
            txn.overlay.bump(key)
            self._record(txn, "ins", ("table", table), info={"row": dict(image)})
            return
        # phantom protection: the new row must not fall into another
        # transaction's predicate (read or write) lock
        if self.phantom_protection:
            self.locks.check_rows_against_predicates(txn.txn_id, table, [image], EXCLUSIVE)
        rid = self.store.new_rid()
        self.store.stamp_insert(txn.txn_id, table, rid, image)
        key = ("row", table, rid)
        self.locks.acquire(txn.txn_id, key, EXCLUSIVE, LONG)
        txn.long_locks.add(key)
        txn.stamped.append(("ins", table, rid))
        txn.bump(key)
        txn.write_set.add(key)
        self._record(txn, "ins", key, info={"row": dict(image)})

    def update(
        self,
        txn: Txn,
        table: str,
        predicate: Callable[[dict], bool],
        changes: Callable[[dict], Mapping],
    ) -> int:
        self._require_active(txn)
        if txn.uses_snapshot:
            updated = 0
            overlay = txn.overlay
            for rid, image in self._snapshot_view(txn, table):
                if not predicate(image):
                    continue
                delta = dict(changes(image))
                key = ("row", table, rid)
                txn.write_set.add(key)
                if overlay.own_insert(table, rid):
                    overlay.inserted[table][rid].update(delta)
                else:
                    overlay.updated.setdefault(table, {}).setdefault(rid, {}).update(delta)
                    overlay.bump(key)
                updated += 1
            self._record(txn, "upd", ("table", table))
            return updated
        matching = self._visible_matching(txn, table, predicate)
        updated = 0
        for rid, image in matching:
            key = ("row", table, rid)
            self.locks.acquire(txn.txn_id, key, EXCLUSIVE, LONG)
            txn.long_locks.add(key)
            self._validate_fcw(txn, key)
            delta = dict(changes(dict(image)))
            new_image = dict(image)
            new_image.update(delta)
            # moving a row into a SERIALIZABLE reader's predicate is a phantom
            if self.phantom_protection:
                self.locks.check_rows_against_predicates(
                    txn.txn_id, table, [new_image], EXCLUSIVE
                )
            self.store.stamp_update(txn.txn_id, table, rid, delta)
            txn.stamped.append(("upd", table, rid))
            txn.bump(key)
            txn.write_set.add(key)
            updated += 1
        if self.phantom_protection:
            self.locks.acquire_predicate(txn.txn_id, table, predicate, EXCLUSIVE, LONG)
        self._record(txn, "upd", ("table", table), info={"count": updated})
        return updated

    def delete(self, txn: Txn, table: str, predicate: Callable[[dict], bool]) -> int:
        self._require_active(txn)
        if txn.uses_snapshot:
            overlay = txn.overlay
            victims = [
                (rid, image)
                for rid, image in self._snapshot_view(txn, table)
                if predicate(image)
            ]
            for rid, _image in victims:
                key = ("row", table, rid)
                txn.write_set.add(key)
                if overlay.own_insert(table, rid):
                    del overlay.inserted[table][rid]
                    overlay.bump(key, -1)
                else:
                    overlay.deleted.setdefault(table, set()).add(rid)
                    overlay.bump(key)
            self._record(txn, "del", ("table", table))
            return len(victims)
        matching = self._visible_matching(txn, table, predicate)
        deleted = 0
        for rid, _image in matching:
            key = ("row", table, rid)
            self.locks.acquire(txn.txn_id, key, EXCLUSIVE, LONG)
            txn.long_locks.add(key)
            self._validate_fcw(txn, key)
            self.store.stamp_delete(txn.txn_id, table, rid)
            txn.stamped.append(("del", table, rid))
            txn.bump(key)
            txn.write_set.add(key)
            deleted += 1
        if self.phantom_protection:
            self.locks.acquire_predicate(txn.txn_id, table, predicate, EXCLUSIVE, LONG)
        self._record(txn, "del", ("table", table), info={"count": deleted})
        return deleted

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _txn_footprint(txn: Txn) -> dict:
        """Lock footprint published on commit/abort history ops.

        ``writes`` are the keys the transaction installed (its write set —
        what a commit publishes, what an abort's unstamping reverts);
        ``reads`` are the long shared locks it merely released.  Surfaced
        here so schedule analyses (the DPOR race detector) read conflict
        granules off the history instead of re-deriving them from
        lock-table state.
        """
        writes = tuple(sorted(txn.write_set))
        reads = tuple(sorted(set(txn.long_locks) - set(txn.write_set)))
        return {"writes": writes, "reads": reads}

    def _snapshot_view(self, txn: Txn, table: str) -> Iterable[tuple]:
        """(rid, image) pairs of a SNAPSHOT transaction's private view.

        Snapshot-visible rows come first in committed order (their images
        merged with the transaction's own buffered updates, minus its own
        deletes), then its own inserts in insertion order — the same
        physical order the old deep-copied private state produced.
        """
        overlay = txn.overlay
        deleted = overlay.deleted.get(table, set())
        changed = overlay.updated.get(table, {})
        for rid, image in self.store.snapshot_rows(table, txn.snapshot):
            if rid in deleted:
                continue
            merged = dict(image)
            delta = changed.get(rid)
            if delta:
                merged.update(delta)
            yield rid, merged
        for rid, image in overlay.inserted.get(table, {}).items():
            yield rid, dict(image)

    def _visible_matching(
        self, txn: Txn, table: str, predicate: Callable[[dict], bool]
    ) -> list:
        """(rid, image) pairs visible to a locking-level transaction.

        Rows X-locked by other transactions are evaluated against their
        *committed* version (uncommitted changes are invisible at READ
        COMMITTED and above); rows deleted-but-uncommitted by others are
        still visible through their committed version.  Acquiring the row
        lock afterwards is what makes the reader wait for the writer.
        """
        images: dict = {}
        for rid, image in self.store.dirty_rows(table):
            images[rid] = dict(image)
        for rid, image in self.store.committed_rows(table):
            key = ("row", table, rid)
            holders = self.locks.holders(key)
            locked_by_other = any(
                holder != txn.txn_id and mode == EXCLUSIVE for holder, mode in holders.items()
            )
            if locked_by_other or rid not in images:
                images[rid] = dict(image)
        matching = []
        for rid, image in images.items():
            if predicate(image):
                matching.append((rid, image))
        matching.sort(key=lambda pair: pair[0])
        return matching

    def _read_lock(self, txn: Txn, key: tuple) -> None:
        duration = txn.read_lock_duration
        if duration is None:
            return
        self.locks.acquire(txn.txn_id, key, SHARED, duration)
        if duration == "long":
            txn.long_locks.add(key)
        elif key not in txn.long_locks:
            self.locks.release(txn.txn_id, key)

    def _validate_fcw(self, txn: Txn, key: tuple) -> None:
        """READ COMMITTED FCW: abort if the location changed since we read
        it — the chain's commit stamp moved past the one we recorded."""
        if txn.level != "READ COMMITTED FCW":
            return
        read_stamp = txn.read_versions.get(key)
        if read_stamp is not None and self.store.commit_stamp(key) != read_stamp:
            self.abort(txn, reason=f"first-committer-wins on {key}")
            raise FirstCommitterWinsAbort(txn.txn_id, str(key))

    def _dirty_writer(self, txn: Txn, key: tuple) -> int | None:
        """The other active transaction holding an X lock on the key, if any."""
        for holder, mode in self.locks.holders(key).items():
            if holder != txn.txn_id and mode == EXCLUSIVE:
                return holder
        return None

    def _require_active(self, txn: Txn) -> None:
        if txn.status == ABORTED:
            raise TransactionAborted(txn.txn_id, txn.abort_reason or "aborted")
        if txn.status == COMMITTED:
            raise EngineError(f"transaction {txn.txn_id} already committed")

    def _record(
        self,
        txn: Txn,
        kind: str,
        key: tuple | None = None,
        dirty_from: int | None = None,
        info: dict | None = None,
    ) -> None:
        self.tick += 1
        self.history.append(
            HistoryOp(
                tick=self.tick,
                txn_id=txn.txn_id,
                kind=kind,
                key=key,
                version=self.store.version_of(key) if key is not None else None,
                dirty_from=dirty_from,
                info=info or {},
            )
        )

    # -- inspection ---------------------------------------------------------------
    def preview_commit(self, txn: Txn) -> DbState:
        """The live state as it would look right after ``txn`` commits.

        For locking-level transactions the pending versions are already
        the dirty truth, so this is the live state; for SNAPSHOT
        transactions the overlay is applied to a materialised copy.  Used
        by pre-commit validators (the assertional concurrency control)
        that must veto *before* the buffered writes publish.
        """
        if not txn.uses_snapshot:
            return self.public_live()
        preview = self.store.materialize(dirty=True, with_rids=True)
        overlay = txn.overlay
        for name, value in overlay.items.items():
            preview.write_item(name, value)
        for (array, index), attrs in overlay.records.items():
            for attr, value in attrs.items():
                preview.write_field(array, index, attr, value)
        for table, changed in overlay.updated.items():
            for rid, delta in changed.items():
                for row in preview.rows(table):
                    if row.get(RID) == rid:
                        row.update(delta)
                        break
        for table, rids in overlay.deleted.items():
            for rid in rids:
                preview.delete_rows(table, lambda r: r.get(RID) == rid)
        for table, rows in overlay.inserted.items():
            for rid, image in rows.items():
                stored = dict(image)
                stored[RID] = rid
                preview.insert_row(table, stored)
        for table, rows in preview.tables.items():
            preview.tables[table] = [strip_rid(row) for row in rows]
        return preview

    def public_live(self) -> DbState:
        return self.store.public_state(committed_only=False)

    def committed_state(self) -> DbState:
        """The committed view, materialised again only after it changes.

        The returned state is engine-owned and read-only: the same object
        comes back until the committed view changes (a commit, or an
        insert that adds a table; reads, dirty writes, aborts and vacuum
        leave it alone), so a caller that wants to modify it takes a
        :meth:`~DbState.copy` first.
        """
        epoch = self.store.committed_epoch
        if epoch != self._committed_view_epoch:
            self._committed_view = self.store.public_state(committed_only=True)
            self._committed_view_epoch = epoch
        return self._committed_view

    def live_state(self) -> DbState:
        return self.store.public_state(committed_only=False)
