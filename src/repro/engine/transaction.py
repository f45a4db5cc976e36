"""Per-transaction runtime state inside the engine.

Since the MVCC rebuild a transaction carries no undo closures and no
private deep-copied state: locking-level writers stamp pending versions
directly into the shared store (abort = unstamping, see
:meth:`repro.engine.storage.MvccStore.abort_txn`), and SNAPSHOT
transactions read through an O(1) :class:`repro.engine.storage.Snapshot`
plus a private :class:`WriteOverlay` of buffered writes that is applied
as version stamps at commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

ACTIVE = "active"
BLOCKED = "blocked"
COMMITTED = "committed"
ABORTED = "aborted"

#: Isolation levels the engine accepts (mirrors repro.core.conditions).
READ_UNCOMMITTED = "READ UNCOMMITTED"
READ_COMMITTED = "READ COMMITTED"
READ_COMMITTED_FCW = "READ COMMITTED FCW"
REPEATABLE_READ = "REPEATABLE READ"
SNAPSHOT = "SNAPSHOT"
SERIALIZABLE = "SERIALIZABLE"

ALL_LEVELS = (
    READ_UNCOMMITTED,
    READ_COMMITTED,
    READ_COMMITTED_FCW,
    REPEATABLE_READ,
    SNAPSHOT,
    SERIALIZABLE,
)

#: Levels whose reads take no lock at all.
_NO_READ_LOCK = {READ_UNCOMMITTED, SNAPSHOT}

#: Levels whose read locks are long duration.
_LONG_READ_LOCK = {REPEATABLE_READ, SERIALIZABLE}


@dataclass
class WriteOverlay:
    """A SNAPSHOT transaction's buffered writes over its begin snapshot.

    The overlay is the write buffer *and* the read-your-own-writes layer:
    private reads merge it over the snapshot-resolved chains, and commit
    replays it as version stamps.  Ordered dicts preserve operation order
    where it is observable (own inserts appear after snapshot rows, in
    insertion order, exactly like the old private-state append).
    """

    #: item name -> buffered value
    items: dict = field(default_factory=dict)
    #: (array, index) -> buffered attr dict (merged over the snapshot's)
    records: dict = field(default_factory=dict)
    #: table -> {rid -> row image} for rows this transaction inserted
    inserted: dict = field(default_factory=dict)
    #: table -> set of snapshot-visible rids this transaction deleted
    deleted: dict = field(default_factory=dict)
    #: table -> {rid -> accumulated changes} for snapshot-visible rows
    updated: dict = field(default_factory=dict)
    #: location key -> commit-counter increments (one per write operation,
    #: mirroring the redo entries the old store reflected)
    bumps: dict = field(default_factory=dict)

    def bump(self, key: tuple, count: int = 1) -> None:
        total = self.bumps.get(key, 0) + count
        if total:
            self.bumps[key] = total
        else:
            self.bumps.pop(key, None)

    def own_insert(self, table: str, rid: int) -> bool:
        return rid in self.inserted.get(table, {})


@dataclass
class Txn:
    """Runtime state of one transaction (its id doubles as its xid)."""

    txn_id: int
    level: str
    status: str = ACTIVE
    #: locks held and their duration ("short" released after each op)
    long_locks: set = field(default_factory=set)
    #: location key -> commit stamp observed at first read (RC FCW)
    read_versions: dict = field(default_factory=dict)
    #: location keys written (FCW validation, write-set reporting)
    write_set: set = field(default_factory=set)
    #: op-ordered granule touches, unstamped in reverse on abort
    stamped: list = field(default_factory=list)
    #: location key -> commit-counter increments to apply at commit
    bump_counts: dict = field(default_factory=dict)
    #: SNAPSHOT: the O(1) begin capture (None at locking levels)
    snapshot: object | None = None
    #: SNAPSHOT: buffered writes over the snapshot
    overlay: WriteOverlay | None = None
    #: schedule bookkeeping
    begin_tick: int = 0
    commit_tick: int | None = None
    abort_reason: str | None = None

    def bump(self, key: tuple, count: int = 1) -> None:
        self.bump_counts[key] = self.bump_counts.get(key, 0) + count

    @property
    def uses_snapshot(self) -> bool:
        return self.level == SNAPSHOT

    @property
    def read_lock_duration(self) -> str | None:
        if self.level in _NO_READ_LOCK:
            return None
        return "long" if self.level in _LONG_READ_LOCK else "short"

    @property
    def takes_predicate_read_locks(self) -> bool:
        return self.level == SERIALIZABLE

    @property
    def is_active(self) -> bool:
        return self.status in (ACTIVE, BLOCKED)
