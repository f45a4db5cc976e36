"""The multi-version (MVCC) store underlying the engine.

Every logical location — scalar *item*, record array element, table *row*
— carries a **version chain**: a list of :class:`Version` entries stamped
with the transaction id that created them (``xmin``) and, once superseded
or deleted, the transaction id that ended them (``xmax``), exactly the
PostgreSQL tuple-header discipline.  On top of the chains the store keeps:

* a **transaction log** (:class:`TxnLog`, the ``clog``): per-xid commit
  status plus the set of in-flight xids, so version visibility is a pure
  predicate over stamps instead of a property of where a value is stored;
* O(1) **snapshots** (:class:`Snapshot`): a ``(xmax, in-flight set)``
  capture — no state is copied at SNAPSHOT begin, reads resolve through
  :meth:`MvccStore.snapshot_item` & friends against the chains;
* per-chain ``last_commit_xid`` stamps — the basis of first-committer-wins
  validation: a location changed since a snapshot iff the xid of its most
  recent committed change is invisible to that snapshot.  The stamp is a
  scalar, so vacuum can trim dead versions without weakening validation;
* a **vacuum** pass (:meth:`MvccStore.vacuum`) reclaiming versions that no
  live snapshot — and no present or future reader — can resolve, bounded
  by the oldest-active-snapshot horizon;
* the per-location **commit counters** (``versions``) of the original
  store, kept byte-compatible because recorded histories publish them
  (:attr:`repro.engine.manager.HistoryOp.version`).

Aborts are **xmax-unstamping**: dropping the aborting transaction's
pending versions and clearing its delete stamps restores the previous
visible state exactly, with no undo closures.

Rows carry a hidden ``_rid`` (stable row identity) used for row locks and
version tracking; ``_rid`` never leaks into row images returned to
transactions.  Row chains are keyed ``rid -> chain`` per table — the row
index that replaces the old per-operation linear scans — while two
presentation orders reproduce the old store's observable row orders:
the *live* order (physical arrival in the dirty view; an ordered dict, so
a row deleted and restored by abort re-enters at the end, like the old
undo's re-append) and the *committed* order (ascending ``commit_seq``,
the order inserts were reflected into the committed view).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.core.state import DbState
from repro.errors import EngineError, EvaluationError

RID = "_rid"

#: Bootstrap pseudo-transaction: initial-state versions are stamped with
#: xid 0, which every snapshot considers committed-and-visible.
BOOTSTRAP_XID = 0


def strip_rid(row: Mapping) -> dict:
    """A row image without the engine-internal row id."""
    return {key: value for key, value in row.items() if key != RID}


# --------------------------------------------------------------------------
# telemetry
# --------------------------------------------------------------------------

#: Capture/vacuum latencies are micro-scale; buckets from 1µs to 10ms.
_STATS_BUCKETS = (
    0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
)


class _FixedHistogram:
    """A dependency-free fixed-bucket histogram (Prometheus semantics).

    Lives here rather than in :mod:`repro.service.telemetry` because the
    engine must not import the service layer; the service bridges it onto
    ``/metrics`` via :meth:`expose` (cumulative bucket counts).
    """

    def __init__(self, buckets: tuple = _STATS_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self._counts[index] += 1
        self._sum += value
        self._count += 1

    def expose(self) -> dict:
        """``(le -> cumulative count, sum, count)`` for exposition bridges."""
        cumulative, out = 0, {}
        for i, bound in enumerate(self.buckets):
            cumulative += self._counts[i]
            out[bound] = cumulative
        return {"buckets": out, "sum": self._sum, "count": self._count}

    def snapshot(self) -> dict:
        mean = self._sum / self._count if self._count else 0.0
        return {"count": self._count, "sum": round(self._sum, 9), "mean": round(mean, 9)}


class StorageStats:
    """Process-wide storage telemetry (snapshot captures, vacuum passes).

    Mutations are single ``+=`` slots (GIL-atomic enough for monitoring,
    matching the service telemetry's lock-free contract); the service and
    ``analyze --stats`` read it through :meth:`snapshot` /
    the histograms' :meth:`~_FixedHistogram.expose`.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.snapshot_captures = 0
        self.snapshot_inflight_total = 0
        self.vacuum_passes = 0
        self.vacuum_reclaimed = 0
        self.capture_seconds = _FixedHistogram()
        self.vacuum_seconds = _FixedHistogram()

    def record_capture(self, seconds: float, inflight: int) -> None:
        self.snapshot_captures += 1
        self.snapshot_inflight_total += inflight
        self.capture_seconds.observe(seconds)

    def record_vacuum(self, seconds: float, reclaimed: int) -> None:
        self.vacuum_passes += 1
        self.vacuum_reclaimed += reclaimed
        self.vacuum_seconds.observe(seconds)

    def snapshot(self) -> dict:
        return {
            "snapshot_captures": self.snapshot_captures,
            "snapshot_inflight_total": self.snapshot_inflight_total,
            "snapshot_capture_seconds": self.capture_seconds.snapshot(),
            "vacuum_passes": self.vacuum_passes,
            "vacuum_reclaimed": self.vacuum_reclaimed,
            "vacuum_seconds": self.vacuum_seconds.snapshot(),
        }


#: The process-wide stats instance every store reports into.
STORAGE_STATS = StorageStats()


# --------------------------------------------------------------------------
# versions, chains, snapshots
# --------------------------------------------------------------------------


@dataclass
class Version:
    """One tuple version: a payload plus its creating/ending stamps.

    ``value`` is the item value, the record's full attribute dict, or the
    row image (without ``_rid``).  ``xmax`` is ``None`` while the version
    is the newest of its chain; it is stamped with the superseding or
    deleting transaction's xid and *unstamped* if that transaction aborts.
    """

    value: object
    xmin: int
    xmax: int | None = None


@dataclass
class Chain:
    """A version chain for one location, oldest first.

    ``last_commit_xid`` survives vacuum so first-committer-wins stays
    sound after dead versions are trimmed; ``commit_seq`` (rows only) is
    the order the insert entered the committed view, reproducing the old
    store's committed row order without keeping a committed state.
    """

    versions: list = field(default_factory=list)
    last_commit_xid: int = BOOTSTRAP_XID
    commit_seq: int | None = None

    def newest(self) -> Version | None:
        return self.versions[-1] if self.versions else None


@dataclass(frozen=True)
class Snapshot:
    """An O(1) begin capture: everything below ``xmax`` minus ``xip``.

    A committed xid is visible iff it is strictly below ``xmax`` (the
    capturing transaction's own xid — later transactions have later xids)
    and was not in flight at capture time (``xip``).
    """

    xmax: int
    xip: frozenset


class TxnLog:
    """The commit log (``clog``): xid statuses plus the in-flight set."""

    __slots__ = ("status", "in_flight", "next_xid")

    def __init__(self) -> None:
        self.status: dict = {BOOTSTRAP_XID: "C"}
        self.in_flight: set = set()
        self.next_xid = 1

    def begin(self, xid: int) -> None:
        self.in_flight.add(xid)
        self.next_xid = max(self.next_xid, xid + 1)

    def commit(self, xid: int) -> None:
        self.status[xid] = "C"
        self.in_flight.discard(xid)

    def abort(self, xid: int) -> None:
        self.status[xid] = "A"
        self.in_flight.discard(xid)

    def is_committed(self, xid: int) -> bool:
        return self.status.get(xid) == "C"

    def is_aborted(self, xid: int) -> bool:
        return self.status.get(xid) == "A"


class MvccStore:
    """Version chains for items, records and rows + clog + commit counters."""

    def __init__(self) -> None:
        self.items: dict = {}  # name -> Chain (value payloads)
        self.records: dict = {}  # (array, index) -> Chain (attr-dict payloads)
        self.tables: dict = {}  # table -> {rid -> Chain} (row payloads)
        self.clog = TxnLog()
        self.versions: dict = {}  # location key -> int (history parity)
        self._rid_counter = itertools.count(1)
        self._commit_seq = itertools.count(1)
        #: table -> ordered dict of rids present in the dirty view
        self._live_order: dict = {}
        #: chains touched since the last vacuum pass
        self._vacuum_pending: set = set()
        #: bumped whenever the committed view changes: at every commit,
        #: and when an insert adds a table (the view lists every table)
        self.committed_epoch = 0
        self.stats = STORAGE_STATS

    @classmethod
    def from_state(cls, initial: DbState) -> "MvccStore":
        """Initialise from a plain state; assigns row ids to table rows."""
        store = cls()
        for name, value in initial.items.items():
            store.items[name] = Chain([Version(value, BOOTSTRAP_XID)])
        for array, elems in initial.arrays.items():
            for index, attrs in elems.items():
                store.records[(array, index)] = Chain(
                    [Version(dict(attrs), BOOTSTRAP_XID)]
                )
        for table, rows in initial.tables.items():
            chains = store.tables.setdefault(table, {})
            order = store._live_order.setdefault(table, {})
            for row in rows:
                rid = next(store._rid_counter)
                chain = Chain([Version(dict(row), BOOTSTRAP_XID)])
                chain.commit_seq = next(store._commit_seq)
                chains[rid] = chain
                order[rid] = None
        return store

    def new_rid(self) -> int:
        return next(self._rid_counter)

    # -- version bookkeeping (history parity) ---------------------------------
    def version_of(self, key: tuple) -> int:
        return self.versions.get(key, 0)

    def bump_version(self, key: tuple, count: int = 1) -> None:
        self.versions[key] = self.versions.get(key, 0) + count

    # -- visibility predicates ------------------------------------------------
    def _xid_visible(self, xid: int, snap: Snapshot) -> bool:
        if xid == BOOTSTRAP_XID:
            return True
        return self.clog.is_committed(xid) and xid < snap.xmax and xid not in snap.xip

    def _resolve_snapshot(self, chain: Chain, snap: Snapshot) -> Version | None:
        """The version of ``chain`` a snapshot reads, or None."""
        for version in reversed(chain.versions):
            if not self._xid_visible(version.xmin, snap):
                continue
            if version.xmax is not None and self._xid_visible(version.xmax, snap):
                return None  # deleted before the snapshot began
            return version
        return None

    def _resolve_committed(self, chain: Chain) -> Version | None:
        """The newest committed version, or None (pending heads skipped)."""
        for version in reversed(chain.versions):
            if version.xmin != BOOTSTRAP_XID and not self.clog.is_committed(version.xmin):
                continue
            if version.xmax is not None and self.clog.is_committed(version.xmax):
                return None
            return version
        return None

    def _resolve_dirty(self, chain: Chain) -> Version | None:
        """The newest live version including uncommitted writes, or None.

        Aborted versions are unstamped eagerly, so the chain head is the
        dirty truth: invisible only when carrying a live delete stamp.
        """
        head = chain.newest()
        if head is None:
            return None
        if head.xmax is not None and not self.clog.is_aborted(head.xmax):
            return None
        return head

    # -- reads: items and records --------------------------------------------
    def read_item(self, name: str, snap: Snapshot | None = None):
        chain = self.items.get(name)
        version = self._resolve(chain, snap) if chain else None
        if version is None:
            raise EvaluationError(f"unknown database item {name!r}")
        return version.value

    def read_field(self, array: str, index: int, attr, snap: Snapshot | None = None):
        chain = self.records.get((array, index))
        version = self._resolve(chain, snap) if chain else None
        if version is None or attr not in version.value:
            where = f"{array}[{index}]" + (f".{attr}" if attr is not None else "")
            raise EvaluationError(f"unknown array element {where}")
        return version.value[attr]

    def record_image(self, array: str, index: int, snap: Snapshot | None = None) -> dict | None:
        """The visible attribute dict of one record, or None."""
        chain = self.records.get((array, index))
        version = self._resolve(chain, snap) if chain else None
        return None if version is None else dict(version.value)

    def _resolve(self, chain: Chain, snap: Snapshot | None) -> Version | None:
        if snap is None:
            return self._resolve_dirty(chain)
        return self._resolve_snapshot(chain, snap)

    # -- reads: rows ----------------------------------------------------------
    def dirty_rows(self, table: str) -> Iterator[tuple]:
        """(rid, image) pairs of the dirty view, in live arrival order."""
        chains = self.tables.get(table, {})
        for rid in self._live_order.get(table, {}):
            version = self._resolve_dirty(chains[rid])
            if version is not None:
                yield rid, version.value

    def committed_rows(self, table: str) -> Iterator[tuple]:
        """(rid, image) pairs of the committed view, in committed order."""
        yield from self.snapshot_rows(table, None)

    def snapshot_rows(self, table: str, snap: Snapshot | None) -> Iterator[tuple]:
        """(rid, image) pairs a snapshot sees, ascending ``commit_seq``.

        Committed inserts only ever appended to the old committed state,
        so ascending ``commit_seq`` *is* the old committed row order — at
        the present time and at every historical snapshot.
        """
        visible = []
        for rid, chain in self.tables.get(table, {}).items():
            if chain.commit_seq is None:
                continue  # never committed (pending insert)
            version = (
                self._resolve_committed(chain)
                if snap is None
                else self._resolve_snapshot(chain, snap)
            )
            if version is not None:
                visible.append((chain.commit_seq, rid, version.value))
        visible.sort(key=lambda entry: entry[0])
        for _seq, rid, image in visible:
            yield rid, image

    # -- first-committer-wins -------------------------------------------------
    def changed_since(self, key: tuple, snap: Snapshot) -> bool:
        """True iff a committed change to ``key`` is invisible to ``snap``."""
        chain = self._chain_for(key)
        if chain is None:
            return False
        return not self._xid_visible(chain.last_commit_xid, snap)

    def commit_stamp(self, key: tuple) -> int:
        """The xid of the most recent committed change to ``key`` (or 0)."""
        chain = self._chain_for(key)
        return BOOTSTRAP_XID if chain is None else chain.last_commit_xid

    def _chain_for(self, key: tuple) -> Chain | None:
        kind = key[0]
        if kind == "item":
            return self.items.get(key[1])
        if kind == "record":
            return self.records.get((key[1], key[2]))
        if kind == "row":
            return self.tables.get(key[1], {}).get(key[2])
        return None

    # -- writes (pending version stamping) ------------------------------------
    def stamp_item(self, xid: int, name: str, value) -> None:
        chain = self.items.setdefault(name, Chain())
        self._stamp(chain, xid, value)
        self._vacuum_pending.add(("item", name))

    def stamp_field(self, xid: int, array: str, index: int, attr, value) -> None:
        chain = self.records.setdefault((array, index), Chain())
        version = self._resolve_dirty(chain)
        base = dict(version.value) if version is not None else {}
        base[attr] = value
        self._stamp(chain, xid, base)
        self._vacuum_pending.add(("record", array, index))

    def stamp_record(self, xid: int, array: str, index: int, attrs: Mapping) -> None:
        """Install a whole-record image (SNAPSHOT commit application)."""
        chain = self.records.setdefault((array, index), Chain())
        version = self._resolve_dirty(chain)
        base = dict(version.value) if version is not None else {}
        base.update(attrs)
        self._stamp(chain, xid, base)
        self._vacuum_pending.add(("record", array, index))

    def stamp_insert(self, xid: int, table: str, rid: int, image: Mapping) -> None:
        chains = self.tables.get(table)
        if chains is None:
            chains = self.tables[table] = {}
            self.committed_epoch += 1
        if rid in chains:
            raise EngineError(f"row {rid} already exists in {table}")
        chains[rid] = Chain([Version(dict(image), xid)])
        self._live_order.setdefault(table, {})[rid] = None
        self._vacuum_pending.add(("row", table, rid))

    def stamp_update(self, xid: int, table: str, rid: int, changes: Mapping) -> dict:
        """Append (or merge into) a pending version with ``changes`` applied."""
        chain = self.tables.get(table, {}).get(rid)
        version = self._resolve_dirty(chain) if chain else None
        if version is None:
            raise EngineError(f"row {rid} not found in {table}")
        merged = dict(version.value)
        merged.update(changes)
        self._stamp(chain, xid, merged)
        self._vacuum_pending.add(("row", table, rid))
        return merged

    def stamp_delete(self, xid: int, table: str, rid: int) -> dict:
        """Stamp ``xmax`` on the newest live version; hides it from the
        dirty view immediately (the old store popped the row in place)."""
        chain = self.tables.get(table, {}).get(rid)
        version = self._resolve_dirty(chain) if chain else None
        if version is None:
            raise EngineError(f"row {rid} not found in {table}")
        version.xmax = xid
        self._live_order.get(table, {}).pop(rid, None)
        self._vacuum_pending.add(("row", table, rid))
        return dict(version.value)

    def _stamp(self, chain: Chain, xid: int, value) -> None:
        head = chain.newest()
        if head is not None and head.xmin == xid and not self.clog.is_committed(xid):
            # a transaction's re-write folds into its own pending version,
            # matching the old store's write-in-place observable behaviour
            head.value = value
            return
        chain.versions.append(Version(value, xid))

    # -- lifecycle: commit / abort --------------------------------------------
    def take_snapshot(self, xid: int) -> Snapshot:
        started = time.perf_counter()
        snap = Snapshot(xmax=xid, xip=frozenset(self.clog.in_flight - {xid}))
        self.stats.record_capture(time.perf_counter() - started, len(snap.xip))
        return snap

    def commit_txn(self, xid: int, stamped: Iterable[tuple], bump_counts: Mapping) -> None:
        """Finalise a transaction's pending stamps as committed.

        ``stamped`` is the op-ordered list of granule touches recorded by
        the engine (``("item", name) | ("record", array, index) |
        ("ins"|"upd"|"del", table, rid)``); ``bump_counts`` carries the
        per-location commit-counter increments (one per write *operation*,
        matching the old redo-log reflection byte for byte).
        """
        self.clog.commit(xid)
        self.committed_epoch += 1
        for entry in stamped:
            kind = entry[0]
            if kind == "item":
                chain = self.items.get(entry[1])
            elif kind == "record":
                chain = self.records.get((entry[1], entry[2]))
            else:
                chain = self.tables.get(entry[1], {}).get(entry[2])
            if chain is None:
                continue
            chain.last_commit_xid = xid
            if kind == "ins" and chain.commit_seq is None:
                chain.commit_seq = next(self._commit_seq)
            # stamp the superseded version's xmax (tuple-header bookkeeping)
            if len(chain.versions) >= 2 and chain.versions[-1].xmin == xid:
                prior = chain.versions[-2]
                if prior.xmax is None:
                    prior.xmax = xid
        for key, count in bump_counts.items():
            self.bump_version(key, count)

    def abort_txn(self, xid: int, stamped: Iterable[tuple]) -> None:
        """Roll back by unstamping: drop pending versions, clear delete
        stamps.  ``stamped`` is processed in reverse op order so restored
        rows re-enter the live order exactly as the old undo replay did."""
        self.clog.abort(xid)
        for entry in reversed(list(stamped)):
            kind = entry[0]
            if kind == "item":
                key, chain = ("item", entry[1]), self.items.get(entry[1])
            elif kind == "record":
                key = ("record", entry[1], entry[2])
                chain = self.records.get((entry[1], entry[2]))
            else:
                key = ("row", entry[1], entry[2])
                chain = self.tables.get(entry[1], {}).get(entry[2])
            if chain is None:
                continue
            if kind == "del":
                head = chain.newest()
                if head is not None and head.xmax == xid:
                    head.xmax = None
                    # the old undo re-inserted at the end of the table list
                    self._live_order.setdefault(entry[1], {})[entry[2]] = None
                continue
            head = chain.newest()
            if head is not None and head.xmin == xid:
                chain.versions.pop()
            if not chain.versions:
                if kind == "item":
                    self.items.pop(entry[1], None)
                elif kind == "record":
                    self.records.pop((entry[1], entry[2]), None)
                else:
                    self.tables.get(entry[1], {}).pop(entry[2], None)
                    self._live_order.get(entry[1], {}).pop(entry[2], None)

    # -- vacuum ----------------------------------------------------------------
    def vacuum(self, live_snapshots: Iterable[Snapshot]) -> int:
        """Reclaim versions no present or future reader can resolve.

        A version survives iff it is (a) the dirty head, (b) the current
        committed version, (c) the version some live snapshot resolves to,
        or (d) stamped by a still-in-flight transaction.  A row chain is
        dropped whole once its delete is visible to every live snapshot
        and nothing keeps any of its versions — ``last_commit_xid``
        removal is safe then, because a deleted-and-invisible row can
        never again be written (first-committer-wins would need the
        stamp only on a write, and writes require visibility).

        Only chains touched since the last pass are scanned, so the cost
        is O(recent writes), not O(database).
        """
        started = time.perf_counter()
        snaps = list(live_snapshots)
        reclaimed = 0
        pending, self._vacuum_pending = self._vacuum_pending, set()
        for key in pending:
            chain = self._chain_for(key)
            if chain is None:
                continue
            keep = self._keep_indices(chain, snaps)
            if not keep and key[0] == "row":
                if all(self._xid_visible(chain.last_commit_xid, s) for s in snaps):
                    reclaimed += len(chain.versions)
                    self.tables.get(key[1], {}).pop(key[2], None)
                    self._live_order.get(key[1], {}).pop(key[2], None)
                    continue
                keep = {len(chain.versions) - 1} if chain.versions else set()
            if len(keep) < len(chain.versions):
                kept = [v for i, v in enumerate(chain.versions) if i in keep]
                reclaimed += len(chain.versions) - len(kept)
                chain.versions = kept
            if len(chain.versions) > 1:
                # still multi-version (a live snapshot pins history):
                # revisit on the next pass even without a new write
                self._vacuum_pending.add(key)
        self.stats.record_vacuum(time.perf_counter() - started, reclaimed)
        return reclaimed

    def _keep_indices(self, chain: Chain, snaps: list) -> set:
        keep = set()
        for i, version in enumerate(chain.versions):
            if not self.clog.is_committed(version.xmin) and version.xmin != BOOTSTRAP_XID:
                keep.add(i)  # pending write
            elif version.xmax is not None and not (
                self.clog.is_committed(version.xmax) or self.clog.is_aborted(version.xmax)
            ):
                keep.add(i)  # pending delete target
        dirty = self._resolve_dirty(chain)
        committed = self._resolve_committed(chain)
        for resolved in [dirty, committed] + [
            self._resolve_snapshot(chain, snap) for snap in snaps
        ]:
            if resolved is not None:
                for i, version in enumerate(chain.versions):
                    if version is resolved:
                        keep.add(i)
                        break
        return keep

    def version_count(self) -> int:
        """Total stored versions (the bloat metric for the E17 benchmark)."""
        count = sum(len(chain.versions) for chain in self.items.values())
        count += sum(len(chain.versions) for chain in self.records.values())
        for chains in self.tables.values():
            count += sum(len(chain.versions) for chain in chains.values())
        return count

    # -- materialised views -----------------------------------------------------
    def materialize(
        self, snap: Snapshot | None = None, dirty: bool = False, with_rids: bool = True
    ) -> DbState:
        """A DbState view of the chains: dirty, committed-now, or a snapshot."""
        state = DbState()

        def resolve(chain: Chain) -> Version | None:
            if dirty:
                return self._resolve_dirty(chain)
            if snap is None:
                return self._resolve_committed(chain)
            return self._resolve_snapshot(chain, snap)

        for name, chain in self.items.items():
            version = resolve(chain)
            if version is not None:
                state.items[name] = version.value
        for (array, index), chain in self.records.items():
            version = resolve(chain)
            if version is not None:
                state.arrays.setdefault(array, {})[index] = dict(version.value)
        for table in self.tables:
            pairs = self.dirty_rows(table) if dirty else self.snapshot_rows(table, snap)
            rows = []
            for rid, image in pairs:
                row = dict(image)
                if with_rids:
                    row[RID] = rid
                rows.append(row)
            state.tables[table] = rows
        return state

    @property
    def current(self) -> DbState:
        """The dirty view as a DbState (compatibility/diagnostic surface)."""
        return self.materialize(dirty=True)

    @property
    def committed(self) -> DbState:
        """The committed-now view as a DbState (compatibility surface)."""
        return self.materialize()

    def public_state(self, committed_only: bool = True) -> DbState:
        """The state without row ids, for assertion evaluation and oracles."""
        return self.materialize(dirty=not committed_only, with_rids=False)


#: Backwards-compatible alias: the engine's store *is* the MVCC store now.
VersionedStore = MvccStore
