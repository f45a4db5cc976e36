"""The lock manager.

Lock keys are tuples identifying a lockable unit:

* ``("item", name)`` — a scalar database item;
* ``("record", array, index)`` — one array record (Example 2's record
  granularity: a reader of ``emp[i]`` locks the whole record);
* ``("row", table, rid)`` — one table row, by hidden row id.

Two lock modes (shared/exclusive) with the usual conflict matrix, and two
durations: SHORT locks are released when the operation completes, LONG
locks at end of transaction — the [2] vocabulary the paper's level
implementations are defined in.

Predicate locks protect against phantoms.  A predicate lock stores a row
predicate (a callable); conflicts are tested *row-wise*: an INSERT/UPDATE/
DELETE touching concrete rows conflicts with another transaction's
predicate lock when some touched row image satisfies the predicate.
Predicate read locks (SERIALIZABLE SELECTs) additionally conflict with
same-table predicate *write* locks — a deliberate over-approximation (we
cannot decide intersection of opaque callables) that only ever blocks more
than a real system would, never less, so no anomaly is admitted that the
level forbids.

The manager never blocks: acquisition either succeeds or raises
:class:`WouldBlock` with the set of holders in the way.  Fairness and
retry policy belong to the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import EngineError

SHARED = "S"
EXCLUSIVE = "X"
SHORT = "short"
LONG = "long"


class WouldBlock(Exception):
    """The operation must wait for the given transactions.

    ``key`` and ``mode`` identify the contested lock (the granule the
    attempt probed and the mode it wanted) so schedule analyses — notably
    the DPOR race detector — can treat a blocked attempt as an access on
    that granule instead of re-deriving the conflict from lock-table
    reprs.
    """

    def __init__(self, blockers: set, key: tuple, mode: str) -> None:
        super().__init__(f"blocked by transactions {sorted(blockers)}")
        self.blockers = set(blockers)
        self.key = key
        self.mode = mode


def _conflicts(held: str, wanted: str) -> bool:
    return held == EXCLUSIVE or wanted == EXCLUSIVE


@dataclass
class _PredicateLock:
    txn_id: int
    table: str
    predicate: Callable[[dict], bool]
    mode: str  # SHARED (SELECT at SERIALIZABLE) or EXCLUSIVE (write predicate)
    duration: str


class LockManager:
    """Item/record/row locks plus predicate locks, cooperative style."""

    def __init__(self) -> None:
        # key -> {txn_id: mode}
        self._held: dict = {}
        self._predicates: list = []

    # -- item/record/row locks ---------------------------------------------
    def acquire(self, txn_id: int, key: tuple, mode: str, duration: str) -> None:
        """Grant or raise :class:`WouldBlock`; re-entrant and upgradeable."""
        holders = self._held.setdefault(key, {})
        blockers = {
            other
            for other, held_mode in holders.items()
            if other != txn_id and (_conflicts(held_mode, mode) or _conflicts(mode, held_mode))
        }
        if blockers:
            raise WouldBlock(blockers, key=key, mode=mode)
        current = holders.get(txn_id)
        if current == EXCLUSIVE:
            mode = EXCLUSIVE  # never downgrade
        holders[txn_id] = EXCLUSIVE if EXCLUSIVE in (current, mode) else mode
        # duration bookkeeping lives on the transaction (it knows which of
        # its locks are short); the manager only tracks ownership.

    def release(self, txn_id: int, key: tuple) -> None:
        holders = self._held.get(key)
        if holders is not None:
            holders.pop(txn_id, None)
            if not holders:
                self._held.pop(key, None)

    def release_all(self, txn_id: int) -> None:
        for key in list(self._held):
            self.release(txn_id, key)
        self._predicates = [lock for lock in self._predicates if lock.txn_id != txn_id]

    def holders(self, key: tuple) -> dict:
        return dict(self._held.get(key, {}))

    def held_by(self, txn_id: int) -> list:
        return [key for key, holders in self._held.items() if txn_id in holders]

    # -- predicate locks ------------------------------------------------------
    def acquire_predicate(
        self,
        txn_id: int,
        table: str,
        predicate: Callable[[dict], bool],
        mode: str,
        duration: str = LONG,
    ) -> None:
        """Take a predicate lock; conflicts are over-approximate for P-vs-P."""
        if mode == SHARED:
            blockers = {
                lock.txn_id
                for lock in self._predicates
                if lock.txn_id != txn_id and lock.table == table and lock.mode == EXCLUSIVE
            }
            if blockers:
                raise WouldBlock(blockers, key=("table", table), mode=mode)
        self._predicates.append(_PredicateLock(txn_id, table, predicate, mode, duration))

    def check_rows_against_predicates(
        self, txn_id: int, table: str, rows: Iterable[dict], wanted_mode: str
    ) -> None:
        """Raise :class:`WouldBlock` if touching these rows violates a
        predicate lock held by another transaction.

        ``wanted_mode`` is EXCLUSIVE for writes (conflicts with both read
        and write predicate locks matching a row) and SHARED for reads
        (conflicts with write predicate locks only).
        """
        rows = list(rows)
        blockers: set = set()
        for lock in self._predicates:
            if lock.txn_id == txn_id or lock.table != table:
                continue
            if not (_conflicts(lock.mode, wanted_mode) or _conflicts(wanted_mode, lock.mode)):
                continue
            for row in rows:
                try:
                    matches = lock.predicate(row)
                except Exception as exc:  # a predicate must be total
                    raise EngineError(f"predicate lock evaluation failed: {exc}") from exc
                if matches:
                    blockers.add(lock.txn_id)
                    break
        if blockers:
            raise WouldBlock(blockers, key=("table", table), mode=wanted_mode)

    def release_short_predicates(self, txn_id: int) -> None:
        self._predicates = [
            lock
            for lock in self._predicates
            if not (lock.txn_id == txn_id and lock.duration == SHORT)
        ]

    def predicate_locks_of(self, txn_id: int) -> list:
        return [lock for lock in self._predicates if lock.txn_id == txn_id]
