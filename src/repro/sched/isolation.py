"""Client-centric isolation axioms over committed engine histories.

An oracle for the engine that shares none of its machinery: each
isolation level is a *commit test* in the style of Crooks et al.,
"Seeing is Believing: A Client-Centric Specification of Database
Isolation" (PODC 2017), evaluated over the recorded history alone.

The state sequence ``s_0, s_1, ...`` starts at the schedule's initial
state and applies, at each ``commit`` op in history order, the last
value the committing transaction wrote to each location (its ``w``
ops).  Nothing here consults lock tables, version chains, snapshots or
the engine's committed views.  Per committed transaction ``T`` at
commit position ``c`` (``s_c`` is the state ``T`` produced):

* a read of a location ``T`` wrote earlier must return that write;
* **READ COMMITTED** (PREREAD): every other (*external*) read returns
  the value some state ``s_j`` with ``j < c`` holds;
* **SNAPSHOT** (COMPLETE + NO-CONF): one state ``s_j`` with ``j`` at or
  before ``T``'s begin serves every external read, and no transaction
  committing after ``s_j`` and before ``T`` writes a location ``T``
  writes;
* **SERIALIZABLE**: the state ``s_{c-1}`` just before ``T``'s commit
  serves every external read.

READ COMMITTED FCW and REPEATABLE READ have no client-centric axiom of
their own; they are checked against READ COMMITTED's test, a lower
bound.  What sets them apart (lost updates, fuzzy reads) is covered by
the E7 anomaly matrix.  READ UNCOMMITTED gets no test.

Scope:

* Locations are items and record fields.  Relational reads record only
  the rids they returned at locking levels and nothing at SNAPSHOT, so
  table visibility is covered elsewhere: the engine parity golden
  (``tests/engine/data``), the E7 phantom cells and the probe golden.
* Histories must run every transaction at one level.  Mixed-level
  histories (Adya's "mixing-correct" theory) are out of scope: a
  SNAPSHOT commit waits only on EXCLUSIVE holders, so a SERIALIZABLE
  reader mixed with SNAPSHOT writers needs that theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.transaction import (
    READ_COMMITTED,
    READ_COMMITTED_FCW,
    READ_UNCOMMITTED,
    REPEATABLE_READ,
    SERIALIZABLE,
    SNAPSHOT,
)

_ABSENT = object()


@dataclass
class _Txn:
    """What one transaction did, as the history recorded it."""

    txn_id: int
    begin: int  # commits that preceded its begin op
    reads: list = field(default_factory=list)  # external (location, value)
    own_reads: list = field(default_factory=list)  # (location, value, written)
    writes: dict = field(default_factory=dict)  # location -> last written value


def _locations(op) -> list:
    """(location, value) pairs an item or record ``r``/``w`` op touched."""
    key, info = op.key, op.info
    if key is None:
        return []
    if key[0] == "item":
        return [(key, info["value"])]
    if key[0] != "record":
        return []  # relational: out of scope (module docstring)
    if "values" in info:
        return [(key + (attr,), value) for attr, value in info["values"].items()]
    return [(key + (info["attr"],), info["value"])]


def _initial_locations(initial) -> dict:
    state = {("item", name): value for name, value in initial.items.items()}
    for array, records in initial.arrays.items():
        for index, attrs in records.items():
            for attr, value in attrs.items():
                state[("record", array, index, attr)] = value
    return state


def _transactions(history) -> list:
    """The history's committed transactions, in commit order."""
    begun: dict = {}
    order: list = []
    for op in history:
        kind = op.kind
        if kind == "begin":
            begun[op.txn_id] = _Txn(op.txn_id, begin=len(order))
        elif kind == "commit":
            order.append(begun[op.txn_id])
        elif kind == "r":
            txn = begun[op.txn_id]
            for location, value in _locations(op):
                written = txn.writes.get(location, _ABSENT)
                if written is _ABSENT:
                    txn.reads.append((location, value))
                else:
                    txn.own_reads.append((location, value, written))
        elif kind == "w":
            writes = begun[op.txn_id].writes
            for location, value in _locations(op):
                writes[location] = value
    return order


def _states(initial, order) -> list:
    """``[s_0, s_1, ...]``: ``s_k`` follows the first ``k`` commits."""
    states = [_initial_locations(initial)]
    for txn in order:
        state = dict(states[-1])
        state.update(txn.writes)
        states.append(state)
    return states


def _serves(state: dict, reads) -> bool:
    return all(state.get(location, _ABSENT) == value for location, value in reads)


def _preread(position, txn, states, order) -> str | None:
    for location, value in txn.reads:
        if not any(
            state.get(location, _ABSENT) == value for state in states[:position]
        ):
            return f"reads {_show(location)}={value!r}, which no earlier state holds"
    return None


def _snapshot(position, txn, states, order) -> str | None:
    # the latest candidate first: it has the fewest commits to conflict with
    for j in range(txn.begin, -1, -1):
        if not _serves(states[j], txn.reads):
            continue
        later = order[j : position - 1]  # commits after s_j, before this one
        if not any(txn.writes.keys() & other.writes.keys() for other in later):
            return None
    return (
        f"no state at or before its begin (after {txn.begin} commits) serves"
        f" its reads {_show_reads(txn.reads)} without a conflicting commit"
    )


def _serializable(position, txn, states, order) -> str | None:
    if _serves(states[position - 1], txn.reads):
        return None
    return (
        f"reads {_show_reads(txn.reads)}, but the state before its commit"
        f" holds {_show_reads(_held(states[position - 1], txn.reads))}"
    )


#: level -> commit test; READ UNCOMMITTED has none
_AXIOMS = {
    READ_COMMITTED: _preread,
    READ_COMMITTED_FCW: _preread,
    REPEATABLE_READ: _preread,
    SNAPSHOT: _snapshot,
    SERIALIZABLE: _serializable,
}


def isolation_violations(initial, history, level: str) -> list:
    """What fails ``level``'s test among the committed transactions of ``history``.

    ``initial`` is the :class:`~repro.core.state.DbState` the history
    started from; ``history`` is the engine's list of
    :class:`~repro.engine.manager.HistoryOp`, every transaction at
    ``level``.  Returns one message per failed check, in commit order;
    an empty list means the history satisfies the axiom.
    """
    if level == READ_UNCOMMITTED:
        return []
    axiom = _AXIOMS[level]
    order = _transactions(history)
    states = _states(initial, order)
    violations = []
    for position, txn in enumerate(order, start=1):
        for location, value, written in txn.own_reads:
            if value != written:
                violations.append(
                    f"txn {txn.txn_id} (commit {position}): reads"
                    f" {_show(location)}={value!r} after writing {written!r}"
                )
        failure = axiom(position, txn, states, order)
        if failure is not None:
            violations.append(f"{level}: txn {txn.txn_id} (commit {position}) {failure}")
    return violations


def schedule_violations(result) -> list:
    """:func:`isolation_violations` of a uniform-level schedule result."""
    levels = {outcome.level for outcome in result.outcomes}
    if len(levels) != 1:
        raise ValueError(f"mixed-level schedule {sorted(levels)}: out of scope")
    return isolation_violations(result.initial, result.history, levels.pop())


def _held(state: dict, reads) -> list:
    return [(location, state.get(location)) for location, _value in reads]


def _show(location: tuple) -> str:
    if location[0] == "item":
        return location[1]
    _kind, array, index, attr = location
    return f"{array}[{index}].{attr}"


def _show_reads(reads) -> str:
    return "{" + ", ".join(f"{_show(loc)}={value!r}" for loc, value in reads) + "}"
