"""Conflict-serializability over a simulated schedule.

Builds the classical precedence (conflict) graph over the *committed*
transactions of an engine history: an edge ``Ti -> Tj`` whenever an
operation of ``Ti`` conflicts with a later operation of ``Tj`` on the same
location (write-write, write-read or read-write).  The schedule is
conflict-serializable iff the graph is acyclic (the waits-for graph's
cycle search, :func:`repro.engine.deadlock.find_cycle`).

Relational reads record the table and the rids they returned; a read of a
table conflicts with inserts/deletes on that table (coarse, phantom-aware)
and with updates of the specific rows it returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.deadlock import find_cycle
from repro.engine.manager import HistoryOp


@dataclass
class ConflictReport:
    """Conflict-graph verdict for one schedule."""

    serializable: bool
    cycle: list | None
    edges: list = field(default_factory=list)
    serial_order: list | None = None  # a topological witness when acyclic


def _access_sets(op: HistoryOp):
    """(reads, writes) location sets of one history operation."""
    reads: set = set()
    writes: set = set()
    if op.kind == "r":
        if op.key is not None and op.key[0] == "table":
            table = op.key[1]
            reads.add(("table", table))
            for rid in op.info.get("rids", ()):
                reads.add(("row", table, rid))
        elif op.key is not None:
            reads.add(op.key)
    elif op.kind == "w":
        writes.add(op.key)
    elif op.kind in ("ins", "del", "upd"):
        if op.key is not None and op.key[0] == "row":
            writes.add(op.key)
            writes.add(("table", op.key[1]))
        elif op.key is not None and op.key[0] == "table":
            writes.add(("table", op.key[1]))
    return reads, writes


def _locations_conflict(a: tuple, b: tuple) -> bool:
    if a == b:
        return True
    # a whole-table access conflicts with any row of that table
    if a[0] == "table" and b[0] == "row" and a[1] == b[1]:
        return True
    if b[0] == "table" and a[0] == "row" and a[1] == b[1]:
        return True
    return False


def conflict_graph(history, committed_ids) -> dict:
    """The precedence graph over the committed transactions.

    Maps each transaction id to an insertion-ordered dict of its
    successors.
    """
    graph: dict = {txn_id: {} for txn_id in committed_ids}
    ops = [op for op in history if op.txn_id in committed_ids and op.kind in ("r", "w", "ins", "del", "upd")]
    for i, earlier in enumerate(ops):
        e_reads, e_writes = _access_sets(earlier)
        for later in ops[i + 1 :]:
            if later.txn_id == earlier.txn_id:
                continue
            l_reads, l_writes = _access_sets(later)
            conflicting = any(
                _locations_conflict(a, b)
                for a in e_writes
                for b in (l_reads | l_writes)
            ) or any(
                _locations_conflict(a, b) for a in e_reads for b in l_writes
            )
            if conflicting:
                graph[earlier.txn_id][later.txn_id] = None
    return graph


def _topological_order(graph: dict) -> list:
    """Kahn's order of an acyclic graph, generation by generation."""
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for node in successors:
            indegree[node] += 1
    order = [node for node, degree in indegree.items() if degree == 0]
    for node in order:  # ``order`` grows as generations are released
        for successor in graph[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                order.append(successor)
    return order


def check_conflict_serializability(result) -> ConflictReport:
    """Analyse a :class:`repro.sched.schedule.ScheduleResult`."""
    committed_ids = {
        txn_id for outcome in result.committed for txn_id in outcome.txn_ids[-1:]
    }
    graph = conflict_graph(result.history, committed_ids)
    edges = [(node, successor) for node, successors in graph.items() for successor in successors]
    cycle = find_cycle(graph)
    if cycle is not None:
        return ConflictReport(False, cycle, edges=edges)
    return ConflictReport(True, None, edges=edges, serial_order=_topological_order(graph))
