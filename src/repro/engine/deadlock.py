"""Waits-for graph and deadlock resolution.

The scheduler records a waits-for edge whenever an operation raises
:class:`repro.engine.locks.WouldBlock`.  Deadlock detection is a cycle
search on that graph (:func:`find_cycle`); the victim is, by default, the
youngest transaction in the cycle (largest id), matching the common
minimum-work-lost heuristic.
"""

from __future__ import annotations

_EXHAUSTED = object()


def find_cycle(successors: dict) -> list | None:
    """The first cycle a depth-first search meets, as a node list, or None.

    ``successors`` maps every node to a dict of its successors; nodes and
    successors are searched in insertion order, so the answer is
    deterministic.  This is the cycle ``networkx.find_cycle`` returns for
    a ``DiGraph`` built by the same insertions: the nodes from the target
    of the first back edge along the search path to its source.
    """
    done: set = set()
    for root in successors:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(successors[root])]
        while pending:
            node = next(pending[-1], _EXHAUSTED)
            if node is _EXHAUSTED:
                finished = path.pop()
                on_path.remove(finished)
                done.add(finished)
                pending.pop()
                continue
            if node in on_path:
                return path[path.index(node):]
            if node not in done:
                path.append(node)
                on_path.add(node)
                pending.append(iter(successors[node]))
    return None


class WaitsForGraph:
    """Who waits for whom, as insertion-ordered successor dicts of txn ids."""

    def __init__(self) -> None:
        self._succ: dict = {}

    def add_waits(self, waiter: int, blockers) -> None:
        for blocker in blockers:
            if blocker != waiter:
                self._succ.setdefault(waiter, {})[blocker] = None
                self._succ.setdefault(blocker, {})

    def clear_waits(self, waiter: int) -> None:
        if waiter in self._succ:
            self._succ[waiter].clear()

    def remove(self, txn_id: int) -> None:
        if self._succ.pop(txn_id, None) is not None:
            for blockers in self._succ.values():
                blockers.pop(txn_id, None)

    def find_cycle(self) -> list | None:
        """Transaction ids forming a deadlock cycle, or None."""
        return find_cycle(self._succ)

    def pick_victim(self, cycle) -> int:
        """The youngest (highest-id) transaction in the cycle."""
        return max(cycle)

    def blockers_of(self, waiter: int) -> set:
        return set(self._succ.get(waiter, ()))
