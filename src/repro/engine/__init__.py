"""An in-memory transactional engine implementing the paper's substrate.

The paper assumes the locking/multiversion implementations of the isolation
levels described by Berenson et al. ("A critique of ANSI SQL isolation
levels", SIGMOD 1995).  This package implements them faithfully enough to
*execute* the paper's transaction programs under every level and observe
exactly the interleavings each level permits:

* :mod:`repro.engine.locks` — the lock manager: shared/exclusive item,
  record and row locks of short or long duration, plus predicate locks;
* :mod:`repro.engine.storage` — the MVCC store: per-location version
  chains with ``xmin``/``xmax`` stamps, a commit log, O(1) snapshot
  captures, first-committer-wins commit stamps, and a vacuum pass that
  reclaims versions behind the oldest-active-snapshot horizon;
* :mod:`repro.engine.transaction` — per-transaction runtime state: level,
  read/write sets, the op-ordered stamp log (unstamped on abort), and the
  SNAPSHOT write overlay;
* :mod:`repro.engine.manager` — the engine proper: per-level read/write/
  commit/abort rules for READ UNCOMMITTED, READ COMMITTED, READ COMMITTED
  with first-committer-wins, REPEATABLE READ, SNAPSHOT and SERIALIZABLE;
* :mod:`repro.engine.deadlock` — waits-for graph and victim selection.

The engine is cooperative and deterministic: operations never block a
thread; an operation that must wait raises :class:`repro.engine.locks.WouldBlock`
carrying the blocking transactions, and the scheduler decides what runs
next.  That makes every anomaly reproducible from a seed or a script.
"""

from repro.engine.manager import Engine

__all__ = ["Engine"]
