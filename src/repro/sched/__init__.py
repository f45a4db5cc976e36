"""Schedules: interleaved execution, isolation and semantic checking.

* :mod:`repro.sched.interpreter` — run :class:`repro.core.program`
  transaction programs operation-by-operation through the engine;
* :mod:`repro.sched.simulator` — interleave multiple instances under a
  scripted or seeded-random scheduler, with blocking, deadlock-victim
  aborts, first-committer-wins aborts, rollback injection and retry;
* :mod:`repro.sched.schedule` — results: commit order, per-instance
  environments, per-commit committed-state snapshots, engine history;
* :mod:`repro.sched.isolation` — client-centric commit tests for READ
  COMMITTED, SNAPSHOT and SERIALIZABLE over a committed history, an
  oracle for the engine that shares none of its code;
* :mod:`repro.sched.semantic` — the paper's *semantic correctness* check:
  consistency of the final state, per-transaction results ``Q_i`` at commit
  time, cumulative results, and serial-replay comparison;
* :mod:`repro.sched.anomalies` — detectors for the [2] phenomena (dirty
  read, lost update, fuzzy read, phantom, read skew, write skew);
* :mod:`repro.sched.histories` — a Berenson-style history DSL
  (``"w1[x=1] r2[x] c1 c2"``) replayed through the engine.
"""
