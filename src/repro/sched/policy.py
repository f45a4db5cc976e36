"""Scheduling policies: the decision-point interface of the simulator.

The simulator owns the execution core (one engine operation per step);
*which* instance takes the next step is delegated to a
:class:`SchedulePolicy`.  A policy implements::

    choose(active, simulator) -> _Runtime | None

``active`` is the list of runtimes that are still ready/running, in
instance order; ``simulator`` exposes the full runtime state (engine,
waits-for graph, stats) for policies that want it.  Returning ``None``
stops the run (the schedule stays incomplete).  A policy may also define
``observe_step(simulator, runtime, ops)``, called after every executed
step with the slice of engine history the step produced — the hook the
exhaustive policy uses to learn conflict information.

Four policies:

* :class:`RandomPolicy` — the seeded uniformly-random picker used by the
  statistical validation sweeps (prefers unblocked instances);
* :class:`SerialPolicy` — one serial execution in a given instance order
  (inference's CEGIS oracle runs each serial order once);
* :class:`ReplayPolicy` — an explicit script of instance indices, one per
  step, for reproducing exact anomaly interleavings (this subsumes the
  history-DSL replay in :mod:`repro.sched.histories`);
* :class:`ExhaustivePolicy` — one depth-first branch of a systematic
  exploration, following a forced decision prefix and then extending it
  deterministically while maintaining a *sleep set* (after Godefroid):
  scheduling decisions whose first operation commutes with everything
  executed since a sibling branch covered them are never re-explored.
  :mod:`repro.sched.explore` drives the backtracking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

from repro.errors import ScheduleError


class SchedulePolicy:
    """Decides which instance the simulator steps next."""

    def choose(self, active, simulator):
        """Return the runtime to step next, or ``None`` to stop the run."""
        raise NotImplementedError


class RandomPolicy(SchedulePolicy):
    """Seeded uniformly-random scheduling, preferring unblocked instances."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def choose(self, active, simulator):
        unblocked = [rt for rt in active if not rt.blocked]
        pool = unblocked or active
        return pool[self.rng.randrange(len(pool))]


class SerialPolicy(SchedulePolicy):
    """Run the instances one after another in ``order`` (a permutation of
    the instance indices): always step the earliest unfinished one."""

    def __init__(self, order: Sequence[int]) -> None:
        self.rank = {index: position for position, index in enumerate(order)}

    def choose(self, active, simulator):
        return min(active, key=lambda rt: self.rank[rt.index])


class ReplayPolicy(SchedulePolicy):
    """Replay an explicit script of instance indices.

    Script entries naming a finished instance are consumed without a step
    (the simulator records a skip).  When the script runs out,
    ``on_exhausted`` selects the behaviour: ``"random"`` finishes the
    remaining instances with a :class:`RandomPolicy` seeded with ``seed``
    (the historical ``Simulator(script=...)`` behaviour), ``"stop"`` ends
    the run, leaving unfinished instances incomplete (the history-DSL
    behaviour).
    """

    def __init__(
        self,
        script: Sequence[int],
        seed: int = 0,
        on_exhausted: str = "random",
    ) -> None:
        if on_exhausted not in ("random", "stop"):
            raise ValueError(f"on_exhausted must be 'random' or 'stop', not {on_exhausted!r}")
        self.script = list(script)
        self.position = 0
        self.on_exhausted = on_exhausted
        self._fallback = RandomPolicy(seed)

    def choose(self, active, simulator):
        if self.position >= len(self.script):
            if self.on_exhausted == "stop":
                return None
            return self._fallback.choose(active, simulator)
        index = self.script[self.position]
        self.position += 1
        runtimes = simulator._runtimes
        if not (0 <= index < len(runtimes)):
            raise ScheduleError(f"script index {index} out of range")
        return runtimes[index]


# ---------------------------------------------------------------------------
# conflict granules (shared with the race analysis in repro.sched.dpor)
# ---------------------------------------------------------------------------

#: Sentinel signature for a step whose accesses are unknown (a branch whose
#: first step was never observed, or any step of the unpruned DFS, which
#: computes no signatures): dependent on every other step.
DEPENDENT = "<dependent>"

#: Pseudo-granule ordering transaction begins: begin order assigns txn
#: ids, and deadlock victim selection picks the youngest id in the cycle,
#: so two begins never commute — treating them as no-ops makes sleep sets
#: discard interleavings whose only difference is which instance ends up
#: the perpetual deadlock victim.
ORDER_GRANULE = ("<txn-order>",)


def _resource(key: tuple):
    """Collapse engine lock keys to conflict granules (tables coarsened)."""
    if key[0] in ("table", "row"):
        return ("table", key[1])
    return key


# ---------------------------------------------------------------------------
# step records (the DPOR substrate)
# ---------------------------------------------------------------------------


@dataclass
class StepRecord:
    """One executed scheduler step, recorded for post-run race analysis.

    ``ops`` is the slice of engine history the step produced (possibly
    empty for a blocked attempt or a pure interpreter advance);
    ``blocked_on`` is the ``(key, mode)`` of the contested lock when the
    attempt raised :class:`~repro.engine.locks.WouldBlock`.  ``accesses``
    is the step's access set as the online signature computed it (see
    :meth:`~repro.sched.dpor.RaceAnalyzer.online_signature`), kept for
    the post-run analysis to reuse.
    """

    depth: int
    index: int  # instance index that took the step
    txn_id: int | None
    level: str
    ops: tuple
    blocked_on: tuple | None = None
    accesses: frozenset | None = None


# ---------------------------------------------------------------------------
# the exhaustive policy (one DFS branch)
# ---------------------------------------------------------------------------


@dataclass
class Frame:
    """One decision point on the current DFS path."""

    depth: int
    enabled: tuple  # instance indices eligible at this node, in order
    sleep: dict  # index -> signature asleep at this node
    choice: int  # child currently on the path
    tried: list = dataclass_field(default_factory=list)  # [(index, signature)]
    # the subset of enabled that was not blocked — the instances whose
    # step here is a real program step rather than a lock re-attempt
    # (enabled == runnable except at all-blocked deadlock-resolution
    # nodes, where scheduling anybody just triggers the same resolution)
    runnable: tuple = ()

    def next_candidate(self):
        """The next unexplored, not-asleep child, or ``None``."""
        done = {index for index, _sig in self.tried}
        for index in self.enabled:
            if index not in done and index not in self.sleep:
                return index
        return None


class ExhaustivePolicy(SchedulePolicy):
    """Drive one run of a DFS over scheduling decisions.

    The policy follows ``prefix`` (a list of instance indices, one per
    decision), then extends the path deterministically: at each new node
    it steps the lowest-indexed enabled instance that is not asleep.  It
    records a :class:`Frame` per new node so the explorer can backtrack,
    and threads the sleep set forward, waking entries whose signature
    conflicts with each executed step.

    ``entry_sleep`` is the sleep context of the *last* prefix decision
    (the candidate branch being opened): ancestors' sleep entries plus the
    signatures of previously explored siblings.  It is filtered by the
    candidate's own first-step signature once that is observed.

    ``signature_fn(runtime, ops)`` summarises each executed step and
    ``conflict(sig_a, sig_b)`` decides whether two summaries fail to
    commute — the explorer passes the level-aware access model of
    :mod:`repro.sched.dpor`.  Each executed step is recorded in ``steps``
    for the race analysis; with ``pruning`` off neither steps nor a sleep
    set are kept.
    ``max_depth`` is a decision budget per run (``stop_reason ==
    "depth"``).
    """

    def __init__(
        self,
        prefix: Sequence[int] = (),
        entry_sleep: dict | None = None,
        *,
        signature_fn,
        conflict,
        pruning: bool = True,
        max_depth: int | None = None,
    ) -> None:
        self.prefix = list(prefix)
        self.entry_sleep = dict(entry_sleep or {})
        self.pruning = pruning
        self.max_depth = max_depth
        self.signature_fn = signature_fn
        self.conflict = conflict
        self.steps: list = []  # StepRecords for every depth, prefix included
        self.depth = 0
        # live sleep set; seeded immediately for an empty prefix, otherwise
        # derived from entry_sleep when the candidate's signature arrives
        self.sleep: dict = {} if not self.prefix else dict(self.entry_sleep)
        self.frames: list = []  # new frames (depths >= len(prefix))
        self.candidate_signature = None  # first-step signature of prefix[-1]
        self.stop_reason = None  # None | "sleep" | "depth"
        # instances whose last step was a failed lock attempt that changed
        # nothing: re-choosing one before anything else moves would loop
        # forever on the identical no-op
        self._no_progress: set = set()

    def choose(self, active, simulator):
        depth = self.depth
        if depth < len(self.prefix):
            index = self.prefix[depth]
            self.depth += 1
            return simulator._runtimes[index]
        if self.max_depth is not None and depth >= self.max_depth:
            self.stop_reason = "depth"
            return None
        runnable = sorted(rt.index for rt in active if not rt.blocked)
        waiting = sorted(
            rt.index for rt in active if rt.blocked and rt.index not in self._no_progress
        )
        enabled = runnable or waiting or sorted(rt.index for rt in active)
        candidates = [index for index in enabled if index not in self.sleep]
        if not candidates:
            # every enabled decision is covered by a sibling branch
            self.stop_reason = "sleep"
            return None
        choice = candidates[0]
        self.frames.append(
            Frame(
                depth=depth,
                enabled=tuple(enabled),
                sleep=dict(self.sleep),
                choice=choice,
                runnable=tuple(runnable),
            )
        )
        self.depth += 1
        return simulator._runtimes[choice]

    def _filter(self, sleep: dict, signature) -> dict:
        """Keep only sleep entries that commute with the step just executed."""
        return {
            index: sig for index, sig in sleep.items() if not self.conflict(sig, signature)
        }

    def observe_step(self, simulator, runtime, ops):
        if runtime.blocked and not ops:
            # failed re-attempt, nothing recorded: identical retries stay
            # no-ops until some other step changes lock state
            self._no_progress.add(runtime.index)
        else:
            self._no_progress.clear()
        depth = self.depth - 1  # the decision just executed
        if not self.pruning:
            # no sleep set to maintain: only mark the child taken at a new node
            if depth >= len(self.prefix):
                frame = self.frames[-1]
                frame.tried.append((frame.choice, DEPENDENT))
            return
        record = StepRecord(
            depth=depth,
            index=runtime.index,
            txn_id=runtime.txn.txn_id if runtime.txn is not None else None,
            level=runtime.spec.level,
            ops=tuple(ops),
            blocked_on=runtime.last_block if runtime.blocked else None,
        )
        self.steps.append(record)
        signature = self.signature_fn(runtime, ops, record)
        if depth == len(self.prefix) - 1:
            # the candidate branch's own first step: seed the live sleep set
            self.candidate_signature = signature
            self.sleep = self._filter(self.entry_sleep, signature)
            return
        if depth < len(self.prefix):
            return  # interior prefix step: decisions already taken
        frame = self.frames[-1]
        frame.tried.append((frame.choice, signature))
        self.sleep = self._filter(self.sleep, signature)
