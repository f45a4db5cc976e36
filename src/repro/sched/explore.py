"""Systematic schedule exploration: source-set DPOR and an unpruned DFS.

:class:`~repro.sched.policy.ExhaustivePolicy` drives a single run down one
branch of the scheduling tree; this module owns the backtracking.  Because
replay is deterministic, re-running a decision prefix reconstructs a node
exactly (the simulator is cheap; cloning engine state mid-run would not
be).  Two modes:

* ``pruning=True`` — **source-set DPOR** (:mod:`repro.sched.dpor`): the
  backtrack loop is driven by race reversal instead of sibling
  enumeration.  After each run the analyzer derives level-aware access
  sets from the engine history, finds the immediate races, and enqueues —
  per race — one member of the source set at the decision depth of the
  earlier step.  A LIFO frontier of pending reversals replaces the
  per-branch recursion.  Optimal DPOR for isolation levels needs no state
  caching, so there is none.

* ``pruning=False`` — a plain sequential DFS over every enabled sibling,
  the ground truth the reduction is differentially tested against.

**Sleep sets** (after Godefroid) prune the DPOR mode further: when branch
``i`` at a node has been fully explored, sibling branches carry ``i``'s
first-step signature asleep — any schedule that would merely commute ``i``
past independent steps is never re-explored.  Signatures are the
level-aware access sets of :meth:`repro.sched.dpor.RaceAnalyzer.online_signature`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.state import DbState
from repro.errors import ScheduleError
from repro.sched.dpor import RaceAnalyzer, accesses_conflict
from repro.sched.policy import DEPENDENT, ExhaustivePolicy, ReplayPolicy
from repro.sched.schedule import ScheduleResult
from repro.sched.simulator import InstanceSpec, Simulator


class _Budget:
    """Run budget; ``take()`` is False once exhausted."""

    def __init__(self, limit: int | None) -> None:
        self.limit = limit
        self.used = 0
        self.exhausted = False

    def take(self) -> bool:
        if self.limit is not None and self.used >= self.limit:
            self.exhausted = True
            return False
        self.used += 1
        return True


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class ExplorationResult:
    """Outcome of one :func:`explore` call."""

    mode: str = "optimal"  # optimal | none (pruning disabled)
    runs: int = 0  # simulator runs launched (incl. pruned branches)
    schedules: int = 0  # runs that reached a quiescent end state
    pruned_sleep: int = 0  # branches cut because every child was asleep
    races: int = 0  # immediate races detected (optimal mode)
    reversals: int = 0  # reversal candidates enqueued (optimal mode)
    truncated_depth: int = 0  # branches cut by the max_depth bound
    truncated: bool = False  # run budget exhausted before the tree was done

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "runs": self.runs,
            "schedules": self.schedules,
            "pruned_sleep": self.pruned_sleep,
            "races": self.races,
            "reversals": self.reversals,
            "truncated_depth": self.truncated_depth,
            "truncated": self.truncated,
        }


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------


class _Node:
    """One reached decision point, shared across runs (optimal mode)."""

    __slots__ = ("runnable", "sleep", "scheduled", "queued", "signatures")

    def __init__(self, runnable: tuple, sleep: dict, choice: int) -> None:
        # reversals only schedule *runnable* instances: a blocked one
        # would execute a lock re-attempt here, not its racing step, and
        # at all-blocked nodes the deadlock resolution is trigger-
        # independent (global cycle search, youngest-in-cycle victim)
        self.runnable = runnable
        self.sleep = dict(sleep)  # index -> signature asleep at entry
        self.scheduled = {choice}  # candidates launched (or taken inline)
        self.queued: set = set()  # candidates pending in the frontier
        self.signatures: dict = {}  # candidate -> first-step signature


_ROOT = object()  # frontier sentinel: the initial unconstrained run


class Explorer:
    """Depth-first exploration over one instance set."""

    def __init__(
        self,
        initial: DbState,
        specs: Sequence[InstanceSpec],
        *,
        retry: bool = True,
        max_steps: int = 100_000,
        max_schedules: int | None = None,
        max_depth: int | None = None,
        pruning: bool = True,
        on_schedule: Callable | None = None,
        engine_opts: dict | None = None,
    ) -> None:
        self.engine_opts = dict(engine_opts or {})
        self.initial = initial
        self.specs = list(specs)
        self.retry = retry
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.pruning = pruning
        self.on_schedule = on_schedule
        self.budget = _Budget(max_schedules)
        self.result = ExplorationResult(mode="optimal" if pruning else "none")
        # DPOR state: the node registry and the reversal frontier
        self._nodes: dict = {}
        self._frontier: list = []
        self._analyzer = RaceAnalyzer(self.specs)
        self._stop = False

    # -- single runs --------------------------------------------------------
    def _policy(self, prefix, entry_sleep) -> ExhaustivePolicy:
        return ExhaustivePolicy(
            prefix,
            entry_sleep,
            signature_fn=self._analyzer.online_signature,
            conflict=accesses_conflict,
            pruning=self.pruning,
            max_depth=self.max_depth,
        )

    def _simulate(self, policy, observers=None) -> ScheduleResult:
        return Simulator(
            self.initial.copy(),
            self.specs,
            retry=self.retry,
            max_steps=self.max_steps,
            policy=policy,
            observers=observers,
            engine_opts=self.engine_opts,
        ).run()

    def _run(self, policy: ExhaustivePolicy):
        schedule_result = self._simulate(policy)
        self.result.runs += 1
        if policy.stop_reason is None:
            self.result.schedules += 1
        elif policy.stop_reason == "sleep":
            self.result.pruned_sleep += 1
        elif policy.stop_reason == "depth":
            self.result.truncated_depth += 1
        if policy.stop_reason is None and self.on_schedule is not None:
            self.on_schedule(schedule_result)
        return schedule_result

    def replay(self, schedule: ScheduleResult, observers: Sequence) -> ScheduleResult:
        """Re-run an explored ``schedule`` from its script with ``observers`` attached.

        A run whose realised script or engine history differs from
        ``schedule``'s raises :class:`ScheduleError`.
        """
        replayed = self._simulate(ReplayPolicy(schedule.script, on_exhausted="stop"), observers)
        if replayed.script != schedule.script or replayed.history != schedule.history:
            raise ScheduleError(f"replay of {schedule.script} diverged (realised {replayed.script})")
        return replayed

    # -- unpruned DFS (sibling enumeration) ---------------------------------
    def _dfs(self) -> None:
        """Exhaust the whole tree, one sibling at a time.

        ``path`` holds the frames of the current branch; the deepest frame
        with an untried sibling is re-opened by re-running the simulator
        with the extended prefix (deterministic replay reconstructs the
        node).
        """
        if not self.budget.take():
            return
        policy = self._policy([], {})
        self._run(policy)
        path = list(policy.frames)
        while path:
            frame = path[-1]
            candidate = frame.next_candidate()
            if candidate is None:
                path.pop()
                continue
            if not self.budget.take():
                return
            frame.choice = candidate
            policy = self._policy([f.choice for f in path], {})
            self._run(policy)
            frame.tried.append((candidate, DEPENDENT))
            path.extend(policy.frames)

    # -- source-set DPOR (race-driven frontier) -----------------------------
    def _expand(self, item) -> None:
        """Run one frontier item and enqueue the reversals it uncovers."""
        if item is _ROOT:
            prefix: list = []
            entry_sleep: dict = {}
        else:
            key, candidate = item
            node = self._nodes[key]
            node.queued.discard(candidate)
            if candidate in node.scheduled or candidate in node.sleep:
                return  # covered since it was enqueued
            node.scheduled.add(candidate)
            # descendants start with the node's entry sleep plus the
            # signatures of the sibling branches explored before them
            entry_sleep = dict(node.sleep)
            entry_sleep.update(node.signatures)
            prefix = list(key) + [candidate]
        if not self.budget.take():
            self._stop = True
            return
        policy = self._policy(prefix, entry_sleep)
        self._run(policy)
        self._integrate(policy, item)

    def _integrate(self, policy: ExhaustivePolicy, item) -> None:
        """Register the run's nodes and schedule its race reversals."""
        races = self._analyzer.analyze(policy.steps)
        decisions = list(policy.prefix) + [frame.choice for frame in policy.frames]
        if item is not _ROOT:
            key, candidate = item
            parent = self._nodes.get(key)
            if parent is not None:
                signature = policy.candidate_signature
                parent.signatures[candidate] = (
                    DEPENDENT if signature is None else signature
                )
        offset = len(policy.prefix)
        for position, frame in enumerate(policy.frames):
            node_key = tuple(decisions[: offset + position])
            node = self._nodes.get(node_key)
            if node is None:
                node = _Node(frame.runnable, frame.sleep, frame.choice)
                self._nodes[node_key] = node
            else:
                node.scheduled.add(frame.choice)
            if frame.tried:
                node.signatures.setdefault(frame.choice, frame.tried[0][1])
        self.result.races += len(races)
        for race in races:
            if race.depth >= len(decisions):
                continue
            node = self._nodes.get(tuple(decisions[: race.depth]))
            if node is None:
                continue
            covered = node.scheduled | node.queued | set(node.sleep)
            if race.initials & covered:
                continue  # the reversed trace is already scheduled
            enabled = [i for i in node.runnable if i not in covered]
            if not enabled:
                continue
            if race.preferred in race.initials and race.preferred in enabled:
                chosen = [race.preferred]
            else:
                in_enabled = [i for i in sorted(race.initials) if i in enabled]
                # no initial is schedulable here (e.g. it was blocked at
                # this node): conservatively open every awake sibling
                chosen = in_enabled[:1] if in_enabled else enabled
            for index in chosen:
                node.queued.add(index)
                self._frontier.append((tuple(decisions[: race.depth]), index))
                self.result.reversals += 1

    def _drain(self) -> None:
        self._frontier = [_ROOT]
        while self._frontier and not self._stop:
            self._expand(self._frontier.pop())

    # -- entry point --------------------------------------------------------
    def run(self) -> ExplorationResult:
        if not self.pruning:
            self._dfs()
        else:
            self._drain()
        self.result.truncated = self.budget.exhausted
        return self.result


def explore(
    initial: DbState,
    specs: Sequence[InstanceSpec],
    *,
    retry: bool = True,
    max_steps: int = 100_000,
    max_schedules: int | None = None,
    max_depth: int | None = None,
    pruning: bool = True,
    on_schedule: Callable | None = None,
    engine_opts: dict | None = None,
) -> ExplorationResult:
    """Explore the scheduling tree of ``specs`` over ``initial``.

    Returns an :class:`ExplorationResult`; each completed schedule is
    streamed to ``on_schedule`` as it completes and not kept.
    ``max_schedules`` bounds the total number of simulator runs (pruned
    branches included); ``max_depth`` bounds decisions per run; ``pruning``
    selects source-set DPOR with level-aware race reversal (the default)
    or, when off, the full sequential DFS.  ``engine_opts`` passes extra
    Engine keyword options to every run (e.g. ``{"vacuum": "off"}`` to
    disable version GC).
    """
    return Explorer(
        initial,
        specs,
        retry=retry,
        max_steps=max_steps,
        max_schedules=max_schedules,
        max_depth=max_depth,
        pruning=pruning,
        on_schedule=on_schedule,
        engine_opts=engine_opts,
    ).run()
