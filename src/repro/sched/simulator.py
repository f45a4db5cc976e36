"""Interleaved execution of transaction instances under the engine.

The simulator owns the execution core; the engine owns level semantics;
a :class:`repro.sched.policy.SchedulePolicy` owns the scheduling
decisions.  Each scheduler step attempts exactly one engine operation of
one instance:

* a successful operation advances that instance's interpreter;
* an operation that raises :class:`~repro.engine.locks.WouldBlock` leaves
  the instance blocked (the same thunk is retried when next scheduled) and
  records waits-for edges; a cycle aborts the youngest transaction in it;
* first-committer-wins aborts (READ COMMITTED FCW writes, SNAPSHOT
  commits) and deadlock-victim aborts optionally restart the instance from
  scratch against the now-committed state — the standard retry loop;
* an explicit :class:`~repro.core.program.Rollback` statement (and the
  legacy ``abort_after`` injection) aborts the instance without retry.

Policies are pluggable (see :mod:`repro.sched.policy`); the ``seed`` and
``script`` constructor arguments remain as shorthand for
:class:`~repro.sched.policy.RandomPolicy` and
:class:`~repro.sched.policy.ReplayPolicy` respectively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.program import TransactionType
from repro.core.state import DbState
from repro.engine.deadlock import WaitsForGraph
from repro.engine.locks import WouldBlock
from repro.engine.manager import Engine
from repro.engine.transaction import ABORTED as _TXN_ABORTED
from repro.errors import FirstCommitterWinsAbort, ScheduleError, TransactionAborted
from repro.sched.interpreter import bind_ghosts, steps
from repro.sched.monitor import GuardVeto
from repro.sched.policy import RandomPolicy, ReplayPolicy, SchedulePolicy
from repro.sched.schedule import InstanceOutcome, ScheduleResult


@dataclass
class InstanceSpec:
    """One transaction instance to run in a schedule."""

    txn_type: TransactionType
    args: dict = field(default_factory=dict)
    level: str = "SERIALIZABLE"
    name: str | None = None
    abort_after: int | None = None  # inject rollback after N db operations

    def label(self, index: int) -> str:
        return self.name or f"{self.txn_type.name}#{index}"


class _Runtime:
    """Mutable per-instance simulation state."""

    def __init__(self, index: int, spec: InstanceSpec) -> None:
        self.index = index
        self.spec = spec
        self.txn = None
        self.gen = None
        self.env: dict = {}
        self.pending = None
        self.last_result = None
        self.obs: dict = {}
        self.first_op_state = None
        self.started = False
        self.at_commit = False
        self.blocked = False
        self.last_block = None  # (key, mode) of the most recent WouldBlock
        self.status = "ready"  # ready | running | committed | aborted
        self.ops_done = 0
        self.restarts = 0
        self.txn_ids: list = []
        self.abort_reasons: list = []


class Simulator:
    """Drive a set of instances to completion under one scheduling policy."""

    def __init__(
        self,
        initial: DbState,
        specs: Sequence[InstanceSpec],
        seed: int = 0,
        script: Sequence[int] | None = None,
        retry: bool = False,
        max_restarts: int = 5,
        max_steps: int = 100_000,
        phantom_protection: bool = True,
        observers: Sequence | None = None,
        policy: SchedulePolicy | None = None,
        engine_opts: dict | None = None,
    ) -> None:
        #: extra Engine keyword options (e.g. ``{"vacuum": "off"}``) —
        #: threaded from explore() so scenarios can pin a GC policy
        self.engine_opts = dict(engine_opts or {})
        self.engine = Engine(
            initial, phantom_protection=phantom_protection, **self.engine_opts
        )
        #: callables invoked as ``observer(self, runtime)`` after every
        #: successful engine operation — the hook the assertion monitor
        #: (:mod:`repro.sched.monitor`) attaches to
        self.observers = list(observers or [])
        self.initial = initial.copy()
        self.specs = list(specs)
        self.script = list(script) if script is not None else None
        if policy is None:
            if script is not None:
                policy = ReplayPolicy(script, seed=seed, on_exhausted="random")
            else:
                policy = RandomPolicy(seed)
        self.policy = policy
        self.retry = retry
        self.max_restarts = max_restarts
        self.max_steps = max_steps
        self.wfg = WaitsForGraph()
        self.stats = {
            "steps": 0,
            "waits": 0,
            "deadlocks": 0,
            "fcw_aborts": 0,
            "injected_aborts": 0,
            "restarts": 0,
            "commits": 0,
        }
        self._runtimes = [_Runtime(i, spec) for i, spec in enumerate(self.specs)]
        self._committed_states: dict = {}
        self._realised: list = []

    # -- public ------------------------------------------------------------
    def run(self) -> ScheduleResult:
        while self.stats["steps"] < self.max_steps:
            active = [rt for rt in self._runtimes if rt.status in ("ready", "running")]
            if not active:
                break
            choice = self.policy.choose(active, self)
            if choice is None:
                break
            if choice.status not in ("ready", "running"):
                continue
            mark = len(self.engine.history)
            self._step(choice)
            observe = getattr(self.policy, "observe_step", None)
            if observe is not None:
                observe(self, choice, self.engine.history[mark:])
        return self._result()

    # -- internals ------------------------------------------------------------
    def _start(self, rt: _Runtime) -> None:
        spec = rt.spec
        rt.txn = self.engine.begin(spec.level)
        rt.txn_ids.append(rt.txn.txn_id)
        rt.env = bind_ghosts(spec.txn_type, spec.args, self.engine.committed_state())
        rt.obs = {}
        rt.first_op_state = None
        rt.gen = steps(self.engine, rt.txn, spec.txn_type, spec.args, rt.env, rt.obs)
        rt.started = True
        rt.status = "running"
        rt.pending = None
        rt.at_commit = False
        rt.last_result = None
        rt.ops_done = 0

    def _advance(self, rt: _Runtime) -> None:
        """Fetch the next operation thunk from the interpreter."""
        try:
            if rt.last_result is _FIRST:
                rt.pending = next(rt.gen)
            else:
                rt.pending = rt.gen.send(rt.last_result)
        except StopIteration:
            rt.pending = None
            rt.at_commit = True

    def _step(self, rt: _Runtime) -> None:
        self.stats["steps"] += 1
        self._realised.append(rt.index)
        if not rt.started:
            self._start(rt)
            rt.last_result = _FIRST
            self._advance(rt)
        try:
            if rt.at_commit:
                self._rebind_ghosts(rt)
                for observer in self.observers:
                    precommit = getattr(observer, "precommit", None)
                    if precommit is not None:
                        precommit(self, rt)
                self.engine.commit(rt.txn)
                rt.status = "committed"
                rt.blocked = False
                self.wfg.remove(rt.txn.txn_id)
                self.stats["commits"] += 1
                self._committed_states[rt.index] = self.engine.committed_state()
                # SNAPSHOT transactions publish their buffered writes at
                # commit: observers must see that state transition too
                for observer in self.observers:
                    observer(self, rt)
                return
            if rt.pending is None:
                self._advance(rt)
                if rt.at_commit:
                    # commit on the next scheduled step of this instance
                    return
            if rt.ops_done == 0:
                # the transaction effectively starts at its first database
                # access; remember the committed state of that moment as
                # the fallback for ghost binding
                rt.first_op_state = self.engine.committed_state()
            result = rt.pending()
            rt.ops_done += 1
            rt.blocked = False
            self.wfg.clear_waits(rt.txn.txn_id)
            rt.last_result = result
            rt.pending = None
            if rt.txn.status == _TXN_ABORTED:
                # an explicit Rollback statement tore the transaction down
                # through the engine; the rollback is part of the program,
                # so the instance finishes aborted without retry
                self._finish_aborted(rt, rt.txn.abort_reason or "rollback", allow_retry=False)
                return
            # advance the interpreter now so the operation's result lands
            # in the workspace before observers look at it
            injected = rt.spec.abort_after is not None and rt.ops_done >= rt.spec.abort_after
            if not injected:
                self._advance(rt)
            for observer in self.observers:
                observer(self, rt)
            if injected:
                self.engine.abort(rt.txn, reason="injected rollback")
                self.stats["injected_aborts"] += 1
                self._finish_aborted(rt, "injected rollback", allow_retry=False)
                return
        except WouldBlock as block:
            self.stats["waits"] += 1
            rt.last_block = (block.key, block.mode)
            rt.blocked = True
            self.wfg.add_waits(rt.txn.txn_id, block.blockers)
            self._resolve_deadlock()
        except GuardVeto as veto:
            # the assertional concurrency control vetoed this step: abort
            # the acting transaction (undoing the offending operation with
            # the rest of its work) and retry it later
            self.stats.setdefault("guard_vetoes", 0)
            self.stats["guard_vetoes"] += 1
            self.engine.abort(rt.txn, reason=f"guard veto: {veto.event!r}")
            self._finish_aborted(rt, str(veto), allow_retry=True)
        except FirstCommitterWinsAbort as abort:
            self.stats["fcw_aborts"] += 1
            self._finish_aborted(rt, str(abort), allow_retry=True)
        except TransactionAborted as abort:
            self._finish_aborted(rt, str(abort), allow_retry=True)

    def _rebind_ghosts(self, rt: _Runtime) -> None:
        """Bind the logical-variable snapshot from observed values.

        The snapshot terms are evaluated against the committed state at the
        transaction's first operation, overlaid with the values the
        transaction actually read — so ``X_i`` equals the value of ``x_i``
        the transaction's proof quantifies over, even when a blocker
        committed between its begin and its reads.
        """
        if rt.first_op_state is None:
            return
        overlay = rt.first_op_state.copy()
        for key, value in rt.obs.items():
            if key[0] == "item":
                overlay.write_item(key[1], value)
            else:
                _kind, array, index, attr = key
                overlay.write_field(array, index, attr, value)
        rt.env.update(bind_ghosts(rt.spec.txn_type, rt.spec.args, overlay))

    def _finish_aborted(self, rt: _Runtime, reason: str, allow_retry: bool) -> None:
        rt.abort_reasons.append(reason)
        self.wfg.remove(rt.txn.txn_id)
        rt.blocked = False
        if rt.gen is not None:
            rt.gen.close()
        if allow_retry and self.retry and rt.restarts < self.max_restarts:
            rt.restarts += 1
            self.stats["restarts"] += 1
            rt.started = False
            rt.status = "ready"
        else:
            rt.status = "aborted"

    def _resolve_deadlock(self) -> None:
        cycle = self.wfg.find_cycle()
        if cycle is None:
            return
        self.stats["deadlocks"] += 1
        victim_id = self.wfg.pick_victim(cycle)
        for rt in self._runtimes:
            if rt.txn is not None and rt.txn.txn_id == victim_id and rt.status == "running":
                self.engine.abort(rt.txn, reason="deadlock victim")
                self._finish_aborted(rt, "deadlock victim", allow_retry=True)
                return

    def _result(self) -> ScheduleResult:
        outcomes = []
        for rt in self._runtimes:
            status = rt.status if rt.status in ("committed", "aborted") else "incomplete"
            outcomes.append(
                InstanceOutcome(
                    index=rt.index,
                    name=rt.spec.label(rt.index),
                    txn_type=rt.spec.txn_type,
                    args=dict(rt.spec.args),
                    level=rt.spec.level,
                    status=status,
                    txn_ids=list(rt.txn_ids),
                    env=dict(rt.env),
                    commit_tick=rt.txn.commit_tick if rt.txn is not None else None,
                    committed_state=self._committed_states.get(rt.index),
                    restarts=rt.restarts,
                    abort_reasons=list(rt.abort_reasons),
                )
            )
        return ScheduleResult(
            initial=self.initial,
            final=self.engine.committed_state(),
            outcomes=outcomes,
            history=list(self.engine.history),
            stats=dict(self.stats),
            script=list(self._realised),
        )


class _FirstSentinel:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<first>"


_FIRST = _FirstSentinel()


def round_seeds(seed: int, rounds: int) -> list:
    """Independent per-round seeds drawn from a ``random.Random(seed)`` stream.

    Deriving round seeds as ``seed + round_index`` makes sweeps with
    adjacent base seeds share most of their interleavings; a seeded stream
    keeps rounds reproducible without that overlap.
    """
    stream = random.Random(seed)
    return [stream.randrange(2**32) for _ in range(rounds)]


def run_random_schedules(
    initial: DbState,
    specs: Sequence[InstanceSpec],
    rounds: int,
    seed: int = 0,
    retry: bool = False,
) -> list:
    """Run the same instance set under many random interleavings."""
    results = []
    for round_seed in round_seeds(seed, rounds):
        simulator = Simulator(initial.copy(), specs, seed=round_seed, retry=retry)
        results.append(simulator.run())
    return results
