"""Simulator edge cases: stalls, script errors, step caps, observers."""

import pytest

from repro.core.formula import ge
from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Item, Local, LogicalVar
from repro.errors import ScheduleError
from repro.sched.policy import ReplayPolicy
from repro.sched.simulator import InstanceSpec, Simulator


def incrementer():
    return TransactionType(
        name="Inc",
        body=(Read(Local("v"), Item("x")), Write(Item("x"), Local("v") + 1)),
    )


class TestScriptHandling:
    def test_out_of_range_script_index_rejected(self):
        sim = Simulator(DbState(items={"x": 0}), [InstanceSpec(incrementer(), {})], script=[5])
        with pytest.raises(ScheduleError):
            sim.run()

    def test_script_entries_for_finished_instances_skipped(self):
        specs = [InstanceSpec(incrementer(), {}, "READ COMMITTED", "A")]
        sim = Simulator(DbState(items={"x": 0}), specs, script=[0] * 20)
        result = sim.run()
        assert result.committed and result.final.read_item("x") == 1

    def test_script_exhaustion_falls_back_to_random(self):
        specs = [
            InstanceSpec(incrementer(), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer(), {}, "READ COMMITTED", "B"),
        ]
        sim = Simulator(DbState(items={"x": 0}), specs, script=[0])
        result = sim.run()
        assert len(result.committed) == 2


class TestCapsAndStalls:
    def test_max_steps_bounds_execution(self):
        blocked_writer = TransactionType(
            name="W", body=(Write(Item("x"), Local("v") * 0),)
        )
        # 'v' is unbound: executing raises, aborting the instance — but the
        # step budget must bound even pathological schedules
        specs = [InstanceSpec(incrementer(), {}, "READ COMMITTED", "A")]
        sim = Simulator(DbState(items={"x": 0}), specs, max_steps=1)
        result = sim.run()
        assert result.stats["steps"] == 1
        assert result.outcomes[0].status in ("incomplete", "committed")

    def test_mutual_block_resolves_via_deadlock_abort(self):
        t_xy = TransactionType(
            name="XY",
            body=(
                Read(Local("a"), Item("x")), Write(Item("x"), Local("a") + 1),
                Read(Local("b"), Item("y")), Write(Item("y"), Local("b") + 1),
            ),
        )
        t_yx = TransactionType(
            name="YX",
            body=(
                Read(Local("a"), Item("y")), Write(Item("y"), Local("a") + 1),
                Read(Local("b"), Item("x")), Write(Item("x"), Local("b") + 1),
            ),
        )
        specs = [
            InstanceSpec(t_xy, {}, "READ COMMITTED", "A"),
            InstanceSpec(t_yx, {}, "READ COMMITTED", "B"),
        ]
        sim = Simulator(
            DbState(items={"x": 0, "y": 0}), specs, seed=1, retry=False, max_steps=500
        )
        result = sim.run()
        # no retry: the victim stays aborted, the survivor commits
        assert len(result.committed) == 1
        assert len(result.aborted) == 1
        assert result.stats["deadlocks"] == 1


class TestWouldBlockRetry:
    def test_blocked_operation_is_retried_until_the_lock_frees(self):
        specs = [
            InstanceSpec(incrementer(), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer(), {}, "READ COMMITTED", "B"),
        ]
        # A takes the long write lock on x; B's read blocks twice before A
        # commits, then the very same operation succeeds on retry
        sim = Simulator(DbState(items={"x": 0}), specs, script=[0, 0, 1, 1, 0, 1, 1, 1])
        result = sim.run()
        assert result.stats["waits"] == 2
        assert len(result.committed) == 2
        # B's read landed after A's commit, so no update is lost
        assert result.final.read_item("x") == 2

    def test_blocked_instance_does_not_advance_its_program(self):
        specs = [
            InstanceSpec(incrementer(), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer(), {}, "READ COMMITTED", "B"),
        ]
        # A reads x and takes its long write lock; every turn B then gets
        # retries the same blocked read, and the script ends before A commits
        policy = ReplayPolicy([0, 0, 1, 1, 1], on_exhausted="stop")
        result = Simulator(DbState(items={"x": 0}), specs, policy=policy).run()
        assert result.stats["waits"] == 3
        assert result.script == [0, 0, 1, 1, 1]
        # B began but never ran its read, so its program did not advance
        b_id = result.outcome_by_name("B").txn_ids[0]
        assert [op.kind for op in result.history if op.txn_id == b_id] == ["begin"]
        assert result.outcome_by_name("B").status == "incomplete"
        assert result.final.read_item("x") == 0

    def test_ghost_rebinds_to_observed_value_after_blocking(self):
        """The logical-variable snapshot follows the observed read, not the
        stale committed state the transaction happened to begin under."""
        reader = TransactionType(
            name="R",
            body=(Read(Local("v"), Item("x")),),
            snapshot=((LogicalVar("X0"), Item("x")),),
        )
        specs = [
            InstanceSpec(incrementer(), {}, "READ COMMITTED", "A"),
            InstanceSpec(reader, {}, "READ COMMITTED", "B"),
        ]
        envs = {}

        def capture(sim, rt):
            if rt.status == "committed":
                envs[rt.spec.name] = dict(rt.env)

        sim = Simulator(
            DbState(items={"x": 0}),
            specs,
            script=[0, 0, 1, 0, 1, 1],
            observers=[capture],
        )
        result = sim.run()
        assert len(result.committed) == 2
        # B began while x was still 0, blocked on A's write lock, and read 1
        # after A committed — the ghost must equal the observed 1
        assert envs["B"][LogicalVar("X0")] == 1


class TestRestartRebinding:
    def deadlock_pair(self):
        t_xy = TransactionType(
            name="XY",
            body=(
                Read(Local("a"), Item("x")), Write(Item("x"), Local("a") + 1),
                Read(Local("b"), Item("y")), Write(Item("y"), Local("b") + 1),
            ),
            snapshot=((LogicalVar("X0"), Item("x")),),
        )
        t_yx = TransactionType(
            name="YX",
            body=(
                Read(Local("a"), Item("y")), Write(Item("y"), Local("a") + 1),
                Read(Local("b"), Item("x")), Write(Item("x"), Local("b") + 1),
            ),
            snapshot=((LogicalVar("X0"), Item("y")),),
        )
        return [
            InstanceSpec(t_xy, {}, "READ COMMITTED", "A"),
            InstanceSpec(t_yx, {}, "READ COMMITTED", "B"),
        ]

    # both instances take their first lock, then cross: deadlock.  The
    # victim (index 1) restarts; the script lets the survivor commit before
    # the victim's retry, which then runs to completion alone.
    DEADLOCK_THEN_RETRY = [0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1]

    def test_deadlock_victim_retries_and_both_commit(self):
        sim = Simulator(
            DbState(items={"x": 0, "y": 0}),
            self.deadlock_pair(),
            script=self.DEADLOCK_THEN_RETRY,
            retry=True,
        )
        result = sim.run()
        assert result.stats["deadlocks"] == 1
        assert result.stats["restarts"] == 1
        assert len(result.committed) == 2
        assert result.final.read_item("x") == 2
        assert result.final.read_item("y") == 2

    def test_restarted_instance_rebinds_ghosts_to_fresh_state(self):
        envs = {}
        restarted = {}

        def capture(sim, rt):
            if rt.status == "committed":
                envs[rt.spec.name] = dict(rt.env)
                restarted[rt.spec.name] = rt.restarts

        sim = Simulator(
            DbState(items={"x": 0, "y": 0}),
            self.deadlock_pair(),
            script=self.DEADLOCK_THEN_RETRY,
            retry=True,
            observers=[capture],
        )
        result = sim.run()
        assert len(result.committed) == 2
        assert restarted == {"A": 0, "B": 1}
        # the survivor incremented both items before the victim's retry ran,
        # so the victim's snapshot ghost must see 1 — a stale rebinding
        # would still show the initial 0
        assert envs["B"][LogicalVar("X0")] == 1


class TestObserverContract:
    def test_observer_sees_every_operation(self):
        seen = []

        def observer(sim, rt):
            seen.append((rt.spec.label(rt.index), rt.ops_done, rt.status))

        specs = [InstanceSpec(incrementer(), {}, "READ COMMITTED", "A")]
        Simulator(DbState(items={"x": 0}), specs, observers=[observer]).run()
        # two ops plus the commit notification
        labels = [entry[0] for entry in seen]
        assert labels.count("A") == 3

    def test_multiple_observers_all_invoked(self):
        counts = [0, 0]

        def first(sim, rt):
            counts[0] += 1

        def second(sim, rt):
            counts[1] += 1

        specs = [InstanceSpec(incrementer(), {}, "READ COMMITTED", "A")]
        Simulator(DbState(items={"x": 0}), specs, observers=[first, second]).run()
        assert counts[0] == counts[1] > 0
