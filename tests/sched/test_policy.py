"""Tests for the pluggable scheduling policies."""

import pytest

from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Item, Local
from repro.errors import ScheduleError
from repro.sched.dpor import RaceAnalyzer, accesses_conflict
from repro.sched.policy import (
    DEPENDENT,
    ExhaustivePolicy,
    RandomPolicy,
    ReplayPolicy,
    StepRecord,
)
from repro.sched.simulator import InstanceSpec, Simulator


def incrementer(item="x"):
    return TransactionType(
        name=f"Inc_{item}",
        body=(Read(Local("v"), Item(item)), Write(Item(item), Local("v") + 1)),
    )


def two_incrementers(level="READ COMMITTED"):
    return [
        InstanceSpec(incrementer(), {}, level, "A"),
        InstanceSpec(incrementer(), {}, level, "B"),
    ]


class TestRandomPolicy:
    def test_matches_legacy_seeded_runs(self):
        """Simulator(seed=k) and Simulator(policy=RandomPolicy(k)) agree."""
        for seed in range(5):
            legacy = Simulator(DbState(items={"x": 0}), two_incrementers(), seed=seed).run()
            pluggable = Simulator(
                DbState(items={"x": 0}), two_incrementers(), policy=RandomPolicy(seed)
            ).run()
            assert legacy.script == pluggable.script
            assert legacy.final.same_as(pluggable.final)

    def test_different_seeds_vary_schedules(self):
        scripts = {
            tuple(
                Simulator(
                    DbState(items={"x": 0}), two_incrementers(), policy=RandomPolicy(seed)
                )
                .run()
                .script
            )
            for seed in range(20)
        }
        assert len(scripts) > 1


class TestReplayPolicy:
    def test_replays_script_exactly(self):
        script = [0, 0, 0, 1, 1, 1]
        result = Simulator(
            DbState(items={"x": 0}), two_incrementers(), policy=ReplayPolicy(script)
        ).run()
        assert result.script == script
        assert [o.name for o in result.committed] == ["A", "B"]

    def test_matches_legacy_script_argument(self):
        script = [1, 0, 1, 0, 1, 0]
        legacy = Simulator(DbState(items={"x": 0}), two_incrementers(), script=script).run()
        pluggable = Simulator(
            DbState(items={"x": 0}),
            two_incrementers(),
            policy=ReplayPolicy(script, seed=0),
        ).run()
        assert legacy.script == pluggable.script
        assert legacy.final.same_as(pluggable.final)

    def test_stop_mode_leaves_instances_incomplete(self):
        result = Simulator(
            DbState(items={"x": 0}),
            two_incrementers(),
            policy=ReplayPolicy([0], on_exhausted="stop"),
        ).run()
        assert result.script == [0]
        assert all(o.status == "incomplete" for o in result.outcomes)

    def test_random_mode_finishes_instances(self):
        result = Simulator(
            DbState(items={"x": 0}),
            two_incrementers(),
            policy=ReplayPolicy([0], on_exhausted="random"),
        ).run()
        assert len(result.committed) == 2

    def test_out_of_range_index_rejected(self):
        sim = Simulator(
            DbState(items={"x": 0}), two_incrementers(), policy=ReplayPolicy([7])
        )
        with pytest.raises(ScheduleError):
            sim.run()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ReplayPolicy([0], on_exhausted="explode")


def exhaustive(**kwargs):
    """An ExhaustivePolicy over the explorer's level-aware signatures."""
    analyzer = RaceAnalyzer(two_incrementers())
    return ExhaustivePolicy(
        signature_fn=analyzer.online_signature, conflict=accesses_conflict, **kwargs
    )


class TestSignatures:
    def test_read_and_write_signatures_conflict_on_same_item(self):
        read_sig = frozenset({(("item", "x"), False)})
        write_sig = frozenset({(("item", "x"), True)})
        assert not accesses_conflict(read_sig, frozenset({(("item", "y"), True)}))
        assert accesses_conflict(read_sig, write_sig)
        assert not accesses_conflict(read_sig, frozenset({(("item", "x"), False)}))

    def test_empty_slice_is_dependent(self):
        class Runtime:
            index = 0
            txn = None
            spec = two_incrementers()[0]
            blocked = False
            last_block = None

        signature = RaceAnalyzer(two_incrementers()).online_signature(Runtime(), [])
        assert accesses_conflict(signature, frozenset({(("item", "y"), False)}))
        assert accesses_conflict(DEPENDENT, frozenset())

    def test_table_and_row_keys_coarsen_to_table_granule(self):
        class Op:
            def __init__(self, kind, key):
                self.kind = kind
                self.key = key

        analyzer = RaceAnalyzer(two_incrementers())

        def accesses(op):
            record = StepRecord(0, 0, 1, "READ COMMITTED", (op,))
            return analyzer.step_accesses(record, {}, order_begins=False)

        sig_row = accesses(Op("w", ("row", "orders", 3)))
        sig_table = accesses(Op("r", ("table", "orders")))
        assert accesses_conflict(sig_row, sig_table)


class TestExhaustivePolicy:
    def test_prefix_is_followed_verbatim(self):
        policy = exhaustive(prefix=[1, 0, 1])
        result = Simulator(
            DbState(items={"x": 0}), two_incrementers(), policy=policy
        ).run()
        assert result.script[:3] == [1, 0, 1]

    def test_extends_deterministically_lowest_first(self):
        policy = exhaustive()
        result = Simulator(
            DbState(items={"x": 0}), two_incrementers(), policy=policy
        ).run()
        # no sleep entries, no pruning hooks: always picks instance 0 first
        assert result.script == [0, 0, 0, 1, 1, 1]
        assert [frame.choice for frame in policy.frames] == result.script

    def test_max_depth_stops_run(self):
        policy = exhaustive(max_depth=2)
        result = Simulator(
            DbState(items={"x": 0}), two_incrementers(), policy=policy
        ).run()
        assert policy.stop_reason == "depth"
        assert len(result.script) == 2

    def test_frames_record_enabled_sets_and_signatures(self):
        policy = exhaustive()
        Simulator(DbState(items={"x": 0}), two_incrementers(), policy=policy).run()
        first = policy.frames[0]
        assert first.enabled == (0, 1)
        index, signature = first.tried[0]
        assert index == 0
        # the first step begins a transaction and reads x; two READ
        # COMMITTED incrementers cannot deadlock, so begin order is not an
        # access (only deadlock victim selection could observe it)
        assert signature == frozenset({(("item", "x"), False)})
