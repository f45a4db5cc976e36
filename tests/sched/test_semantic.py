"""Unit tests for the dynamic semantic-correctness checker."""

import pytest

from repro.core.formula import conj, eq, ge
from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Item, Local, LogicalVar
from repro.pipeline.scenarios import scenarios_for
from repro.sched.explore import explore
from repro.sched import semantic
from repro.sched.semantic import (
    check_semantic_correctness,
    serial_replay_matches,
    validate_level,
)
from repro.sched.simulator import InstanceSpec, Simulator


def deposit(amount_name="d"):
    """A deposit with the paper-style cumulative result bal >= BAL0 + d."""
    from repro.core.terms import Param

    d = Param(amount_name)
    return TransactionType(
        name="Deposit",
        params=(d,),
        body=(Read(Local("B"), Item("bal")), Write(Item("bal"), Local("B") + d)),
        consistency=ge(Item("bal"), 0),
        param_pre=ge(d, 0),
        result=ge(Item("bal"), LogicalVar("B0") + d),
        snapshot=((LogicalVar("B0"), Item("bal")),),
    )


INVARIANT = ge(Item("bal"), 0)


class TestSemanticCheck:
    def test_serial_schedule_correct(self):
        specs = [
            InstanceSpec(deposit(), {"d": 3}, "READ COMMITTED", "A"),
            InstanceSpec(deposit(), {"d": 4}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"bal": 0}), specs, script=[0, 0, 0, 1, 1, 1]).run()
        report = check_semantic_correctness(result, INVARIANT)
        assert report.correct
        assert report.serial_equivalent

    def test_lost_update_flagged(self):
        specs = [
            InstanceSpec(deposit(), {"d": 3}, "READ COMMITTED", "A"),
            InstanceSpec(deposit(), {"d": 4}, "READ COMMITTED", "B"),
        ]
        # both read 0; B's deposit overwrites A's
        result = Simulator(DbState(items={"bal": 0}), specs, script=[0, 1, 0, 0, 1, 1]).run()
        report = check_semantic_correctness(result, INVARIANT)
        assert not report.correct
        assert any("Q_i" in v for v in report.result_violations)

    def test_invariant_violation_flagged(self):
        burn = TransactionType(
            name="Burn",
            body=(Write(Item("bal"), Local("z") - 1),),
        )
        # "z" unbound would fail; use a literal write instead
        from repro.core.terms import IntConst

        burn = TransactionType(
            name="Burn", body=(Write(Item("bal"), IntConst(-5)),)
        )
        result = Simulator(
            DbState(items={"bal": 0}), [InstanceSpec(burn, {}, "READ COMMITTED")]
        ).run()
        report = check_semantic_correctness(result, INVARIANT)
        assert not report.consistent
        assert "invariant violated" in report.summary()

    def test_violation_count_sums_all_clauses(self):
        from repro.sched.semantic import SemanticReport

        assert SemanticReport(consistent=True).violation_count == 0
        report = SemanticReport(
            consistent=False,
            result_violations=["a", "b"],
            cumulative_violations=["c"],
            serial_equivalent=False,  # informational, never counted
        )
        assert report.violation_count == 4

    def test_cumulative_hook_runs(self):
        def cumulative(initial, final, committed):
            expected = initial.read_item("bal") + sum(o.args["d"] for o in committed)
            if final.read_item("bal") != expected:
                return [f"balance {final.read_item('bal')} != sum {expected}"]
            return []

        specs = [
            InstanceSpec(deposit(), {"d": 3}, "READ COMMITTED", "A"),
            InstanceSpec(deposit(), {"d": 4}, "READ COMMITTED", "B"),
        ]
        good = Simulator(DbState(items={"bal": 0}), specs, script=[0, 0, 0, 1, 1, 1]).run()
        assert check_semantic_correctness(good, INVARIANT, cumulative).correct
        bad = Simulator(DbState(items={"bal": 0}), specs, script=[0, 1, 0, 0, 1, 1]).run()
        report = check_semantic_correctness(bad, INVARIANT, cumulative)
        assert report.cumulative_violations

    def test_q_checked_at_commit_time_not_final(self):
        # two sequential deposits: A's Q refers to its own start value and
        # must not be falsified by B's later deposit
        specs = [
            InstanceSpec(deposit(), {"d": 1}, "READ COMMITTED", "A"),
            InstanceSpec(deposit(), {"d": 2}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"bal": 0}), specs, script=[0, 0, 0, 1, 1, 1]).run()
        assert check_semantic_correctness(result, INVARIANT).correct


class TestSerialReplay:
    def test_matches_for_serial_run(self):
        specs = [
            InstanceSpec(deposit(), {"d": 2}, "READ COMMITTED", "A"),
            InstanceSpec(deposit(), {"d": 5}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"bal": 1}), specs, script=[0, 0, 0, 1, 1, 1]).run()
        assert serial_replay_matches(result)

    def test_detects_divergence(self):
        specs = [
            InstanceSpec(deposit(), {"d": 3}, "READ COMMITTED", "A"),
            InstanceSpec(deposit(), {"d": 4}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"bal": 0}), specs, script=[0, 1, 0, 0, 1, 1]).run()
        assert not serial_replay_matches(result)


class TestOneSerialReplay:
    """``serial_equivalent`` reuses the check's own replay when it ran whole."""

    @pytest.mark.parametrize("level", ["READ UNCOMMITTED", "SERIALIZABLE"])
    @pytest.mark.parametrize("app", ["banking", "tpcc-lite"])
    def test_agrees_with_a_fresh_replay_on_every_schedule(self, app, level):
        checked = 0
        for scenario in scenarios_for(app):

            def settle(schedule, scenario=scenario):
                nonlocal checked
                report = check_semantic_correctness(
                    schedule, scenario.invariant, scenario.cumulative
                )
                assert report.serial_equivalent == serial_replay_matches(schedule)
                checked += 1

            specs = scenario.specs({name: level for name in scenario.focus})
            explore(scenario.initial(), specs, on_schedule=settle)
        assert checked

    def test_falls_back_when_a_ghost_evaluation_fails(self, monkeypatch):
        # B0 snapshots an item the state lacks: the check's replay stops
        # before A runs, so serial_equivalent comes from a fresh replay
        ghostly = TransactionType(
            name="Ghostly",
            params=deposit().params,
            body=deposit().body,
            consistency=INVARIANT,
            result=ge(Item("bal"), 0),
            snapshot=((LogicalVar("B0"), Item("missing")),),
        )
        fresh_replays = []

        def counted(result):
            fresh_replays.append(result)
            return serial_replay_matches(result)

        monkeypatch.setattr(semantic, "serial_replay_matches", counted)
        for first in (ghostly, deposit()):
            specs = [
                InstanceSpec(first, {"d": 2}, "READ COMMITTED", "A"),
                InstanceSpec(deposit(), {"d": 5}, "READ COMMITTED", "B"),
            ]
            result = Simulator(DbState(items={"bal": 1}), specs, script=[0, 0, 0, 1, 1, 1]).run()
            report = check_semantic_correctness(result, INVARIANT)
            assert report.serial_equivalent == serial_replay_matches(result)
        assert report.serial_equivalent is True  # the deposit-only run
        assert len(fresh_replays) == 1  # only the ghostly run fell back


class TestValidateLevel:
    def test_zero_violations_at_serializable(self):
        specs = [
            InstanceSpec(deposit(), {"d": 2}, "SERIALIZABLE", "A"),
            InstanceSpec(deposit(), {"d": 5}, "SERIALIZABLE", "B"),
        ]
        tally = validate_level(DbState(items={"bal": 0}), specs, INVARIANT, rounds=20, seed=3)
        assert tally["violations"] == 0

    def test_violations_found_at_read_committed(self):
        specs = [
            InstanceSpec(deposit(), {"d": 2}, "READ COMMITTED", "A"),
            InstanceSpec(deposit(), {"d": 5}, "READ COMMITTED", "B"),
        ]
        tally = validate_level(
            DbState(items={"bal": 0}), specs, INVARIANT, rounds=30, seed=3, retry=False
        )
        assert tally["violations"] > 0
        assert tally["witnesses"]

    def test_fcw_repairs_lost_updates(self):
        specs = [
            InstanceSpec(deposit(), {"d": 2}, "READ COMMITTED FCW", "A"),
            InstanceSpec(deposit(), {"d": 5}, "READ COMMITTED FCW", "B"),
        ]
        tally = validate_level(DbState(items={"bal": 0}), specs, INVARIANT, rounds=20, seed=3)
        assert tally["violations"] == 0
