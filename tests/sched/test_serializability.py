"""Serializability of simulated schedules, judged by the SERIALIZABLE axiom.

Each committed transaction's reads must be served by the state just
before its commit (:mod:`repro.sched.isolation`).  The lost update and the
write skew are the two dependency cycles the test must reject.
"""

from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Item, Local
from repro.sched.isolation import isolation_violations, schedule_violations
from repro.sched.simulator import InstanceSpec, Simulator


def ser_violations(result) -> list:
    return isolation_violations(result.initial, result.history, "SERIALIZABLE")


def incrementer(item):
    return TransactionType(
        name=f"Inc_{item}",
        body=(Read(Local("v"), Item(item)), Write(Item(item), Local("v") + 1)),
    )


class TestSerializable:
    def test_sequential_schedule_serializable(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"x": 0}), specs, script=[0, 0, 0, 1, 1, 1]).run()
        assert ser_violations(result) == []

    def test_disjoint_items_serializable(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer("y"), {}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"x": 0, "y": 0}), specs, script=[0, 1, 0, 1, 0, 1]).run()
        assert ser_violations(result) == []

    def test_serializable_levels_always_serializable(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "SERIALIZABLE", "A"),
            InstanceSpec(incrementer("x"), {}, "SERIALIZABLE", "B"),
        ]
        for seed in range(5):
            result = Simulator(DbState(items={"x": 0}), specs, seed=seed, retry=True).run()
            assert schedule_violations(result) == []


class TestNonSerializable:
    def test_lost_update_cycle_detected(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "B"),
        ]
        # both read before either writes: rw edges both ways
        result = Simulator(DbState(items={"x": 0}), specs, script=[0, 1, 0, 0, 1, 1]).run()
        (violation,) = ser_violations(result)
        # B read x=0, but A's commit left x=1 before B's
        assert "reads {x=0}" in violation and "holds {x=1}" in violation
        assert schedule_violations(result) == []  # READ COMMITTED admits it

    def test_write_skew_cycle_detected(self):
        from repro.apps import banking

        init = DbState(arrays={"acct_sav": {0: {"bal": 0}}, "acct_ch": {0: {"bal": 1}}})
        specs = [
            InstanceSpec(banking.WITHDRAW_SAV, {"i": 0, "w": 1}, "SNAPSHOT", "T1"),
            InstanceSpec(banking.WITHDRAW_CH, {"i": 0, "w": 1}, "SNAPSHOT", "T2"),
        ]
        result = Simulator(init, specs, script=[0, 0, 1, 1, 0, 1, 0, 1, 0, 1]).run()
        assert len(result.committed) == 2
        assert ser_violations(result)
        assert schedule_violations(result) == []  # SNAPSHOT admits it

    def test_aborted_transactions_excluded(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "A", abort_after=2),
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"x": 0}), specs, script=[0, 1, 0, 1, 1, 1]).run()
        # only B committed; a single transaction is trivially serializable
        assert [o.name for o in result.committed] == ["B"]
        assert ser_violations(result) == []

