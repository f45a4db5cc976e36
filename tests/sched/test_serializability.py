"""Unit tests for the conflict-serializability checker."""

import random

import pytest

from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Item, Local
from repro.engine.deadlock import find_cycle
from repro.sched.serializability import _topological_order, check_conflict_serializability
from repro.sched.simulator import InstanceSpec, Simulator


def incrementer(item):
    return TransactionType(
        name=f"Inc_{item}",
        body=(Read(Local("v"), Item(item)), Write(Item(item), Local("v") + 1)),
    )


def reader_two(items):
    body = tuple(Read(Local(f"v{i}"), Item(item)) for i, item in enumerate(items))
    return TransactionType(name="Reader", body=body)


class TestSerializable:
    def test_sequential_schedule_serializable(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"x": 0}), specs, script=[0, 0, 0, 1, 1, 1]).run()
        report = check_conflict_serializability(result)
        assert report.serializable
        assert report.serial_order is not None

    def test_disjoint_items_serializable(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer("y"), {}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"x": 0, "y": 0}), specs, script=[0, 1, 0, 1, 0, 1]).run()
        assert check_conflict_serializability(result).serializable

    def test_serializable_levels_always_serializable(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "SERIALIZABLE", "A"),
            InstanceSpec(incrementer("x"), {}, "SERIALIZABLE", "B"),
        ]
        for seed in range(5):
            result = Simulator(DbState(items={"x": 0}), specs, seed=seed, retry=True).run()
            assert check_conflict_serializability(result).serializable


class TestNonSerializable:
    def test_lost_update_cycle_detected(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "A"),
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "B"),
        ]
        # both read before either writes: rw edges both ways
        result = Simulator(DbState(items={"x": 0}), specs, script=[0, 1, 0, 0, 1, 1]).run()
        report = check_conflict_serializability(result)
        assert not report.serializable
        assert report.cycle is not None

    def test_write_skew_cycle_detected(self):
        from repro.apps import banking

        init = DbState(arrays={"acct_sav": {0: {"bal": 0}}, "acct_ch": {0: {"bal": 1}}})
        specs = [
            InstanceSpec(banking.WITHDRAW_SAV, {"i": 0, "w": 1}, "SNAPSHOT", "T1"),
            InstanceSpec(banking.WITHDRAW_CH, {"i": 0, "w": 1}, "SNAPSHOT", "T2"),
        ]
        result = Simulator(init, specs, script=[0, 0, 1, 1, 0, 1, 0, 1, 0, 1]).run()
        report = check_conflict_serializability(result)
        assert not report.serializable

    def test_aborted_transactions_excluded(self):
        specs = [
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "A", abort_after=2),
            InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "B"),
        ]
        result = Simulator(DbState(items={"x": 0}), specs, script=[0, 1, 0, 1, 1, 1]).run()
        report = check_conflict_serializability(result)
        # only B committed; a single transaction is trivially serializable
        assert report.serializable


def test_cycle_and_serial_order_match_networkx():
    """Random precedence graphs: the same cycle, or the same Kahn order."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for _trial in range(300):
        nodes = rng.sample(range(10), rng.randint(1, 7))
        graph = {node: {} for node in nodes}
        reference = nx.DiGraph()
        reference.add_nodes_from(nodes)
        for _edge in range(rng.randint(0, 10)):
            a, b = rng.choice(nodes), rng.choice(nodes)
            if a != b:
                graph[a][b] = None
                reference.add_edge(a, b)
        try:
            expected = [edge[0] for edge in nx.find_cycle(reference)]
        except nx.NetworkXNoCycle:
            expected = None
        assert find_cycle(graph) == expected
        if expected is None:
            assert _topological_order(graph) == list(nx.topological_sort(reference))
