"""Unit tests for the waits-for graph."""

import random

import pytest

from repro.engine.deadlock import WaitsForGraph


class TestWaitsForGraph:
    def test_no_cycle_initially(self):
        graph = WaitsForGraph()
        assert graph.find_cycle() is None

    def test_simple_cycle_detected(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {1})
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2}

    def test_three_way_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {3})
        graph.add_waits(3, {1})
        assert set(graph.find_cycle()) == {1, 2, 3}

    def test_chain_is_not_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {3})
        assert graph.find_cycle() is None

    def test_self_wait_ignored(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {1})
        assert graph.find_cycle() is None

    def test_victim_is_youngest(self):
        graph = WaitsForGraph()
        assert graph.pick_victim([3, 1, 7]) == 7

    def test_clear_waits_breaks_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {1})
        graph.clear_waits(1)
        assert graph.find_cycle() is None

    def test_remove_node(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2})
        graph.add_waits(2, {1})
        graph.remove(2)
        assert graph.find_cycle() is None
        assert graph.blockers_of(1) == set()

    def test_blockers_of(self):
        graph = WaitsForGraph()
        graph.add_waits(1, {2, 3})
        assert graph.blockers_of(1) == {2, 3}
        assert graph.blockers_of(9) == set()


def _nx_cycle(nx, graph):
    try:
        return [edge[0] for edge in nx.find_cycle(graph)]
    except nx.NetworkXNoCycle:
        return None


@pytest.mark.parametrize("seed", range(4))
def test_cycles_and_victims_match_networkx(seed):
    """The dict graph finds the cycle networkx finds, step by step, through
    random waits, cleared waits and removed transactions."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    ids = range(1, 8)
    for _trial in range(60):
        graph, reference = WaitsForGraph(), nx.DiGraph()
        for _step in range(rng.randint(1, 20)):
            roll = rng.random()
            waiter = rng.choice(ids)
            if roll < 0.65:
                blockers = rng.sample(ids, rng.randint(1, 3))
                graph.add_waits(waiter, blockers)
                reference.add_edges_from((waiter, b) for b in blockers if b != waiter)
            elif roll < 0.85:
                graph.clear_waits(waiter)
                if reference.has_node(waiter):
                    reference.remove_edges_from(list(reference.out_edges(waiter)))
            else:
                graph.remove(waiter)
                if reference.has_node(waiter):
                    reference.remove_node(waiter)
            expected = _nx_cycle(nx, reference)
            assert graph.find_cycle() == expected
            if expected is not None:
                assert graph.pick_victim(graph.find_cycle()) == max(expected)
            for txn in ids:
                expected_blockers = (
                    set(reference.successors(txn)) if reference.has_node(txn) else set()
                )
                assert graph.blockers_of(txn) == expected_blockers
