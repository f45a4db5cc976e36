"""Tests for exhaustive schedule exploration (source-set DPOR and plain DFS)."""

from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Item, Local
from repro.sched.explore import Explorer, explore
from repro.sched.simulator import InstanceSpec


def incrementer(item="x"):
    return TransactionType(
        name=f"Inc_{item}",
        body=(Read(Local("v"), Item(item)), Write(Item(item), Local("v") + 1)),
    )


def specs_for(items, level="READ COMMITTED"):
    return [
        InstanceSpec(incrementer(item), {}, level, f"T{i}")
        for i, item in enumerate(items)
    ]


def explore_schedules(initial, specs, **kwargs):
    """``explore``'s result and the completed schedules it streamed."""
    schedules = []
    return explore(initial, specs, on_schedule=schedules.append, **kwargs), schedules


def final_states(schedules):
    """The set of distinct outcomes reached — items plus commit census."""
    outcomes = set()
    for schedule in schedules:
        items = tuple(sorted(schedule.final.items.items()))
        committed = tuple(sorted(o.name for o in schedule.committed))
        outcomes.add((items, committed))
    return outcomes


class TestPruning:
    def test_pruned_visits_fewer_schedules_than_unpruned_dfs(self):
        """Acceptance: DPOR pruning measurably shrinks the DFS."""
        initial = DbState(items={"x": 0})
        specs = specs_for(["x", "x"])
        full, full_schedules = explore_schedules(initial.copy(), specs, pruning=False)
        pruned, pruned_schedules = explore_schedules(initial.copy(), specs, pruning=True)
        assert pruned.runs < full.runs
        assert pruned.schedules < full.schedules
        # pruning must not lose outcomes: every reachable final state of the
        # full tree is reached by the pruned one as well
        assert final_states(pruned_schedules) == final_states(full_schedules)

    def test_disjoint_instances_prune_heavily(self):
        initial = DbState(items={"x": 0, "y": 0})
        specs = specs_for(["x", "y"], level="SERIALIZABLE")
        full, full_schedules = explore_schedules(initial.copy(), specs, pruning=False)
        pruned, pruned_schedules = explore_schedules(initial.copy(), specs, pruning=True)
        assert pruned.runs < full.runs
        assert final_states(pruned_schedules) == final_states(full_schedules)

    def test_disjoint_instances_race_free_under_dpor(self):
        """Two instances on disjoint items have no races: one schedule."""
        initial = DbState(items={"x": 0, "y": 0})
        specs = specs_for(["x", "y"], level="SERIALIZABLE")
        _full, full_schedules = explore_schedules(initial.copy(), specs, pruning=False)
        optimal, optimal_schedules = explore_schedules(initial.copy(), specs)
        assert optimal.runs == 1
        assert optimal.reversals == 0
        assert final_states(optimal_schedules) == final_states(full_schedules)

    def test_lost_update_is_reached_at_read_committed(self):
        initial = DbState(items={"x": 0})
        _result, schedules = explore_schedules(initial, specs_for(["x", "x"]), pruning=True)
        finals = {items for items, _ in final_states(schedules)}
        assert (("x", 1),) in finals  # the lost update
        assert (("x", 2),) in finals  # the serial outcome

    def test_serializable_commits_never_lose_an_update(self):
        initial = DbState(items={"x": 0})
        specs = specs_for(["x", "x"], level="SERIALIZABLE")
        _result, schedules = explore_schedules(initial, specs, pruning=True, max_schedules=50)
        # an instance may still die to deadlock restarts — but whenever both
        # commit, the outcome must be the serial one
        both = {
            items
            for items, committed in final_states(schedules)
            if committed == ("T0", "T1")
        }
        assert both == {(("x", 2),)}


class TestBounds:
    def test_max_schedules_truncates(self):
        initial = DbState(items={"x": 0})
        result = explore(
            initial, specs_for(["x", "x"]), pruning=False, max_schedules=3
        )
        assert result.truncated
        assert result.runs <= 3

    def test_max_depth_counts_truncated_branches(self):
        initial = DbState(items={"x": 0})
        result = explore(initial, specs_for(["x", "x"]), pruning=False, max_depth=2)
        assert result.truncated_depth > 0
        assert result.schedules == 0

    def test_to_dict_shape(self):
        initial = DbState(items={"x": 0})
        payload = explore(initial, specs_for(["x", "x"])).to_dict()
        assert set(payload) == {
            "mode",
            "runs",
            "schedules",
            "pruned_sleep",
            "races",
            "reversals",
            "truncated_depth",
            "truncated",
        }

    def test_mode_reflects_pruning_configuration(self):
        initial = DbState(items={"x": 0})
        specs = specs_for(["x", "x"])
        assert explore(initial.copy(), specs).to_dict()["mode"] == "optimal"
        assert (
            explore(initial.copy(), specs, pruning=False).to_dict()["mode"] == "none"
        )

    def test_max_depth_zero_terminates_with_no_schedules(self):
        """Every run stops before its first decision; nothing completes."""
        initial = DbState(items={"x": 0})
        result = explore(
            initial, specs_for(["x", "x"]), pruning=False, max_depth=0
        )
        assert result.schedules == 0
        assert result.truncated_depth == result.runs > 0
        assert result.pruned_sleep == 0

    def test_max_schedules_one_runs_exactly_once(self):
        initial = DbState(items={"x": 0})
        result = explore(
            initial, specs_for(["x", "x"]), pruning=False, max_schedules=1
        )
        assert result.runs == 1
        assert result.truncated
        assert result.schedules <= 1

    def test_single_instance_yields_exactly_one_schedule(self):
        """One transaction has one interleaving — no pruning, no miscounts."""
        initial = DbState(items={"x": 0})
        for pruning in (False, True):
            result, schedules = explore_schedules(
                initial.copy(), specs_for(["x"]), pruning=pruning
            )
            assert result.schedules == 1
            assert result.runs == 1
            assert result.pruned_sleep == 0
            assert not result.truncated and result.truncated_depth == 0
            (finals,) = final_states(schedules)
            assert finals == ((("x", 1),), ("T0",))


class TestDeterminism:
    def test_district_mix_explores_each_trace_once(self):
        """Two explorations of one tree launch the same runs and find the
        same violations in the same order; the counts are pinned so that a
        change to the frontier discipline cannot make them drift unseen."""
        from repro.apps import tpcc
        from repro.pipeline.scenarios import scenarios_for
        from repro.sched.semantic import check_semantic_correctness

        app = tpcc.make_application()
        (scenario,) = [s for s in scenarios_for(app.name) if s.name == "district-mix"]
        levels = {spec.txn_type.name: "READ UNCOMMITTED" for spec in scenario.specs({})}

        def run():
            result, schedules = explore_schedules(scenario.initial(), scenario.specs(levels))
            violations = []
            for schedule in schedules:
                report = check_semantic_correctness(
                    schedule, scenario.invariant, scenario.cumulative
                )
                if not report.correct:
                    violations.append(report.summary())
            counts = (
                result.runs, result.schedules, result.pruned_sleep,
                result.races, result.reversals,
            )
            return counts, violations

        first, second = run(), run()
        assert first == second
        counts, violations = first
        assert counts == (747, 710, 37, 3903, 746)
        assert len(violations) == 422


class TestObservers:
    def test_replay_reproduces_every_explored_schedule(self):
        seen = []

        def observer(simulator, runtime):
            seen.append(runtime.spec.name)

        schedules = []
        explorer = Explorer(
            DbState(items={"x": 0}), specs_for(["x", "x"]), pruning=True,
            on_schedule=schedules.append,
        )
        explorer.run()
        assert schedules
        for schedule in schedules:
            seen.clear()
            replayed = explorer.replay(schedule, [observer])
            assert replayed.script == schedule.script
            assert replayed.final.items == schedule.final.items
            assert seen  # observers attached to a replay see its steps

    def test_on_schedule_callback_fires_per_completed_schedule(self):
        count = [0]
        initial = DbState(items={"x": 0})
        result = explore(
            initial,
            specs_for(["x", "x"]),
            pruning=True,
            on_schedule=lambda schedule: count.__setitem__(0, count[0] + 1),
        )
        assert count[0] == result.schedules

