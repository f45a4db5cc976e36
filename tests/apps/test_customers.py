"""Integration tests: Example 1 (the cust array, conventional model)."""

import pytest

from repro.apps import customers
from repro.core import sdg
from repro.core.chooser import choose_level
from repro.core.conditions import READ_UNCOMMITTED, check_transaction_at
from repro.core.interference import InterferenceChecker
from repro.core.state import DbState


@pytest.fixture(scope="module")
def app():
    return customers.make_application()


@pytest.fixture(scope="module")
def checker(app):
    return InterferenceChecker(app.spec, budget=4000, seed=5)


class TestStaticAnalysis:
    def test_mailing_list_runs_at_read_uncommitted(self, app, checker):
        """Example 1's claim: the weak-spec scan is RU-safe."""
        choice = choose_level(app, "Mailing_List_c", checker)
        assert choice.level == READ_UNCOMMITTED

    def test_mailing_list_survives_new_order_rollback(self, app, checker):
        result = check_transaction_at(
            app, app.transaction("Mailing_List_c"), READ_UNCOMMITTED, checker
        )
        rollback_obs = [ob for ob in result.obligations if ob.mode == "rollback"]
        assert rollback_obs and all(ob.ok for ob in rollback_obs)

    def test_every_obligation_discharged_by_disjointness(self, app):
        local_checker = InterferenceChecker(app.spec, budget=4000, seed=5)
        result = check_transaction_at(
            app, app.transaction("Mailing_List_c"), READ_UNCOMMITTED, local_checker
        )
        assert result.ok
        # the weak spec has an empty database footprint: tier 1 decides
        # every obligation and none reaches the model checker
        assert result.obligations
        assert all(ob.verdict.method == "disjoint" for ob in result.obligations)
        assert local_checker.stats["disjoint"] > 0
        assert local_checker.stats["bmc"] == 0

    def test_sdg_prunes_what_disjointness_would_discharge(self, app):
        # the conflict graph certifies the scan at RU from footprints alone;
        # the checker must reach that verdict in tier 1 over the same sets
        graph = sdg.build_graph(app)
        assert sdg.statically_safe(graph, "Mailing_List_c", READ_UNCOMMITTED)
        local_checker = InterferenceChecker(app.spec, budget=4000, seed=5)
        result = check_transaction_at(
            app, app.transaction("Mailing_List_c"), READ_UNCOMMITTED, local_checker
        )
        assert result.ok
        assert local_checker.stats["disjoint"] > 0
        assert local_checker.stats["symbolic"] == 0
        assert local_checker.stats["bmc"] == 0


class TestModelSanity:
    def _initial(self):
        return DbState(
            arrays={
                "cust": {
                    0: {"valid": True, "name": "a"},
                    1: {"valid": False, "name": "b"},
                }
            }
        )

    def test_new_order_fills_free_slot(self):
        state = self._initial()
        customers.NEW_ORDER.run(state, {"slot": 1, "name": "b"})
        assert state.read_field("cust", 1, "valid") is True

    def test_new_order_skips_occupied_slot(self):
        state = self._initial()
        customers.NEW_ORDER.run(state, {"slot": 0, "name": "z"})
        assert state.read_field("cust", 0, "name") == "a"  # unchanged

    def test_mailing_list_scans_all_slots(self):
        from repro.core.terms import Local

        state = self._initial()
        env = customers.MAILING_LIST.run(state, {})
        assert env[Local("k")] == customers.SLOTS
