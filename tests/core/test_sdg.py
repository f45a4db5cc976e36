"""Unit tests for the static conflict graph (repro.core.sdg)."""

import pytest

from repro.apps import banking, customers, employees, registry
from repro.core import sdg
from repro.core.cache import VerdictCache
from repro.core.chooser import analyze_application
from repro.core.conditions import (
    ANSI_LADDER,
    EXTENDED_LADDER,
    READ_COMMITTED,
    READ_UNCOMMITTED,
    REPEATABLE_READ,
    SERIALIZABLE,
    SNAPSHOT,
)
from repro.core.interference import InterferenceChecker
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def banking_graph():
    return sdg.build_graph(banking.make_application())


class TestFootprints:
    def test_withdraw_sav_reads_both_balances_writes_one(self, banking_graph):
        fp = banking_graph.footprint("Withdraw_sav")
        read_names = {repr(r) for r in fp.reads}
        assert any("acct_sav" in name for name in read_names)
        assert any("acct_ch" in name for name in read_names)
        assert all("acct_sav" in repr(r) for r in fp.writes)

    def test_assert_surface_covers_consistency(self, banking_graph):
        # TOTAL >= 0 mentions both balances, so the assert surface does too
        fp = banking_graph.footprint("Withdraw_sav")
        assert any("acct_sav" in repr(r) for r in fp.asserts)
        assert any("acct_ch" in repr(r) for r in fp.asserts)

    def test_unknown_type_raises(self, banking_graph):
        with pytest.raises(AnalysisError):
            banking_graph.footprint("Nope")


class TestEdges:
    def test_self_pairs_present(self, banking_graph):
        # two Withdraw_sav instances conflict on the savings balance
        assert banking_graph.edges_between("Withdraw_sav", "Withdraw_sav", sdg.WW)
        assert banking_graph.edges_between("Withdraw_sav", "Withdraw_sav", sdg.RW)

    def test_rw_antidependency_pair(self, banking_graph):
        # the write-skew pair: each reads what the other writes
        assert banking_graph.edges_between("Withdraw_sav", "Withdraw_ch", sdg.RW)
        assert banking_graph.edges_between("Withdraw_ch", "Withdraw_sav", sdg.RW)

    def test_no_ww_between_skew_pair(self, banking_graph):
        # disjoint write sets (sav vs ch) — the write-skew precondition
        assert not banking_graph.edges_between("Withdraw_sav", "Withdraw_ch", sdg.WW)

    def test_edges_into(self, banking_graph):
        incoming = banking_graph.edges_into("Withdraw_sav", sdg.WW)
        assert {edge.source for edge in incoming} == {"Withdraw_sav", "Deposit_sav"}

    def test_read_only_type_has_no_outgoing_ww(self):
        graph = sdg.build_graph(customers.make_application())
        assert not [e for e in graph.edges if e.source == "Mailing_List_c" and e.kind != sdg.RW]

    def test_to_dict_round_trips_shapes(self, banking_graph):
        payload = banking_graph.to_dict()
        assert set(payload["nodes"]) == set(banking_graph.nodes)
        assert all(
            {"source", "target", "kind", "resources"} <= set(edge)
            for edge in payload["edges"]
        )


class TestDangerousStructures:
    def test_banking_write_skew_detected(self, banking_graph):
        structures = sdg.dangerous_structures(banking_graph)
        skews = {s.transactions for s in structures if s.kind == sdg.WRITE_SKEW}
        assert ("Withdraw_ch", "Withdraw_sav") in skews

    def test_write_skew_flagged_at_snapshot(self, banking_graph):
        for structure in sdg.dangerous_structures(banking_graph):
            if structure.kind == sdg.WRITE_SKEW:
                assert structure.level == SNAPSHOT

    def test_lost_update_on_read_modify_write_self_pair(self):
        graph = sdg.build_graph(employees.make_application())
        structures = sdg.dangerous_structures(graph)
        lost = [s for s in structures if s.kind == sdg.LOST_UPDATE]
        assert any(s.transactions == ("Hours",) for s in lost)

    def test_no_write_skew_without_cross_reads(self):
        graph = sdg.build_graph(employees.make_application())
        assert not [
            s for s in sdg.dangerous_structures(graph) if s.kind == sdg.WRITE_SKEW
        ]

    def test_deduplicated_per_pair(self, banking_graph):
        structures = sdg.dangerous_structures(banking_graph)
        keys = [(s.kind, s.transactions) for s in structures]
        assert len(keys) == len(set(keys))


class TestStaticallySafe:
    def test_serializable_always_safe(self, banking_graph):
        for name in banking_graph.nodes:
            assert sdg.statically_safe(banking_graph, name, SERIALIZABLE)

    def test_conventional_repeatable_read_safe(self, banking_graph):
        for name in banking_graph.nodes:
            assert sdg.statically_safe(banking_graph, name, REPEATABLE_READ)

    def test_written_asserts_not_safe_below_rr(self, banking_graph):
        assert not sdg.statically_safe(banking_graph, "Withdraw_sav", READ_COMMITTED)
        assert not sdg.statically_safe(banking_graph, "Withdraw_sav", READ_UNCOMMITTED)

    def test_empty_footprint_safe_everywhere(self):
        graph = sdg.build_graph(customers.make_application())
        assert sdg.safe_levels(graph, "Mailing_List_c", EXTENDED_LADDER) == list(
            EXTENDED_LADDER
        )

    def test_unknown_level_raises(self, banking_graph):
        with pytest.raises(AnalysisError):
            sdg.statically_safe(banking_graph, "Withdraw_sav", "CHAOS")

    def test_safety_is_sound_against_the_chooser(self):
        """SDG-safe at L implies the prover-backed chooser picks <= L."""
        from repro.core.conditions import LEVEL_ORDER

        for name in ("banking", "customers", "employees"):
            app = registry()[name]()
            graph = sdg.build_graph(app)
            checker = InterferenceChecker(
                app.spec, budget=200, cache=VerdictCache(enabled=False)
            )
            levels = analyze_application(app, checker).levels()
            for txn in graph.nodes:
                safe = sdg.safe_levels(graph, txn, ANSI_LADDER)
                if safe:
                    assert LEVEL_ORDER[levels[txn]] <= LEVEL_ORDER[safe[0]], (
                        name, txn, levels[txn], safe,
                    )
