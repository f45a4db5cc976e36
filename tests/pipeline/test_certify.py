"""Tests for the cross-layer certification pipeline.

``certify`` is expensive (it runs the full static chooser plus dozens of
exhaustive explorations), so the banking certificate is computed once per
module and shared by every assertion that reads it.
"""

import json

import pytest

from repro.core.conditions import ANSI_LADDER
from repro.pipeline.certify import certify, classify, level_below, run_probe
from repro.pipeline.context import RunContext
from repro.pipeline.scenarios import scenarios_for
from repro.sched.histories import replay


@pytest.fixture(scope="module")
def banking_report():
    return certify("banking", context=RunContext(seed=0))


class TestClassify:
    def test_violation_at_chosen_level_is_a_counterexample(self):
        assert classify(1, "READ COMMITTED", 5) == "counterexample"

    def test_clean_chosen_with_violating_below_agrees(self):
        assert classify(0, "READ COMMITTED", 3) == "agree"

    def test_bottom_of_ladder_agrees_vacuously(self):
        assert classify(0, None, 0) == "agree"

    def test_clean_below_means_static_was_too_conservative(self):
        assert classify(0, "READ COMMITTED", 0) == "static-too-conservative"


class TestLevelBelow:
    def test_walks_down_the_ansi_ladder(self):
        assert level_below("SERIALIZABLE", ANSI_LADDER) == "REPEATABLE READ"
        assert level_below("REPEATABLE READ", ANSI_LADDER) == "READ COMMITTED"
        assert level_below("READ COMMITTED", ANSI_LADDER) == "READ UNCOMMITTED"

    def test_bottom_has_nothing_below(self):
        assert level_below("READ UNCOMMITTED", ANSI_LADDER) is None

    def test_unknown_level_has_nothing_below(self):
        assert level_below("CURSOR STABILITY", ANSI_LADDER) is None


class TestScenarios:
    def test_banking_has_scenarios_for_every_type(self):
        scenarios = scenarios_for("banking")
        focused = {name for scenario in scenarios for name in scenario.focus}
        assert focused == {"Withdraw_sav", "Withdraw_ch", "Deposit_sav", "Deposit_ch"}

    def test_unknown_app_has_none(self):
        assert scenarios_for("no-such-app") == []

    def test_specs_honour_level_assignment(self):
        scenario = scenarios_for("banking")[0]
        specs = scenario.specs({name: "SNAPSHOT" for name in scenario.focus})
        assert all(spec.level == "SNAPSHOT" for spec in specs)


class TestRunProbe:
    def test_withdraw_race_violates_at_read_committed(self):
        scenario = next(
            s for s in scenarios_for("banking") if s.name == "withdraw-race"
        )
        levels = {name: "READ COMMITTED" for name in scenario.focus}
        probe = run_probe(scenario, levels, RunContext(seed=0))
        assert probe.violations > 0
        assert probe.witnesses, "violating schedules must yield witnesses"
        witness = probe.witnesses[0]
        assert witness.history is not None
        assert "repro replay" in witness.replay_command()

    def test_withdraw_race_is_clean_at_repeatable_read(self):
        scenario = next(
            s for s in scenarios_for("banking") if s.name == "withdraw-race"
        )
        levels = {name: "REPEATABLE READ" for name in scenario.focus}
        probe = run_probe(scenario, levels, RunContext(seed=0))
        assert probe.violations == 0
        assert probe.schedules > 0


class TestBankingCertificate:
    def test_static_and_dynamic_agree_for_every_type(self, banking_report):
        """Acceptance: a verdict for each banking type, no counterexamples."""
        verdicts = {v.transaction: v.verdict for v in banking_report.verdicts}
        assert set(verdicts) == {
            "Withdraw_sav",
            "Withdraw_ch",
            "Deposit_sav",
            "Deposit_ch",
        }
        assert "counterexample" not in verdicts.values()
        assert banking_report.agreement

    def test_withdraws_agree_deposit_ch_is_conservative(self, banking_report):
        verdicts = {v.transaction: v.verdict for v in banking_report.verdicts}
        assert verdicts["Withdraw_sav"] == "agree"
        assert verdicts["Withdraw_ch"] == "agree"

    def test_static_chooses_repeatable_read_everywhere(self, banking_report):
        for verdict in banking_report.verdicts:
            assert verdict.static_level == "REPEATABLE READ"
            assert verdict.below_level == "READ COMMITTED"

    def test_rc_lost_update_witness_is_replayable(self, banking_report):
        """Acceptance: the RC lost update replays from its history string."""
        verdict = banking_report.verdict_for("Withdraw_sav")
        assert verdict.below_violations > 0
        witnesses = [w for w in verdict.witnesses() if w.history is not None]
        assert witnesses
        witness = witnesses[0]
        scenario = next(
            s for s in scenarios_for("banking") if s.name == witness.scenario
        )
        result = replay(witness.history, witness.levels, initial=scenario.initial())
        assert result.executed_fully
        # sav starts at 2 and two withdrawals of 1 race: serially the balance
        # reaches 0, the lost update leaves 1 behind
        assert result.final.arrays["acct_sav"][0]["bal"] == 1

    def test_render_mentions_every_verdict(self, banking_report):
        text = banking_report.render()
        for verdict in banking_report.verdicts:
            assert verdict.transaction in text
        assert "repro replay" in text

    def test_report_round_trips_through_json(self, banking_report):
        payload = json.loads(json.dumps(banking_report.to_dict()))
        assert payload["application"] == "banking"
        assert payload["agreement"] is banking_report.agreement
        assert {v["transaction"] for v in payload["verdicts"]} == {
            v.transaction for v in banking_report.verdicts
        }
        assert "static" in payload and "stats" in payload and "sdg" in payload


class TestSdgLayer:
    def test_no_sdg_vs_prover_disagreement(self, banking_report):
        """Acceptance: the SDG never undercuts the prover-backed chooser."""
        assert banking_report.sdg["disagreements"] == []
        assert banking_report.agreement

    def test_sdg_safe_levels_match_the_chooser(self, banking_report):
        # banking is conventional: every type is SDG-safe from REPEATABLE
        # READ, exactly where the chooser lands
        for entry in banking_report.sdg["types"]:
            assert entry["safe_level"] == "REPEATABLE READ"

    def test_write_skew_structure_is_corroborated(self, banking_report):
        structures = banking_report.sdg["structures"]
        skew = [s for s in structures if s["kind"] == "snapshot-write-skew"]
        assert any(
            s["transactions"] == ["Withdraw_ch", "Withdraw_sav"] for s in skew
        )
        # the below-level probes exhibit the matching Berenson phenomena
        corroborated = [s for s in structures if s["corroborated"]]
        assert corroborated
        assert all(s["phenomenon"] for s in structures)

    def test_probes_carry_anomaly_counts(self, banking_report):
        counts = {}
        for verdict in banking_report.verdicts:
            for probe in verdict.chosen_probes + verdict.below_probes:
                for name, count in probe.anomalies.items():
                    counts[name] = counts.get(name, 0) + count
        assert counts.get("P4-lost-update", 0) > 0

    def test_render_includes_sdg_section(self, banking_report):
        text = banking_report.render()
        assert "static conflict graph (SDG)" in text
        assert "SDG-safe from" in text

    def test_disagreement_breaks_agreement(self, banking_report):
        import dataclasses

        tampered = dataclasses.replace(banking_report)
        tampered.sdg = dict(banking_report.sdg)
        tampered.sdg["disagreements"] = [
            {"transaction": "X", "detail": "synthetic"}
        ]
        assert not tampered.agreement
        assert "DISAGREEMENT" in tampered.render()
