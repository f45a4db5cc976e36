"""Unit tests for report rendering."""

from repro.core.application import Application
from repro.core.chooser import analyze_application
from repro.core.conditions import READ_COMMITTED, READ_UNCOMMITTED, check_transaction_at
from repro.core.domains import DomainSpec, ItemDomain
from repro.core.formula import TRUE, AbstractPred, ge, le
from repro.core.interference import InterferenceChecker
from repro.core.program import Read, TransactionType, Write
from repro.core.prover import clear_prover_caches, is_satisfiable
from repro.core.report import (
    abstract_predicate_note,
    analysis_stats_table,
    failure_details,
    format_table,
    level_table,
    obligation_stats,
)
from repro.core.resources import ScalarResource
from repro.core.terms import Item, Local


def make_app():
    read = Read(Local("v"), Item("x"), post=le(Local("v"), Item("x")))
    reader = TransactionType(name="Reader", body=(read,), result=TRUE)
    bumper = TransactionType(
        name="Bumper",
        body=(Read(Local("b"), Item("x")), Write(Item("x"), Local("b") + 1)),
        consistency=ge(Item("x"), 0),
        result=ge(Item("x"), 0),
    )
    return Application(
        "rw", (reader, bumper), spec=DomainSpec(items=(ItemDomain("x", (0, 1, 2)),))
    )


class TestFormatTable:
    def test_columns_aligned(self):
        text = format_table(("a", "bbbb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_contains_all_cells(self):
        text = format_table(("h1", "h2"), [("x", "y")])
        assert "h1" in text and "x" in text and "y" in text


class TestLevelTable:
    def test_renders_choices(self):
        app = make_app()
        report = analyze_application(app, InterferenceChecker(app.spec))
        text = level_table(report)
        assert "Reader" in text and "Bumper" in text
        assert "lowest correct level" in text

    def test_shows_failure_evidence(self):
        app = make_app()
        report = analyze_application(app, InterferenceChecker(app.spec))
        text = level_table(report)
        # the reader failed RU, so the evidence column mentions it
        assert "failing at READ UNCOMMITTED" in text


class TestFailureDetails:
    def test_lists_failing_obligations(self):
        app = make_app()
        checker = InterferenceChecker(app.spec)
        result = check_transaction_at(app, app.transaction("Reader"), READ_UNCOMMITTED, checker)
        text = failure_details(result)
        assert "FAILS" in text
        assert "rollback" in text

    def test_limit_respected(self):
        app = make_app()
        checker = InterferenceChecker(app.spec)
        result = check_transaction_at(app, app.transaction("Reader"), READ_UNCOMMITTED, checker)
        text = failure_details(result, limit=0)
        assert "more failing obligations" in text or "FAILS" in text


class TestObligationStats:
    def test_counts_methods_and_confidences(self):
        app = make_app()
        checker = InterferenceChecker(app.spec)
        results = [
            check_transaction_at(app, app.transaction("Reader"), READ_UNCOMMITTED, checker),
            check_transaction_at(app, app.transaction("Reader"), READ_COMMITTED, checker),
        ]
        stats = obligation_stats(results)
        assert stats["levels"] == 2
        assert stats["obligations"] > 0
        assert sum(stats["by_method"].values()) <= stats["obligations"]


class TestAnalysisStatsTable:
    def test_integer_cubes_line_counts_the_pre_check(self):
        app = make_app()
        checker = InterferenceChecker(app.spec)
        clear_prover_caches()
        x, y = Item("x"), Item("y")
        # the root branches in two: {x <= 0, x >= 1} is pruned by its
        # intervals, and {y >= 2, y <= 3} is a SAT leaf
        is_satisfiable((le(x, 0) & ge(x, 1)) | (ge(y, 2) & le(y, 3)))
        line = next(
            line for line in analysis_stats_table(checker).splitlines()
            if line.startswith("integer cubes:")
        )
        assert line == (
            "integer cubes: 1 sat / 0 unsat / 0 undecided; search: 3 nodes,"
            " 1 pruned by bounds, 1 leaves, 0 congruence splits"
        )

    def test_tier2_decline_census_counts_every_bmc_obligation(self):
        app = make_app()
        checker = InterferenceChecker(app.spec, use_symbolic=False)
        analyze_application(app, checker)
        assert checker.stats["bmc"] > 0
        assert dict(checker.declined) == {"symbolic tier off": checker.stats["bmc"]}
        table = analysis_stats_table(checker)
        assert "tier 2 declined" in table and "symbolic tier off" in table


class TestAbstractPredicateNote:
    def test_names_the_assertions_only_bmc_decides(self):
        even = AbstractPred(
            "x is even",
            reads=frozenset({ScalarResource("x")}),
            evaluator=lambda state, env: state.read_item("x") % 2 == 0,
        )
        base = make_app()
        watcher = TransactionType(name="Watcher", body=(Read(Local("w"), Item("x")),), result=even)
        app = Application("rw-abstract", (watcher,) + base.transactions, spec=base.spec)
        report = analyze_application(app, InterferenceChecker(app.spec))
        note = abstract_predicate_note(report)
        assert note.startswith("decided by BMC only, by design")
        assert "Watcher Q_i <x is even>" in note
        assert abstract_predicate_note(analyze_application(base, InterferenceChecker(base.spec))) == ""
