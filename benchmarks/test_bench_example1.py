"""E4 — Example 1: the cust array in the conventional model.

The positive READ UNCOMMITTED example: the weak-spec Mailing_List's
critical assertions depend on no database resource, so every Theorem 1
obligation (including New_Order's rollback) discharges at the cheapest
tier and the chooser returns READ UNCOMMITTED.
"""

import pytest

from benchmarks._report import emit
from repro.apps import customers
from repro.core.chooser import analyze_application
from repro.core.conditions import READ_UNCOMMITTED
from repro.core.interference import InterferenceChecker
from repro.core.report import level_table


@pytest.fixture(scope="module")
def report():
    app = customers.make_application()
    checker = InterferenceChecker(app.spec, budget=4000, seed=5)
    result = analyze_application(app, checker)
    return result, checker.stats


def test_bench_example1_chooser(benchmark, report):
    app = customers.make_application()
    checker = InterferenceChecker(app.spec, budget=4000, seed=5)

    def kernel():
        return analyze_application(app, checker)

    benchmark(kernel)
    chooser_report, stats = report
    emit(
        "E4-example1-customers",
        level_table(chooser_report)
        + f"\n\ninterference-tier usage: {stats}",
    )


def test_mailing_list_at_read_uncommitted(report):
    chooser_report, _stats = report
    assert chooser_report.levels()["Mailing_List_c"] == READ_UNCOMMITTED


def test_discharged_without_model_checking(report):
    """The weak spec discharges by footprint disjointness alone.

    Only Mailing_List_c's obligations are meant: New_Order_c's own
    obligations at READ COMMITTED do reach the model checker.
    """
    chooser_report, stats = report
    (choice,) = [c for c in chooser_report.choices if c.transaction == "Mailing_List_c"]
    obligations = choice.chosen_check.obligations
    assert obligations
    assert all(ob.verdict.method == "disjoint" for ob in obligations)
    assert stats["disjoint"] > 0
