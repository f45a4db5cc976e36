"""E8 — the paper's Section 7 future work: TPC-C at mixed isolation levels.

The paper closes by planning to run the TPC-C transactions "at a
combination of isolation levels to evaluate the performance".  This bench
does exactly that on TPC-C-lite: the analysis-derived mixed assignment
versus all-SERIALIZABLE (and the other uniform levels), under the standard
mix at moderate contention.  Expected shape: the mixed assignment clearly
out-throughputs all-SERIALIZABLE while staying semantically clean on the
application's counter invariant.
"""

import pytest

from benchmarks._report import emit
from repro.apps import tpcc
from repro.core.formula import AbstractPred
from repro.core.report import format_table
from repro.workloads.generator import WorkloadConfig, tpcc_workload
from repro.workloads.runner import compare_assignments

#: the level assignment the static analysis chooses (``repro analyze tpcc
#: --budget 24 --ladder extended``; see EXPERIMENTS.md E8).  OrderStatus's
#: READ UNCOMMITTED is proved: every obligation is decided by tiers 1-2.
#: Delivery needs SERIALIZABLE: at REPEATABLE READ a concurrent NewOrder's
#: INSERT of an undelivered order into the same district is a phantom that
#: falsifies Delivery's result (BMC witness: empty ORDERS, both d = 0).
MIXED = {
    "TPCC_NewOrder": "READ COMMITTED FCW",
    "TPCC_Payment": "READ COMMITTED FCW",
    "TPCC_OrderStatus": "READ UNCOMMITTED",
    "TPCC_Delivery": "SERIALIZABLE",
    "TPCC_StockLevel": "READ UNCOMMITTED",
}

ASSIGNMENTS = {
    "mixed (analysis)": MIXED,
    "all READ COMMITTED": {name: "READ COMMITTED" for name in MIXED},
    "all SNAPSHOT": {name: "SNAPSHOT" for name in MIXED},
    "all SERIALIZABLE": {name: "SERIALIZABLE" for name in MIXED},
}


def _counters_consistent(state, env) -> bool:
    """next_o_id bounds every order id of its district; stock >= 0."""
    for district in range(tpcc.DISTRICTS):
        bound = state.read_field("district", district, "next_o_id")
        for row in state.rows("ORDERS"):
            if row.get("d_id") == district and row.get("o_id") >= bound:
                return False
    for item in range(tpcc.ITEMS):
        if state.read_field("stock", item, "quantity") < 0:
            return False
    return True


INVARIANT = AbstractPred("tpcc counters consistent", evaluator=_counters_consistent)


def make_specs(assignment):
    return tpcc_workload(WorkloadConfig(size=10, hot_fraction=0.6, seed=11), levels=assignment)


@pytest.fixture(scope="module")
def comparison():
    return compare_assignments(
        make_specs,
        tpcc.initial_state(),
        ASSIGNMENTS,
        rounds=6,
        seed=13,
        invariant=INVARIANT,
    )


def test_bench_tpcc_mixed_levels(benchmark, comparison):
    def kernel():
        from repro.workloads.runner import run_workload

        return run_workload(
            tpcc.initial_state(), make_specs(MIXED), rounds=1, seed=13, invariant=INVARIANT
        )

    benchmark(kernel)
    rows = [
        (
            label,
            f"{metrics.throughput:.1f}",
            f"{metrics.wait_rate:.3f}",
            f"{metrics.abort_rate:.3f}",
            metrics.deadlocks,
            metrics.semantic_violations,
        )
        for label, metrics in comparison.items()
    ]
    emit(
        "E8-tpcc-mixed-levels",
        format_table(
            ("assignment", "throughput", "wait rate", "abort rate", "deadlocks", "violations"),
            rows,
        ),
    )


def test_mixed_beats_all_serializable(comparison):
    """The paper's anticipated result, in shape."""
    assert (
        comparison["mixed (analysis)"].throughput
        > comparison["all SERIALIZABLE"].throughput
    )


def test_mixed_assignment_is_clean(comparison):
    assert comparison["mixed (analysis)"].semantic_violations == 0


def test_all_serializable_is_clean(comparison):
    assert comparison["all SERIALIZABLE"].semantic_violations == 0


def test_everything_commits_under_mixed(comparison):
    metrics = comparison["mixed (analysis)"]
    assert metrics.aborted == 0 or metrics.abort_rate < 0.2


def test_mixed_is_the_analyzers_table():
    """MIXED is what the static analysis chooses, not a hand-picked table."""
    from repro.core.chooser import EXTENDED_LADDER, analyze_application
    from repro.core.interference import InterferenceChecker

    app = tpcc.make_application()
    report = analyze_application(
        app, InterferenceChecker(spec=app.spec, budget=24), EXTENDED_LADDER
    )
    assert {choice.transaction: choice.level for choice in report.choices} == MIXED
