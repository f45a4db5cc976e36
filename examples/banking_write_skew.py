#!/usr/bin/env python3
"""Example 3 / Figure 1 end to end: write skew under SNAPSHOT isolation.

Walks the paper's banking example through every layer of the library:

1. the static Theorem 5 analysis flags exactly the Withdraw_sav /
   Withdraw_ch pair (disjoint write sets, interfering read-step posts);
2. a scripted schedule on the engine realises the anomaly: both
   withdrawals commit and the combined balance goes negative;
3. first-committer-wins saves two same-account withdrawals (one aborts);
4. a statistical sweep shows the violation frequency per isolation level.

Run:  python examples/banking_write_skew.py
"""

from repro import DbState, InstanceSpec, InterferenceChecker, Simulator, validate_level
from repro.apps import banking
from repro.core.conditions import SNAPSHOT, check_transaction_at
from repro.core.formula import ge
from repro.core.report import failure_details
from repro.core.terms import Field, IntConst
from repro.sched.anomalies import detect_write_skew
from repro.sched.semantic import check_semantic_correctness
from repro.sched.isolation import isolation_violations

INVARIANT = ge(
    Field("acct_sav", IntConst(0), "bal") + Field("acct_ch", IntConst(0), "bal"), 0
)


def static_analysis() -> None:
    print("== 1. static analysis: Theorem 5 (SNAPSHOT) ==")
    app = banking.make_application()
    checker = InterferenceChecker(app.spec, budget=4000, seed=1)
    for name in app.transaction_names():
        result = check_transaction_at(app, app.transaction(name), SNAPSHOT, checker)
        print(f"  {result.summary()}")
    print()
    result = check_transaction_at(
        app, app.transaction("Withdraw_sav"), SNAPSHOT, checker
    )
    print(failure_details(result, limit=2))
    print()


def scripted_write_skew() -> None:
    print("== 2. the write-skew schedule, live on the engine ==")
    initial = DbState(arrays={"acct_sav": {0: {"bal": 0}}, "acct_ch": {0: {"bal": 1}}})
    specs = [
        InstanceSpec(banking.WITHDRAW_SAV, {"i": 0, "w": 1}, "SNAPSHOT", "T1"),
        InstanceSpec(banking.WITHDRAW_CH, {"i": 0, "w": 1}, "SNAPSHOT", "T2"),
    ]
    # both take their snapshots and read, then both write, then both commit
    result = Simulator(initial, specs, script=[0, 0, 1, 1] + [0, 1] * 4).run()
    sav = result.final.read_field("acct_sav", 0, "bal")
    ch = result.final.read_field("acct_ch", 0, "bal")
    print(f"  committed: {[o.name for o in result.committed]}")
    print(f"  final balances: sav={sav} ch={ch}  (sum {sav + ch})")
    print(f"  semantic check:  {check_semantic_correctness(result, INVARIANT).summary()}")
    ser = isolation_violations(result.initial, result.history, "SERIALIZABLE")
    print(f"  serializable:    {not ser}")
    print(f"  anomaly:         {detect_write_skew(result)}")
    print()


def first_committer_wins() -> None:
    print("== 3. same account, same array: first-committer-wins ==")
    initial = DbState(arrays={"acct_sav": {0: {"bal": 2}}, "acct_ch": {0: {"bal": 0}}})
    specs = [
        InstanceSpec(banking.WITHDRAW_SAV, {"i": 0, "w": 1}, "SNAPSHOT", "T1"),
        InstanceSpec(banking.WITHDRAW_SAV, {"i": 0, "w": 2}, "SNAPSHOT", "T2"),
    ]
    result = Simulator(initial, specs, script=[0, 0, 1, 1] + [0, 1] * 4).run()
    print(f"  committed: {[o.name for o in result.committed]}")
    print(f"  aborted:   {[(o.name, o.abort_reasons) for o in result.aborted]}")
    print(f"  final sav: {result.final.read_field('acct_sav', 0, 'bal')}")
    print(f"  semantic check: {check_semantic_correctness(result, INVARIANT).summary()}")
    print()


def statistical_sweep() -> None:
    print("== 4. violation frequency per level (100 random schedules) ==")
    initial = DbState(arrays={"acct_sav": {0: {"bal": 0}}, "acct_ch": {0: {"bal": 1}}})
    for level in ("READ COMMITTED", "SNAPSHOT", "REPEATABLE READ", "SERIALIZABLE"):
        specs = [
            InstanceSpec(banking.WITHDRAW_SAV, {"i": 0, "w": 1}, level, "T1"),
            InstanceSpec(banking.WITHDRAW_CH, {"i": 0, "w": 1}, level, "T2"),
        ]
        tally = validate_level(initial, specs, INVARIANT, rounds=100, seed=7)
        print(f"  {level:18s}: {tally['violations']:3d}/100")
    print()
    print("SNAPSHOT admits the skew; REPEATABLE READ's long read locks and")
    print("SERIALIZABLE close it — exactly Theorem 5's verdict.")


def assertional_concurrency_control() -> None:
    print()
    print("== 5. closing the skew without locks: the assertional CC ==")
    from repro import AssertionGuard

    initial = DbState(arrays={"acct_sav": {0: {"bal": 0}}, "acct_ch": {0: {"bal": 1}}})
    violations = vetoes = 0
    for seed in range(40):
        specs = [
            InstanceSpec(banking.WITHDRAW_SAV, {"i": 0, "w": 1}, "SNAPSHOT", "T1"),
            InstanceSpec(banking.WITHDRAW_CH, {"i": 0, "w": 1}, "SNAPSHOT", "T2"),
        ]
        guard = AssertionGuard()
        sim = Simulator(initial.copy(), specs, seed=seed, retry=True, observers=[guard])
        result = sim.run()
        if not check_semantic_correctness(result, INVARIANT).correct:
            violations += 1
        vetoes += result.stats.get("guard_vetoes", 0)
    print(f"  SNAPSHOT + AssertionGuard: {violations}/40 violations, {vetoes} vetoes")
    print("  The run-time guard (the idea of the paper's reference [3])")
    print("  vetoes exactly the invalidating steps: semantic correctness")
    print("  without REPEATABLE READ's lock waits.")


if __name__ == "__main__":
    static_analysis()
    scripted_write_skew()
    first_committer_wins()
    statistical_sweep()
    assertional_concurrency_control()
