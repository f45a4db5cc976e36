"""Known answers every workload's outputs are checked against.

Sources (see ``NOTES.md`` for the full argument):

* level tables of banking, customers, employees and orders: the paper's
  tables as reproduced in ``EXPERIMENTS.md`` E2-E5 (banking's ANSI-ladder
  table also in ``README.md``); tpcc at ``--budget 24 --ladder extended
  --snapshot``: pinned from the program at the commit that added this
  benchmark, *not* reconciled with ``MIXED`` in
  ``benchmarks/test_bench_tpcc.py`` (which differs on two types);
* the Berenson et al. anomaly matrix of ``EXPERIMENTS.md`` E7, with each
  registered scenario mapped to the phenomena it exhibits;
* the fuzz corpus: no UNSOUND case, and the ledger's canonical bytes
  pinned (their SHA-256) from the same commit.
"""

from __future__ import annotations

RU = "READ UNCOMMITTED"
RC = "READ COMMITTED"
RC_FCW = "READ COMMITTED FCW"
SI = "SNAPSHOT"
RR = "REPEATABLE READ"
SER = "SERIALIZABLE"

#: The six levels of E7, weakest first.
LEVELS = (RU, RC, RC_FCW, SI, RR, SER)

LEVEL_TABLES = {
    # E2 / README: both withdrawals fail RC (lost update) and SNAPSHOT
    # (write skew); deposits race each other's read-modify-write at RC.
    "banking": {
        "Withdraw_sav": RR,
        "Withdraw_ch": RR,
        "Deposit_sav": RR,
        "Deposit_ch": RR,
    },
    # E4: Example 1, the weak-spec mailing list runs at RU.
    "customers": {"Mailing_List_c": RU, "New_Order_c": RR},
    # E5: Example 2, Print_Record fails RU and passes RC.
    "employees": {"Hours": RU, "Print_Record": RC},
    # E3: Figures 2-5, the no-gaps variant.
    "orders": {"Mailing_List": RU, "New_Order": RC, "Delivery": RR, "Audit": SER},
    # Pinned from the program (budget 24, extended ladder, with SNAPSHOT).
    "tpcc": {
        "TPCC_NewOrder": RC_FCW,
        "TPCC_Payment": RC_FCW,
        "TPCC_OrderStatus": RU,
        "TPCC_Delivery": SER,
        "TPCC_StockLevel": RU,
    },
}

#: E7: the levels at which each phenomenon is observed (the ✗ cells).
BERENSON = {
    "P1 dirty read": {RU},
    "P4 lost update": {RU, RC},
    "P2 fuzzy read": {RU, RC, RC_FCW},
    "P3 phantom": {RU, RC, RC_FCW, RR},
    "A5B write skew": {RU, RC, RC_FCW, SI},
}

#: The phenomena each registered scenario exhibits.  A (scenario, level)
#: cell must show violations exactly when one of them is admitted there.
SCENARIO_PHENOMENA = {
    ("banking", "withdraw-race"): ("P4 lost update",),
    ("banking", "write-skew"): ("A5B write skew",),
    ("banking", "withdraw-race-3"): ("P4 lost update",),
    ("banking", "deposit-race"): ("P4 lost update",),
    ("banking", "deposit-vs-withdraw"): ("P4 lost update",),
    ("tpcc-lite", "new-order-race"): ("P4 lost update",),
    ("tpcc-lite", "payment-race"): ("P4 lost update",),
    ("tpcc-lite", "district-mix"): ("P4 lost update",),
    ("tpcc-lite", "delivery-vs-new-order"): ("P3 phantom", "A5B write skew"),
    ("mvcc-stress", "long-reader"): ("P2 fuzzy read",),
    ("mvcc-stress", "version-bloat"): ("P4 lost update",),
}


def expects_violations(app: str, scenario: str, level: str) -> bool:
    phenomena = SCENARIO_PHENOMENA[(app, scenario)]
    return any(level in BERENSON[name] for name in phenomena)


#: Appgen seeds of the fuzz corpus and the SHA-256 of its ledger's
#: canonical bytes (default generator and probe knobs).
FUZZ_SEEDS = range(0, 12)
FUZZ_LEDGER_SHA256 = "dc29c546c0ca8dfadc6f3a2d04cf5bed9d1287595512dde7bf055125d3ceedf8"
