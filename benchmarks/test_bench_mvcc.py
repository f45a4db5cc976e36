"""E18 — MVCC storage: snapshot-begin cost and vacuum reclamation.

Two measurements:

* **snapshot-begin scaling** — the MVCC store begins a SNAPSHOT
  transaction by capturing ``(next_xid, in_flight)``, a constant-size
  token.  The acceptance bar is the *shape*: across a 64x growth in
  database size the begin cost must stay within a small constant factor
  (the bar is loose because CI timers are noisy).  The deep-copying
  pre-MVCC engine this replaced grew linearly, from 23 to 2,072 us over
  the same sizes (EXPERIMENTS.md E18).
* **vacuum reclamation** — sustained single-row churn with auto-vacuum
  holds the version count flat and reclaims one superseded version per
  commit, while a pinned long-running snapshot blocks reclamation until
  the reader exits.  These are exact counts, not timings.

Emits ``BENCH_mvcc.json`` for CI trend tracking.
"""

import time

import pytest

from benchmarks._report import emit, emit_json
from repro.core.report import format_table
from repro.core.state import DbState
from repro.engine.manager import Engine
from repro.engine.storage import STORAGE_STATS

SIZES = (64, 512, 4096)

BEGIN_ROUNDS = 200

CHURN_COMMITS = 300


def scaled_state(rows: int) -> DbState:
    """A tpcc-flavoured state with ``rows`` table rows and matching arrays."""
    return DbState(
        items={f"counter_{i}": i for i in range(8)},
        arrays={"acct": {i: {"bal": 100, "tier": i % 3} for i in range(rows // 4)}},
        tables={"stock": [{"sku": i, "qty": i % 50} for i in range(rows)]},
    )


def timed_begins(engine, rounds: int) -> float:
    """Mean microseconds per SNAPSHOT begin (the txns are never used)."""
    start = time.perf_counter()
    for _ in range(rounds):
        engine.begin("SNAPSHOT")
    return (time.perf_counter() - start) / rounds * 1e6


@pytest.fixture(scope="module")
def begin_costs():
    out = {}
    for rows in SIZES:
        mvcc = Engine(scaled_state(rows), vacuum="off")
        timed_begins(mvcc, 10)  # warmup
        out[rows] = {"mvcc_us": round(timed_begins(mvcc, BEGIN_ROUNDS), 2)}
    return out


def test_bench_snapshot_begin_is_flat(begin_costs):
    """MVCC begin cost must not scale with database size."""
    smallest, largest = SIZES[0], SIZES[-1]
    mvcc_growth = begin_costs[largest]["mvcc_us"] / begin_costs[smallest]["mvcc_us"]
    assert mvcc_growth < 8, f"MVCC snapshot begin scaled with size: {begin_costs}"


@pytest.fixture(scope="module")
def churn():
    """Single-row churn: auto-vacuum vs GC-off vs a pinned long reader."""
    out = {}

    engine = Engine(scaled_state(SIZES[0]), vacuum="auto")
    STORAGE_STATS.reset()
    for value in range(CHURN_COMMITS):
        txn = engine.begin("READ COMMITTED")
        engine.write_item(txn, "counter_0", value)
        engine.commit(txn)
    out["auto"] = {
        "versions_after": engine.store.version_count(),
        "reclaimed": STORAGE_STATS.vacuum_reclaimed,
        "vacuum_passes": STORAGE_STATS.vacuum_passes,
    }

    engine = Engine(scaled_state(SIZES[0]), vacuum="off")
    baseline = engine.store.version_count()
    for value in range(CHURN_COMMITS):
        txn = engine.begin("READ COMMITTED")
        engine.write_item(txn, "counter_0", value)
        engine.commit(txn)
    bloated = engine.store.version_count()
    out["off"] = {
        "versions_after": bloated,
        "bloat": bloated - baseline,
        "reclaimed_by_manual_pass": engine.run_vacuum(),
    }

    engine = Engine(scaled_state(SIZES[0]), vacuum="auto")
    reader = engine.begin("SNAPSHOT")
    engine.read_item(reader, "counter_0")
    baseline = engine.store.version_count()
    for value in range(CHURN_COMMITS):
        txn = engine.begin("READ COMMITTED")
        engine.write_item(txn, "counter_0", value)
        engine.commit(txn)
    pinned = engine.store.version_count()
    engine.commit(reader)  # horizon advances; trailing auto-vacuum reclaims
    out["pinned_reader"] = {
        "versions_while_pinned": pinned,
        "pinned_extra": pinned - baseline,
        "versions_after_reader_exit": engine.store.version_count(),
    }
    STORAGE_STATS.reset()
    return out


def test_bench_vacuum_reclaims_churn(churn):
    """Auto-vacuum keeps the hot chain at one live version; off hoards all."""
    assert churn["auto"]["reclaimed"] >= CHURN_COMMITS - 1
    assert churn["auto"]["vacuum_passes"] == CHURN_COMMITS
    assert churn["off"]["bloat"] == CHURN_COMMITS
    assert churn["off"]["reclaimed_by_manual_pass"] == CHURN_COMMITS
    assert churn["off"]["versions_after"] - churn["off"]["reclaimed_by_manual_pass"] == (
        churn["auto"]["versions_after"]
    )


def test_bench_pinned_reader_blocks_reclamation(churn):
    """A live snapshot pins one historical version plus the fresh head."""
    stats = churn["pinned_reader"]
    # the reader pins the begin-time version; churn only ever needs the
    # pinned version + the newest head, so the extra stays tiny and flat
    assert 1 <= stats["pinned_extra"] <= 2
    assert stats["versions_after_reader_exit"] < stats["versions_while_pinned"]


def test_bench_emit_report(begin_costs, churn):
    rows = [(str(size), f"{begin_costs[size]['mvcc_us']:.2f}") for size in SIZES]
    table = format_table(("rows", "mvcc begin (us)"), rows)
    extra = (
        f"churn={CHURN_COMMITS} commits: auto reclaimed "
        f"{churn['auto']['reclaimed']} over {churn['auto']['vacuum_passes']} passes; "
        f"off bloated by {churn['off']['bloat']}; pinned reader held "
        f"{churn['pinned_reader']['pinned_extra']} extra version(s)"
    )
    emit("BENCH_mvcc", f"{table}\n{extra}")
    emit_json(
        "BENCH_mvcc",
        {
            "config": {
                "sizes": list(SIZES),
                "begin_rounds": BEGIN_ROUNDS,
                "churn_commits": CHURN_COMMITS,
            },
            "snapshot_begin": {str(size): begin_costs[size] for size in SIZES},
            "vacuum": churn,
        },
    )
