"""E14 — prover-layer performance: hash-consing, persistence.

Four configurations of the same tpcc-lite analysis (extended ladder plus
snapshot isolation, BMC budget 24, one worker):

- ``baseline``    — hash-consing disabled; the closest in-tree stand-in
  for the pre-optimisation prover.
- ``cold``        — all layers on, every process-level cache empty.
- ``warm``        — a second run in the same process (verdict cache and
  prover memos intact).
- ``persist_warmed`` — every process-level cache wiped (prover memos,
  fingerprint cache, hash-consing tables) and the verdict cache reloaded
  from a persistent store flushed after the cold run, approximating a
  fresh process pointed at a warmed ``--cache-dir``.

All timings are CPU time (``time.process_time``): the benchmark machines
are small and wall clock is noisy, while the CPU ratio between configs is
stable.  The seed reference was measured the same way from a git worktree
at the pre-PR commit, so ``speedup_vs_seed`` compares like with like.

Emits ``BENCH_prover.json`` and the E14 text table.
"""

import time

import pytest

from benchmarks._report import emit, emit_json
from repro.apps import tpcc
from repro.core import terms
from repro.core.cache import VerdictCache, clear_fingerprint_cache
from repro.core.chooser import analyze_application
from repro.core.conditions import EXTENDED_LADDER
from repro.core.interference import InterferenceChecker
from repro.core.persist import PersistentStore
from repro.core.prover import clear_prover_caches, prover_cache_stats
from repro.core.report import format_table
from repro.core.terms import clear_hashcons_tables

BUDGET = 24

#: Pre-PR prover cost for this exact workload, recorded once so the bench
#: does not need to rebuild the old tree.  Measured with
#: ``time.process_time()`` around ``analyze_application`` on tpcc-lite
#: (extended ladder + snapshot, budget 24, serial) from a git worktree
#: at the last commit before the prover-core PR, on the same machine class
#: as the current numbers.
SEED_REFERENCE = {
    "cpu_s": 55.06,
    "wall_s": 46.85,
    "commit": "abe2034",
    "method": "process_time around analyze_application, tpcc-lite, "
    "extended ladder + snapshot, budget 24, workers=1",
}


def _reset_process_caches():
    clear_prover_caches()
    clear_fingerprint_cache()
    clear_hashcons_tables()


def _run(cache, hash_consing=True):
    saved = terms.HASH_CONSING
    terms.HASH_CONSING = hash_consing
    try:
        # the app is built under the flag so baseline terms are not interned
        app = tpcc.make_application()
        checker = InterferenceChecker(app.spec, budget=BUDGET, cache=cache)
        start = time.process_time()
        report = analyze_application(
            app, checker, ladder=EXTENDED_LADDER, include_snapshot=True
        )
        cpu_s = time.process_time() - start
    finally:
        terms.HASH_CONSING = saved
    return report.levels(), cpu_s, checker


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    results = {}

    _reset_process_caches()
    levels, cpu_s, _ = _run(VerdictCache(), hash_consing=False)
    results["baseline"] = {"levels": levels, "cpu_s": cpu_s}

    _reset_process_caches()
    cache = VerdictCache()
    levels, cpu_s, _ = _run(cache)
    results["cold"] = {"levels": levels, "cpu_s": cpu_s}
    results["cold"]["prover"] = prover_cache_stats()

    store_dir = tmp_path_factory.mktemp("verdicts")
    PersistentStore(store_dir).flush(cache)

    levels, cpu_s, _ = _run(cache)
    results["warm"] = {"levels": levels, "cpu_s": cpu_s}

    _reset_process_caches()
    warmed = VerdictCache()
    PersistentStore(store_dir).load(warmed)
    levels, cpu_s, _ = _run(warmed)
    results["persist_warmed"] = {
        "levels": levels,
        "cpu_s": cpu_s,
        "persist_hits": warmed.stats.persist_hits,
    }
    return results


def test_bench_prover(sweep):
    speedup = SEED_REFERENCE["cpu_s"] / max(sweep["cold"]["cpu_s"], 1e-9)
    rows = [
        (config, f"{data['cpu_s']:.2f}", f"{SEED_REFERENCE['cpu_s'] / max(data['cpu_s'], 1e-9):.1f}x")
        for config, data in sweep.items()
    ]
    rows.append(("seed (recorded)", f"{SEED_REFERENCE['cpu_s']:.2f}", "1.0x"))
    emit(
        "E14-prover-layers",
        format_table(("config", "cpu s", "vs seed"), rows)
        + f"\n\npersist-warmed run answered {sweep['persist_warmed']['persist_hits']}"
        " obligations from disk-loaded verdicts"
        + f"\nseed reference: commit {SEED_REFERENCE['commit']}, {SEED_REFERENCE['method']}",
    )
    emit_json(
        "BENCH_prover",
        {
            "config": {
                "app": "tpcc-lite",
                "budget": BUDGET,
                "ladder": "extended+snapshot",
                "timer": "process_time",
            },
            "seed_reference": SEED_REFERENCE,
            "results": {
                name: {k: v for k, v in data.items() if k != "levels"}
                for name, data in sweep.items()
            },
            "levels": sweep["cold"]["levels"],
            "speedup_vs_seed": round(speedup, 2),
        },
    )


def test_levels_byte_identical_across_configs(sweep):
    """Acceptance: no optimisation layer changes a level assignment."""
    expected = sweep["baseline"]["levels"]
    for config, data in sweep.items():
        assert data["levels"] == expected, config


def test_cold_run_beats_seed_by_5x(sweep):
    """Acceptance: ≥5x cold-run improvement from the in-process layers alone
    (no persistence involved in the cold config)."""
    speedup = SEED_REFERENCE["cpu_s"] / max(sweep["cold"]["cpu_s"], 1e-9)
    assert speedup >= 5.0, f"cold speedup only {speedup:.2f}x"


def test_persist_warmed_close_to_in_memory_warm(sweep):
    """Acceptance: a disk-warmed 'second process' lands within 10x of the
    in-memory warm run (it must redo fingerprints, but no prover work)."""
    assert sweep["persist_warmed"]["persist_hits"] > 0
    warm = sweep["warm"]["cpu_s"]
    persisted = sweep["persist_warmed"]["cpu_s"]
    assert persisted <= 10 * warm, f"persist {persisted:.2f}s vs warm {warm:.2f}s"


def test_cold_run_leaves_no_cube_open(sweep):
    """The integer solver decides every cube of the cold run."""
    prover_stats = sweep["cold"]["prover"]
    assert prover_stats["cubes_sat"] + prover_stats["cubes_unsat"] > 0
    assert prover_stats["cubes_open"] == 0
