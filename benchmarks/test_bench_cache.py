"""E8 — the verdict cache on the largest bundled application.

The engine's obligations are heavily shared: a tier-1/2 verdict depends
only on (assertion formula, source, statement, assumption), never on the
target transaction, so the same interference question recurs across
levels of the chooser ladder and across targets (docs/PERFORMANCE.md).
This bench runs the full extended-ladder analysis of tpcc-lite, plus
Theorem 5, twice:

* ``uncached`` — cache disabled, every obligation decided afresh;
* ``cached``   — an empty cache, filled as the run climbs the ladder.

and asserts that a single cold run already answers >= 30% of its
obligations from the cache, and that the cache is invisible to the
verdicts.
"""

import pytest

from repro.apps import tpcc
from repro.core.cache import VerdictCache
from repro.core.chooser import analyze_application
from repro.core.conditions import EXTENDED_LADDER
from repro.core.interference import InterferenceChecker
from repro.core.prover import clear_prover_caches

BUDGET = 24
SEED = 0


def _verdict_map(report):
    """Comparable digest of an application report: every obligation's fate."""
    digest = {}
    for choice in report.choices:
        for attempt in choice.attempts:
            for index, ob in enumerate(attempt.obligations):
                key = (choice.transaction, attempt.level, index)
                if ob.verdict is None:
                    digest[key] = ("excused", ob.excused)
                else:
                    digest[key] = (
                        ob.verdict.interferes,
                        ob.verdict.method,
                        ob.verdict.confidence,
                    )
    for check in report.snapshot_checks:
        digest[("SNAPSHOT", check.transaction, check.level)] = check.ok
    return digest


def _run(cache):
    app = tpcc.make_application()
    checker = InterferenceChecker(app.spec, budget=BUDGET, seed=SEED, cache=cache)
    report = analyze_application(
        app, checker, ladder=EXTENDED_LADDER, include_snapshot=True
    )
    return report, checker


@pytest.fixture(scope="module")
def runs():
    clear_prover_caches()
    uncached = _run(VerdictCache(enabled=False))
    clear_prover_caches()
    cached = _run(VerdictCache())
    return {"uncached": uncached, "cached": cached}


def test_cold_hit_rate_exceeds_30_percent(runs):
    """Sharing across levels and targets pays off within a single cold run."""
    _, checker = runs["cached"]
    hits = checker.stats["cache_hits"]
    misses = checker.stats["cache_misses"]
    assert hits / (hits + misses) >= 0.30


def test_verdicts_identical_with_and_without_cache(runs):
    """The cache is invisible to the analysis outcome."""
    uncached_report, _ = runs["uncached"]
    cached_report, _ = runs["cached"]
    assert _verdict_map(cached_report) == _verdict_map(uncached_report)
    assert cached_report.levels() == uncached_report.levels()
