"""Soundness of the verdict cache and fingerprints.

The cache is only sound if (a) structurally equal analysis objects get
equal fingerprints while different ones don't, and (b) a warm run returns
verdicts identical to a cold run on every application.
"""

import pytest

from repro.apps import banking, orders, tpcc
from repro.core.cache import (
    FORMULA_SCOPE,
    FULL_SCOPE,
    VerdictCache,
    clear_fingerprint_cache,
    fingerprint,
    fingerprint_many,
    reset_shared_cache,
    shared_cache,
)
from repro.core.chooser import analyze_application
from repro.core.conditions import EXTENDED_LADDER, READ_COMMITTED, check_transaction_at
from repro.core.formula import TRUE, conj, eq, ge
from repro.core.interference import InterferenceChecker
from repro.core.program import Read, TransactionType, Write
from repro.core.prover import clear_prover_caches, prover_cache_stats, simplify
from repro.core.terms import IntConst, Item, Local


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_equal_structures_collide(self):
        a = conj(ge(Item("x"), 0), eq(Item("y"), IntConst(1)))
        b = conj(ge(Item("x"), 0), eq(Item("y"), IntConst(1)))
        # hash-consing interns structurally equal formulas into one node...
        assert a is b
        assert fingerprint(a) == fingerprint(b)
        # ...but fingerprints must collide even for distinct equal objects
        # (e.g. nodes unpickled from a process worker bypass interning)
        import pickle

        c = pickle.loads(pickle.dumps(a))
        assert c is not a and c == a
        assert fingerprint(c) == fingerprint(a)

    def test_different_structures_do_not_collide(self):
        assert fingerprint(ge(Item("x"), 0)) != fingerprint(ge(Item("x"), 1))
        assert fingerprint(ge(Item("x"), 0)) != fingerprint(ge(Item("y"), 0))

    def test_statement_and_transaction_fingerprints(self):
        t1 = TransactionType(
            name="T", body=(Read(Local("v"), Item("x")), Write(Item("x"), Local("v") + 1))
        )
        t2 = TransactionType(
            name="T", body=(Read(Local("v"), Item("x")), Write(Item("x"), Local("v") + 1))
        )
        assert t1.fingerprint() == t2.fingerprint()
        assert t1.body[0].fingerprint() == t2.body[0].fingerprint()
        t3 = TransactionType(
            name="T", body=(Read(Local("v"), Item("x")), Write(Item("x"), Local("v") + 2))
        )
        assert t1.fingerprint() != t3.fingerprint()

    def test_closures_over_equal_captures_collide(self):
        def make(formula):
            def post(env, state):
                return formula
            return post

        f1 = make(ge(Item("x"), 0))
        f2 = make(ge(Item("x"), 0))
        g = make(ge(Item("x"), 5))
        assert fingerprint(f1) == fingerprint(f2)
        assert fingerprint(f1) != fingerprint(g)

    def test_fingerprint_many_is_order_sensitive(self):
        a, b = ge(Item("x"), 0), TRUE
        assert fingerprint_many(a, b) != fingerprint_many(b, a)

    def test_interning_survives_clear(self):
        formula = ge(Item("x"), 0)
        before = fingerprint(formula)
        clear_fingerprint_cache()
        assert fingerprint(formula) == before


# ---------------------------------------------------------------------------
# the VerdictCache container
# ---------------------------------------------------------------------------


class TestVerdictCache:
    def test_formula_scope_shared_across_full_keys(self):
        cache = VerdictCache()
        cache.store(FORMULA_SCOPE, "fk", "verdict")
        assert cache.lookup("fk", "full-1") == "verdict"
        assert cache.lookup("fk", "full-2") == "verdict"
        assert cache.stats.hits == 2

    def test_full_scope_not_shared(self):
        cache = VerdictCache()
        cache.store(FULL_SCOPE, "full-1", "verdict")
        assert cache.lookup("other", "full-1") == "verdict"
        assert cache.lookup("other", "full-2") is None
        assert cache.stats.misses == 1

    def test_disabled_cache_never_hits(self):
        cache = VerdictCache(enabled=False)
        cache.store(FORMULA_SCOPE, "fk", "verdict")
        assert cache.lookup("fk", "fk") is None
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_eviction_keeps_cache_bounded(self):
        cache = VerdictCache(cap=100)
        for i in range(250):
            cache.store(FULL_SCOPE, f"k{i}", i)
        assert len(cache) <= 100
        assert cache.stats.evictions > 0
        # newest entries survive FIFO eviction
        assert cache.lookup("none", "k249") == 249

    def test_clear_resets_stats(self):
        cache = VerdictCache()
        cache.store(FULL_SCOPE, "k", 1)
        cache.lookup("none", "k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_shared_cache_is_a_singleton(self):
        reset_shared_cache()
        assert shared_cache() is shared_cache()
        reset_shared_cache()


# ---------------------------------------------------------------------------
# cache soundness on real applications
# ---------------------------------------------------------------------------


APPS = {
    "banking": banking.make_application,
    "orders": lambda: orders.make_application("no_gap"),
    "tpcc": tpcc.make_application,
}


def _verdict_digest(report):
    """Every obligation's outcome, excluding the free-text note (the BMC
    note counts scenario cases, which a warm run does not re-examine)."""
    digest = {}
    for choice in report.choices:
        for attempt in choice.attempts:
            for index, ob in enumerate(attempt.obligations):
                key = (choice.transaction, attempt.level, index)
                if ob.verdict is None:
                    digest[key] = ("excused", ob.excused)
                    continue
                v = ob.verdict
                witness = None
                if v.witness is not None:
                    witness = (
                        v.witness.description,
                        None if v.witness.state is None else repr(v.witness.state),
                        None if v.witness.env is None else repr(v.witness.env),
                    )
                digest[key] = (v.interferes, v.method, v.confidence, witness)
    return digest


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_warm_run_identical_to_cold_run(app_name):
    app = APPS[app_name]()
    budget = 16
    cache = VerdictCache()

    cold_checker = InterferenceChecker(app.spec, budget=budget, cache=cache)
    cold = analyze_application(app, cold_checker, ladder=EXTENDED_LADDER)

    warm_checker = InterferenceChecker(app.spec, budget=budget, cache=cache)
    warm = analyze_application(app, warm_checker, ladder=EXTENDED_LADDER)

    assert warm_checker.stats["cache_hits"] > 0
    assert _verdict_digest(warm) == _verdict_digest(cold)
    assert warm.levels() == cold.levels()


def test_no_cache_matches_cached_single_level():
    app = banking.make_application()
    target = app.transactions[0]
    plain = check_transaction_at(
        app, target, READ_COMMITTED,
        InterferenceChecker(app.spec, budget=16, cache=VerdictCache(enabled=False)),
    )
    cached = check_transaction_at(
        app, target, READ_COMMITTED, InterferenceChecker(app.spec, budget=16)
    )
    assert plain.ok == cached.ok
    assert len(plain.obligations) == len(cached.obligations)
    for a, b in zip(plain.obligations, cached.obligations):
        if a.verdict is None:
            assert b.verdict is None
            continue
        assert (a.verdict.interferes, a.verdict.method) == (
            b.verdict.interferes,
            b.verdict.method,
        )


def test_cross_level_sharing_hits_within_one_cold_run():
    """Obligations recur across ladder levels, so even a cold chooser run
    sees cache hits — the effect the E8 benchmark quantifies."""
    app = banking.make_application()
    checker = InterferenceChecker(app.spec, budget=16)
    analyze_application(app, checker, ladder=EXTENDED_LADDER)
    assert checker.stats["cache_hits"] > 0


# ---------------------------------------------------------------------------
# prover memoisation
# ---------------------------------------------------------------------------


def test_prover_memo_counts_hits():
    clear_prover_caches()
    formula = conj(ge(Item("x"), 0), eq(Item("y"), IntConst(1)))
    first = simplify(formula)
    before = prover_cache_stats()
    second = simplify(formula)
    after = prover_cache_stats()
    assert second == first
    assert after["simplify_hits"] == before["simplify_hits"] + 1

    # a simplified formula is a fixed point: re-simplifying hits the memo
    third = simplify(first)
    assert third == first
    assert prover_cache_stats()["simplify_hits"] >= after["simplify_hits"] + 1
