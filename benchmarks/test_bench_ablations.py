"""E10 — ablations of the design choices (DESIGN.md §6).

1. **Checker tiers** — disable footprint-disjointness and/or the symbolic
   tier and measure how obligations redistribute (and that verdicts do not
   change: the tiers are a performance structure, not a soundness one).
2. **Predicate write locks** — run the anomaly-relevant engine paths with
   phantom protection off: SERIALIZABLE readers stop blocking phantom
   inserts, exactly the hole the [2] locking rules exist to close.
3. **Concurrency assumptions** — drop the employees application's
   "one Hours per employee per day" assumption and watch the chooser
   escalate Hours, quantifying what the paper's implicit assumption buys.
"""

import time

import pytest

from benchmarks._report import emit
from repro.apps import banking, employees
from repro.core.chooser import choose_level
from repro.core.conditions import SNAPSHOT, check_transaction_at
from repro.core.interference import InterferenceChecker
from repro.core.report import format_table
from repro.core.state import DbState
from repro.sched.histories import replay


class TestTierAblation:
    @pytest.fixture(scope="class")
    def tier_runs(self):
        app = banking.make_application()
        configs = {
            "all tiers": {},
            "no disjoint": {"use_disjoint": False},
            "no symbolic": {"use_symbolic": False},
            "bmc only": {"use_disjoint": False, "use_symbolic": False},
        }
        out = {}
        for label, kwargs in configs.items():
            checker = InterferenceChecker(app.spec, budget=4000, seed=1, **kwargs)
            start = time.perf_counter()
            result = check_transaction_at(
                app, app.transaction("Withdraw_sav"), SNAPSHOT, checker
            )
            elapsed = time.perf_counter() - start
            out[label] = (result, dict(checker.stats), elapsed)
        return out

    def test_bench_tier_ablation(self, benchmark, tier_runs):
        app = banking.make_application()

        def kernel():
            checker = InterferenceChecker(app.spec, budget=4000, seed=1)
            return check_transaction_at(
                app, app.transaction("Deposit_ch"), SNAPSHOT, checker
            )

        benchmark(kernel)
        rows = [
            (
                label,
                "FAILS" if not result.ok else "OK",
                stats["disjoint"],
                stats["symbolic"],
                stats["bmc"],
                f"{elapsed:.1f}s",
            )
            for label, (result, stats, elapsed) in tier_runs.items()
        ]
        emit(
            "E10a-tier-ablation",
            format_table(
                ("configuration", "verdict", "disjoint", "symbolic", "bmc", "time"), rows
            ),
        )

    def test_verdict_stable_across_tiers(self, tier_runs):
        """Disabling tiers shifts work, never changes the answer."""
        verdicts = {label: result.ok for label, (result, _s, _t) in tier_runs.items()}
        assert len(set(verdicts.values())) == 1, verdicts

    def test_failure_sources_stable(self, tier_runs):
        sources = {
            label: {ob.source for ob in result.failures}
            for label, (result, _s, _t) in tier_runs.items()
        }
        assert len({frozenset(v) for v in sources.values()}) == 1, sources


class TestPhantomProtectionAblation:
    HISTORY = "rp1[T:a=1] ins2[T:a=1] c2 rp1[T:a=1] c1"

    def _run(self, protected: bool):
        from repro.engine.manager import Engine
        from repro.sched import histories

        initial = DbState(tables={"T": [{"a": 1}]})
        # replay() constructs its own engine; patch via a tiny local copy
        state = initial.copy()
        engine = Engine(state, phantom_protection=protected)
        reader = engine.begin("SERIALIZABLE")
        writer = engine.begin("READ COMMITTED")
        first = engine.select(reader, "T", lambda r: r.get("a") == 1)
        blocked = False
        try:
            engine.insert(writer, "T", {"a": 1})
            engine.commit(writer)
        except Exception:
            blocked = True
        second = engine.select(reader, "T", lambda r: r.get("a") == 1)
        engine.commit(reader)
        return first, second, blocked

    def test_bench_phantom_protection(self, benchmark):
        benchmark(lambda: self._run(True))
        first_on, second_on, blocked_on = self._run(True)
        first_off, second_off, blocked_off = self._run(False)
        rows = [
            ("predicate locks ON", len(first_on), len(second_on),
             "insert blocked" if blocked_on else "insert ran"),
            ("predicate locks OFF", len(first_off), len(second_off),
             "insert blocked" if blocked_off else "insert ran"),
        ]
        emit(
            "E10b-phantom-protection",
            format_table(
                ("engine configuration", "1st SELECT rows", "2nd SELECT rows", "phantom insert"),
                rows,
            ),
        )
        assert blocked_on and len(second_on) == len(first_on)
        assert not blocked_off and len(second_off) == len(first_off) + 1

    def test_serializable_loses_phantom_freedom_without_predicate_locks(self):
        first, second, blocked = self._run(False)
        # a SERIALIZABLE reader sees a phantom: the level's guarantee is gone
        assert not blocked and len(second) > len(first)


class TestAssumptionAblation:
    def test_bench_assumption_ablation(self, benchmark):
        with_assumption = employees.make_application()
        without = employees.make_application()
        without.assumptions.clear()

        def kernel():
            checker = InterferenceChecker(with_assumption.spec, budget=6000, seed=5)
            return choose_level(with_assumption, "Hours", checker)

        benchmark.pedantic(kernel, rounds=2, iterations=1)

        rows = []
        for label, app in (("with 'distinct employees'", with_assumption),
                           ("without the assumption", without)):
            checker = InterferenceChecker(app.spec, budget=6000, seed=5)
            choice = choose_level(app, "Hours", checker)
            rows.append((label, choice.level))
        emit(
            "E10c-assumption-ablation",
            format_table(("employees application", "Hours' chosen level"), rows),
        )
        levels = dict(rows)
        # the assumption is load-bearing: dropping it escalates Hours
        from repro.core.conditions import LEVEL_ORDER

        assert (
            LEVEL_ORDER[levels["without the assumption"]]
            > LEVEL_ORDER[levels["with 'distinct employees'"]]
        )
