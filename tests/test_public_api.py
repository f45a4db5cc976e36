"""The README quickstart path, end to end through the public API."""

import repro
from repro import (
    Application,
    DbState,
    Engine,
    InstanceSpec,
    InterferenceChecker,
    Simulator,
    analyze_application,
    check_semantic_correctness,
    choose_level,
    validate_level,
)


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_level_constants(self):
        assert repro.READ_UNCOMMITTED == "READ UNCOMMITTED"
        assert repro.SNAPSHOT == "SNAPSHOT"
        assert len(repro.ANSI_LADDER) == 4
        assert len(repro.EXTENDED_LADDER) == 5


class TestLazyExports:
    """``repro`` resolves its public names on first use; each check runs
    in a fresh interpreter, where no name has been resolved yet."""

    def test_import_loads_no_engine_or_scheduler(self, fresh_import_check):
        fresh_import_check(
            """
            import sys
            import repro
            loaded = [n for n in sys.modules if n.startswith(("repro.engine", "repro.sched"))]
            assert not loaded, loaded
            """
        )

    def test_every_public_name_resolves(self, fresh_import_check):
        fresh_import_check(
            """
            import repro
            import repro.engine.manager
            for name in repro.__all__:
                getattr(repro, name)
            assert repro.Engine is repro.engine.manager.Engine
            assert not hasattr(repro, "no_such_name")
            assert set(repro.__all__) <= set(dir(repro))
            """
        )

    def test_star_import_binds_every_public_name(self, fresh_import_check):
        fresh_import_check(
            """
            import repro
            namespace = {}
            exec("from repro import *", namespace)
            missing = set(repro.__all__) - set(namespace)
            assert not missing, missing
            """
        )


class TestQuickstartFlow:
    def test_analyze_banking(self):
        from repro.apps import banking

        app = banking.make_application()
        report = analyze_application(app, InterferenceChecker(app.spec, budget=2000))
        levels = report.levels()
        assert set(levels) == {
            "Withdraw_sav",
            "Withdraw_ch",
            "Deposit_sav",
            "Deposit_ch",
        }
        rendered = report.render()
        assert "Withdraw_sav" in rendered

    def test_simulate_and_check(self):
        from repro.apps import banking
        from repro.core.formula import ge
        from repro.core.terms import Field, IntConst

        initial = DbState(arrays={"acct_sav": {0: {"bal": 2}}, "acct_ch": {0: {"bal": 2}}})
        specs = [
            InstanceSpec(banking.DEPOSIT_SAV, {"i": 0, "d": 1}, "READ COMMITTED", "D1"),
            InstanceSpec(banking.DEPOSIT_CH, {"i": 0, "d": 2}, "READ COMMITTED", "D2"),
        ]
        result = Simulator(initial, specs, seed=1).run()
        invariant = ge(
            Field("acct_sav", IntConst(0), "bal") + Field("acct_ch", IntConst(0), "bal"), 0
        )
        report = check_semantic_correctness(result, invariant)
        assert report.correct

    def test_engine_direct_use(self):
        engine = Engine(DbState(items={"x": 0}))
        txn = engine.begin("READ COMMITTED")
        engine.write_item(txn, "x", 41)
        engine.commit(txn)
        txn2 = engine.begin("SNAPSHOT")
        assert engine.read_item(txn2, "x") == 41
