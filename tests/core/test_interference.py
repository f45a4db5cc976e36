"""Unit tests for the three-tier interference checker."""

import pytest

from repro.core.domains import ArrayDomain, DomainSpec, ItemDomain, TableDomain
from repro.core.formula import (
    CountWhere,
    RowAttr,
    TRUE,
    conj,
    eq,
    ge,
    le,
    ne,
)
from repro.core.interference import (
    ASSUMED,
    BOUNDED,
    CONSISTENCY,
    CriticalAssertion,
    MISS,
    IdentityMemo,
    InterferenceChecker,
    PROVED,
    READ_POST,
    RESULT,
    Trace,
    _activation_positions,
    static_write_targets,
    trace,
    undo_states,
)
from repro.core.program import If, Insert, Read, TransactionType, Update, Write
from repro.core.state import DbState
from repro.core.terms import Field, IntConst, Item, Local, Param


def make_reader(post=None):
    read = Read(Local("v"), Item("x"), post=post)
    return TransactionType(name="Reader", body=(read,)), read


def make_bumper():
    return TransactionType(
        name="Bumper",
        body=(Read(Local("b"), Item("x")), Write(Item("x"), Local("b") + 1)),
        consistency=ge(Item("x"), 0),
    )


def make_setter(value: int):
    return TransactionType(
        name="Setter",
        body=(Write(Item("x"), IntConst(value)),),
    )


def spec_x():
    return DomainSpec(items=(ItemDomain("x", (0, 1, 2)),))


class TestIdentityMemo:
    def test_hit_on_the_same_objects(self):
        memo = IdentityMemo(10)
        state, env = DbState(), {"a": 1}
        assert memo.put("v", state, env, "extra") == "v"
        assert memo.get(state, env, "extra") == "v"
        assert memo.get(state, env, "other") is MISS

    def test_miss_on_equal_but_distinct_objects(self):
        memo = IdentityMemo(10)
        state, env = DbState(), {"a": 1}
        memo.put("v", state, env)
        assert memo.get(DbState(), env) is MISS
        assert memo.get(state, {"a": 1}) is MISS

    def test_stored_none_is_a_hit(self):
        memo = IdentityMemo(10)
        state = DbState()
        memo.put(None, state)
        assert memo.get(state) is None

    def test_cap_respected(self):
        memo = IdentityMemo(2)
        keys = [DbState() for _ in range(3)]
        for index, key in enumerate(keys):
            assert memo.put(index, key) == index
        assert len(memo) == 2
        assert memo.get(keys[0]) == 0 and memo.get(keys[1]) == 1
        assert memo.get(keys[2]) is MISS


class TestTracing:
    def test_trace_records_events_and_envs(self):
        txn = make_bumper()
        state = DbState(items={"x": 1})
        result = trace(txn, state, {})
        assert result.length == 2
        assert result.events[0].is_write is False
        assert result.events[1].is_write is True
        assert result.states[0].read_item("x") == 1
        assert result.states[2].read_item("x") == 2
        assert result.envs[2][Local("b")] == 1

    def test_undo_states_restore_initial(self):
        txn = make_bumper()
        state = DbState(items={"x": 1})
        result = trace(txn, state, {})
        rolled = undo_states(result.events)
        assert rolled[-1].read_item("x") == 1

    def test_undo_states_table_operations(self):
        txn = TransactionType(
            name="Ins", body=(Insert("T", (("k", IntConst(7)),)),)
        )
        state = DbState(tables={"T": []})
        result = trace(txn, state, {})
        rolled = undo_states(result.events)
        assert rolled[-1].table_size("T") == 0


class TestActivationPositions:
    def _trace(self):
        txn = make_bumper()
        return txn, trace(txn, DbState(items={"x": 0}), {})

    def test_consistency_active_everywhere(self):
        _txn, tr = self._trace()
        ca = CriticalAssertion("I", TRUE, CONSISTENCY)
        assert _activation_positions(ca, tr) == [0, 1, 2]

    def test_result_active_at_end(self):
        _txn, tr = self._trace()
        ca = CriticalAssertion("Q", TRUE, RESULT)
        assert _activation_positions(ca, tr) == [2]

    def test_read_post_active_after_read(self):
        txn, tr = self._trace()
        read = txn.body[0]
        ca = CriticalAssertion("p", TRUE, READ_POST, read_stmt=read)
        assert _activation_positions(ca, tr) == [1, 2]


class TestDisjointTier:
    def test_disjoint_footprints_proved_safe(self):
        reader, read = make_reader(post=eq(Local("v"), Item("x")))
        other = TransactionType(name="Y", body=(Write(Item("y"), IntConst(1)),))
        checker = InterferenceChecker(spec_x())
        ca = CriticalAssertion("p", read.post, READ_POST, read_stmt=read)
        verdict = checker.check_statement(reader, ca, other, other.body[0])
        assert verdict.safe and verdict.method == "disjoint" and verdict.confidence == PROVED


class TestSymbolicTier:
    def test_equality_post_interfered_by_write(self):
        reader, read = make_reader(post=eq(Local("v"), Item("x")))
        setter = make_setter(2)
        checker = InterferenceChecker(spec_x())
        ca = CriticalAssertion("p", read.post, READ_POST, read_stmt=read)
        verdict = checker.check_unit(reader, ca, setter)
        assert verdict.interferes
        assert verdict.method == "symbolic"

    def test_monotone_post_survives_increment(self):
        reader, read = make_reader(post=le(Local("v"), Item("x")))
        checker = InterferenceChecker(spec_x())
        ca = CriticalAssertion("p", read.post, READ_POST, read_stmt=read)
        verdict = checker.check_unit(reader, ca, make_bumper())
        assert verdict.safe and verdict.method == "symbolic"

    def test_rollback_havoc_breaks_monotone_post(self):
        # the undo write restores an arbitrary earlier value, so even the
        # monotone v <= x is interfered with by a rollback
        reader, read = make_reader(post=le(Local("v"), Item("x")))
        checker = InterferenceChecker(spec_x())
        ca = CriticalAssertion("p", read.post, READ_POST, read_stmt=read)
        verdict = checker.check_rollback(reader, ca, make_bumper())
        assert verdict.interferes

    def test_fcw_excuse_passes_same_item_writers(self):
        writer = TransactionType(
            name="W",
            body=(Read(Local("v"), Item("x")), Write(Item("x"), Local("v") - 1)),
            result=eq(Item("x"), Local("v") - 1),
        )
        checker = InterferenceChecker(spec_x())
        ca = CriticalAssertion("Q", writer.result, RESULT)
        partner = writer.rename_params("!2")
        without = checker.check_unit(writer, ca, partner, fcw_excuse=False)
        with_excuse = checker.check_unit(writer, ca, partner, fcw_excuse=True)
        assert without.interferes
        assert with_excuse.safe


class TestBmcTier:
    def test_no_spec_assumes_interference(self):
        from repro.core.conditions import canonical_read_post
        from repro.core.program import SelectCount

        checker = InterferenceChecker(spec=None)
        count_read = SelectCount("T", Local("n"), where=TRUE)
        reader = TransactionType(name="Counter", body=(count_read,))
        insert = Insert("T", (("k", IntConst(1)),))
        other = TransactionType(name="I", body=(insert,))
        ca = CriticalAssertion("p", canonical_read_post(count_read), READ_POST, read_stmt=count_read)
        verdict = checker.check_statement(reader, ca, other, insert)
        assert verdict.interferes and verdict.confidence == ASSUMED

    def test_phantom_insert_flips_count_post(self):
        count_read = __import__("repro.core.program", fromlist=["SelectCount"]).SelectCount(
            "T", Local("n"), where=TRUE
        )
        reader = TransactionType(
            name="Counter",
            body=(count_read,),
        )
        insert = Insert("T", (("k", IntConst(1)),))
        other = TransactionType(name="I", body=(insert,))
        spec = DomainSpec(tables=(TableDomain("T", (("k", (1,)),), max_rows=1),))
        checker = InterferenceChecker(spec)
        from repro.core.conditions import canonical_read_post

        ca = CriticalAssertion("p", canonical_read_post(count_read), READ_POST, read_stmt=count_read)
        verdict = checker.check_statement(reader, ca, other, insert, dirty_reads=False)
        assert verdict.interferes
        assert verdict.method.startswith("bmc")

    def test_assumption_excludes_scenarios(self):
        # writer to a[i]; reader's post about a[i]; assume distinct indices
        i = Param("i")
        read = Read(Local("v"), Field("a", i, "x"))
        from repro.core.conditions import canonical_read_post

        reader = TransactionType(name="R", params=(i,), body=(read,))
        writer = TransactionType(
            name="W",
            params=(i,),
            body=(Write(Field("a", i, "x"), IntConst(9)),),
        ).rename_params("!2")
        spec = DomainSpec(
            arrays=(ArrayDomain("a", (0, 1), (("x", (0, 1)),)),),
            var_domains={"i": (0, 1)},
        )
        checker = InterferenceChecker(spec)
        ca = CriticalAssertion("p", canonical_read_post(read), READ_POST, read_stmt=read)
        same_ok = checker.check_statement(reader, ca, writer, writer.body[0])
        assert same_ok.interferes  # same index allowed -> flips
        distinct = checker.check_statement(
            reader, ca, writer, writer.body[0], assumption=ne(i, Param("i!2"))
        )
        assert distinct.safe
        # the symbolic tier can prove this outright; bounded is also fine
        assert distinct.confidence in (PROVED, BOUNDED)

    def test_rollback_after_dirty_read(self):
        """Ordering B: target reads the source's uncommitted bump."""
        read = Read(Local("v"), Item("x"), post=le(Local("v"), Item("x")))
        reader = TransactionType(name="R", body=(read,))
        bumper = make_bumper()
        checker = InterferenceChecker(spec_x())
        ca = CriticalAssertion("p", read.post, READ_POST, read_stmt=read)
        verdict = checker.check_rollback(reader, ca, bumper)
        assert verdict.interferes
        assert verdict.witness is not None

    def test_stats_track_tiers(self):
        checker = InterferenceChecker(spec_x())
        reader, read = make_reader(post=eq(Local("v"), Item("x")))
        other = TransactionType(name="Y", body=(Write(Item("y"), IntConst(1)),))
        ca = CriticalAssertion("p", read.post, READ_POST, read_stmt=read)
        checker.check_statement(reader, ca, other, other.body[0])
        assert checker.stats["disjoint"] == 1


class TestStaticWriteTargets:
    def test_collects_scalar_and_field_targets(self):
        i = Param("i")
        txn = TransactionType(
            name="T",
            params=(i,),
            body=(
                Write(Item("x"), IntConst(1)),
                If(TRUE, then=(Write(Field("a", i, "v"), IntConst(2)),)),
            ),
        )
        targets = static_write_targets(txn)
        assert Item("x") in targets
        assert Field("a", i, "v") in targets

    def test_local_indexed_targets_dropped(self):
        txn = TransactionType(
            name="T",
            body=(
                Read(Local("k"), Item("x")),
                Write(Field("a", Local("k"), "v"), IntConst(1)),
            ),
        )
        assert static_write_targets(txn) == []
