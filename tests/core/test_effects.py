"""Unit tests for whole-transaction symbolic effects."""

import pytest

import itertools

from repro.core.effects import (
    INSERT,
    UNINSERT,
    EntryState,
    TableEffect,
    apply_single_write,
    apply_store,
    apply_table_effect,
    statement_effect,
    symbolic_paths,
    undo_effects,
    write_sets_intersection_condition,
)
from repro.core.formula import (
    FALSE,
    TRUE,
    CountWhere,
    ExistsRow,
    ForAllRows,
    InTable,
    Not,
    RowAttr,
    conj,
    eq,
    ge,
    implies,
    le,
    lt,
    ne,
)
from repro.core.program import (
    Delete,
    ForEach,
    If,
    Insert,
    LocalAssign,
    Read,
    Select,
    SelectCount,
    TransactionType,
    Update,
    While,
    Write,
)
from repro.core.application import Application
from repro.core.domains import DomainSpec, ItemDomain
from repro.core.interference import CONSISTENCY, CriticalAssertion, InterferenceChecker
from repro.core.prover import Verdict, is_valid
from repro.core.state import DbState
from repro.core.terms import Field, IntConst, Item, Local, LogicalVar, Param


def make_increment():
    return TransactionType(
        name="Inc",
        body=(
            Read(Local("v"), Item("x")),
            Write(Item("x"), Local("v") + 1),
        ),
        consistency=ge(Item("x"), 0),
    )


def make_withdraw():
    i, w = Param("i"), Param("w")
    sav = Field("acct", i, "bal")
    return TransactionType(
        name="W",
        params=(i, w),
        body=(
            Read(Local("S"), sav),
            If(ge(Local("S"), w), then=(Write(sav, Local("S") - w),)),
        ),
        param_pre=ge(w, 0),
    )


class TestSymbolicPaths:
    def test_straight_line_store(self):
        paths = symbolic_paths(make_increment())
        assert len(paths) == 1
        store = paths[0].store
        assert store[Item("x")] == Item("x") + 1

    def test_reads_resolve_against_prior_writes(self):
        txn = TransactionType(
            name="T",
            body=(
                Read(Local("a"), Item("x")),
                Write(Item("x"), Local("a") + 1),
                Read(Local("b"), Item("x")),
                Write(Item("y"), Local("b")),
            ),
        )
        paths = symbolic_paths(txn)
        store = paths[0].store
        # y gets the incremented value, not the original
        assert store[Item("y")] == Item("x") + 1

    def test_if_forks_paths_with_conditions(self):
        paths = symbolic_paths(make_withdraw())
        assert len(paths) == 2
        stores = [path.store for path in paths]
        assert any(stores[k] == {} for k in range(2))
        written = next(s for s in stores if s)
        target = Field("acct", Param("i"), "bal")
        assert written[target] == Field("acct", Param("i"), "bal") - Param("w")

    def test_relational_statement_becomes_table_effect(self):
        txn = TransactionType(
            name="R",
            body=(
                Read(Local("a"), Item("x")),
                Insert("T", (("k", Local("a") + 1),)),
            ),
        )
        (path,) = symbolic_paths(txn)
        assert path.relational
        # the inserted value is resolved against the entry state
        assert path.effects == [TableEffect(INSERT, "T", (("k", Item("x") + 1),))]

    def test_selects_bind_opaque_values(self):
        txn = TransactionType(
            name="S",
            body=(
                SelectCount("T", Local("n"), where=eq(RowAttr("r", "k"), 1)),
                Write(Item("x"), Local("n")),
            ),
        )
        (path,) = symbolic_paths(txn)
        assert path.relational
        assert isinstance(path.store[Item("x")], LogicalVar)

    def test_row_buffer_loop_unsupported(self):
        buff, k = Local("buff", "str"), Local("k")
        txn = TransactionType(
            name="B",
            body=(
                Select("T", buff, attrs=("k",)),
                ForEach(buff, (("k", k),), (Delete("T", where=eq(RowAttr("r", "k"), k)),)),
            ),
        )
        assert symbolic_paths(txn) is None

    def test_relational_statement_reading_the_database_unsupported(self):
        txn = TransactionType(
            name="D", body=(Delete("T", where=eq(RowAttr("r", "k"), Item("x"))),)
        )
        assert symbolic_paths(txn) is None
        assert statement_effect(txn.body[0]) is None

    def test_ambiguous_array_aliasing_unsupported(self):
        i, j = Param("i"), Param("j")
        txn = TransactionType(
            name="A",
            params=(i, j),
            body=(
                Write(Field("a", i, "v"), IntConst(1)),
                Write(Field("a", j, "v"), IntConst(2)),
            ),
        )
        assert symbolic_paths(txn) is None

    def test_identical_targets_last_write_wins(self):
        txn = TransactionType(
            name="WW",
            body=(
                Write(Item("x"), IntConst(1)),
                Write(Item("x"), IntConst(2)),
            ),
        )
        paths = symbolic_paths(txn)
        assert paths[0].store[Item("x")] == IntConst(2)

    def test_path_condition_includes_consistency_and_pre(self):
        paths = symbolic_paths(make_withdraw())
        for path in paths:
            assert is_valid(implies(path.condition, ge(Param("w"), 0))).verdict == Verdict.VALID

    def test_loop_unrolling_bounded(self):
        txn = TransactionType(
            name="L",
            body=(
                LocalAssign(Local("k"), IntConst(0)),
                While(lt(Local("k"), 1), body=(LocalAssign(Local("k"), Local("k") + 1),)),
            ),
        )
        paths = symbolic_paths(txn, unroll=2)
        # contradictory unrollings are pruned
        assert all(path.store == {} for path in paths)
        assert len(paths) >= 1

    def test_loop_with_unexhausted_bound_leaves_the_fragment(self):
        """A loop that can still iterate after ``unroll`` iterations is not
        summarised by its unrollings: the executions that need more
        iterations would be dropped and tier 2 would prove too much."""
        k = Local("k")
        txn = TransactionType(
            name="Spin",
            params=(Param("n"),),
            body=(
                LocalAssign(k, IntConst(0)),
                While(lt(k, Param("n")), body=(LocalAssign(k, k + 1),)),
            ),
        )
        assert symbolic_paths(txn, unroll=2) is None


def make_drain():
    """``Drain(n)`` lowers ``x`` by one per iteration, ``n`` times."""
    x, k, v, n = Item("x"), Local("k"), Local("v"), Param("n")
    return TransactionType(
        name="Drain",
        params=(n,),
        body=(
            LocalAssign(k, IntConst(0)),
            While(
                lt(k, n),
                body=(Read(v, x), Write(x, v - 1), LocalAssign(k, k + 1)),
            ),
        ),
        consistency=ge(x, 0),
    )


class TestLoopSoundness:
    """Tier 2 must not prove what a longer run of the loop refutes."""

    def test_drain_three_times_breaks_the_assertion(self):
        state = DbState(items={"x": 0})
        make_drain().run(state, {"n": 3})
        assert state.read_item("x") == -3

    def test_drain_is_not_proved_to_keep_x_above_minus_two(self):
        checker = InterferenceChecker(None)
        verdict = checker._transaction_symbolic(ge(Item("x"), -2), make_drain(), TRUE)
        assert verdict is None or verdict.interferes


class TestApplyStore:
    def test_scalar_substitution(self):
        assertion = ge(Item("x"), 0)
        after = apply_store(assertion, {Item("x"): Item("x") + 1})
        goal = implies(conj(assertion), after)
        assert is_valid(goal).verdict == Verdict.VALID

    def test_untouched_assertion_unchanged(self):
        assertion = ge(Item("y"), 0)
        after = apply_store(assertion, {Item("x"): IntConst(0)})
        assert is_valid(implies(assertion, after)).verdict == Verdict.VALID

    def test_alias_case_split(self):
        i1, i2 = Param("i1"), Param("i2")
        assertion = ge(Field("a", i1, "v"), 0)
        # write a[i2] := -5: assertion survives only when i1 != i2
        after = apply_store(assertion, {Field("a", i2, "v"): IntConst(-5)})
        survives_if_distinct = implies(conj(assertion, ne(i1, i2)), after)
        assert is_valid(survives_if_distinct).verdict == Verdict.VALID
        breaks_if_equal = implies(conj(assertion, eq(i1, i2)), after)
        assert is_valid(breaks_if_equal).verdict == Verdict.INVALID

    def test_abstract_predicate_reading_a_written_location_is_refused(self):
        from repro.core.formula import AbstractPred
        from repro.core.resources import ScalarResource

        even = AbstractPred("x is even", reads=frozenset({ScalarResource("x")}))
        assert apply_store(conj(even, ge(Item("y"), 0)), {Item("x"): IntConst(1)}) is None
        # one that reads elsewhere is carried across untouched
        other = AbstractPred("y is even", reads=frozenset({ScalarResource("y")}))
        assert apply_store(other, {Item("x"): IntConst(1)}) is other

    def test_single_write_helper(self):
        assertion = eq(Item("x"), 3)
        after = apply_single_write(assertion, Item("x"), IntConst(4))
        assert is_valid(implies(TRUE, implies(after, eq(IntConst(4), 3)))).verdict in (
            Verdict.VALID,
            Verdict.INVALID,
        )
        # substituted form is x-free
        assert Item("x") not in set(after.atoms())


class TestWriteSetIntersection:
    def test_identical_scalars_always_intersect(self):
        condition = write_sets_intersection_condition(
            [(Item("x"), None)], [(Item("x"), None)]
        )
        assert condition == TRUE

    def test_distinct_scalars_never_intersect(self):
        condition = write_sets_intersection_condition(
            [(Item("x"), None)], [(Item("y"), None)]
        )
        assert condition == FALSE

    def test_array_writes_intersect_on_index_equality(self):
        i1, i2 = Param("i1"), Param("i2")
        condition = write_sets_intersection_condition(
            [(Field("a", i1, "v"), None)], [(Field("a", i2, "v"), None)]
        )
        assert is_valid(implies(eq(i1, i2), condition)).verdict == Verdict.VALID
        assert is_valid(implies(ne(i1, i2), condition)).verdict == Verdict.INVALID

    def test_different_arrays_never_intersect(self):
        i1, i2 = Param("i1"), Param("i2")
        condition = write_sets_intersection_condition(
            [(Field("a", i1, "v"), None)], [(Field("b", i2, "v"), None)]
        )
        assert condition == FALSE


# ---------------------------------------------------------------------------
# relational transformers
# ---------------------------------------------------------------------------

P, K = Param("p"), Param("k")


def _row(k, v):
    return {"k": k, "v": v}


def _tables():
    """Every table of up to two rows over k, v in {0, 1}."""
    rows = [_row(k, v) for k in (0, 1) for v in (0, 1)]
    for size in range(3):
        for combo in itertools.combinations_with_replacement(rows, size):
            state = DbState()
            for row in combo:
                state.insert_row("T", dict(row))
            yield state


def _exact(assertion, stmt):
    """The transformer agrees with executing ``stmt`` on every small table."""
    after = apply_table_effect(assertion, statement_effect(stmt))
    assert after is not None
    for state in _tables():
        for p in (0, 1):
            env = {P: p}
            post = state.fork()
            stmt.execute(post, dict(env))
            assert after.evaluate(state, env) == assertion.evaluate(post, env), (state, p)


def _sound(assertion, stmt):
    """Where the transformer is not exact, it still implies the post-value."""
    after = apply_table_effect(assertion, statement_effect(stmt))
    assert after is not None
    for state in _tables():
        for p in (0, 1):
            env = {P: p}
            post = state.fork()
            stmt.execute(post, dict(env))
            assert not after.evaluate(state, env) or assertion.evaluate(post, env), (state, p)


def _valid(premise, conclusion):
    return is_valid(implies(premise, conclusion)).verdict == Verdict.VALID


ALL_V_NONNEG = ForAllRows("T", "r", ge(RowAttr("r", "v"), 0))
SOME_K_IS_P = ExistsRow("T", "r", eq(RowAttr("r", "k"), P))
COUNT_K_IS_P = CountWhere("T", "c", eq(RowAttr("c", "k"), P))


class TestInsertTransformer:
    STMT = Insert("T", (("k", IntConst(1)), ("v", P)))

    def test_forall_gains_the_instance(self):
        _exact(ALL_V_NONNEG, self.STMT)
        after = apply_table_effect(ALL_V_NONNEG, statement_effect(self.STMT))
        assert _valid(conj(ALL_V_NONNEG, ge(P, 0)), after)

    def test_insert_that_breaks_a_forall_is_not_proved(self):
        after = apply_table_effect(ALL_V_NONNEG, statement_effect(self.STMT))
        # nothing bounds the inserted v
        assert not _valid(ALL_V_NONNEG, after)

    def test_exists_gains_a_witness(self):
        _exact(SOME_K_IS_P, self.STMT)
        after = apply_table_effect(SOME_K_IS_P, statement_effect(self.STMT))
        assert _valid(SOME_K_IS_P, after)
        assert _valid(eq(P, 1), after)

    def test_count_case_splits(self):
        _exact(eq(COUNT_K_IS_P, 1), self.STMT)
        _exact(le(COUNT_K_IS_P, 2), self.STMT)

    def test_membership(self):
        _exact(InTable("T", (("k", P), ("v", IntConst(0)))), self.STMT)


class TestDeleteTransformer:
    STMT = Delete("T", where=eq(RowAttr("r", "k"), P))

    def test_forall_is_implied_by_the_old_one(self):
        after = apply_table_effect(ALL_V_NONNEG, statement_effect(self.STMT))
        assert _valid(ALL_V_NONNEG, after)

    def test_delete_under_an_exists_is_not_proved(self):
        after = apply_table_effect(SOME_K_IS_P, statement_effect(self.STMT))
        # the only witnesses are the deleted rows
        assert not _valid(SOME_K_IS_P, after)

    def test_exists_survives_a_disjoint_delete(self):
        other = ExistsRow("T", "r", eq(RowAttr("r", "k"), K))
        after = apply_table_effect(other, statement_effect(self.STMT))
        assert _valid(conj(other, ne(K, P)), after)
        assert not _valid(other, after)

    def test_count_keeps_the_surviving_rows(self):
        _exact(eq(CountWhere("T", "c", ge(RowAttr("c", "v"), 1)), 1), self.STMT)
        _exact(eq(COUNT_K_IS_P, 0), self.STMT)

    def test_negative_occurrence(self):
        _exact(Not(ALL_V_NONNEG), self.STMT)
        # a surviving row is still a row: the old existential is implied
        _sound(Not(SOME_K_IS_P), self.STMT)


class TestUpdateTransformer:
    BUMP = Update("T", sets=(("v", RowAttr("r", "v") + 1),), where=eq(RowAttr("r", "k"), P))
    DROP = Update("T", sets=(("v", RowAttr("r", "v") - 1),), where=eq(RowAttr("r", "k"), P))

    def test_increment_preserves_a_lower_bound(self):
        after = apply_table_effect(ALL_V_NONNEG, statement_effect(self.BUMP))
        assert _valid(ALL_V_NONNEG, after)

    def test_decrement_is_not_proved(self):
        after = apply_table_effect(ALL_V_NONNEG, statement_effect(self.DROP))
        assert not _valid(ALL_V_NONNEG, after)

    def test_untouched_attribute_leaves_the_quantifier(self):
        assert apply_table_effect(SOME_K_IS_P, statement_effect(self.BUMP)) is SOME_K_IS_P

    def test_exists_keeps_updated_witnesses(self):
        some_positive = ExistsRow("T", "r", ge(RowAttr("r", "v"), 1))
        assert _valid(some_positive, apply_table_effect(some_positive, statement_effect(self.BUMP)))
        assert not _valid(some_positive, apply_table_effect(some_positive, statement_effect(self.DROP)))

    def test_negative_occurrence_is_exact(self):
        _exact(Not(ALL_V_NONNEG), self.BUMP)
        _exact(Not(ExistsRow("T", "r", ge(RowAttr("r", "v"), 1))), self.DROP)

    def test_counted_attribute_unsupported(self):
        counted = eq(CountWhere("T", "c", eq(RowAttr("c", "v"), 1)), 0)
        assert apply_table_effect(counted, statement_effect(self.BUMP)) is None


class TestUninsertTransformer:
    ROW = (("k", IntConst(1)), ("v", IntConst(0)))
    UNDO = TableEffect(UNINSERT, "T", ROW)

    def _undo(self, state):
        post = state.fork()
        hit = {"done": False}

        def once(row):
            if hit["done"] or row != dict(self.ROW_VALUES):
                return False
            hit["done"] = True
            return True

        post.delete_rows("T", once)
        return post

    ROW_VALUES = (("k", 1), ("v", 0))

    def test_count_is_exact(self):
        assertion = eq(COUNT_K_IS_P, 1)
        after = apply_table_effect(assertion, self.UNDO)
        for state in _tables():
            for p in (0, 1):
                env = {P: p}
                assert after.evaluate(state, env) == assertion.evaluate(self._undo(state), env)

    def test_forall_survives(self):
        assert _valid(ALL_V_NONNEG, apply_table_effect(ALL_V_NONNEG, self.UNDO))

    def test_exists_needs_a_witness_other_than_the_row(self):
        after = apply_table_effect(SOME_K_IS_P, self.UNDO)
        assert _valid(conj(SOME_K_IS_P, ne(P, 1)), after)
        assert not _valid(SOME_K_IS_P, after)


class TestNestingLimits:
    #: every row's key is some row's key: a quantifier nested over its own table
    NESTED = ForAllRows("T", "a", ExistsRow("T", "b", eq(RowAttr("b", "k"), RowAttr("a", "k"))))
    #: keys are unique: an aggregate over the table under its own quantifier
    UNIQUE = ForAllRows("T", "u", le(CountWhere("T", "w", eq(RowAttr("w", "k"), RowAttr("u", "k"))), 1))
    #: no row's value exceeds another's key: a universal nested in a universal
    BOUNDED = ForAllRows("T", "a", ForAllRows("T", "b", le(RowAttr("a", "v"), RowAttr("b", "k"))))

    def test_quantifier_nested_over_the_same_table_is_exact(self):
        _exact(self.NESTED, Insert("T", (("k", P), ("v", IntConst(0)))))
        _exact(self.UNIQUE, Insert("T", (("k", P), ("v", IntConst(0)))))

    def test_update_of_an_attribute_the_nest_never_reads_leaves_it(self):
        stmt = Update("T", sets=(("v", IntConst(1)),), where=eq(RowAttr("r", "k"), P))
        assert apply_table_effect(self.NESTED, statement_effect(stmt)) is self.NESTED
        _exact(self.UNIQUE, stmt)

    def test_nested_universals_across_a_delete_are_sound(self):
        _sound(self.BOUNDED, Delete("T", where=eq(RowAttr("r", "k"), P)))

    def test_nested_existential_needing_a_fresh_row_is_refused(self):
        effect = statement_effect(Delete("T", where=eq(RowAttr("r", "k"), P)))
        assert apply_table_effect(self.NESTED, effect) is None

    def test_aggregate_under_another_tables_quantifier_is_exact(self):
        # the CUST/ORDERS shape: a count of T per row of U
        per_u = ForAllRows(
            "U", "u", eq(RowAttr("u", "n"), CountWhere("T", "c", eq(RowAttr("c", "k"), RowAttr("u", "k"))))
        )
        stmt = Insert("T", (("k", P), ("v", IntConst(0))))
        after = apply_table_effect(per_u, statement_effect(stmt))
        for state in _tables():
            for u_rows in ((), ({"k": 1, "n": 1},), ({"k": 0, "n": 0}, {"k": 1, "n": 2})):
                pre = state.fork()
                for row in u_rows:
                    pre.insert_row("U", dict(row))
                for p in (0, 1):
                    post = pre.fork()
                    stmt.execute(post, {P: p})
                    assert after.evaluate(pre, {P: p}) == per_u.evaluate(post, {P: p})

    def test_fresh_row_instance_refused_under_a_binder(self):
        under = ForAllRows("U", "u", ExistsRow("T", "r", eq(RowAttr("r", "k"), RowAttr("u", "k"))))
        effect = statement_effect(Delete("T", where=eq(RowAttr("r", "k"), P)))
        assert apply_table_effect(under, effect) is None


class TestEntryState:
    def test_lift_drops_table_conjuncts_and_renames_locations(self):
        entry = EntryState()
        lifted = entry.lift(conj(ge(Item("x"), 0), ALL_V_NONNEG, ge(P, 1)))
        assert Item("x") not in lifted.atom_set()
        assert not lifted.resources()
        assert _valid(lifted, ge(entry.value(Item("x")), 0))

    def test_congruence_links_aliased_fields(self):
        entry = EntryState()
        a, b = entry.value(Field("s", P, "q")), entry.value(Field("s", K, "q"))
        assert _valid(conj(entry.congruence(), eq(P, K)), eq(a, b))
        assert not _valid(entry.congruence(), eq(a, b))

    def test_undo_restores_entry_values_and_removes_the_row(self):
        txn = TransactionType(
            name="U",
            params=(P,),
            body=(
                Read(Local("a"), Item("x")),
                Write(Item("y"), Local("a")),
                Insert("T", (("k", P), ("v", Local("a")))),
            ),
        )
        (path,) = symbolic_paths(txn)
        entry = EntryState()
        undo = undo_effects(path, entry)
        assert undo[0] == (Item("y"), entry.value(Item("y")))
        assert undo[1].kind == UNINSERT and dict(undo[1].values)["k"] == P
        # the row's value was read at some point: opaque, not the entry x
        assert dict(undo[1].values)["v"] != entry.value(Item("x"))

    def test_location_written_twice_has_no_entry_undo(self):
        txn = TransactionType(
            name="W2",
            body=(
                Write(Item("y"), IntConst(1)),
                Write(Item("y"), IntConst(2)),
                Insert("T", (("k", IntConst(0)),)),
            ),
        )
        (path,) = symbolic_paths(txn)
        assert undo_effects(path, EntryState()) is None


class TestReadUncommittedRollback:
    """Undo values come from the entry state, not the current one."""

    @staticmethod
    def dirty_undo_app() -> Application:
        """READ UNCOMMITTED: the target writes ``x``, which the source only reads.

        ``Shift`` reads ``x``, sets ``y := x - 5`` and logs a row; ``Lower``
        lowers ``x`` by 3.  Both keep ``y <= x``.  Interleaved — ``Shift``
        writes ``y``, ``Lower`` lowers ``x``, ``Shift`` rolls back — the undo
        restores ``y`` to its entry value, above the lowered ``x``.  With the
        entry condition stated over current-state atoms (``y_entry <= x``) the
        rollback would prove safe.
        """
        x, y = Item("x"), Item("y")
        a, b = Local("a"), Local("b")
        keep = le(y, x)
        shift = TransactionType(
            name="Shift",
            body=(Read(a, x), Write(y, a - 5), Insert("L", (("k", a),))),
            consistency=keep,
        )
        lower = TransactionType(
            name="Lower",
            body=(Read(b, x), Write(x, b - 3)),
            consistency=keep,
        )
        return Application(
            name="dirty-undo",
            transactions=(shift, lower),
            spec=DomainSpec(items=(ItemDomain("x", (0, 5)), ItemDomain("y", (0, 5)))),
        )

    def test_rollback_over_a_location_the_target_wrote_is_not_proved(self):
        app = self.dirty_undo_app()
        target, source = app.transaction("Lower"), app.transaction("Shift").rename_params("!2")
        assertion = CriticalAssertion("I_i", target.consistency, CONSISTENCY)
        checker = InterferenceChecker(spec=app.spec, budget=1000)
        assert checker._rollback_symbolic(assertion.formula, source) is None
        verdict = checker.check_rollback(target, assertion, source)
        assert verdict.interferes and verdict.method == "bmc-rollback"
