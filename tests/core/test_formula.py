"""Unit tests for the assertion language."""

import operator
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import terms
from repro.core.formula import (
    AbstractPred,
    And,
    BoolAtom,
    Bottom,
    BoundVar,
    Cmp,
    CountWhere,
    ExistsRow,
    FALSE,
    ForAllInts,
    ForAllRows,
    Implies,
    InTable,
    Not,
    Or,
    RowAttr,
    TRUE,
    Top,
    conj,
    conjuncts,
    disj,
    eq,
    ge,
    gt,
    implies,
    le,
    lt,
    ne,
)
from repro.core.resources import ScalarResource, TableResource
from repro.core.state import DbState
from repro.core.terms import (
    Add,
    BoolConst,
    Field,
    IntConst,
    Item,
    Local,
    LogicalVar,
    Mul,
    Neg,
    Param,
    StrConst,
    Sub,
)
from repro.errors import EvaluationError, SortError


@pytest.fixture
def state():
    return DbState(
        items={"x": 3, "max": 2},
        tables={
            "T": [
                {"k": 1, "name": "a", "due": 1},
                {"k": 2, "name": "b", "due": 2},
            ]
        },
    )


class TestComparisons:
    def test_eq_true(self, state):
        assert eq(Item("x"), 3).evaluate(state, {})

    def test_eq_false(self, state):
        assert not eq(Item("x"), 4).evaluate(state, {})

    def test_ordering_operators(self, state):
        assert lt(Item("x"), 4).evaluate(state, {})
        assert le(Item("x"), 3).evaluate(state, {})
        assert gt(Item("x"), 2).evaluate(state, {})
        assert ge(Item("x"), 3).evaluate(state, {})
        assert ne(Item("x"), 5).evaluate(state, {})

    def test_string_equality(self, state):
        assert eq(StrConst("a"), StrConst("a")).evaluate(state, {})

    def test_string_ordering_rejected(self):
        with pytest.raises(SortError):
            lt(StrConst("a"), StrConst("b"))

    def test_unknown_operator_rejected(self):
        with pytest.raises(SortError):
            Cmp("<>", IntConst(1), IntConst(2))

    def test_negated(self):
        assert lt(Item("x"), 1).negated() == ge(Item("x"), 1)
        assert eq(Item("x"), 1).negated() == ne(Item("x"), 1)

    def test_substitution(self):
        formula = eq(Local("v"), Item("x"))
        rewritten = formula.substitute({Item("x"): IntConst(0)})
        assert rewritten == eq(Local("v"), IntConst(0))


class TestConnectives:
    def test_conj_flattens_and_simplifies(self):
        inner = conj(eq(Item("x"), 1), eq(Item("y"), 2))
        outer = conj(inner, TRUE, eq(Item("z"), 3))
        assert isinstance(outer, And)
        assert len(outer.operands) == 3

    def test_conj_false_absorbs(self):
        assert conj(eq(Item("x"), 1), FALSE) == FALSE

    def test_conj_empty_is_true(self):
        assert conj() == TRUE

    def test_disj_flattens_and_simplifies(self):
        outer = disj(disj(eq(Item("x"), 1), eq(Item("y"), 2)), FALSE)
        assert isinstance(outer, Or)
        assert len(outer.operands) == 2

    def test_disj_true_absorbs(self):
        assert disj(eq(Item("x"), 1), TRUE) == TRUE

    def test_implies_simplification(self):
        body = eq(Item("x"), 1)
        assert implies(TRUE, body) == body
        assert implies(FALSE, body) == TRUE
        assert implies(body, TRUE) == TRUE

    def test_evaluation(self, state):
        assert conj(ge(Item("x"), 0), le(Item("x"), 5)).evaluate(state, {})
        assert disj(eq(Item("x"), 9), eq(Item("x"), 3)).evaluate(state, {})
        assert Not(eq(Item("x"), 9)).evaluate(state, {})
        assert Implies(eq(Item("x"), 9), FALSE).evaluate(state, {})

    def test_operator_sugar(self, state):
        formula = ge(Item("x"), 0) & le(Item("x"), 5) | FALSE
        assert formula.evaluate(state, {})
        assert (~eq(Item("x"), 9)).evaluate(state, {})

    def test_conjuncts_helper(self):
        a, b = eq(Item("x"), 1), eq(Item("y"), 2)
        assert conjuncts(conj(a, b)) == (a, b)
        assert conjuncts(a) == (a,)
        assert conjuncts(TRUE) == ()


class TestRowQuantifiers:
    def test_forall_rows_true(self, state):
        formula = ForAllRows("T", "r", ge(RowAttr("r", "k"), 1))
        assert formula.evaluate(state, {})

    def test_forall_rows_false(self, state):
        formula = ForAllRows("T", "r", ge(RowAttr("r", "k"), 2))
        assert not formula.evaluate(state, {})

    def test_forall_rows_with_where(self, state):
        formula = ForAllRows(
            "T", "r", eq(RowAttr("r", "due"), 2), where=eq(RowAttr("r", "k"), 2)
        )
        assert formula.evaluate(state, {})

    def test_exists_row(self, state):
        assert ExistsRow("T", "r", eq(RowAttr("r", "k"), 2)).evaluate(state, {})
        assert not ExistsRow("T", "r", eq(RowAttr("r", "k"), 7)).evaluate(state, {})

    def test_empty_table_forall_vacuous(self):
        empty = DbState()
        assert ForAllRows("T", "r", FALSE).evaluate(empty, {})
        assert not ExistsRow("T", "r", TRUE).evaluate(empty, {})

    def test_bound_row_attr_not_free(self):
        formula = ForAllRows("T", "r", eq(RowAttr("r", "k"), Param("p")))
        atoms = set(formula.atoms())
        assert Param("p") in atoms
        assert not any(isinstance(a, RowAttr) for a in atoms)

    def test_substitution_avoids_capture(self):
        formula = ForAllRows("T", "r", eq(RowAttr("r", "k"), Param("p")))
        rewritten = formula.substitute({RowAttr("r", "k"): IntConst(1)})
        # the bound attribute must not be substituted
        assert rewritten == formula

    def test_resources_include_table_and_attrs(self):
        formula = ForAllRows("T", "r", eq(RowAttr("r", "k"), 1))
        resources = formula.resources()
        assert TableResource("T") in resources
        assert TableResource("T", "k") in resources


class TestIntQuantifier:
    def test_forall_ints_true(self, state):
        # every date 1..max has a row in T
        formula = ForAllInts(
            "d", IntConst(1), Item("max"),
            ExistsRow("T", "r", eq(RowAttr("r", "due"), BoundVar("d"))),
        )
        assert formula.evaluate(state, {})

    def test_forall_ints_false_on_gap(self, state):
        state.items["max"] = 3  # no row with due = 3
        formula = ForAllInts(
            "d", IntConst(1), Item("max"),
            ExistsRow("T", "r", eq(RowAttr("r", "due"), BoundVar("d"))),
        )
        assert not formula.evaluate(state, {})

    def test_empty_range_vacuous(self, state):
        formula = ForAllInts("d", IntConst(5), IntConst(1), FALSE)
        assert formula.evaluate(state, {})

    def test_bound_var_not_free(self):
        formula = ForAllInts("d", IntConst(0), Item("max"), eq(BoundVar("d"), Param("p")))
        atoms = set(formula.atoms())
        assert BoundVar("d") not in atoms
        assert Param("p") in atoms
        assert Item("max") in atoms


class TestCountAndMembership:
    def test_count_where(self, state):
        count = CountWhere("T", "r", ge(RowAttr("r", "k"), 2))
        assert count.evaluate(state, {}) == 1

    def test_count_where_in_comparison(self, state):
        formula = eq(CountWhere("T", "r", TRUE), 2)
        assert formula.evaluate(state, {})

    def test_count_resources(self):
        count = CountWhere("T", "r", eq(RowAttr("r", "k"), 1))
        assert TableResource("T") in count.resources()
        assert TableResource("T", "k") in count.resources()

    def test_in_table_positive(self, state):
        formula = InTable("T", (("k", IntConst(1)), ("name", StrConst("a"))))
        assert formula.evaluate(state, {})

    def test_in_table_negative(self, state):
        formula = InTable("T", (("k", IntConst(1)), ("name", StrConst("b"))))
        assert not formula.evaluate(state, {})

    def test_in_table_partial_match(self, state):
        formula = InTable("T", (("k", IntConst(2)),))
        assert formula.evaluate(state, {})


class TestAbstractPred:
    def test_evaluator_runs(self, state):
        pred = AbstractPred("always", evaluator=lambda s, e: True)
        assert pred.evaluate(state, {})

    def test_missing_evaluator_raises(self, state):
        with pytest.raises(EvaluationError):
            AbstractPred("opaque").evaluate(state, {})

    def test_declared_resources(self):
        pred = AbstractPred("touches-x", reads=frozenset({ScalarResource("x")}))
        assert ScalarResource("x") in pred.resources()

    def test_empty_footprint(self):
        pred = AbstractPred("pure-output")
        assert pred.resources() == frozenset()

    def test_substitution_is_identity(self):
        pred = AbstractPred("p")
        assert pred.substitute({Item("x"): IntConst(0)}) is pred


class TestResources:
    def test_scalar_resource_from_item(self):
        assert ScalarResource("x") in eq(Item("x"), 1).resources()

    def test_field_resources(self):
        from repro.core.resources import ArrayResource

        formula = ge(Field("a", Param("i"), "bal"), 0)
        assert ArrayResource("a", "bal") in formula.resources()

    def test_nested_resources_propagate(self):
        formula = conj(
            eq(Item("x"), 1),
            ForAllRows("T", "r", eq(RowAttr("r", "k"), Item("y"))),
        )
        resources = formula.resources()
        assert ScalarResource("x") in resources
        assert ScalarResource("y") in resources
        assert TableResource("T") in resources


# ---------------------------------------------------------------------------
# compiled evaluation against a reference tree-walking interpreter
# ---------------------------------------------------------------------------
#
# The reference binds a quantifier's row by copying the environment and
# adding one RowAttr key per attribute and sort, and a ForAllInts value as a
# BoundVar key: the semantics compiled evaluation must keep.

_REF_SORTS = ("int", "bool", "str")
_REF_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
_REF_ARITH = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
_REF_UNBOUND = {
    Local: "local variable",
    Param: "parameter",
    LogicalVar: "logical variable",
    BoundVar: "quantified variable",
}


def _ref_bind(env, row_var, row):
    extended = dict(env)
    for attr, value in row.items():
        for sort in _REF_SORTS:
            extended[RowAttr(row_var, attr, sort)] = value
    return extended


def _ref_lookup(env, key, message):
    try:
        return env[key]
    except KeyError:
        raise EvaluationError(message)


def ref_eval(node, state, env):
    """Evaluate ``node`` by walking its tree (the pre-compilation semantics)."""
    if isinstance(node, (IntConst, BoolConst, StrConst)):
        return node.value
    if type(node) in _REF_UNBOUND:
        return _ref_lookup(env, node, f"unbound {_REF_UNBOUND[type(node)]} {node.name!r}")
    if isinstance(node, RowAttr):
        return _ref_lookup(env, node, f"unbound row attribute {node.row}.{node.attr}")
    if isinstance(node, Item):
        return state.read_item(node.name)
    if isinstance(node, Field):
        index = ref_eval(node.index, state, env)
        if not isinstance(index, int):
            raise EvaluationError(f"array index of {node!r} is not an integer")
        return state.read_field(node.array, index, node.attr)
    if type(node) in _REF_ARITH:
        lhs = ref_eval(node.left, state, env)
        rhs = ref_eval(node.right, state, env)
        if not isinstance(lhs, int) or not isinstance(rhs, int):
            raise EvaluationError(f"non-integer operand in {node!r}")
        return _REF_ARITH[type(node)](lhs, rhs)
    if isinstance(node, Neg):
        value = ref_eval(node.operand, state, env)
        if not isinstance(value, int):
            raise EvaluationError(f"non-integer operand in {node!r}")
        return -value
    if isinstance(node, CountWhere):
        return sum(
            1
            for row in state.rows(node.table)
            if ref_eval(node.where, state, _ref_bind(env, node.row, row))
        )
    if isinstance(node, Top):
        return True
    if isinstance(node, Bottom):
        return False
    if isinstance(node, Cmp):
        return _REF_CMP[node.op](ref_eval(node.left, state, env), ref_eval(node.right, state, env))
    if isinstance(node, BoolAtom):
        return bool(ref_eval(node.term, state, env))
    if isinstance(node, Not):
        return not ref_eval(node.operand, state, env)
    if isinstance(node, And):
        return all(ref_eval(op, state, env) for op in node.operands)
    if isinstance(node, Or):
        return any(ref_eval(op, state, env) for op in node.operands)
    if isinstance(node, Implies):
        return (not ref_eval(node.premise, state, env)) or ref_eval(node.conclusion, state, env)
    if isinstance(node, (ForAllRows, ExistsRow)):
        want = isinstance(node, ExistsRow)
        for row in state.rows(node.table):
            row_env = _ref_bind(env, node.row, row)
            if ref_eval(node.where, state, row_env) and ref_eval(node.body, state, row_env) == want:
                return want
        return not want
    if isinstance(node, ForAllInts):
        low = ref_eval(node.low, state, env)
        high = ref_eval(node.high, state, env)
        if not isinstance(low, int) or not isinstance(high, int):
            raise EvaluationError(f"non-integer bounds in {node!r}")
        for value in range(low, high + 1):
            if not ref_eval(node.body, state, {**env, BoundVar(node.var): value}):
                return False
        return True
    if isinstance(node, InTable):
        wanted = {attr: ref_eval(term, state, env) for attr, term in node.values}
        return any(
            all(attr in row and row[attr] == value for attr, value in wanted.items())
            for row in state.rows(node.table)
        )
    if isinstance(node, AbstractPred):
        if node.evaluator is None:
            raise EvaluationError(f"abstract predicate {node.name!r} has no evaluator")
        return node.evaluator(state, env)
    raise TypeError(f"no reference semantics for {node!r}")


#: What every AbstractPred evaluator below saw, in call order.
_SEEN: list = []


def _record_env(state, env):
    """An evaluator whose verdict and log depend on every quantifier binding."""
    view = tuple(
        sorted(
            (repr(key), key.sort, repr(value))
            for key, value in env.items()
            if isinstance(key, (RowAttr, BoundVar))
        )
    )
    _SEEN.append(view)
    return len(view) % 3 != 1


def _outcome(evaluate, node, state, env):
    """The value, or the error type and message, plus what evaluators saw."""
    _SEEN.clear()
    try:
        result = ("value", evaluate(node, state, env))
    except (EvaluationError, TypeError) as error:
        result = (type(error).__name__, str(error) if isinstance(error, EvaluationError) else "")
    return result, list(_SEEN)


_ROW_VARS = ("r", "s")
_TABLES = ("T", "U")
_values = st.one_of(st.integers(-2, 3), st.booleans(), st.just("z"))

_leaf_terms = st.one_of(
    st.integers(-2, 3).map(IntConst),
    st.sampled_from(
        [Param("p"), Local("l"), LogicalVar("g"), Item("x"), Item("missing"), BoundVar("i"),
         StrConst("z")]
        + [RowAttr(row, attr) for row in _ROW_VARS for attr in ("a", "b", "c")]
    ),
)
_terms = st.recursive(
    _leaf_terms,
    lambda sub: st.one_of(
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Neg, sub),
        st.builds(lambda index: Field("arr", index, "v"), sub),
    ),
    max_leaves=4,
)


def _cmp(op, left, right):
    if left.sort == "str" or right.sort == "str":
        op = "==" if op in ("==", "<=", ">=") else "!="
    return Cmp(op, left, right)


_ops = st.sampled_from(sorted(_REF_CMP))
_base_formulas = st.one_of(
    st.builds(_cmp, _ops, _terms, _terms),
    st.sampled_from([TRUE, FALSE]),
    st.sampled_from([BoolAtom(RowAttr(row, "a", "bool")) for row in _ROW_VARS]),
    st.builds(
        lambda table, a, b: InTable(table, (("a", a), ("b", b))), st.sampled_from(_TABLES), _terms, _terms
    ),
    st.sampled_from([AbstractPred("seen", evaluator=_record_env), AbstractPred("opaque")]),
)


def _extend(sub):
    tables, rows = st.sampled_from(_TABLES), st.sampled_from(_ROW_VARS)
    return st.one_of(
        st.builds(Not, sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda ops: And(tuple(ops))),
        st.lists(sub, min_size=2, max_size=3).map(lambda ops: Or(tuple(ops))),
        st.builds(Implies, sub, sub),
        st.builds(ForAllRows, tables, rows, sub, sub),
        st.builds(ExistsRow, tables, rows, sub, sub),
        st.builds(lambda low, high, body: ForAllInts("i", low, high, body), _terms, _terms, sub),
        st.builds(
            lambda table, row, where, op, other: _cmp(op, CountWhere(table, row, where), other),
            tables, rows, sub, _ops, _terms,
        ),
    )


_formulas = st.recursive(_base_formulas, _extend, max_leaves=6)


def _rows(attrs):
    # rows may lack an attribute, so missing-attribute errors and shadowed
    # reads through an outer row of the same name both occur
    return st.lists(st.dictionaries(st.sampled_from(attrs), _values), max_size=3)


_states = st.builds(
    lambda t, u, x, arr: DbState(
        items={"x": x}, arrays={"arr": {i: {"v": v} for i, v in enumerate(arr)}},
        tables={"T": t, "U": u},
    ),
    _rows(("a", "b")),
    _rows(("a", "c")),
    st.integers(-2, 3),
    st.lists(st.integers(-2, 3), max_size=3),
)
_envs = st.dictionaries(
    st.sampled_from([Param("p"), Local("l"), LogicalVar("g"), RowAttr("r", "a"), BoundVar("i")]),
    _values,
    max_size=5,
)


class TestCompiledEvaluation:
    @settings(max_examples=400, deadline=None)
    @given(formula=_formulas, state=_states, env=_envs)
    def test_agrees_with_reference_interpreter(self, formula, state, env):
        compiled = _outcome(lambda n, s, e: n.evaluate(s, e), formula, state, env)
        reference = _outcome(ref_eval, formula, state, env)
        assert compiled == reference

    @settings(max_examples=200, deadline=None)
    @given(term=_terms, state=_states, env=_envs)
    def test_terms_agree_with_reference_interpreter(self, term, state, env):
        compiled = _outcome(lambda n, s, e: n.evaluate(s, e), term, state, env)
        assert compiled == _outcome(ref_eval, term, state, env)

    @pytest.mark.parametrize(
        "inner",
        [
            lambda where: ExistsRow("U", "r", where),
            lambda where: Not(ForAllRows("U", "r", Not(where))),
            lambda where: eq(CountWhere("U", "r", where), 1),
        ],
        ids=["exists", "forall", "count"],
    )
    def test_shadowed_row_reads_outer_attribute(self, inner):
        # the inner r ranges over U, whose rows lack b: r.b is the outer row's
        state = DbState(tables={"T": [{"a": 1, "b": 5}], "U": [{"a": 2, "c": 0}]})
        where = conj(eq(RowAttr("r", "a"), 2), eq(RowAttr("r", "b"), 5))
        formula = ForAllRows("T", "r", conj(inner(where), eq(RowAttr("r", "a"), 1)))
        assert formula.evaluate(state, {}) is True
        assert ref_eval(formula, state, {}) is True

    def test_abstract_pred_inside_quantifier_sees_rows(self):
        seen = []

        def evaluator(state, env):
            seen.append(dict(env))
            return True

        state = DbState(tables={"T": [{"a": 1}]})
        formula = ForAllInts("i", IntConst(0), IntConst(0), ForAllRows("T", "r", AbstractPred("q", evaluator=evaluator)))
        assert formula.evaluate(state, {Param("p"): 7})
        assert seen == [
            {
                Param("p"): 7,
                BoundVar("i"): 0,
                RowAttr("r", "a"): 1,
                RowAttr("r", "a", "bool"): 1,
                RowAttr("r", "a", "str"): 1,
            }
        ]

    @pytest.mark.parametrize(
        "node, message",
        [
            (Param("p"), "unbound parameter 'p'"),
            (Local("l"), "unbound local variable 'l'"),
            (LogicalVar("g"), "unbound logical variable 'g'"),
            (RowAttr("r", "a"), "unbound row attribute r.a"),
            (BoundVar("i"), "unbound quantified variable 'i'"),
            (Field("arr", StrConst("z"), "v"), "array index of arr['z'].v is not an integer"),
            (Add(IntConst(1), StrConst("z")), "non-integer operand in Add(left=1, right='z')"),
            (Neg(StrConst("z")), "non-integer operand in (-'z')"),
            (
                ForAllInts("i", StrConst("z"), IntConst(1), TRUE),
                "non-integer bounds in (forall 'z' <= $i <= 1: true)",
            ),
            (
                ForAllRows("T", "r", eq(RowAttr("r", "b"), 1)),
                "unbound row attribute r.b",
            ),
        ],
    )
    def test_evaluation_errors_match_reference(self, node, message):
        state = DbState(tables={"T": [{"a": 1}]})
        for evaluate in (lambda n, s, e: n.evaluate(s, e), ref_eval):
            with pytest.raises(EvaluationError) as caught:
                evaluate(node, state, {})
            assert str(caught.value) == message


def _sample_formula(tag: int):
    """A formula with a quantifier, an aggregate and an integer range."""
    return conj(
        ForAllRows("T", "r", le(RowAttr("r", "k"), Param("p") + tag)),
        eq(CountWhere("T", "s", ge(RowAttr("s", "k"), 2)), 1),
        ForAllInts("d", IntConst(1), Item("max"), ExistsRow("T", "q", eq(RowAttr("q", "due"), BoundVar("d")))),
    )


class TestCompiledEvaluationCache:
    def test_evaluated_formula_pickles_and_round_trips(self, state):
        formula = _sample_formula(0)
        env = {Param("p"): 2}
        assert formula.evaluate(state, env) is True
        assert "_hc_fn" in formula.__dict__
        clone = pickle.loads(pickle.dumps(formula))
        assert clone == formula
        assert "_hc_fn" not in clone.__dict__
        assert clone.evaluate(state, env) is True
        count = CountWhere("T", "s", TRUE)
        assert count.evaluate(state, {}) == 2
        assert pickle.loads(pickle.dumps(count)).evaluate(state, {}) == 2

    def test_agrees_without_hash_consing(self, state, monkeypatch):
        envs = [{Param("p"): value} for value in range(-1, 4)]
        consed = [_sample_formula(1).evaluate(state, env) for env in envs]
        monkeypatch.setattr(terms, "HASH_CONSING", False)
        fresh = _sample_formula(1)
        assert fresh is not _sample_formula(1)
        assert [fresh.evaluate(state, env) for env in envs] == consed
        assert consed == [ref_eval(fresh, state, env) for env in envs]

    def test_threads_first_evaluating_a_fresh_formula_agree(self, state):
        workers, rounds = 4, 40
        envs = [{Param("p"): value} for value in range(-1, 3)]
        formulas = [_sample_formula(1000 + n) for n in range(rounds)]
        assert all("_hc_fn" not in f.__dict__ for f in formulas)
        expected = [[ref_eval(f, state, env) for env in envs] for f in formulas]
        results = [[None] * rounds for _ in range(workers)]
        barrier = threading.Barrier(workers)

        def work(slot: int) -> None:
            for n, formula in enumerate(formulas):
                barrier.wait(timeout=10)
                results[slot][n] = [formula.evaluate(state, env) for env in envs]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * workers
