"""Property-based tests (hypothesis) for the core invariants.

These cover the algebraic laws everything else leans on:

* substitution and simplification preserve evaluation;
* the prover's models genuinely satisfy/falsify their formulas;
* strongest postconditions are sound w.r.t. concrete execution;
* whole-transaction symbolic stores agree with concrete runs;
* engine aborts restore the pre-transaction state exactly;
* serial engine execution agrees with the direct interpreter;
* two-phase-locked (SERIALIZABLE) schedules pass the SERIALIZABLE axiom.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import formula as fm
from repro.core import terms as tm
from repro.core.formula import FALSE, Not, TRUE, conj, disj
from repro.core.prover import Verdict, is_satisfiable, is_valid, simplify, simplify_term
from repro.core.state import DbState

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

ITEM_NAMES = ("x", "y", "z")
LOCAL_NAMES = ("u", "v")

small_ints = st.integers(min_value=-4, max_value=4)


def atom_terms():
    return st.one_of(
        small_ints.map(tm.IntConst),
        st.sampled_from(ITEM_NAMES).map(tm.Item),
        st.sampled_from(LOCAL_NAMES).map(tm.Local),
    )


def int_terms(depth=2):
    if depth == 0:
        return atom_terms()
    sub = int_terms(depth - 1)
    return st.one_of(
        atom_terms(),
        st.builds(tm.Add, sub, sub),
        st.builds(tm.Sub, sub, sub),
        st.builds(tm.Neg, sub),
    )


def comparisons():
    ops = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
    return st.builds(fm.Cmp, ops, int_terms(), int_terms())


def formulas(depth=2):
    if depth == 0:
        return comparisons()
    sub = formulas(depth - 1)
    return st.one_of(
        comparisons(),
        st.builds(Not, sub),
        st.builds(lambda a, b: conj(a, b), sub, sub),
        st.builds(lambda a, b: disj(a, b), sub, sub),
        st.builds(fm.Implies, sub, sub),
    )


def environments():
    return st.fixed_dictionaries(
        {tm.Local(name): small_ints for name in LOCAL_NAMES}
    )


def states():
    return st.fixed_dictionaries({name: small_ints for name in ITEM_NAMES}).map(
        lambda items: DbState(items=dict(items))
    )


# ---------------------------------------------------------------------------
# evaluation laws
# ---------------------------------------------------------------------------


@given(formulas(), states(), environments())
@settings(max_examples=150, deadline=None)
def test_simplify_preserves_evaluation(formula, state, env):
    assert formula.evaluate(state, env) == simplify(formula).evaluate(state, env)


@given(int_terms(), states(), environments())
@settings(max_examples=150, deadline=None)
def test_simplify_term_preserves_evaluation(term, state, env):
    assert term.evaluate(state, env) == simplify_term(term).evaluate(state, env)


@given(int_terms(), small_ints, states(), environments())
@settings(max_examples=100, deadline=None)
def test_substitution_agrees_with_environment_update(term, value, state, env):
    """term[u := c] evaluated == term evaluated with u bound to c."""
    target = tm.Local("u")
    substituted = term.substitute({target: tm.IntConst(value)})
    env_updated = dict(env)
    env_updated[target] = value
    assert substituted.evaluate(state, env) == term.evaluate(state, env_updated)


@given(formulas(), small_ints, states(), environments())
@settings(max_examples=100, deadline=None)
def test_formula_substitution_agrees_with_environment(formula, value, state, env):
    target = tm.Local("u")
    substituted = formula.substitute({target: tm.IntConst(value)})
    env_updated = dict(env)
    env_updated[target] = value
    assert substituted.evaluate(state, env) == formula.evaluate(state, env_updated)


# ---------------------------------------------------------------------------
# prover soundness
# ---------------------------------------------------------------------------


def _model_env(model):
    env = {}
    state = DbState(items={name: 0 for name in ITEM_NAMES})
    for term, value in (model or {}).items():
        if isinstance(term, tm.Item):
            state.write_item(term.name, value)
        else:
            env[term] = value
    for name in LOCAL_NAMES:
        env.setdefault(tm.Local(name), 0)
    return state, env


@given(formulas())
@settings(max_examples=120, deadline=None)
def test_sat_models_satisfy(formula):
    result = is_satisfiable(formula)
    if result.verdict == Verdict.SAT:
        state, env = _model_env(result.model)
        assert formula.evaluate(state, env)


@given(formulas())
@settings(max_examples=120, deadline=None)
def test_invalid_counterexamples_falsify(formula):
    result = is_valid(formula)
    if result.verdict == Verdict.INVALID:
        state, env = _model_env(result.model)
        assert not formula.evaluate(state, env)


@given(formulas(), states(), environments())
@settings(max_examples=120, deadline=None)
def test_valid_formulas_hold_everywhere(formula, state, env):
    if is_valid(formula).verdict == Verdict.VALID:
        assert formula.evaluate(state, env)


@given(formulas(), states(), environments())
@settings(max_examples=120, deadline=None)
def test_unsat_formulas_hold_nowhere(formula, state, env):
    if is_satisfiable(formula).verdict == Verdict.UNSAT:
        assert not formula.evaluate(state, env)


# ---------------------------------------------------------------------------
# strongest postconditions vs concrete execution
# ---------------------------------------------------------------------------


@given(formulas(depth=1), states(), environments(), st.sampled_from(ITEM_NAMES))
@settings(max_examples=100, deadline=None)
def test_sp_sound_for_reads(pre, state, env, item):
    """If P holds before a read, sp(P, read) holds after."""
    from repro.core.program import Read
    from repro.core.sp import sp_statement

    if not pre.evaluate(state, env):
        return
    stmt = Read(tm.Local("u"), tm.Item(item))
    post = sp_statement(pre, stmt).formula
    env_after = dict(env)
    stmt.execute(state, env_after)
    # skolem ghosts: bind them to the overwritten value so the witness works
    ghosts = {
        atom: env[tm.Local("u")]
        for atom in post.atoms()
        if isinstance(atom, tm.LogicalVar) and atom.name.startswith("v!")
    }
    env_after.update(ghosts)
    assert post.evaluate(state, env_after)


@given(formulas(depth=1), states(), environments(), st.sampled_from(ITEM_NAMES))
@settings(max_examples=100, deadline=None)
def test_sp_sound_for_writes(pre, state, env, item):
    from repro.core.program import Write
    from repro.core.sp import sp_statement

    if not pre.evaluate(state, env):
        return
    stmt = Write(tm.Item(item), tm.Local("u"))
    post = sp_statement(pre, stmt).formula
    old_value = state.read_item(item)
    env_after = dict(env)
    stmt.execute(state, env_after)
    ghosts = {
        atom: old_value
        for atom in post.atoms()
        if isinstance(atom, tm.LogicalVar) and atom.name.startswith("v!")
    }
    env_after.update(ghosts)
    assert post.evaluate(state, env_after)


# ---------------------------------------------------------------------------
# symbolic effects vs concrete execution
# ---------------------------------------------------------------------------


@given(states(), small_ints)
@settings(max_examples=80, deadline=None)
def test_symbolic_store_matches_concrete_run(state, delta):
    from repro.core.effects import symbolic_paths
    from repro.core.formula import ge
    from repro.core.program import If, Read, TransactionType, Write

    txn = TransactionType(
        name="T",
        body=(
            Read(tm.Local("u"), tm.Item("x")),
            If(
                ge(tm.Local("u"), 0),
                then=(Write(tm.Item("x"), tm.Local("u") + delta),),
                orelse=(Write(tm.Item("y"), tm.Local("u") - delta),),
            ),
        ),
    )
    initial = state.copy()
    concrete = state.copy()
    txn.run(concrete, {})
    paths = symbolic_paths(txn)
    # exactly one path condition is satisfied by the initial state
    matching = [
        p
        for p in paths
        if _eval_condition(p.condition, initial)
    ]
    assert len(matching) == 1
    store = matching[0].store
    for target, value in store.items():
        assert isinstance(target, tm.Item)
        assert concrete.read_item(target.name) == value.evaluate(initial, {})


def _eval_condition(condition, state):
    try:
        return condition.evaluate(state, {})
    except Exception:
        return False


# ---------------------------------------------------------------------------
# engine invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.sampled_from(ITEM_NAMES), small_ints), min_size=1, max_size=6
    ),
    states(),
)
@settings(max_examples=80, deadline=None)
def test_abort_restores_state_exactly(writes, initial):
    from repro.engine.manager import Engine

    engine = Engine(initial.copy())
    txn = engine.begin("READ COMMITTED")
    for item, value in writes:
        engine.write_item(txn, item, value)
    engine.abort(txn)
    assert engine.committed_state().same_as(initial)
    assert engine.live_state().same_as(initial)


@given(states(), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_serial_engine_run_matches_interpreter(initial, bump):
    """One transaction through the engine == TransactionType.run."""
    from repro.core.program import Read, TransactionType, Write
    from repro.engine.manager import Engine
    from repro.sched.simulator import InstanceSpec, Simulator

    txn_type = TransactionType(
        name="T",
        body=(
            Read(tm.Local("u"), tm.Item("x")),
            Write(tm.Item("x"), tm.Local("u") + bump),
            Read(tm.Local("w"), tm.Item("y")),
            Write(tm.Item("z"), tm.Local("w")),
        ),
    )
    direct = initial.copy()
    txn_type.run(direct, {})
    result = Simulator(initial.copy(), [InstanceSpec(txn_type, {}, "SERIALIZABLE")]).run()
    assert result.final.same_as(direct)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_serializable_schedules_pass_the_ser_axiom(seed):
    from repro.core.program import Read, TransactionType, Write
    from repro.sched.isolation import schedule_violations
    from repro.sched.simulator import InstanceSpec, Simulator

    def rw(read_item, write_item):
        return TransactionType(
            name=f"T_{read_item}{write_item}",
            body=(
                Read(tm.Local("u"), tm.Item(read_item)),
                Write(tm.Item(write_item), tm.Local("u") + 1),
            ),
        )

    specs = [
        InstanceSpec(rw("x", "y"), {}, "SERIALIZABLE", "A"),
        InstanceSpec(rw("y", "z"), {}, "SERIALIZABLE", "B"),
        InstanceSpec(rw("z", "x"), {}, "SERIALIZABLE", "C"),
    ]
    initial = DbState(items={"x": 0, "y": 0, "z": 0})
    result = Simulator(initial, specs, seed=seed, retry=True).run()
    assert schedule_violations(result) == []


# ---------------------------------------------------------------------------
# parser round trips
# ---------------------------------------------------------------------------


@given(formulas(), states(), environments())
@settings(max_examples=150, deadline=None)
def test_parser_round_trips_generated_formulas(formula, state, env):
    """Round-tripped formulas are structurally equal after normalisation
    (the parser folds ``- 1`` into the literal ``-1``) and always agree on
    evaluation."""
    from repro.core.parser import parse_formula, unparse_formula

    round_tripped = parse_formula(unparse_formula(formula))
    assert simplify(round_tripped) == simplify(formula)
    assert round_tripped.evaluate(state, env) == formula.evaluate(state, env)


@given(int_terms(), states(), environments())
@settings(max_examples=150, deadline=None)
def test_parser_round_trips_generated_terms(term, state, env):
    from repro.core.parser import parse_term, unparse_term

    round_tripped = parse_term(unparse_term(term))
    assert simplify_term(round_tripped) == simplify_term(term)
    assert round_tripped.evaluate(state, env) == term.evaluate(state, env)
