"""Exactness of the prover's settled-work shortcuts.

The search gives up at ``MAX_NODES`` nodes, and not one node earlier.  The
literal memo replays a literal's atoms into the cube's variable table, so
a warm memo must number variables as a fresh translation does, and hence
pick the models a cold memo picks; its interval facts must be a fresh
translation's too.
"""

import pytest

import repro.core.prover as prover
from repro.core.formula import Cmp, conj, disj, ge, gt, le, lt
from repro.core.prover import (
    _int_constraints_of_literal,
    _interval_facts,
    _literal_entry,
    _translate_literal,
    clear_prover_caches,
    is_satisfiable,
    prover_cache_stats,
)
from repro.core.terms import IntConst, Item

X, Y, Z = Item("x"), Item("y"), Item("z")
LITERALS = [lt(X, Y), le(Y, Z), gt(Z, IntConst(2)), ge(X, IntConst(0)), Cmp("==", X, Z)]


#: ``x < i ∨ y > i`` for i = 0..2: alone (SAT at the first leaf), with
#: ``x >= 5`` (SAT after backtracking) and with ``y <= 0`` too (UNSAT)
BUDGET_QUERIES = [
    conj(*(disj(lt(X, IntConst(i)), gt(Y, IntConst(i))) for i in range(3))),
    conj(*(disj(lt(X, IntConst(i)), gt(Y, IntConst(i))) for i in range(3)), ge(X, IntConst(5))),
    conj(
        *(disj(lt(X, IntConst(i)), gt(Y, IntConst(i))) for i in range(3)),
        ge(X, IntConst(5)),
        le(Y, IntConst(0)),
    ),
]


def _nodes_needed(goal) -> tuple:
    """The verdict of ``goal`` at the default budget and the nodes it took."""
    clear_prover_caches()
    result = is_satisfiable(goal)
    return result.verdict, prover_cache_stats()["search_nodes"]


def test_capped_query_keeps_its_verdict_and_reason(monkeypatch):
    monkeypatch.setattr(prover, "MAX_NODES", 2)
    clear_prover_caches()
    result = is_satisfiable(BUDGET_QUERIES[0])
    assert result.verdict == prover.Verdict.UNKNOWN
    assert result.reason == "search node budget exceeded"
    assert prover_cache_stats()["search_nodes"] == 2


@pytest.mark.parametrize("goal", BUDGET_QUERIES)
def test_node_budget_edges(goal, monkeypatch):
    verdict, needed = _nodes_needed(goal)
    assert verdict in (prover.Verdict.SAT, prover.Verdict.UNSAT) and needed > 2
    monkeypatch.setattr(prover, "MAX_NODES", needed)
    assert _nodes_needed(goal) == (verdict, needed)
    monkeypatch.setattr(prover, "MAX_NODES", needed - 1)
    clear_prover_caches()
    result = is_satisfiable(goal)
    assert (result.verdict, result.reason) == (prover.Verdict.UNKNOWN, "search node budget exceeded")


def test_warm_literal_memo_gives_the_cold_model():
    # the warm-up query meets the shared literals in another order and
    # alongside another atom, so the goal's cubes start from warm entries
    goal = conj(lt(X, Y), le(Y, Z), gt(Z, IntConst(2)), ge(X, IntConst(0)))
    warm_up = conj(gt(Z, IntConst(2)), le(Y, Z), ge(Item("w"), Z), lt(X, Y))
    clear_prover_caches()
    cold = is_satisfiable(goal)
    assert cold.verdict == prover.Verdict.SAT
    clear_prover_caches()
    is_satisfiable(warm_up)
    assert prover_cache_stats()["literal_memo_size"] > 0
    warm = is_satisfiable(goal)
    assert warm.verdict == cold.verdict
    assert warm.model == cold.model
    assert list(warm.model) == list(cold.model)


def test_memo_replays_the_fresh_registration_order():
    """A warm memo numbers variables exactly as a fresh translation does."""
    W = Item("w")
    literals = [
        Cmp("==", X + Y, IntConst(5)),
        lt(Z + W, X),
        le(Y, W + Z),
        ge(W + X + Y, Z),
    ]
    clear_prover_caches()
    for literal in reversed(literals):  # warm it from other variable tables
        _int_constraints_of_literal(literal, {Z: 0})
    memo_vars, fresh_vars = {}, {}
    for literal in literals:
        memoised = _int_constraints_of_literal(literal, memo_vars)
        fresh = _translate_literal(literal, fresh_vars)
        assert memoised == fresh
        assert [list(c.coeffs) for c in memoised] == [list(c.coeffs) for c in fresh]
    assert list(memo_vars.items()) == list(fresh_vars.items())


def test_clear_prover_caches_empties_the_literal_memo():
    clear_prover_caches()
    is_satisfiable(conj(lt(X, Y), gt(Y, IntConst(1))))
    assert prover_cache_stats()["literal_memo_size"] > 0
    clear_prover_caches()
    assert prover_cache_stats()["literal_memo_size"] == 0


def test_refuted_counter_moves_on_a_sat_query_and_resets():
    # the branch {x < 0, x > 2} is tried first and its intervals contradict;
    # {y > 1, z > 0} is a SAT leaf
    clear_prover_caches()
    result = is_satisfiable(
        disj(conj(lt(X, IntConst(0)), gt(X, IntConst(2))), conj(gt(Y, IntConst(1)), gt(Z, IntConst(0))))
    )
    assert result.verdict == prover.Verdict.SAT
    stats = prover_cache_stats()
    assert (stats["search_nodes"], stats["search_pruned"], stats["search_leaves"]) == (3, 1, 1)
    assert stats["cubes_sat"] == 1 and stats["cubes_unsat"] == 0
    clear_prover_caches()
    assert prover_cache_stats()["search_pruned"] == 0


def test_warm_literal_memo_gives_the_fresh_facts():
    W = Item("w")
    literals = [
        Cmp("==", X + X, Y + IntConst(3)),  # 2x - y == 3
        lt(Z - W, IntConst(1)),
        ge(W - Z, IntConst(4)),  # shares z - w's key with the line above
        le(IntConst(3) * Y, IntConst(7)),
        Cmp("==", IntConst(2) * X, IntConst(2) * Y + IntConst(1)),  # refutes itself
    ]
    clear_prover_caches()
    for literal in reversed(literals):
        _int_constraints_of_literal(literal, {Z: 0})
    for literal in literals:
        _constraints, _atoms, facts = _literal_entry(literal)
        assert facts == _interval_facts(_translate_literal(literal, {}))
    keys = [facts[0][0] for _c, _a, facts in map(_literal_entry, literals[1:3])]
    assert keys[0] == keys[1]
    assert _literal_entry(literals[3])[2] == ((((Y, 1),), float("-inf"), 2),)
    assert _literal_entry(literals[4])[2] is None
