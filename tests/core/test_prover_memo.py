"""Exactness of the prover's settled-work shortcuts.

``_dnf_size`` decides the DNF cap without building cubes, so it must agree
with ``_dnf_cubes`` on every formula, overflow included.  The literal memo
replays a literal's atoms into the cube's variable table, so a warm memo
must number variables as a fresh translation does, and hence pick the
models a cold memo picks; its interval facts must be a fresh
translation's too.
"""

import random

import pytest

import repro.core.prover as prover
from repro.core.formula import FALSE, TRUE, And, Cmp, Or, conj, disj, ge, gt, le, lt
from repro.core.prover import (
    _dnf_cubes,
    _dnf_size,
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


def _random_nnf(rng: random.Random, depth: int):
    """Raw ``And``/``Or`` trees (no flattening) over literals, Top and Bottom."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(LITERALS + [TRUE, FALSE])
    operands = tuple(_random_nnf(rng, depth - 1) for _ in range(rng.randint(1, 4)))
    return And(operands) if roll < 0.6 else Or(operands)


def _assert_agree(formula) -> None:
    cubes = _dnf_cubes(formula)
    size = _dnf_size(formula)
    if cubes is None:
        assert size is None, formula
    else:
        assert size == len(cubes), formula


@pytest.mark.parametrize("cap", [1, 3, 8, 64, prover.MAX_CUBES])
def test_dnf_size_agrees_with_cubes_on_random_formulas(cap, monkeypatch):
    monkeypatch.setattr(prover, "MAX_CUBES", cap)
    rng = random.Random(cap)
    overflowed = fitted = 0
    for _ in range(400):
        formula = _random_nnf(rng, 4)
        _assert_agree(formula)
        overflowed += _dnf_cubes(formula) is None
        fitted += _dnf_cubes(formula) is not None
    if cap < 64:
        assert overflowed and fitted  # both sides of the cap are exercised


def _wide_or(n: int):
    return Or(tuple(LITERALS[i % len(LITERALS)] for i in range(n)))


def test_dnf_size_cap_edges(monkeypatch):
    monkeypatch.setattr(prover, "MAX_CUBES", 6)
    cases = [
        And((_wide_or(7), FALSE)),  # overflows before the Bottom zeroes it
        And((FALSE, _wide_or(7))),  # zero first; the overflowing operand still counts
        And((_wide_or(2), _wide_or(3))),  # exactly at the cap
        And((_wide_or(2), _wide_or(3), _wide_or(2))),  # over it
        Or((_wide_or(3), _wide_or(3))),  # a sum exactly at the cap
        Or((_wide_or(3), _wide_or(4))),  # one over it
        Or((_wide_or(7), FALSE)),
        And(()),
        Or(()),
        TRUE,
        FALSE,
    ]
    for formula in cases:
        _assert_agree(formula)
    assert _dnf_size(cases[0]) is None and _dnf_size(cases[1]) is None
    assert _dnf_size(cases[2]) == 6 and _dnf_size(cases[3]) is None
    assert _dnf_size(cases[4]) == 6 and _dnf_size(cases[5]) is None
    assert _dnf_size(FALSE) == 0 and _dnf_size(TRUE) == 1


def test_capped_query_keeps_its_verdict_and_reason(monkeypatch):
    monkeypatch.setattr(prover, "MAX_CUBES", 4)
    clear_prover_caches()
    goal = conj(*(disj(lt(X, IntConst(i)), gt(Y, IntConst(i))) for i in range(3)))
    result = is_satisfiable(goal)
    assert result.verdict == prover.Verdict.UNKNOWN
    assert result.reason == "DNF size cap exceeded"


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
    # the cube {x < 0, x > 2} sorts first and contradicts; {y > 1, z > 0} is SAT
    clear_prover_caches()
    result = is_satisfiable(
        disj(conj(lt(X, IntConst(0)), gt(X, IntConst(2))), conj(gt(Y, IntConst(1)), gt(Z, IntConst(0))))
    )
    assert result.verdict == prover.Verdict.SAT
    stats = prover_cache_stats()
    assert stats["cubes_refuted"] == 1
    assert stats["cubes_sat"] == 1 and stats["cubes_unsat"] == 0
    clear_prover_caches()
    assert prover_cache_stats()["cubes_refuted"] == 0


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
