"""Row-quantifier instantiation and product congruence against brute force.

The prover decides a query first with every quantifier, aggregate and
non-constant product read as an opaque atom, as it always has.  When that
leaves the query open and the goal reads a table or multiplies two
non-constant terms, it retries: existentials are Skolemised, universals
instantiated at the rows and integers that introduces, and products
related by congruence.  The retry may only turn UNKNOWN into UNSAT.

Over random formulas that mix row quantifiers (nested ones included),
``COUNT`` aggregates, membership, integer quantifiers and products, every
UNSAT answer is checked by brute force: no state with at most two rows in
the table and small item values may satisfy the formula.  A SAT answer
must never come from a formula that needed an abstraction.  The retry
must prove a fair share of formulas the first pass leaves open, or the
check would be vacuous.
"""

import itertools
import random

from repro.core import prover
from repro.core.formula import (
    BoundVar,
    Cmp,
    CountWhere,
    ExistsRow,
    ForAllInts,
    ForAllRows,
    InTable,
    Not,
    RowAttr,
    conj,
    disj,
    implies,
)
from repro.core.prover import Verdict, clear_prover_caches
from repro.core.state import DbState
from repro.core.terms import Add, IntConst, Item, Mul, Param
from repro.errors import EvaluationError

X, Y, P = Item("x"), Item("y"), Param("p")
SCALARS = (X, Y, P)
VALUES = (-1, 0, 1, 2)
ROW_VALUES = (0, 1)
OPS = ("==", "!=", "<", "<=", ">", ">=")


def _scalar(rng) -> object:
    term = rng.choice(SCALARS + (IntConst(rng.choice(VALUES)),))
    if rng.random() < 0.3:
        term = Add(term, IntConst(rng.choice((-1, 1))))
    return term


def _row_term(rng, rows) -> object:
    if rng.random() < 0.7:
        return RowAttr(rng.choice(rows), rng.choice(("k", "v")))
    return _scalar(rng)


def _row_literal(rng, rows) -> object:
    return Cmp(rng.choice(OPS), _row_term(rng, rows), _row_term(rng, rows))


def _body(rng, rows, depth) -> object:
    """A matrix over the row variables ``rows`` (innermost last)."""
    roll = rng.random()
    if depth > 0 and roll < 0.2:
        inner = f"s{len(rows)}"
        kind = rng.choice((ForAllRows, ExistsRow))
        return kind("T", inner, _body(rng, rows + [inner], depth - 1))
    if depth > 0 and roll < 0.3:
        inner = f"s{len(rows)}"
        count = CountWhere("T", inner, _row_literal(rng, rows + [inner]))
        return Cmp(rng.choice(OPS), count, IntConst(rng.choice((0, 1, 2))))
    if roll < 0.5:
        return _row_literal(rng, rows)
    parts = [_row_literal(rng, rows) for _ in range(rng.choice((2, 3)))]
    return rng.choice((conj, disj))(*parts) if rng.random() < 0.7 else implies(*parts[:2])


def _quantified(rng) -> object:
    roll = rng.random()
    if roll < 0.35:
        return ForAllRows("T", "r", _body(rng, ["r"], 1))
    if roll < 0.6:
        return ExistsRow("T", "r", _body(rng, ["r"], 1))
    if roll < 0.7:
        return InTable("T", (("k", _scalar(rng)), ("v", _scalar(rng))))
    if roll < 0.8:
        where = _row_literal(rng, ["r"])
        return Cmp(rng.choice(OPS), CountWhere("T", "r", where), _scalar(rng))
    if roll < 0.9:
        d = BoundVar("d")
        body = ExistsRow("T", "r", Cmp("==", RowAttr("r", "k"), d))
        return ForAllInts("d", IntConst(0), _scalar(rng), body)
    return Cmp(rng.choice(OPS), Mul(rng.choice(SCALARS), rng.choice(SCALARS)), _scalar(rng))


def _tweak(formula, rng):
    """``formula`` with one scalar shifted: the shape of an interference goal."""
    scalars = [atom for atom in formula.atoms() if atom in SCALARS]
    if not scalars:
        return Not(formula)
    atom = rng.choice(scalars)
    return formula.substitute({atom: Add(atom, IntConst(rng.choice((-1, 1))))})


def _formula(rng) -> object:
    """A conjunction of quantified facts and the negation of a tweaked one."""
    facts = [_quantified(rng) for _ in range(rng.choice((1, 2, 3)))]
    extra = [Cmp(rng.choice(OPS), _scalar(rng), _scalar(rng)) for _ in range(rng.choice((0, 1)))]
    goal = rng.choice(facts)
    if rng.random() < 0.8:
        goal = _tweak(goal, rng)
    if rng.random() < 0.3:
        goal = disj(goal, rng.choice(facts))
    return conj(*facts, *extra, Not(goal))


def _states():
    rows = [{"k": k, "v": v} for k in ROW_VALUES for v in ROW_VALUES]
    tables = [()] + [(row,) for row in rows] + list(itertools.combinations_with_replacement(rows, 2))
    for table in tables:
        for x, y, p in itertools.product(VALUES, repeat=3):
            state = DbState(items={"x": x, "y": y}, tables={"T": [dict(row) for row in table]})
            yield state, {P: p}


STATES = list(_states())


def _model(formula):
    """A state of the small domain that satisfies ``formula``, if any."""
    for state, env in STATES:
        try:
            if formula.evaluate(state, env):
                return state, env
        except EvaluationError:
            continue
    return None


def _first_pass(formula):
    goal = prover.simplify(formula)
    return prover._decide_goal(goal, prover._congruence_axioms(goal), False)


def test_every_unsat_survives_brute_force():
    rng = random.Random(2027)
    clear_prover_caches()
    unsat = retried = 0
    for _ in range(400):
        formula = _formula(rng)
        result = prover.is_satisfiable(formula)
        if result.verdict == Verdict.SAT:
            # a genuine model: only quantifier- and product-free goals get one
            assert not prover._beyond_linear(prover.simplify(formula)), formula
            continue
        if result.verdict != Verdict.UNSAT:
            continue
        unsat += 1
        assert _model(formula) is None, f"UNSAT refuted by brute force: {formula!r}"
        if _first_pass(formula).verdict != Verdict.UNSAT:
            retried += 1
    assert unsat >= 100
    assert retried >= 20  # the retry is not vacuous


def test_retry_proves_a_bound_raised_by_a_write():
    """``∀m. m.d <= M`` before a write and with ``M + 1`` after it."""
    bound = ForAllRows("T", "m", Cmp("<=", RowAttr("m", "k"), X))
    after = ForAllRows("T", "m", Cmp("<=", RowAttr("m", "k"), Add(X, IntConst(1))))
    clear_prover_caches()
    assert _first_pass(conj(bound, Not(after))).verdict == Verdict.UNKNOWN
    assert prover.is_valid(implies(bound, after)).verdict == Verdict.VALID
    # the converse does not hold, and stays unknown (never INVALID)
    assert prover.is_valid(implies(after, bound)).verdict == Verdict.UNKNOWN


def test_existential_premise_is_not_instantiated_at_other_rows():
    """``∃r. r.k > x`` says nothing of a row the goal names elsewhere."""
    some = ExistsRow("T", "r", Cmp(">", RowAttr("r", "k"), X))
    named = InTable("T", (("k", Y), ("v", IntConst(0))))
    clear_prover_caches()
    result = prover.is_valid(implies(conj(some, named), Cmp(">", Y, X)))
    assert result.verdict != Verdict.VALID


def test_products_are_congruent_terms():
    """``a*b == s`` survives a write elsewhere; equal factors, equal products."""
    from repro.core.terms import Field

    i, j = Param("i"), Param("j")
    rate, hrs, sal = (Field("emp", i, attr) for attr in ("rate", "hrs", "sal"))
    product = Mul(rate, hrs)
    other = Mul(Field("emp", j, "rate"), Field("emp", j, "hrs"))
    clear_prover_caches()
    premise = conj(Cmp("==", product, sal), Cmp("==", i, j))
    assert prover.is_valid(implies(premise, Cmp("==", other, sal))).verdict == Verdict.VALID
    # unequal indices leave the products unrelated: no proof, no model
    premise = conj(Cmp("==", product, sal), Cmp("!=", i, j))
    assert prover.is_valid(implies(premise, Cmp("==", other, sal))).verdict == Verdict.UNKNOWN
