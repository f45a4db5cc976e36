"""The interval pre-check leaves every prover answer as it was.

``_is_satisfiable_impl`` sets aside the cubes whose literals already
contradict while it searches for the first SAT cube, and decides them
only when no cube is SAT.  The reference below is the cube loop (and the
cube decision) as they stood before the pre-check, kept verbatim; over
random formulas both must give the same verdict, reason, model (in the
same key order) and ``abstracted`` flag.  The formulas mix linear integer
literals over a few shared variables, array fields (so congruence axioms
add ``i == j`` case splits), bool atoms, string equalities, nonlinear
products (cubes the solver leaves undecided) and abstract predicates
(abstracted queries); a lowered ``MAX_CUBES`` makes some of them capped.
"""

import random

import pytest

from repro.core import prover
from repro.core.formula import (
    AbstractPred,
    BoolAtom,
    Bottom,
    Cmp,
    Formula,
    Not,
    Top,
    conj,
    disj,
    implies,
)
from repro.core.prover import (
    ProofResult,
    Verdict,
    _Opacifier,
    _congruence_axioms,
    _dnf_cubes,
    _dnf_size,
    _int_constraints_of_literal,
    _is_satisfiable_impl,
    _nnf,
    _solve_int_constraints,
    _solve_string_literals,
    clear_prover_caches,
    prover_cache_stats,
    simplify,
)
from repro.core.terms import (
    Add,
    BoolConst,
    Field,
    IntConst,
    Local,
    Mul,
    Neg,
    Param,
    StrConst,
    Sub,
)

# ---------------------------------------------------------------------------
# the reference: the cube loop and cube decision before the pre-check
# ---------------------------------------------------------------------------


def _reference_decide_cube(literals):
    """Decide a conjunction of literals; returns (verdict, model|None)."""
    int_constraints: list = []
    variables: dict = {}
    str_eqs: list = []
    str_neqs: list = []
    bool_assign: dict = {}
    for literal in literals:
        base = literal
        polarity = True
        if isinstance(base, Not):
            base = base.operand
            polarity = False
        if isinstance(base, BoolAtom):
            term = base.term
            if isinstance(term, BoolConst):
                if term.value != polarity:
                    return Verdict.UNSAT, None
                continue
            if term in bool_assign and bool_assign[term] != polarity:
                return Verdict.UNSAT, None
            bool_assign[term] = polarity
            continue
        if isinstance(base, Cmp):
            if not polarity:
                base = base.negated()
            if base.left.sort == "str" or base.right.sort == "str":
                if base.op == "==":
                    str_eqs.append((base.left, base.right))
                elif base.op == "!=":
                    str_neqs.append((base.left, base.right))
                else:
                    return Verdict.UNKNOWN, None
                continue
            if base.left.sort == "bool" or base.right.sort == "bool":
                converted = _reference_bool_equality(base, bool_assign)
                if converted is False:
                    return Verdict.UNSAT, None
                if converted is None:
                    return Verdict.UNKNOWN, None
                continue
            translated = _int_constraints_of_literal(base, variables)
            if translated is None:
                return Verdict.UNKNOWN, None
            int_constraints.extend(translated)
            continue
        return Verdict.UNKNOWN, None

    str_verdict, str_model = _solve_string_literals(str_eqs, str_neqs)
    if str_verdict == Verdict.UNSAT:
        return Verdict.UNSAT, None
    int_verdict, int_model = _solve_int_constraints(int_constraints, variables)
    if int_verdict == Verdict.UNSAT:
        return Verdict.UNSAT, None
    if int_verdict == Verdict.UNKNOWN:
        return Verdict.UNKNOWN, None
    model: dict = {}
    model.update(str_model or {})
    model.update(int_model or {})
    for term, value in bool_assign.items():
        model[term] = value
    return Verdict.SAT, model


def _reference_bool_equality(literal: Cmp, bool_assign: dict):
    left, right, op = literal.left, literal.right, literal.op
    if isinstance(left, BoolConst) and not isinstance(right, BoolConst):
        left, right = right, left
    if isinstance(right, BoolConst):
        wanted = right.value if op == "==" else not right.value
        if op not in ("==", "!="):
            return None
        if left in bool_assign and bool_assign[left] != wanted:
            return False
        bool_assign[left] = wanted
        return True
    return None


def _reference_is_satisfiable(formula: Formula, assumptions: tuple) -> ProofResult:
    goal = conj(*assumptions, formula)
    goal = simplify(goal)
    if isinstance(goal, Top):
        return ProofResult(Verdict.SAT, model={})
    if isinstance(goal, Bottom):
        return ProofResult(Verdict.UNSAT)
    goal = conj(goal, *_congruence_axioms(goal))
    opacifier = _Opacifier()
    abstracted_goal = opacifier.run(goal)
    nnf = _nnf(abstracted_goal, negate=False)
    if _dnf_size(nnf) is None:
        return ProofResult(Verdict.UNKNOWN, reason="DNF size cap exceeded")
    cubes = _dnf_cubes(nnf)
    cubes.sort(key=len)
    saw_unknown = False
    for cube in cubes:
        verdict, model = _reference_decide_cube(cube)
        if verdict == Verdict.SAT:
            if opacifier.used:
                return ProofResult(
                    Verdict.UNKNOWN,
                    model=model,
                    abstracted=True,
                    reason="model found only for an abstraction",
                )
            return ProofResult(Verdict.SAT, model=model)
        if verdict == Verdict.UNKNOWN:
            saw_unknown = True
    if saw_unknown:
        return ProofResult(Verdict.UNKNOWN, reason="some cubes undecided")
    return ProofResult(Verdict.UNSAT, abstracted=opacifier.used)


# ---------------------------------------------------------------------------
# random formulas
# ---------------------------------------------------------------------------

I, J = Param("i"), Param("j")
INTS = (Local("x"), Local("y"), I, J, Field("a", I, "v"), Field("a", J, "v"))
BOOLS = (Local("p", "bool"), Local("q", "bool"))
S = Local("s", "str")
OPS = ("==", "!=", "<", "<=", ">", ">=")


def _linear(rng: random.Random):
    """A linear term over one or two variables, built in varied shapes."""
    term = None
    for var in rng.sample(INTS, rng.choice((1, 1, 2, 2, 2))):
        coeff = rng.choice((-3, -2, -1, -1, 1, 1, 1, 2, 3))
        part = var if coeff == 1 else Neg(var) if coeff == -1 else Mul(IntConst(coeff), var)
        term = part if term is None else rng.choice((Add, Sub))(term, part)
    if rng.random() < 0.3:
        term = Add(term, IntConst(rng.randint(-2, 2)))
    return term


def _literal(rng: random.Random):
    roll = rng.random()
    if roll < 0.62:
        return Cmp(rng.choice(OPS), _linear(rng), IntConst(rng.randint(-3, 3)))
    if roll < 0.72:
        return Cmp(rng.choice(OPS), _linear(rng), _linear(rng))
    if roll < 0.8:
        atom = BoolAtom(rng.choice(BOOLS))
        return atom if rng.random() < 0.5 else Not(atom)
    if roll < 0.83:
        return Cmp(rng.choice(("==", "!=")), rng.choice(BOOLS), BoolConst(rng.random() < 0.5))
    if roll < 0.88:
        return Cmp(rng.choice(("==", "!=")), S, StrConst(rng.choice("ab")))
    if roll < 0.96:
        x, y = rng.sample(INTS[:4], 2)
        return Cmp(rng.choice(OPS), Mul(x, y), IntConst(rng.randint(-2, 2)))
    return AbstractPred(rng.choice(("inv", "post")))


def _clause(rng: random.Random):
    literals = [_literal(rng) for _ in range(rng.randint(1, 3))]
    roll = rng.random()
    if roll < 0.15 and len(literals) > 1:
        return implies(literals[0], disj(*literals[1:]))
    if roll < 0.25:
        return Not(conj(*literals))
    return disj(*literals)


def _formula(rng: random.Random):
    return conj(*(_clause(rng) for _ in range(rng.randint(1, 4))))


def _outcome(result: ProofResult):
    model = None if result.model is None else list(result.model.items())
    return result.verdict, result.reason, model, result.abstracted


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

FORMULAS = 20_000


def test_precheck_matches_the_reference_loop(monkeypatch):
    monkeypatch.setattr(prover, "MAX_CUBES", 48)
    clear_prover_caches()
    rng = random.Random(2026)
    seen: dict = {}
    refuted_on_sat = 0
    for number in range(FORMULAS):
        formula = _formula(rng)
        assumptions = (_clause(rng),) if rng.random() < 0.2 else ()
        before = prover_cache_stats()["cubes_refuted"]
        got = _is_satisfiable_impl(formula, assumptions)
        moved = prover_cache_stats()["cubes_refuted"] > before
        want = _reference_is_satisfiable(formula, assumptions)
        assert _outcome(got) == _outcome(want), (number, formula, assumptions)
        label = want.reason or want.verdict
        seen[label] = seen.get(label, 0) + 1
        refuted_on_sat += moved and want.verdict == Verdict.SAT
        if moved and want.reason == "some cubes undecided":
            seen["undecided with refuted cubes"] = seen.get("undecided with refuted cubes", 0) + 1
    for label in (
        Verdict.SAT,
        Verdict.UNSAT,
        "some cubes undecided",
        "DNF size cap exceeded",
        "model found only for an abstraction",
        "undecided with refuted cubes",
    ):
        assert seen.get(label), (label, seen)
    assert refuted_on_sat > 0
    assert prover_cache_stats()["cubes_refuted"] > 0


@pytest.mark.parametrize("warm", [False, True])
def test_refuted_cube_left_open_keeps_the_query_undecided(warm):
    # x <= 0 and x >= 1 contradict before the nonlinear literal, so the
    # pre-check sets the cube aside; the solver stops at x*y and leaves
    # it open, and that keeps the query "some cubes undecided"
    x, y = INTS[0], INTS[1]
    formula = conj(Cmp("<=", x, IntConst(0)), Cmp(">=", x, IntConst(1)), Cmp("==", Mul(x, y), IntConst(2)))
    clear_prover_caches()
    if warm:
        _is_satisfiable_impl(formula, ())
    result = _is_satisfiable_impl(formula, ())
    assert result.verdict == Verdict.UNKNOWN and result.reason == "some cubes undecided"
    assert prover_cache_stats()["cubes_refuted"] == 1 + warm
