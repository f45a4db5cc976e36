"""Edge cases of the prover: caps, fallbacks, mixed sorts."""

import pytest

from repro.core import formula as fm
from repro.core.formula import BoolAtom, Not, conj, disj, eq, ge, le, lt, ne
from repro.core.prover import Verdict, is_satisfiable, is_valid
from repro.core.terms import (
    BoolConst,
    Field,
    IntConst,
    Item,
    Local,
    Mul,
    Param,
    StrConst,
)


class TestCapsAndFallbacks:
    def test_dnf_cap_yields_unknown(self):
        """A formula whose DNF has 8192 cubes is decided, and genuinely.

        Each ``!=`` splits into ``<`` or ``>``; the search takes one side of
        each instead of expanding every combination.
        """
        big = conj(*[ne(Local(f"x{i}"), 0) for i in range(13)])
        result = is_satisfiable(big)
        assert result.verdict == Verdict.SAT
        assert len(result.model) == 13
        assert all(value != 0 for value in result.model.values())

    def test_nonlinear_term_unknown(self):
        x, y = Local("x"), Local("y")
        result = is_satisfiable(eq(Mul(x, y), 6))
        assert result.verdict == Verdict.UNKNOWN

    def test_nonlinear_with_constant_factor_decided(self):
        x = Local("x")
        result = is_satisfiable(eq(Mul(IntConst(3), x), 6))
        assert result.verdict == Verdict.SAT
        assert result.model[x] == 2

    def test_string_ordering_literal_unknown(self):
        # the cube decision cannot order strings; must not crash
        a = Local("a", "str")
        result = is_satisfiable(conj(eq(a, StrConst("x")), ne(a, StrConst("y"))))
        assert result.verdict == Verdict.SAT

    def test_equalities_between_string_atoms(self):
        a, b, c = (Local(n, "str") for n in "abc")
        chain = conj(eq(a, b), eq(b, c), ne(a, c))
        assert is_satisfiable(chain).verdict == Verdict.UNSAT

    def test_bool_field_equality(self):
        done = Field("T", Param("i"), "done", "bool")
        result = is_satisfiable(conj(eq(done, BoolConst(True)), Not(BoolAtom(done))))
        assert result.verdict == Verdict.UNSAT


class TestMixedQueries:
    def test_assumptions_narrow_validity(self):
        x = Local("x")
        goal = ge(x, 5)
        assert is_valid(goal).verdict == Verdict.INVALID
        assert is_valid(goal, assumptions=[ge(x, 7)]).verdict == Verdict.VALID

    def test_large_coefficients(self):
        x = Local("x")
        result = is_satisfiable(conj(ge(Mul(IntConst(1000), x), 999), le(x, 0)))
        assert result.verdict == Verdict.UNSAT

    def test_tight_integer_gap(self):
        """2x == 1 has a rational but no integer solution."""
        x = Local("x")
        result = is_satisfiable(eq(Mul(IntConst(2), x), 1))
        # LP relaxation is feasible; integer search must not claim SAT
        assert result.verdict in (Verdict.UNSAT, Verdict.UNKNOWN)
        assert result.verdict != Verdict.SAT

    def test_three_way_disjunction_picks_feasible(self):
        x = Local("x")
        formula = conj(
            disj(eq(x, 1), eq(x, 2), eq(x, 3)),
            ne(x, 1),
            ne(x, 3),
        )
        result = is_satisfiable(formula)
        assert result.verdict == Verdict.SAT and result.model[x] == 2

    def test_congruence_three_fields(self):
        i, j, k = Param("i"), Param("j"), Param("k")
        a_i = Field("a", i, "v")
        a_j = Field("a", j, "v")
        a_k = Field("a", k, "v")
        # equality is transitive through the congruence axioms
        formula = conj(eq(i, j), eq(j, k), ne(a_i, a_k))
        assert is_satisfiable(formula).verdict == Verdict.UNSAT

    def test_different_attrs_not_congruent(self):
        i, j = Param("i"), Param("j")
        formula = conj(eq(i, j), ne(Field("a", i, "v"), Field("a", j, "w")))
        assert is_satisfiable(formula).verdict == Verdict.SAT


class TestProofResultShape:
    def test_valid_result_is_truthy(self):
        result = is_valid(fm.TRUE)
        assert result
        assert result.verdict == Verdict.VALID

    def test_invalid_result_is_falsy(self):
        assert not is_valid(fm.FALSE)

    def test_unknown_reason_populated(self):
        x, y = Local("x"), Local("y")
        result = is_satisfiable(eq(Mul(x, y), 6))
        assert result.verdict == Verdict.UNKNOWN
        assert result.reason


class TestQuantifierExpansion:
    def test_small_forall_int_is_exact(self):
        from repro.core.formula import BoundVar, ForAllInts, implies

        x = Local("x")
        q = fm.ForAllInts("d", IntConst(1), IntConst(3), ge(x, fm.BoundVar("d")))
        assert is_valid(implies(ge(x, 3), q)).verdict == Verdict.VALID
        counter = is_valid(implies(ge(x, 2), q))
        assert counter.verdict == Verdict.INVALID
        assert counter.model[x] == 2

    def test_wide_forall_int_stays_opaque(self):
        x = Local("x")
        q = fm.ForAllInts("d", IntConst(0), IntConst(1000), ge(x, fm.BoundVar("d")))
        # no expansion: the abstraction is still sound for tautologies
        from repro.core.formula import implies

        assert is_valid(implies(q, q)).verdict == Verdict.VALID
        assert is_valid(q).verdict == Verdict.UNKNOWN

    def test_symbolic_bound_stays_opaque(self):
        x = Local("x")
        q = fm.ForAllInts("d", IntConst(1), Item("max"), ge(x, fm.BoundVar("d")))
        assert is_valid(q).verdict == Verdict.UNKNOWN

    def test_empty_range_expands_to_true(self):
        q = fm.ForAllInts("d", IntConst(5), IntConst(1), fm.FALSE)
        assert is_valid(q).verdict == Verdict.VALID
