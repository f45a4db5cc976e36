"""Strongest postconditions for the conventional-model statement kinds.

Implements the paper's Appendix A forms (after Gries [9]):

* local assignment ``X := e``:   ``sp(P) = ∃v. P[X/v] ∧ X = e[X/v]``
* write ``x := E`` (E local):    ``sp(P) = ∃v. P[x/v] ∧ x = E``
* read ``X := x``:               ``sp(P) = ∃v. P[X/v] ∧ X = x`` (x unchanged)

Existential variables are represented as *fresh free logical variables*
(skolemisation): the prover treats free variables as universally quantified
in validity queries, which is exactly the strength needed when the sp
appears on the premise side of an implication — the only place this library
puts it.

Guard entry/exit for If/While conjoins the (local-only) guard, mirroring
cases (e)–(h) of the paper's Theorem 1 proof.

Relational statements have no general symbolic sp here (the interference
check carries assertions across them as table effects instead, see
:mod:`repro.core.effects`).  The one easy case — the assertion's resources
are disjoint from the statement's written resources — is handled by
returning the assertion unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.formula import Formula, Not, conj, eq
from repro.core.program import (
    If,
    LocalAssign,
    Read,
    ReadRecord,
    Statement,
    While,
    Write,
)
from repro.core.resources import overlaps
from repro.core.terms import Field, Item, Local, LogicalVar, Term
from repro.errors import ProgramError

_fresh_counter = itertools.count()


def fresh_logical(sort: str = "int") -> LogicalVar:
    """A fresh logical variable for skolemised existentials."""
    return LogicalVar(f"v!{next(_fresh_counter)}", sort)


def _occurs(target: Term, formula: Formula) -> bool:
    return any(atom == target for atom in formula.atoms())


def _assignment_sp(pre: Formula, target: Term, value: Term) -> Formula:
    """sp for an assignment ``target := value`` in either direction.

    ``value`` may mention ``target`` (e.g. ``x := x + 1`` composed from a
    read/compute/write sequence never does, but local assignments can).
    """
    if not _occurs(target, pre) and not _occurs(target, value):
        return conj(pre, eq(target, value))
    ghost = fresh_logical(target.sort)
    substitution = {target: ghost}
    shifted_pre = pre.substitute(substitution)
    shifted_value = value.substitute(substitution)
    return conj(shifted_pre, eq(target, shifted_value))


@dataclass
class SpResult:
    """Outcome of an sp computation.

    ``formula`` is the strongest postcondition when ``exact`` is true;
    otherwise it is a *sound weakening* (or ``None`` when nothing useful
    could be computed and the caller must fall back to other tiers).
    """

    formula: Formula | None
    exact: bool = True
    note: str = ""


def sp_statement(pre: Formula, stmt: Statement) -> SpResult:
    """Strongest postcondition of a single non-control statement."""
    if isinstance(stmt, Read):
        return SpResult(_assignment_sp(pre, stmt.into, stmt.source))
    if isinstance(stmt, ReadRecord):
        current = pre
        for attr, local in stmt.binds:
            source = Field(stmt.array, stmt.index, attr, local.var_sort)
            current = _assignment_sp(current, local, source)
        return SpResult(current)
    if isinstance(stmt, LocalAssign):
        return SpResult(_assignment_sp(pre, stmt.into, stmt.value))
    if isinstance(stmt, Write):
        return SpResult(_assignment_sp(pre, stmt.target, stmt.value))
    if isinstance(stmt, (If, While)):
        raise ProgramError("control statements are handled by path enumeration")
    # relational statement: only the disjoint case is handled symbolically
    if not overlaps(pre.resources(), stmt.written_resources()):
        return SpResult(pre, exact=False, note="assertion untouched (disjoint footprint)")
    return SpResult(None, exact=False, note=f"no symbolic sp for {type(stmt).__name__}")


@dataclass
class PathPoint:
    """One control point on an annotated execution path."""

    statement: Statement | None  # None for the entry point
    pre: Formula
    derived_post: Formula | None
    exact: bool


@dataclass
class AnnotatedPath:
    """A fully-propagated execution path of a transaction body."""

    points: list = field(default_factory=list)
    condition_notes: list = field(default_factory=list)

    @property
    def final(self) -> Formula:
        if not self.points:
            raise ProgramError("empty annotated path")
        last = self.points[-1]
        return last.derived_post if last.derived_post is not None else last.pre


def annotate_paths(
    body,
    entry: Formula,
    max_loop_unroll: int = 1,
) -> list:
    """Propagate assertions along every execution path of ``body``.

    Conditional branches fork the path with the guard (or its negation)
    conjoined — the paper's Theorem 1 proof cases (e)–(h).  While loops are
    unrolled up to ``max_loop_unroll`` iterations; the post-loop assertion
    conjoins the negated guard, and the propagation is marked inexact when
    the unroll bound may have been insufficient.

    Relational statements without symbolic sp poison exactness from that
    point on: subsequent preconditions degrade to ``TRUE``-weakened forms
    but every control point still receives a *sound* assertion.
    """
    paths: list[AnnotatedPath] = []

    def run(stmts, pre: Formula, exact: bool, acc: AnnotatedPath):
        if not stmts:
            paths.append(acc)
            return
        stmt, rest = stmts[0], stmts[1:]
        if isinstance(stmt, If):
            for branch, guard in ((stmt.then, stmt.cond), (stmt.orelse, Not(stmt.cond))):
                branch_pre = conj(pre, guard)
                forked = AnnotatedPath(list(acc.points), list(acc.condition_notes))
                forked.points.append(PathPoint(stmt, pre, branch_pre, exact))
                run(tuple(branch) + rest, branch_pre, exact, forked)
            return
        if isinstance(stmt, While):
            for unroll in range(max_loop_unroll + 1):
                iteration_body = tuple(stmt.body) * unroll
                exit_pre = pre  # refined below by propagation through body
                forked = AnnotatedPath(list(acc.points), list(acc.condition_notes))
                forked.condition_notes.append(f"loop unrolled {unroll}x")
                loop_exact = exact and unroll < max_loop_unroll
                # entering iterations conjoins the guard; leaving negates it
                if unroll == 0:
                    after_loop = conj(exit_pre, Not(stmt.cond))
                    forked.points.append(PathPoint(stmt, pre, after_loop, exact))
                    run(rest, after_loop, exact, forked)
                else:
                    entry_pre = conj(pre, stmt.cond)
                    forked.points.append(PathPoint(stmt, pre, entry_pre, loop_exact))
                    run(
                        iteration_body + (_LoopExit(stmt),) + rest,
                        entry_pre,
                        loop_exact,
                        forked,
                    )
            return
        if isinstance(stmt, _LoopExit):
            after = conj(pre, Not(stmt.loop.cond))
            acc.points.append(PathPoint(stmt.loop, pre, after, exact))
            run(rest, after, exact, acc)
            return
        result = sp_statement(pre, stmt)
        explicit = getattr(stmt, "post", None)
        if result.formula is not None:
            post = result.formula
            now_exact = exact and result.exact
        elif explicit is not None:
            # trust the programmer's annotation when sp is unavailable
            post = explicit
            now_exact = False
        else:
            from repro.core.formula import TRUE as _TRUE

            post = _TRUE
            now_exact = False
        acc.points.append(PathPoint(stmt, pre, post, now_exact))
        run(rest, post, now_exact, acc)

    run(tuple(body), entry, True, AnnotatedPath())
    return paths


@dataclass(frozen=True)
class _LoopExit(Statement):
    """Internal marker: leaving an unrolled loop (conjoin negated guard)."""

    loop: While

    def execute(self, state, env) -> None:  # pragma: no cover - never executed
        raise ProgramError("loop-exit markers are analysis-internal")
