"""The assertion language: first-order formulas over database states.

Formulas annotate transaction programs (preconditions of control points,
read-statement postconditions, the consistency constraint ``I_i`` and the
result ``Q_i`` of the paper's triple (1)) and are the objects the
interference check (paper's triple (3)) is discharged over.

The language covers everything the paper's examples need:

* boolean combinations of linear integer comparisons (Figure 1's
  ``acct_sav[i].bal + acct_ch[i].bal >= 0``);
* bounded quantification over table rows — ``ForAllRows`` expresses
  constraints such as *order consistency* ("for every CUST row, ``#orders``
  equals the number of ORDERS rows for that customer");
* bounded quantification over integer ranges — ``ForAllInts`` expresses the
  *no gaps* business rule ("for every date up to ``maximum_date`` there is at
  least one order");
* ``COUNT(*)`` aggregates as integer terms (:class:`CountWhere`);
* tuple membership (:class:`InTable`) for postconditions like
  ``(order_info, customer, maxdate+1, false) ∈ ORDERS``;
* named abstract predicates (:class:`AbstractPred`) with a declared resource
  footprint and an optional concrete evaluator, for specification clauses
  the annotation keeps symbolic (e.g. "labels have been printed").

Every formula supports substitution, atom/resource extraction and concrete
evaluation, mirroring :class:`repro.core.terms.Term`; evaluation runs the
node's compiled closure (:func:`repro.core.terms.compiled`).  Quantifiers
and aggregates bind their row variable in the closure's ``rows`` mapping,
by name, instead of copying the environment once per row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from repro.core import terms
from repro.core.resources import ArrayResource, Resource, ScalarResource, TableResource
from repro.core.terms import HashConsMeta, Term, coerce, compiled
from repro.errors import EvaluationError, SortError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import DbState

Env = dict

_CMP_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: The sorts a row attribute is bound under when an abstract predicate's
#: evaluator needs the quantifier's rows as environment entries.
_ROW_SORTS = ("int", "bool", "str")

_NEGATED_OP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


# ---------------------------------------------------------------------------
# relational terms (defined here because they embed formulas)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowAttr(Term):
    """An attribute of a row variable bound by a row quantifier."""

    row: str
    attr: str
    var_sort: str = "int"

    @property
    def sort(self) -> str:
        return self.var_sort

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def atoms(self) -> Iterator[Term]:
        yield self

    def _compile(self):
        name, attr, key = self.row, self.attr, self

        def fn(state, env, rows):
            row = rows.get(name)
            if row is not None and attr in row:
                return row[attr]
            try:
                return env[key]
            except KeyError:
                raise EvaluationError(f"unbound row attribute {name}.{attr}")

        return fn

    def __repr__(self) -> str:
        return f"{self.row}.{self.attr}"


@dataclass(frozen=True)
class BoundVar(Term):
    """An integer variable bound by :class:`ForAllInts`."""

    name: str

    @property
    def sort(self) -> str:
        return "int"

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def atoms(self) -> Iterator[Term]:
        yield self

    def _compile(self):
        key = self

        def fn(state, env, rows):
            value = rows.get(key)
            if value is not None:
                return value
            try:
                return env[key]
            except KeyError:
                raise EvaluationError(f"unbound quantified variable {key.name!r}")

        return fn

    def __repr__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class CountWhere(Term):
    """``COUNT(*)`` over the rows of ``table`` satisfying ``where``.

    ``where`` is a formula over :class:`RowAttr` terms of the bound row
    variable ``row`` (plus any parameters and items).  The term's value is
    the number of matching rows, so any INSERT or DELETE into the predicate
    potentially changes it — which is exactly how phantom interference with
    COUNT-based assertions (the paper's ``Audit`` transaction) is detected.
    """

    table: str
    row: str
    where: "Formula"

    @property
    def sort(self) -> str:
        return "int"

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        inner = _drop_bound(mapping, self.row)
        return CountWhere(self.table, self.row, self.where.substitute(inner))

    def atoms(self) -> Iterator[Term]:
        yield self
        for atom in self.where.atoms():
            if not (isinstance(atom, RowAttr) and atom.row == self.row):
                yield atom

    def resources(self) -> frozenset[Resource]:
        out = {TableResource(self.table)}
        for atom in self.where.atoms():
            if isinstance(atom, RowAttr) and atom.row == self.row:
                out.add(TableResource(self.table, atom.attr))
        return frozenset(out)

    def _compile(self):
        table, name, where = self.table, self.row, compiled(self.where)

        def fn(state, env, rows):
            outer = rows.get(name)
            count = 0
            for row in state.rows(table):
                if where(state, env, {**rows, name: row if outer is None else {**outer, **row}}):
                    count += 1
            return count

        return fn

    def __repr__(self) -> str:
        return f"COUNT({self.row} in {self.table} where {self.where!r})"


# Row binding.  A quantifier passes its body a copy of ``rows`` extended
# with its row variable; ``rows`` itself is never mutated.  Rebinding a
# shadowed name merges the new row over the outer one, so an attribute the
# inner row lacks reads the outer row's value.


def _row_quantifier(node, exists: bool):
    """The closure of a :class:`ForAllRows` or :class:`ExistsRow` node.

    The first row satisfying ``where`` whose body's truth equals ``exists``
    decides the result; without one the result is ``not exists``.
    """
    table, name = node.table, node.row
    body, where = compiled(node.body), compiled(node.where)

    def fn(state, env, rows):
        outer = rows.get(name)
        for row in state.rows(table):
            inner = {**rows, name: row if outer is None else {**outer, **row}}
            if where(state, env, inner) and bool(body(state, env, inner)) == exists:
                return exists
        return not exists

    return fn


def _env_with_rows(env: Env, rows: dict) -> Env:
    """``env`` extended with every binding in ``rows`` as environment entries.

    Only an :class:`AbstractPred` evaluator inside a quantifier needs this:
    it receives the row attributes as :class:`RowAttr` keys of each sort and
    the bound integers as :class:`BoundVar` keys.
    """
    extended = dict(env)
    for key, bound in rows.items():
        if isinstance(key, BoundVar):
            extended[key] = bound
            continue
        for attr, value in bound.items():
            for sort in _ROW_SORTS:
                extended[RowAttr(key, attr, sort)] = value
    return extended


def _drop_bound(mapping: Mapping[Term, Term], row_var: str) -> dict:
    """Remove substitutions that would capture a bound row variable."""
    return {
        key: value
        for key, value in mapping.items()
        if not (isinstance(key, RowAttr) and key.row == row_var)
    }


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula(metaclass=HashConsMeta):
    """Base class of all assertions."""

    _hc_intern = True

    def substitute(self, mapping: Mapping[Term, Term]) -> "Formula":
        """Capture-free substitution; returns ``self`` untouched (identity-
        preserving) when no key of ``mapping`` occurs free in the formula."""
        if self.atom_set().isdisjoint(mapping):
            return self
        return self._substitute(mapping)

    def _substitute(self, mapping: Mapping[Term, Term]) -> "Formula":
        """Per-class substitution body; only called when atoms intersect."""
        raise NotImplementedError

    def atoms(self) -> Iterator[Term]:
        """Yield every free atomic reference term in the formula."""
        raise NotImplementedError

    def atom_set(self) -> frozenset:
        """The free atoms of this formula as a set, computed once and cached."""
        cached = self.__dict__.get("_hc_atoms")
        if cached is None:
            cached = frozenset(self.atoms())
            object.__setattr__(self, "_hc_atoms", cached)
        return cached

    def projectable(self) -> bool:
        """Whether :meth:`atom_set` fully describes this formula's env reads.

        True for every structural formula: evaluation looks up the
        environment only at free atoms.  False as soon as the tree contains
        an :class:`AbstractPred` — its opaque evaluator may read anything —
        which tells evaluation memos they must key on the whole environment.
        Computed once and cached on the node.
        """
        cached = self.__dict__.get("_hc_projectable")
        if cached is None:
            cached = True
            stack: list = [self]
            while stack:
                node = stack.pop()
                if isinstance(node, AbstractPred):
                    cached = False
                    break
                for f in dataclass_fields(node):
                    value = getattr(node, f.name)
                    if isinstance(value, Formula):
                        stack.append(value)
                    elif isinstance(value, tuple):
                        stack.extend(v for v in value if isinstance(v, Formula))
            object.__setattr__(self, "_hc_projectable", cached)
        return cached

    def evaluate(self, state: "DbState", env: Env) -> bool:
        """Evaluate against a concrete database state and environment."""
        fn = self.__dict__.get("_hc_fn") or compiled(self)
        return fn(state, env, terms.NO_ROWS)

    def _compile(self):
        """Per-class body of :func:`~repro.core.terms.compiled`."""
        raise NotImplementedError

    def resources(self) -> frozenset[Resource]:
        """Database resources this assertion's truth can depend on (cached)."""
        cached = self.__dict__.get("_hc_resources")
        if cached is None:
            cached = frozenset(_resources_of_atoms(self.atoms())) | self._extra_resources()
            object.__setattr__(self, "_hc_resources", cached)
        return cached

    def fingerprint(self) -> str:
        """Stable structural digest, cached on the node (see :mod:`repro.core.cache`)."""
        cached = self.__dict__.get("_hc_fp")
        if cached is not None:
            return cached
        from repro.core.cache import fingerprint

        return fingerprint(self)

    def __getstate__(self) -> dict:
        # Mirror Term.__getstate__: the cached hash is per-process (string
        # hash salting), so no _hc_* cache may cross a pickle boundary.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_hc_")}

    def _extra_resources(self) -> frozenset[Resource]:
        return frozenset()

    # boolean-algebra sugar
    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


def _resources_of_atoms(atoms: Iterator[Term]) -> set[Resource]:
    out: set[Resource] = set()
    for atom in atoms:
        if isinstance(atom, terms.Item):
            out.add(ScalarResource(atom.name))
        elif isinstance(atom, terms.Field):
            out.add(ArrayResource(atom.array, atom.attr))
        elif isinstance(atom, CountWhere):
            out |= atom.resources()
    return out


@dataclass(frozen=True)
class Top(Formula):
    """The trivially true assertion."""

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self):
        return lambda state, env, rows: True

    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom(Formula):
    """The trivially false assertion."""

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self):
        return lambda state, env, rows: False

    def __repr__(self) -> str:
        return "false"


TRUE = Top()
FALSE = Bottom()


@dataclass(frozen=True)
class Cmp(Formula):
    """A comparison between two terms of the same sort."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise SortError(f"unknown comparison operator {self.op!r}")
        if self.op not in ("==", "!=") and (self.left.sort == "str" or self.right.sort == "str"):
            raise SortError(f"ordering comparison on string terms: {self!r}")

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Cmp(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.left.atoms()
        yield from self.right.atoms()

    def _compile(self):
        left, right, op = compiled(self.left), compiled(self.right), _CMP_OPS[self.op]
        return lambda state, env, rows: op(left(state, env, rows), right(state, env, rows))

    def negated(self) -> "Cmp":
        """The comparison asserting the opposite relation."""
        return Cmp(_NEGATED_OP[self.op], self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class BoolAtom(Formula):
    """A boolean-sorted term used directly as an assertion."""

    term: Term

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return BoolAtom(self.term.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.term.atoms()

    def _compile(self):
        term = compiled(self.term)
        return lambda state, env, rows: bool(term(state, env, rows))

    def __repr__(self) -> str:
        return repr(self.term)


@dataclass(frozen=True)
class Not(Formula):
    """Logical negation."""

    operand: Formula

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Not(self.operand.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.operand.atoms()

    def _compile(self):
        operand = compiled(self.operand)
        return lambda state, env, rows: not operand(state, env, rows)

    def _extra_resources(self) -> frozenset[Resource]:
        return self.operand._extra_resources()

    def __repr__(self) -> str:
        return f"!{self.operand!r}"


@dataclass(frozen=True)
class And(Formula):
    """N-ary conjunction."""

    operands: tuple[Formula, ...]

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return And(tuple(op.substitute(mapping) for op in self.operands))

    def atoms(self) -> Iterator[Term]:
        for op in self.operands:
            yield from op.atoms()

    def _compile(self):
        operands = tuple(compiled(op) for op in self.operands)

        def fn(state, env, rows):
            for op in operands:
                if not op(state, env, rows):
                    return False
            return True

        return fn

    def _extra_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for op in self.operands:
            out |= op._extra_resources()
        return out

    def __repr__(self) -> str:
        return "(" + " and ".join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """N-ary disjunction."""

    operands: tuple[Formula, ...]

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Or(tuple(op.substitute(mapping) for op in self.operands))

    def atoms(self) -> Iterator[Term]:
        for op in self.operands:
            yield from op.atoms()

    def _compile(self):
        operands = tuple(compiled(op) for op in self.operands)

        def fn(state, env, rows):
            for op in operands:
                if op(state, env, rows):
                    return True
            return False

        return fn

    def _extra_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for op in self.operands:
            out |= op._extra_resources()
        return out

    def __repr__(self) -> str:
        return "(" + " or ".join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Implies(Formula):
    """Logical implication."""

    premise: Formula
    conclusion: Formula

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Implies(self.premise.substitute(mapping), self.conclusion.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.premise.atoms()
        yield from self.conclusion.atoms()

    def _compile(self):
        premise, conclusion = compiled(self.premise), compiled(self.conclusion)
        return lambda state, env, rows: (not premise(state, env, rows)) or conclusion(state, env, rows)

    def _extra_resources(self) -> frozenset[Resource]:
        return self.premise._extra_resources() | self.conclusion._extra_resources()

    def __repr__(self) -> str:
        return f"({self.premise!r} => {self.conclusion!r})"


@dataclass(frozen=True)
class ForAllRows(Formula):
    """``for every row of table (satisfying where): body`` — bounded ∀."""

    table: str
    row: str
    body: Formula
    where: Formula = TRUE

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        inner = _drop_bound(mapping, self.row)
        return ForAllRows(self.table, self.row, self.body.substitute(inner), self.where.substitute(inner))

    def atoms(self) -> Iterator[Term]:
        for atom in self.body.atoms():
            if not (isinstance(atom, RowAttr) and atom.row == self.row):
                yield atom
        for atom in self.where.atoms():
            if not (isinstance(atom, RowAttr) and atom.row == self.row):
                yield atom

    def _compile(self):
        return _row_quantifier(self, exists=False)

    def _extra_resources(self) -> frozenset[Resource]:
        out: set[Resource] = {TableResource(self.table)}
        for sub in (self.body, self.where):
            for atom in sub.atoms_with_bound():
                if isinstance(atom, RowAttr) and atom.row == self.row:
                    out.add(TableResource(self.table, atom.attr))
            out |= sub._extra_resources()
        return frozenset(out)

    def __repr__(self) -> str:
        if self.where == TRUE:
            return f"(forall {self.row} in {self.table}: {self.body!r})"
        return f"(forall {self.row} in {self.table} where {self.where!r}: {self.body!r})"


@dataclass(frozen=True)
class ExistsRow(Formula):
    """``some row of table (satisfying where) has: body`` — bounded ∃."""

    table: str
    row: str
    body: Formula
    where: Formula = TRUE

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        inner = _drop_bound(mapping, self.row)
        return ExistsRow(self.table, self.row, self.body.substitute(inner), self.where.substitute(inner))

    def atoms(self) -> Iterator[Term]:
        for atom in self.body.atoms():
            if not (isinstance(atom, RowAttr) and atom.row == self.row):
                yield atom
        for atom in self.where.atoms():
            if not (isinstance(atom, RowAttr) and atom.row == self.row):
                yield atom

    def _compile(self):
        return _row_quantifier(self, exists=True)

    def _extra_resources(self) -> frozenset[Resource]:
        out: set[Resource] = {TableResource(self.table)}
        for sub in (self.body, self.where):
            for atom in sub.atoms_with_bound():
                if isinstance(atom, RowAttr) and atom.row == self.row:
                    out.add(TableResource(self.table, atom.attr))
            out |= sub._extra_resources()
        return frozenset(out)

    def __repr__(self) -> str:
        if self.where == TRUE:
            return f"(exists {self.row} in {self.table}: {self.body!r})"
        return f"(exists {self.row} in {self.table} where {self.where!r}: {self.body!r})"


@dataclass(frozen=True)
class ForAllInts(Formula):
    """``for every integer v with low <= v <= high: body`` — bounded ∀.

    Used for business rules quantifying over value ranges, e.g. the paper's
    *no gaps* constraint over delivery dates.
    """

    var: str
    low: Term
    high: Term
    body: Formula

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        inner = {k: v for k, v in mapping.items() if k != BoundVar(self.var)}
        return ForAllInts(self.var, self.low.substitute(inner), self.high.substitute(inner), self.body.substitute(inner))

    def atoms(self) -> Iterator[Term]:
        yield from self.low.atoms()
        yield from self.high.atoms()
        for atom in self.body.atoms():
            if atom != BoundVar(self.var):
                yield atom

    def _compile(self):
        low_fn, high_fn, body = compiled(self.low), compiled(self.high), compiled(self.body)
        bound = BoundVar(self.var)

        def fn(state, env, rows):
            low = low_fn(state, env, rows)
            high = high_fn(state, env, rows)
            if not isinstance(low, int) or not isinstance(high, int):
                raise EvaluationError(f"non-integer bounds in {self!r}")
            for value in range(low, high + 1):
                if not body(state, env, {**rows, bound: value}):
                    return False
            return True

        return fn

    def _extra_resources(self) -> frozenset[Resource]:
        return self.body._extra_resources()

    def __repr__(self) -> str:
        return f"(forall {self.low!r} <= ${self.var} <= {self.high!r}: {self.body!r})"


@dataclass(frozen=True)
class InTable(Formula):
    """Tuple membership: some row of ``table`` matches every listed attribute."""

    table: str
    values: tuple[tuple[str, Term], ...]

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return InTable(self.table, tuple((attr, term.substitute(mapping)) for attr, term in self.values))

    def atoms(self) -> Iterator[Term]:
        for _attr, term in self.values:
            yield from term.atoms()

    def _compile(self):
        table = self.table
        values = tuple((attr, compiled(term)) for attr, term in self.values)

        def fn(state, env, rows):
            wanted = {attr: term(state, env, rows) for attr, term in values}
            for row in state.rows(table):
                if all(attr in row and row[attr] == value for attr, value in wanted.items()):
                    return True
            return False

        return fn

    def _extra_resources(self) -> frozenset[Resource]:
        out: set[Resource] = {TableResource(self.table)}
        for attr, _term in self.values:
            out.add(TableResource(self.table, attr))
        return frozenset(out)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{attr}={term!r}" for attr, term in self.values)
        return f"({pairs}) in {self.table}"


@dataclass(frozen=True)
class AbstractPred(Formula):
    """A named abstract specification clause with a declared footprint.

    Some annotation clauses in the paper are stated in prose ("Labels have
    been printed", "returned values are undelivered orders").  They are kept
    symbolic here: ``reads`` declares the database resources the clause
    depends on (the empty set for pure output clauses, which therefore can
    never be interfered with), and ``evaluator``, when given, makes the
    clause checkable by the bounded model checker and the dynamic semantic
    checker.  The evaluator receives ``(state, env)``.
    """

    name: str
    reads: frozenset[Resource] = frozenset()
    evaluator: Callable[["DbState", Env], bool] | None = field(default=None, compare=False)

    # Interning keys on equality, and equality ignores ``evaluator``; an
    # interned AbstractPred would silently swap one predicate's evaluator
    # for another's.  Construction stays un-interned for this class.
    _hc_intern = False

    def _substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self):
        evaluator, name = self.evaluator, self.name

        def fn(state, env, rows):
            if evaluator is None:
                raise EvaluationError(f"abstract predicate {name!r} has no evaluator")
            return evaluator(state, _env_with_rows(env, rows) if rows else env)

        return fn

    def _extra_resources(self) -> frozenset[Resource]:
        return frozenset(self.reads)

    def __repr__(self) -> str:
        return f"<{self.name}>"


# ---------------------------------------------------------------------------
# constructors and traversal helpers
# ---------------------------------------------------------------------------


def _atoms_with_bound(formula: Formula) -> Iterator[Term]:
    """Like :meth:`Formula.atoms` but includes bound row attributes."""
    if isinstance(formula, (ForAllRows, ExistsRow)):
        yield from _atoms_with_bound(formula.body)
        yield from _atoms_with_bound(formula.where)
    elif isinstance(formula, ForAllInts):
        yield from formula.low.atoms()
        yield from formula.high.atoms()
        yield from _atoms_with_bound(formula.body)
    elif isinstance(formula, Not):
        yield from _atoms_with_bound(formula.operand)
    elif isinstance(formula, (And, Or)):
        for op in formula.operands:
            yield from _atoms_with_bound(op)
    elif isinstance(formula, Implies):
        yield from _atoms_with_bound(formula.premise)
        yield from _atoms_with_bound(formula.conclusion)
    else:
        yield from formula.atoms()


# expose as a method so quantifier footprints can see nested bound attrs
Formula.atoms_with_bound = _atoms_with_bound  # type: ignore[attr-defined]

# register the formula hierarchy with the hash-consing helpers in terms.py
terms._HASHCONS_BASES.append(Formula)


def cmp(op: str, left, right) -> Cmp:
    """Build a comparison, lifting Python literals to constant terms."""
    return Cmp(op, coerce(left), coerce(right))


def eq(left, right) -> Cmp:
    return cmp("==", left, right)


def ne(left, right) -> Cmp:
    return cmp("!=", left, right)


def lt(left, right) -> Cmp:
    return cmp("<", left, right)


def le(left, right) -> Cmp:
    return cmp("<=", left, right)


def gt(left, right) -> Cmp:
    return cmp(">", left, right)


def ge(left, right) -> Cmp:
    return cmp(">=", left, right)


def conj(*operands: Formula) -> Formula:
    """N-ary conjunction with flattening and unit simplification."""
    flat: list[Formula] = []
    for op in operands:
        if isinstance(op, And):
            flat.extend(op.operands)
        elif isinstance(op, Bottom):
            return FALSE
        elif not isinstance(op, Top):
            flat.append(op)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*operands: Formula) -> Formula:
    """N-ary disjunction with flattening and unit simplification."""
    flat: list[Formula] = []
    for op in operands:
        if isinstance(op, Or):
            flat.extend(op.operands)
        elif isinstance(op, Top):
            return TRUE
        elif not isinstance(op, Bottom):
            flat.append(op)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(premise: Formula, conclusion: Formula) -> Formula:
    if isinstance(premise, Top):
        return conclusion
    if isinstance(premise, Bottom) or isinstance(conclusion, Top):
        return TRUE
    return Implies(premise, conclusion)


def conjuncts(formula: Formula) -> Sequence[Formula]:
    """Top-level conjuncts of a formula (the formula itself if not an And)."""
    if isinstance(formula, And):
        return formula.operands
    if isinstance(formula, Top):
        return ()
    return (formula,)
