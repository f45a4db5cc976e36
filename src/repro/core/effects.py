"""Whole-transaction symbolic effects.

Theorems 2, 3 and 5 treat a concurrent transaction ``T_j`` as a *single
isolated unit*: its locks (or its snapshot plus first-committer-wins) force
any other transaction to see either none or all of it.  Checking whether
such a unit interferes with an assertion ``P`` therefore reduces to checking
that ``P`` is preserved across ``T_j``'s *complete* execution:

    { P  ∧  I_j ∧ B_j ∧ path-condition }   T_j   { P }

This module computes the ingredients symbolically: every execution path
(conditionals forked, loops unrolled) together with the path condition, the
*final store* — the mapping from written database locations to their final
values, expressed in terms of the transaction's initial state and
parameters — and, in program order, every write the path performs.

Array writes whose index is symbolic introduce aliasing: applying the final
store to ``P`` case-splits on which array references of ``P`` coincide with
written locations (:func:`apply_store`).

Relational writes become :class:`TableEffect` records, and
:func:`apply_table_effect` carries an assertion back across one of them —
the set-transformer reading of the paper's Section 4 statements:

* INSERT of row ``v``: ``∀r∈T.φ ↦ ∀r∈T.φ ∧ φ[v/r]``, ``∃r∈T.φ ↦ ∃r∈T.φ ∨
  φ[v/r]``, and ``COUNT`` case-splits on whether ``v`` matches;
* DELETE where ``δ``: a universal is implied by the old one, an existential
  needs every witness to survive (``φ(r) → ¬δ(r)`` for a fresh row ``r``);
* UPDATE where ``δ`` set ``a := e``: ``∀r∈T. (δ → φ[r.a ↦ e]) ∧ (¬δ → φ)``,
  proved from the old universal plus ``δ(r) ∧ φ(r) → φ[r.a ↦ e](r)`` for a
  fresh row ``r``.

Quantified subformulas stay opaque atoms to the prover; the transformers
only add quantifier-free instances next to them.  A transformer that is not
exact returns a formula that implies the true post-value where it occurs
positively (and one implied by it where negatively), so a VALID verdict on
the transformed goal is sound.  SELECTs bind opaque locals, and a loop over
a row buffer havocs the attributes its UPDATEs set.  ``While`` loops are
unrolled up to a bound; a loop whose guard may still hold after the last
unrolled iteration, relational bodies with a ``While``, and bodies with
irreducible aliasing return ``None`` and the caller falls back to bounded
model checking.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro.core.formula import (
    AbstractPred,
    And,
    BoolAtom,
    Bottom,
    BoundVar,
    Cmp,
    CountWhere,
    ExistsRow,
    ForAllInts,
    ForAllRows,
    Formula,
    Implies,
    InTable,
    Not,
    Or,
    RowAttr,
    TRUE,
    conj,
    disj,
    eq,
    implies,
    ne,
)
from repro.core.program import (
    Delete,
    ForEach,
    If,
    Insert,
    LocalAssign,
    Read,
    ReadRecord,
    Select,
    SelectCount,
    SelectScalar,
    Statement,
    TransactionType,
    Update,
    While,
    Write,
)
from repro.core.prover import simplify, simplify_term
from repro.core.resources import ArrayResource, ScalarResource, TableResource, overlaps
from repro.core.sp import fresh_logical
from repro.core.terms import Add, Field, IntConst, Item, Local, Mul, Neg, Sub, Term

#: Version of the tier-2 effect semantics; part of the persistent
#: verdict-store salt (:func:`repro.core.persist.store_salt`), so verdicts
#: decided before relational effects existed, while unexhausted loops were
#: cut at the unroll bound, or before nested quantifiers and SELECT COUNT
#: facts were carried, are never loaded.
EFFECTS_VERSION = "4"

#: Default loop-unroll bound for symbolic execution.
DEFAULT_UNROLL = 2

#: Cap on the alias case-split fan-out of :func:`apply_store`.
MAX_ALIAS_CASES = 64


@dataclass
class SymbolicPath:
    """One execution path of a transaction, symbolically executed.

    ``condition`` constrains parameters and the initial database state for
    the path to be taken.  ``store`` maps written locations (``Item`` or
    ``Field`` terms with locals resolved away) to their final values in
    terms of the initial state.  ``writes`` preserves program order and per
    -write resolved values — the ingredients for statement-level reasoning.
    """

    condition: Formula = TRUE
    store: dict = field(default_factory=dict)
    writes: list = field(default_factory=list)
    env: dict = field(default_factory=dict)
    #: every write in program order: ``(target, value)`` location pairs
    #: and :class:`TableEffect` records
    effects: list = field(default_factory=list)
    #: whether the path executed a relational statement
    relational: bool = False
    #: relational write statement -> ``(store, condition, effect)`` just
    #: before it (``symbolic_paths(..., dirty_reads=True)`` only)
    marks: dict = field(default_factory=dict)

    def fork(self, condition: Formula | None = None, env: dict | None = None) -> "SymbolicPath":
        """A copy sharing nothing mutable with this path."""
        return SymbolicPath(
            self.condition if condition is None else condition,
            dict(self.store),
            list(self.writes),
            dict(self.env) if env is None else env,
            list(self.effects),
            self.relational,
            dict(self.marks),
        )


#: Kinds of :class:`TableEffect`.
INSERT = "insert"
DELETE = "delete"
UPDATE = "update"
UNINSERT = "uninsert"
HAVOC = "havoc"


@dataclass(frozen=True)
class TableEffect:
    """One relational write with its terms resolved.

    ``insert`` adds the row ``values`` (attribute/term pairs); ``delete``
    removes every row satisfying ``where``; ``update`` assigns ``values``
    (terms over the row variable ``row``) to every row satisfying
    ``where``; ``uninsert`` — the undo of an insert — removes one
    occurrence of the row ``values``; ``havoc`` gives the attributes named
    in ``values`` unknown values in unknown rows (an UPDATE looped over a
    row buffer, or the undo of an UPDATE).
    """

    kind: str
    table: str
    values: tuple = ()
    where: Formula = TRUE
    row: str = "r"


class _Unsupported(Exception):
    """Internal: the body left the symbolically-executable fragment.

    ``args[0]`` is a short reason shared by every instance of one gap (the
    key of ``analyze --stats``' census); ``args[1]``, when present, is the
    offending node.
    """


#: The reason the latest call of this thread that answered None gave up
#: (see :func:`declined`).
_latest = threading.local()


def declined() -> str:
    """Why the latest effects call of this thread returned None."""
    return getattr(_latest, "reason", "")


def _decline(reason: str) -> None:
    _latest.reason = reason


def _resolve(term: Term, env: dict) -> Term:
    """Substitute local symbolic values into a term and fold constants."""
    mapping = {local: value for local, value in env.items()}
    return simplify_term(term.substitute(mapping))


def _lookup(store_writes: list, location: Term) -> Term | None:
    """Value of ``location`` after the recorded writes, if unambiguous.

    Scans the write list backwards.  A prior write to the same array and
    attribute with a *possibly equal but not identical* index makes the read
    ambiguous — the caller bails out to bounded model checking.
    """
    for target, value in reversed(store_writes):
        if target == location:
            return value
        if _may_alias(target, location) is None:
            raise _Unsupported("ambiguous aliasing", f"{target!r} / {location!r}")
    return None


def _may_alias(a: Term, b: Term) -> bool | None:
    """True: definitely same location.  False: definitely distinct.

    None: undecidable syntactically (same array/attr, distinct index terms
    that are not both constants).
    """
    if a == b:
        return True
    if isinstance(a, Item) and isinstance(b, Item):
        return False  # different names
    if isinstance(a, Field) and isinstance(b, Field):
        if a.array != b.array or a.attr != b.attr:
            return False
        if isinstance(a.index, IntConst) and isinstance(b.index, IntConst):
            return a.index.value == b.index.value
        return None
    return False


def symbolic_paths(
    txn: TransactionType,
    unroll: int = DEFAULT_UNROLL,
    context: Formula | None = None,
    dirty_reads: bool = False,
) -> list | None:
    """All execution paths of a body, or None.

    ``context`` defaults to ``I_j ∧ B_j``; the snapshot equalities of the
    transaction's logical variables are conjoined as well, giving ``Q``-style
    assertions access to initial values.  INSERT, DELETE and UPDATE append a
    :class:`TableEffect` to the path; SELECTs bind a fresh opaque value.

    With ``dirty_reads`` the body runs among other transactions' writes:
    a read of a location the path has not written binds a fresh value, not
    the entry state's, and the condition holds only what stays true of
    those values (the parameter precondition, branch guards, non-negative
    counts).  Each relational write statement is then marked with the
    path's store, condition and effect just before it (``marks``).
    """
    if dirty_reads:
        base = txn.param_pre
    else:
        base = conj(
            txn.consistency if context is None else context,
            txn.param_pre if context is None else TRUE,
            *(eq(logical, term) for logical, term in txn.snapshot),
        )

    def read(location: Term, path: SymbolicPath) -> Term:
        prior = _lookup(path.writes, location)
        if prior is not None:
            return prior
        return fresh_logical(location.sort) if dirty_reads else location

    def guarded(cond: Formula, path: SymbolicPath) -> Formula:
        guard = simplify(cond.substitute(path.env))
        if dirty_reads and (guard.resources() or not guard.projectable()):
            raise _Unsupported("guard reads the database", guard)
        return guard
    paths: list[SymbolicPath] = []
    has_loop = any(isinstance(stmt, While) for stmt in txn.statements())

    def run(stmts: tuple, path: SymbolicPath) -> None:
        if not stmts:
            if path.relational and has_loop:
                raise _Unsupported("loop in a relational body")
            paths.append(path)
            return
        stmt, rest = stmts[0], stmts[1:]
        if isinstance(stmt, Read):
            new_env = dict(path.env)
            new_env[stmt.into] = read(_resolve(stmt.source, path.env), path)
            run(rest, path.fork(env=new_env))
            return
        if isinstance(stmt, ReadRecord):
            new_env = dict(path.env)
            index = _resolve(stmt.index, path.env)
            for attr, local in stmt.binds:
                new_env[local] = read(Field(stmt.array, index, attr, local.var_sort), path)
            run(rest, path.fork(env=new_env))
            return
        if isinstance(stmt, LocalAssign):
            new_env = dict(path.env)
            new_env[stmt.into] = _resolve(stmt.value, path.env)
            run(rest, path.fork(env=new_env))
            return
        if isinstance(stmt, Write):
            target = stmt.target
            if isinstance(target, Field):
                target = Field(target.array, _resolve(target.index, path.env), target.attr, target.var_sort)
            value = _resolve(stmt.value, path.env)
            forked = path.fork()
            forked.writes.append((target, value))
            forked.effects.append((target, value))
            for key in list(forked.store):
                alias = _may_alias(key, target)
                if alias is True:
                    del forked.store[key]
                elif alias is None:
                    raise _Unsupported("possibly-aliasing writes", f"{key!r} / {target!r}")
            forked.store[target] = value
            run(rest, forked)
            return
        if isinstance(stmt, (Select, SelectScalar, SelectCount)):
            new_env = dict(path.env)
            value = new_env[stmt.into] = fresh_logical(stmt.into.var_sort)
            forked = path.fork(env=new_env)
            forked.relational = True
            if isinstance(stmt, SelectCount):
                facts = _count_facts(stmt, value, path, entry_state=not dirty_reads)
                forked.condition = conj(forked.condition, *facts)
            run(rest, forked)
            return
        if isinstance(stmt, (Insert, Delete, Update)):
            forked = path.fork()
            forked.relational = True
            effect = _table_effect(stmt, path.env)
            forked.effects.append(effect)
            if dirty_reads:
                forked.marks[stmt] = (dict(path.store), path.condition, effect)
            run(rest, forked)
            return
        if isinstance(stmt, ForEach):
            # any number of iterations over unknown rows: each UPDATE of the
            # body havocs the attributes it sets; the bound locals end opaque
            forked = path.fork()
            forked.relational = True
            for inner in stmt.body:
                if not isinstance(inner, Update):
                    raise _Unsupported("row-buffer loop body outside UPDATE", inner)
                attrs = tuple(attr for attr, _term in inner.sets)
                forked.effects.append(TableEffect(HAVOC, inner.table, attrs))
            for _attr, local in stmt.bind:
                forked.env[local] = fresh_logical(local.var_sort)
            run(rest, forked)
            return
        if isinstance(stmt, If):
            guard = guarded(stmt.cond, path)
            for branch, taken in ((stmt.then, guard), (stmt.orelse, Not(guard))):
                branch_cond = simplify(conj(path.condition, taken))
                if isinstance(branch_cond, Bottom):
                    continue
                run(tuple(branch) + rest, path.fork(condition=branch_cond))
            return
        if isinstance(stmt, While):
            # unroll: 0..unroll iterations, each prefixed by the guard; after
            # the last one the guard must be unsatisfiable, or the paths
            # that need more iterations would be silently dropped
            for count in range(unroll + 1):
                unrolled: tuple = ()
                for _ in range(count):
                    unrolled += (_Guard(stmt.cond),) + tuple(stmt.body)
                if count == unroll:
                    unrolled += (_Guard(stmt.cond, exhausted=True),)
                unrolled += (_Guard(Not(stmt.cond)),)
                run(unrolled + rest, path.fork())
            return
        if isinstance(stmt, _Guard):
            guard = guarded(stmt.cond, path)
            cond = simplify(conj(path.condition, guard))
            if stmt.exhausted:
                if not isinstance(cond, Bottom):
                    raise _Unsupported("loop may run past the unroll bound", guard)
                run(rest, path)
                return
            if isinstance(cond, Bottom):
                return
            run(rest, path.fork(condition=cond))
            return
        raise _Unsupported("statement outside the symbolic fragment", stmt)

    try:
        run(tuple(txn.body), SymbolicPath(condition=base))
    except _Unsupported as exc:
        _decline(exc.args[0])
        return None
    return paths


def _count_facts(stmt: SelectCount, value: Term, path: SymbolicPath, entry_state: bool) -> tuple:
    """What the path knows of the count a ``SELECT COUNT`` binds to ``value``.

    It is never negative; and with ``entry_state`` (the path reads the state
    it started from), when the path has not yet written the table and the
    WHERE clause reads nothing of the database but the row, it is the
    ``COUNT`` term over that state.
    """
    facts = (Cmp(">=", value, IntConst(0)),)
    if not entry_state or any(
        isinstance(e, TableEffect) and e.table == stmt.table for e in path.effects
    ):
        return facts
    try:
        _check_relational(stmt.where)
    except _Unsupported:
        return facts
    count = CountWhere(stmt.table, stmt.row, simplify(stmt.where.substitute(path.env)))
    return facts + (eq(value, count),)


def count_locals_facts(txn: TransactionType) -> Formula:
    """``local >= 0`` for every local a ``SELECT COUNT`` of ``txn`` binds."""
    return conj(*(
        Cmp(">=", stmt.into, IntConst(0))
        for stmt in txn.statements()
        if isinstance(stmt, SelectCount)
    ))


def _check_relational(*nodes) -> None:
    """Reject relational statement parts that read the database directly.

    A WHERE clause or value that mentions an item, a field or an aggregate
    would be evaluated against the state at that point of the body, which a
    resolved effect cannot name; such statements stay with BMC.
    """
    for node in nodes:
        if isinstance(node, Formula):
            reads = bool(node.resources()) or not node.projectable()
        else:
            reads = any(isinstance(atom, (Item, Field, CountWhere)) for atom in node.atoms())
        if reads:
            raise _Unsupported("relational statement reads the database", node)


def _table_effect(stmt: Statement, env: dict) -> TableEffect:
    """The resolved :class:`TableEffect` of an INSERT, DELETE or UPDATE."""
    if isinstance(stmt, Insert):
        _check_relational(*(term for _attr, term in stmt.values))
        values = tuple((attr, _resolve(term, env)) for attr, term in stmt.values)
        return TableEffect(INSERT, stmt.table, values)
    _check_relational(stmt.where)
    where = simplify(stmt.where.substitute(env))
    if isinstance(stmt, Delete):
        return TableEffect(DELETE, stmt.table, (), where, stmt.row)
    _check_relational(*(term for _attr, term in stmt.sets))
    sets = tuple((attr, _resolve(term, env)) for attr, term in stmt.sets)
    return TableEffect(UPDATE, stmt.table, sets, where, stmt.row)


def statement_effect(stmt: Statement) -> TableEffect | None:
    """The table effect of one relational write statement, its locals free.

    None for anything that is not an INSERT, DELETE or UPDATE, or whose
    clauses read the database directly.
    """
    if not isinstance(stmt, (Insert, Delete, Update)):
        _decline("statement outside the symbolic fragment")
        return None
    try:
        return _table_effect(stmt, {})
    except _Unsupported as exc:
        _decline(exc.args[0])
        return None


@dataclass(frozen=True)
class _Guard(Statement):
    """Internal pseudo-statement: assume a condition along a path.

    With ``exhausted`` it instead asserts that the condition (a loop guard
    after the last unrolled iteration) cannot hold on the path.
    """

    cond: Formula
    exhausted: bool = False

    def execute(self, state, env) -> None:  # pragma: no cover - analysis only
        raise NotImplementedError


def write_sets_intersection_condition(
    writes_a: list,
    writes_b: list,
) -> Formula:
    """A formula true exactly when two resolved write sets intersect.

    Used by Theorem 5's condition 1 (SNAPSHOT): when the write sets of the
    two transactions intersect, first-committer-wins aborts one of them, so
    the pair is harmless regardless of interference.  For array writes the
    condition is the equality of the index terms; for identical scalar items
    it is ``TRUE``.
    """
    clauses: list[Formula] = []
    for target_a, _value_a in writes_a:
        for target_b, _value_b in writes_b:
            alias = _may_alias(target_a, target_b)
            if alias is True:
                return TRUE
            if alias is None and isinstance(target_a, Field) and isinstance(target_b, Field):
                clauses.append(eq(target_a.index, target_b.index))
    return disj(*clauses) if clauses else _false()


def _false() -> Formula:
    from repro.core.formula import FALSE

    return FALSE


def apply_store(assertion: Formula, store: dict) -> Formula | None:
    """The assertion's truth after the (simultaneous) final store.

    Every ``Item``/``Field`` atom of the assertion is mapped to its written
    value when it coincides with a store key.  Array atoms that merely *may*
    alias a key produce a case split: the result is a disjunction over alias
    patterns, each conjoined with the index (dis)equalities that define it.
    Returns None when the case split would exceed :data:`MAX_ALIAS_CASES`,
    or when an abstract predicate of the assertion reads a written location:
    substitution cannot reach into its opaque evaluator.
    """
    if store and overlaps(_opaque_reads(assertion), _written(store)):
        _decline("abstract predicate reads a written location")
        return None
    atom_options: list = []
    atoms = {
        atom
        for atom in assertion.atoms_with_bound()
        if isinstance(atom, (Item, Field))
    }
    for atom in sorted(atoms, key=repr):
        options: list = []  # (mapping-or-None, constraint formula, key)
        certain = None
        maybes = []
        for key, value in store.items():
            alias = _may_alias(key, atom)
            if alias is True:
                certain = (key, value)
                break
            if alias is None:
                maybes.append((key, value))
        if certain is not None:
            options.append((certain[1], TRUE))
        else:
            # exactly one maybe-key can match (store keys are pairwise
            # distinct locations), or none
            for key, value in maybes:
                constraint = eq(atom.index, key.index)  # type: ignore[union-attr]
                options.append((value, constraint))
            none_constraints = [
                ne(atom.index, key.index)  # type: ignore[union-attr]
                for key, _value in maybes
            ]
            options.append((None, conj(*none_constraints)))
        atom_options.append((atom, options))

    total_cases = 1
    for _atom, options in atom_options:
        total_cases *= len(options)
        if total_cases > MAX_ALIAS_CASES:
            _decline("alias case split over the cap")
            return None

    cases: list[Formula] = []
    option_lists = [options for _atom, options in atom_options]
    atoms_in_order = [atom for atom, _options in atom_options]
    for combo in itertools.product(*option_lists) if atom_options else [()]:
        mapping: dict = {}
        constraints: list[Formula] = []
        for atom, (value, constraint) in zip(atoms_in_order, combo):
            if value is not None:
                mapping[atom] = value
            constraints.append(constraint)
        cases.append(conj(*constraints, assertion.substitute(mapping)))
    if not cases:
        return assertion
    return simplify(disj(*cases))


def _opaque_reads(formula: Formula) -> frozenset:
    """What the abstract predicates inside ``formula`` declare they read."""
    if isinstance(formula, AbstractPred):
        return frozenset(formula.reads)
    if isinstance(formula, Not):
        return _opaque_reads(formula.operand)
    if isinstance(formula, (And, Or)):
        return frozenset().union(*map(_opaque_reads, formula.operands))
    if isinstance(formula, Implies):
        return _opaque_reads(formula.premise) | _opaque_reads(formula.conclusion)
    if isinstance(formula, (ForAllRows, ExistsRow)):
        return _opaque_reads(formula.body) | _opaque_reads(formula.where)
    if isinstance(formula, ForAllInts):
        return _opaque_reads(formula.body)
    return frozenset()


def _written(store: dict) -> list:
    """The resources the locations of ``store`` denote."""
    return [
        ScalarResource(loc.name) if isinstance(loc, Item) else ArrayResource(loc.array, loc.attr)
        for loc in store
    ]


def apply_single_write(assertion: Formula, target: Term, value: Term) -> Formula | None:
    """The assertion's truth after one write statement (alias-aware)."""
    return apply_store(assertion, {target: value})


# ---------------------------------------------------------------------------
# relational effect transformers
# ---------------------------------------------------------------------------


def apply_table_effect(assertion: Formula, effect: TableEffect) -> Formula | None:
    """The assertion's truth after one table effect, over the state before it.

    The result implies the assertion's post-value (it is exact wherever it
    can be), so it may stand on the conclusion side of a validity query.
    Fresh logical variables it introduces stand for an arbitrary row and are
    universally quantified by that query.  None when the assertion nests a
    quantifier over the effect's table inside another one, reads the table
    through an abstract predicate, or names an attribute the effect leaves
    undetermined.
    """
    try:
        return simplify(_Transformer(effect).formula(assertion, True, False))
    except _Unsupported as exc:
        _decline(exc.args[0])
        return None


def apply_effects(assertion: Formula, store: dict, table_effects) -> Formula | None:
    """:func:`apply_store`, then each table effect in the order given.

    The store's values do not depend on the tables and the table effects
    leave locations alone, so the two kinds commute; table effects are
    applied innermost first (the last one executed comes first).
    """
    after = apply_store(assertion, store)
    for effect in table_effects:
        if after is None:
            return None
        after = apply_table_effect(after, effect)
    return after


def _touches(formula: Formula, table: str) -> bool:
    return any(
        isinstance(res, TableResource) and res.table == table for res in formula.resources()
    )


def _row_attrs(formula: Formula, row: str) -> dict:
    """``{attr: [RowAttr, ...]}`` for every free attribute of ``row``."""
    out: dict = {}
    for atom in formula.atoms():
        if isinstance(atom, RowAttr) and atom.row == row:
            out.setdefault(atom.attr, []).append(atom)
    return out


def _instantiate(formula: Formula, row: str, values: tuple) -> Formula:
    """``formula[v/row]`` for the row ``v`` given as attribute/term pairs."""
    by_attr = dict(values)
    mapping: dict = {}
    for attr, atoms in _row_attrs(formula, row).items():
        if attr not in by_attr:
            raise _Unsupported("row attribute not among the row's values", f"{row}.{attr}")
        for atom in atoms:
            mapping[atom] = by_attr[attr]
    return formula.substitute(mapping)


def _rename_row(node, old: str, new: str):
    """A formula or term with row variable ``old`` renamed ``new``."""
    mapping = {
        atom: RowAttr(new, atom.attr, atom.var_sort)
        for atom in node.atoms()
        if isinstance(atom, RowAttr) and atom.row == old
    }
    return node.substitute(mapping)


def _fresh_row(formula: Formula, row: str) -> Formula:
    """``formula`` at an arbitrary row: each attribute of ``row`` a fresh variable."""
    mapping = {
        atom: fresh_logical(atom.var_sort)
        for atoms in _row_attrs(formula, row).values()
        for atom in atoms
    }
    return formula.substitute(mapping)


def _row_match(row: str, values: tuple) -> Formula:
    return conj(*(eq(RowAttr(row, attr, term.sort), term) for attr, term in values))


def _top_counts(*terms: Term) -> list:
    """The aggregates of ``terms`` outside any other aggregate."""
    out: list = []
    stack = list(terms)
    while stack:
        term = stack.pop()
        if isinstance(term, CountWhere):
            out.append(term)
        elif isinstance(term, (Add, Sub, Mul)):
            stack.extend((term.left, term.right))
        elif isinstance(term, Neg):
            stack.append(term.operand)
        elif isinstance(term, Field):
            stack.append(term.index)
    return out


def _swap_terms(term: Term, mapping: dict) -> Term:
    """``term`` with whole subterms replaced (``CountWhere`` included)."""
    if term in mapping:
        return mapping[term]
    if isinstance(term, (Add, Sub, Mul)):
        return type(term)(_swap_terms(term.left, mapping), _swap_terms(term.right, mapping))
    if isinstance(term, Neg):
        return Neg(_swap_terms(term.operand, mapping))
    if isinstance(term, Field):
        return Field(term.array, _swap_terms(term.index, mapping), term.attr, term.var_sort)
    return term


class _Transformer:
    """Carries formulas back across one :class:`TableEffect`.

    ``positive`` is the polarity of the subformula inside the conclusion;
    ``bound`` is set below a quantifier, where a fresh-row instance would no
    longer be universally quantified at the top, so rules needing one
    refuse.
    """

    def __init__(self, effect: TableEffect) -> None:
        self.effect = effect
        self.table = effect.table

    def formula(self, f: Formula, positive: bool, bound: bool) -> Formula:
        if not _touches(f, self.table) or self._unchanged(f):
            return f
        if isinstance(f, Not):
            return Not(self.formula(f.operand, not positive, bound))
        if isinstance(f, And):
            return conj(*(self.formula(op, positive, bound) for op in f.operands))
        if isinstance(f, Or):
            return disj(*(self.formula(op, positive, bound) for op in f.operands))
        if isinstance(f, Implies):
            return implies(
                self.formula(f.premise, not positive, bound),
                self.formula(f.conclusion, positive, bound),
            )
        if isinstance(f, (Cmp, BoolAtom)):
            return self.literal(f)
        if isinstance(f, InTable) and f.table == self.table:
            as_exists = ExistsRow(
                f.table, "in!", conj(*(eq(RowAttr("in!", a, t.sort), t) for a, t in f.values))
            )
            after = self.quantifier(as_exists, positive, bound)
            return f if after is as_exists else after
        if isinstance(f, (ForAllRows, ExistsRow)):
            if f.table == self.table:
                return self.quantifier(f, positive, bound)
            # a quantifier over another table: carry its body and where
            # clause across, under the binder (``∀``'s where is negative)
            where_positive = positive if isinstance(f, ExistsRow) else not positive
            return type(f)(
                f.table, f.row,
                self.formula(f.body, positive, True),
                self.formula(f.where, where_positive, True),
            )
        if isinstance(f, ForAllInts):
            if any(isinstance(a, CountWhere) and a.table == self.table
                   for a in itertools.chain(f.low.atoms(), f.high.atoms())):
                raise _Unsupported("aggregate quantifier bound", f)
            return ForAllInts(f.var, f.low, f.high, self.formula(f.body, positive, True))
        raise _Unsupported(f"no transformer for {type(f).__name__}", f)

    def literal(self, f: Formula) -> Formula:
        """A comparison over ``COUNT`` aggregates of the table: case split."""
        tops = _top_counts(f.left, f.right) if isinstance(f, Cmp) else _top_counts(f.term)
        counts = sorted({c for c in tops if c.table == self.table}, key=repr)
        if not counts or any(
            c.table != self.table and _touches(c.where, self.table) for c in tops
        ):
            raise _Unsupported("literal reads the table indirectly", f)
        effect = self.effect
        option_lists = []
        for count in counts:
            if _touches(count.where, self.table):
                raise _Unsupported("nested aggregate", count)
            if effect.kind == INSERT:
                hit = _instantiate(count.where, count.row, effect.values)
                options = [(Add(count, IntConst(1)), hit), (count, Not(hit))]
            elif effect.kind == UNINSERT:
                hit = conj(
                    InTable(self.table, effect.values),
                    _instantiate(count.where, count.row, effect.values),
                )
                options = [(Sub(count, IntConst(1)), hit), (count, Not(hit))]
            elif effect.kind == DELETE:
                kept = conj(count.where, Not(_rename_row(effect.where, effect.row, count.row)))
                options = [(CountWhere(self.table, count.row, kept), TRUE)]
            elif set(_row_attrs(count.where, count.row)).isdisjoint(_changed(effect)):
                options = [(count, TRUE)]
            else:
                raise _Unsupported("UPDATE of a counted attribute", count)
            option_lists.append(options)
        cases = []
        for combo in itertools.product(*option_lists):
            mapping = {count: term for count, (term, _cond) in zip(counts, combo)}
            if isinstance(f, Cmp):
                swapped = Cmp(f.op, _swap_terms(f.left, mapping), _swap_terms(f.right, mapping))
            else:
                swapped = BoolAtom(_swap_terms(f.term, mapping))
            cases.append(conj(*(cond for _term, cond in combo), swapped))
        return disj(*cases)

    def _unchanged(self, f: Formula) -> bool:
        """Whether the effect changes no attribute ``f`` reads of the table."""
        if self.effect.kind not in (UPDATE, HAVOC):
            return False
        read = {
            res.attr
            for res in f.resources()
            if isinstance(res, TableResource) and res.table == self.table
        }
        return _changed(self.effect).isdisjoint(read)

    def quantifier(self, q: Formula, positive: bool, bound: bool) -> Formula:
        """A row quantifier over the effect's table.

        A quantifier or aggregate over the table inside ``q`` is carried
        across first, under the binder; the rules below then read the
        transformed matrix as one over the state before the effect.
        """
        if _touches(q.body, self.table) or _touches(q.where, self.table):
            where_positive = positive if isinstance(q, ExistsRow) else not positive
            q = type(q)(
                q.table, q.row,
                self.formula(q.body, positive, True),
                self.formula(q.where, where_positive, True),
            )
        effect, row = self.effect, q.row
        universal = isinstance(q, ForAllRows)
        matrix = implies(q.where, q.body) if universal else conj(q.where, q.body)
        if effect.kind == INSERT:
            instance = _instantiate(matrix, row, effect.values)
            return conj(q, instance) if universal else disj(q, instance)
        if effect.kind == UNINSERT:
            if universal:
                if positive:
                    return q
                return ForAllRows(
                    self.table, row, q.body, conj(q.where, Not(_row_match(row, effect.values)))
                )
            # a witness survives unless it is the removed row
            return conj(q, Not(_instantiate(matrix, row, effect.values))) if positive else q
        if effect.kind == HAVOC:
            # it changes an attribute the matrix reads (``formula`` kept the rest)
            raise _Unsupported("unknown attribute values", q)
        delta = _rename_row(effect.where, effect.row, row)
        if effect.kind == DELETE:
            if universal:
                return q if positive else ForAllRows(self.table, row, q.body, conj(q.where, Not(delta)))
            if not positive:
                return q
            self._need_unbound(bound, q)
            return conj(q, _fresh_row(implies(matrix, Not(delta)), row))
        # UPDATE
        if _changed(effect).isdisjoint(_row_attrs(matrix, row)):
            return q
        mapping = {
            atom: _rename_row(term, effect.row, row)
            for attr, term in effect.values
            for atom in _row_attrs(matrix, row).get(attr, ())
        }
        moved = matrix.substitute(mapping)
        if universal:
            return ForAllRows(
                self.table, row, conj(implies(delta, moved), implies(Not(delta), matrix))
            )
        if positive:
            self._need_unbound(bound, q)
            return conj(q, _fresh_row(implies(conj(delta, matrix), moved), row))
        return ExistsRow(self.table, row, disj(conj(delta, moved), conj(Not(delta), matrix)))

    @staticmethod
    def _need_unbound(bound: bool, q: Formula) -> None:
        if bound:
            raise _Unsupported("fresh-row instance under a binder", q)


def _changed(effect: TableEffect) -> set:
    """The attributes an UPDATE or HAVOC effect may change."""
    if effect.kind == HAVOC:
        return set(effect.values)
    return {attr for attr, _term in effect.values}


# ---------------------------------------------------------------------------
# entry-state symbols (relational rollback)
# ---------------------------------------------------------------------------


class EntryState:
    """Fresh symbols for database values in a transaction's entry state.

    Rolling a transaction back restores every location it wrote to the
    value the location held when the transaction started.  Those values
    belong to the entry state, not the current one: at READ UNCOMMITTED the
    other transaction may have written, since then, a location this one
    only read.  :meth:`lift` restates an entry-state condition over fresh
    symbols; :meth:`congruence` says two symbols of one array attribute
    agree when their indices do.
    """

    def __init__(self) -> None:
        self.symbols: dict = {}

    def value(self, location: Term) -> Term:
        """The entry-state symbol of an item or field."""
        symbol = self.symbols.get(location)
        if symbol is None:
            if isinstance(location, Field) and any(
                isinstance(atom, (Item, Field, CountWhere, RowAttr, BoundVar))
                for atom in location.index.atoms()
            ):
                raise _Unsupported("index reads the database", location)
            symbol = self.symbols[location] = fresh_logical(location.sort)
        return symbol

    def lift(self, condition: Formula) -> Formula:
        """The conjuncts of ``condition`` that hold of the entry state alone.

        Conjuncts over tables or abstract predicates are dropped (the entry
        table is gone); items and fields become entry symbols.
        """
        kept = []
        for part in (condition.operands if isinstance(condition, And) else (condition,)):
            if not part.projectable() or any(
                isinstance(res, TableResource) for res in part.resources()
            ):
                continue
            try:
                mapping = {
                    atom: self.value(atom)
                    for atom in part.atoms()
                    if isinstance(atom, (Item, Field))
                }
            except _Unsupported:
                continue
            kept.append(part.substitute(mapping))
        return conj(*kept)

    def congruence(self) -> Formula:
        clauses = []
        fields = [loc for loc in self.symbols if isinstance(loc, Field)]
        for a, b in itertools.combinations(fields, 2):
            if a.array == b.array and a.attr == b.attr:
                clauses.append(
                    implies(eq(a.index, b.index), eq(self.symbols[a], self.symbols[b]))
                )
        return conj(*clauses)


def undo_effects(path: SymbolicPath, entry: EntryState) -> list | None:
    """The path's writes, in program order, as their undo actions.

    A location write undoes to ``(location, entry symbol)``; an INSERT to an
    UNINSERT of its row, whose values (read by this transaction at some
    point) become fresh unconstrained symbols; an UPDATE to a havoc of the
    attributes it set.  None when the path writes a location twice (its
    undo would restore an intermediate value), deletes rows (the restored
    rows are unknown), or indexes a write by a database value.
    """
    out: list = []
    written: list = []
    opaque: dict = {}
    try:
        for effect in path.effects:
            if isinstance(effect, TableEffect):
                if effect.kind in (UPDATE, HAVOC):
                    out.append(TableEffect(HAVOC, effect.table, tuple(sorted(_changed(effect)))))
                    continue
                if effect.kind != INSERT:
                    raise _Unsupported("undo of a DELETE")
                for _attr, term in effect.values:
                    for atom in term.atoms():
                        if isinstance(atom, (Item, Field)) and atom not in opaque:
                            opaque[atom] = fresh_logical(atom.sort)
                values = tuple((attr, term.substitute(opaque)) for attr, term in effect.values)
                if any(isinstance(atom, (Item, Field)) for _a, t in values for atom in t.atoms()):
                    raise _Unsupported("undone row names a field indexed by a database value")
                out.append(TableEffect(UNINSERT, effect.table, values))
                continue
            target, _value = effect
            if any(_may_alias(prior, target) is not False for prior in written):
                raise _Unsupported("undo of a location written twice")
            written.append(target)
            out.append((target, entry.value(target)))
    except _Unsupported as exc:
        _decline(exc.args[0])
        return None
    return out
