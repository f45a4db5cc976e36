"""A small validity/satisfiability engine for the assertion language.

The paper discharges its non-interference triples (3) by hand in Hoare
logic.  This module mechanises the quantifier-free fragment the worked
examples live in: boolean combinations of *linear integer* comparisons over
atomic reference terms, plus equalities over string terms and boolean atoms.

Pipeline for :func:`is_satisfiable`:

1. *opacification* — quantified subformulas, membership assertions,
   aggregates and abstract predicates are replaced by fresh uninterpreted
   atoms (identical subtrees share an atom).  A ``VALID`` verdict on the
   abstraction is sound for the original formula; a counterexample found
   through an abstraction is only a *candidate* and is downgraded to
   ``UNKNOWN`` unless the formula needed no abstraction;
2. *negation normal form* with integer ``!=`` split into ``< or >``;
3. a *branch-and-prune search* over the NNF goal (:func:`_search`): the
   literals it asserts are collected first, then it branches on one
   disjunction at a time, and every node's partial cube passes an
   interval check and a cube decision before the search goes deeper, so
   a contradiction cuts off every cube below it.  Two fields of one
   integer array are related lazily: a leaf whose model gives them equal
   indices and different values is split on the order of the indices
   (the Ackermann axiom's three cases, taken only where a model needs
   them).  A node budget bounds the search;
4. each cube is decided by: boolean-literal consistency, a union-find over
   string equalities, and linear-integer reasoning.  Integer cubes are
   decided in pure Python: bounds propagation with integer tightening,
   complete enumeration of small implied boxes, corner probes, and
   Fourier–Motzkin elimination over gcd-tightened rows, which refutes the
   cube or back-substitutes an integer model.

Verdicts are three-valued (:class:`Verdict`); every consumer in the
interference checker treats ``UNKNOWN`` conservatively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core import formula as fm
from repro.core import terms as tm
from repro.core.formula import (
    And,
    BoolAtom,
    Bottom,
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
    Top,
    TRUE,
    FALSE,
    AbstractPred,
    conj,
    disj,
)
from repro.core.resources import TableResource
from repro.core.terms import (
    Add,
    BoolConst,
    IntConst,
    Mul,
    Neg,
    StrConst,
    Sub,
    Term,
)
from repro.errors import ProverError

#: Version of the decision procedure; part of the persistent verdict-store
#: salt (see :mod:`repro.core.persist`) so verdicts computed by an older
#: prover can never satisfy a lookup after the procedure changes (5: the
#: search replaces the DNF expansion; integer array congruence is lazy).
PROVER_VERSION = "5"

#: Search nodes one decision may visit before it gives up with UNKNOWN.
MAX_NODES = 20_000

#: How far from its first (nearest-zero) value back-substitution moves a
#: variable before it backtracks.
BOX_RADIUS = 4

#: Bounds-propagation rounds before the integer solver stops tightening.
FAST_PROP_ROUNDS = 16

#: Largest implied integer box enumerated exhaustively; also the cap on the
#: values back-substitution tries in total.
FAST_BOX_LIMIT = 4096

#: Row cap for one Fourier–Motzkin elimination step before the cube is left
#: undecided.
FAST_FM_ROWS = 256


class Verdict:
    """Result of a validity or satisfiability query."""

    VALID = "valid"
    INVALID = "invalid"
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ProofResult:
    """Outcome of a prover query.

    ``model`` is a counterexample (for validity queries) or a satisfying
    assignment (for satisfiability queries), mapping atomic terms to values.
    ``abstracted`` records whether opacification replaced any subformula, in
    which case a model is only a candidate.
    """

    verdict: str
    model: Mapping[Term, object] | None = None
    abstracted: bool = False
    reason: str = ""

    def __bool__(self) -> bool:
        return self.verdict == Verdict.VALID


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------

#: Cap on entries per memo table; the oldest insertion half is evicted on
#: overflow (see :func:`_memo_put`).
MEMO_CAP = 200_000

_term_memo: dict = {}
_formula_memo: dict = {}
_query_memo: dict = {}
#: integer comparison literal -> (constraints, atoms in registration order,
#: interval facts; see :func:`_literal_entry`)
_literal_memo: dict = {}

_memo_stats = {
    "simplify_hits": 0,
    "simplify_misses": 0,
    "query_hits": 0,
    "query_misses": 0,
    "memo_evictions": 0,
    "cubes_sat": 0,
    "cubes_unsat": 0,
    "cubes_open": 0,  # integer cubes left undecided (UNKNOWN)
    "search_nodes": 0,  # partial cubes the search visited
    "search_pruned": 0,  # nodes whose literals' intervals already contradict
    "search_leaves": 0,  # nodes with no disjunction left to branch on
    "congruence_splits": 0,  # leaves split on two fields' indices
}


def prover_cache_stats() -> dict:
    """Counters and sizes of the prover's memo tables and decision paths.

    Includes the simplify/query hit and miss counts, per-table entry counts,
    derived hit rates, how many integer cubes came out SAT, UNSAT or
    undecided, and the search's nodes, nodes pruned by bounds, leaves and
    congruence splits.
    """
    stats = dict(_memo_stats)
    stats["term_memo_size"] = len(_term_memo)
    stats["formula_memo_size"] = len(_formula_memo)
    stats["query_memo_size"] = len(_query_memo)
    stats["literal_memo_size"] = len(_literal_memo)
    simplify_total = stats["simplify_hits"] + stats["simplify_misses"]
    stats["simplify_hit_rate"] = (
        round(stats["simplify_hits"] / simplify_total, 4) if simplify_total else 0.0
    )
    query_total = stats["query_hits"] + stats["query_misses"]
    stats["query_hit_rate"] = (
        round(stats["query_hits"] / query_total, 4) if query_total else 0.0
    )
    return stats


def clear_prover_caches() -> None:
    """Drop all memo tables and reset their counters (test isolation)."""
    _term_memo.clear()
    _formula_memo.clear()
    _query_memo.clear()
    _literal_memo.clear()
    for key in _memo_stats:
        _memo_stats[key] = 0


def _memo_put(table: dict, key, value) -> None:
    if len(table) >= MEMO_CAP:
        # Evict the oldest insertion half rather than clearing wholesale: a
        # long certify run keeps its recent (hot) entries instead of losing
        # the entire memo at the cap and re-proving everything.
        drop = len(table) // 2
        for stale in list(itertools.islice(table, drop)):
            del table[stale]
        _memo_stats["memo_evictions"] += drop
    table[key] = value


# ---------------------------------------------------------------------------
# term simplification (constant folding)
# ---------------------------------------------------------------------------


def simplify_term(term: Term) -> Term:
    """Fold constants and drop arithmetic identities (memoized)."""
    cached = _term_memo.get(term)
    if cached is not None:
        _memo_stats["simplify_hits"] += 1
        return cached
    _memo_stats["simplify_misses"] += 1
    result = _simplify_term_impl(term)
    _memo_put(_term_memo, term, result)
    if result != term:
        # a simplified term is its own fixed point — register it so a later
        # simplify_term(result) is a hit instead of a full re-walk
        _memo_put(_term_memo, result, result)
    return result


def _simplify_term_impl(term: Term) -> Term:
    if isinstance(term, (Add, Sub, Mul)):
        left = simplify_term(term.left)
        right = simplify_term(term.right)
        if isinstance(left, IntConst) and isinstance(right, IntConst):
            if isinstance(term, Add):
                return IntConst(left.value + right.value)
            if isinstance(term, Sub):
                return IntConst(left.value - right.value)
            return IntConst(left.value * right.value)
        if isinstance(term, Add):
            if isinstance(left, IntConst) and left.value == 0:
                return right
            if isinstance(right, IntConst) and right.value == 0:
                return left
            return Add(left, right)
        if isinstance(term, Sub):
            if isinstance(right, IntConst) and right.value == 0:
                return left
            if left == right:
                return IntConst(0)
            return Sub(left, right)
        if isinstance(left, IntConst) and left.value == 1:
            return right
        if isinstance(right, IntConst) and right.value == 1:
            return left
        if (isinstance(left, IntConst) and left.value == 0) or (
            isinstance(right, IntConst) and right.value == 0
        ):
            return IntConst(0)
        return Mul(left, right)
    if isinstance(term, Neg):
        operand = simplify_term(term.operand)
        if isinstance(operand, IntConst):
            return IntConst(-operand.value)
        return Neg(operand)
    if isinstance(term, tm.Field):
        return tm.Field(term.array, simplify_term(term.index), term.attr, term.var_sort)
    return term


def simplify(formula: Formula) -> Formula:
    """Lightweight formula simplification: fold constants, prune units.

    Memoized (bounded).  The result is also registered as its own fixed
    point, so re-simplifying an already-simplified formula — which every
    prover query used to do after the interference layer had simplified its
    goal — is a dictionary hit rather than a second tree walk.
    """
    cached = _formula_memo.get(formula)
    if cached is not None:
        _memo_stats["simplify_hits"] += 1
        return cached
    _memo_stats["simplify_misses"] += 1
    result = _simplify_impl(formula)
    _memo_put(_formula_memo, formula, result)
    if result != formula:
        _memo_put(_formula_memo, result, result)
    return result


def _simplify_impl(formula: Formula) -> Formula:
    if isinstance(formula, Cmp):
        left = simplify_term(formula.left)
        right = simplify_term(formula.right)
        if isinstance(left, (IntConst, BoolConst, StrConst)) and isinstance(
            right, (IntConst, BoolConst, StrConst)
        ):
            result = fm._CMP_OPS[formula.op](left.value, right.value)
            return TRUE if result else FALSE
        if left == right:
            return TRUE if formula.op in ("==", "<=", ">=") else FALSE
        return Cmp(formula.op, left, right)
    if isinstance(formula, Not):
        inner = simplify(formula.operand)
        if isinstance(inner, Top):
            return FALSE
        if isinstance(inner, Bottom):
            return TRUE
        if isinstance(inner, Not):
            return inner.operand
        if isinstance(inner, Cmp) and inner.left.sort != "str":
            return inner.negated()
        return Not(inner)
    if isinstance(formula, And):
        return conj(*(simplify(op) for op in formula.operands))
    if isinstance(formula, Or):
        return disj(*(simplify(op) for op in formula.operands))
    if isinstance(formula, Implies):
        return fm.implies(simplify(formula.premise), simplify(formula.conclusion))
    if isinstance(formula, ForAllRows):
        return ForAllRows(formula.table, formula.row, simplify(formula.body), simplify(formula.where))
    if isinstance(formula, ExistsRow):
        return ExistsRow(formula.table, formula.row, simplify(formula.body), simplify(formula.where))
    if isinstance(formula, ForAllInts):
        return ForAllInts(
            formula.var,
            simplify_term(formula.low),
            simplify_term(formula.high),
            simplify(formula.body),
        )
    if isinstance(formula, BoolAtom):
        term = simplify_term(formula.term)
        if isinstance(term, BoolConst):
            return TRUE if term.value else FALSE
        return BoolAtom(term)
    return formula


# ---------------------------------------------------------------------------
# opacification of non-QF constructs
# ---------------------------------------------------------------------------


@dataclass
class _Opacifier:
    """Replaces non-quantifier-free subformulas/terms by fresh atoms."""

    formula_atoms: dict = field(default_factory=dict)
    term_atoms: dict = field(default_factory=dict)
    used: bool = False
    #: whether a product of two non-constant terms becomes an atom too
    products: bool = False

    def formula_atom(self, original: Formula) -> Formula:
        self.used = True
        atom = self.formula_atoms.get(original)
        if atom is None:
            atom = BoolAtom(tm.Local(f"__abs_f{len(self.formula_atoms)}", "bool"))
            self.formula_atoms[original] = atom
        return atom

    def term_atom(self, original: Term) -> Term:
        self.used = True
        atom = self.term_atoms.get(original)
        if atom is None:
            atom = tm.Local(f"__abs_t{len(self.term_atoms)}", "int")
            self.term_atoms[original] = atom
        return atom

    def run_term(self, term: Term) -> Term:
        if isinstance(term, CountWhere):
            return self.term_atom(term)
        if isinstance(term, (Add, Sub, Mul)):
            left, right = self.run_term(term.left), self.run_term(term.right)
            if self.products and isinstance(term, Mul) and not (_constant(left) or _constant(right)):
                # an uninterpreted application; see _congruence_axioms
                return self.term_atom(Mul(left, right))
            return type(term)(left, right)
        if isinstance(term, Neg):
            return Neg(self.run_term(term.operand))
        if isinstance(term, tm.Field):
            return tm.Field(term.array, self.run_term(term.index), term.attr, term.var_sort)
        return term

    def run(self, formula: Formula) -> Formula:
        if isinstance(formula, ForAllInts):
            expanded = _expand_forall_ints(formula)
            if expanded is not None:
                return self.run(expanded)
            return self.formula_atom(formula)
        if isinstance(formula, (ForAllRows, ExistsRow, InTable, AbstractPred)):
            return self.formula_atom(formula)
        if isinstance(formula, Cmp):
            return Cmp(formula.op, self.run_term(formula.left), self.run_term(formula.right))
        if isinstance(formula, BoolAtom):
            return BoolAtom(self.run_term(formula.term))
        if isinstance(formula, Not):
            return Not(self.run(formula.operand))
        if isinstance(formula, And):
            return And(tuple(self.run(op) for op in formula.operands))
        if isinstance(formula, Or):
            return Or(tuple(self.run(op) for op in formula.operands))
        if isinstance(formula, Implies):
            return Implies(self.run(formula.premise), self.run(formula.conclusion))
        return formula


#: Maximum width of a bounded integer quantifier the prover will expand.
MAX_QUANTIFIER_EXPANSION = 8


def _expand_forall_ints(formula: ForAllInts) -> Formula | None:
    """Instantiate a ``forall int`` with small constant bounds.

    ``∀ $d ∈ a..b: body`` with literal ``a``, ``b`` and ``b - a`` below the
    expansion cap becomes the finite conjunction of instantiated bodies —
    an exact reduction that keeps such formulas inside the decidable
    fragment instead of opacifying them.
    """
    low = simplify_term(formula.low)
    high = simplify_term(formula.high)
    if not isinstance(low, IntConst) or not isinstance(high, IntConst):
        return None
    if high.value - low.value >= MAX_QUANTIFIER_EXPANSION:
        return None
    from repro.core.formula import BoundVar

    instances = [
        formula.body.substitute({BoundVar(formula.var): IntConst(value)})
        for value in range(low.value, high.value + 1)
    ]
    return conj(*instances)


# ---------------------------------------------------------------------------
# quantifier instantiation
# ---------------------------------------------------------------------------


class _Row:
    """A ground row of ``table`` that universals over it are instantiated at.

    ``guard`` holds whenever the row is in the table; ``values`` fixes some
    attributes, and every other attribute, per sort, is a fresh constant.
    """

    def __init__(self, name: str, table: str, guard: Formula, values: Iterable = ()) -> None:
        self.name, self.table, self.guard = name, table, guard
        self.values = dict(values)
        self.fresh: dict = {}

    def attr(self, attr: str, sort: str) -> Term:
        value = self.values.get(attr)
        if value is None:
            value = self.fresh.get((attr, sort))
            if value is None:
                value = self.fresh[attr, sort] = tm.Local(f"{self.name}.{attr}", sort)
        return value


def _row_instance(q: Formula, row: _Row) -> Formula:
    """The matrix of row quantifier ``q`` at ``row``: ``where → body`` for
    ``∀``, ``where ∧ body`` for ``∃``."""
    mapping = {
        atom: row.attr(atom.attr, atom.var_sort)
        for part in (q.where, q.body)
        for atom in part.atoms()
        if isinstance(atom, fm.RowAttr) and atom.row == q.row
    }
    where, body = q.where.substitute(mapping), q.body.substitute(mapping)
    return fm.implies(where, body) if isinstance(q, ForAllRows) else conj(where, body)


def _defined(q: Formula, positive: bool) -> dict:
    """Attributes that an existential's witness row has by an equality.

    A conjunct ``r.a == t`` of the witness's matrix (``where ∧ body`` of an
    ``∃``, ``where ∧ ¬body`` of a ``¬∀``), with ``t`` free of the row,
    fixes the attribute to ``t``, so instances at the row read ``t``.
    """
    parts = list(fm.conjuncts(q.where))
    body = q.body if positive else simplify(Not(q.body))
    parts += fm.conjuncts(body)
    values: dict = {}
    for part in parts:
        if not (isinstance(part, Cmp) and part.op == "=="):
            continue
        for attr, term in ((part.left, part.right), (part.right, part.left)):
            if (
                isinstance(attr, fm.RowAttr)
                and attr.row == q.row
                and attr.attr not in values
                and not any(isinstance(a, fm.RowAttr) and a.row == q.row for a in term.atoms())
            ):
                values[attr.attr] = term
                break
    return values


def _int_instance(q: ForAllInts, value: Term) -> Formula:
    """``low <= value <= high → body[value]`` for a ``forall int``."""
    return fm.implies(
        conj(Cmp("<=", q.low, value), Cmp("<=", value, q.high)),
        q.body.substitute({fm.BoundVar(q.var): value}),
    )


class _Instantiator:
    """One round of Skolemisation and instantiation of a goal's quantifiers.

    :meth:`skolemise` replaces each existentially occurring quantifier
    outside any binder (``∃`` row or ``¬∀`` row or int) by its matrix at a
    fresh constant, and records every tuple an ``InTable`` outside a binder
    names, as ground rows.  :meth:`instantiate` then conjoins, next to each
    universally occurring quantifier outside a binder, its instances at
    those rows of its table (each guarded by the row's membership) or at
    those integers, and instantiates the instances' own universals the
    same way.  The quantifiers that remain stay for the opacifier.  Every
    step maps the goal to an equisatisfiable one whose models extend the
    goal's, so UNSAT carries over; SAT does not, as the remaining
    quantifiers are abstracted.
    """

    def __init__(self) -> None:
        self.rows: dict = {}  # table -> [_Row]
        self.ints: list = []
        self.named: set = set()  # (InTable, guard) pairs already recorded

    def _row(self, table: str, guard: Formula, values: Iterable = ()) -> _Row:
        row = _Row(f"__row{sum(map(len, self.rows.values()))}", table, guard, values)
        self.rows.setdefault(table, []).append(row)
        return row

    def skolemise(self, f: Formula, positive: bool, top: bool) -> Formula:
        """``f`` at ``positive`` polarity; ``top`` when every model of the
        goal makes ``f``'s polarity-adjusted value true."""
        if isinstance(f, Not):
            return Not(self.skolemise(f.operand, not positive, top))
        if isinstance(f, (And, Or)):
            child_top = top and positive == isinstance(f, And)
            parts = (self.skolemise(op, positive, child_top) for op in f.operands)
            return conj(*parts) if isinstance(f, And) else disj(*parts)
        if isinstance(f, Implies):
            child_top = top and not positive
            return fm.implies(
                self.skolemise(f.premise, not positive, child_top),
                self.skolemise(f.conclusion, positive, child_top),
            )
        if isinstance(f, InTable):
            guard = TRUE if top and positive else f
            if (f, guard) not in self.named:
                self.named.add((f, guard))
                self._row(f.table, guard, f.values)
            return f
        if isinstance(f, ForAllInts):
            expanded = _expand_forall_ints(f)
            if expanded is not None:
                return self.skolemise(expanded, positive, top)
            if positive:
                return f
            value = tm.Local(f"__int{len(self.ints)}", "int")
            self.ints.append(value)
            return self.skolemise(_int_instance(f, value), positive, top)
        if isinstance(f, (ForAllRows, ExistsRow)) and positive == isinstance(f, ExistsRow):
            # the existential ``f`` (or ``¬f``) holds of a fresh row; where
            # it need not hold, that row is in the table only when it does
            witness = f if positive else Not(f)
            row = self._row(f.table, TRUE if top else witness, _defined(f, positive))
            instance = self.skolemise(_row_instance(f, row), positive, top)
            if top:
                return instance
            return conj(f, instance) if positive else disj(f, instance)
        return f

    def instantiate(self, f: Formula, positive: bool) -> Formula:
        if isinstance(f, Not):
            return Not(self.instantiate(f.operand, not positive))
        if isinstance(f, (And, Or)):
            parts = (self.instantiate(op, positive) for op in f.operands)
            return conj(*parts) if isinstance(f, And) else disj(*parts)
        if isinstance(f, Implies):
            return fm.implies(
                self.instantiate(f.premise, not positive), self.instantiate(f.conclusion, positive)
            )
        if isinstance(f, ForAllInts):
            if not positive:
                return f
            expanded = _expand_forall_ints(f)
            if expanded is not None:
                return self.instantiate(expanded, positive)
            instances = [_int_instance(f, value) for value in self.ints]
        elif isinstance(f, (ForAllRows, ExistsRow, InTable)) and positive != isinstance(
            f, (ExistsRow, InTable)
        ):
            instances = []
            for row in self.rows.get(f.table, ()):
                if isinstance(f, InTable):
                    matrix = conj(*(Cmp("==", row.attr(a, t.sort), t) for a, t in f.values))
                else:
                    matrix = _row_instance(f, row)
                matrix = self.instantiate(simplify(matrix), positive)
                # ``∀`` instances hold where the row is a member; a negated
                # ``∃`` gains the disjuncts whose negations do
                instances.append(
                    fm.implies(row.guard, matrix) if positive else conj(row.guard, matrix)
                )
            return conj(f, *instances) if positive else disj(f, *instances)
        else:
            return f
        instances = [self.instantiate(simplify(i), positive) for i in instances]
        return conj(f, *instances)


def _instantiate_quantifiers(goal: Formula) -> Formula:
    """``goal`` after one round of quantifier instantiation (see
    :class:`_Instantiator`); ``goal`` itself when it has no quantifier."""
    instantiator = _Instantiator()
    skolemised = instantiator.skolemise(goal, True, True)
    if not instantiator.rows and not instantiator.ints:
        return skolemised
    return simplify(instantiator.instantiate(skolemised, True))


# ---------------------------------------------------------------------------
# NNF
# ---------------------------------------------------------------------------


def _nnf(formula: Formula, negate: bool) -> Formula:
    if isinstance(formula, Top):
        return FALSE if negate else TRUE
    if isinstance(formula, Bottom):
        return TRUE if negate else FALSE
    if isinstance(formula, Not):
        return _nnf(formula.operand, not negate)
    if isinstance(formula, And):
        parts = tuple(_nnf(op, negate) for op in formula.operands)
        return disj(*parts) if negate else conj(*parts)
    if isinstance(formula, Or):
        parts = tuple(_nnf(op, negate) for op in formula.operands)
        return conj(*parts) if negate else disj(*parts)
    if isinstance(formula, Implies):
        if negate:
            return conj(_nnf(formula.premise, False), _nnf(formula.conclusion, True))
        return disj(_nnf(formula.premise, True), _nnf(formula.conclusion, False))
    if isinstance(formula, Cmp):
        literal = formula.negated() if negate else formula
        if literal.op == "!=" and "str" not in (literal.left.sort, literal.right.sort):
            return disj(
                Cmp("<", literal.left, literal.right),
                Cmp(">", literal.left, literal.right),
            )
        return literal
    if isinstance(formula, BoolAtom):
        return Not(formula) if negate else formula
    raise ProverError(f"formula not opacified before NNF: {formula!r}")


# ---------------------------------------------------------------------------
# linear-arithmetic cube decision
# ---------------------------------------------------------------------------


def _linearize(term: Term, variables: dict) -> dict | None:
    """Express an int term as {var_term: coeff} plus constant key ``None``.

    Returns None when the term is non-linear (variable * variable).
    """
    if isinstance(term, IntConst):
        return {None: term.value}
    if isinstance(term, Add):
        left = _linearize(term.left, variables)
        right = _linearize(term.right, variables)
        if left is None or right is None:
            return None
        return _combine(left, right, 1)
    if isinstance(term, Sub):
        left = _linearize(term.left, variables)
        right = _linearize(term.right, variables)
        if left is None or right is None:
            return None
        return _combine(left, right, -1)
    if isinstance(term, Neg):
        inner = _linearize(term.operand, variables)
        if inner is None:
            return None
        return {key: -coeff for key, coeff in inner.items()}
    if isinstance(term, Mul):
        left = _linearize(term.left, variables)
        right = _linearize(term.right, variables)
        if left is None or right is None:
            return None
        left_const = set(left) <= {None}
        right_const = set(right) <= {None}
        if left_const:
            factor = left.get(None, 0)
            return {key: coeff * factor for key, coeff in right.items()}
        if right_const:
            factor = right.get(None, 0)
            return {key: coeff * factor for key, coeff in left.items()}
        return None
    # atomic int-valued reference term
    variables.setdefault(term, len(variables))
    return {term: 1}


def _combine(left: dict, right: dict, sign: int) -> dict:
    out = dict(left)
    for key, coeff in right.items():
        out[key] = out.get(key, 0) + sign * coeff
    return {key: coeff for key, coeff in out.items() if key is None or coeff != 0}


@dataclass
class _IntConstraint:
    """coeffs . x  <rel>  bound, with <rel> in {"<=", "=="}."""

    coeffs: dict
    rel: str
    bound: int


def _literal_entry(literal: Cmp) -> tuple:
    """``(constraints, atoms, facts)`` of an integer comparison, memoised.

    Memoised on the hash-consed literal: a literal recurs in many cubes
    and queries, and its translation depends on nothing else.  ``atoms``
    lists the atoms in the order :func:`_linearize` first met them;
    ``facts`` are the literal's :func:`_interval_facts`.  Entries are
    shared and must not be mutated.
    """
    cached = _literal_memo.get(literal)
    if cached is None:
        atoms: dict = {}
        constraints = _translate_literal(literal, atoms)
        cached = (constraints, tuple(atoms), _interval_facts(constraints))
        _memo_put(_literal_memo, literal, cached)
    return cached


def _int_constraints_of_literal(literal: Cmp, variables: dict) -> tuple | None:
    """Translate an integer comparison into <= / == constraints.

    The memoised atoms are replayed into ``variables`` so positions match
    a fresh translation.  None when the literal is nonlinear.
    """
    constraints, atoms, _facts = _literal_entry(literal)
    for atom in atoms:
        variables.setdefault(atom, len(variables))
    return constraints


def _interval_facts(constraints: Sequence[_IntConstraint] | None) -> tuple | None:
    """``(key, low, high)`` facts that every integer model of ``constraints`` meets.

    Each row with a variable is divided by the gcd of its coefficients,
    flooring the bound as :func:`_add_row` does, and signed so that its
    first coefficient in term-fingerprint order is positive: ``key`` is
    that coefficient vector, so ``v`` and ``-v`` share it, and ``key . x``
    lies in ``[low, high]`` (``±inf`` where unbounded).  None when the
    constraints alone have no integer model: an equality whose bound the
    gcd does not divide, or a ground row that fails.
    """
    if constraints is None:
        return ()
    facts = []
    for constraint in constraints:
        coeffs, bound, equality = constraint.coeffs, constraint.bound, constraint.rel == "=="
        if not coeffs:
            if bound < 0 or (equality and bound):
                return None
            continue
        divisor = math.gcd(*coeffs.values())
        if equality and bound % divisor:
            return None
        items = sorted(coeffs.items(), key=lambda item: item[0].fingerprint())
        sign = 1 if items[0][1] > 0 else -1
        key = tuple((var, sign * coeff // divisor) for var, coeff in items)
        high = bound // divisor
        low = high if equality else -math.inf
        if sign < 0:
            low, high = -high, -low
        facts.append((key, low, high))
    return tuple(facts)


def _translate_literal(literal: Cmp, variables: dict) -> tuple | None:
    lhs = _linearize(literal.left, variables)
    rhs = _linearize(literal.right, variables)
    if lhs is None or rhs is None:
        return None
    diff = _combine(lhs, rhs, -1)  # lhs - rhs
    const = diff.pop(None, 0)
    op = literal.op
    if op == "==":
        return (_IntConstraint(diff, "==", -const),)
    if op == "<=":
        return (_IntConstraint(diff, "<=", -const),)
    if op == "<":
        return (_IntConstraint(diff, "<=", -const - 1),)
    if op == ">=":
        neg = {key: -coeff for key, coeff in diff.items()}
        return (_IntConstraint(neg, "<=", const),)
    if op == ">":
        neg = {key: -coeff for key, coeff in diff.items()}
        return (_IntConstraint(neg, "<=", const - 1),)
    raise ProverError(f"unexpected integer literal {literal!r}")


def _check_int_assignment(constraints: Sequence[_IntConstraint], assignment: dict) -> bool:
    for constraint in constraints:
        total = sum(coeff * assignment[var] for var, coeff in constraint.coeffs.items())
        if constraint.rel == "==" and total != constraint.bound:
            return False
        if constraint.rel == "<=" and total > constraint.bound:
            return False
    return True


# -- integer cube decision ---------------------------------------------------


def _indexed_rows(constraints: Sequence[_IntConstraint], index: dict) -> list:
    """``coeffs . x <= bound`` rows over variable positions.

    ``coeffs`` is a tuple of ``(position, coefficient)`` pairs in the
    constraint's own order; an equality becomes a ``<=`` / ``>=`` pair.
    Positions are plain ints, so the propagation and elimination loops
    below hash and compare no terms.
    """
    rows: list = []
    for constraint in constraints:
        coeffs = tuple((index[var], coeff) for var, coeff in constraint.coeffs.items())
        rows.append((coeffs, constraint.bound))
        if constraint.rel == "==":
            rows.append((tuple((i, -coeff) for i, coeff in coeffs), -constraint.bound))
    return rows


def _satisfies(rows: Sequence, values: Sequence) -> bool:
    """Whether the positional ``values`` satisfy every ``<=`` row."""
    for coeffs, bound in rows:
        if sum(coeff * values[i] for i, coeff in coeffs) > bound:
            return False
    return True


def _propagate_bounds(rows: Sequence, n: int):
    """Fixpoint interval propagation with integer tightening.

    Returns ``(lower, upper)`` bound lists by variable position (entries may
    stay ``None``), or ``None`` when a variable's interval became empty —
    which, because every derived bound uses floor/ceil division, refutes
    *integer* solutions even for rationally feasible systems (e.g.
    ``2x <= 1 ∧ 2x >= 1``).
    """
    lower: list = [None] * n
    upper: list = [None] * n
    for _ in range(FAST_PROP_ROUNDS):
        changed = False
        for coeffs, bound in rows:
            if not coeffs:
                if 0 > bound:
                    return None
                continue
            for var, coeff in coeffs:
                residual = bound
                usable = True
                for other, other_coeff in coeffs:
                    if other == var:
                        continue
                    if other_coeff > 0:
                        if lower[other] is None:
                            usable = False
                            break
                        residual -= other_coeff * lower[other]
                    else:
                        if upper[other] is None:
                            usable = False
                            break
                        residual -= other_coeff * upper[other]
                if not usable:
                    continue
                if coeff > 0:
                    new_upper = residual // coeff  # floor
                    if upper[var] is None or new_upper < upper[var]:
                        upper[var] = new_upper
                        changed = True
                else:
                    new_lower = -((-residual) // coeff)  # ceil(residual / coeff)
                    if lower[var] is None or new_lower > lower[var]:
                        lower[var] = new_lower
                        changed = True
                if (
                    lower[var] is not None
                    and upper[var] is not None
                    and lower[var] > upper[var]
                ):
                    return None
        if not changed:
            break
    return lower, upper


def _add_row(rows: dict, coeffs: dict, bound: int) -> bool:
    """Add ``coeffs . x <= bound`` to a stage; False if it reads ``0 <= negative``.

    The row is first divided by the gcd of its coefficients, flooring the
    bound: exact for integer points, and it lets ``2x <= 3`` merge with
    ``x <= 1``.  ``rows`` maps each coefficient vector to its row, and
    only the tightest bound is kept.
    """
    if not coeffs:
        return bound >= 0
    divisor = math.gcd(*coeffs.values())
    if divisor != 1:
        coeffs = {var: coeff // divisor for var, coeff in coeffs.items()}
        bound //= divisor
    key = tuple(sorted(coeffs.items()))
    kept = rows.get(key)
    if kept is None or bound < kept[1]:
        rows[key] = (coeffs, bound)
    return True


def _fourier_motzkin(rows: Sequence, n: int):
    """Decide a cube by Fourier–Motzkin elimination and back-substitution.

    Variables are eliminated by position, first to last, and the rows of
    each stage are kept.  Combinations scale by positive integers, so the
    arithmetic stays exact over ``int``, and every derived row holds for
    every integer solution: a derived ``0 <= negative`` refutes the cube.
    Otherwise every rational point of a stage extends to the stage before,
    and integer values are chosen last-eliminated variable first, each
    inside the interval its stage's rows leave given the values already
    chosen: nearest 0 first, then up to ``BOX_RADIUS`` away, backtracking
    when an interval holds no integer, with at most ``FAST_BOX_LIMIT``
    tries in all.  Returns ``(verdict, values)``; UNKNOWN when a step
    exceeds ``FAST_FM_ROWS`` rows or the search finds no integer model.
    """
    current: dict = {}
    for coeffs, bound in rows:
        if not _add_row(current, dict(coeffs), bound):
            return Verdict.UNSAT, None
    stages = []
    for var in range(n):
        stages.append(current.values())
        uppers, lowers, rest = [], [], {}
        for key, (coeffs, bound) in current.items():
            coeff = coeffs.get(var, 0)
            if coeff > 0:
                uppers.append((coeffs, bound, coeff))
            elif coeff < 0:
                lowers.append((coeffs, bound, coeff))
            else:
                rest[key] = (coeffs, bound)
        if len(rest) + len(uppers) * len(lowers) > FAST_FM_ROWS:
            return Verdict.UNKNOWN, None
        for u_coeffs, u_bound, u_coeff in uppers:
            for l_coeffs, l_bound, l_coeff in lowers:
                combo: dict = {}
                for key, value in u_coeffs.items():
                    if key != var:
                        combo[key] = combo.get(key, 0) + (-l_coeff) * value
                for key, value in l_coeffs.items():
                    if key != var:
                        combo[key] = combo.get(key, 0) + u_coeff * value
                combo = {key: value for key, value in combo.items() if value != 0}
                if not _add_row(rest, combo, (-l_coeff) * u_bound + u_coeff * l_bound):
                    return Verdict.UNSAT, None
        current = rest

    values = [0] * n
    offsets = [0] + [sign * step for step in range(1, BOX_RADIUS + 1) for sign in (1, -1)]
    tries = 0

    def assign(var: int) -> bool:
        """Choose values for ``var`` down to position 0; False to backtrack."""
        nonlocal tries
        if var < 0:
            return True
        low = high = None
        for coeffs, bound in stages[var]:
            coeff = coeffs.get(var, 0)
            if not coeff:
                continue
            residual = bound - sum(c * values[i] for i, c in coeffs.items() if i != var)
            if coeff > 0:
                limit = residual // coeff  # floor
                high = limit if high is None else min(high, limit)
            else:
                limit = -((-residual) // coeff)  # ceil(residual / coeff)
                low = limit if low is None else max(low, limit)
        if low is not None and high is not None and low > high:
            return False
        first = 0 if low is None else max(0, low)
        if high is not None:
            first = min(first, high)
        for offset in offsets:
            value = first + offset
            if (low is not None and value < low) or (high is not None and value > high):
                continue
            if tries >= FAST_BOX_LIMIT:
                return False
            tries += 1
            values[var] = value
            if assign(var - 1):
                return True
        return False

    if assign(n - 1) and _satisfies(rows, values):
        return Verdict.SAT, values
    return Verdict.UNKNOWN, None


def _fast_int_solve(constraints: Sequence[_IntConstraint], var_list: Sequence):
    """Decide an integer cube.

    SAT answers always carry a verified assignment; UNSAT answers come from
    integer-tightened bounds propagation, exhaustive enumeration of a small
    implied box, or Fourier–Motzkin refutation — all sound.
    UNKNOWN means no step closed the cube.  The work runs on variable
    positions (``var_list`` order); only a model maps back to terms.
    """
    n = len(var_list)
    rows = _indexed_rows(constraints, {var: i for i, var in enumerate(var_list)})
    propagated = _propagate_bounds(rows, n)
    if propagated is None:
        return Verdict.UNSAT, None
    lower, upper = propagated

    if all(low is not None and high is not None for low, high in zip(lower, upper)):
        box = 1
        for low, high in zip(lower, upper):
            box *= high - low + 1
            if box > FAST_BOX_LIMIT:
                break
        if box <= FAST_BOX_LIMIT:
            # the box contains every integer solution (bounds are implied by
            # the constraints), so enumeration is a complete decision
            ranges = [range(low, high + 1) for low, high in zip(lower, upper)]
            for candidate in itertools.product(*ranges):
                if _satisfies(rows, candidate):
                    return Verdict.SAT, dict(zip(var_list, candidate))
            return Verdict.UNSAT, None

    # cheap candidate probes at the interval corners / zero
    bounds = list(zip(lower, upper))
    probes = (
        [low if low is not None else (high or 0) for low, high in bounds],
        [high if high is not None else (low or 0) for low, high in bounds],
        [
            min(max(0, low or 0), high if high is not None else max(0, low or 0))
            for low, high in bounds
        ],
    )
    for values in probes:
        if _satisfies(rows, values):
            return Verdict.SAT, dict(zip(var_list, values))

    verdict, values = _fourier_motzkin(rows, n)
    if verdict == Verdict.SAT:
        return verdict, dict(zip(var_list, values))
    return verdict, None


def _solve_int_constraints(constraints: Sequence[_IntConstraint], variables: dict):
    """Decide a conjunction of linear integer constraints.

    Returns ``(verdict, assignment)`` where verdict is SAT/UNSAT/UNKNOWN.
    """
    if not constraints:
        return Verdict.SAT, {}
    var_list = sorted(variables, key=variables.get)
    if not var_list:
        # all constraints are ground
        ok = _check_int_assignment(constraints, {})
        return (Verdict.SAT, {}) if ok else (Verdict.UNSAT, None)
    verdict, assignment = _fast_int_solve(constraints, var_list)
    _memo_stats["cubes_open" if verdict == Verdict.UNKNOWN else f"cubes_{verdict}"] += 1
    return verdict, assignment


# ---------------------------------------------------------------------------
# string and boolean literal handling
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, key):
        self.parent.setdefault(key, key)
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a, b) -> None:
        self.parent[self.find(a)] = self.find(b)


def _solve_string_literals(equalities: list, disequalities: list):
    """Decide string (dis)equalities via union-find; returns model or None."""
    uf = _UnionFind()
    for left, right in equalities:
        uf.union(left, right)
    for left, right in disequalities:
        if uf.find(left) == uf.find(right):
            return Verdict.UNSAT, None
    # check no class merges two distinct constants
    class_const: dict = {}
    all_terms = {t for pair in equalities + disequalities for t in pair}
    for term in all_terms:
        root = uf.find(term)
        if isinstance(term, StrConst):
            if root in class_const and class_const[root] != term.value:
                return Verdict.UNSAT, None
            class_const[root] = term.value
    model: dict = {}
    fresh = 0
    for term in all_terms:
        root = uf.find(term)
        if root not in class_const:
            class_const[root] = f"str#{fresh}"
            fresh += 1
        if not isinstance(term, StrConst):
            model[term] = class_const[root]
    return Verdict.SAT, model


# Literal kinds of :func:`_classify`.
_BOOL, _INT, _STR_EQ, _STR_NEQ, _TRUE, _FALSE, _OPEN = range(7)


def _classify(literal: Formula) -> tuple:
    """How a cube treats one literal, as ``(kind, a, b)``.

    ``_BOOL``: the bool term ``a`` takes the value ``b`` (a bool atom, or
    a ``b == true``-style comparison); ``_INT``: the integer comparison
    ``a``; ``_STR_EQ`` / ``_STR_NEQ``: string terms ``a`` and ``b`` are
    equal / distinct; ``_TRUE`` / ``_FALSE``: a constant; ``_OPEN``: a
    shape the solver does not support, which leaves the cube undecided.
    """
    base = literal
    polarity = True
    if isinstance(base, Not):
        base = base.operand
        polarity = False
    if isinstance(base, BoolAtom):
        term = base.term
        if isinstance(term, BoolConst):
            return (_TRUE if term.value == polarity else _FALSE), None, None
        return _BOOL, term, polarity
    if not isinstance(base, Cmp):
        return _OPEN, None, None
    if not polarity:
        base = base.negated()
    left, right, op = base.left, base.right, base.op
    if left.sort == "str" or right.sort == "str":
        if op == "==":
            return _STR_EQ, left, right
        if op == "!=":
            return _STR_NEQ, left, right
        return _OPEN, None, None
    if left.sort == "bool" or right.sort == "bool":
        if isinstance(left, BoolConst) and not isinstance(right, BoolConst):
            left, right = right, left
        if isinstance(right, BoolConst) and op in ("==", "!="):
            return _BOOL, left, right.value if op == "==" else not right.value
        return _OPEN, None, None
    return _INT, base, None


def _decide_cube(literals: Sequence[Formula]):
    """Decide a conjunction of literals; returns (verdict, model|None)."""
    int_constraints: list = []
    variables: dict = {}
    str_eqs: list = []
    str_neqs: list = []
    bool_assign: dict = {}
    for literal in literals:
        kind, a, b = _classify(literal)
        if kind == _BOOL:
            if bool_assign.get(a, b) != b:
                return Verdict.UNSAT, None
            bool_assign[a] = b
        elif kind == _INT:
            translated = _int_constraints_of_literal(a, variables)
            if translated is None:
                return Verdict.UNKNOWN, None
            int_constraints.extend(translated)
        elif kind == _STR_EQ:
            str_eqs.append((a, b))
        elif kind == _STR_NEQ:
            str_neqs.append((a, b))
        elif kind == _FALSE:
            return Verdict.UNSAT, None
        elif kind == _OPEN:
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


# ---------------------------------------------------------------------------
# branch-and-prune search
# ---------------------------------------------------------------------------


class _Node:
    """A partial cube of the search: the literals its branch asserts and
    the disjunctions it has yet to choose from.

    ``literals`` are those :func:`_decide_cube` can decide; ``open`` is
    set by any other (a nonlinear or otherwise unsupported literal), which
    leaves a leaf undecided but never stops the others from pruning.
    ``intervals`` intersects the literals' interval facts, bool atoms as
    ``p ∈ [b, b]``.
    ``decided`` is a cube decision of ``literals``: a SAT one is kept
    while its model satisfies each literal that joins them.
    """

    __slots__ = ("literals", "open", "seen", "intervals", "pending", "decided")

    def __init__(self, parent: "_Node | None" = None) -> None:
        if parent is None:
            self.literals, self.open, self.pending = [], False, []
            self.seen, self.intervals = set(), {}
            self.decided = (Verdict.SAT, {})
        else:
            self.literals, self.open = list(parent.literals), parent.open
            self.seen, self.intervals = set(parent.seen), dict(parent.intervals)
            self.pending, self.decided = list(parent.pending), parent.decided

    def add(self, formula: Formula) -> bool:
        """Assert an NNF formula; False when the literals now contradict."""
        if isinstance(formula, And):
            return all(self.add(op) for op in formula.operands)
        if isinstance(formula, Or):
            self.pending.append(formula)
            return True
        if isinstance(formula, Bottom):
            return False
        if isinstance(formula, Top) or formula in self.seen:
            return True
        self.seen.add(formula)
        kind, a, b = _classify(formula)
        if kind == _INT:
            constraints, _atoms, facts = _literal_entry(a)
            if constraints is None:
                self.open = True
                return True
            if facts is None:
                return False
        elif kind == _BOOL:
            facts = ((a, b, b),)
        elif kind == _FALSE:
            return False
        elif kind == _OPEN:
            self.open = True
            return True
        else:
            facts = ()
        for key, low, high in facts:
            kept = self.intervals.get(key)
            if kept is not None:
                low, high = max(low, kept[0]), min(high, kept[1])
                if low > high:
                    return False
            self.intervals[key] = (low, high)
        self.literals.append(formula)
        if self.decided is not None and not _model_satisfies(self.decided, kind, a, b):
            self.decided = None
        return True

    def branch(self) -> Or | None:
        """Take the pending disjunction with the fewest operands (the first
        such); one with an operand already asserted is dropped as settled."""
        live = [d for d in self.pending if not any(op in self.seen for op in d.operands)]
        best = min(range(len(live)), key=lambda i: len(live[i].operands), default=None)
        self.pending = live
        return None if best is None else live.pop(best)


def _model_satisfies(decided: tuple, kind: int, a, b) -> bool:
    """Whether a SAT decision's model assigns and satisfies a literal of
    :func:`_classify` kind ``kind`` (integer and bool literals only)."""
    verdict, model = decided
    if verdict != Verdict.SAT:
        return False
    if kind == _BOOL:
        return model.get(a) == b
    if kind != _INT:
        return kind == _TRUE
    constraints = _literal_entry(a)[0]
    return all(var in model for c in constraints for var in c.coeffs) and _check_int_assignment(
        constraints, model
    )


def _value(term: Term, model: dict) -> int:
    """An integer term's value in ``model``; an atom the model leaves free
    is fixed at 0 there."""
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, Add):
        return _value(term.left, model) + _value(term.right, model)
    if isinstance(term, Sub):
        return _value(term.left, model) - _value(term.right, model)
    if isinstance(term, Mul):
        return _value(term.left, model) * _value(term.right, model)
    if isinstance(term, Neg):
        return -_value(term.operand, model)
    return model.setdefault(term, 0)


def _congruence_conflict(literals: Sequence[Formula], model: dict) -> tuple | None:
    """Two integer fields of one array attribute that ``model`` puts at one
    index with different values, in the literals' order; None when the
    model is congruent.  Assigns every field's index atoms in ``model``."""
    groups: dict = {}
    for literal in literals:
        for atom in literal.atoms():
            if isinstance(atom, tm.Field):
                index = _value(atom.index, model)
                if atom.sort == "int":
                    groups.setdefault((atom.array, atom.attr), {})[atom] = index
    for group in groups.values():
        fields = list(group.items())
        for i, (left, index) in enumerate(fields):
            for right, other in fields[i + 1 :]:
                if index == other and _value(left, model) != _value(right, model):
                    return left, right
    return None


_ABSTRACT_MODEL = "model found only for an abstraction"


def _search(nnf: Formula, opacifier: _Opacifier, instantiate: bool) -> ProofResult:
    """Satisfiability of an NNF goal by branch and prune (step 3).

    Depth first from the goal's own literals: each node adds one operand
    of its parent's chosen disjunction, and is cut off when its literals'
    intervals contradict or :func:`_decide_cube` refutes them, so no cube
    below a contradiction is built.  A leaf (no disjunction left) whose
    model relates two integer fields incongruently is split into the
    three cases of ``i == j → a[i] == a[j]``: ``i < j``, ``i > j`` and
    ``i == j ∧ a[i] == a[j]``.  With ``instantiate``, a leaf that is SAT
    only through the abstraction is refuted, where it can be, by
    instantiating its quantifiers (:func:`_refuted_by_instances`).  More
    than ``MAX_NODES`` nodes give UNKNOWN.
    """
    stack = [(_Node(), (nnf,))]
    nodes = 0
    undecided = False
    while stack:
        parent, parts = stack.pop()
        nodes += 1
        if nodes > MAX_NODES:
            return ProofResult(Verdict.UNKNOWN, reason="search node budget exceeded")
        _memo_stats["search_nodes"] += 1
        node = _Node(parent)
        if not all(node.add(part) for part in parts):
            _memo_stats["search_pruned"] += 1
            continue
        if node.decided is None:
            node.decided = _decide_cube(node.literals)
        verdict, model = node.decided
        if verdict == Verdict.UNSAT:
            continue
        disjunction = node.branch()
        if disjunction is not None:
            stack.extend((node, (op,)) for op in reversed(disjunction.operands))
            continue
        _memo_stats["search_leaves"] += 1
        if verdict == Verdict.UNKNOWN or node.open:
            undecided = True
            continue
        model = dict(model)
        conflict = _congruence_conflict(node.literals, model)
        if conflict is not None:
            _memo_stats["congruence_splits"] += 1
            left, right = conflict
            cases = (
                (Cmp("<", left.index, right.index),),
                (Cmp(">", left.index, right.index),),
                (Cmp("==", left.index, right.index), Cmp("==", left, right)),
            )
            stack.extend((node, case) for case in reversed(cases))
            continue
        if instantiate and _refuted_by_instances(node.literals, opacifier):
            continue
        if opacifier.used:
            return ProofResult(Verdict.UNKNOWN, model=model, abstracted=True, reason=_ABSTRACT_MODEL)
        return ProofResult(Verdict.SAT, model=model)
    if undecided:
        return ProofResult(Verdict.UNKNOWN, reason="some cubes undecided")
    return ProofResult(Verdict.UNSAT, abstracted=opacifier.used)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def _constant(term: Term) -> bool:
    """Whether ``term`` is a linear term without atoms."""
    linear = _linearize(term, {})
    return linear is not None and set(linear) <= {None}


def _products(formula: Formula, out: dict) -> dict:
    """Every product of two non-constant terms in ``formula`` outside a
    quantifier, as the keys of ``out``."""
    if isinstance(formula, (And, Or)):
        for op in formula.operands:
            _products(op, out)
    elif isinstance(formula, Not):
        _products(formula.operand, out)
    elif isinstance(formula, Implies):
        _products(formula.premise, out)
        _products(formula.conclusion, out)
    elif isinstance(formula, (Cmp, BoolAtom)):
        stack = [formula.left, formula.right] if isinstance(formula, Cmp) else [formula.term]
        while stack:
            term = stack.pop()
            if isinstance(term, (Add, Sub, Mul)):
                stack += (term.left, term.right)
                if isinstance(term, Mul) and not (_constant(term.left) or _constant(term.right)):
                    out[term] = None
            elif isinstance(term, Neg):
                stack.append(term.operand)
            elif isinstance(term, tm.Field):
                stack.append(term.index)
    return out


def _same(left: Term, right: Term) -> Formula:
    """A condition under which two terms are equal: index equality for two
    fields of one array attribute (the field axioms give the rest)."""
    if left == right:
        return TRUE
    if (
        isinstance(left, tm.Field)
        and isinstance(right, tm.Field)
        and (left.array, left.attr) == (right.array, right.attr)
    ):
        return Cmp("==", left.index, right.index)
    return Cmp("==", left, right)


def _congruence_axioms(goal: Formula, known: dict | None = None) -> list:
    """Ackermann-style congruence: equal arguments force equal values.

    Two ``Field`` atoms over the same array and attribute denote the same
    location exactly when their indices agree; without these axioms the
    linear core would treat ``a[i]`` and ``a[j]`` as unrelated even under an
    assumed ``i == j``.  Two integer fields get no axiom: :func:`_search`
    splits a leaf whose model relates them incongruently instead.  A
    retry passes ``known``, the literals its goal asserts
    (:func:`_literal_table`), and relates the terms it makes opaque as
    well: two products of non-constant terms are equal when their factors
    are, pairwise, and two counts over one table when their WHERE clauses
    differ only in equal subterms (:func:`_differences`).  There an axiom
    whose premise the goal refutes is dropped, and one whose premise it
    asserts is reduced to its conclusion, so the search need not branch
    per axiom.
    """
    pairs: list = []
    fields: dict = {}
    for atom in goal.atoms():
        if isinstance(atom, tm.Field):
            fields.setdefault((atom.array, atom.attr), set()).add(atom)
    for group in fields.values():
        ordered = sorted(group, key=repr)
        for i, left in enumerate(ordered):
            for right in ordered[i + 1 :]:
                if left.index != right.index and not left.sort == right.sort == "int":
                    pairs.append(((Cmp("==", left.index, right.index),), left, right))
    if known is not None:
        products = sorted(_products(goal, {}), key=repr)
        for i, left in enumerate(products):
            for right in products[i + 1 :]:
                same = (_same(left.left, right.left), _same(left.right, right.right))
                pairs.append((tuple(dict.fromkeys(same)), left, right))
        counts: dict = {}
        for atom in goal.atoms():
            if isinstance(atom, CountWhere):
                counts.setdefault(atom.table, set()).add(atom)
        for group in counts.values():
            ordered = sorted(group, key=repr)
            for i, left in enumerate(ordered):
                for right in ordered[i + 1 :]:
                    differences = _differences(left, right)
                    if differences is not None:
                        pairs.append((differences, left, right))
    if known is None:
        return [fm.implies(conj(*premise), Cmp("==", left, right)) for premise, left, right in pairs]
    # one implication per premise: the search branches once for all its equalities
    grouped: dict = {}
    for premise, left, right in pairs:
        premise = conj(*(known.get(part, part) for part in premise))
        if not isinstance(premise, Bottom):
            grouped.setdefault(premise, []).append(Cmp("==", left, right))
    return [fm.implies(premise, conj(*equalities)) for premise, equalities in grouped.items()]


def _differences(left: CountWhere, right: CountWhere) -> tuple | None:
    """Equalities under which two counts over one table agree.

    The WHERE clauses, with their row variables renamed alike, must match
    but for some subterms free of the row; the result equates those pairs.
    None when the clauses differ in shape.
    """
    row = "__count"
    pairs: dict = {}

    def rename(where: Formula, name: str) -> Formula:
        return where.substitute({
            atom: fm.RowAttr(row, atom.attr, atom.var_sort)
            for atom in where.atoms()
            if isinstance(atom, fm.RowAttr) and atom.row == name
        })

    def walk(a, b) -> bool:
        if a == b:
            return True
        if isinstance(a, Term) and isinstance(b, Term):
            if isinstance(a, (Add, Sub, Mul)) and type(a) is type(b):
                return walk(a.left, b.left) and walk(a.right, b.right)
            if any(isinstance(t, (fm.RowAttr, CountWhere)) for t in (*a.atoms(), *b.atoms())):
                return False
            pairs[Cmp("==", a, b)] = None
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Cmp):
            return a.op == b.op and walk(a.left, b.left) and walk(a.right, b.right)
        if isinstance(a, Not):
            return walk(a.operand, b.operand)
        if isinstance(a, (And, Or)):
            return len(a.operands) == len(b.operands) and all(
                walk(x, y) for x, y in zip(a.operands, b.operands)
            )
        return False

    if walk(rename(left.where, left.row), rename(right.where, right.row)):
        return tuple(pairs)
    return None


def _asserted(formula: Formula, positive: bool, out: list) -> list:
    """The literals every model of ``formula`` (negated when not
    ``positive``) satisfies by its boolean structure alone: comparisons,
    negated where they occur negatively, and other atoms, under ``Not``."""
    if isinstance(formula, Not):
        _asserted(formula.operand, not positive, out)
    elif isinstance(formula, (And, Or)):
        if positive == isinstance(formula, And):
            for op in formula.operands:
                _asserted(op, positive, out)
    elif isinstance(formula, Implies):
        if not positive:
            _asserted(formula.premise, True, out)
            _asserted(formula.conclusion, False, out)
    elif isinstance(formula, Cmp):
        out.append(formula if positive else formula.negated())
    elif not isinstance(formula, (Top, Bottom)):
        out.append(formula if positive else Not(formula))
    return out


#: The comparison that holds with its operands swapped.
_FLIPPED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def is_satisfiable(formula: Formula, assumptions: Iterable[Formula] = ()) -> ProofResult:
    """Decide satisfiability of ``formula`` under optional assumptions.

    Memoized on ``(formula, assumptions)``: formulas are frozen dataclasses
    with structural equality, so equal queries — which the interference
    check issues in bulk across isolation levels — share one decision.
    """
    assumptions = tuple(assumptions)
    key = ("sat", formula, assumptions)
    cached = _query_memo.get(key)
    if cached is not None:
        _memo_stats["query_hits"] += 1
        return cached
    _memo_stats["query_misses"] += 1
    result = _is_satisfiable_impl(formula, assumptions)
    if result.verdict == Verdict.UNKNOWN:
        result = _retried(simplify(conj(*assumptions, formula)), result)
    _memo_put(_query_memo, key, result)
    return result


def _is_satisfiable_impl(formula: Formula, assumptions: tuple) -> ProofResult:
    goal = conj(*assumptions, formula)
    goal = simplify(goal)
    if isinstance(goal, Top):
        return ProofResult(Verdict.SAT, model={})
    if isinstance(goal, Bottom):
        return ProofResult(Verdict.UNSAT)
    return _decide_goal(goal, _congruence_axioms(goal))


def _retried(goal: Formula, result: ProofResult) -> ProofResult:
    """The answer to a goal the first search left open, after a retry.

    That decision reads each quantifier, aggregate and non-constant product
    as an unrelated atom.  A goal that reads a table or has such a product
    is retried with them related (step 5): only an UNSAT answer replaces
    ``result``, so the retry never turns a verdict into SAT or INVALID.
    """
    if not _beyond_linear(goal):
        return result
    strengthened, known = _strengthened(goal)
    axioms = _congruence_axioms(strengthened, known)
    retry = _decide_goal(strengthened, axioms, related=True, instantiate=True)
    return retry if retry.verdict == Verdict.UNSAT else result


def _beyond_linear(goal: Formula) -> bool:
    """Whether ``goal`` reads a table or multiplies two non-constant terms."""
    return any(isinstance(res, TableResource) for res in goal.resources()) or bool(
        _products(goal, {})
    )


def rewrite_literals(formula: Formula, table: dict) -> Formula:
    """``formula`` with comparison literals replaced per ``table``, outside quantifiers."""
    if formula in table:
        return table[formula]
    if isinstance(formula, Not):
        return Not(rewrite_literals(formula.operand, table))
    if isinstance(formula, And):
        return conj(*(rewrite_literals(op, table) for op in formula.operands))
    if isinstance(formula, Or):
        return disj(*(rewrite_literals(op, table) for op in formula.operands))
    if isinstance(formula, Implies):
        return fm.implies(
            rewrite_literals(formula.premise, table), rewrite_literals(formula.conclusion, table)
        )
    return formula


def _literal_table(asserted: Sequence[Formula]) -> dict:
    """Each asserted literal to TRUE and its negation to FALSE; a comparison
    either way round."""
    table: dict = {}
    for literal in asserted:
        if isinstance(literal, Cmp):
            for fact in (literal, Cmp(_FLIPPED[literal.op], literal.right, literal.left)):
                table[fact] = TRUE
                table[fact.negated()] = FALSE
        elif isinstance(literal, Not):
            table[literal.operand] = FALSE
        else:
            table[literal] = TRUE
    return table


def _strengthened(goal: Formula) -> tuple:
    """``goal`` with the literals it asserts fixed everywhere else, and the
    table that fixes them (see :func:`_asserted`)."""
    asserted = _asserted(goal, True, [])
    known = _literal_table(asserted)
    return simplify(conj(*dict.fromkeys(asserted), rewrite_literals(goal, known))), known


def _decide_goal(
    goal: Formula, axioms: list, related: bool = False, instantiate: bool = False
) -> ProofResult:
    """Satisfiability of a simplified goal and its axioms (steps 1–4).

    ``related`` marks a goal of the retry: its products are opaque terms
    too, and none of its models is a genuine one.  ``instantiate`` is
    passed to :func:`_search`.
    """
    opacifier = _Opacifier(used=related, products=related)
    nnf = _nnf(opacifier.run(conj(goal, *axioms)), negate=False)
    return _search(nnf, opacifier, instantiate)


def _refuted_by_instances(cube: Sequence[Formula], opacifier: _Opacifier) -> bool:
    """Whether a cube that is SAT over opaque atoms is UNSAT once its
    quantifiers are instantiated.

    The cube's atoms are mapped back to the subformulas and terms they
    stand for; every quantifier literal of the cube is then asserted, so
    its existentials are Skolemised without guards and its universals are
    instantiated at the rows and integers that introduces
    (:class:`_Instantiator`).  Decided once per distinct cube.
    """
    formulas = {atom.term: original for original, atom in opacifier.formula_atoms.items()}
    terms = {atom: original for original, atom in opacifier.term_atoms.items()}
    literals = []
    for literal in cube:
        negative = isinstance(literal, Not)
        base = literal.operand if negative else literal
        if isinstance(base, BoolAtom) and base.term in formulas:
            base = formulas[base.term]
        elif terms:
            base = base.substitute(terms)
        literals.append(Not(base) if negative else base)
    counted = _rows_counted(cube, terms)
    restored = simplify(conj(*dict.fromkeys(literals + counted)))
    key = ("instances", restored)
    refuted = _query_memo.get(key)
    if refuted is None:
        instantiated = _instantiate_quantifiers(restored)
        refuted = False
        if counted or instantiated is not restored:
            instantiated, known = _strengthened(instantiated)
            axioms = _congruence_axioms(instantiated, known)
            refuted = _decide_goal(instantiated, axioms, related=True).verdict == Verdict.UNSAT
        _memo_put(_query_memo, key, refuted)
    return refuted


def _rows_counted(cube: Sequence[Formula], terms: dict) -> list:
    """What a cube's integer literals say of the rows its counts count.

    ``COUNT(T where φ)`` is never negative; where the literals' bounds put
    it at 1 or more, some row of ``T`` satisfies ``φ``, and where they put
    it at 0 or less, none does (bounds by :func:`_propagate_bounds`).
    """
    variables: dict = {}
    constraints: list = []
    for literal in cube:
        kind, cmp, _ = _classify(literal)
        if kind == _INT:
            constraints.extend(_int_constraints_of_literal(cmp, variables) or ())
    counts = [(i, terms[var]) for var, i in variables.items() if isinstance(terms.get(var), CountWhere)]
    if not counts:
        return []
    rows = _indexed_rows(constraints, variables) + [(((i, -1),), 0) for i, _count in counts]
    bounds = _propagate_bounds(rows, len(variables))
    if bounds is None:
        return [FALSE]
    lower, upper = bounds
    facts: list = []
    for i, count in counts:
        exists = ExistsRow(count.table, count.row, count.where)
        facts.append(Cmp(">=", count, IntConst(0)))
        if lower[i] is not None and lower[i] >= 1:
            facts.append(exists)
        elif upper[i] is not None and upper[i] <= 0:
            facts.append(Not(exists))
    return facts


def is_valid(formula: Formula, assumptions: Iterable[Formula] = ()) -> ProofResult:
    """Decide validity: do the assumptions entail the formula?

    Returns VALID when ``assumptions and not formula`` is unsatisfiable.
    A SAT answer to that query yields INVALID with the model as a genuine
    counterexample; abstraction or arithmetic incompleteness yield UNKNOWN.
    Memoized through :func:`is_satisfiable`.
    """
    negated = conj(*assumptions, Not(formula))
    result = is_satisfiable(negated)
    if result.verdict == Verdict.UNSAT:
        return ProofResult(Verdict.VALID, abstracted=result.abstracted)
    if result.verdict == Verdict.SAT:
        return ProofResult(Verdict.INVALID, model=result.model)
    return ProofResult(Verdict.UNKNOWN, model=result.model, abstracted=result.abstracted, reason=result.reason)


def holds(triple_pre: Formula, triple_post: Formula, assumptions: Iterable[Formula] = ()) -> ProofResult:
    """Convenience: does ``triple_pre`` entail ``triple_post``?"""
    return is_valid(fm.implies(triple_pre, triple_post), assumptions)
