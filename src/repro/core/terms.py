"""Typed expression terms for the assertion and program language.

The paper models transactions over two kinds of stores:

* a *conventional* database of named items and record arrays (Sections 3, 6
  use ``acct_sav[i].bal``-style references), and
* a *relational* database of tables accessed through predicates (Section 4).

Terms are immutable trees.  Atomic reference terms come in five flavours:

``Local``
    a variable in the transaction's private workspace (``Sav``, ``maxdate``);
``Param``
    a transaction parameter, rigid for the duration of the transaction
    (``i``, ``w``, ``customer``);
``LogicalVar``
    a rigid logical variable used to record an initial value, the paper's
    ``X_i`` in triple (1) (``BAL``, ``Sav0``);
``Item``
    a named scalar database item (``maximum_date``);
``Field``
    an element of a record array, optionally a named attribute of the record
    (``acct_sav[i].bal``).

Compound terms cover integer arithmetic.  Relational terms (row attributes,
``COUNT(*)`` aggregates) live in :mod:`repro.core.formula` because they embed
formulas; they subclass :class:`Term` so everything composes.

Every term supports three generic operations used throughout the library:

* :meth:`Term.substitute` — capture-free syntactic substitution of atomic
  reference terms (the workhorse of strongest-postcondition computation);
* :meth:`Term.atoms` — the set of atomic reference terms occurring in the
  term (used for footprint and interference analysis);
* :meth:`Term.evaluate` — concrete evaluation against a database state and a
  variable environment (used by the bounded model checker and the dynamic
  semantic-correctness checker).

Evaluation is compiled: each node's ``_compile`` builds a Python closure
``fn(state, env, rows)`` from its children's closures, once per node (see
:func:`compiled`), so repeated evaluation never walks the tree.  ``rows``
holds the bindings of enclosing quantifiers: row-variable names map to the
current row, :class:`~repro.core.formula.BoundVar` nodes to integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping, Union

from repro.errors import EvaluationError, SortError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.state import DbState

#: Concrete values terms evaluate to.
Value = Union[int, bool, str]

# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

#: Global switch; benchmarks flip it off to measure the un-consed baseline.
HASH_CONSING = True

#: Per-class intern-table capacity.  Past the cap construction stops
#: interning (the table is never cleared, so existing identities and any
#: identity-based fast paths stay valid).
_INTERN_CAP = 1 << 20


class HashConsMeta(type):
    """Metaclass interning instances per concrete class (hash-consing).

    Structurally equal nodes become identity-equal, which turns the deep
    structural hashing and equality of memo-table probes into pointer work:
    the structural hash is computed once and cached on the instance
    (``_hc_hash``), and dict probes against interned nodes hit the identity
    fast path of ``==``.  Classes with ``_hc_intern = False`` (e.g.
    ``AbstractPred``, whose ``evaluator`` field is excluded from equality,
    so interning would conflate predicates with different evaluators) are
    never interned but still get the cached hash.  Their parents are
    interned, but a node is only ever merged with an equal one whose
    un-interned leaves are the very same objects (:func:`_opaque_leaves`):
    ``Not(p)`` and ``Not(q)`` for equal ``p``, ``q`` with different
    evaluators stay two nodes.
    """

    def __call__(cls, *args, **kwargs):
        if "_hc_ready" not in cls.__dict__:
            _prepare_hashcons_class(cls)
        obj = super().__call__(*args, **kwargs)
        if not HASH_CONSING or not cls._hc_intern:
            return obj
        table = cls.__dict__["_hc_table"]
        interned = table.get(obj)
        if interned is not None:
            leaves = _opaque_leaves(interned)
            if not leaves:
                return interned
            mine = _opaque_leaves(obj)
            if all(a is b for a, b in zip(leaves, mine)):
                return interned
            # same structure, other leaf objects: intern under their ids
            # (the stored node keeps its leaves alive, so no id is reused)
            key = (obj, tuple(map(id, mine)))
            interned = table.get(key)
            if interned is not None:
                return interned
            if len(table) < _INTERN_CAP:
                table[key] = obj
            return obj
        if len(table) < _INTERN_CAP:
            table[obj] = obj
        return obj


def _opaque_leaves(node) -> tuple:
    """The never-interned nodes below ``node``, in field order (cached).

    Empty for every tree without an ``AbstractPred``; interned children
    carry their own cached tuple, so each node walks only its fields.
    """
    cached = node.__dict__.get("_hc_leaves")
    if cached is None:
        out: list = []
        stack = [getattr(node, name) for name in reversed(node.__dataclass_fields__)]
        while stack:
            value = stack.pop()
            if isinstance(value, tuple):
                stack.extend(reversed(value))
            elif isinstance(type(value), HashConsMeta):
                out.extend(_opaque_leaves(value) if value._hc_intern else (value,))
        cached = tuple(out)
        object.__setattr__(node, "_hc_leaves", cached)
    return cached


def _prepare_hashcons_class(cls) -> None:
    """Install the caching ``__hash__`` wrapper on first instantiation.

    The dataclass decorator runs *after* the metaclass creates the class,
    so the generated field-based ``__hash__`` can only be wrapped lazily.
    """
    generated = cls.__hash__

    def cached_hash(self, _orig=generated):
        h = self.__dict__.get("_hc_hash")
        if h is None:
            h = _orig(self)
            object.__setattr__(self, "_hc_hash", h)
        return h

    cls.__hash__ = cached_hash
    cls._hc_table = {}
    cls._hc_ready = True


def hashcons_stats() -> dict:
    """Sizes of every intern table (for diagnostics and tests)."""
    out: dict = {}
    for node_base in _HASHCONS_BASES:
        for sub in _all_subclasses(node_base):
            table = sub.__dict__.get("_hc_table")
            if table:
                out[sub.__name__] = len(table)
    return out


def clear_hashcons_tables() -> None:
    """Drop every intern table (benchmarking/test isolation only).

    Nodes interned earlier stay alive wherever they are referenced and
    remain structurally equal to newly built ones; only the identity
    guarantee for *future* constructions is reset.
    """
    for node_base in _HASHCONS_BASES:
        for sub in _all_subclasses(node_base):
            table = sub.__dict__.get("_hc_table")
            if table is not None:
                table.clear()


def _all_subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _all_subclasses(sub)


#: Root classes whose subclass intern tables the helpers above walk;
#: ``formula.py`` appends its ``Formula`` root on import.
_HASHCONS_BASES: list = []

#: Environment mapping atomic reference terms (``Local``/``Param``/
#: ``LogicalVar``) to concrete values.  Keyed by the term itself, which is
#: hashable because all terms are frozen dataclasses.
Env = Mapping["Term", Value]

_INT = "int"
_BOOL = "bool"
_STR = "str"


@dataclass(frozen=True)
class Term(metaclass=HashConsMeta):
    """Base class of all expression terms."""

    _hc_intern = True

    @property
    def sort(self) -> str:
        """The sort of this term: ``"int"``, ``"bool"`` or ``"str"``."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping["Term", "Term"]) -> "Term":
        """Replace syntactic occurrences of atomic reference terms.

        ``mapping`` maps atomic reference terms to replacement terms.  The
        substitution is simultaneous and purely syntactic: a ``Field`` whose
        index mentions a substituted ``Param`` has the index rewritten, and a
        ``Field`` that is itself a key in ``mapping`` is replaced wholesale
        (index rewriting is applied first, then whole-term lookup).

        Returns ``self`` (identity-preserving) when no key of ``mapping``
        occurs free in the term, without traversing it.
        """
        if self.atom_set().isdisjoint(mapping):
            return self
        return self._substitute(mapping)

    def _substitute(self, mapping: Mapping["Term", "Term"]) -> "Term":
        """Per-class substitution body; only called when atoms intersect."""
        raise NotImplementedError

    def atoms(self) -> Iterator["Term"]:
        """Yield every atomic reference term occurring in this term."""
        raise NotImplementedError

    def atom_set(self) -> frozenset:
        """The atoms of this term as a set, computed once and cached."""
        cached = self.__dict__.get("_hc_atoms")
        if cached is None:
            cached = frozenset(self.atoms())
            object.__setattr__(self, "_hc_atoms", cached)
        return cached

    def evaluate(self, state: "DbState", env: Env) -> Value:
        """Evaluate against a concrete database state and environment."""
        fn = self.__dict__.get("_hc_fn") or compiled(self)
        return fn(state, env, NO_ROWS)

    def _compile(self):
        """Per-class body of :func:`compiled`: build ``fn(state, env, rows)``."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable structural digest, cached on the node (see :mod:`repro.core.cache`)."""
        cached = self.__dict__.get("_hc_fp")
        if cached is not None:
            return cached
        from repro.core.cache import fingerprint

        return fingerprint(self)

    def __getstate__(self) -> dict:
        # The cached structural hash must not cross process boundaries
        # (string hashing is per-process salted via PYTHONHASHSEED), and the
        # other _hc_* caches are cheap to recompute; strip them all.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_hc_")}

    # -- convenience constructors -----------------------------------------
    def __add__(self, other: "Term | int") -> "Add":
        return Add(self, _coerce(other))

    def __sub__(self, other: "Term | int") -> "Sub":
        return Sub(self, _coerce(other))

    def __mul__(self, other: "Term | int") -> "Mul":
        return Mul(self, _coerce(other))

    def __neg__(self) -> "Neg":
        return Neg(self)


#: The ``rows`` of a top-level evaluation: no quantifier binding yet.
#: Closures never mutate ``rows``; a quantifier extends a copy.
NO_ROWS: Mapping = MappingProxyType({})


def compiled(node):
    """``node``'s evaluation closure ``fn(state, env, rows)``, built once.

    The closure is cached on the node as ``_hc_fn`` (which pickling strips,
    like every ``_hc_*`` cache).  Two threads compiling the same fresh node
    build equivalent closures and the last store wins, so no lock is needed.
    """
    fn = node.__dict__.get("_hc_fn")
    if fn is None:
        fn = node._compile()
        object.__setattr__(node, "_hc_fn", fn)
    return fn


def _constant(value):
    return lambda state, env, rows: value


def _env_lookup(key, what: str):
    """A closure reading ``key`` from the environment, else raising."""

    def fn(state, env, rows):
        try:
            return env[key]
        except KeyError:
            raise EvaluationError(f"unbound {what}")

    return fn


def _coerce(value: "Term | int | bool | str") -> Term:
    """Lift a Python literal into a constant term; pass terms through."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    if isinstance(value, int):
        return IntConst(value)
    if isinstance(value, str):
        return StrConst(value)
    raise SortError(f"cannot coerce {value!r} into a term")


def coerce(value: "Term | int | bool | str") -> Term:
    """Public alias of the literal-lifting helper used across the package."""
    return _coerce(value)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntConst(Term):
    """An integer literal."""

    value: int

    @property
    def sort(self) -> str:
        return _INT

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self):
        return _constant(self.value)

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BoolConst(Term):
    """A boolean literal."""

    value: bool

    @property
    def sort(self) -> str:
        return _BOOL

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self):
        return _constant(self.value)

    def __repr__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class StrConst(Term):
    """A string literal (used for names, addresses, status fields)."""

    value: str

    @property
    def sort(self) -> str:
        return _STR

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return self

    def atoms(self) -> Iterator[Term]:
        return iter(())

    def _compile(self):
        return _constant(self.value)

    def __repr__(self) -> str:
        return repr(self.value)


# ---------------------------------------------------------------------------
# atomic reference terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ref(Term):
    """Common behaviour of atomic reference terms."""

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def atoms(self) -> Iterator[Term]:
        yield self


@dataclass(frozen=True)
class Local(_Ref):
    """A workspace (local) variable of a transaction program."""

    name: str
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    def _compile(self):
        return _env_lookup(self, f"local variable {self.name!r}")

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Param(_Ref):
    """A transaction parameter; rigid during the transaction's execution."""

    name: str
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    def _compile(self):
        return _env_lookup(self, f"parameter {self.name!r}")

    def __repr__(self) -> str:
        return f":{self.name}"


@dataclass(frozen=True)
class LogicalVar(_Ref):
    """A rigid logical variable recording an initial value (paper's ``X_i``)."""

    name: str
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    def _compile(self):
        return _env_lookup(self, f"logical variable {self.name!r}")

    def __repr__(self) -> str:
        return self.name.upper()


@dataclass(frozen=True)
class Item(_Ref):
    """A named scalar database item (conventional database model)."""

    name: str
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    def _compile(self):
        name = self.name
        return lambda state, env, rows: state.read_item(name)

    def __repr__(self) -> str:
        return f"db:{self.name}"


@dataclass(frozen=True)
class Field(Term):
    """An array-element reference, e.g. ``acct_sav[i].bal``.

    ``attr`` may be ``None`` for arrays of plain values.  The index is an
    arbitrary integer term (typically a :class:`Param` or a constant).
    """

    array: str
    index: Term
    attr: str | None = None
    var_sort: str = _INT

    @property
    def sort(self) -> str:
        return self.var_sort

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        rewritten = Field(self.array, self.index.substitute(mapping), self.attr, self.var_sort)
        return mapping.get(rewritten, rewritten)

    def atoms(self) -> Iterator[Term]:
        yield self
        yield from self.index.atoms()

    def _compile(self):
        index_fn, array, attr = compiled(self.index), self.array, self.attr

        def fn(state, env, rows):
            index = index_fn(state, env, rows)
            if not isinstance(index, int):
                raise EvaluationError(f"array index of {self!r} is not an integer")
            return state.read_field(array, index, attr)

        return fn

    def __repr__(self) -> str:
        suffix = f".{self.attr}" if self.attr is not None else ""
        return f"{self.array}[{self.index!r}]{suffix}"


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BinOp(Term):
    """Common behaviour of binary integer operators."""

    left: Term
    right: Term

    _symbol = "?"
    _apply = None  # the ``operator`` function, set per subclass

    @property
    def sort(self) -> str:
        return _INT

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return type(self)(self.left.substitute(mapping), self.right.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.left.atoms()
        yield from self.right.atoms()

    def _compile(self):
        left, right, apply = compiled(self.left), compiled(self.right), type(self)._apply

        def fn(state, env, rows):
            lhs = left(state, env, rows)
            rhs = right(state, env, rows)
            if not isinstance(lhs, int) or not isinstance(rhs, int):
                raise EvaluationError(f"non-integer operand in {self!r}")
            return apply(lhs, rhs)

        return fn

    def __repr__(self) -> str:
        return f"({self.left!r} {self._symbol} {self.right!r})"


@dataclass(frozen=True)
class Add(_BinOp):
    """Integer addition."""

    _symbol = "+"
    _apply = operator.add


@dataclass(frozen=True)
class Sub(_BinOp):
    """Integer subtraction."""

    _symbol = "-"
    _apply = operator.sub


@dataclass(frozen=True)
class Mul(_BinOp):
    """Integer multiplication."""

    _symbol = "*"
    _apply = operator.mul


@dataclass(frozen=True)
class Neg(Term):
    """Integer negation."""

    operand: Term

    @property
    def sort(self) -> str:
        return _INT

    def _substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return Neg(self.operand.substitute(mapping))

    def atoms(self) -> Iterator[Term]:
        yield from self.operand.atoms()

    def _compile(self):
        operand = compiled(self.operand)

        def fn(state, env, rows):
            value = operand(state, env, rows)
            if not isinstance(value, int):
                raise EvaluationError(f"non-integer operand in {self!r}")
            return -value

        return fn

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def is_rigid(term: Term) -> bool:
    """True if the term cannot change during any transaction's execution.

    Constants, parameters and logical variables are rigid; locals are rigid
    with respect to *other* transactions (no transaction can write another's
    workspace) but not with respect to the owning transaction.
    """
    if isinstance(term, (IntConst, BoolConst, StrConst, Param, LogicalVar)):
        return True
    if isinstance(term, (Add, Sub, Mul)):
        return is_rigid(term.left) and is_rigid(term.right)
    if isinstance(term, Neg):
        return is_rigid(term.operand)
    return False


def references_database(term: Term) -> bool:
    """True if evaluating the term touches the database state."""
    return any(isinstance(atom, (Item, Field)) for atom in term.atoms())


_HASHCONS_BASES.append(Term)
