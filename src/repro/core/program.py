"""Transaction programs: the statement IR and transaction-type declarations.

The paper's program model (Section 3.1) has three statement kinds for the
conventional database — read, write and local assignment — plus conditionals
and loops whose guards mention only local variables.  Section 4 extends the
model to relational databases with predicate-bearing SELECT / UPDATE /
INSERT / DELETE statements.  This module implements both.

Statements are immutable and serve three masters:

* the *static analysis* asks for their read/written resources, their
  symbolic effects (via :mod:`repro.core.sp` and :mod:`repro.core.effects`)
  and their annotations;
* the *bounded model checker* executes them directly against a
  :class:`repro.core.state.DbState`;
* the *schedule simulator* executes them operation-by-operation through the
  transactional engine (:mod:`repro.sched.interpreter`).

A :class:`TransactionType` packages a program body with the paper's triple
(1): the relevant consistency conjuncts ``I_i``, the parameter precondition
``B_i``, the result ``Q_i``, and the logical-variable snapshot (``x_i = X_i``)
that lets ``Q_i`` refer to initial values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.formula import Formula, RowAttr, TRUE
from repro.core.resources import ArrayResource, Resource, ScalarResource, TableResource
from repro.core.state import DbState, Row
from repro.core.terms import Field, Item, Local, LogicalVar, Param, Term, Value, compiled
from repro.errors import EvaluationError, ProgramError

#: Fuel cap for concrete execution of While loops (model checking only).
LOOP_FUEL = 64


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """Base class of all program statements."""

    def written_resources(self) -> frozenset[Resource]:
        """Database resources this statement (or its body) may write."""
        return frozenset()

    def read_resources(self) -> frozenset[Resource]:
        """Database resources this statement (or its body) may read."""
        return frozenset()

    def execute(self, state: DbState, env: dict) -> None:
        """Concrete big-step execution, mutating ``state`` and ``env``."""
        raise NotImplementedError

    def substatements(self) -> Sequence["Statement"]:
        """Directly nested statements (bodies of control structures)."""
        return ()

    def fingerprint(self) -> str:
        """Stable structural digest (see :mod:`repro.core.cache`)."""
        from repro.core.cache import fingerprint

        return fingerprint(self)

    @property
    def is_db_write(self) -> bool:
        """Whether this single statement writes the database."""
        return False

    @property
    def is_db_read(self) -> bool:
        """Whether this single statement reads the database."""
        return False


def _target_resource(target: Term) -> Resource:
    if isinstance(target, Item):
        return ScalarResource(target.name)
    if isinstance(target, Field):
        return ArrayResource(target.array, target.attr)
    raise ProgramError(f"not a writable database reference: {target!r}")


def _term_read_resources(term: Term) -> frozenset[Resource]:
    out: set[Resource] = set()
    for atom in term.atoms():
        if isinstance(atom, Item):
            out.add(ScalarResource(atom.name))
        elif isinstance(atom, Field):
            out.add(ArrayResource(atom.array, atom.attr))
    return frozenset(out)


@dataclass(frozen=True)
class Read(Statement):
    """``local := database_item`` — an atomic read statement.

    ``post`` is the statement's *critical assertion*: the postcondition of
    the read that the per-level theorems require to be interference-free.
    When omitted the strongest postcondition is derived automatically.
    """

    into: Local
    source: Term  # Item or Field
    post: Formula | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.source, (Item, Field)):
            raise ProgramError(f"read source must be an item or field: {self.source!r}")

    def read_resources(self) -> frozenset[Resource]:
        return _term_read_resources(self.source)

    def execute(self, state: DbState, env: dict) -> None:
        env[self.into] = self.source.evaluate(state, env)

    @property
    def is_db_read(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"{self.into!r} := {self.source!r}"


@dataclass(frozen=True)
class ReadRecord(Statement):
    """Atomically read several attributes of one array record.

    Locking granularity in the paper's Example 2 is *records*: a reader of
    ``emp[i]`` sees the whole record under one short read lock, so a
    half-updated record (``Hours`` between its two writes) is either fully
    visible or not at all at READ COMMITTED and above.  ``binds`` maps
    attribute names to the locals that receive them.
    """

    array: str
    index: Term
    binds: tuple[tuple[str, Local], ...]
    post: Formula | None = None
    label: str | None = None

    def read_resources(self) -> frozenset[Resource]:
        out = {ArrayResource(self.array, attr) for attr, _local in self.binds}
        return frozenset(out) | _term_read_resources(self.index)

    def execute(self, state: DbState, env: dict) -> None:
        index = self.index.evaluate(state, env)
        for attr, local in self.binds:
            env[local] = state.read_field(self.array, index, attr)

    @property
    def is_db_read(self) -> bool:
        return True

    def __repr__(self) -> str:
        attrs = ", ".join(attr for attr, _local in self.binds)
        return f"read record {self.array}[{self.index!r}].({attrs})"


@dataclass(frozen=True)
class Write(Statement):
    """``database_item := expr`` — an atomic write statement.

    The expression may mention locals, parameters and logical variables but
    not database items (the model's write statement transfers a workspace
    value into the database; computations happen in local assignments).
    """

    target: Term  # Item or Field
    value: Term
    post: Formula | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.target, (Item, Field)):
            raise ProgramError(f"write target must be an item or field: {self.target!r}")
        for atom in self.value.atoms():
            if isinstance(atom, (Item, Field)):
                raise ProgramError(
                    f"write value must not read the database directly: {self.value!r};"
                    " read into a local first"
                )

    def written_resources(self) -> frozenset[Resource]:
        return frozenset({_target_resource(self.target)})

    def read_resources(self) -> frozenset[Resource]:
        if isinstance(self.target, Field):
            return _term_read_resources(self.target.index)
        return frozenset()

    def execute(self, state: DbState, env: dict) -> None:
        value = self.value.evaluate(state, env)
        if isinstance(self.target, Item):
            state.write_item(self.target.name, value)
        else:
            index = self.target.index.evaluate(state, env)
            state.write_field(self.target.array, index, self.target.attr, value)

    @property
    def is_db_write(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"{self.target!r} := {self.value!r}"


@dataclass(frozen=True)
class LocalAssign(Statement):
    """``local := expr`` over workspace values only."""

    into: Local
    value: Term
    post: Formula | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        for atom in self.value.atoms():
            if isinstance(atom, (Item, Field)):
                raise ProgramError(
                    f"local assignment must not read the database: {self.value!r}"
                )

    def execute(self, state: DbState, env: dict) -> None:
        env[self.into] = self.value.evaluate(state, env)

    def __repr__(self) -> str:
        return f"{self.into!r} := {self.value!r} (local)"


@dataclass(frozen=True)
class If(Statement):
    """Conditional with a guard over local variables and parameters."""

    cond: Formula
    then: tuple[Statement, ...]
    orelse: tuple[Statement, ...] = ()
    label: str | None = None

    def __post_init__(self) -> None:
        for atom in self.cond.atoms():
            if isinstance(atom, (Item, Field)):
                raise ProgramError(f"guard must not read the database: {self.cond!r}")

    def written_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for stmt in itertools.chain(self.then, self.orelse):
            out |= stmt.written_resources()
        return out

    def read_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for stmt in itertools.chain(self.then, self.orelse):
            out |= stmt.read_resources()
        return out

    def substatements(self) -> Sequence[Statement]:
        return tuple(self.then) + tuple(self.orelse)

    def execute(self, state: DbState, env: dict) -> None:
        branch = self.then if self.cond.evaluate(state, env) else self.orelse
        for stmt in branch:
            stmt.execute(state, env)

    def __repr__(self) -> str:
        return f"if {self.cond!r} then <{len(self.then)} stmts> else <{len(self.orelse)} stmts>"


@dataclass(frozen=True)
class While(Statement):
    """Loop with a guard over local variables and parameters."""

    cond: Formula
    body: tuple[Statement, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        for atom in self.cond.atoms():
            if isinstance(atom, (Item, Field)):
                raise ProgramError(f"guard must not read the database: {self.cond!r}")

    def written_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for stmt in self.body:
            out |= stmt.written_resources()
        return out

    def read_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for stmt in self.body:
            out |= stmt.read_resources()
        return out

    def substatements(self) -> Sequence[Statement]:
        return tuple(self.body)

    def execute(self, state: DbState, env: dict) -> None:
        fuel = LOOP_FUEL
        while self.cond.evaluate(state, env):
            fuel -= 1
            if fuel < 0:
                raise EvaluationError(f"loop fuel exhausted in {self!r}")
            for stmt in self.body:
                stmt.execute(state, env)

    def __repr__(self) -> str:
        return f"while {self.cond!r} do <{len(self.body)} stmts>"


# ---------------------------------------------------------------------------
# relational statements
# ---------------------------------------------------------------------------


def _where_resources(table: str, row: str, where: Formula) -> frozenset[Resource]:
    out: set[Resource] = {TableResource(table)}
    for atom in where.atoms_with_bound():
        if isinstance(atom, RowAttr) and atom.row == row:
            out.add(TableResource(table, atom.attr))
    return frozenset(out)


def _match(where: Formula, row_var: str, state: DbState, env: dict) -> Callable[[Row], bool]:
    """``where`` as a row predicate, with ``row_var`` bound to the row."""
    fn = compiled(where)
    return lambda row: fn(state, env, {row_var: row})


@dataclass(frozen=True)
class Select(Statement):
    """``SELECT attrs INTO :into FROM table WHERE where`` — a buffer read.

    Binds the local ``into`` to the list of matching rows (projected to
    ``attrs`` when given, whole rows otherwise).  The distinguished row
    variable of ``where`` is ``row``.
    """

    table: str
    into: Local
    where: Formula = TRUE
    attrs: tuple[str, ...] | None = None
    row: str = "r"
    post: Formula | None = None
    label: str | None = None

    def read_resources(self) -> frozenset[Resource]:
        out = set(_where_resources(self.table, self.row, self.where))
        for attr in self.attrs or ():
            out.add(TableResource(self.table, attr))
        return frozenset(out)

    def execute(self, state: DbState, env: dict) -> None:
        match = _match(self.where, self.row, state, env)
        rows = [dict(row) for row in state.rows(self.table) if match(row)]
        if self.attrs is not None:
            rows = [{attr: row.get(attr) for attr in self.attrs} for row in rows]
        env[self.into] = tuple(tuple(sorted(row.items())) for row in rows)

    @property
    def is_db_read(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"SELECT * INTO {self.into!r} FROM {self.table} WHERE {self.where!r}"


@dataclass(frozen=True)
class SelectScalar(Statement):
    """``SELECT attr INTO :into FROM table WHERE where`` — single value.

    Reads the attribute of the first matching row; ``default`` is bound when
    no row matches (mirrors an SQL reader returning an empty result).
    """

    table: str
    attr: str
    into: Local
    where: Formula = TRUE
    row: str = "r"
    default: Value | None = None
    post: Formula | None = None
    label: str | None = None

    def read_resources(self) -> frozenset[Resource]:
        out = set(_where_resources(self.table, self.row, self.where))
        out.add(TableResource(self.table, self.attr))
        return frozenset(out)

    def execute(self, state: DbState, env: dict) -> None:
        match = _match(self.where, self.row, state, env)
        for row in state.rows(self.table):
            if match(row):
                env[self.into] = row.get(self.attr, self.default)
                return
        env[self.into] = self.default

    @property
    def is_db_read(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"SELECT {self.attr} INTO {self.into!r} FROM {self.table} WHERE {self.where!r}"


@dataclass(frozen=True)
class SelectCount(Statement):
    """``SELECT COUNT(*) INTO :into FROM table WHERE where``."""

    table: str
    into: Local
    where: Formula = TRUE
    row: str = "r"
    post: Formula | None = None
    label: str | None = None

    def read_resources(self) -> frozenset[Resource]:
        return _where_resources(self.table, self.row, self.where)

    def execute(self, state: DbState, env: dict) -> None:
        match = _match(self.where, self.row, state, env)
        env[self.into] = sum(1 for row in state.rows(self.table) if match(row))

    @property
    def is_db_read(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"SELECT COUNT(*) INTO {self.into!r} FROM {self.table} WHERE {self.where!r}"


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE table SET attr = expr, ... WHERE where``.

    Set expressions may mention the row being updated through
    :class:`RowAttr` terms of the statement's row variable, plus locals and
    parameters.
    """

    table: str
    sets: tuple[tuple[str, Term], ...]
    where: Formula = TRUE
    row: str = "r"
    post: Formula | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        from repro.core.terms import coerce

        object.__setattr__(
            self, "sets", tuple((attr, coerce(term)) for attr, term in self.sets)
        )

    def written_resources(self) -> frozenset[Resource]:
        return frozenset(TableResource(self.table, attr) for attr, _term in self.sets)

    def read_resources(self) -> frozenset[Resource]:
        out = set(_where_resources(self.table, self.row, self.where))
        for _attr, term in self.sets:
            for atom in term.atoms():
                if isinstance(atom, RowAttr) and atom.row == self.row:
                    out.add(TableResource(self.table, atom.attr))
        return frozenset(out)

    def execute(self, state: DbState, env: dict) -> None:
        sets = tuple((attr, compiled(term)) for attr, term in self.sets)

        def updater(row: Row) -> Mapping[str, Value]:
            rows = {self.row: row}
            return {attr: fn(state, env, rows) for attr, fn in sets}

        state.update_rows(self.table, _match(self.where, self.row, state, env), updater)

    @property
    def is_db_write(self) -> bool:
        return True

    def __repr__(self) -> str:
        assignments = ", ".join(f"{attr} = {term!r}" for attr, term in self.sets)
        return f"UPDATE {self.table} SET {assignments} WHERE {self.where!r}"


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO table VALUES (...)`` with expression-valued attributes."""

    table: str
    values: tuple[tuple[str, Term], ...]
    post: Formula | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        from repro.core.terms import coerce

        object.__setattr__(
            self, "values", tuple((attr, coerce(term)) for attr, term in self.values)
        )

    def written_resources(self) -> frozenset[Resource]:
        return frozenset({TableResource(self.table)})

    def execute(self, state: DbState, env: dict) -> None:
        row = {attr: term.evaluate(state, env) for attr, term in self.values}
        state.insert_row(self.table, row)

    @property
    def is_db_write(self) -> bool:
        return True

    def __repr__(self) -> str:
        pairs = ", ".join(f"{attr}={term!r}" for attr, term in self.values)
        return f"INSERT INTO {self.table} ({pairs})"


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM table WHERE where``."""

    table: str
    where: Formula = TRUE
    row: str = "r"
    post: Formula | None = None
    label: str | None = None

    def written_resources(self) -> frozenset[Resource]:
        return frozenset({TableResource(self.table)})

    def read_resources(self) -> frozenset[Resource]:
        return _where_resources(self.table, self.row, self.where)

    def execute(self, state: DbState, env: dict) -> None:
        state.delete_rows(self.table, _match(self.where, self.row, state, env))

    @property
    def is_db_write(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"DELETE FROM {self.table} WHERE {self.where!r}"


@dataclass(frozen=True)
class Rollback(Statement):
    """Explicitly abort the enclosing transaction — an engine-level rollback.

    Only meaningful under the step interpreter, where the engine undoes the
    transaction's earlier writes; the big-step executor cannot un-execute
    preceding statements, so atomic execution rejects it.  Used to model
    scripted ``a<t>`` history tokens and rollback scenarios.
    """

    reason: str = "rollback"
    label: str | None = None

    def execute(self, state: DbState, env: dict) -> None:
        raise ProgramError("Rollback cannot be executed atomically")

    def __repr__(self) -> str:
        return "ROLLBACK"


@dataclass(frozen=True)
class ForEach(Statement):
    """Iterate over a row buffer previously bound by :class:`Select`.

    For each buffered row, the listed attributes are copied into locals and
    the body runs — the shape of the paper's ``Delivery`` loop
    (``while ord_inf := next in buff``).
    """

    buffer: Local
    bind: tuple[tuple[str, Local], ...]
    body: tuple[Statement, ...]
    label: str | None = None

    def written_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for stmt in self.body:
            out |= stmt.written_resources()
        return out

    def read_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for stmt in self.body:
            out |= stmt.read_resources()
        return out

    def substatements(self) -> Sequence[Statement]:
        return tuple(self.body)

    def execute(self, state: DbState, env: dict) -> None:
        buffered = env.get(self.buffer, ())
        for packed in buffered:
            row = dict(packed)
            for attr, local in self.bind:
                env[local] = row.get(attr)
            for stmt in self.body:
                stmt.execute(state, env)

    def __repr__(self) -> str:
        return f"foreach row of {self.buffer!r} do <{len(self.body)} stmts>"


# ---------------------------------------------------------------------------
# transaction types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransactionType:
    """A transaction program together with its specification triple (1).

    ``consistency`` is ``I_i`` — the conjuncts of the database consistency
    constraint the transaction relies on and re-establishes; ``param_pre``
    is ``B_i``; ``result`` is ``Q_i``.  ``snapshot`` binds logical variables
    to terms evaluated at transaction start (the paper's ``x_i = X_i``
    conjunct), so ``Q_i`` can refer to initial values.
    """

    name: str
    params: tuple[Param, ...] = ()
    body: tuple[Statement, ...] = ()
    consistency: Formula = TRUE
    param_pre: Formula = TRUE
    result: Formula = TRUE
    snapshot: tuple[tuple[LogicalVar, Term], ...] = ()

    def fingerprint(self) -> str:
        """Stable structural digest (see :mod:`repro.core.cache`)."""
        from repro.core.cache import fingerprint

        return fingerprint(self)

    def walk(self) -> Iterator[tuple[tuple[int, ...], Statement]]:
        """Yield ``(path, statement)`` for every statement, depth-first."""

        def visit(stmts: Sequence[Statement], prefix: tuple[int, ...]):
            for position, stmt in enumerate(stmts):
                path = prefix + (position,)
                yield path, stmt
                yield from visit(stmt.substatements(), path)

        yield from visit(self.body, ())

    def statements(self) -> list:
        """All statements in program order, control bodies flattened."""
        return [stmt for _path, stmt in self.walk()]

    def read_statements(self) -> list:
        """All database-reading statements (reads and SELECT variants)."""
        return [stmt for stmt in self.statements() if stmt.is_db_read]

    def write_statements(self) -> list:
        """All database-writing statements."""
        return [stmt for stmt in self.statements() if stmt.is_db_write]

    def written_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for stmt in self.body:
            out |= stmt.written_resources()
        return out

    def read_resources(self) -> frozenset[Resource]:
        out: frozenset[Resource] = frozenset()
        for stmt in self.body:
            out |= stmt.read_resources()
        return out

    def initial_env(self, args: Mapping[str, Value], state: DbState) -> dict:
        """Bind parameters and the logical-variable snapshot at start."""
        env: dict = {}
        for param in self.params:
            if param.name not in args:
                raise ProgramError(f"{self.name}: missing argument {param.name!r}")
            env[param] = args[param.name]
        for logical, term in self.snapshot:
            env[logical] = term.evaluate(state, env)
        return env

    def run(self, state: DbState, args: Mapping[str, Value]) -> dict:
        """Execute the whole program atomically against ``state``.

        Used by the bounded model checker and the serial oracle; returns the
        final environment (so ``Q_i`` can be evaluated against it).
        """
        env = self.initial_env(args, state)
        for stmt in self.body:
            stmt.execute(state, env)
        return env

    def rename_params(self, suffix: str) -> "TransactionType":
        """A copy with every parameter renamed ``p`` -> ``p<suffix>``.

        Pairwise interference analysis must keep the two transactions'
        parameters distinct so the prover can case-split on aliasing.
        """
        mapping: dict[Term, Term] = {
            param: Param(param.name + suffix, param.var_sort) for param in self.params
        }
        mapping.update(
            {
                logical: LogicalVar(logical.name + suffix, logical.var_sort)
                for logical, _term in self.snapshot
            }
        )
        renamed_locals = _collect_locals(self.body)
        mapping.update(
            {local: Local(local.name + suffix, local.var_sort) for local in renamed_locals}
        )
        return TransactionType(
            name=self.name,
            params=tuple(mapping[p] for p in self.params),  # type: ignore[misc]
            body=tuple(_substitute_statement(stmt, mapping) for stmt in self.body),
            consistency=self.consistency.substitute(mapping),
            param_pre=self.param_pre.substitute(mapping),
            result=self.result.substitute(mapping),
            snapshot=tuple(
                (mapping[logical], term.substitute(mapping))  # type: ignore[misc]
                for logical, term in self.snapshot
            ),
        )


def _collect_locals(stmts: Sequence[Statement]) -> set:
    out: set = set()

    def visit(statement: Statement) -> None:
        for attr_name in ("into", "buffer"):
            target = getattr(statement, attr_name, None)
            if isinstance(target, Local):
                out.add(target)
        if isinstance(statement, ForEach):
            for _attr, local in statement.bind:
                out.add(local)
        if isinstance(statement, ReadRecord):
            for _attr, local in statement.binds:
                out.add(local)
        for term_attr in ("value", "source", "target"):
            term = getattr(statement, term_attr, None)
            if isinstance(term, Term):
                for atom in term.atoms():
                    if isinstance(atom, Local):
                        out.add(atom)
        for formula_attr in ("cond", "where"):
            guard = getattr(statement, formula_attr, None)
            if isinstance(guard, Formula):
                for atom in guard.atoms():
                    if isinstance(atom, Local):
                        out.add(atom)
        for pairs_attr in ("sets", "values"):
            pairs = getattr(statement, pairs_attr, None)
            if pairs:
                for _attr, term in pairs:
                    for atom in term.atoms():
                        if isinstance(atom, Local):
                            out.add(atom)
        for sub in statement.substatements():
            visit(sub)

    for stmt in stmts:
        visit(stmt)
    return out


def _substitute_statement(stmt: Statement, mapping: Mapping[Term, Term]) -> Statement:
    """Apply a term substitution across a statement tree."""

    def sub_formula(f: Formula | None) -> Formula | None:
        return None if f is None else f.substitute(mapping)

    if isinstance(stmt, Read):
        return replace(
            stmt,
            into=mapping.get(stmt.into, stmt.into),
            source=stmt.source.substitute(mapping),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, Write):
        return replace(
            stmt,
            target=stmt.target.substitute(mapping),
            value=stmt.value.substitute(mapping),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, LocalAssign):
        return replace(
            stmt,
            into=mapping.get(stmt.into, stmt.into),
            value=stmt.value.substitute(mapping),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, If):
        return replace(
            stmt,
            cond=stmt.cond.substitute(mapping),
            then=tuple(_substitute_statement(s, mapping) for s in stmt.then),
            orelse=tuple(_substitute_statement(s, mapping) for s in stmt.orelse),
        )
    if isinstance(stmt, While):
        return replace(
            stmt,
            cond=stmt.cond.substitute(mapping),
            body=tuple(_substitute_statement(s, mapping) for s in stmt.body),
        )
    if isinstance(stmt, Select):
        return replace(
            stmt,
            into=mapping.get(stmt.into, stmt.into),
            where=stmt.where.substitute(mapping),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, SelectScalar):
        return replace(
            stmt,
            into=mapping.get(stmt.into, stmt.into),
            where=stmt.where.substitute(mapping),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, SelectCount):
        return replace(
            stmt,
            into=mapping.get(stmt.into, stmt.into),
            where=stmt.where.substitute(mapping),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, Update):
        return replace(
            stmt,
            sets=tuple((attr, term.substitute(mapping)) for attr, term in stmt.sets),
            where=stmt.where.substitute(mapping),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, Insert):
        return replace(
            stmt,
            values=tuple((attr, term.substitute(mapping)) for attr, term in stmt.values),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, Delete):
        return replace(stmt, where=stmt.where.substitute(mapping), post=sub_formula(stmt.post))
    if isinstance(stmt, ForEach):
        return replace(
            stmt,
            buffer=mapping.get(stmt.buffer, stmt.buffer),
            bind=tuple((attr, mapping.get(local, local)) for attr, local in stmt.bind),
            body=tuple(_substitute_statement(s, mapping) for s in stmt.body),
        )
    if isinstance(stmt, ReadRecord):
        return replace(
            stmt,
            index=stmt.index.substitute(mapping),
            binds=tuple((attr, mapping.get(local, local)) for attr, local in stmt.binds),
            post=sub_formula(stmt.post),
        )
    if isinstance(stmt, Rollback):
        return stmt
    raise ProgramError(f"unknown statement kind: {stmt!r}")
