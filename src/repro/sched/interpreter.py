"""Step interpreter: transaction programs against the engine.

The interpreter turns a :class:`repro.core.program.TransactionType` into a
generator of *operation thunks*.  Each thunk performs exactly one engine
operation when called; the generator consumes the thunk's result (sent
back in by the scheduler) and advances to the next database operation,
executing any intervening local computation inline.

This inversion keeps blocking out of the interpreter: when a thunk raises
:class:`repro.engine.locks.WouldBlock`, the scheduler simply calls the same
thunk again later — the generator never observes the failed attempt, so
operations are retried transparently, exactly like a lock queue.

Logical-variable snapshots (``x_i = X_i`` in the paper's triple (1)) are
ghost reads: they are bound from the committed state at begin without
taking locks, since they exist only for the semantic-correctness oracle.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from repro.core.formula import Formula
from repro.core.program import (
    Delete,
    ForEach,
    If,
    Insert,
    LocalAssign,
    Read,
    ReadRecord,
    Rollback,
    Select,
    SelectCount,
    SelectScalar,
    Statement,
    TransactionType,
    Update,
    While,
    Write,
)
from repro.core.state import DbState
from repro.core.terms import Field, Item, Local, compiled
from repro.engine.manager import Engine
from repro.engine.transaction import Txn
from repro.errors import EvaluationError, ProgramError, ScheduleError

_EMPTY = DbState()

#: Fuel cap for While loops during simulation.
LOOP_FUEL = 256


def bind_ghosts(txn_type: TransactionType, args: Mapping, state: DbState) -> dict:
    """Parameters plus logical-variable snapshot, bound without locks."""
    env: dict = {}
    for param in txn_type.params:
        if param.name not in args:
            raise ScheduleError(f"{txn_type.name}: missing argument {param.name!r}")
        env[param] = args[param.name]
    for logical, term in txn_type.snapshot:
        try:
            env[logical] = term.evaluate(state, env)
        except EvaluationError:
            env[logical] = None
    return env


def _local_eval(term, env: dict):
    return term.evaluate(_EMPTY, env)


def _row_predicate(where: Formula, row_var: str, env: dict) -> Callable[[dict], bool]:
    fn = compiled(where)
    return lambda row: fn(_EMPTY, env, {row_var: row})


def steps(
    engine: Engine,
    txn: Txn,
    txn_type: TransactionType,
    args: Mapping,
    env: dict,
    observations: dict | None = None,
) -> Iterator[Callable]:
    """Yield one engine-operation thunk per database operation.

    The caller must ``send`` each thunk's return value back into the
    generator.  ``env`` is mutated in place so the caller can inspect the
    transaction's workspace afterwards (the semantic checker needs it).

    ``observations`` (when given) collects the values this transaction
    actually read, keyed by location — ``("item", name)`` and
    ``("field", array, index, attr)``.  The simulator uses them to bind the
    logical-variable snapshot (the paper's ``x_i = X_i``) to the values the
    transaction truly observed, which is what ``Q_i`` quantifies over.
    """
    obs = observations if observations is not None else {}

    def run(stmts) -> Iterator[Callable]:
        for stmt in stmts:
            if isinstance(stmt, Read):
                source = stmt.source
                if isinstance(source, Item):
                    value = yield (lambda name=source.name: engine.read_item(txn, name))
                elif isinstance(source, Field):
                    index = _local_eval(source.index, env)
                    value = yield (
                        lambda a=source.array, i=index, f=source.attr: engine.read_field(
                            txn, a, i, f
                        )
                    )
                    obs[("field", source.array, index, source.attr)] = value
                else:  # pragma: no cover - constructor forbids
                    raise ProgramError(f"unreadable source {source!r}")
                if isinstance(source, Item):
                    obs[("item", source.name)] = value
                env[stmt.into] = value
            elif isinstance(stmt, ReadRecord):
                index = _local_eval(stmt.index, env)
                attrs = tuple(attr for attr, _local in stmt.binds)
                values = yield (
                    lambda a=stmt.array, i=index, fs=attrs: engine.read_record(txn, a, i, fs)
                )
                # a dropped (blocked) operation sends None back: no values
                # were observed, so the locals stay unbound
                if values is not None:
                    for attr, local in stmt.binds:
                        env[local] = values[attr]
                        obs[("field", stmt.array, index, attr)] = values[attr]
            elif isinstance(stmt, Write):
                value = _local_eval(stmt.value, env)
                target = stmt.target
                if isinstance(target, Item):
                    yield (lambda n=target.name, v=value: engine.write_item(txn, n, v))
                else:
                    index = _local_eval(target.index, env)
                    yield (
                        lambda a=target.array, i=index, f=target.attr, v=value: engine.write_field(
                            txn, a, i, f, v
                        )
                    )
            elif isinstance(stmt, LocalAssign):
                env[stmt.into] = _local_eval(stmt.value, env)
            elif isinstance(stmt, Select):
                predicate = _row_predicate(stmt.where, stmt.row, env)
                rows = yield (lambda t=stmt.table, p=predicate: engine.select(txn, t, p))
                if rows is None:  # dropped (blocked) operation
                    rows = []
                if stmt.attrs is not None:
                    rows = [{attr: row.get(attr) for attr in stmt.attrs} for row in rows]
                env[stmt.into] = tuple(tuple(sorted(row.items())) for row in rows)
            elif isinstance(stmt, SelectScalar):
                predicate = _row_predicate(stmt.where, stmt.row, env)
                rows = yield (lambda t=stmt.table, p=predicate: engine.select(txn, t, p))
                env[stmt.into] = rows[0].get(stmt.attr, stmt.default) if rows else stmt.default
            elif isinstance(stmt, SelectCount):
                predicate = _row_predicate(stmt.where, stmt.row, env)
                rows = yield (lambda t=stmt.table, p=predicate: engine.select(txn, t, p))
                env[stmt.into] = len(rows or ())
            elif isinstance(stmt, Insert):
                row = {attr: _local_eval(term, env) for attr, term in stmt.values}
                yield (lambda t=stmt.table, r=row: engine.insert(txn, t, r))
            elif isinstance(stmt, Update):
                predicate = _row_predicate(stmt.where, stmt.row, env)

                def changes(row: dict, sets=stmt.sets, row_var=stmt.row) -> dict:
                    rows = {row_var: row}
                    return {attr: compiled(term)(_EMPTY, env, rows) for attr, term in sets}

                yield (lambda t=stmt.table, p=predicate, c=changes: engine.update(txn, t, p, c))
            elif isinstance(stmt, Delete):
                predicate = _row_predicate(stmt.where, stmt.row, env)
                yield (lambda t=stmt.table, p=predicate: engine.delete(txn, t, p))
            elif isinstance(stmt, If):
                branch = stmt.then if stmt.cond.evaluate(_EMPTY, env) else stmt.orelse
                yield from run(branch)
            elif isinstance(stmt, While):
                fuel = LOOP_FUEL
                while stmt.cond.evaluate(_EMPTY, env):
                    fuel -= 1
                    if fuel < 0:
                        raise ScheduleError(f"loop fuel exhausted in {stmt!r}")
                    yield from run(stmt.body)
            elif isinstance(stmt, Rollback):
                # one engine op: abort the transaction (undo + lock release);
                # the simulator notices the aborted status and finishes the
                # instance without retrying
                yield (lambda reason=stmt.reason: engine.abort(txn, reason=reason))
            elif isinstance(stmt, ForEach):
                buffered = env.get(stmt.buffer, ())
                for packed in buffered:
                    row = dict(packed)
                    for attr, local in stmt.bind:
                        env[local] = row.get(attr)
                    yield from run(stmt.body)
            else:
                raise ProgramError(f"unknown statement kind {stmt!r}")

    try:
        yield from run(txn_type.body)
    finally:
        # ``run`` reaches itself through its closure cell; unbinding it
        # breaks that cycle, so a finished or abandoned run frees its
        # engine by reference counting instead of at the next cyclic GC
        run = None
