"""A Berenson-style history DSL replayed through the engine.

Canonical anomaly histories from [2] are written as one-line scripts:

    "w1[x=1] r2[x] c1 c2"           (dirty read shape)
    "r1[x] r2[x] w2[x=2] c2 w1[x=3] c1"   (lost update shape)

Grammar per token:

* ``r<t>[item]``        — transaction *t* reads ``item``;
* ``w<t>[item=value]``  — transaction *t* writes integer ``value``;
* ``r<t>[arr[i].attr]`` / ``w<t>[arr[i].attr=value]`` — record-array
  variants (e.g. ``r1[acct_sav[0].bal]``), so simulator counterexamples
  over record arrays round-trip through the DSL;
* ``c<t>`` / ``a<t>``   — commit / abort;
* ``rp<t>[table:attr=value]``      — predicate read (SELECT attr=value);
* ``ins<t>[table:attr=value,...]`` — insert a row.

:func:`replay` attempts the script under a per-transaction isolation-level
assignment.  Each step either executes, *blocks* (recorded, the step is
dropped — the lock protocol prevented the interleaving), or *aborts* the
transaction (first-committer-wins).  The outcome object reports which
steps executed, so a bench can assert e.g. "the dirty-read history is
executable at READ UNCOMMITTED but its read blocks at READ COMMITTED."

:func:`history_string` goes the other way: it renders an executed
schedule's engine history back into a DSL line, making explored
counterexamples replayable via ``repro replay``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.state import DbState
from repro.engine.locks import WouldBlock
from repro.engine.manager import Engine
from repro.errors import FirstCommitterWinsAbort, TransactionAborted

_TOKEN = re.compile(
    r"^(?P<op>rp|ins|r|w|c|a)(?P<txn>\d+)(?:\[(?P<body>.*)\])?$"
)

#: Field references inside r/w token bodies: ``array[index].attr``.
_FIELD = re.compile(r"^(?P<array>\w+)\[(?P<index>-?\d+)\]\.(?P<attr>\w+)$")


@dataclass
class StepOutcome:
    """What happened to one scripted step."""

    token: str
    status: str  # ok | blocked | aborted | skipped
    value: object = None
    detail: str = ""


@dataclass
class ReplayResult:
    """Outcome of replaying a history under a level assignment."""

    steps: list = field(default_factory=list)
    final: DbState | None = None
    engine: Engine | None = None

    @property
    def executed_fully(self) -> bool:
        return all(step.status == "ok" for step in self.steps)

    @property
    def blocked_steps(self) -> list:
        return [step for step in self.steps if step.status == "blocked"]

    @property
    def aborted_steps(self) -> list:
        return [step for step in self.steps if step.status == "aborted"]

    def value_of(self, token: str):
        for step in self.steps:
            if step.token == token:
                return step.value
        raise KeyError(token)


def parse(history: str) -> list:
    """Tokenise a history string; raises on malformed tokens."""
    tokens = []
    for raw in history.split():
        match = _TOKEN.match(raw)
        if match is None:
            raise ValueError(f"malformed history token {raw!r}")
        tokens.append((raw, match.group("op"), int(match.group("txn")), match.group("body")))
    return tokens


def replay(
    history: str,
    levels: dict,
    initial: DbState | None = None,
    default_level: str = "READ COMMITTED",
) -> ReplayResult:
    """Replay a history; ``levels`` maps txn number -> isolation level."""
    state = initial.copy() if initial is not None else DbState(items={})
    tokens = parse(history)
    _ensure_locations(state, tokens)
    engine = Engine(state)
    txns: dict = {}
    result = ReplayResult(engine=engine)
    dead: set = set()

    for raw, op, number, body in tokens:
        if number in dead:
            result.steps.append(StepOutcome(raw, "skipped", detail="transaction aborted earlier"))
            continue
        if number not in txns:
            txns[number] = engine.begin(levels.get(number, default_level))
        txn = txns[number]
        try:
            if op == "r":
                target = _FIELD.match(body)
                if target is not None:
                    value = engine.read_field(
                        txn, target["array"], int(target["index"]), target["attr"]
                    )
                else:
                    value = engine.read_item(txn, body)
                result.steps.append(StepOutcome(raw, "ok", value=value))
            elif op == "w":
                lhs, _eq, literal = body.partition("=")
                target = _FIELD.match(lhs)
                if target is not None:
                    engine.write_field(
                        txn, target["array"], int(target["index"]), target["attr"], int(literal)
                    )
                else:
                    engine.write_item(txn, lhs, int(literal))
                result.steps.append(StepOutcome(raw, "ok"))
            elif op == "rp":
                table, _colon, cond = body.partition(":")
                attr, _eq, literal = cond.partition("=")
                wanted = _parse_value(literal)
                rows = engine.select(txn, table, lambda row: row.get(attr) == wanted)
                result.steps.append(StepOutcome(raw, "ok", value=rows))
            elif op == "ins":
                table, _colon, assigns = body.partition(":")
                row = {}
                for assign in assigns.split(","):
                    attr, _eq, literal = assign.partition("=")
                    row[attr] = _parse_value(literal)
                engine.insert(txn, table, row)
                result.steps.append(StepOutcome(raw, "ok"))
            elif op == "c":
                engine.commit(txn)
                result.steps.append(StepOutcome(raw, "ok"))
            elif op == "a":
                engine.abort(txn, reason="scripted abort")
                dead.add(number)
                result.steps.append(StepOutcome(raw, "ok"))
            else:  # pragma: no cover - regex forbids
                raise ValueError(op)
        except WouldBlock as block:
            result.steps.append(
                StepOutcome(raw, "blocked", detail=f"blocked by {sorted(block.blockers)}")
            )
        except (FirstCommitterWinsAbort, TransactionAborted) as abort:
            dead.add(number)
            result.steps.append(StepOutcome(raw, "aborted", detail=str(abort)))
    result.final = engine.committed_state()
    return result


def _parse_value(literal: str):
    literal = literal.strip()
    if literal in ("true", "True"):
        return True
    if literal in ("false", "False"):
        return False
    try:
        return int(literal)
    except ValueError:
        return literal


def _ensure_locations(state: DbState, tokens) -> None:
    """Pre-create every scalar/field location a history mentions (as 0)."""
    for _raw, op, _txn, body in tokens:
        if op not in ("r", "w") or not body:
            continue
        lhs = body.partition("=")[0]
        target = _FIELD.match(lhs)
        if target is not None:
            array, index, attr = target["array"], int(target["index"]), target["attr"]
            if not state.has_field(array, index, attr):
                state.write_field(array, index, attr, 0)
        elif not state.has_item(lhs):
            state.write_item(lhs, 0)


# ---------------------------------------------------------------------------
# schedules back to history strings
# ---------------------------------------------------------------------------


def history_numbering(history_ops) -> dict:
    """Engine ``txn_id`` -> DSL transaction number, 1..n in begin order.

    The same numbering :func:`history_string` uses, so a caller can
    translate per-instance facts (e.g. isolation levels) into the
    ``--levels N=LEVEL`` assignments that make the rendered history
    replayable.
    """
    numbering: dict = {}
    for op in history_ops:
        if op.kind == "begin":
            numbering.setdefault(op.txn_id, len(numbering) + 1)
    return numbering


def history_string(history_ops) -> str | None:
    """Render recorded engine operations as a replayable DSL line.

    Transactions are renumbered 1..n in begin order (a restarted instance
    gets a fresh number — its aborted incarnation is part of the history).
    Returns ``None`` when the history contains operations the DSL cannot
    express (updates, deletes, non-literal values).
    """
    numbering: dict = {}
    tokens: list = []
    for op in history_ops:
        if op.kind == "begin":
            numbering.setdefault(op.txn_id, len(numbering) + 1)
            continue
        number = numbering.get(op.txn_id)
        if number is None:  # pragma: no cover - begins always precede ops
            return None
        if op.kind == "commit":
            tokens.append(f"c{number}")
        elif op.kind == "abort":
            tokens.append(f"a{number}")
        elif op.kind in ("r", "w"):
            rendered = _render_access(number, op)
            if rendered is None:
                return None
            tokens.extend(rendered)
        else:
            return None
    return " ".join(tokens)


def _render_access(number: int, op) -> list | None:
    key = op.key
    if key is None:
        return None
    if op.kind == "r":
        if key[0] == "item":
            return [f"r{number}[{key[1]}]"]
        if key[0] == "record":
            attrs = op.info.get("attrs")
            if attrs is None:
                attr = op.info.get("attr")
                attrs = (attr,) if attr is not None else None
            if attrs is None or any(a is None for a in attrs):
                return None
            return [f"r{number}[{key[1]}[{key[2]}].{attr}]" for attr in attrs]
        return None
    value = op.info.get("value")
    if not isinstance(value, int) or isinstance(value, bool):
        return None
    if key[0] == "item":
        return [f"w{number}[{key[1]}={value}]"]
    if key[0] == "record":
        attr = op.info.get("attr")
        if attr is None:
            return None
        return [f"w{number}[{key[1]}[{key[2]}].{attr}={value}]"]
    return None
