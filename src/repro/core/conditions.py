"""Theorems 1–6: per-isolation-level semantic-correctness conditions.

Each theorem reduces "transaction ``T_i`` executes semantically correctly at
level L" to a finite set of non-interference *obligations*.  This module
enumerates exactly those obligations — the paper's central point is that the
locking discipline of each level makes most of the naive ``(KN)²``
Owicki–Gries checks unnecessary — and discharges them through the
:class:`repro.core.interference.InterferenceChecker`.

The obligation shapes, by level:

* **READ UNCOMMITTED** (Thm 1): every *individual write statement* of every
  transaction (plus every transaction's *rollback*, which undoes its
  writes) against ``I_i``, the postcondition of every read in ``T_i``, and
  ``Q_i``.
* **READ COMMITTED** (Thm 2): every transaction *as one atomic unit*
  against each read postcondition and ``Q_i``.
* **READ COMMITTED + first-committer-wins** (Thm 3): as Thm 2, but reads
  that are followed (on every path) by a write of the same item are exempt
  — FCW gives them the force of long read locks.
* **REPEATABLE READ** (Thm 4 conventional / Thm 6 relational): trivially
  correct in the conventional model; in the relational model, each SELECT's
  postcondition must survive every write statement except DELETE/UPDATEs
  whose predicates intersect the SELECT's predicate (those block on the
  long tuple read locks) — INSERT phantoms are *not* excused — and ``Q_i``
  must survive every transaction as a unit.
* **SNAPSHOT** (Thm 5): per pair of transactions, either the write sets
  intersect (first-committer-wins aborts one) or the partner must not
  interfere with the read-step postcondition and ``Q_i`` — only ``K²``
  pairwise checks.
* **SERIALIZABLE**: trivially correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.application import Application
from repro.core.formula import (
    AbstractPred,
    CountWhere,
    Formula,
    RowAttr,
    TRUE,
    conj,
    eq,
    implies,
)
from repro.core.interference import (
    ASSUMED,
    BOUNDED,
    CONSISTENCY,
    CriticalAssertion,
    InterferenceChecker,
    InterferenceVerdict,
    PROVED,
    READ_POST,
    READ_STEP_POST,
    RESULT,
    SAMPLED,
)
from repro.core.program import (
    Delete,
    ForEach,
    If,
    Insert,
    Read,
    Select,
    SelectCount,
    SelectScalar,
    Statement,
    TransactionType,
    Update,
    While,
    Write,
)
from repro.core.prover import Verdict, is_satisfiable, is_valid
from repro.core.resources import overlaps
from repro.core.terms import Field, Item
from repro.errors import AnalysisError

#: Version of the obligation-plan shape produced by the ``plan_*`` functions.
#: Part of the persistent verdict store's salt
#: (:func:`repro.core.persist.store_salt`): a change to which obligations a
#: level generates — or to what a cached verdict means for a level — must
#: bump this so verdicts persisted by older plans miss cleanly.
PLAN_VERSION = "1"

# ---------------------------------------------------------------------------
# isolation levels
# ---------------------------------------------------------------------------

READ_UNCOMMITTED = "READ UNCOMMITTED"
READ_COMMITTED = "READ COMMITTED"
READ_COMMITTED_FCW = "READ COMMITTED FCW"
REPEATABLE_READ = "REPEATABLE READ"
SNAPSHOT = "SNAPSHOT"
SERIALIZABLE = "SERIALIZABLE"

#: The Section 5 search ladder (SNAPSHOT is offered separately by vendors
#: and is excluded from the ladder, as in the paper).
ANSI_LADDER = (READ_UNCOMMITTED, READ_COMMITTED, REPEATABLE_READ, SERIALIZABLE)

#: The extended ladder including READ COMMITTED with first-committer-wins.
EXTENDED_LADDER = (
    READ_UNCOMMITTED,
    READ_COMMITTED,
    READ_COMMITTED_FCW,
    REPEATABLE_READ,
    SERIALIZABLE,
)

#: Strength order of all levels (for reporting and the engine).
LEVEL_ORDER = {
    READ_UNCOMMITTED: 0,
    READ_COMMITTED: 1,
    READ_COMMITTED_FCW: 2,
    SNAPSHOT: 3,
    REPEATABLE_READ: 4,
    SERIALIZABLE: 5,
}

_CONFIDENCE_ORDER = {PROVED: 0, BOUNDED: 1, SAMPLED: 2, ASSUMED: 3}


# ---------------------------------------------------------------------------
# canonical read postconditions
# ---------------------------------------------------------------------------


def canonical_read_post(stmt: Statement) -> Formula:
    """The natural postcondition of a read when the program is unannotated.

    It asserts "what I read is (still) what the database contains", the
    strongest statement-local fact — exactly what the per-level theorems
    protect.  Buffer and scalar SELECTs use an evaluator-backed abstract
    predicate (their value is a row set / a first-match, not a term);
    COUNT SELECTs and conventional reads are fully structural.
    """
    if isinstance(stmt, Read):
        return eq(stmt.into, stmt.source)
    if isinstance(stmt, SelectCount):
        return eq(stmt.into, CountWhere(stmt.table, stmt.row, stmt.where))
    if isinstance(stmt, Select):
        select = stmt

        def buffer_matches(state, env):
            probe = Select(
                select.table, select.into, select.where, select.attrs, select.row
            )
            scratch = dict(env)
            probe.execute(state, scratch)
            return env.get(select.into) == scratch.get(select.into)

        return AbstractPred(
            name=f"post[{stmt!r}]",
            reads=frozenset(stmt.read_resources()),
            evaluator=buffer_matches,
        )
    if isinstance(stmt, SelectScalar):
        scalar = stmt

        def value_matches(state, env):
            probe = SelectScalar(
                scalar.table, scalar.attr, scalar.into, scalar.where, scalar.row, scalar.default
            )
            scratch = dict(env)
            probe.execute(state, scratch)
            return env.get(scalar.into) == scratch.get(scalar.into)

        return AbstractPred(
            name=f"post[{stmt!r}]",
            reads=frozenset(stmt.read_resources()),
            evaluator=value_matches,
        )
    raise AnalysisError(f"not a read statement: {stmt!r}")


def read_post_assertions(txn: TransactionType) -> list:
    """The (statement, CriticalAssertion) pairs for every read in the body.

    Explicit annotations are split into their top-level conjuncts and each
    conjunct becomes its own critical assertion — interference invalidates
    a conjunction exactly when it invalidates some conjunct, and conjuncts
    have independent truth windows (e.g. ``no_gap`` may be temporarily
    false mid-transaction while ``maxdate <= maximum_date`` is active and
    vulnerable, the paper's New_Order rollback scenario).
    """
    out = []
    for index, stmt in enumerate(txn.read_statements()):
        explicit = getattr(stmt, "post", None)
        formula = explicit if explicit is not None else canonical_read_post(stmt)
        parts = conjuncts_of(formula)
        for part_index, part in enumerate(parts):
            suffix = f".c{part_index}" if len(parts) > 1 else ""
            out.append(
                (
                    stmt,
                    CriticalAssertion(
                        label=f"post(read#{index}:{type(stmt).__name__}){suffix}",
                        formula=part,
                        kind=READ_POST,
                        read_stmt=stmt,
                    ),
                )
            )
    return out


def conjuncts_of(formula: Formula):
    """Top-level conjuncts (the formula itself when not a conjunction)."""
    from repro.core.formula import And, Top

    if isinstance(formula, And):
        return list(formula.operands)
    if isinstance(formula, Top):
        return []
    return [formula]


def consistency_assertions(txn: TransactionType) -> list:
    parts = conjuncts_of(txn.consistency)
    if len(parts) <= 1:
        return [CriticalAssertion("I_i", txn.consistency, CONSISTENCY)]
    return [
        CriticalAssertion(f"I_i.c{index}", part, CONSISTENCY)
        for index, part in enumerate(parts)
    ]


def result_assertions(txn: TransactionType) -> list:
    parts = conjuncts_of(txn.result)
    if len(parts) <= 1:
        return [CriticalAssertion("Q_i", txn.result, RESULT)]
    return [
        CriticalAssertion(f"Q_i.c{index}", part, RESULT)
        for index, part in enumerate(parts)
    ]


def read_step_assertion(txn: TransactionType) -> CriticalAssertion:
    """The SNAPSHOT model's read-step postcondition (Theorem 5).

    Explicit annotations on read statements are conjoined; unannotated reads
    contribute their canonical postcondition.
    """
    parts = [assertion.formula for _stmt, assertion in read_post_assertions(txn)]
    return CriticalAssertion("post(read-step)", conj(*parts), READ_STEP_POST)


# ---------------------------------------------------------------------------
# first-committer-wins read protection (Theorem 3)
# ---------------------------------------------------------------------------


def _syntactic_paths(stmts) -> list:
    """All syntactic statement sequences through a body (loops taken once)."""
    paths = [[]]
    for stmt in stmts:
        if isinstance(stmt, If):
            then_paths = _syntactic_paths(stmt.then)
            else_paths = _syntactic_paths(stmt.orelse)
            paths = [
                prefix + [stmt] + branch
                for prefix in paths
                for branch in then_paths + else_paths
            ]
        elif isinstance(stmt, While):
            body_paths = _syntactic_paths(stmt.body)
            paths = [
                prefix + [stmt] + branch for prefix in paths for branch in body_paths + [[]]
            ]
        elif isinstance(stmt, ForEach):
            body_paths = _syntactic_paths(stmt.body)
            paths = [
                prefix + [stmt] + branch for prefix in paths for branch in body_paths + [[]]
            ]
        else:
            paths = [prefix + [stmt] for prefix in paths]
    return paths


def _unify_row_var(where: Formula, from_row: str, to_row: str) -> Formula:
    mapping = {}
    for atom in where.atoms_with_bound():
        if isinstance(atom, RowAttr) and atom.row == from_row:
            mapping[atom] = RowAttr(to_row, atom.attr, atom.var_sort)
    return where.substitute(mapping)


def predicate_covers(read_where: Formula, read_row: str, write_where: Formula, write_row: str) -> bool:
    """Does the write predicate cover (⊇) the read predicate?"""
    unified = _unify_row_var(write_where, write_row, read_row)
    result = is_valid(implies(read_where, unified))
    return result.verdict == Verdict.VALID


def predicate_intersects(a: Formula, a_row: str, b: Formula, b_row: str) -> bool:
    """Can a single row satisfy both predicates?  (Conservative: yes on UNKNOWN.)"""
    unified = _unify_row_var(b, b_row, a_row)
    result = is_satisfiable(conj(a, unified))
    return result.verdict != Verdict.UNSAT


def _write_protects_read(read_stmt: Statement, write_stmt: Statement) -> bool:
    """Whether a later write gives this read FCW (long-read-lock) force."""
    if isinstance(read_stmt, Read) and isinstance(write_stmt, Write):
        return write_stmt.target == read_stmt.source
    if isinstance(read_stmt, (Select, SelectScalar, SelectCount)) and isinstance(
        write_stmt, (Update, Delete)
    ):
        if write_stmt.table != read_stmt.table:
            return False
        return predicate_covers(
            read_stmt.where, read_stmt.row, write_stmt.where, write_stmt.row
        )
    return False


def fcw_protected_reads(txn: TransactionType) -> set:
    """Reads followed on *every* syntactic path by a write of the same item.

    Theorem 3 exempts exactly these reads: when the transaction commits, the
    first-committer-wins check on the written item means the read value was
    never overwritten by a concurrent committer — the effect of a long read
    lock.  Returned as a set of statement ids (statements may compare equal
    structurally, so identity is used).
    """
    protected: set[int] = set()
    candidates = {id(stmt): stmt for stmt in txn.read_statements()}
    paths = _syntactic_paths(txn.body)
    for read_id, read_stmt in candidates.items():
        covered_everywhere = True
        for path in paths:
            ids = [id(s) for s in path]
            if read_id not in ids:
                continue
            position = ids.index(read_id)
            later = path[position + 1 :]
            if not any(_write_protects_read(read_stmt, w) for w in later if w.is_db_write):
                covered_everywhere = False
                break
        if covered_everywhere:
            protected.add(read_id)
    return protected


# ---------------------------------------------------------------------------
# obligations and results
# ---------------------------------------------------------------------------


@dataclass
class Obligation:
    """One non-interference check demanded by a theorem."""

    target: str
    assertion: CriticalAssertion
    source: str
    mode: str  # "statement" | "rollback" | "unit" | "unit-fcw" | "select-vs-write"
    statement: Statement | None = None
    verdict: InterferenceVerdict | None = None
    excused: str | None = None

    @property
    def ok(self) -> bool:
        if self.excused is not None:
            return True
        return self.verdict is not None and self.verdict.safe

    def describe(self) -> str:
        what = f"{self.mode} {self.source}"
        if self.statement is not None:
            what += f" [{self.statement!r}]"
        status = "excused: " + self.excused if self.excused else repr(self.verdict)
        return f"{self.target} / {self.assertion.label} vs {what} -> {status}"


@dataclass
class LevelCheckResult:
    """Verdict for one transaction type at one isolation level."""

    transaction: str
    level: str
    ok: bool
    obligations: list = field(default_factory=list)
    trivially_correct: bool = False
    note: str = ""

    @property
    def checked(self) -> int:
        return len(self.obligations)

    @property
    def failures(self) -> list:
        return [ob for ob in self.obligations if not ob.ok]

    @property
    def confidence(self) -> str:
        """The weakest confidence among the discharged obligations."""
        worst = PROVED
        for ob in self.obligations:
            if ob.excused is not None or ob.verdict is None:
                continue
            if _CONFIDENCE_ORDER[ob.verdict.confidence] > _CONFIDENCE_ORDER[worst]:
                worst = ob.verdict.confidence
        return worst

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILS ({len(self.failures)} obligations)"
        extra = " [trivial]" if self.trivially_correct else f" [{self.checked} obligations, {self.confidence}]"
        return f"{self.transaction} @ {self.level}: {status}{extra}"

    def to_dict(self) -> dict:
        return {
            "transaction": self.transaction,
            "level": self.level,
            "ok": self.ok,
            "obligations": self.checked,
            "failures": len(self.failures),
            "confidence": self.confidence,
            "trivially_correct": self.trivially_correct,
            "note": self.note,
        }


def _sources(app: Application, target: TransactionType) -> list:
    """Concurrent partners: every type renamed apart, with its assumption."""
    return [
        (txn.rename_params("!2"), app.assumption(target.name, txn.name))
        for txn in app.transactions
    ]


# ---------------------------------------------------------------------------
# obligation plans
# ---------------------------------------------------------------------------
#
# Every level check is split into two phases: *planning* enumerates the
# obligations the theorem demands (cheap, deterministic, and identical to
# the order the historical single-loop implementation used), *discharging*
# runs them through the checker.  The split is what makes the obligations
# independently schedulable: a plan's entries carry no checker state, so
# they can be discharged serially, across a thread pool, or — by index,
# against a re-derived identical plan — in another process.


@dataclass
class ObligationSpec:
    """One planned, not-yet-discharged interference obligation.

    ``check`` names the checker entry point (``statement`` / ``rollback`` /
    ``unit``); ``mode`` is the reporting label carried into
    :class:`Obligation`; ``kwargs`` are the checker keyword arguments
    (``dirty_reads``, ``fcw_excuse``, ``fcw_targets``).  Entries with
    ``excused`` set are never dispatched.
    """

    target: TransactionType
    assertion: CriticalAssertion
    source: TransactionType
    assumption: Formula
    check: str
    mode: str
    statement: Statement | None = None
    excused: str | None = None
    kwargs: dict = field(default_factory=dict)


def discharge_one(checker: InterferenceChecker, spec: ObligationSpec) -> InterferenceVerdict:
    """Run one planned obligation through the checker."""
    if spec.check == "statement":
        return checker.check_statement(
            spec.target, spec.assertion, spec.source, spec.statement,
            assumption=spec.assumption, **spec.kwargs,
        )
    if spec.check == "rollback":
        return checker.check_rollback(
            spec.target, spec.assertion, spec.source, assumption=spec.assumption,
        )
    if spec.check == "unit":
        return checker.check_unit(
            spec.target, spec.assertion, spec.source,
            assumption=spec.assumption, **spec.kwargs,
        )
    raise AnalysisError(f"unknown obligation check {spec.check!r}")


def discharge(checker: InterferenceChecker, specs: list) -> list:
    """Discharge a plan into :class:`Obligation` records, in plan order."""
    return [
        Obligation(
            spec.target.name, spec.assertion, spec.source.name, spec.mode,
            spec.statement,
            discharge_one(checker, spec) if spec.excused is None else None,
            spec.excused,
        )
        for spec in specs
    ]


def plan_read_uncommitted(app: Application, target: TransactionType) -> list:
    """Theorem 1 plan."""
    assertions = consistency_assertions(target)
    assertions += [assertion for _stmt, assertion in read_post_assertions(target)]
    assertions += result_assertions(target)
    specs: list[ObligationSpec] = []
    for source, assumption in _sources(app, target):
        writes = [stmt for stmt in source.statements() if stmt.is_db_write]
        for assertion in assertions:
            for stmt in writes:
                specs.append(
                    ObligationSpec(
                        target, assertion, source, assumption, "statement",
                        "statement", stmt, kwargs={"dirty_reads": True},
                    )
                )
            if writes:
                specs.append(
                    ObligationSpec(
                        target, assertion, source, assumption, "rollback", "rollback"
                    )
                )
    return specs


def _plan_units(app: Application, target: TransactionType, assertions: list) -> list:
    specs: list[ObligationSpec] = []
    for source, assumption in _sources(app, target):
        for assertion in assertions:
            specs.append(
                ObligationSpec(target, assertion, source, assumption, "unit", "unit")
            )
    return specs


def plan_read_committed(app: Application, target: TransactionType) -> list:
    """Theorem 2 plan."""
    assertions = [assertion for _stmt, assertion in read_post_assertions(target)]
    assertions += result_assertions(target)
    return _plan_units(app, target, assertions)


def plan_read_committed_fcw(app: Application, target: TransactionType) -> list:
    """Theorem 3 plan (see :func:`check_read_committed_fcw`)."""
    specs, _excused_count = _plan_fcw(app, target)
    return specs


def _plan_fcw(app: Application, target: TransactionType) -> tuple:
    protected = fcw_protected_reads(target)
    assertions = []
    excused_count = 0
    protected_targets: list = []
    for stmt, assertion in read_post_assertions(target):
        if id(stmt) in protected:
            excused_count += 1
            if isinstance(stmt, Read):
                protected_targets.append(stmt.source)
            continue
        assertions.append(assertion)
    assertions += result_assertions(target)
    specs: list[ObligationSpec] = []
    for source, assumption in _sources(app, target):
        for assertion in assertions:
            specs.append(
                ObligationSpec(
                    target, assertion, source, assumption, "unit", "unit-fcw",
                    kwargs={
                        "fcw_excuse": bool(protected_targets),
                        "fcw_targets": protected_targets,
                    },
                )
            )
    return specs, excused_count


def plan_repeatable_read(app: Application, target: TransactionType) -> list:
    """Theorem 6 plan (empty for conventional applications, Thm 4)."""
    if not app.is_relational:
        return []
    specs: list[ObligationSpec] = []
    selects = [
        (stmt, assertion)
        for stmt, assertion in read_post_assertions(target)
        if isinstance(stmt, (Select, SelectScalar, SelectCount))
    ]
    q_assertions = result_assertions(target)
    for source, assumption in _sources(app, target):
        for q_assertion in q_assertions:
            specs.append(
                ObligationSpec(target, q_assertion, source, assumption, "unit", "unit")
            )
        for read_stmt, assertion in selects:
            for write_stmt in (s for s in source.statements() if s.is_db_write):
                if isinstance(write_stmt, (Update, Delete)) and getattr(
                    write_stmt, "table", None
                ) == read_stmt.table:
                    if predicate_intersects(
                        read_stmt.where, read_stmt.row, write_stmt.where, write_stmt.row
                    ):
                        specs.append(
                            ObligationSpec(
                                target, assertion, source, assumption, "statement",
                                "select-vs-write", write_stmt,
                                excused="blocked by long tuple read locks (Thm 6 cond. 2)",
                            )
                        )
                        continue
                if not overlaps(assertion.formula.resources(), write_stmt.written_resources()):
                    specs.append(
                        ObligationSpec(
                            target, assertion, source, assumption, "statement",
                            "select-vs-write", write_stmt,
                            excused="disjoint footprint",
                        )
                    )
                    continue
                specs.append(
                    ObligationSpec(
                        target, assertion, source, assumption, "statement",
                        "select-vs-write", write_stmt,
                        kwargs={"dirty_reads": False},
                    )
                )
    return specs


def plan_snapshot(app: Application, target: TransactionType) -> list:
    """Theorem 5 plan."""
    assertions = [read_step_assertion(target)] + result_assertions(target)
    specs: list[ObligationSpec] = []
    for source, assumption in _sources(app, target):
        for assertion in assertions:
            specs.append(
                ObligationSpec(
                    target, assertion, source, assumption, "unit", "unit-fcw",
                    kwargs={"fcw_excuse": True},
                )
            )
    return specs


_PLANS = {}  # populated after the level check functions below


def plan_level(app: Application, target: TransactionType, level: str) -> list:
    """The obligation plan one level's theorem demands for one target.

    SERIALIZABLE (and conventional REPEATABLE READ) plans are empty.
    """
    if level not in _PLANS:
        raise AnalysisError(f"unknown isolation level {level!r}")
    return _PLANS[level](app, target)


# ---------------------------------------------------------------------------
# per-level checks
# ---------------------------------------------------------------------------


def check_read_uncommitted(
    app: Application, target: TransactionType, checker: InterferenceChecker,
) -> LevelCheckResult:
    """Theorem 1."""
    specs = plan_read_uncommitted(app, target)
    obligations = discharge(checker, specs)
    ok = all(ob.ok for ob in obligations)
    return LevelCheckResult(target.name, READ_UNCOMMITTED, ok, obligations)


def check_read_committed(
    app: Application, target: TransactionType, checker: InterferenceChecker,
) -> LevelCheckResult:
    """Theorem 2."""
    specs = plan_read_committed(app, target)
    obligations = discharge(checker, specs)
    ok = all(ob.ok for ob in obligations)
    return LevelCheckResult(target.name, READ_COMMITTED, ok, obligations)


def check_read_committed_fcw(
    app: Application, target: TransactionType, checker: InterferenceChecker,
) -> LevelCheckResult:
    """Theorem 3.

    Reads followed by a write of the same item are exempt, and — per the
    paper's remark after the theorem — the commit-time first-committer-wins
    check on those read-then-written items has the force of long read
    locks: a partner whose write set intersects them cannot commit around
    this transaction, so its interference with the remaining assertions is
    excused exactly as in Theorem 5's condition 1.
    """
    specs, excused_count = _plan_fcw(app, target)
    obligations = discharge(checker, specs)
    ok = all(ob.ok for ob in obligations)
    result = LevelCheckResult(target.name, READ_COMMITTED_FCW, ok, obligations)
    result.note = f"{excused_count} read(s) protected by first-committer-wins"
    return result


def check_repeatable_read(
    app: Application, target: TransactionType, checker: InterferenceChecker,
) -> LevelCheckResult:
    """Theorem 4 (conventional model) / Theorem 6 (relational model)."""
    if not app.is_relational:
        return LevelCheckResult(
            target.name,
            REPEATABLE_READ,
            True,
            trivially_correct=True,
            note="conventional model: REPEATABLE READ is serializable (Thm 4)",
        )
    specs = plan_repeatable_read(app, target)
    obligations = discharge(checker, specs)
    ok = all(ob.ok for ob in obligations)
    return LevelCheckResult(target.name, REPEATABLE_READ, ok, obligations)


def check_snapshot(
    app: Application, target: TransactionType, checker: InterferenceChecker,
) -> LevelCheckResult:
    """Theorem 5: K pairwise checks for this target (K² over the application)."""
    specs = plan_snapshot(app, target)
    obligations = discharge(checker, specs)
    ok = all(ob.ok for ob in obligations)
    return LevelCheckResult(target.name, SNAPSHOT, ok, obligations)


def check_serializable(
    app: Application, target: TransactionType, checker: InterferenceChecker,
) -> LevelCheckResult:
    return LevelCheckResult(
        target.name,
        SERIALIZABLE,
        True,
        trivially_correct=True,
        note="SERIALIZABLE schedules are serializable, hence semantically correct",
    )


_CHECKS = {
    READ_UNCOMMITTED: check_read_uncommitted,
    READ_COMMITTED: check_read_committed,
    READ_COMMITTED_FCW: check_read_committed_fcw,
    REPEATABLE_READ: check_repeatable_read,
    SNAPSHOT: check_snapshot,
    SERIALIZABLE: check_serializable,
}

_PLANS.update(
    {
        READ_UNCOMMITTED: plan_read_uncommitted,
        READ_COMMITTED: plan_read_committed,
        READ_COMMITTED_FCW: plan_read_committed_fcw,
        REPEATABLE_READ: plan_repeatable_read,
        SNAPSHOT: plan_snapshot,
        SERIALIZABLE: lambda app, target: [],
    }
)


def check_transaction_at(
    app: Application,
    target: TransactionType,
    level: str,
    checker: InterferenceChecker | None = None,
) -> LevelCheckResult:
    """Check one transaction type of an application at one isolation level."""
    if level not in _CHECKS:
        raise AnalysisError(f"unknown isolation level {level!r}")
    if checker is None:
        checker = InterferenceChecker(app.spec)
    return _CHECKS[level](app, target, checker)


# ---------------------------------------------------------------------------
# obligation counting (the paper's analysis-cost claim, Section 2)
# ---------------------------------------------------------------------------


def naive_triple_count(app: Application) -> int:
    """The Owicki–Gries cost with no isolation information: ``(KN)²``.

    Every statement of every transaction against every control-point
    assertion of every transaction (the paper counts assertions one per
    statement).
    """
    total_statements = sum(len(txn.statements()) for txn in app.transactions)
    return total_statements * total_statements


def obligation_count(app: Application, target: TransactionType, level: str) -> int:
    """How many non-interference triples the level's theorem demands.

    Counts without discharging anything (no prover or model checking runs),
    so the E1 bench can chart the reduction per level.
    """
    k = len(app.transactions)
    reads = len(target.read_statements())
    if level == READ_UNCOMMITTED:
        assertions = 1 + reads + 1  # I_i, read posts, Q_i
        write_stmts = sum(len(txn.write_statements()) for txn in app.transactions)
        rollbacks = sum(1 for txn in app.transactions if txn.write_statements())
        return assertions * (write_stmts + rollbacks)
    if level == READ_COMMITTED:
        return (reads + 1) * k
    if level == READ_COMMITTED_FCW:
        protected = len(fcw_protected_reads(target))
        return (reads - protected + 1) * k
    if level == REPEATABLE_READ:
        if not app.is_relational:
            return 0
        selects = sum(
            1
            for stmt in target.read_statements()
            if isinstance(stmt, (Select, SelectScalar, SelectCount))
        )
        write_stmts = sum(len(txn.write_statements()) for txn in app.transactions)
        return k + selects * write_stmts
    if level == SNAPSHOT:
        return 2 * k  # read-step post and Q_i, per partner type: K² app-wide
    if level == SERIALIZABLE:
        return 0
    raise AnalysisError(f"unknown isolation level {level!r}")
