"""Static annotation inference for unannotated transaction programs.

Every analysis layer of this repository — the chooser, the SDG, the
certifier — consumes the paper's specification triple ``(I_i, B_i, Q_i)``
plus per-read postconditions.  This module derives those annotations from
the transaction *programs alone*, in three passes:

1. **Strongest-postcondition rollout** (:func:`repro.core.sp.annotate_paths`)
   pushes an entry assertion through every execution path of the body.
   Per-path finals are merged by disjunction into a candidate ``Q_i``;
   conjuncts that mention transaction-local ghosts that could not be
   eliminated, or database resources the path never touched, are weakened
   to ``TRUE`` (dropped) — sp is inexact for relational statements and
   unbounded loops, and a sound ``Q_i`` must not over-claim.

2. **Invariant synthesis from footprint templates.**  Candidate consistency
   conjuncts are mined from the static structure of the program: guard
   comparisons lift to sum lower bounds over the read resources,
   decremented fields propose non-negativity, counter updates propose
   count-link invariants, guarded inserts propose key uniqueness, and
   monotone-item inserts propose date/ceiling bounds.  Candidates are
   scored against the SDG footprints of :mod:`repro.core.sdg`: a candidate
   attaches to a transaction only when the transaction writes resources the
   candidate mentions, or relies on it through its reads.

3. **Counterexample-guided refinement (CEGIS).**  The oracle
   (:func:`invariant_oracle`) runs every serial order of small instance
   sets from candidate-satisfying initial states; any candidate violated
   by a serial run's final state is *demoted* (it is not preserved by the
   transactions, hence not an invariant) and the loop re-runs until a
   fixpoint.

Soundness caveats (see ``docs/INFERENCE.md``): the templates are
heuristics — surviving CEGIS over a finite domain is evidence, not proof;
inference cannot distinguish business-rule variants that share a program
text (the paper's *no gaps* vs *one order per day* discussion); and
``TRUE``-weakened results under-constrain, so inferred levels are a lower
bound on what stronger hand annotations may demand.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace

from repro.core.application import Application
from repro.core.conditions import canonical_read_post, conjuncts_of
from repro.core.formula import (
    AbstractPred,
    And,
    Cmp,
    CountWhere,
    Formula,
    ForAllRows,
    RowAttr,
    TRUE,
    conj,
    disj,
    eq,
    ge,
    le,
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
    TransactionType,
    Update,
    While,
    Write,
)
from repro.core.resources import Resource, overlaps
from repro.core.sp import annotate_paths
from repro.core.terms import (
    Add,
    Field,
    IntConst,
    Item,
    Local,
    LogicalVar,
    Mul,
    Param,
    Sub,
    Term,
)
from repro.errors import AnalysisError

_READ_KINDS = (Read, ReadRecord, Select, SelectScalar, SelectCount)


# ---------------------------------------------------------------------------
# annotation stripping
# ---------------------------------------------------------------------------


def _strip_statement(stmt):
    """A copy of ``stmt`` with every postcondition annotation removed."""
    if isinstance(stmt, If):
        return replace(
            stmt,
            then=tuple(_strip_statement(s) for s in stmt.then),
            orelse=tuple(_strip_statement(s) for s in stmt.orelse),
        )
    if isinstance(stmt, While):
        return replace(stmt, body=tuple(_strip_statement(s) for s in stmt.body))
    if isinstance(stmt, ForEach):
        return replace(stmt, body=tuple(_strip_statement(s) for s in stmt.body))
    if hasattr(stmt, "post"):
        return replace(stmt, post=None)
    return stmt


def strip_annotations(app: Application) -> Application:
    """The raw program: bodies kept, every specification annotation removed.

    Domains (:class:`~repro.core.domains.DomainSpec`) and concurrency
    ``assumptions`` are *application facts*, not per-transaction
    annotations, and are preserved — they describe the environment the
    program runs in, which inference may rely on.
    """
    stripped = tuple(
        TransactionType(
            name=txn.name,
            params=txn.params,
            body=tuple(_strip_statement(s) for s in txn.body),
        )
        for txn in app.transactions
    )
    return Application(
        name=app.name,
        transactions=stripped,
        spec=app.spec,
        description=app.description,
        assumptions=dict(app.assumptions),
    )


# ---------------------------------------------------------------------------
# dataflow: load-bearing locals
# ---------------------------------------------------------------------------


def _term_locals(term: Term) -> set:
    return {atom for atom in term.atoms() if isinstance(atom, Local)}


def _term_resources(term: Term) -> frozenset:
    """Database resources a bare term denotes (terms carry no .resources)."""
    return eq(term, term).resources()


def _formula_locals(formula: Formula) -> set:
    return {atom for atom in formula.atoms() if isinstance(atom, Local)}


def load_bearing_locals(txn: TransactionType) -> set:
    """Locals whose values flow into a database write or a control guard.

    Reads binding only non-load-bearing locals are *output-only*: their
    values leave the transaction without influencing the database, so their
    postconditions may be weak (Theorem 1's READ UNCOMMITTED discussion).
    """
    seeds: set = set()
    deps: dict = {}  # local -> locals it is computed from

    def depend(into: Local, sources: set) -> None:
        deps.setdefault(into, set()).update(sources)

    for _path, stmt in txn.walk():
        if isinstance(stmt, Write):
            seeds |= _term_locals(stmt.value) | _term_locals(stmt.target)
        elif isinstance(stmt, Update):
            seeds |= _formula_locals(stmt.where)
            for _attr, term in stmt.sets:
                seeds |= _term_locals(term)
        elif isinstance(stmt, Insert):
            for _attr, term in stmt.values:
                seeds |= _term_locals(term)
        elif isinstance(stmt, Delete):
            seeds |= _formula_locals(stmt.where)
        elif isinstance(stmt, (If, While)):
            seeds |= _formula_locals(stmt.cond)
        elif isinstance(stmt, LocalAssign):
            depend(stmt.into, _term_locals(stmt.value))
        elif isinstance(stmt, Read):
            depend(stmt.into, _term_locals(stmt.source))
        elif isinstance(stmt, ReadRecord):
            for _attr, local in stmt.binds:
                depend(local, _term_locals(stmt.index))
        elif isinstance(stmt, (Select, SelectScalar, SelectCount)):
            depend(stmt.into, _formula_locals(stmt.where))
        if isinstance(stmt, ForEach):
            for _attr, local in stmt.bind:
                depend(local, {stmt.buffer})

    changed = True
    while changed:
        changed = False
        for local, sources in deps.items():
            if local in seeds and not sources <= seeds:
                seeds |= sources
                changed = True
    return seeds


# ---------------------------------------------------------------------------
# monotonicity of scalar resources
# ---------------------------------------------------------------------------


def _scalar_key(term: Term):
    """Index-insensitive identity of a scalar database term."""
    if isinstance(term, Item):
        return ("item", term.name)
    if isinstance(term, Field):
        return ("field", term.array, term.attr)
    return None


def _read_sources(txn: TransactionType) -> dict:
    """Map each local to the database term its value was read from."""
    sources: dict = {}
    for _path, stmt in txn.walk():
        if isinstance(stmt, Read):
            sources[stmt.into] = stmt.source
        elif isinstance(stmt, ReadRecord):
            for attr, local in stmt.binds:
                sources[local] = Field(stmt.array, stmt.index, attr, local.var_sort)
    return sources


def _nonneg_values(app: Application, term: Term) -> bool:
    """All domain values of a param/const term are known non-negative."""
    if isinstance(term, IntConst):
        return term.value >= 0
    if isinstance(term, Param) and app.spec is not None:
        name = getattr(term, "name", None)
        if name in app.spec.var_domains:
            values = app.spec.var_domains[name]
            return all(isinstance(v, int) and v >= 0 for v in values)
    return False


def scalar_trends(app: Application) -> dict:
    """Per scalar resource: ``"inc"``, ``"dec"`` or ``"mixed"`` write trend.

    A write is an *increase* when its value is ``local + k`` for a local
    read from the same resource and a provably non-negative ``k``; a
    *decrease* is ``local - k``.  Anything else (constant stores, cross-
    resource arithmetic) makes the trend ``"mixed"`` — no weakening then.
    """
    trends: dict = {}
    for txn in app.transactions:
        sources = _read_sources(txn)
        for _path, stmt in txn.walk():
            if not isinstance(stmt, Write):
                continue
            key = _scalar_key(stmt.target)
            if key is None:
                continue
            kind = "mixed"
            value = stmt.value
            pair = None
            if isinstance(value, Add):
                pair = [(value.left, value.right), (value.right, value.left)]
                direction = "inc"
            elif isinstance(value, Sub):
                pair = [(value.left, value.right)]
                direction = "dec"
            if pair is not None:
                for local, delta in pair:
                    if (
                        isinstance(local, Local)
                        and _scalar_key(sources.get(local, IntConst(0))) == key
                        and _nonneg_values(app, delta)
                    ):
                        kind = direction
                        break
            previous = trends.get(key)
            trends[key] = kind if previous in (None, kind) else "mixed"
    return trends


# ---------------------------------------------------------------------------
# invariant candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One template-synthesised consistency conjunct.

    ``formula`` may mention transaction parameters (e.g. the account index
    ``i``); :meth:`holds` enumerates their domain values so the formula can
    be evaluated against a concrete database state.
    """

    name: str
    formula: Formula
    template: str

    def resources(self) -> frozenset:
        return self.formula.resources()

    def free_params(self) -> tuple:
        return tuple(
            sorted(
                {a for a in self.formula.atoms() if isinstance(a, Param)},
                key=lambda p: p.name,
            )
        )

    def holds(self, state, spec) -> bool:
        params = self.free_params()
        if not params:
            try:
                return bool(self.formula.evaluate(state, {}))
            except Exception:
                return False
        pools = [spec.values_for(p) if spec else (0, 1) for p in params]
        for combo in itertools.product(*pools):
            env = dict(zip(params, combo))
            try:
                if not self.formula.evaluate(state, env):
                    return False
            except Exception:
                return False
        return True


def _guard_candidates(app: Application, txn: TransactionType) -> list:
    """Sum/lower-bound invariants mined from conditional guards.

    A guard ``e >= k`` over locals read from database resources, with ``k``
    a non-negative parameter or constant, proposes ``e[locals→resources]
    >= 0``: the transaction itself checks the bound before decrementing,
    which is exactly the shape that preserves the database-level version.
    """
    out = []
    sources = _read_sources(txn)
    for _path, stmt in txn.walk():
        if not isinstance(stmt, (If, While)):
            continue
        for part in conjuncts_of(stmt.cond):
            if not isinstance(part, Cmp) or part.op not in (">=", ">"):
                continue
            expr, bound = part.left, part.right
            if not _nonneg_values(app, bound):
                continue
            expr_locals = _term_locals(expr)
            if not expr_locals or not expr_locals <= set(sources):
                continue
            lifted = expr.substitute({l: sources[l] for l in expr_locals})
            if not _term_resources(lifted):
                continue
            out.append(
                Candidate(
                    name=f"guard-lb[{lifted!r}>=0]",
                    formula=ge(lifted, IntConst(0)),
                    template="guard-lower-bound",
                )
            )
    return out


def _decrement_candidates(app: Application, txn: TransactionType) -> list:
    """Non-negativity of every decremented scalar resource."""
    out = []
    sources = _read_sources(txn)
    for _path, stmt in txn.walk():
        if not isinstance(stmt, Write) or not isinstance(stmt.value, Sub):
            continue
        key = _scalar_key(stmt.target)
        if key is None or stmt.target.sort != "int":
            continue
        out.append(
            Candidate(
                name=f"nonneg[{stmt.target!r}]",
                formula=ge(stmt.target, IntConst(0)),
                template="nonneg-decremented",
            )
        )
    return out


def _final_value_map(txn: TransactionType) -> dict:
    """Per (array) record: attr -> final symbolic value over locals/params.

    Read binds contribute their locals (the attribute's value at read
    time); writes overwrite with their symbolic value.  Only straight-line
    conventional statements participate — a guard or loop in between
    poisons the record (removed from the map).
    """
    records: dict = {}  # (array, index term) -> {attr: term}
    poisoned: set = set()
    for stmt in txn.body:
        if isinstance(stmt, ReadRecord):
            slot = records.setdefault((stmt.array, stmt.index), {})
            for attr, local in stmt.binds:
                slot.setdefault(attr, local)
        elif isinstance(stmt, Read) and isinstance(stmt.source, Field):
            f = stmt.source
            slot = records.setdefault((f.array, f.index), {})
            slot.setdefault(f.attr, stmt.into)
        elif isinstance(stmt, Write) and isinstance(stmt.target, Field):
            f = stmt.target
            slot = records.setdefault((f.array, f.index), {})
            slot[f.attr] = stmt.value
        elif isinstance(stmt, (If, While, ForEach)):
            poisoned |= set(records)
    return {key: attrs for key, attrs in records.items() if key not in poisoned}


def _record_equality_candidates(app: Application, txn: TransactionType) -> list:
    """Record-local arithmetic invariants re-established by the writes.

    When the final symbolic values of three attributes of one record
    satisfy ``c = a * b`` (or ``a + b``) by construction, the transaction
    unconditionally re-establishes that relation — the ``I_sal`` shape of
    the paper's Example 2.
    """
    out = []
    for (array, index), finals in _final_value_map(txn).items():
        attrs = sorted(finals)
        written = {
            _scalar_key(s.target)
            for s in txn.write_statements()
            if isinstance(s, Write)
        }
        if not any(("field", array, attr) in written for attr in attrs):
            continue
        for a, b, c in itertools.permutations(attrs, 3):
            # ordered: Mul/Add commute semantically but hash-cons by operand
            # order, so the matched orientation is the one emitted
            for op, tag in ((Mul, "*"), (Add, "+")):
                try:
                    combined = op(finals[a], finals[b])
                except Exception:
                    continue
                if combined is finals[c] or combined == finals[c]:
                    fa = Field(array, index, a)
                    fb = Field(array, index, b)
                    fc = Field(array, index, c)
                    out.append(
                        Candidate(
                            name=f"record-eq[{array}.{c}={a}{tag}{b}]",
                            formula=eq(op(fa, fb), fc),
                            template="record-equality",
                        )
                    )
    return out


def _counter_link_candidates(app: Application, txn: TransactionType) -> list:
    """Counter attributes maintained as row counts of another table.

    Shape: ``SELECT COUNT(T_o WHERE key_attr = p) INTO n`` followed by an
    ``UPDATE T_c SET cnt_attr = n + 1 WHERE link_attr = p`` (and typically
    an ``INSERT`` with ``cnt_attr = 1`` on the zero branch) — the
    *order consistency* shape of the paper's Section 6.
    """
    out = []
    counts: dict = {}  # local -> (table, key_attr, key term)
    for _path, stmt in txn.walk():
        if isinstance(stmt, SelectCount):
            keyed = _single_key(stmt.where, stmt.row)
            if keyed is not None:
                counts[stmt.into] = (stmt.table, *keyed)
        elif isinstance(stmt, Update):
            keyed = _single_key(stmt.where, stmt.row)
            if keyed is None:
                continue
            link_attr, key = keyed
            for attr, value in stmt.sets:
                if not isinstance(value, Add):
                    continue
                for local in (value.left, value.right):
                    info = counts.get(local)
                    if info is None or info[2] != key:
                        continue
                    count_table, count_attr, _key = info
                    formula = ForAllRows(
                        stmt.table,
                        "ic",
                        eq(
                            RowAttr("ic", attr),
                            CountWhere(
                                count_table,
                                "io",
                                eq(RowAttr("io", count_attr), RowAttr("ic", link_attr)),
                            ),
                        ),
                    )
                    out.append(
                        Candidate(
                            name=f"counter-link[{stmt.table}.{attr}=#{count_table}]",
                            formula=formula,
                            template="counter-link",
                        )
                    )
    return out


def _single_key(where: Formula, row: str):
    """``attr = key`` when the predicate is a single row-keyed equality."""
    parts = conjuncts_of(where)
    if len(parts) != 1 or not isinstance(parts[0], Cmp) or parts[0].op != "==":
        return None
    left, right = parts[0].left, parts[0].right
    for attr_side, key_side in ((left, right), (right, left)):
        if isinstance(attr_side, RowAttr) and attr_side.row == row:
            if not isinstance(key_side, RowAttr):
                return attr_side.attr, key_side
    return None


def _insert_candidates(app: Application, txn: TransactionType) -> list:
    """Uniqueness and ceiling invariants proposed by INSERT statements.

    * an insert of ``key_attr = p`` guarded (directly or via a counter) by
      "no matching row yet" proposes key uniqueness over the target table;
    * an inserted attribute equal to the final value of a monotone item
      proposes that the item bounds the attribute across the table.
    """
    out = []
    trends = scalar_trends(app)
    # final symbolic values of written monotone items in this transaction
    item_finals: dict = {}
    for stmt in txn.write_statements():
        if isinstance(stmt, Write) and isinstance(stmt.target, Item):
            if trends.get(_scalar_key(stmt.target)) == "inc":
                item_finals[stmt.value] = stmt.target
    zero_counts: set = set()  # (table, attr) counted to zero under a guard
    for _path, stmt in txn.walk():
        if isinstance(stmt, SelectCount):
            keyed = _single_key(stmt.where, stmt.row)
            if keyed is not None and isinstance(keyed[1], Param):
                zero_counts.add((stmt.table, keyed[0], keyed[1], stmt.into))
    for _path, stmt in txn.walk():
        if not isinstance(stmt, Insert):
            continue
        for attr, value in stmt.values:
            if isinstance(value, Param) and any(
                param is value for _t, _a, param, _l in zero_counts
            ):
                formula = ForAllRows(
                    stmt.table,
                    "u1",
                    eq(
                        CountWhere(
                            stmt.table,
                            "u2",
                            eq(RowAttr("u2", attr, value.sort), RowAttr("u1", attr, value.sort)),
                        ),
                        1,
                    ),
                )
                out.append(
                    Candidate(
                        name=f"unique-key[{stmt.table}.{attr}]",
                        formula=formula,
                        template="unique-inserted-key",
                    )
                )
            bound_item = item_finals.get(value)
            if bound_item is not None:
                out.append(
                    Candidate(
                        name=f"ceiling[{stmt.table}.{attr}<={bound_item!r}]",
                        formula=ForAllRows(
                            stmt.table, "m1", le(RowAttr("m1", attr), bound_item)
                        ),
                        template="monotone-ceiling",
                    )
                )
    return out


def synthesize_candidates(app: Application) -> list:
    """All template candidates over the application, deduplicated."""
    seen: dict = {}
    for txn in app.transactions:
        for candidate in (
            _guard_candidates(app, txn)
            + _decrement_candidates(app, txn)
            + _record_equality_candidates(app, txn)
            + _counter_link_candidates(app, txn)
            + _insert_candidates(app, txn)
        ):
            seen.setdefault(candidate.formula, candidate)
    return sorted(seen.values(), key=lambda c: c.name)


# ---------------------------------------------------------------------------
# CEGIS refinement against the serial oracle
# ---------------------------------------------------------------------------


@dataclass
class CegisTrace:
    """What the refinement loop did, for the report.

    ``schedules`` counts the serial runs the oracle checked (one per
    order of each instance set).
    """

    rounds: int = 0
    schedules: int = 0
    demoted: list = field(default_factory=list)  # (candidate name, reason)


def invariant_oracle(initial, specs: list, predicates: dict) -> tuple:
    """Check candidate invariants on every serial order of ``specs``.

    ``predicates`` maps candidate names to ``final_state -> bool``
    callables.  Each order (in :func:`itertools.permutations` order) runs
    once, alone, from ``initial``; its final state is checked against every
    still-standing predicate, and a predicate that fails (or raises) is
    *violated* — the run is a counterexample showing the instance set does
    not preserve the candidate.  This is exact at SERIALIZABLE: under the
    SER axiom of :mod:`repro.sched.isolation` every read is served by the
    state just before its transaction's commit, so any SERIALIZABLE
    interleaving ends in the serial final state of its commit order.

    Returns ``({name: witness}, runs)``, ``witness`` being the committed
    instance labels of the falsifying run in commit order.
    """
    from repro.sched.policy import SerialPolicy
    from repro.sched.simulator import Simulator

    violations: dict = {}
    standing = dict(predicates)
    runs = 0
    for order in itertools.permutations(range(len(specs))):
        result = Simulator(
            initial.copy(), specs, retry=True, max_steps=20_000, policy=SerialPolicy(order)
        ).run()
        runs += 1
        for name in list(standing):
            try:
                ok = standing[name](result.final)
            except Exception:
                ok = False
            if not ok:
                violations[name] = tuple(outcome.name for outcome in result.committed)
                del standing[name]
    return violations, runs


def _instance_pool(app: Application, rng: random.Random, cap_per_type: int) -> list:
    from repro.sched.simulator import InstanceSpec

    pool = []
    for txn in app.transactions:
        pools = [
            list(app.spec.values_for(p)) if app.spec is not None else [0, 1]
            for p in txn.params
        ]
        combos = list(itertools.product(*pools))
        rng.shuffle(combos)
        for combo in combos[:cap_per_type]:
            args = {p.name: v for p, v in zip(txn.params, combo)}
            pool.append(InstanceSpec(txn_type=txn, args=args, level="SERIALIZABLE"))
    return pool


def refine_candidates(
    app: Application,
    candidates: list,
    *,
    seed: int = 0,
    state_cap: int = 8,
    pair_cap: int = 14,
    max_rounds: int = 6,
) -> tuple:
    """Demote candidates violated by serial runs of small instance sets.

    Initial states are drawn from the application's domain spec, filtered
    to states satisfying every *surviving* candidate — the CEGIS contract:
    an invariant must be preserved from any state where it holds.  Returns
    ``(surviving candidates, CegisTrace)``.
    """
    trace = CegisTrace()
    if app.spec is None or not candidates:
        return list(candidates), trace
    alive = list(candidates)
    for round_index in range(max_rounds):
        trace.rounds = round_index + 1
        rng = random.Random((seed, round_index, 0x1F3).__hash__())
        qualifying = []
        for state in app.spec.iter_states(4096, rng):
            if all(c.holds(state, app.spec) for c in alive):
                qualifying.append(state)
            if len(qualifying) >= 64 * state_cap:
                break
        states = (
            rng.sample(qualifying, state_cap)
            if len(qualifying) > state_cap
            else qualifying
        )
        unsatisfiable = [c for c in alive if states == []]
        if unsatisfiable:
            for candidate in alive:
                trace.demoted.append((candidate.name, "unsatisfiable in domain"))
            return [], trace
        pool = _instance_pool(app, rng, cap_per_type=4)
        duos = [(a, b) for a in pool for b in pool if a is not b]
        rng.shuffle(duos)
        instance_sets = [[spec] for spec in pool] + [list(d) for d in duos[:pair_cap]]
        demoted_now: set = set()
        for state in states:
            for specs in instance_sets:
                predicates = {
                    c.name: (lambda final, c=c: c.holds(final, app.spec))
                    for c in alive
                    if c.name not in demoted_now
                }
                if not predicates:
                    break
                violations, runs = invariant_oracle(state, specs, predicates)
                trace.schedules += runs
                for name, witness in violations.items():
                    demoted_now.add(name)
                    trace.demoted.append((name, witness))
        if not demoted_now:
            break
        alive = [c for c in alive if c.name not in demoted_now]
    return alive, trace


# ---------------------------------------------------------------------------
# per-transaction annotation derivation
# ---------------------------------------------------------------------------


def _exact_overlap(a: Resource, b: Resource) -> bool:
    """Same-granule overlap: membership matches membership, attr matches attr.

    :func:`repro.core.resources.overlaps` lets a membership resource
    (``<rows>``) clash with every attribute of its table — sound for
    interference, but too coarse for *attachment*: a transaction that only
    updates ``ORDERS.done`` cannot break a quantifier's row set, so a
    row-membership candidate resource must not attach through it.
    """
    from repro.core.resources import ArrayResource, TableResource

    if isinstance(a, TableResource) and isinstance(b, TableResource):
        return a.table == b.table and a.attr == b.attr
    if isinstance(a, ArrayResource) and isinstance(b, ArrayResource):
        return a.array == b.array and (
            a.attr is None or b.attr is None or a.attr == b.attr
        )
    return overlaps((a,), (b,))


def _attach_candidates(txn: TransactionType, candidates: list) -> list:
    """Candidates this transaction relies on or must preserve (SDG score).

    A candidate attaches when the transaction *writes* a granule the
    candidate constrains (it must re-establish the conjunct), or when the
    transaction observes the *relation* the candidate states rather than a
    single granule of it: at least two read statements together covering
    two or more distinct resources the candidate links (the ``Audit``
    shape, where the outputs of separate reads are only mutually
    consistent because the conjunct ties them together), or one record
    read covering two or more of those resources by itself (the
    ``Print_Record`` shape — a multi-attribute ``ReadRecord`` whose bound
    values are only mutually consistent under the conjunct).  Reads that
    only ever observe a single candidate granule do not attach — even
    repeatedly (``StockLevel`` polls the same stock quantity twice): each
    output stands alone, needs no cross-granule consistency, and an
    attached ``I_i`` would manufacture interference obligations the
    transaction never relies on.
    """
    writes = txn.written_resources()
    reads = [
        stmt.read_resources()
        for stmt in txn.statements()
        if isinstance(stmt, _READ_KINDS)
    ]
    record_reads = [
        stmt.read_resources()
        for stmt in txn.statements()
        if isinstance(stmt, ReadRecord)
    ]

    def covered(resources, read) -> set:
        return {c for c in resources if any(_exact_overlap(c, r) for r in read)}

    out = []
    for candidate in candidates:
        resources = candidate.resources()
        if not resources:
            continue
        covering = [r for r in reads if overlaps(resources, r)]
        if any(_exact_overlap(c, w) for c in resources for w in writes):
            out.append(candidate)
        elif (
            len(covering) >= 2
            and len(set().union(*(covered(resources, r) for r in covering))) >= 2
        ):
            out.append(candidate)
        elif any(len(covered(resources, read)) >= 2 for read in record_reads):
            out.append(candidate)
    return out


def _param_ceiling_extras(txn: TransactionType, survivors: list) -> list:
    """Per-transaction consistency facts transferring a ceiling to a param.

    When the transaction selects rows with ``attr == p`` and a surviving
    ceiling candidate bounds ``T.attr`` by item ``X``, the parameter
    inherits the bound: any row the query can match satisfies ``p <= X``.
    The fact is stable under interference — the ceiling's item only grows —
    and it is what lets the checker exclude phantom inserts whose ``attr``
    exceeds the bound (the paper's ``Delivery`` at REPEATABLE READ).
    """
    extras = []
    ceilings = []
    for candidate in survivors:
        if candidate.template != "monotone-ceiling":
            continue
        quantifier = candidate.formula
        body = quantifier.body
        if isinstance(body, Cmp) and body.op == "<=" and isinstance(body.left, RowAttr):
            ceilings.append((quantifier.table, body.left.attr, body.right))
    if not ceilings:
        return extras
    for _path, stmt in txn.walk():
        if not isinstance(stmt, (Select, SelectScalar, SelectCount)):
            continue
        for part in conjuncts_of(stmt.where):
            if not (isinstance(part, Cmp) and part.op == "=="):
                continue
            for attr_side, key_side in ((part.left, part.right), (part.right, part.left)):
                if (
                    isinstance(attr_side, RowAttr)
                    and attr_side.row == stmt.row
                    and isinstance(key_side, Param)
                ):
                    for table, attr, bound in ceilings:
                        if table == stmt.table and attr == attr_side.attr:
                            extras.append(le(key_side, bound))
    return extras


def _param_preconditions(app: Application, txn: TransactionType) -> Formula:
    """``B_i`` from parameter templates: non-negativity of arithmetic params.

    Only parameters used *arithmetically* (inside ``+``/``-``) qualify —
    index and key parameters carry no numeric contract — and only when the
    declared domain confirms non-negativity.
    """
    arithmetic: set = set()

    def scan_term(term: Term) -> None:
        if isinstance(term, (Add, Sub)):
            for side in (term.left, term.right):
                if isinstance(side, Param) and side.sort == "int":
                    arithmetic.add(side)
                scan_term(side)
        elif isinstance(term, Mul):
            scan_term(term.left)
            scan_term(term.right)

    for _path, stmt in txn.walk():
        if isinstance(stmt, Write):
            scan_term(stmt.value)
        elif isinstance(stmt, LocalAssign):
            scan_term(stmt.value)
        elif isinstance(stmt, Update):
            for _attr, term in stmt.sets:
                scan_term(term)
        elif isinstance(stmt, Insert):
            for _attr, term in stmt.values:
                scan_term(term)
        elif isinstance(stmt, (If, While)):
            for part in conjuncts_of(stmt.cond):
                if isinstance(part, Cmp):
                    scan_term(part.left)
                    scan_term(part.right)
    bounds = [
        ge(param, IntConst(0))
        for param in sorted(arithmetic, key=lambda p: p.name)
        if _nonneg_values(app, param)
    ]
    return conj(*bounds)


def _project_candidate(candidate: Candidate, stmt: ReadRecord):
    """Project a record-local candidate onto the locals of one ReadRecord.

    Substituting every field of the candidate by the local it was read
    into yields a *workspace-only* postcondition (the printed values are
    mutually consistent — the paper's ``Print_Record``); projection fails
    when the read does not bind every field the candidate mentions.
    """
    mapping = {}
    for attr, local in stmt.binds:
        mapping[Field(stmt.array, stmt.index, attr, local.var_sort)] = local
    params = candidate.free_params()
    if len(params) == 1 and isinstance(stmt.index, (Param, Local, IntConst)):
        # re-index the candidate at this read's index before projecting
        reindexed = candidate.formula.substitute({params[0]: stmt.index})
    elif params:
        return None
    else:
        reindexed = candidate.formula
    projected = reindexed.substitute(mapping)
    if projected.resources():
        return None
    return projected


def _monotone_post(trend: str, into: Local, source: Term) -> Formula:
    if trend == "inc":
        return le(into, source)
    if trend == "dec":
        return ge(into, source)
    return eq(into, source)


def _cross_read_pairs(txn: TransactionType, candidates: list) -> set:
    """Output-only read statements linked through one invariant candidate.

    When two *separate* read statements overlap a common candidate, their
    outputs form a distributed snapshot whose mutual consistency is exactly
    the candidate — each read then needs its strong canonical post (the
    ``Audit`` shape: tuple locks cannot protect it, phantoms break it).
    """
    linked: set = set()
    reads = [
        (path, stmt)
        for path, stmt in txn.walk()
        if isinstance(stmt, _READ_KINDS)
    ]
    for candidate in candidates:
        resources = candidate.resources()
        touching = [
            path
            for path, stmt in reads
            if overlaps(resources, stmt.read_resources())
        ]
        if len(touching) >= 2:
            linked |= set(touching)
    return linked


def _infer_read_posts(
    app: Application,
    txn: TransactionType,
    attached: list,
    trends: dict,
) -> dict:
    """Map statement path -> inferred postcondition for every read."""
    bearing = load_bearing_locals(txn)
    posts: dict = {}
    cross_linked = _cross_read_pairs(txn, attached)
    record_candidates = [c for c in attached if c.template == "record-equality"]
    for path, stmt in txn.walk():
        if not isinstance(stmt, _READ_KINDS):
            continue
        if isinstance(stmt, Read):
            if stmt.into in bearing:
                trend = trends.get(_scalar_key(stmt.source), "mixed")
                if stmt.source.sort == "int":
                    posts[path] = _monotone_post(trend, stmt.into, stmt.source)
                else:
                    posts[path] = eq(stmt.into, stmt.source)
            else:
                projected = [
                    ge(stmt.into, IntConst(0))
                    for c in attached
                    if c.template == "nonneg-decremented"
                    and c.resources() == _term_resources(stmt.source)
                ]
                posts[path] = conj(*projected) if projected else TRUE
        elif isinstance(stmt, ReadRecord):
            bound = [local for _attr, local in stmt.binds]
            if any(local in bearing for local in bound):
                parts = []
                for attr, local in stmt.binds:
                    source = Field(stmt.array, stmt.index, attr, local.var_sort)
                    trend = trends.get(_scalar_key(source), "mixed")
                    if local.var_sort == "int":
                        parts.append(_monotone_post(trend, local, source))
                    else:
                        parts.append(eq(local, source))
                posts[path] = conj(*parts)
            else:
                projections = []
                for candidate in record_candidates:
                    projected = _project_candidate(candidate, stmt)
                    if projected is not None:
                        projections.append(projected)
                posts[path] = conj(*projections) if projections else TRUE
        else:  # relational reads
            if stmt.into in bearing or path in cross_linked:
                posts[path] = canonical_read_post(stmt)
            else:
                posts[path] = TRUE
    return posts


def _with_posts(body, posts: dict):
    """Rebuild a body with inferred posts attached at the recorded paths."""
    return _rebuild_children(body, posts, (), 0)


def _rebuild_children(children, posts: dict, parent, offset: int):
    rebuilt = []
    for position, child in enumerate(children):
        path = parent + (offset + position,)
        if isinstance(child, If):
            then_count = len(child.then)
            child = replace(
                child,
                then=_rebuild_children(child.then, posts, path, 0),
                orelse=_rebuild_children(child.orelse, posts, path, then_count),
            )
        elif isinstance(child, (While, ForEach)):
            child = replace(child, body=_rebuild_children(child.body, posts, path, 0))
        elif path in posts and hasattr(child, "post"):
            post = posts[path]
            if post is TRUE and not isinstance(child, _READ_KINDS):
                post = None
            # reads keep an explicit TRUE: a None post makes the checker
            # substitute the strong canonical form, which an output-only
            # read neither needs nor (below SERIALIZABLE) survives
            child = replace(child, post=post)
        rebuilt.append(child)
    return tuple(rebuilt)


# -- snapshot synthesis and Q_i rollout -------------------------------------


def _snapshot_terms(txn: TransactionType) -> list:
    """Deterministically named logical vars for every touched scalar term."""
    terms: list = []
    seen: set = set()
    for _path, stmt in txn.walk():
        candidates = []
        if isinstance(stmt, Read):
            candidates.append(stmt.source)
        elif isinstance(stmt, ReadRecord):
            for attr, local in stmt.binds:
                candidates.append(Field(stmt.array, stmt.index, attr, local.var_sort))
        elif isinstance(stmt, Write):
            candidates.append(stmt.target)
        for term in candidates:
            key = _scalar_key(term)
            if key is None or term in seen:
                continue
            seen.add(term)
            base = "_".join(str(part) for part in key[1:]).upper()
            terms.append((LogicalVar(f"{base}0", term.sort), term))
    return terms


def _eliminable(term: Term) -> bool:
    return isinstance(term, Local) or (
        isinstance(term, LogicalVar) and "!" in term.name
    )


def _resolve_ghosts(parts: list) -> list:
    """Rewrite locals and sp ghosts into snapshot logicals via equalities."""
    mapping: dict = {}
    progress = True
    while progress:
        progress = False
        for part in parts:
            resolved = part.substitute(mapping) if mapping else part
            if not (isinstance(resolved, Cmp) and resolved.op == "=="):
                continue
            for target, value in (
                (resolved.left, resolved.right),
                (resolved.right, resolved.left),
            ):
                if (
                    _eliminable(target)
                    and target not in mapping
                    and not any(_eliminable(a) for a in value.atoms())
                ):
                    mapping[target] = value
                    progress = True
    return [part.substitute(mapping) for part in parts] if mapping else list(parts)


def _path_touched(path) -> frozenset:
    touched: set = set()
    for point in path.points:
        if point.statement is None:
            continue
        touched |= point.statement.read_resources()
        touched |= point.statement.written_resources()
    return frozenset(touched)


def _keep_q_conjunct(part: Formula, touched, writes) -> bool:
    if any(_eliminable(a) for a in part.atoms()):
        return False
    resources = part.resources()
    if not resources:
        return True  # pure parameter/snapshot fact (a lifted guard)
    if not overlaps(resources, writes):
        return False
    return all(overlaps((r,), touched) for r in resources)


def _rollout_result(
    txn: TransactionType,
    entry: Formula,
    *,
    max_loop_unroll: int = 2,
) -> tuple:
    """Disjunctive ``Q_i`` candidate from per-path sp finals.

    Loops make the enumerated path set incomplete (executions beyond the
    unroll bound are uncovered), so any body containing a loop weakens the
    rollout contribution to ``TRUE`` — the candidates attached as ``I_i``
    still give ``Q_i`` content.  Returns ``(formula, notes)``.
    """
    notes: list = []
    if any(isinstance(s, (While, ForEach)) for s in txn.statements()):
        notes.append("loop present: sp rollout weakened to TRUE")
        return TRUE, notes
    writes = txn.written_resources()
    merged: list = []
    for path in annotate_paths(txn.body, entry, max_loop_unroll=max_loop_unroll):
        parts = _resolve_ghosts(conjuncts_of(path.final))
        touched = _path_touched(path)
        kept: list = []
        for part in parts:
            if isinstance(part, Cmp) and part.op == "==" and part.left is part.right:
                continue  # x == x, an artifact of ghost elimination
            if part in kept:
                continue
            if _keep_q_conjunct(part, touched, writes):
                kept.append(part)
        if any(not point.exact for point in path.points):
            notes.append("inexact path: kept sound conjuncts only")
        merged.append(conj(*kept))
    if not merged:
        return TRUE, notes
    unique = []
    for formula in merged:
        if formula not in unique:
            unique.append(formula)
    return (unique[0] if len(unique) == 1 else disj(*unique)), notes


def _workspace_result(posts: dict, txn: TransactionType, attached: list) -> Formula:
    """``Q_i`` of a read-only transaction: its workspace-only read posts.

    When two relational reads are linked by a counter candidate, their
    outputs must agree — synthesised as an evaluator-backed abstract
    predicate over the two locals (the ``Audit`` ``retv`` shape).
    """
    parts = [post for post in posts.values() if post is not TRUE and not post.resources()]
    counters = [c for c in attached if c.template == "counter-link"]
    reads = {path: stmt for path, stmt in txn.walk() if isinstance(stmt, _READ_KINDS)}
    for candidate in counters:
        count_local = declared_local = None
        for stmt in reads.values():
            if isinstance(stmt, SelectCount) and overlaps(
                candidate.resources(), stmt.read_resources()
            ):
                count_local = stmt.into
            if isinstance(stmt, (SelectScalar,)) and overlaps(
                candidate.resources(), stmt.read_resources()
            ):
                declared_local = stmt.into
        if count_local is not None and declared_local is not None:
            a, b = count_local, declared_local
            parts.append(
                AbstractPred(
                    name=f"outputs-agree[{a!r}={b!r}]",
                    reads=frozenset(),
                    evaluator=lambda state, env, a=a, b=b: env.get(a) == env.get(b),
                )
            )
    return conj(*parts)


# ---------------------------------------------------------------------------
# the inference pass
# ---------------------------------------------------------------------------


@dataclass
class InferredTransaction:
    """Inference outcome for one transaction type, for the report."""

    name: str
    consistency: str
    param_pre: str
    result: str
    snapshot: list
    read_posts: list
    notes: list

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "consistency": self.consistency,
            "param_pre": self.param_pre,
            "result": self.result,
            "snapshot": list(self.snapshot),
            "read_posts": list(self.read_posts),
            "notes": list(self.notes),
        }


@dataclass
class InferenceReport:
    """The full inference outcome: annotated app plus provenance."""

    application: str
    candidates: list  # surviving Candidate names
    demoted: list  # (name, reason-ish)
    cegis_rounds: int
    cegis_schedules: int
    transactions: list = field(default_factory=list)  # InferredTransaction
    survivors: list = field(default_factory=list)  # surviving Candidate objects

    def closed_invariant(self, spec) -> Formula:
        """Surviving candidates as one parameter-free application invariant.

        Free parameters (e.g. the account index) are closed by enumerating
        their domain values — the form a certification scenario's semantic
        checker can evaluate against a concrete state with an empty env.
        """
        closed = []
        for candidate in self.survivors:
            params = candidate.free_params()
            if not params:
                closed.append(candidate.formula)
                continue
            pools = [spec.values_for(p) if spec else (0, 1) for p in params]
            for combo in itertools.product(*pools):
                mapping = {
                    p: v if isinstance(v, Term) else IntConst(v)
                    for p, v in zip(params, combo)
                    if isinstance(v, (int, Term)) and not isinstance(v, bool)
                }
                if len(mapping) == len(params):
                    closed.append(candidate.formula.substitute(mapping))
        return conj(*closed)

    def to_dict(self) -> dict:
        return {
            "application": self.application,
            "candidates": list(self.candidates),
            "demoted": [[name, str(reason)] for name, reason in self.demoted],
            "cegis": {
                "rounds": self.cegis_rounds,
                "schedules": self.cegis_schedules,
            },
            "transactions": [t.to_dict() for t in self.transactions],
        }

    def render(self) -> str:
        lines = [f"infer {self.application}:"]
        lines.append(
            f"  invariant candidates: {len(self.candidates)} kept,"
            f" {len(self.demoted)} demoted"
            f" ({self.cegis_rounds} CEGIS round(s))"
        )
        for name in self.candidates:
            lines.append(f"    + {name}")
        for name, _reason in self.demoted:
            lines.append(f"    - {name} (demoted)")
        for txn in self.transactions:
            lines.append(f"  {txn.name}:")
            lines.append(f"    I_i: {txn.consistency}")
            if txn.param_pre != repr(TRUE):
                lines.append(f"    B_i: {txn.param_pre}")
            lines.append(f"    Q_i: {txn.result}")
            for post in txn.read_posts:
                lines.append(f"    {post}")
        return "\n".join(lines)


def infer_application(
    app: Application,
    *,
    seed: int = 0,
    max_loop_unroll: int = 2,
    cegis: bool = True,
) -> tuple:
    """Derive annotations for (a stripped copy of) ``app``.

    Returns ``(annotated Application, InferenceReport)``.  The input is
    stripped first — inference never sees hand-written annotations, so the
    result is a fair reconstruction for agreement comparison.
    """
    stripped = strip_annotations(app)
    trends = scalar_trends(stripped)
    candidates = synthesize_candidates(stripped)
    if cegis:
        survivors, trace = refine_candidates(stripped, candidates, seed=seed)
    else:
        survivors, trace = list(candidates), CegisTrace()

    report = InferenceReport(
        application=app.name,
        candidates=[c.name for c in survivors],
        demoted=[(name, reason) for name, reason in trace.demoted],
        cegis_rounds=trace.rounds,
        cegis_schedules=trace.schedules,
        survivors=list(survivors),
    )

    annotated = []
    for txn in stripped.transactions:
        attached = _attach_candidates(txn, survivors)
        extras = _param_ceiling_extras(txn, survivors)
        consistency = conj(*([c.formula for c in attached] + extras))
        param_pre = _param_preconditions(stripped, txn)
        posts = _infer_read_posts(stripped, txn, attached, trends)
        body = _with_posts(txn.body, posts)
        writes = txn.written_resources()
        notes: list = []
        if not writes:
            result = _workspace_result(posts, txn, attached)
            snapshot: tuple = ()
        else:
            snapshot = tuple(_snapshot_terms(txn))
            entry = conj(
                consistency,
                param_pre,
                *[eq(term, logical) for logical, term in snapshot],
            )
            probe = TransactionType(name=txn.name, params=txn.params, body=body)
            rolled, notes = _rollout_result(
                probe, entry, max_loop_unroll=max_loop_unroll
            )
            result = conj(*([c.formula for c in attached] + [rolled]))
            used = {
                a for a in result.atoms() if isinstance(a, LogicalVar)
            }
            snapshot = tuple(
                (logical, term) for logical, term in snapshot if logical in used
            )
        inferred = TransactionType(
            name=txn.name,
            params=txn.params,
            body=body,
            consistency=consistency,
            param_pre=param_pre,
            result=result,
            snapshot=snapshot,
        )
        annotated.append(inferred)
        report.transactions.append(
            InferredTransaction(
                name=txn.name,
                consistency=repr(consistency),
                param_pre=repr(param_pre),
                result=repr(result),
                snapshot=[f"{logical!r} = {term!r}" for logical, term in snapshot],
                read_posts=[
                    f"post[{path}]: {post!r}"
                    for path, post in sorted(posts.items())
                    if post is not TRUE
                ],
                notes=notes,
            )
        )

    inferred_app = Application(
        name=app.name,
        transactions=tuple(annotated),
        spec=app.spec,
        description=app.description,
        assumptions=dict(app.assumptions),
    )
    return inferred_app, report


# ---------------------------------------------------------------------------
# inferred-vs-declared agreement
# ---------------------------------------------------------------------------


def agreement(
    declared: Application,
    inferred: Application,
    *,
    budget: int = 3000,
    seed: int = 0,
    ladder=None,
) -> dict:
    """Chooser level assignments of both annotation sets, compared."""
    from repro.core.chooser import analyze_application
    from repro.core.conditions import ANSI_LADDER
    from repro.core.interference import InterferenceChecker

    ladder = ladder or ANSI_LADDER
    levels: dict = {}
    for tag, app in (("declared", declared), ("inferred", inferred)):
        checker = InterferenceChecker(app.spec, budget=budget, seed=seed)
        report = analyze_application(app, checker, ladder=ladder)
        levels[tag] = report.levels()
    matches = {
        name: levels["declared"][name] == levels["inferred"][name]
        for name in levels["declared"]
    }
    return {
        "declared": levels["declared"],
        "inferred": levels["inferred"],
        "matches": matches,
        "agreement": all(matches.values()),
    }
