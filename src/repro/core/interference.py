"""The interference check — paper's triple (3) — in three tiers.

``S_k,l`` *interferes* with assertion ``P_i,j`` when
``{P_i,j ∧ P_k,l} S_k,l {P_i,j}`` is not a theorem.  The per-level theorems
reduce semantic correctness to a finite set of such checks.  Each check runs
through up to three tiers, from cheapest and exact to most general:

1. **Footprint disjointness** — the statement writes no resource the
   assertion depends on.  Exact, instantaneous, and in realistic
   applications discharges the bulk of the obligations (benchmarked in E1).

2. **Symbolic proof** — the check becomes a validity query ``P ∧ pre ⇒
   P'`` where ``P'`` is the assertion after the write, the whole source
   or its rollback (alias-aware substitution and table-effect
   transformers, :mod:`repro.core.effects`).  In the conventional
   (scalar/array) fragment a counterexample is a genuine interference
   witness at the formula level.  When the source has relational
   statements the tier decides only by proof: an INVALID or unknown
   answer falls through to tier 3, which stays the only source of
   witnesses for such bodies.

3. **Bounded model checking** — whatever tier 2 leaves open (nested
   quantifiers over a written table, abstract predicates, ``While`` loops
   in relational bodies, every interference witness for a relational
   source) is checked by *simulating the scenario*: enumerate small
   initial databases and
   arguments (a :class:`repro.core.domains.DomainSpec`), trace the target
   transaction to every control point where the assertion is active — with
   the target's own local bindings — then run the candidate interfering
   statement/transaction and watch whether the assertion flips from true to
   false.  Exhaustive enumeration certifies non-interference *for the
   bounded domain*; sampling downgrades the confidence flag.

A verdict records which tier decided it and at what confidence, so reports
separate proved facts from bounded evidence — the honesty knob this
mechanisation adds over the paper's hand proofs.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core import effects as fx
from repro.core.cache import FORMULA_SCOPE, FULL_SCOPE, VerdictCache, fingerprint_many
from repro.core.domains import DEFAULT_BUDGET, DomainSpec, iter_assignments, split_budget
from repro.core.formula import (
    FALSE, And, Cmp, CountWhere, Formula, Implies, Not, Or, TRUE, conj, conjuncts, disj, eq,
    implies,
)
from repro.core.program import (
    ForEach,
    If,
    Statement,
    TransactionType,
    While,
    Write,
)
from repro.core.prover import ProofResult, Verdict, is_valid, rewrite_literals, simplify
from repro.core.resources import overlaps
from repro.core.sp import annotate_paths, fresh_logical
from repro.core.state import DbState, _multiset_minus, _row_multiset
from repro.core.terms import Field, Item, Term
from repro.errors import EvaluationError

#: Confidence levels of a verdict, strongest first.
PROVED = "proved"
BOUNDED = "bounded-exhaustive"
SAMPLED = "bounded-sampled"
ASSUMED = "assumed"

#: Kinds of critical assertions (what the theorems quantify over).
CONSISTENCY = "consistency"  # I_i — checked throughout execution
READ_POST = "read_post"  # postcondition of one read statement
RESULT = "result"  # Q_i — checked at completion
READ_STEP_POST = "read_step_post"  # SNAPSHOT model: after the read step


@dataclass(frozen=True)
class CriticalAssertion:
    """One assertion the per-level theorems require to be interference-free."""

    label: str
    formula: Formula
    kind: str
    read_stmt: Statement | None = None

    def __repr__(self) -> str:
        return f"<{self.kind} {self.label}>"


@dataclass
class Witness:
    """Concrete or symbolic evidence that interference can occur."""

    kind: str  # "symbolic" | "concrete" | "rollback"
    description: str
    state: DbState | None = None
    env: dict | None = None
    model: dict | None = None

    def __repr__(self) -> str:
        return f"<witness {self.kind}: {self.description}>"


@dataclass
class InterferenceVerdict:
    """Outcome of one interference check."""

    interferes: bool
    confidence: str
    method: str
    witness: Witness | None = None
    note: str = ""

    @property
    def safe(self) -> bool:
        """True when the check certifies non-interference."""
        return not self.interferes

    def __repr__(self) -> str:
        head = "INTERFERES" if self.interferes else "no-interference"
        return f"<{head} via {self.method} ({self.confidence})>"


# ---------------------------------------------------------------------------
# concrete tracing
# ---------------------------------------------------------------------------


@dataclass
class TraceEvent:
    """One database operation observed during a concrete trace.

    ``before`` and ``after`` are snapshots shared with the trace's ``states``
    list (and with each other for reads, which never mutate the database) —
    consumers must copy before mutating.  ``undo`` and ``delta`` lazily cache
    the event's inverse write recipe and changed-location set; both are pure
    functions of the immutable snapshots.
    """

    statement: Statement
    before: DbState
    after: DbState
    is_write: bool
    undo: tuple | None = None
    delta: frozenset | None = None


@dataclass
class Trace:
    """A traced transaction execution.

    ``envs[p]`` is the local environment when ``p`` database operations have
    completed (intervening local assignments included); ``envs[len(events)]``
    is the final environment.  ``states[p]`` mirrors the database.
    """

    events: list
    envs: list
    states: list
    _cumulative: list | None = None
    _undo_memo: dict | None = None

    @property
    def length(self) -> int:
        return len(self.events)

    def cumulative_writes(self) -> list:
        """``result[p]`` = locations written by the first ``p`` events.

        Cached on the trace; scenario filtering consults it once per
        activation position instead of re-unioning deltas per call.
        """
        if self._cumulative is None:
            acc: frozenset = frozenset()
            cumulative = [acc]
            for event in self.events:
                if event.is_write:
                    acc = acc | _event_delta(event)
                cumulative.append(acc)
            self._cumulative = cumulative
        return self._cumulative


def trace(txn: TransactionType, state: DbState, args: dict) -> Trace:
    """Execute a transaction concretely, snapshotting around every DB op.

    Snapshots are shared, not duplicated: the checkpoint state at position
    ``p`` *is* event ``p``'s ``before`` state, and a read event's ``after``
    is its ``before`` (reads never mutate the database).  Only writes pay
    for a second copy.  State copying dominated BMC cost before this
    sharing (benchmarked in E14).
    """
    events: list[TraceEvent] = []
    envs: list[dict] = []
    states: list[DbState] = []
    env = txn.initial_env(args, state)
    # one live snapshot, reused until the next write invalidates it: reads
    # never mutate the database, so every position between two writes shares
    # a single state object (which also lets identity-keyed evaluation memos
    # collapse those positions)
    snap: DbState | None = None

    def run(stmts: Sequence[Statement]) -> None:
        nonlocal snap
        for stmt in stmts:
            if isinstance(stmt, If):
                branch = stmt.then if stmt.cond.evaluate(state, env) else stmt.orelse
                run(branch)
            elif isinstance(stmt, While):
                fuel = 64
                while stmt.cond.evaluate(state, env):
                    fuel -= 1
                    if fuel < 0:
                        raise EvaluationError("loop fuel exhausted in trace")
                    run(stmt.body)
            elif isinstance(stmt, ForEach):
                buffered = env.get(stmt.buffer, ())
                for packed in buffered:
                    row = dict(packed)
                    for attr, local in stmt.bind:
                        env[local] = row.get(attr)
                    run(stmt.body)
            elif stmt.is_db_write:
                envs.append(dict(env))
                if snap is None:
                    snap = state.fork()
                states.append(snap)
                stmt.execute(state, env)
                after = state.fork()
                events.append(TraceEvent(stmt, snap, after, True))
                snap = after
            elif stmt.is_db_read:
                envs.append(dict(env))
                if snap is None:
                    snap = state.fork()
                states.append(snap)
                stmt.execute(state, env)
                events.append(TraceEvent(stmt, snap, snap, False))
            else:
                stmt.execute(state, env)

    run(txn.body)
    envs.append(dict(env))
    states.append(snap if snap is not None else state.fork())
    return Trace(events, envs, states)


def undo_states(events: Sequence[TraceEvent]) -> list:
    """States passed through while rolling back a traced prefix, in order."""
    if not events:
        return []
    current = events[-1].after.fork()
    states = []
    for event in reversed(events):
        if not event.is_write:
            continue
        _apply_undo(current, _event_undo(event))
        states.append(current.fork())
    return states


def _cached_undo_states(tr: Trace, k: int) -> list:
    """``undo_states`` of the trace's first ``k + 1`` events, cached.

    The rolled-back state sequence depends only on the trace prefix, not on
    the assertion being checked against it; rollback injection probes the
    same prefix once per (assertion, activation position), so the states are
    materialised once per trace.  Callers must not mutate them.
    """
    memo = tr._undo_memo
    if memo is None:
        memo = tr._undo_memo = {}
    states = memo.get(k)
    if states is None:
        states = undo_states(tr.events[: k + 1])
        memo[k] = states
    return states


#: Marker for "location absent before the write" in undo recipes.
_MISSING = object()


def _event_undo(event: TraceEvent) -> tuple:
    """The event's undo recipe, diffed once and cached on the event.

    Rollback scenarios replay the same event's inverse against many
    states; diffing the full snapshots each time was a top-three BMC
    cost.  The recipe is a pure function of the immutable
    ``before``/``after`` snapshots.
    """
    recipe = event.undo
    if recipe is None:
        recipe = _undo_recipe(event.before, event.after)
        event.undo = recipe
    return recipe


def _undo_recipe(before: DbState, after: DbState) -> tuple:
    """Compact inverse of the ``before -> after`` delta.

    Returns ``(items, fields, rows)``: item/field restorations (with
    :data:`_MISSING` for locations the write created) and per-table row
    multiset corrections.
    """
    if before is after:
        return ((), (), ())
    items = []
    for name in set(after.items) | set(before.items):
        if after.items.get(name) != before.items.get(name):
            items.append((name, before.items.get(name, _MISSING)))
    fields = []
    for array in set(after.arrays) | set(before.arrays):
        before_elems = before.arrays.get(array, {})
        after_elems = after.arrays.get(array, {})
        if before_elems is after_elems:  # shared through fork(): untouched
            continue
        indices = set(after_elems) | set(before_elems)
        for index in indices:
            old = before_elems.get(index, {})
            new = after_elems.get(index, {})
            if old is new:
                continue
            for attr in set(old) | set(new):
                if old.get(attr) != new.get(attr):
                    fields.append((array, index, attr, old.get(attr, _MISSING)))
    rows = []
    for table in set(after.tables) | set(before.tables):
        before_rows = before.tables.get(table, [])
        after_rows = after.tables.get(table, [])
        if before_rows is after_rows or before_rows == after_rows:
            continue
        added = _multiset_minus(
            _row_multiset(after_rows), _row_multiset(before_rows)
        )
        removed = _multiset_minus(
            _row_multiset(before_rows), _row_multiset(after_rows)
        )
        if added or removed:
            rows.append((table, tuple(added), tuple(removed)))
    return (tuple(items), tuple(fields), tuple(rows))


def _apply_undo(current: DbState, recipe: tuple) -> None:
    """Apply a cached undo recipe onto ``current``."""
    items, fields, rows = recipe
    for name, old in items:
        if old is _MISSING:
            current.items.pop(name, None)
        else:
            current.items[name] = old
    for array, index, attr, old in fields:
        if old is _MISSING:
            # Replace, don't mutate: the attrs dict may be shared by forks.
            elems = dict(current.arrays.get(array, ()))
            attrs = dict(elems.get(index, ()))
            attrs.pop(attr, None)
            elems[index] = attrs
            current.arrays[array] = elems
        else:
            current.write_field(array, index, attr, old)
    for table, added, removed in rows:
        for key in added:
            current.delete_rows(table, _once_matcher(dict(key)))
        for key in removed:
            current.insert_row(table, dict(key))


def _once_matcher(row: dict):
    """A predicate matching exactly one occurrence of ``row``."""
    done = {"hit": False}

    def predicate(candidate: dict) -> bool:
        if done["hit"] or candidate != row:
            return False
        done["hit"] = True
        return True

    return predicate


# ---------------------------------------------------------------------------
# static write targets (Theorem 5, condition 1)
# ---------------------------------------------------------------------------


def static_write_targets(txn: TransactionType) -> list:
    """Resolved conventional write targets of every Write in the body.

    Targets whose array index mentions locals are dropped (they cannot be
    compared statically), as are relational writes — both reduce the set of
    first-committer-wins excuses, which errs on the safe side.
    """
    out: list[Term] = []
    for stmt in txn.statements():
        if isinstance(stmt, Write):
            target = stmt.target
            if isinstance(target, Field):
                from repro.core.terms import Local

                if any(isinstance(atom, Local) for atom in target.index.atoms()):
                    continue
            out.append(target)
    return out


def fcw_excuse_formula(
    target: TransactionType,
    source: TransactionType,
    target_writes: list | None = None,
) -> Formula:
    """Theorem 5 condition 1 as a formula over the instances' parameters.

    ``target_writes`` restricts the target's side of the intersection —
    Theorem 3's variant of the excuse only covers items the target both
    read and wrote (the paper's remark: such a transaction has effectively
    held long read locks on them).
    """
    own = target_writes if target_writes is not None else static_write_targets(target)
    pairs = [(t, None) for t in own]
    source_targets = [(s, None) for s in static_write_targets(source)]
    return fx.write_sets_intersection_condition(pairs, source_targets)


def _concrete_write_targets(
    txn: TransactionType, args_env: dict, restrict: list | None = None
) -> set | None:
    """Static write targets with indices evaluated under concrete arguments.

    ``restrict`` (when given) replaces the static target list — Theorem 3's
    read-then-written subset.
    """
    out: set = set()
    targets = restrict if restrict is not None else static_write_targets(txn)
    for target in targets:
        if isinstance(target, Item):
            out.add(("item", target.name))
        else:
            try:
                index = target.index.evaluate(DbState(), args_env)
            except EvaluationError:
                return None
            out.add(("field", target.array, index, target.attr))
    return out


# ---------------------------------------------------------------------------
# identity-keyed memo tables
# ---------------------------------------------------------------------------

#: What :meth:`IdentityMemo.get` returns for a key it does not hold.
MISS = object()


class IdentityMemo:
    """A capped memo table whose key holds up to two objects by identity.

    A key is ``(a, b, extra)``: ``a`` and ``b`` are matched with ``is`` (for
    states, environments and other objects that are unhashable or costly to
    hash), ``extra`` is any hashable matched by value.  Every entry keeps
    strong references to ``a`` and ``b``, so their ids cannot be reused by
    another object while the entry lives.  Past ``cap`` entries, new results
    are returned but no longer stored.
    """

    __slots__ = ("cap", "_entries")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, a, b=None, extra=None):
        """The value stored under ``(a, b, extra)``, else :data:`MISS`."""
        entry = self._entries.get((id(a), id(b), extra))
        if entry is not None and entry[0] is a and entry[1] is b:
            return entry[2]
        return MISS

    def put(self, value, a, b=None, extra=None):
        """Store ``value`` under ``(a, b, extra)`` unless full; returns it."""
        if len(self._entries) < self.cap:
            self._entries[(id(a), id(b), extra)] = (a, b, value)
        return value


#: States the evaluation memo keeps a table for.
EVAL_MEMO_CAP = 500_000

#: Atoms evaluation resolves against the database state, not the environment.
_STATE_ATOMS = (Item, Field, CountWhere)


def _env_key(formula: Formula, env: dict):
    """The formula's evaluation-relevant view of ``env``.

    A structural formula reads the environment only at its free atoms that
    are not database references; their tuple is cached on the node and the
    key holds the values ``env`` binds there (:data:`MISS` where it binds
    none), so a formula with no free parameters collapses to one key no
    matter how many partner-argument environments probe it.  An
    :class:`~repro.core.formula.AbstractPred` evaluator may read any entry,
    so such formulas key on the whole environment.  None when a value is
    unhashable.
    """
    atoms = formula.__dict__.get("_hc_env_atoms", MISS)
    if atoms is MISS:
        atoms = None
        if formula.projectable():
            atoms = tuple(a for a in formula.atom_set() if not isinstance(a, _STATE_ATOMS))
        object.__setattr__(formula, "_hc_env_atoms", atoms)
    try:
        if atoms is None:
            return frozenset(env.items())
        key = tuple(map(env.get, atoms, itertools.repeat(MISS)))
        hash(key)
    except TypeError:
        return None
    return key


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Triple:
    """The mode-specific inputs of one interference triple's tier ladder.

    ``written`` is the write surface tier 1 compares with the assertion's
    resources, ``symbolic`` runs tier 2 (None when it cannot decide) and
    ``bmc`` holds the tier-3 mode keyword arguments.
    """

    written: frozenset
    symbolic: Callable[[], InterferenceVerdict | None]
    bmc: dict


class InterferenceChecker:
    """Runs interference checks through the three tiers.

    ``spec`` supplies the bounded-model-checking domains; without one only
    the disjointness and symbolic tiers run, and anything they cannot decide
    is *assumed* to interfere — the conservative default that keeps the
    level chooser sound.
    """

    def __init__(
        self,
        spec: DomainSpec | None = None,
        budget: int = DEFAULT_BUDGET,
        seed: int = 0,
        unroll: int = fx.DEFAULT_UNROLL,
        use_disjoint: bool = True,
        use_symbolic: bool = True,
        cache: VerdictCache | None = None,
    ) -> None:
        self.spec = spec
        self.budget = budget
        self.seed = seed
        self.unroll = unroll
        #: ablation switches: disable the cheap tiers to measure what each
        #: contributes (benchmarked in E10); correctness is unaffected —
        #: disabled tiers simply push obligations to the next tier down
        self.use_disjoint = use_disjoint
        self.use_symbolic = use_symbolic
        #: verdict cache — private per checker by default, so one analysis
        #: run shares verdicts across its levels and targets without leaking
        #: tier accounting into an unrelated run; pass
        #: :func:`repro.core.cache.shared_cache` to share process-wide
        self.cache = cache if cache is not None else VerdictCache()
        self.stats = {
            "disjoint": 0,
            "symbolic": 0,
            "bmc": 0,
            "assumed": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        #: wall seconds spent inside each tier, accumulated per check
        self.tier_times = {"disjoint": 0.0, "symbolic": 0.0, "bmc": 0.0}
        #: why tier 2 declined, counted over the obligations that reached
        #: BMC (``analyze --stats``); ``_reason`` holds the current one's
        self.declined: Counter = Counter()
        self._reason = ""
        #: optional callable(seconds) observing each *decided* obligation's
        #: wall time (cache hits are not observed); the CLI's ``--stats``
        #: wires a telemetry histogram here, the service its job metrics
        self.latency_observer = None
        self._config_key: str | None = None
        self._state_cache: tuple | None = None
        #: exhaustive assignment spaces by parameter tuple (see
        #: :meth:`_assignment_space`); bounded by the application's types
        self._space_memo: dict = {}
        #: a source's paths with dirty reads, by source (bounded by the
        #: application's transaction types)
        self._dirty_paths: dict = {}
        # BMC memo tables; the caps bound memory on large scans.  The
        # evaluation memo maps ``id(state)`` to ``(state, table)`` for up to
        # EVAL_MEMO_CAP states, pinning each; a table maps
        # ``(formula, env key)`` to the verdict
        self._eval_memo: dict = {}
        self._trace_memo = IdentityMemo(200_000)
        self._unit_memo = IdentityMemo(200_000)
        self._overlap_memo = IdentityMemo(100_000)
        self._stmt_memo = IdentityMemo(200_000)

    # -- cache keys ----------------------------------------------------------

    def _config_fingerprint(self) -> str:
        if self._config_key is None:
            self._config_key = fingerprint_many(
                self.budget, self.seed, self.unroll,
                self.use_disjoint, self.use_symbolic, self.spec,
            )
        return self._config_key

    def _keys(
        self,
        kind: str,
        assertion: CriticalAssertion,
        target: TransactionType,
        source: TransactionType,
        assumption: Formula,
        formula_extra: tuple = (),
        full_extra: tuple = (),
    ) -> tuple | None:
        """The two cache keys of one obligation (None with the cache off).

        The *formula* key identifies everything the target-independent tiers
        (disjointness, symbolic) look at: assertion formula, source program,
        assumption, per-mode extras and the checker configuration.  The
        *full* key extends it with the target and the assertion's activation
        data (kind, read statement), which is what the BMC trace depends on.
        """
        if not self.cache.enabled:
            return None
        formula_key = fingerprint_many(
            kind, assertion.formula, source, assumption,
            *formula_extra, self._config_fingerprint(),
        )
        full_key = fingerprint_many(
            formula_key, target, assertion.kind, assertion.read_stmt, *full_extra
        )
        return formula_key, full_key

    def _check(
        self,
        keys: tuple | None,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        assumption: Formula,
        triple: _Triple,
    ) -> InterferenceVerdict:
        """Answer one obligation from the verdict cache, else decide it.

        A decided verdict is stored under the formula- or full-scope key
        according to which tier decided it.
        """
        if keys is not None:
            cached = self.cache.lookup(*keys)
            if cached is not None:
                self.stats["cache_hits"] += 1
                return cached
            self.stats["cache_misses"] += 1
        start = time.perf_counter()
        verdict, scope = self._decide(target, assertion, source, assumption, triple)
        if self.latency_observer is not None:
            self.latency_observer(time.perf_counter() - start)
        if keys is not None:
            self.cache.store(scope, keys[0] if scope == FORMULA_SCOPE else keys[1], verdict)
        return verdict

    def _decide(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        assumption: Formula,
        triple: _Triple,
    ) -> tuple:
        """Run the tiers in order until one decides; ``(verdict, scope)``.

        Tiers 1 and 2 read only formula-scope inputs, so their verdicts are
        shared across targets; a BMC verdict depends on the target's traces.
        """
        self._reason = "symbolic tier off" if not self.use_symbolic else "no symbolic rule"
        tiers = (
            ("disjoint", lambda: self._disjoint(assertion.formula, triple.written)),
            ("symbolic", triple.symbolic if self.use_symbolic else lambda: None),
            ("bmc", lambda: self._bmc(target, assertion, source, assumption, **triple.bmc)),
        )
        for tier, attempt in tiers:
            start = time.perf_counter()
            verdict = attempt()
            self.tier_times[tier] += time.perf_counter() - start
            if verdict is not None:
                break
        self.stats["assumed" if verdict.confidence == ASSUMED else tier] += 1
        if tier == "bmc":
            self.declined[self._reason] += 1
        return verdict, FULL_SCOPE if tier == "bmc" else FORMULA_SCOPE

    def _decline(self, reason: str | ProofResult = "") -> None:
        """Note why tier 2 gives up on the current obligation; returns None.

        ``reason`` is a prover answer that was not VALID, a short reason, or
        empty for the reason the latest effects call gave.
        """
        if isinstance(reason, ProofResult):
            reason = f"prover {reason.verdict}" + (f": {reason.reason}" if reason.reason else "")
        self._reason = reason or fx.declined()
        return None

    def _cached_states(self, rng: random.Random) -> tuple:
        """Materialise the constraint-filtered state list once per checker.

        Evaluating an application's full consistency constraint (nested
        quantifiers and aggregates) dominates BMC cost; every obligation
        shares the same filtered state list, so it is computed only once.
        """
        if self._state_cache is None:
            space = self.spec.iter_states(self.budget, rng)
            self._state_cache = (list(space), space.exhaustive)
        return self._state_cache

    def _cached_trace(self, txn: TransactionType, state0: DbState, args: dict):
        """Trace a transaction from a cached state, memoised.

        Obligations share the same (state, argument) scenarios; traces are
        pure given those inputs, so they are computed once per checker.
        Keyed by the identity of the state and of the argument dict (both
        identity-stable: cached states, cached assignment spaces) and the
        transaction's name.
        """
        cached = self._trace_memo.get(state0, args, txn.name)
        if cached is MISS:
            cached = self._trace_memo.put(trace(txn, state0.fork(), args), state0, args, txn.name)
        return cached

    def _memo_holds(self, formula, state, env, env_key=MISS) -> bool:
        """`_holds` memoised over trace-cached states.

        Scenario loops re-evaluate the same (assertion, state, env)
        combination for every partner argument assignment, so each state
        (pinned by identity) gets a table keyed by the formula and the
        environment's projection onto it (:func:`_env_key`; callers that
        already hold it pass it in).  Environments with unhashable values
        (none in practice — buffers are packed as tuples) fall back to
        direct evaluation.
        """
        if env_key is MISS:
            env_key = _env_key(formula, env)
        if env_key is None:
            return _holds(formula, state, env)
        entry = self._eval_memo.get(id(state))
        if entry is None:
            entry = (state, {})
            if len(self._eval_memo) < EVAL_MEMO_CAP:
                self._eval_memo[id(state)] = entry
        table = entry[1]
        key = (formula, env_key)
        cached = table.get(key, MISS)
        if cached is MISS:
            cached = table[key] = _holds(formula, state, env)
        return cached

    def _res_overlaps(self, res: frozenset, stmt: Statement) -> bool:
        """Whether ``stmt``'s written footprint overlaps ``res``, memoised.

        The rollback pruning asks this for the same (assertion-resources,
        statement) pair once per undo step per position; both operands are
        identity-stable (resources are cached on the interned formula), so
        the symbolic overlap test runs once per distinct pair.
        """
        result = self._overlap_memo.get(res, stmt)
        if result is MISS:
            result = self._overlap_memo.put(
                overlaps(res, stmt.written_resources()), res, stmt
            )
        return result

    def _assignment_space(self, params: tuple, rng: random.Random) -> tuple:
        """Materialised ``(env, args)`` pairs for a parameter tuple.

        Exhaustive spaces enumerate deterministically (``itertools.product``,
        no rng draws), so their materialisation is cached: the env and args
        dicts become identity-stable across every scan of the run, which is
        what the identity-keyed trace and unit memos feed on.  Sampled spaces stay uncached so each scan keeps drawing
        fresh cases.  Returns ``(pairs, exhaustive)``.
        """
        pairs = self._space_memo.get(params)
        if pairs is not None:
            return pairs, True
        space = iter_assignments(list(params), self.spec, 512, rng)
        pairs = [
            (env, {param.name: value for param, value in env.items()})
            for env in space
        ]
        if space.exhaustive:
            self._space_memo[params] = pairs
        return pairs, space.exhaustive

    def _memo_unit_final(self, source: TransactionType, state0: DbState, args: dict):
        """Final state of ``source`` run atomically from ``state0``, memoised.

        Unit-mode injection re-runs the same source from the same
        activation state for every assertion sharing the trace; the run is
        deterministic, so the final state is computed once.  Returns None
        when the run raises :class:`EvaluationError`.
        """
        final = self._unit_memo.get(state0, args, source.name)
        if final is not MISS:
            return final
        final = state0.fork()
        try:
            source.run(final, args)
        except EvaluationError:
            final = None
        return self._unit_memo.put(final, state0, args, source.name)

    def _memo_stmt_after(self, stmt: Statement, state: DbState, env: dict):
        """State after ``stmt`` executes on ``state`` under ``env``, memoised.

        Dirty-read scenarios inject the same source write into the same
        activation state once per assertion; execution is deterministic, so
        the result state is shared.  Returns None when execution raises
        :class:`EvaluationError`.
        """
        after = self._stmt_memo.get(state, env, stmt)
        if after is not MISS:
            return after
        after = state.fork()
        try:
            stmt.execute(after, dict(env))
        except EvaluationError:
            after = None
        return self._stmt_memo.put(after, state, env, stmt)

    # -- public checks -------------------------------------------------------

    def check_statement(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        stmt: Statement,
        assumption: Formula = TRUE,
        dirty_reads: bool = True,
    ) -> InterferenceVerdict:
        """Theorem 1 obligation: one write statement vs one assertion.

        ``assumption`` is an application-level concurrency assumption over
        the two instances' parameters (e.g. concurrent ``New_Order``s are
        for distinct customers).  ``dirty_reads`` enables the ordering-B
        scenarios in which the target reads the source's uncommitted writes
        — legal at READ UNCOMMITTED, impossible at READ COMMITTED and above.
        """
        keys = self._keys(
            "statement", assertion, target, source, assumption,
            formula_extra=(stmt,), full_extra=(dirty_reads,),
        )
        triple = _Triple(
            stmt.written_resources(),
            lambda: self._statement_symbolic(assertion.formula, source, stmt, assumption),
            {"mode": "statement", "stmt": stmt, "dirty_reads": dirty_reads},
        )
        return self._check(keys, target, assertion, source, assumption, triple)

    def check_rollback(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        assumption: Formula = TRUE,
    ) -> InterferenceVerdict:
        """Theorem 1 obligation: the rollback (undo) writes of ``source``."""
        keys = self._keys("rollback", assertion, target, source, assumption)
        triple = _Triple(
            source.written_resources(),
            lambda: self._rollback_symbolic(assertion.formula, source, assumption),
            {"mode": "rollback"},
        )
        return self._check(keys, target, assertion, source, assumption, triple)

    def check_unit(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        fcw_excuse: bool = False,
        assumption: Formula = TRUE,
        fcw_targets: list | None = None,
    ) -> InterferenceVerdict:
        """Theorems 2/3/5 obligation: ``source`` as one atomic unit.

        With ``fcw_excuse``, instances whose write sets intersect are
        exempt: first-committer-wins aborts one of them.  Theorem 5 uses
        the target's full static write set; Theorem 3 passes
        ``fcw_targets`` — only the items the target read *and* wrote, the
        ones its commit effectively read-locked (the paper's remark after
        Theorem 3).
        """
        # the excuse formula is the only target-dependent input of the
        # symbolic tier, so it goes into the formula-scope key: obligations
        # with equal excuses (in particular FALSE, the no-excuse case) share
        # verdicts across targets
        excuse = (
            fcw_excuse_formula(target, source, fcw_targets) if fcw_excuse else FALSE
        )
        keys = self._keys(
            "unit", assertion, target, source, assumption,
            formula_extra=(excuse,), full_extra=(fcw_excuse, fcw_targets),
        )
        triple = _Triple(
            source.written_resources(),
            lambda: self._transaction_symbolic(assertion.formula, source, excuse, assumption),
            {"mode": "unit", "fcw_excuse": fcw_excuse, "fcw_targets": fcw_targets},
        )
        return self._check(keys, target, assertion, source, assumption, triple)

    # -- tier 1: footprint disjointness ----------------------------------------

    def _disjoint(self, assertion: Formula, written: frozenset) -> InterferenceVerdict | None:
        if self.use_disjoint and not overlaps(assertion.resources(), written):
            return InterferenceVerdict(False, PROVED, "disjoint")
        return None

    # -- tier 2: symbolic ------------------------------------------------------

    def _statement_symbolic(
        self, assertion: Formula, source: TransactionType, stmt: Statement,
        assumption: Formula = TRUE,
    ) -> InterferenceVerdict | None:
        if not isinstance(stmt, Write):
            return self._relational_statement_symbolic(assertion, source, stmt, assumption)
        paths = annotate_paths(source.body, _entry_condition(source), max_loop_unroll=1)
        obligations: list = []
        for path in paths:
            for point in path.points:
                if point.statement == stmt:
                    obligations.append((point.pre, point.exact))
        if not obligations:
            return self._decline("statement not on an annotated path")
        all_valid = True
        for pre, exact in obligations:
            after = fx.apply_single_write(assertion, stmt.target, stmt.value)
            if after is None:
                return self._decline()
            goal = implies(conj(assertion, pre, assumption), after)
            result = is_valid(goal)
            if result.verdict == Verdict.INVALID:
                return InterferenceVerdict(
                    True,
                    PROVED,
                    "symbolic",
                    witness=Witness("symbolic", f"{stmt!r} can falsify {assertion!r}", model=result.model),
                )
            if result.verdict != Verdict.VALID:
                all_valid = False
                self._decline(result)
            elif not exact:
                all_valid = False
                self._decline("inexact precondition")
        if all_valid:
            return InterferenceVerdict(False, PROVED, "symbolic")
        return None

    def _relational_statement_symbolic(
        self, assertion: Formula, source: TransactionType, stmt: Statement,
        assumption: Formula,
    ) -> InterferenceVerdict | None:
        """Tier 2 for one INSERT, DELETE or UPDATE: a proof or nothing.

        At READ UNCOMMITTED the values the source read may have been
        overwritten since, so each path to the statement is tried with
        those values left free (``symbolic_paths(..., dirty_reads=True)``):
        the premise holds the path's branch guards, and every location the
        source wrote before the statement keeps the value written, as the
        source's write locks stay held until it ends.  Where the body has
        no such paths, the statement's locals stay free, with only the
        source's entry condition, restated over entry-state symbols.
        """
        paths = self._dirty_paths.get(source)
        if paths is None:
            paths = fx.symbolic_paths(source, unroll=self.unroll, dirty_reads=True) or ()
            self._dirty_paths[source] = paths
        marks = [path.marks[stmt] for path in paths if stmt in path.marks]
        if not marks:
            effect = fx.statement_effect(stmt)
            if effect is None:
                return self._decline()
            entry = fx.EntryState()
            lifted = entry.lift(_entry_condition(source))
            premise = conj(
                assertion, lifted, entry.congruence(), fx.count_locals_facts(source), assumption
            )
            marks = [({}, premise, effect)]
        for store, condition, effect in marks:
            own = conj(*(eq(location, value) for location, value in store.items()))
            if not self._carried(assertion, conj(assertion, condition, own, assumption), effect):
                return None
        return InterferenceVerdict(False, PROVED, "symbolic")

    def _carried(self, assertion: Formula, premise: Formula, effect) -> bool:
        """Whether ``premise`` proves each conjunct of ``assertion`` after ``effect``."""
        for part in conjuncts(assertion):
            after = fx.apply_table_effect(part, effect)
            result = None if after is None else _proved(premise, after)
            if not result:
                self._decline("" if result is None else result)
                return False
        return True

    def _rollback_symbolic(
        self, assertion: Formula, source: TransactionType, assumption: Formula = TRUE
    ) -> InterferenceVerdict | None:
        paths = fx.symbolic_paths(source, unroll=self.unroll)
        if paths is None:
            return self._decline()
        if any(path.relational for path in paths):
            return self._relational_rollback(assertion, source, paths, assumption)
        for path in paths:
            havoc = {
                written_target: fresh_logical(getattr(written_target, "var_sort", "int"))
                for written_target, _value in path.writes
            }
            if not havoc:
                continue
            after = fx.apply_store(assertion, havoc)
            if after is None:
                return self._decline()
            goal = implies(conj(assertion, path.condition, assumption), after)
            result = is_valid(goal)
            if result.verdict == Verdict.INVALID:
                return InterferenceVerdict(
                    True,
                    PROVED,
                    "rollback-symbolic",
                    witness=Witness("rollback", f"undo of {source.name} can falsify {assertion!r}", model=result.model),
                )
            if result.verdict != Verdict.VALID:
                return self._decline(result)
        return InterferenceVerdict(False, PROVED, "rollback-symbolic")

    def _relational_rollback(
        self, assertion: Formula, source: TransactionType, paths: list,
        assumption: Formula,
    ) -> InterferenceVerdict | None:
        """Rollback of a body with relational statements: a proof or nothing.

        A rollback after the source's ``j``-th write undoes writes ``j``
        down to ``i``, and the assertion must hold after each step, so each
        contiguous range of a path's writes is one state to check.  Undone
        locations take their entry values: fresh symbols constrained by the
        source's entry condition (current-state atoms would be unsound, see
        :class:`~repro.core.effects.EntryState`).  An undone INSERT removes
        its row.
        """
        for path in paths:
            entry = fx.EntryState()
            undo = fx.undo_effects(path, entry)
            if undo is None:
                return self._decline()
            ranges = [undo[i: j + 1] for j in range(len(undo)) for i in range(j + 1)]
            conclusions = []
            for part in conjuncts(assertion):
                states: dict = {}
                for done in ranges:
                    # undoing j, then j-1, ..., then i: i's undo is innermost
                    after = fx.apply_effects(
                        part,
                        {step[0]: step[1] for step in done if isinstance(step, tuple)},
                        [step for step in done if isinstance(step, fx.TableEffect)],
                    )
                    if after is None:
                        return self._decline()
                    states[after] = None
                conclusions.append(conj(*states))
            lifted = entry.lift(_entry_condition(source))
            premise = conj(assertion, lifted, entry.congruence(), assumption)
            for conclusion in conclusions:
                result = _proved(premise, conclusion)
                if not result:
                    return self._decline(result)
        return InterferenceVerdict(False, PROVED, "rollback-symbolic")

    def _relational_unit(
        self, assertion: Formula, paths: list, excuse: Formula, assumption: Formula,
    ) -> InterferenceVerdict | None:
        """A body with relational statements as one unit: a proof or nothing.

        Each conjunct of the assertion is carried back separately (their
        alias case splits would multiply in one query) across the final
        store and the table effects, last first.
        """
        if isinstance(excuse, Or):
            # one index equality per pair of writes to the same array; each
            # repeat would double the prover's cubes
            excuse = disj(*dict.fromkeys(excuse.operands))
        for path in paths:
            premise = conj(assertion, path.condition, assumption)
            tables = [e for e in reversed(path.effects) if isinstance(e, fx.TableEffect)]
            for part in conjuncts(assertion):
                after = fx.apply_effects(part, path.store, tables)
                if after is None:
                    return self._decline()
                result = _proved(premise, disj(excuse, after))
                if not result:
                    return self._decline(result)
        return InterferenceVerdict(False, PROVED, "symbolic")

    def _transaction_symbolic(
        self, assertion: Formula, source: TransactionType, excuse: Formula,
        assumption: Formula = TRUE,
    ) -> InterferenceVerdict | None:
        paths = fx.symbolic_paths(source, unroll=self.unroll)
        if paths is None:
            return self._decline()
        if any(path.relational for path in paths):
            return self._relational_unit(assertion, paths, excuse, assumption)
        for path in paths:
            after = fx.apply_store(assertion, path.store)
            if after is None:
                return self._decline()
            goal = implies(conj(assertion, path.condition, assumption), disj(excuse, after))
            result = is_valid(goal)
            if result.verdict == Verdict.INVALID:
                return InterferenceVerdict(
                    True,
                    PROVED,
                    "symbolic",
                    witness=Witness("symbolic", f"{source.name} as a unit can falsify {assertion!r}", model=result.model),
                )
            if result.verdict != Verdict.VALID:
                return self._decline(result)
        return InterferenceVerdict(False, PROVED, "symbolic")

    # -- tier 3: bounded model checking ---------------------------------------
    #
    # Scenario orderings.  Interference requires the source's offending
    # operation to execute while the target's assertion is active.  The
    # source may have started *before* the target reached that control
    # point, so two orderings are explored:
    #
    #   A. the target runs to an activation point, then the source acts
    #      (runs as a unit / runs far enough to execute the statement /
    #      runs and rolls back);
    #   B. (statement and rollback modes) the source runs a prefix first,
    #      the target executes to an activation point on the source-modified
    #      state — dirty reads, legal at READ UNCOMMITTED — and then the
    #      source's next write executes, or the source rolls back.
    #
    # Ordering B is what the paper's New_Order example needs: T2 inserts an
    # order and bumps MAXDATE, T1 reads the bumped MAXDATE, T2 rolls back —
    # invalidating T1's ``maxdate <= maximum_date``.
    #
    # Scenarios in which the target and the source wrote the same location
    # are skipped: long write locks (held at every level) make those
    # interleavings impossible.

    def _bmc(
        self,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        assumption: Formula,
        mode: str,
        stmt: Statement | None = None,
        fcw_excuse: bool = False,
        dirty_reads: bool = True,
        fcw_targets: list | None = None,
    ) -> InterferenceVerdict:
        if self.spec is None:
            return InterferenceVerdict(
                True, ASSUMED, "no-domain-spec",
                note="no bounded domains available; conservatively assumed to interfere",
            )
        rng = random.Random(self.seed)
        states, exhaustive = self._cached_states(rng)
        witness, cases, exhaustive = self._bmc_scan(
            states, rng, exhaustive, target, assertion, source, mode, stmt,
            fcw_excuse, assumption, dirty_reads, fcw_targets,
        )
        if witness is not None:
            return InterferenceVerdict(True, PROVED, f"bmc-{mode}", witness=witness)
        confidence = BOUNDED if exhaustive else SAMPLED
        return InterferenceVerdict(
            False, confidence, f"bmc-{mode}", note=f"{cases} scenario cases examined"
        )

    def _bmc_scan(
        self,
        states: Sequence[DbState],
        rng: random.Random,
        exhaustive: bool,
        target: TransactionType,
        assertion: CriticalAssertion,
        source: TransactionType,
        mode: str,
        stmt: Statement | None,
        fcw_excuse: bool,
        assumption: Formula,
        dirty_reads: bool,
        fcw_targets: list | None,
    ) -> tuple:
        """Scan the initial states; returns (witness, cases, exhaustive).

        Only the coupling of the two sides runs per (target, source)
        assignment pair: the assumption, the FCW excuse, the source's
        consistency at each live activation position, and the injection.
        The target's side of ordering A (:meth:`_target_frame`) is built
        once per target assignment; the source's precondition, entry
        consistency and write targets once per source assignment
        (:meth:`_source_entries`), for a whole state when the source space
        is exhaustive.  Sampled spaces are redrawn for every target
        assignment, as the rng sequence requires, and filtered inline.
        ``cases`` is exact when no witness is found.
        """
        counter = {"cases": 0}
        target_params = tuple(target.params)
        source_params = tuple(source.params)
        dirty = mode in ("statement", "rollback") and dirty_reads
        source_static = None
        if fcw_excuse:
            target_static = (
                fcw_targets if fcw_targets is not None else static_write_targets(target)
            )
            source_static = static_write_targets(source)
        for state0 in states:
            target_space, t_exhaustive = self._assignment_space(target_params, rng)
            exhaustive = exhaustive and t_exhaustive
            exhaustive_sources = None
            for target_env, target_args in target_space:
                source_space, s_exhaustive = self._assignment_space(source_params, rng)
                exhaustive = exhaustive and s_exhaustive
                cases, live = self._target_frame(
                    state0, target, target_env, target_args, assertion
                )
                if not cases and not dirty:
                    continue  # neither ordering can examine a case
                if s_exhaustive:
                    if exhaustive_sources is None:
                        exhaustive_sources = list(self._source_entries(
                            state0, source, source_space, dirty, source_static
                        ))
                    sources = exhaustive_sources
                else:
                    sources = self._source_entries(
                        state0, source, source_space, dirty, source_static
                    )
                if fcw_excuse:
                    target_writes = _concrete_write_targets(
                        target, target_env, restrict=target_static
                    )
                for source_env, source_args, consistency_key, starts, source_writes in sources:
                    if assumption is not TRUE and not self._memo_holds(
                        assumption, state0, {**target_env, **source_env}
                    ):
                        continue
                    if (
                        fcw_excuse
                        and target_writes is not None
                        and source_writes is not None
                        and target_writes & source_writes
                    ):
                        continue  # first-committer-wins aborts one of them
                    # ordering A: the target reached each live position first
                    counter["cases"] += cases
                    witness = None
                    for mid_state, mid_env in live:
                        if not self._memo_holds(
                            source.consistency, mid_state, source_env, consistency_key
                        ):
                            continue
                        witness = self._inject_source(
                            assertion, mid_state, mid_env, source, source_args, mode, stmt
                        )
                        if witness is not None:
                            break
                    if witness is None and dirty and starts:
                        witness = self._scenario_b(
                            state0, target, target_env, target_args, source, source_env,
                            source_args, assertion, mode, stmt, counter,
                        )
                    if witness is not None:
                        witness.env = (witness.env or {}) | {
                            "target_args": target_args,
                            "source_args": source_args,
                        }
                        return witness, counter["cases"], exhaustive
        return None, counter["cases"], exhaustive

    def _target_frame(self, state0, target, target_env, target_args, assertion) -> tuple:
        """Ordering A's target side at ``state0``: ``(cases, live)``.

        ``cases`` counts the target's activation positions once positions
        that share a snapshot *and* an assertion-relevant env view are
        merged: such positions see the same injections, every assertion
        evaluation and hence the witness verdict coincide.  ``live`` lists,
        in trace order, the ``(state, env)`` of the merged positions at
        which the assertion holds, the only ones a source can falsify.
        ``(0, ())`` when the target cannot start at ``state0`` or its run
        fails.
        """
        if not self._memo_holds(target.consistency, state0, target_env):
            return 0, ()
        if not self._memo_holds(target.param_pre, state0, target_env):
            return 0, ()
        try:
            target_trace = self._cached_trace(target, state0, target_args)
        except EvaluationError:
            return 0, ()
        cases = 0
        live = []
        seen: set = set()
        for position in _activation_positions(assertion, target_trace):
            mid_state = target_trace.states[position]
            mid_env = target_trace.envs[position]
            env_key = _env_key(assertion.formula, mid_env)
            if env_key is not None:
                dedupe = (id(mid_state), env_key)
                if dedupe in seen:
                    continue
                seen.add(dedupe)
            cases += 1
            if self._memo_holds(assertion.formula, mid_state, mid_env, env_key):
                live.append((mid_state, mid_env))
        return cases, live

    def _source_entries(self, state0, source, space, dirty, static_targets):
        """The assignments of ``space`` whose precondition holds at ``state0``.

        Yields ``(env, args, consistency_key, starts, writes)``: the
        :func:`_env_key` of ``source.consistency`` under ``env``, whether
        the source can start at ``state0`` (ordering B's entry check, only
        evaluated when ``dirty``), and its concrete write targets under
        ``static_targets`` (None when that is None, i.e. without an FCW
        excuse).
        """
        for env, args in space:
            if not self._memo_holds(source.param_pre, state0, env):
                continue
            consistency_key = _env_key(source.consistency, env)
            starts = dirty and self._memo_holds(
                source.consistency, state0, env, consistency_key
            )
            writes = (
                _concrete_write_targets(source, env, restrict=static_targets)
                if static_targets is not None
                else None
            )
            yield env, args, consistency_key, starts, writes

    def _scenario_b(
        self, state0, target, target_env, target_args, source, source_env,
        source_args, assertion, mode, stmt, counter,
    ) -> Witness | None:
        """The source runs a prefix first; the target reads through it.

        The caller has checked that the source can start at ``state0``.
        """
        try:
            source_trace = self._cached_trace(source, state0, source_args)
        except EvaluationError:
            return None
        write_positions = [k for k, event in enumerate(source_trace.events) if event.is_write]
        if not write_positions:
            return None
        source_cumulative = source_trace.cumulative_writes()
        for k in write_positions:
            # the source has executed k events; its (k+1)-th is a write for
            # statement mode, or the rollback point for rollback mode
            prefix_end = k if mode == "statement" else k + 1
            prefix = source_trace.events[:prefix_end]
            if mode == "statement" and source_trace.events[k].statement != stmt:
                continue
            if mode == "statement" and not prefix:
                continue  # ordering A already covers a source acting fresh
            source_written = source_cumulative[prefix_end]
            # dirty states are identity-stable (the source trace is memoised),
            # so the target trace from each one is memoised too: every
            # obligation over this (state, args) scenario shares it
            dirty_state = source_trace.states[prefix_end]
            if not self._memo_holds(target.consistency, dirty_state, target_env):
                continue
            if not self._memo_holds(target.param_pre, dirty_state, target_env):
                continue
            try:
                target_trace = self._cached_trace(target, dirty_state, target_args)
            except EvaluationError:
                continue
            # only positions at which the target has not yet touched a
            # location the source write-locked are reachable interleavings
            cumulative = target_trace.cumulative_writes()
            seen: set = set()
            for position in _activation_positions(assertion, target_trace):
                if source_written & cumulative[position]:
                    continue  # long write locks forbid this interleaving
                mid_state = target_trace.states[position]
                mid_env = target_trace.envs[position]
                env_key = _env_key(assertion.formula, mid_env)
                if env_key is not None:
                    dedupe = (id(mid_state), env_key)
                    if dedupe in seen:
                        continue  # equivalent to an already-examined position
                    seen.add(dedupe)
                counter["cases"] += 1
                if not self._memo_holds(assertion.formula, mid_state, mid_env, env_key):
                    continue
                if mode == "statement":
                    after = self._memo_stmt_after(stmt, mid_state, source_trace.envs[k])
                    if after is None:
                        continue
                    if not self._memo_holds(assertion.formula, after, mid_env):
                        return Witness(
                            "concrete",
                            f"{stmt!r} of {source.name} (started first) flips {assertion.label}",
                            state=mid_state,
                        )
                else:  # rollback
                    res = assertion.formula.resources()
                    current = mid_state.fork()
                    for event in reversed(prefix):
                        if not event.is_write:
                            continue
                        _apply_undo(current, _event_undo(event))
                        # an undo with a footprint disjoint from the
                        # assertion cannot have changed its value
                        if self._res_overlaps(res, event.statement) and not _holds(
                            assertion.formula, current, mid_env
                        ):
                            return Witness(
                                "rollback",
                                f"rollback of {source.name} after {prefix_end} ops"
                                f" flips {assertion.label} (target read dirty data)",
                                state=mid_state,
                            )
        return None

    def _inject_source(
        self,
        assertion: CriticalAssertion,
        mid_state: DbState,
        mid_env: dict,
        source: TransactionType,
        source_args: dict,
        mode: str,
        stmt: Statement | None,
    ) -> Witness | None:
        if mode == "unit":
            final = self._memo_unit_final(source, mid_state, source_args)
            if final is None:
                return None
            if not self._memo_holds(assertion.formula, final, mid_env):
                return Witness(
                    "concrete",
                    f"{source.name} as a unit flips {assertion.label}",
                    state=mid_state,
                )
            return None
        try:
            source_trace = self._cached_trace(source, mid_state, source_args)
        except EvaluationError:
            return None
        if mode == "statement":
            akey = _env_key(assertion.formula, mid_env)
            for event in source_trace.events:
                if event.statement == stmt and event.is_write:
                    if self._memo_holds(
                        assertion.formula, event.before, mid_env, akey
                    ) and not self._memo_holds(
                        assertion.formula, event.after, mid_env, akey
                    ):
                        return Witness(
                            "concrete",
                            f"{stmt!r} of {source.name} flips {assertion.label}",
                            state=event.before,
                        )
            return None
        if mode == "rollback":
            # undoing a write can only change the assertion's value if the
            # write's footprint overlaps the assertion's resources — the same
            # soundness assumption the disjointness tier rests on — so
            # non-overlapping undo steps skip the evaluation
            res = assertion.formula.resources()
            writes = [(k, event) for k, event in enumerate(source_trace.events) if event.is_write]
            overlapping = [self._res_overlaps(res, event.statement) for _k, event in writes]
            akey = _env_key(assertion.formula, mid_env)
            for j, (k, event) in enumerate(writes):
                # rolling back after write j undoes writes j, j-1, ..., 0
                if not any(overlapping[: j + 1]):
                    continue
                mid = event.after
                if not self._memo_holds(assertion.formula, mid, mid_env, akey):
                    continue
                for i, rolled in zip(range(j, -1, -1), _cached_undo_states(source_trace, k)):
                    if overlapping[i] and not self._memo_holds(
                        assertion.formula, rolled, mid_env, akey
                    ):
                        return Witness(
                            "rollback",
                            f"rollback of {source.name} after {k + 1} ops flips {assertion.label}",
                            state=mid,
                        )
            return None
        raise ValueError(f"unknown BMC mode {mode!r}")


def _proved(premise: Formula, conclusion: Formula) -> ProofResult:
    """The prover's answer to ``premise ⇒ conclusion``; truthy when VALID.

    Comparison literals that are conjuncts of the premise are true in the
    conclusion, and a literal disjunct of the conclusion may be taken false
    in its other disjuncts (were it true, the conclusion would hold).  Both
    rewrites preserve validity and prune the alias and excuse case splits
    before they multiply into DNF cubes.
    """
    known = {}
    for literal in conjuncts(premise):
        if isinstance(literal, Cmp):
            known[literal] = TRUE
            known[literal.negated()] = FALSE
    conclusion = simplify(rewrite_literals(conclusion, known))
    if isinstance(conclusion, Or):
        parts = conclusion.operands
        literals = [part for part in parts if isinstance(part, Cmp)]
        conclusion = disj(*literals, *(
            rewrite_literals(
                part, {**{l: FALSE for l in literals}, **{l.negated(): TRUE for l in literals}}
            )
            for part in parts
            if not isinstance(part, Cmp)
        ))
    return is_valid(implies(premise, conclusion))


def _entry_condition(txn: TransactionType) -> Formula:
    """``I ∧ B`` plus the logical-variable snapshot, at the body's entry."""
    return conj(
        txn.consistency,
        txn.param_pre,
        *(eq(logical, term) for logical, term in txn.snapshot),
    )


def _event_delta(event: TraceEvent) -> frozenset:
    """Locations the event changed, derived from the undo recipe and cached."""
    delta = event.delta
    if delta is None:
        items, fields, rows = _event_undo(event)
        out = set()
        for name, _old in items:
            out.add(("item", name))
        for array, index, attr, _old in fields:
            out.add(("field", array, index, attr))
        for table, added, removed in rows:
            for key in added:
                out.add(("row", table, key))
            for key in removed:
                out.add(("row", table, key))
        delta = frozenset(out)
        event.delta = delta
    return delta


def _activation_positions(assertion: CriticalAssertion, target_trace: Trace) -> list:
    """Trace positions at which the assertion is active."""
    length = target_trace.length
    if assertion.kind == CONSISTENCY:
        return list(range(length + 1))
    if assertion.kind == RESULT:
        return [length]
    if assertion.kind == READ_POST:
        positions: list[int] = []
        for index, event in enumerate(target_trace.events):
            if event.statement == assertion.read_stmt:
                positions.extend(range(index + 1, length + 1))
        return sorted(set(positions))
    if assertion.kind == READ_STEP_POST:
        read_indices = [i for i, event in enumerate(target_trace.events) if not event.is_write]
        write_indices = [i for i, event in enumerate(target_trace.events) if event.is_write]
        if not read_indices:
            return []
        start = read_indices[-1] + 1
        end = write_indices[0] if write_indices else length
        return list(range(start, end + 1))
    raise ValueError(f"unknown assertion kind {assertion.kind!r}")


def _holds(assertion: Formula, state: DbState, env: dict) -> bool:
    """Evaluate an assertion, treating evaluation gaps as 'does not hold'."""
    try:
        return assertion.evaluate(state, env)
    except EvaluationError:
        return False
