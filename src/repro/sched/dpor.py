"""Source-set dynamic partial-order reduction over engine conflict granules.

The explorer (:mod:`repro.sched.explore`) replaces sibling
enumeration with *race reversal* (Flanagan & Godefroid's DPOR, with the
source-set refinement of Abdulla et al., specialised to transaction
isolation levels after Bouajjani, Enea & Román-Calvo): after each run,
this module derives per-step access sets from the engine's own history,
indexes them per granule and access kind (one read/write/probe bitmask
triple per granule, so each step finds the earlier steps it depends on
without a pairwise scan), closes that dependence with program order into
happens-before bitmasks, finds the *immediate* races — dependent step
pairs with no happens-before path between them — and
reports, per race, the decision depth to revisit plus the instances whose
scheduling there can realise the reversed trace (the source set).  Only
those reversals are explored; schedules that merely commute independent
steps are never generated in the first place.

The access model is **level-aware** — the part that makes the reduction
sharp for this engine rather than a generic one:

* blocked attempts are *not* no-ops, but they are not writes either: an
  attempt on granule ``g`` makes a *probe* access that conflicts with
  reads and writes of ``g`` (so a queued writer races with the commit or
  abort that releases the lock — the reversals that change whether it
  blocks) but never with another probe: reordering two queued attempts
  leaves the waits-for graph, the victim choice and every outcome
  untouched, and treating them as racy spins an unbounded family of
  schedules differing only in no-op attempt placement;
* SNAPSHOT operations are private (reads resolve version chains against
  the begin snapshot, writes are buffered in the overlay): only the
  *begin* (which fixes the visibility of every chain in the transaction's
  static footprint — its snapshot baseline and the commit stamps that
  first-committer-wins will validate) and the *commit* (which publishes
  the write set as committed versions, or validation-reads the chains'
  commit stamps when FCW fails) carry accesses.  Two SI writers'
  in-flight operations therefore never race; their interaction is fully
  captured at begin/commit, so no reversal that first-committer-wins
  already forbids is ever enqueued;
* commits and aborts access exactly the granules they publish or undo
  (the ``writes``/``reads`` footprint the engine records on the history
  op), not "everything";
* commit/commit order is additionally observable through the semantic
  checker's commit-order serial replay, so two commits are dependent
  whenever one transaction's writes intersect the other's full footprint
  — even when the write sets themselves are disjoint;
* transaction *begin* order is only observable through deadlock victim
  selection (the youngest transaction in the cycle aborts), so begins are
  mutually ordered only in runs that actually witnessed a deadlock;
* every begin also reads the granules its ghost-binding snapshot terms
  mention (the paper's ``x_i = X_i`` conjunct is evaluated against the
  committed state of that moment), so reversals that change a logical
  variable's baseline — and with it the semantic verdict — are kept.

FCW and guard-veto aborts reference validation state that is awkward to
granule-ise precisely; they access the wildcard granule (dependent on
everything), which can only add races, never lose one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.program import Delete, Insert, Update
from repro.core.state import DbState
from repro.core.terms import Field, Item
from repro.sched.policy import DEPENDENT, ORDER_GRANULE, StepRecord, _resource

#: Wildcard granule: conflicts with every other granule.  Used for the
#: rare steps whose exact footprint is not worth deriving (FCW/guard-veto
#: aborts, history ops without a key).
ANY_GRANULE = ("*",)

#: Access kind of a blocked lock attempt: conflicts with reads and writes
#: of the granule (the probe's outcome depends on both) but not with other
#: probes (two queued attempts commute).
PROBE = "probe"

_SNAPSHOT = "SNAPSHOT"
_EMPTY_STATE = DbState()


def _kinds_conflict(kind_a, kind_b) -> bool:
    """Access-kind conflict matrix: read/write/:data:`PROBE`."""
    if kind_a == PROBE and kind_b == PROBE:
        return False
    return bool(kind_a) or bool(kind_b)  # read-read is the only other no-op


def _granules_conflict(a: tuple, b: tuple) -> bool:
    """Granule equality extended with wildcards and coarse array granules."""
    if a == ANY_GRANULE or b == ANY_GRANULE:
        return True
    if a == b:
        return True
    # ("record", array, None) is the coarse whole-array granule produced
    # when a static index cannot be evaluated from the parameters alone
    if (
        a[0] == "record"
        and b[0] == "record"
        and a[1] == b[1]
        and (a[2] is None or b[2] is None)
    ):
        return True
    return False


def _access_conflict(acc_a, acc_b) -> bool:
    """Do two access sets share a granule with conflicting kinds?"""
    for granule, kind in acc_a:
        for other, other_kind in acc_b:
            if _kinds_conflict(kind, other_kind) and _granules_conflict(granule, other):
                return True
    return False


def accesses_conflict(sig_a, sig_b) -> bool:
    """Sleep-set conflict test over level-aware access signatures."""
    if sig_a is None or sig_b is None or DEPENDENT in (sig_a, sig_b):
        return True
    return _access_conflict(sig_a, sig_b)


def _sets_conflict(writes, footprint) -> bool:
    for granule in writes:
        for other in footprint:
            if _granules_conflict(granule, other):
                return True
    return False


def _footprints_meet(footprints: dict, a, b) -> bool:
    """Commit/commit dependence: one transaction's writes meet the other's
    full run footprint (``(reads, writes)`` per transaction)."""
    reads_a, writes_a = footprints.get(a, (frozenset(), frozenset()))
    reads_b, writes_b = footprints.get(b, (frozenset(), frozenset()))
    return _sets_conflict(writes_a, reads_b | writes_b) or _sets_conflict(
        writes_b, reads_a | writes_a
    )


#: Mask slot of each access kind, and the slots each kind conflicts with
#: (:func:`_kinds_conflict`'s matrix): a read hits writes and probes, a
#: write hits everything, a probe hits reads and writes.
_SLOT = {False: 0, True: 1, PROBE: 2}
_HITS = ((1, 2), (0, 1, 2), (0, 1))


class _GranuleIndex:
    """Step bitmasks per granule and access kind, for one run.

    Answers "which earlier steps conflict with this access set?" by
    :func:`_access_conflict`'s rule without a pairwise scan: exact
    granules, every record granule of an array (what a coarse
    ``("record", a, None)`` granule meets), the coarse granules of an
    array (what an exact record granule meets besides itself),
    :data:`ANY_GRANULE` accesses, and all accesses (what
    :data:`ANY_GRANULE` meets) each keep a read/write/probe mask triple.
    """

    def __init__(self) -> None:
        self.exact: dict = {}
        self.arrays: dict = {}
        self.coarse: dict = {}
        self.wild = [0, 0, 0]
        self.every = [0, 0, 0]

    def conflicts(self, acc) -> int:
        """Bits of the indexed steps that conflict with ``acc``."""
        dep = 0
        for granule, kind in acc:
            hits = _HITS[_SLOT[kind]]
            if granule == ANY_GRANULE:
                sources = (self.every,)
            else:
                sources = [self.wild]
                masks = self.exact.get(granule)
                if masks is not None:
                    sources.append(masks)
                if granule[0] == "record":
                    table = self.arrays if granule[2] is None else self.coarse
                    masks = table.get(granule[1])
                    if masks is not None:
                        sources.append(masks)
            for masks in sources:
                for slot in hits:
                    dep |= masks[slot]
        return dep

    def add(self, acc, step: int) -> None:
        """Index step number ``step`` under every access of ``acc``."""
        bit = 1 << step
        for granule, kind in acc:
            slot = _SLOT[kind]
            self.every[slot] |= bit
            if granule == ANY_GRANULE:
                self.wild[slot] |= bit
                continue
            self.exact.setdefault(granule, [0, 0, 0])[slot] |= bit
            if granule[0] == "record":
                self.arrays.setdefault(granule[1], [0, 0, 0])[slot] |= bit
                if granule[2] is None:
                    self.coarse.setdefault(granule[1], [0, 0, 0])[slot] |= bit


# ---------------------------------------------------------------------------
# static footprints (ghost-binding terms, SNAPSHOT begin baselines)
# ---------------------------------------------------------------------------


def _term_granules(term, params_env: dict) -> set:
    """Granules a term's evaluation reads, indices resolved from params.

    An index that cannot be evaluated without database state or locals
    degrades to the coarse whole-array granule ``("record", array, None)``.
    """
    out: set = set()
    for atom in term.atoms():
        if isinstance(atom, Item):
            out.add(("item", atom.name))
        elif isinstance(atom, Field):
            try:
                index = atom.index.evaluate(_EMPTY_STATE, params_env)
            except Exception:
                index = None
            out.add(("record", atom.array, index))
    return out


def static_footprint(txn_type, args: dict) -> tuple:
    """``(ghost_granules, read_granules, write_granules)`` of one spec.

    ``ghost_granules`` are the granules the transaction's ghost-binding
    snapshot terms read at begin; the read/write sets over-approximate
    every granule the program body can touch (together they form the
    SNAPSHOT begin baseline; split, they feed the static deadlock check).
    """
    params_env = {
        param: args[param.name] for param in txn_type.params if param.name in args
    }
    ghost: set = set()
    for _logical, term in txn_type.snapshot:
        ghost |= _term_granules(term, params_env)
    reads: set = set()
    writes: set = set()
    for stmt in txn_type.statements():
        source = getattr(stmt, "source", None)
        if source is not None:
            reads |= _term_granules(source, params_env)
        target = getattr(stmt, "target", None)
        if target is not None:
            writes |= _term_granules(target, params_env)
        array = getattr(stmt, "array", None)
        if array is not None:  # ReadRecord
            try:
                index = stmt.index.evaluate(_EMPTY_STATE, params_env)
            except Exception:
                index = None
            reads.add(("record", array, index))
        table = getattr(stmt, "table", None)
        if table is not None:
            if isinstance(stmt, (Insert, Update, Delete)):
                writes.add(("table", table))
            else:
                reads.add(("table", table))
    return frozenset(ghost), frozenset(reads), frozenset(writes)


def may_deadlock(specs: Sequence, footprints: Sequence) -> bool:
    """Can this instance set possibly deadlock, by static lock shapes?

    Deadlock needs a hold-and-wait cycle: every participant holds a long
    lock another participant waits for, *while* waiting itself.  Per
    level, an instance may hold long locks on (RR/SER and unknown levels)
    everything it touches, (RU/RC) only what it writes, (SNAPSHOT)
    nothing — SI waits at commit validation but holds no lock anyone else
    can queue on.  The over-approximated waits-for edge ``i -> j``
    requires a granule ``g`` that ``i`` may request and ``j`` may hold,
    plus something ``i`` may hold meanwhile: a *different* granule, or a
    long shared lock on ``g`` itself that the request upgrades (the
    S-then-X upgrade deadlock needs only one granule).  No cycle means
    transaction begin order can never be observed through victim
    selection, so the explorer need not reverse it.
    """
    n = len(specs)
    read_holds: list = []
    holds: list = []
    requests: list = []
    for spec, (_ghost, reads, writes) in zip(specs, footprints):
        level = spec.level
        if level == _SNAPSHOT:
            read_holds.append(frozenset())
            holds.append(frozenset())
            requests.append(writes)  # commit validation waits on X holders
        elif level in ("READ UNCOMMITTED", "READ COMMITTED", "READ COMMITTED FCW"):
            read_holds.append(frozenset())  # short S never held across steps
            holds.append(writes)  # long X only
            requests.append(reads | writes)
        else:  # RR / SERIALIZABLE / anything unknown: be conservative
            read_holds.append(reads)
            holds.append(reads | writes)
            requests.append(reads | writes)
    edges: dict = {i: set() for i in range(n)}
    for i in range(n):
        _ghost_i, _reads_i, writes_i = footprints[i]
        for j in range(n):
            if i == j:
                continue
            for g in requests[i]:
                if not _sets_conflict((g,), holds[j]):
                    continue
                held_other = any(not _granules_conflict(h, g) for h in holds[i])
                upgrade = _sets_conflict((g,), read_holds[i]) and _sets_conflict(
                    (g,), writes_i
                )
                if held_other or upgrade:
                    edges[i].add(j)
                    break
    # cycle check over a tiny graph: depth-first with a colour map
    colour = {i: 0 for i in range(n)}  # 0 new, 1 on stack, 2 done

    def visit(i: int) -> bool:
        colour[i] = 1
        for j in edges[i]:
            if colour[j] == 1 or (colour[j] == 0 and visit(j)):
                return True
        colour[i] = 2
        return False

    return any(colour[i] == 0 and visit(i) for i in range(n))


# ---------------------------------------------------------------------------
# per-run race analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Race:
    """One immediate race: revisit ``depth`` and schedule an initial there."""

    depth: int  # decision depth of the earlier step
    initials: frozenset  # instances that can start the reversed trace
    preferred: int  # the later step's instance (scheduled when possible)


class RaceAnalyzer:
    """Level-aware dependence and race detection for one instance set."""

    def __init__(self, specs: Sequence) -> None:
        self.specs = list(specs)
        footprints = [static_footprint(spec.txn_type, spec.args) for spec in self.specs]
        self._ghost = [ghost for ghost, _reads, _writes in footprints]
        self._reads = [reads for _ghost, reads, _writes in footprints]
        self._body = [reads | writes for _ghost, reads, writes in footprints]
        # when no hold-and-wait cycle is statically possible, begin order
        # can never be observed (victim selection is the only observer)
        # and the explorer skips every begin-order reversal
        self.may_deadlock = may_deadlock(self.specs, footprints)

    # -- access model -------------------------------------------------------
    def step_accesses(self, record, levels: dict, order_begins: bool) -> frozenset:
        """The level-aware ``(granule, is_write)`` set of one step."""
        acc: set = set()
        snapshot = record.level == _SNAPSHOT
        for op in record.ops:
            if op.kind == "begin":
                for granule in self._ghost[record.index]:
                    acc.add((granule, False))
                if snapshot:
                    # the begin snapshot fixes every future read and the
                    # FCW version baseline of every future write
                    for granule in self._body[record.index]:
                        acc.add((granule, False))
                if order_begins:
                    acc.add((ORDER_GRANULE, True))
            elif op.kind == "commit":
                for key in op.info.get("writes", ()):
                    acc.add((_resource(key), True))
                for key in op.info.get("reads", ()):
                    acc.add((_resource(key), False))
            elif op.kind == "abort":
                reason = op.info.get("reason", "")
                aborted_snapshot = levels.get(op.txn_id) == _SNAPSHOT
                if "first-committer-wins" in reason and aborted_snapshot:
                    # failed SI commit: validation read the write set's
                    # chain commit stamps; nothing was published
                    for key in op.info.get("writes", ()):
                        acc.add((_resource(key), False))
                elif "first-committer-wins" in reason or "guard veto" in reason:
                    acc.add((ANY_GRANULE, True))
                elif aborted_snapshot:
                    pass  # buffered writes discarded privately
                else:
                    # unstamping drops the pending versions (restoring the
                    # prior chain heads) and the lock release unblocks
                    # queued readers/writers
                    for key in op.info.get("writes", ()):
                        acc.add((_resource(key), True))
                    for key in op.info.get("reads", ()):
                        acc.add((_resource(key), False))
            else:  # r | w | ins | del | upd
                if snapshot:
                    continue  # private snapshot read / buffered write
                if op.key is None:
                    acc.add((ANY_GRANULE, True))
                else:
                    acc.add((_resource(op.key), op.kind != "r"))
        if record.blocked_on is not None:
            key, _mode = record.blocked_on
            acc.add((_resource(key), PROBE))
        return frozenset(acc)

    def online_signature(self, runtime, ops, record=None) -> frozenset:
        """Level-aware access signature of one just-executed step.

        The explorer's sleep-set signature: a commit or abort carries only
        the granules it publishes or undoes, so it wakes only the sleeping
        siblings that touch them.  Conservative where the run-wide
        context is unknown: begins always carry the ordering granule (a
        later deadlock could make begin order observable) and aborted
        transactions of other instances are assumed non-SNAPSHOT.  When
        the caller passes the step's ``record``, the access set is kept on
        it (before the commit and empty-set adjustments below) for
        :meth:`analyze` to reuse.
        """
        if record is None:
            record = StepRecord(
                depth=-1,
                index=runtime.index,
                txn_id=runtime.txn.txn_id if runtime.txn is not None else None,
                level=runtime.spec.level,
                ops=tuple(ops),
                blocked_on=runtime.last_block if runtime.blocked else None,
            )
        acc = self.step_accesses(record, {}, self.may_deadlock)
        record.accesses = acc
        if any(op.kind == "commit" for op in record.ops):
            # commit order between two transactions is observable through
            # the semantic checker's serial replay whenever one's writes
            # meet the other's footprint (see :meth:`analyze`); the commit
            # history op only carries long-lock reads (empty at RC/SI), so
            # a commit's sleep signature must read the *static* read
            # footprint or two write-skewed commits would never wake each
            # other and the reversed commit order would be sleep-pruned
            acc = acc | frozenset(
                (granule, False) for granule in self._reads[record.index]
            )
        if not acc and not record.ops:
            # nothing recorded and no block noted: unknown step, stay
            # conservative (an empty set from *private* SNAPSHOT ops is
            # fine — those genuinely commute with everything)
            return frozenset(((ANY_GRANULE, True),))
        return acc

    # -- race detection -----------------------------------------------------
    def analyze(self, steps: Sequence) -> list:
        """Immediate races of one recorded run, as :class:`Race` items.

        One forward pass.  ``dep[j]`` (the earlier steps of other
        instances dependent with step ``j``) is read off the granule
        index, and ``pred[j]`` is its happens-before closure with program
        order.  Because ``pred`` is transitively closed, the steps that
        order a dependent pair ``(i, j)`` through an intermediate step
        are exactly ``covered = ∪ pred[k]`` over ``j``'s direct
        predecessors ``k``, so the pair is an immediate race iff bit
        ``i`` is not in ``covered``.  Races come out ``j`` ascending, then
        ``i`` ascending.
        """
        n = len(steps)
        if n < 2:
            return []
        levels = {}
        for record in steps:
            if record.txn_id is not None:
                levels[record.txn_id] = record.level
        order_begins = any(
            op.kind == "abort" and op.info.get("reason") == "deadlock victim"
            for record in steps
            for op in record.ops
        )
        begins_agree = order_begins == self.may_deadlock
        footprints = self._txn_footprints(steps)
        index = _GranuleIndex()
        commit_steps: list = []  # (step, txn) of the commits so far
        commit_mask = 0
        instance_mask: dict = {}  # instance -> bits of its steps so far
        pred = [0] * n
        races: list = []
        for j, record in enumerate(steps):
            # the online access set was taken with no levels (read only by
            # aborts) and may_deadlock for order_begins (read only by begins)
            acc = record.accesses
            if acc is None or any(
                op.kind == "abort" or (op.kind == "begin" and not begins_agree)
                for op in record.ops
            ):
                acc = self.step_accesses(record, levels, order_begins)
            dep = index.conflicts(acc)
            txn = self._commit_txn(record)
            if txn is not None:
                # commit order is observable through the semantic checker's
                # serial replay whenever the transactions touch each other:
                # the footprint rule replaces the access rule between commits
                dep &= ~commit_mask
                for i, other in commit_steps:
                    if _footprints_meet(footprints, other, txn):
                        dep |= 1 << i
                commit_steps.append((j, txn))
                commit_mask |= 1 << j
            own = instance_mask.get(record.index, 0)
            dep &= ~own
            index.add(acc, j)
            instance_mask[record.index] = own | (1 << j)
            covered = 0
            direct = dep
            if own:  # the program-order predecessor is own's highest bit
                prev = own.bit_length() - 1
                covered = pred[prev]
                direct |= 1 << prev
            # union the predecessors' closures, highest first: a step
            # already covered brings nothing new (its closure is inside)
            rest = dep
            while rest:
                i = rest.bit_length() - 1
                rest ^= 1 << i
                if not (covered >> i) & 1:
                    covered |= pred[i]
            pred[j] = covered | direct
            racing = dep & ~covered
            while racing:
                low = racing & -racing
                racing ^= low
                i = low.bit_length() - 1
                # source set: the initials of notdep(i) . j — the steps after
                # i that are not causally behind it, restricted to the ones
                # nothing else in that suffix precedes
                suffix = 1 << j
                for k in range(i + 1, j):
                    if not (pred[k] >> i) & 1:
                        suffix |= 1 << k
                initials = set()
                for k in range(i + 1, j + 1):
                    if (suffix >> k) & 1 and not pred[k] & suffix:
                        initials.add(steps[k].index)
                races.append(
                    Race(
                        depth=steps[i].depth,
                        initials=frozenset(initials),
                        preferred=record.index,
                    )
                )
        return races

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _commit_txn(record):
        for op in record.ops:
            if op.kind == "commit":
                return op.txn_id
        return None

    @staticmethod
    def _txn_footprints(steps) -> dict:
        """Per-transaction ``(reads, writes)`` granule sets over the run."""
        footprints: dict = {}
        for record in steps:
            for op in record.ops:
                reads, writes = footprints.setdefault(op.txn_id, (set(), set()))
                if op.kind == "r" and op.key is not None:
                    reads.add(_resource(op.key))
                elif op.kind in ("w", "ins", "upd", "del") and op.key is not None:
                    writes.add(_resource(op.key))
                elif op.kind in ("commit", "abort"):
                    for key in op.info.get("writes", ()):
                        writes.add(_resource(key))
                    for key in op.info.get("reads", ()):
                        reads.add(_resource(key))
        return {
            txn_id: (frozenset(reads), frozenset(writes))
            for txn_id, (reads, writes) in footprints.items()
        }
