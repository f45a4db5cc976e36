"""The static dependency graph (SDG): a conflict-graph view of an application.

The per-level theorems discharge non-interference obligations with a prover
and a bounded model checker, but a large fraction of those obligations are
trivially non-interfering because the statement and the assertion touch
disjoint data — a fact decidable from read/write sets alone.  This module
makes that fact a first-class artifact, in the spirit of the syntactic
"dangerous structures" line of work (Berenson et al., *A Critique of ANSI
SQL Isolation Levels*; Fekete et al.'s adjacent rw-antidependency pairs):

* per-statement and per-transaction **footprints** — the read, written and
  predicate-read :mod:`repro.core.resources` of a program, plus the
  resources its critical assertions (``I_i``, read postconditions, ``Q_i``)
  depend on;
* the **static conflict graph** over transaction *types*, with directed
  edges labelled ``wr`` (the source writes something the target reads),
  ``ww`` (overlapping write sets) and ``rw`` (the anti-dependency: the
  source reads something the target writes);
* **dangerous structures** — edge patterns that match the Critique's
  anomalies: an adjacent pair of rw-antidependencies with disjoint write
  sets (SNAPSHOT write skew, the paper's Example 3), and a
  read-modify-write cycle on a shared resource (the READ COMMITTED lost
  update);
* a per-level **statically safe** verdict: a type none of whose protected
  assertions can be reached by any partner's writes is correct at that
  level with no prover involvement at all.

Soundness boundary: footprint disjointness may only *certify safety*
(resources over-approximate reachable locations, so "disjoint" is exact);
dangerous structures may only *flag risk* (the annotations may tolerate the
anomaly, as the paper's Theorem 5 examples show).  The certification
pipeline (:mod:`repro.pipeline.certify`) therefore treats an SDG "safe"
verdict contradicting a prover failure as a bug, but an un-confirmed
dangerous structure as ordinary imprecision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.application import Application
from repro.core.program import (
    Delete,
    Select,
    SelectCount,
    SelectScalar,
    TransactionType,
    Update,
)
from repro.core.resources import Resource, overlaps
from repro.errors import AnalysisError

#: Conflict edge kinds (source -> target).
WR = "wr"  # source writes a resource the target reads
WW = "ww"  # source and target write sets overlap
RW = "rw"  # source reads a resource the target writes (anti-dependency)

EDGE_KINDS = (WR, WW, RW)


# ---------------------------------------------------------------------------
# footprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Footprint:
    """The resource footprint of one transaction type.

    ``reads``/``writes`` come from the program body; ``predicate_reads`` is
    the subset of reads contributed by relational WHERE clauses (the
    phantom-sensitive part); ``asserts`` is what the type's critical
    assertions — ``I_i``, every read postcondition, ``Q_i`` — depend on,
    i.e. the surface a partner's write must touch to interfere at all.
    """

    reads: frozenset
    writes: frozenset
    predicate_reads: frozenset
    asserts: frozenset

    def to_dict(self) -> dict:
        return {
            "reads": sorted(map(repr, self.reads)),
            "writes": sorted(map(repr, self.writes)),
            "predicate_reads": sorted(map(repr, self.predicate_reads)),
            "asserts": sorted(map(repr, self.asserts)),
        }


def _predicate_read_resources(txn: TransactionType) -> frozenset:
    """Resources read through relational predicates (WHERE clauses)."""
    out: set[Resource] = set()
    for stmt in txn.statements():
        if isinstance(stmt, (Select, SelectScalar, SelectCount, Update, Delete)):
            from repro.core.program import _where_resources

            out |= _where_resources(stmt.table, stmt.row, stmt.where)
    return frozenset(out)


def assertion_resources(txn: TransactionType) -> frozenset:
    """Resources the type's critical assertions depend on.

    Mirrors exactly the assertions the theorems protect: the consistency
    conjuncts ``I_i``, the (explicit or canonical) postcondition of every
    read, and the result ``Q_i``.  Over-approximating here is safe; the
    union is what a partner's write set must miss for the type to be
    statically safe.
    """
    from repro.core.conditions import read_post_assertions

    out: set[Resource] = set(txn.consistency.resources())
    out |= set(txn.result.resources())
    for _stmt, assertion in read_post_assertions(txn):
        out |= set(assertion.formula.resources())
    return frozenset(out)


def transaction_footprint(txn: TransactionType) -> Footprint:
    """The full static footprint of one transaction type."""
    return Footprint(
        reads=txn.read_resources(),
        writes=txn.written_resources(),
        predicate_reads=_predicate_read_resources(txn),
        asserts=assertion_resources(txn),
    )


def _overlap(a, b) -> frozenset:
    """The resources of ``a`` that can overlap some resource of ``b``."""
    from repro.core.resources import _pair_overlaps

    return frozenset(x for x in a if any(_pair_overlaps(x, y) for y in b))


# ---------------------------------------------------------------------------
# the conflict graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConflictEdge:
    """One labelled conflict between two transaction types.

    ``source == target`` models two concurrent instances of the same type
    (the paper's obligations always include the self-pair).  ``resources``
    is the overlapping resource set that induces the edge, taken from the
    source's side of the conflict.
    """

    source: str
    target: str
    kind: str
    resources: frozenset

    def __repr__(self) -> str:
        shared = ", ".join(sorted(map(repr, self.resources)))
        return f"<{self.kind} {self.source} -> {self.target} on {{{shared}}}>"

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "kind": self.kind,
            "resources": sorted(map(repr, self.resources)),
        }


@dataclass
class ConflictGraph:
    """The static conflict graph of one application."""

    application: str
    nodes: tuple
    footprints: dict = field(default_factory=dict)  # name -> Footprint
    edges: list = field(default_factory=list)  # ConflictEdge
    relational: bool = False

    def footprint(self, name: str) -> Footprint:
        try:
            return self.footprints[name]
        except KeyError:
            raise AnalysisError(f"no transaction type {name!r} in the conflict graph")

    def edges_between(self, source: str, target: str, kind: str | None = None) -> list:
        return [
            edge
            for edge in self.edges
            if edge.source == source
            and edge.target == target
            and (kind is None or edge.kind == kind)
        ]

    def edges_into(self, target: str, kind: str | None = None) -> list:
        return [
            edge
            for edge in self.edges
            if edge.target == target and (kind is None or edge.kind == kind)
        ]

    def to_dict(self) -> dict:
        return {
            "application": self.application,
            "nodes": list(self.nodes),
            "relational": self.relational,
            "footprints": {name: fp.to_dict() for name, fp in self.footprints.items()},
            "edges": [edge.to_dict() for edge in self.edges],
        }


def build_graph(app: Application) -> ConflictGraph:
    """Construct the static conflict graph of an application.

    Every ordered pair of types (self-pairs included — two instances of the
    same type run concurrently) gets a ``wr``, ``ww`` and/or ``rw`` edge
    when the corresponding footprints overlap at the resource granularity
    of :mod:`repro.core.resources` (indices and predicates ignored — sound
    for disjointness, conservative for conflict).
    """
    graph = ConflictGraph(
        application=app.name,
        nodes=tuple(app.transaction_names()),
        relational=app.is_relational,
    )
    for txn in app.transactions:
        graph.footprints[txn.name] = transaction_footprint(txn)
    for source in graph.nodes:
        src = graph.footprints[source]
        for target in graph.nodes:
            dst = graph.footprints[target]
            ww = _overlap(src.writes, dst.writes)
            if ww:
                graph.edges.append(ConflictEdge(source, target, WW, ww))
            wr = _overlap(src.writes, dst.reads | dst.asserts)
            if wr:
                graph.edges.append(ConflictEdge(source, target, WR, wr))
            rw = _overlap(src.reads | src.asserts, dst.writes)
            if rw:
                graph.edges.append(ConflictEdge(source, target, RW, rw))
    return graph


# ---------------------------------------------------------------------------
# dangerous structures
# ---------------------------------------------------------------------------

WRITE_SKEW = "snapshot-write-skew"
LOST_UPDATE = "rc-lost-update"


@dataclass(frozen=True)
class DangerousStructure:
    """One edge pattern matching a Critique anomaly.

    These are *risk flags*, not verdicts: the assertions of the involved
    types may tolerate the anomaly (the prover decides), and conversely
    their absence does not certify safety at the flagged level (predicate-
    level conflicts are coarsened away).  ``level`` names the weakest
    isolation level at which the pattern is live.
    """

    kind: str
    transactions: tuple  # involved type names, sorted
    level: str
    resources: frozenset
    detail: str

    def __repr__(self) -> str:
        return f"<{self.kind} {'/'.join(self.transactions)}>"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "transactions": list(self.transactions),
            "level": self.level,
            "resources": sorted(map(repr, self.resources)),
            "detail": self.detail,
        }


def dangerous_structures(graph: ConflictGraph) -> list:
    """Detect the Critique's anomaly patterns in the conflict graph.

    * **SNAPSHOT write skew** (A5B): a pair of types with rw
      anti-dependencies in both directions and *disjoint* write sets —
      first-committer-wins cannot break the cycle, so Theorem 5's
      condition 1 never applies (the banking Withdraw_sav/Withdraw_ch
      pair).
    * **READ COMMITTED lost update** (P4): a type that reads and rewrites a
      resource some partner also writes — short read locks admit the
      partner's write between the read and the write (the withdraw-race
      pair; self-pairs count).
    """
    from repro.core.conditions import READ_COMMITTED, SNAPSHOT

    found: list[DangerousStructure] = []
    seen_skew: set = set()
    for a in graph.nodes:
        fp_a = graph.footprints[a]
        for b in graph.nodes:
            fp_b = graph.footprints[b]
            pair = tuple(sorted((a, b)))
            # write skew: rw both ways, ww empty, distinct writes on each side
            if (
                pair not in seen_skew
                and fp_a.writes
                and fp_b.writes
                and not _overlap(fp_a.writes, fp_b.writes)
                and _overlap(fp_a.reads | fp_a.asserts, fp_b.writes)
                and _overlap(fp_b.reads | fp_b.asserts, fp_a.writes)
            ):
                seen_skew.add(pair)
                shared = _overlap(fp_a.reads | fp_a.asserts, fp_b.writes) | _overlap(
                    fp_b.reads | fp_b.asserts, fp_a.writes
                )
                found.append(
                    DangerousStructure(
                        kind=WRITE_SKEW,
                        transactions=pair,
                        level=SNAPSHOT,
                        resources=shared,
                        detail=(
                            f"adjacent rw anti-dependencies {a} <-> {b} with disjoint"
                            " write sets: first-committer-wins cannot break the cycle"
                        ),
                    )
                )
            # lost update: a reads-and-writes r, b writes r
            rmw = _overlap(_overlap(fp_a.reads, fp_a.writes), fp_b.writes)
            if rmw:
                found.append(
                    DangerousStructure(
                        kind=LOST_UPDATE,
                        transactions=tuple(sorted({a, b})),
                        level=READ_COMMITTED,
                        resources=rmw,
                        detail=(
                            f"{a} reads then rewrites {sorted(map(repr, rmw))} which"
                            f" {b} also writes: short read locks admit the lost update"
                        ),
                    )
                )
    # one lost-update record per unordered pair
    unique: dict = {}
    for structure in found:
        key = (structure.kind, structure.transactions)
        if key not in unique:
            unique[key] = structure
    return sorted(unique.values(), key=lambda s: (s.kind, s.transactions))


# ---------------------------------------------------------------------------
# per-level statically-safe verdicts
# ---------------------------------------------------------------------------


def statically_safe(graph: ConflictGraph, name: str, level: str) -> bool:
    """Whether the SDG alone certifies ``name`` correct at ``level``.

    The verdict is sound by construction: it holds exactly when every
    obligation the level's theorem would enumerate has a disjoint
    footprint, so the prover could only confirm it.

    * SERIALIZABLE — unconditionally correct (the paper's base case);
    * REPEATABLE READ in the conventional model — Theorem 4;
    * READ UNCOMMITTED — partner writes must miss ``I_i``, the read
      postconditions *and* ``Q_i`` (Theorem 1 checks all three);
    * everything else — partner writes must miss the read postconditions
      and ``Q_i`` (Theorems 2/3/5/6 protect those).

    ``I_i`` is part of the protected surface at every level: it appears in
    the Theorem 1 obligations directly, and read postconditions in the
    bundled applications conjoin it.  The distinction between levels is the
    granularity of the incoming edges — at READ UNCOMMITTED *statement*
    writes and rollbacks are the sources, above it whole transactions — but
    both coarsen to the same resource union, which is why one wr/ww edge
    check decides each rung.
    """
    from repro.core.conditions import (
        LEVEL_ORDER,
        REPEATABLE_READ,
        SERIALIZABLE,
    )

    if level not in LEVEL_ORDER:
        raise AnalysisError(f"unknown isolation level {level!r}")
    if level == SERIALIZABLE:
        return True
    if level == REPEATABLE_READ and not graph.relational:
        return True
    protected = graph.footprint(name).asserts
    for source in graph.nodes:
        if overlaps(protected, graph.footprints[source].writes):
            return False
    return True


def safe_levels(graph: ConflictGraph, name: str, ladder) -> list:
    """The ladder levels at which ``name`` is statically safe, in order."""
    return [level for level in ladder if statically_safe(graph, name, level)]

