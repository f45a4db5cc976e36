"""Rendering helpers for analysis results.

Turns the structured outputs of :mod:`repro.core.conditions` and
:mod:`repro.core.chooser` into the tabular text the benchmarks print —
matching the shape of the paper's Section 6 discussion (transaction type →
lowest correct level, with the failing obligations one level below).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.chooser import ApplicationReport
from repro.core.conditions import LevelCheckResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A plain fixed-width table (no external dependencies)."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    def render_row(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = [render_row(headers), render_row(["-" * w for w in widths])]
    lines.extend(render_row(row) for row in materialised)
    return "\n".join(lines)


def level_table(report: ApplicationReport) -> str:
    """Transaction → chosen level table with confidence annotations."""
    rows = []
    for choice in report.choices:
        chosen = choice.chosen_check
        confidence = "theorem" if chosen.trivially_correct else chosen.confidence
        failures_below = ""
        if len(choice.attempts) > 1:
            below = choice.attempts[-2]
            failures_below = f"{len(below.failures)} failing at {below.level}"
        rows.append((choice.transaction, choice.level, confidence, failures_below))
    return format_table(
        ("transaction", "lowest correct level", "confidence", "evidence below"), rows
    )


def abstract_predicate_note(report: ApplicationReport) -> str:
    """Which obligations only BMC decides because they read an abstract predicate.

    An :class:`~repro.core.formula.AbstractPred` is an opaque Python
    evaluator, so tier 2 has nothing to carry across a write: obligations
    on one go to bounded model checking by design.  One line per target
    and assertion, with its count of distinct obligations; empty when
    there are none.
    """
    counts: dict = {}
    seen: set = set()
    for choice in report.choices:
        for attempt in choice.attempts:
            for ob in attempt.obligations:
                key = (ob.target, ob.assertion.label, ob.source, ob.mode, repr(ob.statement))
                verdict = ob.verdict
                if (
                    verdict is None
                    or not verdict.method.startswith("bmc")
                    or ob.assertion.formula.projectable()
                    or key in seen
                ):
                    continue
                seen.add(key)
                where = (ob.target, ob.assertion.label, repr(ob.assertion.formula))
                counts[where] = counts.get(where, 0) + 1
    if not counts:
        return ""
    lines = [
        "decided by BMC only, by design (an abstract predicate is an opaque"
        " Python evaluator that tier 2 cannot carry across a write):"
    ]
    for (target, label, formula), count in sorted(counts.items()):
        lines.append(f"  {target} {label} {formula}: {count} obligations")
    return "\n".join(lines)


def failure_details(result: LevelCheckResult, limit: int = 10) -> str:
    """Human-readable dump of the failing obligations of a level check."""
    lines = [result.summary()]
    for obligation in result.failures[:limit]:
        lines.append("  " + obligation.describe())
        if obligation.verdict is not None and obligation.verdict.witness is not None:
            witness = obligation.verdict.witness
            lines.append(f"    witness: {witness.description}")
            if witness.state is not None:
                lines.append(f"    state: items={witness.state.items}"
                             f" arrays={witness.state.arrays} tables={witness.state.tables}")
            if witness.env:
                shown = {str(k): v for k, v in witness.env.items()}
                lines.append(f"    env: {shown}")
            if witness.model:
                shown = {str(k): v for k, v in witness.model.items()}
                lines.append(f"    model: {shown}")
    remaining = len(result.failures) - limit
    if remaining > 0:
        lines.append(f"  ... and {remaining} more failing obligations")
    return "\n".join(lines)


def analysis_stats_table(checker) -> str:
    """Per-tier counts and wall time of one checker run, plus cache counters.

    ``checker`` is an :class:`repro.core.interference.InterferenceChecker`;
    the prover memo counters are process-global (the prover is a module).
    """
    from repro.core.prover import prover_cache_stats

    rows = []
    for tier in ("disjoint", "symbolic", "bmc"):
        rows.append(
            (
                tier,
                checker.stats.get(tier, 0),
                f"{checker.tier_times.get(tier, 0.0) * 1000:.1f}",
            )
        )
    rows.append(("assumed", checker.stats.get("assumed", 0), "-"))
    lines = [format_table(("tier", "discharged", "wall ms"), rows)]
    cache = checker.cache.stats
    lines.append("")
    lines.append(
        f"verdict cache:  {cache.hits} hits / {cache.misses} misses"
        f"  (hit rate {cache.hit_rate:.1%}, {len(checker.cache)} entries)"
    )
    lines.append(
        f"checker reuse:  {checker.stats.get('cache_hits', 0)} obligations"
        " answered from cache"
    )
    prover = prover_cache_stats()
    lines.append(
        f"prover memo:    simplify {prover['simplify_hits']} hits /"
        f" {prover['simplify_misses']} misses,"
        f" queries {prover['query_hits']} hits / {prover['query_misses']} misses"
        f" ({prover['term_memo_size']}t/{prover['formula_memo_size']}f"
        f"/{prover['query_memo_size']}q/{prover['literal_memo_size']}l entries)"
    )
    lines.append(
        f"integer cubes: {prover['cubes_sat']} sat / {prover['cubes_unsat']} unsat"
        f" / {prover['cubes_open']} undecided; search: {prover['search_nodes']} nodes,"
        f" {prover['search_pruned']} pruned by bounds, {prover['search_leaves']} leaves,"
        f" {prover['congruence_splits']} congruence splits"
    )
    if cache.persist_hits:
        lines.append(
            f"persist:        {cache.persist_hits} hits answered by disk-warmed entries"
        )
    if checker.declined:
        lines.append("")
        lines.append(
            format_table(
                ("tier 2 declined", "reached bmc"),
                sorted(checker.declined.items(), key=lambda item: (-item[1], item[0])),
            )
        )
    return "\n".join(lines)


def obligation_stats(results: Iterable[LevelCheckResult]) -> dict:
    """Aggregate obligation counts and tier usage across level checks."""
    stats = {
        "levels": 0,
        "obligations": 0,
        "excused": 0,
        "failed": 0,
        "by_method": {},
        "by_confidence": {},
    }
    for result in results:
        stats["levels"] += 1
        for ob in result.obligations:
            stats["obligations"] += 1
            if ob.excused is not None:
                stats["excused"] += 1
                continue
            if not ob.ok:
                stats["failed"] += 1
            if ob.verdict is not None:
                method = ob.verdict.method
                confidence = ob.verdict.confidence
                stats["by_method"][method] = stats["by_method"].get(method, 0) + 1
                stats["by_confidence"][confidence] = (
                    stats["by_confidence"].get(confidence, 0) + 1
                )
    return stats
