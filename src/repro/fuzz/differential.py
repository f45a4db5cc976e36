"""One fuzz case end to end: synthesize, infer, choose, probe, classify.

The differential check drives the whole pipeline on one generated seed:

1. generate the unannotated application (:mod:`repro.workloads.appgen`)
   and infer its annotations (:func:`repro.core.infer.infer_application`);
2. run the Section 5 chooser over the inferred annotations — the level
   assignment under test;
3. build small deterministic *probe* instance sets (pairs of writers over
   one hot record set — the minimal interference pattern every paper
   anomaly needs) and exhaustively explore each probe with source-set
   DPOR at the chosen levels, checking every completed schedule against
   the inferred application invariant and the inferred ``Q_i`` results
   (:func:`repro.sched.semantic.check_semantic_correctness`);
4. classify: a violation at the admitted levels is ``UNSOUND`` only when
   the same probe is clean at SERIALIZABLE (otherwise the inferred
   invariant itself is broken — ``UNSTABLE``); a clean case is probed
   again with every transaction weakened one rung down the ANSI ladder
   to decide ``TIGHT`` vs ``LOOSE``.

Corpus rows must be byte-identical across runs, and the explorer is
deterministic; parallelism lives one layer up — the runner fans out
across *seeds*, never inside a case.
"""

from __future__ import annotations

import random

from repro.core.conditions import ANSI_LADDER, SERIALIZABLE
from repro.fuzz.case import (
    FuzzCase,
    LOOSE,
    SOUND,
    TIGHT,
    UNSOUND,
    UNSTABLE,
    case_fingerprint,
    probe_knobs,
)
from repro.workloads.appgen import AppGenConfig, generate_application, initial_state

#: Probe instance sets explored per case (writer pairs, deterministic order).
DEFAULT_PAIRS = 3
#: Simulator-run budget per probe exploration.
DEFAULT_PROBE_SCHEDULES = 96
#: Interference-checker budget for the chooser pass.
DEFAULT_BUDGET = 1500


def weaker_level(level: str, ladder=ANSI_LADDER) -> str | None:
    """One rung down ``ladder``; ``None`` at (or off) the floor."""
    if level not in ladder:
        return None
    position = ladder.index(level)
    return ladder[position - 1] if position > 0 else None


def probe_sets(app, config: AppGenConfig, pairs: int = DEFAULT_PAIRS) -> list:
    """Deterministic writer-pair probes: ``[(label, [(txn, args), ...])]``.

    Same-type pairs first (the lost-update shape), then distinct-writer
    pairs (write skew), capped at ``pairs``.  Arguments are drawn from the
    domain spec with a per-probe seeded stream, so equal configs always
    produce equal probes.
    """
    writers = [t for t in app.transactions if t.written_resources()]
    combos = [(w, w) for w in writers]
    combos += [
        (writers[i], writers[j])
        for i in range(len(writers))
        for j in range(i + 1, len(writers))
    ]
    probes = []
    for position, (first, second) in enumerate(combos[:pairs]):
        stream = random.Random(f"fuzz:{config.seed}:{position}")
        instances = []
        for copy, txn in enumerate((first, second), start=1):
            args = {}
            for param in txn.params:
                values = list(app.spec.values_for(param)) if app.spec else [0, 1]
                args[param.name] = stream.choice(values)
            instances.append((txn, args, f"{txn.name}#{copy}"))
        probes.append((f"{first.name}+{second.name}@{position}", instances))
    return probes


def explore_probe(initial, instances, levels, invariant, *, max_schedules):
    """Explore one probe at ``levels``; return ``(schedules, violations)``.

    ``violations`` holds ``(summary, history, committed)`` triples for
    every semantically incorrect completed schedule, in exploration order.
    """
    from repro.sched.explore import explore
    from repro.sched.histories import history_string
    from repro.sched.semantic import check_semantic_correctness
    from repro.sched.simulator import InstanceSpec

    specs = [
        InstanceSpec(txn, args, levels.get(txn.name, SERIALIZABLE), name)
        for txn, args, name in instances
    ]
    violations = []

    def check(schedule) -> None:
        report = check_semantic_correctness(schedule, invariant)
        if not report.correct:
            violations.append(
                (
                    report.summary(),
                    history_string(schedule.history),
                    [outcome.name for outcome in schedule.committed],
                )
            )

    result = explore(
        initial.copy(),
        specs,
        max_schedules=max_schedules,
        on_schedule=check,
    )
    return result.schedules, violations


def _witness(probe_label: str, levels: dict, violation) -> dict:
    summary, history, committed = violation
    return {
        "probe": probe_label,
        "levels": dict(sorted(levels.items())),
        "summary": summary,
        "history": history,
        "committed": committed,
    }


def run_case(
    config: AppGenConfig | int,
    *,
    budget: int = DEFAULT_BUDGET,
    pairs: int = DEFAULT_PAIRS,
    probe_schedules: int = DEFAULT_PROBE_SCHEDULES,
    force_level: str | None = None,
    shrink: bool = True,
) -> FuzzCase:
    """The full differential check for one generator config.

    ``force_level`` overrides the chooser's assignment for every
    transaction type — the weakened-chooser fixture the acceptance tests
    use to prove the harness actually catches unsound assignments.
    """
    from repro.core.chooser import analyze_application
    from repro.core.infer import infer_application
    from repro.core.interference import InterferenceChecker

    if isinstance(config, int):
        config = AppGenConfig(seed=config)
    app = generate_application(config)
    fingerprint = case_fingerprint(
        app, config, probe_knobs(budget, pairs, probe_schedules, force_level)
    )
    inferred, report = infer_application(app, seed=config.seed)
    checker = InterferenceChecker(inferred.spec, budget=budget, seed=config.seed)
    levels = analyze_application(inferred, checker).levels()
    if force_level is not None:
        levels = {name: force_level for name in levels}
    invariant = report.closed_invariant(app.spec)
    initial = initial_state(config, balance=1)
    probes = probe_sets(inferred, config, pairs=pairs)

    case = FuzzCase(
        seed=config.seed,
        fingerprint=fingerprint,
        knobs=config.knobs(),
        verdict=SOUND,
        levels=dict(levels),
        probes=len(probes),
    )

    serializable = {name: SERIALIZABLE for name in levels}
    unstable_witness = None
    for label, instances in probes:
        schedules, violations = explore_probe(
            initial, instances, levels, invariant, max_schedules=probe_schedules
        )
        case.schedules += schedules
        if not violations:
            continue
        # violation at an admitted level — real only if SERIALIZABLE is clean
        baseline_schedules, baseline = explore_probe(
            initial, instances, serializable, invariant,
            max_schedules=probe_schedules,
        )
        case.schedules += baseline_schedules
        if baseline:
            if unstable_witness is None:
                unstable_witness = _witness(label, serializable, baseline[0])
            continue
        case.verdict = UNSOUND
        case.violation = _witness(label, levels, violations[0])
        if shrink:
            from repro.fuzz.shrink import shrink_unsound

            case.shrunk = shrink_unsound(
                inferred,
                instances,
                levels,
                invariant,
                initial,
                probe_schedules=probe_schedules,
            )
        return case

    if unstable_witness is not None:
        case.verdict = UNSTABLE
        case.violation = unstable_witness
        return case

    weakened = {name: weaker_level(level) or level for name, level in levels.items()}
    if weakened == levels:
        return case  # every type already at the ladder floor: no comparison
    case.tightness = LOOSE
    for label, instances in probes:
        schedules, violations = explore_probe(
            initial, instances, weakened, invariant, max_schedules=probe_schedules
        )
        case.schedules += schedules
        if not violations:
            continue
        baseline_schedules, baseline = explore_probe(
            initial, instances, serializable, invariant,
            max_schedules=probe_schedules,
        )
        case.schedules += baseline_schedules
        if baseline:
            continue  # inference artifact, not a level-comparison witness
        case.tightness = TIGHT
        case.violation = _witness(label, weakened, violations[0])
        break
    return case
