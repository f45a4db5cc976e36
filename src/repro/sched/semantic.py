"""The dynamic semantic-correctness check — the paper's criterion (2).

A schedule ``Sch`` is *semantically correct* when ``{I} Sch {I ∧ Q_Sch}``:
the final state is consistent and reflects the cumulative result of the
committed transactions as if they had run serially in commit order.

Operationalisation (each part is reported separately so benchmarks can
show exactly which clause a weak level violates):

1. **consistency** — the application invariant ``I`` holds in the final
   committed state;
2. **per-transaction results** — each committed instance's ``Q_i`` holds in
   the committed state *as of its commit* (paper: ``Q_i`` must not have
   been invalidated while active), evaluated with the instance's actual
   parameters, logical-variable snapshot and workspace;
2b. **serial-order results** — ``Q_i`` also holds at commit time when the
   logical variables are bound from the *serial replay* in commit order.
   This is the operative content of ``Q_Sch``: the schedule's postcondition
   must equal that of the serial schedule of the same transactions in
   completion order, and the serial schedule's ``Q_i`` quantifies over the
   serial initial values.  A lost update passes check 2 (the victim's own
   observation was stale but self-consistent) and fails exactly here;
3. **cumulative result** — an optional application-supplied ``Q_Sch``
   callable over (initial state, final state, committed outcomes); this is
   where cross-transaction clauses live (e.g. "no order was loaded onto
   two delivery trucks", "the balance grew by the sum of the deposits");
4. **serial replay** — informational: whether the final state equals the
   serial execution of the committed instances in commit order.  Semantic
   correctness does *not* require this (that is the paper's point), so it
   is reported but never counted as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.formula import Formula
from repro.core.state import DbState
from repro.errors import EvaluationError
from repro.sched.schedule import ScheduleResult


@dataclass
class SemanticReport:
    """Verdict of the semantic-correctness check for one schedule."""

    consistent: bool
    result_violations: list = field(default_factory=list)
    cumulative_violations: list = field(default_factory=list)
    serial_equivalent: bool | None = None
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.consistent and not self.result_violations and not self.cumulative_violations

    @property
    def violation_count(self) -> int:
        """How many distinct clauses of the criterion failed.

        One for a broken invariant plus one per result/cumulative violation;
        ``serial_equivalent`` is informational and never counted (see the
        module docstring).
        """
        return (
            (0 if self.consistent else 1)
            + len(self.result_violations)
            + len(self.cumulative_violations)
        )

    def summary(self) -> str:
        if self.correct:
            tail = "" if self.serial_equivalent else " (final state not serially reachable)"
            return "semantically correct" + tail
        parts = []
        if not self.consistent:
            parts.append("invariant violated")
        parts.extend(self.result_violations)
        parts.extend(self.cumulative_violations)
        return "VIOLATIONS: " + "; ".join(parts)


def _evaluate(formula: Formula, state: DbState, env: dict) -> bool | None:
    try:
        return formula.evaluate(state, env)
    except EvaluationError:
        return None


def check_semantic_correctness(
    result: ScheduleResult,
    invariant: Formula,
    cumulative: Callable[[DbState, DbState, list], Iterable] | None = None,
) -> SemanticReport:
    """Check one simulated schedule against the semantic criterion."""
    report = SemanticReport(consistent=True)

    ok = _evaluate(invariant, result.final, {})
    if ok is None:
        report.notes.append("invariant not evaluable on final state")
    elif not ok:
        report.consistent = False

    serial_state = result.initial.copy()
    replayed = True  # every commit ran on serial_state, in commit order
    for outcome in result.committed:
        state_at_commit = outcome.committed_state or result.final
        verdict = _evaluate(outcome.txn_type.result, state_at_commit, outcome.env)
        if verdict is None:
            report.notes.append(f"{outcome.name}: Q not evaluable")
        elif not verdict:
            report.result_violations.append(f"{outcome.name}: Q_i false at commit")
        # serial-order check: rebind the logical variables from the serial
        # replay and require Q_i at the actual commit-time state
        serial_env = dict(outcome.env)
        try:
            ghost_env = {}
            for param in outcome.txn_type.params:
                ghost_env[param] = outcome.args[param.name]
            for logical, term in outcome.txn_type.snapshot:
                ghost_env[logical] = term.evaluate(serial_state, ghost_env)
            serial_env.update(ghost_env)
            outcome.txn_type.run(serial_state, outcome.args)
        except (EvaluationError, KeyError):
            report.notes.append(f"{outcome.name}: serial replay not evaluable")
            replayed = False
            continue
        serial_verdict = _evaluate(outcome.txn_type.result, state_at_commit, serial_env)
        if serial_verdict is None:
            report.notes.append(f"{outcome.name}: serial-order Q not evaluable")
        elif not serial_verdict:
            report.result_violations.append(
                f"{outcome.name}: Q_i inconsistent with serial commit order"
            )

    if cumulative is not None:
        report.cumulative_violations.extend(
            str(v) for v in cumulative(result.initial, result.final, result.committed)
        )

    # the loop above already ran the serial replay unless a commit failed
    # part-way through it (ghost evaluations only read serial_state)
    if replayed:
        report.serial_equivalent = serial_state.same_as(result.final)
    else:
        report.serial_equivalent = serial_replay_matches(result)
    return report


def serial_replay_matches(result: ScheduleResult) -> bool:
    """Does the final state equal a serial run in commit order?"""
    state = result.initial.copy()
    for outcome in result.committed:
        try:
            outcome.txn_type.run(state, outcome.args)
        except EvaluationError:
            return False
    return state.same_as(result.final)


def validate_level(
    initial: DbState,
    specs,
    invariant: Formula,
    rounds: int = 50,
    seed: int = 0,
    cumulative: Callable | None = None,
    retry: bool = True,
) -> dict:
    """Run many random interleavings; tally semantic violations.

    The dynamic counterpart of the static analysis: at the chooser's level
    the tally should be zero; one level below, witnesses should appear.
    Returns ``{"rounds", "violations", "witnesses", "serial_divergences"}``.
    """
    from repro.sched.simulator import Simulator, round_seeds

    violations = 0
    witnesses = []
    serial_divergences = 0
    for round_index, round_seed in enumerate(round_seeds(seed, rounds)):
        simulator = Simulator(initial.copy(), specs, seed=round_seed, retry=retry)
        schedule = simulator.run()
        report = check_semantic_correctness(schedule, invariant, cumulative)
        if not report.correct:
            violations += 1
            if len(witnesses) < 3:
                witnesses.append((round_index, report.summary(), schedule.script))
        if report.serial_equivalent is False:
            serial_divergences += 1
    return {
        "rounds": rounds,
        "violations": violations,
        "witnesses": witnesses,
        "serial_divergences": serial_divergences,
    }
