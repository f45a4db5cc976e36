"""The Section 5 procedure: choose the lowest safe isolation level per type.

For each transaction type, the levels of the chosen ladder are tried in
increasing strength order and the first level whose theorem condition holds
is returned.  The paper's key observation makes this per-type analysis
compositional: while choosing ``T_1``'s level, the levels of the *other*
transactions are irrelevant — at READ UNCOMMITTED their individual writes
are considered, at any higher level they are considered as atomic units,
either way regardless of the level they themselves run at (every type runs
at least at READ UNCOMMITTED, so long write locks are always held).

SNAPSHOT is analysed separately (:func:`snapshot_report`), since vendors
offer it outside the ANSI ladder — exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.application import Application
from repro.core.conditions import (
    ANSI_LADDER,
    EXTENDED_LADDER,
    LevelCheckResult,
    SERIALIZABLE,
    SNAPSHOT,
    check_transaction_at,
)
from repro.core.interference import InterferenceChecker


@dataclass
class ChoiceResult:
    """The chosen level for one transaction type, with the audit trail."""

    transaction: str
    level: str
    attempts: list = field(default_factory=list)  # LevelCheckResult per tried level

    @property
    def chosen_check(self) -> LevelCheckResult:
        return self.attempts[-1]

    def summary(self) -> str:
        trail = " -> ".join(
            f"{attempt.level}:{'ok' if attempt.ok else 'fail'}" for attempt in self.attempts
        )
        return f"{self.transaction}: {self.level}   ({trail})"

    def to_dict(self) -> dict:
        return {
            "transaction": self.transaction,
            "level": self.level,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
        }


@dataclass
class ApplicationReport:
    """Level choices for every transaction type of an application."""

    application: str
    choices: list = field(default_factory=list)
    snapshot_checks: list = field(default_factory=list)

    def choice_for(self, name: str) -> ChoiceResult:
        for choice in self.choices:
            if choice.transaction == name:
                return choice
        raise KeyError(name)

    def levels(self) -> dict:
        return {choice.transaction: choice.level for choice in self.choices}

    def to_dict(self) -> dict:
        return {
            "application": self.application,
            "levels": self.levels(),
            "choices": [choice.to_dict() for choice in self.choices],
            "snapshot_checks": [check.to_dict() for check in self.snapshot_checks],
        }

    def render(self) -> str:
        lines = [f"Isolation-level assignment for application {self.application!r}:"]
        for choice in self.choices:
            lines.append("  " + choice.summary())
        if self.snapshot_checks:
            lines.append("SNAPSHOT analysis (Theorem 5):")
            for check in self.snapshot_checks:
                lines.append("  " + check.summary())
        return "\n".join(lines)


def choose_level(
    app: Application,
    transaction_name: str,
    checker: InterferenceChecker | None = None,
    ladder=ANSI_LADDER,
) -> ChoiceResult:
    """Lowest level of ``ladder`` at which the transaction is correct.

    The ladder always ends in SERIALIZABLE, which is unconditionally
    correct, so the procedure terminates with a valid level.  The checker's
    verdict cache makes the climb cheap — obligations already discharged while rejecting a
    lower level are not re-checked at the next one.
    """
    target = app.transaction(transaction_name)
    if checker is None:
        checker = InterferenceChecker(app.spec)
    attempts: list[LevelCheckResult] = []
    levels = list(ladder)
    if levels[-1] != SERIALIZABLE:
        levels.append(SERIALIZABLE)
    for level in levels:
        result = check_transaction_at(app, target, level, checker)
        attempts.append(result)
        if result.ok:
            return ChoiceResult(transaction_name, level, attempts)
    raise AssertionError("unreachable: SERIALIZABLE is always correct")


def analyze_application(
    app: Application,
    checker: InterferenceChecker | None = None,
    ladder=ANSI_LADDER,
    include_snapshot: bool = False,
) -> ApplicationReport:
    """Run the Section 5 procedure for every transaction type."""
    if checker is None:
        checker = InterferenceChecker(app.spec)
    report = ApplicationReport(app.name)
    for txn in app.transactions:
        report.choices.append(choose_level(app, txn.name, checker, ladder))
    if include_snapshot:
        for txn in app.transactions:
            report.snapshot_checks.append(
                check_transaction_at(app, txn, SNAPSHOT, checker)
            )
    return report


def snapshot_report(app: Application, checker: InterferenceChecker | None = None) -> list:
    """Theorem 5 verdicts for every transaction type of the application."""
    if checker is None:
        checker = InterferenceChecker(app.spec)
    return [
        check_transaction_at(app, txn, SNAPSHOT, checker)
        for txn in app.transactions
    ]
