"""Schedule results: everything the offline checkers need."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.state import DbState


@dataclass
class InstanceOutcome:
    """Final state of one transaction instance in a simulated schedule."""

    index: int
    name: str
    txn_type: object
    args: dict
    level: str
    status: str  # committed | aborted | incomplete
    txn_ids: list = field(default_factory=list)  # engine ids across restarts
    env: dict = field(default_factory=dict)
    commit_tick: int | None = None
    # committed state right after commit; the engine's read-only view
    # (see Engine.committed_state), possibly shared with ScheduleResult.final
    committed_state: DbState | None = None
    restarts: int = 0
    abort_reasons: list = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.status == "committed"


@dataclass
class ScheduleResult:
    """Outcome of one simulated interleaving."""

    initial: DbState
    final: DbState  # the engine's read-only committed view at the end
    outcomes: list = field(default_factory=list)
    history: list = field(default_factory=list)  # engine HistoryOps
    stats: dict = field(default_factory=dict)
    script: list | None = None  # the realised scheduling decisions

    @property
    def committed(self) -> list:
        """Committed instances in commit order."""
        done = [o for o in self.outcomes if o.committed]
        return sorted(done, key=lambda o: o.commit_tick)

    @property
    def aborted(self) -> list:
        return [o for o in self.outcomes if o.status == "aborted"]

    def outcome_by_name(self, name: str) -> "InstanceOutcome":
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    def summary(self) -> str:
        committed = ", ".join(f"{o.name}@{o.level}" for o in self.committed)
        lines = [
            f"schedule: {len(self.committed)} committed [{committed}],"
            f" {len(self.aborted)} aborted",
            f"stats: {self.stats}",
        ]
        return "\n".join(lines)
