"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.  The
engine-side errors (:class:`TransactionAborted` and its subclasses) are *not*
programming errors: they are the normal signalling mechanism for aborts caused
by deadlock victims, first-committer-wins conflicts and explicit rollbacks.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SortError(ReproError):
    """An expression or formula was built with incompatible sorts."""


class EvaluationError(ReproError):
    """A term or formula could not be evaluated against a concrete state.

    Typically raised when a referenced database item, array element, local
    variable or parameter is missing from the state or environment.
    """


class ProverError(ReproError):
    """The prover was given input outside the fragment it understands."""


class ProgramError(ReproError):
    """A transaction program is malformed (e.g. a read into a parameter)."""


class AnalysisError(ReproError):
    """The static analysis was configured or invoked inconsistently."""


class EngineError(ReproError):
    """Base class for transactional-engine errors (misuse, not aborts)."""


class TransactionAborted(EngineError):
    """The transaction was aborted and must not issue further operations."""

    def __init__(self, txn_id: int, reason: str) -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class FirstCommitterWinsAbort(TransactionAborted):
    """A first-committer-wins validation failed (SNAPSHOT or RC-FCW)."""

    def __init__(self, txn_id: int, item: str) -> None:
        super().__init__(txn_id, f"first-committer-wins conflict on {item}")
        self.item = item


class ScheduleError(ReproError):
    """A scripted schedule was inconsistent with the programs being run."""
