"""repro — semantic correctness of transactions at weak isolation levels.

A complete implementation of *Bernstein, Lewis & Lu, "Semantic Conditions
for Correctness at Different Isolation Levels", ICDE 2000*:

* a formal assertion language, strongest-postcondition engine and
  three-tier interference checker (:mod:`repro.core`);
* Theorems 1–6 as checkable per-level conditions and the Section 5
  lowest-level chooser (:mod:`repro.core.conditions`,
  :mod:`repro.core.chooser`);
* an in-memory transactional engine implementing the locking/MVCC recipes
  of Berenson et al. for all six levels (:mod:`repro.engine`);
* a deterministic schedule simulator with isolation-axiom, anomaly and
  dynamic semantic-correctness checkers (:mod:`repro.sched`);
* the paper's example applications, modeled and runnable
  (:mod:`repro.apps`), and workload harnesses (:mod:`repro.workloads`).

Quickstart::

    from repro import analyze_application, InterferenceChecker
    from repro.apps import banking

    app = banking.make_application()
    report = analyze_application(app, InterferenceChecker(app.spec))
    print(report.render())
"""

from repro.core.application import Application
from repro.core.chooser import ApplicationReport, ChoiceResult, analyze_application, choose_level
from repro.core.conditions import (
    ANSI_LADDER,
    EXTENDED_LADDER,
    READ_COMMITTED,
    READ_COMMITTED_FCW,
    READ_UNCOMMITTED,
    REPEATABLE_READ,
    SERIALIZABLE,
    SNAPSHOT,
    check_transaction_at,
)
from repro.core.interference import InterferenceChecker
from repro.core.parser import parse_formula, parse_term
from repro.core.program import TransactionType
from repro.core.state import DbState
from repro.engine import Engine
from repro.sched.monitor import AssertionGuard, AssertionMonitor
from repro.sched.semantic import check_semantic_correctness, validate_level
from repro.sched.simulator import InstanceSpec, Simulator

__version__ = "1.0.0"

__all__ = [
    "ANSI_LADDER",
    "Application",
    "AssertionGuard",
    "AssertionMonitor",
    "ApplicationReport",
    "ChoiceResult",
    "DbState",
    "EXTENDED_LADDER",
    "Engine",
    "InstanceSpec",
    "InterferenceChecker",
    "READ_COMMITTED",
    "READ_COMMITTED_FCW",
    "READ_UNCOMMITTED",
    "REPEATABLE_READ",
    "SERIALIZABLE",
    "SNAPSHOT",
    "Simulator",
    "TransactionType",
    "analyze_application",
    "parse_formula",
    "parse_term",
    "check_semantic_correctness",
    "check_transaction_at",
    "choose_level",
    "validate_level",
    "__version__",
]
