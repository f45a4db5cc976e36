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

The public names below resolve on first use (PEP 562), so ``import repro``
loads none of the layers, and a static analysis never loads the engine or
the scheduler behind ``Engine`` and ``Simulator``.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "ANSI_LADDER": "repro.core.conditions",
    "Application": "repro.core.application",
    "AssertionGuard": "repro.sched.monitor",
    "AssertionMonitor": "repro.sched.monitor",
    "ApplicationReport": "repro.core.chooser",
    "ChoiceResult": "repro.core.chooser",
    "DbState": "repro.core.state",
    "EXTENDED_LADDER": "repro.core.conditions",
    "Engine": "repro.engine.manager",
    "InstanceSpec": "repro.sched.simulator",
    "InterferenceChecker": "repro.core.interference",
    "READ_COMMITTED": "repro.core.conditions",
    "READ_COMMITTED_FCW": "repro.core.conditions",
    "READ_UNCOMMITTED": "repro.core.conditions",
    "REPEATABLE_READ": "repro.core.conditions",
    "SERIALIZABLE": "repro.core.conditions",
    "SNAPSHOT": "repro.core.conditions",
    "Simulator": "repro.sched.simulator",
    "TransactionType": "repro.core.program",
    "analyze_application": "repro.core.chooser",
    "parse_formula": "repro.core.parser",
    "parse_term": "repro.core.parser",
    "check_semantic_correctness": "repro.sched.semantic",
    "check_transaction_at": "repro.core.conditions",
    "choose_level": "repro.core.chooser",
    "validate_level": "repro.sched.semantic",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
